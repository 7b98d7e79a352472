"""Compiles a scenario into linear programs and reads plans back out.

Two builds share one core: the stochastic program treats per-period inflows as
bounded decision variables and charges the expected shortfall risk over the
discretized inflow distribution; the deterministic baseline pins each inflow
to its distribution mean and drops the risk term. Every piecewise-linear term
gets one variable: a hypograph for concave profit, an epigraph for convex
transfer cost and for expected risk, which is one convex function of the
inflow prediction over its support. The capacity cap is a penalized overflow
slack.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import lp
from .model import Plan, Scenario, ScenarioValidationError, validate_scenario

EXTRACT_TOL = 1e-6


@dataclasses.dataclass
class VariableMap:
    """Bijection between semantic (period, reservoir[, target]) indices and LP
    variable positions. Periods and reservoir ids are 1-based."""

    transfer: dict[tuple[int, int, int], int] = dataclasses.field(default_factory=dict)
    release: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)
    inflow: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)
    volume: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)
    overflow: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)
    profit_hypo: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)
    cost_epi: dict[tuple[int, int, int], int] = dataclasses.field(default_factory=dict)
    risk_epi: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)

    def groups(self):
        return (self.transfer, self.release, self.inflow, self.volume,
                self.overflow, self.profit_hypo, self.cost_epi, self.risk_epi)

    def check_bijective(self, num_variables: int) -> None:
        seen: list[int] = []
        for group in self.groups():
            seen.extend(group.values())
        if sorted(seen) != list(range(num_variables)):
            raise AssertionError("variable map is not a bijection onto the LP")


def _add_pwl_term(problem: lp.LpProblem, name: str, arg: int,
                  cuts, concave: bool) -> int:
    """Add f(arg) to the objective through one variable z: z <= every cut of a
    concave f (hypograph, +z) or z >= every cut of a convex f (epigraph, -z).
    Returns the index of z."""
    z = problem.add_variable(name, -np.inf, np.inf)
    problem.set_objective_coefficient(z, 1.0 if concave else -1.0)
    relation = lp.LESS_EQUAL if concave else lp.GREATER_EQUAL
    for slope, intercept in cuts:
        problem.add_constraint([(z, 1.0), (arg, -slope)], relation, intercept)
    return z


def _build(scenario: Scenario, stochastic: bool) -> tuple[lp.LpProblem, VariableMap]:
    report = validate_scenario(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    problem = lp.LpProblem(name=f"{scenario.name}:{'proposed' if stochastic else 'deterministic'}")
    vm = VariableMap()
    links = scenario.sorted_links()
    incoming: dict[int, list] = {n: [] for n in scenario.ids()}
    outgoing: dict[int, list] = {n: [] for n in scenario.ids()}
    for link in links:
        outgoing[link.source].append(link)
        incoming[link.target].append(link)

    for t in scenario.periods():
        for link in links:
            idx = problem.add_variable(
                f"q[{t},{link.source}->{link.target}]", 0.0, link.capacity)
            vm.transfer[(t, link.source, link.target)] = idx
        for n in scenario.ids():
            vm.release[(t, n)] = problem.add_variable(f"g[{t},{n}]", 0.0)
        for n in scenario.ids():
            inflow = scenario.inflow[(n, t)]
            lo, hi = inflow.bounds() if stochastic else (inflow.mean(),) * 2
            vm.inflow[(t, n)] = problem.add_variable(f"x[{t},{n}]", lo, hi)
        for n in scenario.ids():
            vm.volume[(t, n)] = problem.add_variable(f"v[{t},{n}]", 0.0)
        for n in scenario.ids():
            vm.overflow[(t, n)] = problem.add_variable(f"w[{t},{n}]", 0.0)
            problem.set_objective_coefficient(
                vm.overflow[(t, n)], -float(scenario.overflow_penalty[(n, t)]))

        for n in scenario.ids():
            spec = scenario.reservoir(n)
            # The previous volume is a variable, or a constant at t = 1.
            if t == 1:
                prev, rhs = [], spec.initial_volume
            else:
                prev, rhs = [(vm.volume[(t - 1, n)], -1.0)], 0.0
            outflows = [(vm.transfer[(t, n, link.target)], 1.0)
                        for link in outgoing[n]]
            # Volume recursion: v[t] = v[t-1] - g + x + inflows_from_links - outflows.
            coefs = [(vm.volume[(t, n)], 1.0), (vm.release[(t, n)], 1.0),
                     (vm.inflow[(t, n)], -1.0)]
            coefs += [(vm.transfer[(t, link.source, n)], -1.0)
                      for link in incoming[n]]
            problem.add_constraint(coefs + outflows + prev, lp.EQUAL, rhs)

            # Releases and transfers are drawn from the previous volume only
            # (conservative: period-t inflow is not available within period t).
            problem.add_constraint([(vm.release[(t, n)], 1.0)] + outflows + prev,
                                   lp.LESS_EQUAL, rhs)

            # Overflow slack: w >= v - max_volume.
            problem.add_constraint(
                [(vm.overflow[(t, n)], 1.0), (vm.volume[(t, n)], -1.0)],
                lp.GREATER_EQUAL, -spec.max_volume)

            vm.profit_hypo[(t, n)] = _add_pwl_term(
                problem, f"u[{t},{n}]", vm.release[(t, n)],
                scenario.release_profit[(n, t)].cuts(), concave=True)
            if stochastic:
                # Expected shortfall risk sum_k p_k * r(x - support_k).
                vm.risk_epi[(t, n)] = _add_pwl_term(
                    problem, f"rho[{t},{n}]", vm.inflow[(t, n)],
                    scenario.shortfall_risk[(n, t)].expected_cuts(
                        scenario.inflow[(n, t)].support), concave=False)

        for link in links:
            key = (t, link.source, link.target)
            vm.cost_epi[key] = _add_pwl_term(
                problem, f"y[{t},{link.source}->{link.target}]",
                vm.transfer[key],
                scenario.transfer_cost[(link.source, link.target, t)].cuts(),
                concave=False)

    for n in scenario.ids():
        problem.add_constraint(
            [(vm.volume[(scenario.horizon, n)], 1.0)],
            lp.GREATER_EQUAL, scenario.reservoir(n).final_min_volume)

    vm.check_bijective(problem.num_variables)
    return problem, vm


def build_proposed(scenario: Scenario) -> tuple[lp.LpProblem, VariableMap]:
    """Stochastic program: inflow predictions are optimized within the support
    range and charged the expected shortfall risk over the support."""
    return _build(scenario, stochastic=True)


def build_deterministic(scenario: Scenario) -> tuple[lp.LpProblem, VariableMap]:
    """Traditional baseline: inflows pinned to their means, no risk term."""
    return _build(scenario, stochastic=False)


def extract_plan(solution: lp.LpSolution, vm: VariableMap,
                 scenario: Scenario) -> Plan:
    """Read plan arrays out of an optimal solution through the variable map."""
    if not solution.is_optimal:
        raise ValueError(f"cannot extract a plan from a {solution.status} solution")
    t_count, n_count = scenario.horizon, scenario.num_reservoirs
    values = solution.values

    transfers = np.zeros((t_count, n_count, n_count))
    for (t, n, m), idx in vm.transfer.items():
        transfers[t - 1, n - 1, m - 1] = values[idx]
    releases = np.zeros((t_count, n_count))
    predicted = np.zeros((t_count, n_count))
    volumes = np.zeros((t_count, n_count))
    for (t, n), idx in vm.release.items():
        releases[t - 1, n - 1] = values[idx]
    for (t, n), idx in vm.inflow.items():
        predicted[t - 1, n - 1] = values[idx]
    for (t, n), idx in vm.volume.items():
        volumes[t - 1, n - 1] = values[idx]

    # Clamp solver roundoff at the bounds so plan invariants hold exactly.
    for arr in (transfers, releases, volumes):
        tiny = (arr < 0) & (arr > -EXTRACT_TOL)
        arr[tiny] = 0.0
    for n in scenario.ids():
        for t in scenario.periods():
            lo, hi = scenario.inflow[(n, t)].bounds()
            predicted[t - 1, n - 1] = min(max(predicted[t - 1, n - 1], lo), hi)

    plan = Plan(transfers=transfers, releases=releases,
                predicted_inflows=predicted, volumes=volumes,
                objective=float(solution.objective))
    plan.check_dimensions(scenario)
    return plan


def plan_violations(plan: Plan, scenario: Scenario,
                    tol: float = EXTRACT_TOL) -> list[tuple[str, float]]:
    """Replay the compiled constraints against a plan; returns (name, excess)
    pairs for every violation beyond `tol`."""
    out: list[tuple[str, float]] = []
    t_count = scenario.horizon
    v0 = scenario.initial_volumes()
    caps = {(l.source, l.target): l.capacity for l in scenario.links}

    for t in range(t_count):
        prev = v0 if t == 0 else plan.volumes[t - 1]
        for n in scenario.ids():
            i = n - 1
            inflow_links = sum(plan.transfers[t, m - 1, i] for m in scenario.ids())
            outflow_links = sum(plan.transfers[t, i, m - 1] for m in scenario.ids())
            state = (prev[i] - plan.releases[t, i] + plan.predicted_inflows[t, i]
                     + inflow_links - outflow_links)
            gap = abs(plan.volumes[t, i] - state)
            if gap > tol:
                out.append((f"state equation t={t + 1} n={n}", gap))
            budget = plan.releases[t, i] + outflow_links - prev[i]
            if budget > tol:
                out.append((f"release budget t={t + 1} n={n}", budget))
            lo, hi = scenario.inflow[(n, t + 1)].bounds()
            if plan.predicted_inflows[t, i] < lo - tol or \
                    plan.predicted_inflows[t, i] > hi + tol:
                out.append((f"inflow range t={t + 1} n={n}",
                            max(lo - plan.predicted_inflows[t, i],
                                plan.predicted_inflows[t, i] - hi)))
        for (src, dst), cap in caps.items():
            q = plan.transfers[t, src - 1, dst - 1]
            if q > cap + tol:
                out.append((f"transfer capacity t={t + 1} {src}->{dst}", q - cap))
        for n in scenario.ids():
            for m in scenario.ids():
                if n != m and (n, m) not in caps and \
                        plan.transfers[t, n - 1, m - 1] > tol:
                    out.append((f"transfer without link t={t + 1} {n}->{m}",
                                plan.transfers[t, n - 1, m - 1]))

    for n in scenario.ids():
        short = scenario.reservoir(n).final_min_volume - plan.volumes[-1, n - 1]
        if short > tol:
            out.append((f"terminal volume n={n}", short))
    return out

"""Compiles a scenario into linear programs and reads plans back out.

Two builds share one core: the stochastic program treats per-period inflows as
bounded decision variables and charges the expected shortfall risk over the
discretized inflow distribution; the deterministic baseline pins each inflow
to its distribution mean and drops the risk term. The piecewise-linear terms
are separable (Dantzig 1956): the release profit of g, the transfer cost of q,
the expected risk of the inflow prediction x, which is one convex function of
x over its support, and the overflow penalty F * max(0, v - V) of the volume
v, the hinge of slope F over the one-point support V. Each such argument a in
[lo, hi] is lo plus one column per piece of its function f, bounded by [0, the
piece's length] and priced at its slope: + for the concave profit, which is
maximized, and - for the convex cost, risk and penalty, which are minimized.
Every row that reads a reads its pieces instead, with lo moved to the
right-hand side, so a term needs no row and no epigraph variable: the rows are
the state, release-budget and terminal rows. The profit's slopes fall and the
others' rise, so an optimum fills the pieces in order, and they price
f(a) - f(lo) exactly. The constant, the sum of the f(lo), is one column fixed
at 1, added only when it is nonzero. Many terms share one function (angpuang
has one transfer cost for all 84 link-periods), so a build derives the pieces
and f(lo) once per distinct (function, lo, hi, support), compared by value,
and every term with that key reuses them. The deterministic build keeps each
pinned x as one fixed column.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import lp
from .model import Plan, Scenario, ScenarioValidationError, validate_scenario
from .pwl import PwlFunction, hinge

EXTRACT_TOL = 1e-6


@dataclasses.dataclass
class VariableMap:
    """Bijection between semantic (period, reservoir[, target]) indices and LP
    variable positions. Periods and reservoir ids are 1-based. Each transfer,
    release, inflow prediction and volume maps to its piece columns and is
    their sum, plus `inflow_lo` for an inflow. A deterministic inflow maps to
    its one fixed column, with `inflow_lo` 0. `constant` is the column fixed
    at 1 that carries the objective's constant, if it is nonzero."""

    transfer: dict[tuple[int, int, int], tuple[int, ...]] = dataclasses.field(
        default_factory=dict)
    release: dict[tuple[int, int], tuple[int, ...]] = dataclasses.field(
        default_factory=dict)
    inflow: dict[tuple[int, int], tuple[int, ...]] = dataclasses.field(
        default_factory=dict)
    inflow_lo: dict[tuple[int, int], float] = dataclasses.field(default_factory=dict)
    volume: dict[tuple[int, int], tuple[int, ...]] = dataclasses.field(
        default_factory=dict)
    constant: int | None = None

    def check_bijective(self, num_variables: int) -> None:
        seen = [column for group in (self.transfer, self.release, self.inflow,
                                     self.volume)
                for columns in group.values() for column in columns]
        if self.constant is not None:
            seen.append(self.constant)
        if sorted(seen) != list(range(num_variables)):
            raise AssertionError("variable map is not a bijection onto the LP")


def _add_pieces(problem: lp.LpProblem, memo: dict, name: str, sign: float,
                func: PwlFunction, lo: float, hi: float,
                support=((0.0, 1.0),)) -> tuple[tuple[int, ...], float]:
    """Add one column per piece of `func.pieces(lo, hi, support)`, bounded
    by [0, its length] and priced at `sign` times its slope. Returns the
    columns and sign * f(lo). `memo` holds the pieces one build has derived,
    keyed by the function's value and the arguments, so equal terms share
    them, whether they are one object or equal copies."""
    key = (func, lo, hi, support)
    pieces = memo.get(key)
    if pieces is None:
        pieces = memo[key] = func.pieces(lo, hi, support)
    value, slopes, lengths = pieces
    columns = []
    for k, (slope, length) in enumerate(zip(slopes, lengths), 1):
        column = problem.add_variable(f"{name}:{k}", 0.0, length)
        problem.set_objective_coefficient(column, sign * slope)
        columns.append(column)
    return tuple(columns), sign * value


def _build(scenario: Scenario, stochastic: bool) -> tuple[lp.LpProblem, VariableMap]:
    report = validate_scenario(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    problem = lp.LpProblem(name=f"{scenario.name}:{'proposed' if stochastic else 'deterministic'}")
    vm = VariableMap()
    pieces: dict = {}
    hinges = functools.cache(hinge)  # one function per distinct penalty
    constant = 0.0
    links = scenario.sorted_links()
    incoming: dict[int, list] = {n: [] for n in scenario.ids()}
    outgoing: dict[int, list] = {n: [] for n in scenario.ids()}
    for link in links:
        outgoing[link.source].append(link)
        incoming[link.target].append(link)

    for t in scenario.periods():
        for link in links:
            key = (t, link.source, link.target)
            cost = scenario.transfer_cost[(link.source, link.target, t)]
            vm.transfer[key], value = _add_pieces(
                problem, pieces, f"q[{t},{link.source}->{link.target}]", -1.0,
                cost, 0.0, link.capacity)
            constant += value
        for n in scenario.ids():
            vm.release[(t, n)], value = _add_pieces(
                problem, pieces, f"g[{t},{n}]", 1.0,
                scenario.release_profit[(n, t)], 0.0, math.inf)
            constant += value
        for n in scenario.ids():
            inflow = scenario.inflow[(n, t)]
            if stochastic:
                # Expected shortfall risk sum_k p_k * r(x - support_k).
                lo, hi = inflow.bounds()
                risk = scenario.shortfall_risk[(n, t)]
                vm.inflow[(t, n)], value = _add_pieces(
                    problem, pieces, f"x[{t},{n}]", -1.0,
                    risk, lo, hi, inflow.support)
                vm.inflow_lo[(t, n)] = lo
                constant += value
            else:
                mean = inflow.mean()
                vm.inflow[(t, n)] = (problem.add_variable(f"x[{t},{n}]", mean, mean),)
                vm.inflow_lo[(t, n)] = 0.0
        for n in scenario.ids():
            # F * max(0, v - V): a column [0, V] priced 0, then [0, inf)
            # priced -F; only the latter if V = 0.
            vm.volume[(t, n)], value = _add_pieces(
                problem, pieces, f"v[{t},{n}]", -1.0,
                hinges(scenario.overflow_penalty[(n, t)]),
                0.0, math.inf, ((scenario.reservoir(n).max_volume, 1.0),))
            constant += value

        for n in scenario.ids():
            # The previous volume is a variable, or a constant at t = 1.
            if t == 1:
                prev, rhs = [], scenario.reservoir(n).initial_volume
            else:
                prev = [(column, -1.0) for column in vm.volume[(t - 1, n)]]
                rhs = 0.0
            release = [(column, 1.0) for column in vm.release[(t, n)]]
            outflows = [(column, 1.0) for link in outgoing[n]
                        for column in vm.transfer[(t, n, link.target)]]
            # Volume recursion: v[t] = v[t-1] - g + x + inflows_from_links -
            # outflows, with x = inflow_lo + its pieces.
            coefs = [(column, 1.0) for column in vm.volume[(t, n)]] + release
            coefs += [(column, -1.0) for column in vm.inflow[(t, n)]]
            coefs += [(column, -1.0) for link in incoming[n]
                      for column in vm.transfer[(t, link.source, n)]]
            problem.add_constraint(coefs + outflows + prev, lp.EQUAL,
                                   rhs + vm.inflow_lo[(t, n)])

            # Releases and transfers are drawn from the previous volume only
            # (conservative: period-t inflow is not available within period t).
            problem.add_constraint(release + outflows + prev, lp.LESS_EQUAL, rhs)

    for n in scenario.ids():
        problem.add_constraint(
            [(column, 1.0) for column in vm.volume[(scenario.horizon, n)]],
            lp.GREATER_EQUAL, scenario.reservoir(n).final_min_volume)

    if constant != 0.0:
        vm.constant = problem.add_variable("constant", 1.0, 1.0)
        problem.set_objective_coefficient(vm.constant, constant)
    vm.check_bijective(problem.num_variables)
    return problem, vm


def build_proposed(scenario: Scenario) -> tuple[lp.LpProblem, VariableMap]:
    """Stochastic program: inflow predictions are optimized within the support
    range and charged the expected shortfall risk over the support."""
    return _build(scenario, stochastic=True)


def build_deterministic(scenario: Scenario) -> tuple[lp.LpProblem, VariableMap]:
    """Traditional baseline: inflows pinned to their means, no risk term."""
    return _build(scenario, stochastic=False)


def _laid_out(entries: dict, shape: tuple[int, ...]) -> np.ndarray:
    """An array of `shape` holding each value at its 1-based key, 0 elsewhere."""
    out = np.zeros(shape)
    if entries:
        keys = np.array(list(entries), dtype=np.intp) - 1
        out[tuple(keys.T)] = list(entries.values())
    return out


def _summed(values: np.ndarray, group: dict, shape: tuple[int, ...]) -> np.ndarray:
    """An array of `shape` holding, at each 1-based key of `group`, the sum
    of the values of its columns, and 0 elsewhere."""
    keys = np.array(list(group), dtype=np.intp).reshape(-1, len(shape)) - 1
    owners = np.repeat(np.ravel_multi_index(tuple(keys.T), shape),
                       [len(columns) for columns in group.values()])
    columns = np.fromiter(itertools.chain.from_iterable(group.values()),
                          dtype=np.intp, count=owners.size)
    # bincount gives integers if there is no column at all.
    sums = np.bincount(owners, values[columns], math.prod(shape))
    return sums.astype(float, copy=False).reshape(shape)


def extract_plan(solution: lp.LpSolution, vm: VariableMap,
                 scenario: Scenario) -> Plan:
    """Read plan arrays out of an optimal solution through the variable map."""
    if not solution.is_optimal:
        raise ValueError(f"cannot extract a plan from a {solution.status} solution")
    t_count, n_count = scenario.horizon, scenario.num_reservoirs
    values = solution.values

    transfers = _summed(values, vm.transfer, (t_count, n_count, n_count))
    releases = _summed(values, vm.release, (t_count, n_count))
    predicted = _summed(values, vm.inflow, (t_count, n_count))
    predicted += _laid_out(vm.inflow_lo, (t_count, n_count))
    volumes = _summed(values, vm.volume, (t_count, n_count))

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

"""Untimed correctness checks on what a CLI command computed and wrote.

`Capture` records, during one command, every LP solved, plan extracted and
Monte Carlo report made. The checks compare them with references that do not
share the package's code paths: HiGHS (through the installed scipy) for LP
objectives, and a frozen copy of the Monte Carlo semantics of the package's
first release for evaluation aggregates.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from reservoirplan import formulation, lp, simulation
from spans import patched

OBJECTIVE_RTOL = 1e-7
AGGREGATE_RTOL = 1e-9


class Capture:
    """Keeps the arguments and results of the calls the checks need."""

    def __init__(self):
        self.solves = []     # (problem, solution)
        self.plans = []      # (plan, scenario)
        self.reports = []    # (report, plan, scenario, reps, seed)

    def _solve(self, original):
        def solve(problem, *args, **kwargs):
            solution = original(problem, *args, **kwargs)
            self.solves.append((problem, solution))
            return solution
        return solve

    def _extract(self, original):
        def extract_plan(solution, vm, scenario):
            plan = original(solution, vm, scenario)
            self.plans.append((plan, scenario))
            return plan
        return extract_plan

    def _monte_carlo(self, original):
        def run_monte_carlo(plan, scenario, reps=100, seed=0, **kwargs):
            report = original(plan, scenario, reps=reps, seed=seed, **kwargs)
            self.reports.append((report, plan, scenario, reps, seed))
            return report
        return run_monte_carlo

    def patches(self):
        return patched([
            (lp, "solve", self._solve(lp.solve)),
            (formulation, "extract_plan",
             self._extract(formulation.extract_plan)),
            (simulation, "run_monte_carlo",
             self._monte_carlo(simulation.run_monte_carlo)),
        ])


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def highs_objective(problem: lp.LpProblem) -> float | None:
    """Optimal objective of the maximization LP by HiGHS, or None if HiGHS
    finds no optimum."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    rows = {lp.LESS_EQUAL: ([], [], [], []), lp.EQUAL: ([], [], [], [])}
    for con in problem.constraints:
        sign = -1.0 if con.relation == lp.GREATER_EQUAL else 1.0
        i, j, v, b = rows[lp.EQUAL if con.relation == lp.EQUAL else lp.LESS_EQUAL]
        for index, coef in con.coefficients:
            i.append(len(b))
            j.append(index)
            v.append(sign * coef)
        b.append(sign * con.rhs)

    def matrix(key):
        i, j, v, b = rows[key]
        if not b:
            return None, None
        return (csr_array((v, (i, j)), shape=(len(b), problem.num_variables)),
                np.array(b))

    a_ub, b_ub = matrix(lp.LESS_EQUAL)
    a_eq, b_eq = matrix(lp.EQUAL)
    result = linprog(-problem.objective_vector(), A_ub=a_ub, b_ub=b_ub,
                     A_eq=a_eq, b_eq=b_eq,
                     bounds=np.column_stack([problem.lower, problem.upper]),
                     method="highs")
    return -result.fun if result.status == 0 else None


def check_solves(capture: Capture, expected: int) -> list[str]:
    """Every LP optimal and equal to HiGHS; every extracted plan feasible."""
    problems = []
    if len(capture.solves) != expected:
        problems.append(f"expected {expected} LP solves, saw {len(capture.solves)}")
    for problem, solution in capture.solves:
        if not solution.is_optimal:
            problems.append(f"{problem.name}: status {solution.status}")
            continue
        reference = highs_objective(problem)
        if reference is None or not close(solution.objective, reference,
                                          OBJECTIVE_RTOL):
            problems.append(f"{problem.name}: objective {solution.objective!r} "
                            f"but HiGHS gives {reference!r}")
    if len(capture.plans) != expected:
        problems.append(f"expected {expected} plans, saw {len(capture.plans)}")
    for plan, scenario in capture.plans:
        violations = formulation.plan_violations(plan, scenario)
        if violations:
            problems.append(f"{scenario.name}: plan violates {violations[:3]}")
    return problems


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI data file, skipping its manifest comments."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def plan_arrays_from_json(path: Path, horizon: int, reservoirs: int):
    """Releases, volumes and transfers of a plan file, read without the
    package."""
    doc = json.loads(path.read_text())
    releases = np.zeros((horizon, reservoirs))
    volumes = np.zeros((horizon, reservoirs))
    transfers = np.zeros((horizon, reservoirs, reservoirs))
    for entry in doc["releases"]:
        releases[entry["t"] - 1, entry["n"] - 1] = entry["g"]
        volumes[entry["t"] - 1, entry["n"] - 1] = entry["v"]
    for entry in doc["transfers"]:
        transfers[entry["t"] - 1, entry["from"] - 1, entry["to"] - 1] = entry["q"]
    return releases, volumes, transfers


def _splitmix(z):
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _pwl(func, x):
    xs = np.array([p[0] for p in func.breakpoints])
    ys = np.array([p[1] for p in func.breakpoints])
    x = np.asarray(x, dtype=float)
    out = np.interp(x, xs, ys)
    out = np.where(x < xs[0], ys[0] + func.left_slope * (x - xs[0]), out)
    return np.where(x > xs[-1], ys[-1] + func.right_slope * (x - xs[-1]), out)


def reference_monte_carlo(releases, volumes, transfers, scenario, reps: int,
                          seed: int) -> tuple[float, float]:
    """(mean, sample std) of total profit under the first release's semantics.

    Literal (non-physical) realization. The inflow draw for (seed, rep, n, t)
    is a counter-based SplitMix64 hash mapped through the inverse CDF. The
    realizable release absorbs the previous period's volume deviation. Profit
    is earned on the target release, cost on the planned transfers and risk
    on the release shortfall.
    """
    horizon, count = scenario.horizon, scenario.num_reservoirs
    rep_ids = np.arange(reps, dtype=np.uint64)
    inflows = np.empty((reps, horizon, count))
    with np.errstate(over="ignore"):
        by_rep = _splitmix(_splitmix(np.uint64(seed & (2**64 - 1))) ^ rep_ids)
        for n in range(1, count + 1):
            by_n = _splitmix(by_rep ^ np.uint64(n))
            for t in range(1, horizon + 1):
                h = _splitmix(by_n ^ np.uint64(t))
                u = (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
                support = scenario.inflow[(n, t)].support
                cdf = np.cumsum([p for _, p in support])
                cdf[-1] = 1.0
                values = np.array([v for v, _ in support])
                inflows[:, t - 1, n - 1] = values[np.searchsorted(cdf, u, "right")]

    v0 = np.array([scenario.reservoir(n).initial_volume
                   for n in range(1, count + 1)])
    net_links = transfers.sum(axis=1) - transfers.sum(axis=2)
    planned_prev = np.vstack([v0, volumes[:-1]])
    volume = np.tile(v0, (reps, 1))
    risk = np.zeros(reps)
    for t in range(horizon):
        realized = releases[t] + (volume - planned_prev[t])
        volume = volume - realized + inflows[:, t] + net_links[t]
        for n in range(1, count + 1):
            risk += _pwl(scenario.shortfall_risk[(n, t + 1)],
                         releases[t, n - 1] - realized[:, n - 1])

    profit = sum(float(_pwl(scenario.release_profit[(n, t)], releases[t - 1, n - 1]))
                 for n in range(1, count + 1) for t in range(1, horizon + 1))
    cost = sum(float(_pwl(scenario.transfer_cost[(l.source, l.target, t)],
                          transfers[t - 1, l.source - 1, l.target - 1]))
               for l in scenario.links for t in range(1, horizon + 1))
    total = profit - cost - risk
    std = float(np.std(total - total[0], ddof=1)) if reps > 1 else 0.0
    return float(total.mean()), std

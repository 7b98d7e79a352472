"""Shared helpers: random scenario generators and independent oracles."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from reservoirplan.model import (DiscreteDistribution, LinkSpec, Plan,
                                 ReservoirSpec, Scenario)
from reservoirplan.pwl import PwlFunction, capped_linear, hinge, linear


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def highs_objective(monkeypatch):
    """The benchmark's HiGHS adapter, `perfbench/checks.highs_objective`: the
    optimal objective of a maximization LP, or None if HiGHS finds none.
    Skips the test without scipy."""
    pytest.importorskip("scipy.optimize")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    return checks.highs_objective


def zero() -> PwlFunction:
    """The zero function, declared convex, concave and nondecreasing."""
    return PwlFunction(((0.0, 0.0),), 0.0, 0.0,
                       ("convex", "concave", "nondecreasing"))


def random_distribution(rng, point_mass=False, max_points=4,
                        max_value=6.0) -> DiscreteDistribution:
    if point_mass:
        return DiscreteDistribution(((float(rng.uniform(0, max_value)), 1.0),))
    k = int(rng.integers(1, max_points + 1))
    values = np.sort(rng.uniform(0, max_value, size=k))
    while np.any(np.diff(values) <= 1e-6):
        values = np.sort(rng.uniform(0, max_value, size=k))
    probs = rng.uniform(0.1, 1.0, size=k)
    probs /= probs.sum()
    return DiscreteDistribution(tuple(zip(values.tolist(), probs.tolist())))


def random_profit(rng) -> PwlFunction:
    slope = float(rng.uniform(0.5, 2.0))
    cap = float(rng.uniform(1.0, 8.0))
    if rng.random() < 0.5:
        return capped_linear(slope, cap)
    # Two-segment concave: decreasing nonnegative slopes.
    mid = float(rng.uniform(0.3, cap))
    second = slope * float(rng.uniform(0.1, 0.9))
    return PwlFunction(((0.0, 0.0), (mid, slope * mid)), slope, second,
                       ("concave", "nondecreasing"))


def random_risk(rng) -> PwlFunction:
    slope = float(rng.uniform(0.5, 4.0))
    if rng.random() < 0.5:
        return hinge(slope)
    # Two-segment convex hinge: slope steepens past a knee, zero left of 0.
    knee = float(rng.uniform(0.5, 3.0))
    steep = slope * float(rng.uniform(1.1, 2.5))
    return PwlFunction(((0.0, 0.0), (knee, slope * knee)), 0.0, steep,
                       ("convex", "nondecreasing"))


def random_transfer_cost(rng) -> PwlFunction:
    slope = float(rng.uniform(0.05, 1.0))
    if rng.random() < 0.5:
        return linear(slope)
    knee = float(rng.uniform(0.5, 3.0))
    steep = slope * float(rng.uniform(1.1, 2.0))
    return PwlFunction(((0.0, 0.0), (knee, slope * knee)), slope, steep,
                       ("convex", "nondecreasing"))


def random_scenario(rng, max_reservoirs=4, max_horizon=4, point_mass=False,
                    link_prob=0.4) -> Scenario:
    """A valid scenario of random size, up to `max_reservoirs` by
    `max_horizon`. It is not the benchmark's `network.synthetic_network`,
    whose size is fixed for a seed and whose inflows always have several
    support points: tests here need random sizes, and point masses for the
    deterministic limit."""
    n_count = int(rng.integers(1, max_reservoirs + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    ids = list(range(1, n_count + 1))
    periods = list(range(1, horizon + 1))

    reservoirs = []
    for n in ids:
        max_volume = float(rng.uniform(5, 15))
        v0 = float(rng.uniform(0.2, 0.9)) * max_volume
        final_min = float(rng.uniform(0, v0))
        reservoirs.append(ReservoirSpec(n, max_volume, v0, final_min))

    links = []
    for a in ids:
        for b in ids:
            if a != b and rng.random() < link_prob:
                links.append(LinkSpec(a, b, float(rng.uniform(0.5, 5.0))))

    profit = {(n, t): random_profit(rng) for n in ids for t in periods}
    risk = {(n, t): random_risk(rng) for n in ids for t in periods}
    cost = {(l.source, l.target, t): random_transfer_cost(rng)
            for l in links for t in periods}
    inflow = {(n, t): random_distribution(rng, point_mass=point_mass)
              for n in ids for t in periods}
    top_slope = max(f.max_cut_slope() for f in profit.values())
    penalty = {(n, t): 1000.0 * max(top_slope, 1.0)
               for n in ids for t in periods}

    return Scenario(
        name=f"random-{rng.integers(1 << 30)}",
        horizon=horizon,
        reservoirs=tuple(reservoirs),
        links=tuple(links),
        release_profit=profit,
        shortfall_risk=risk,
        transfer_cost=cost,
        inflow=inflow,
        overflow_penalty=penalty,
    )


def expected_realized_risk(plan: Plan, scenario: Scenario) -> float:
    """Closed-form mean of the simulated risk cost.

    The realizable release at period t absorbs exactly the period t-1 inflow
    deviation (independent draws), so the mean risk is the probability-weighted
    shortfall penalty of each period's prediction, charged one period later;
    the final period's deviation is never charged.
    """
    total = 0.0
    for n in scenario.ids():
        for t in range(1, scenario.horizon):
            risk_next = scenario.shortfall_risk[(n, t + 1)]
            x_plan = plan.predicted_inflows[t - 1, n - 1]
            for value, prob in scenario.inflow[(n, t)].support:
                total += prob * risk_next.evaluate(x_plan - value)
    return total


def random_lp(rng, max_vars=6, max_cons=8, anchored=True):
    """Random bounded LP; `anchored` biases toward feasibility by anchoring
    constraints at an interior point."""
    from reservoirplan import lp

    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_cons + 1))
    problem = lp.LpProblem("random")
    x0 = np.empty(n)
    for j in range(n):
        lo = float(rng.uniform(-5, 2))
        hi = lo + float(rng.uniform(0.5, 8))
        problem.add_variable(f"x{j}", lo, hi)
        problem.set_objective_coefficient(j, float(rng.uniform(-5, 5)))
        x0[j] = rng.uniform(lo, hi)
    for _ in range(m):
        k = int(rng.integers(1, n + 1))
        idx = rng.choice(n, size=k, replace=False)
        coefs = [(int(j), float(rng.uniform(-4, 4))) for j in idx]
        relation = str(rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.10]))
        if anchored:
            lhs0 = sum(c * x0[j] for j, c in coefs)
            slack = float(rng.uniform(0, 3))
            rhs = {"<=": lhs0 + slack, ">=": lhs0 - slack, "=": lhs0}[relation]
        else:
            rhs = float(rng.uniform(-8, 8))
        problem.add_constraint(coefs, relation, rhs)
    return problem

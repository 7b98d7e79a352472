"""Seeded synthetic reservoir network for the `plan-network` workload.

The shape is fixed: reservoir count, horizon, inflow support size, a link
density (that share of the ordered reservoir pairs is linked) and the number
of cuts of each function, so every seed compiles to an LP with the same
numbers of rows and columns; seeds differ in values and topology. The result passes
`validate_scenario`; the workload writes it through `save_scenario`, so the
CLI reads it back through the JSON parser.
"""
from __future__ import annotations

import numpy as np

from reservoirplan.model import (DiscreteDistribution, LinkSpec,
                                 ReservoirSpec, Scenario, validate_scenario)
from reservoirplan.pwl import PwlFunction, capped_linear, hinge
from reservoirplan.scenarios import default_overflow_penalty

RESERVOIRS = 8
HORIZON = 6
LINK_DENSITY = 0.3
SUPPORT_POINTS = 4


def _distribution(rng) -> DiscreteDistribution:
    # Distinct sorted values: a random increasing walk starting at zero or above.
    values = np.cumsum(rng.uniform(0.5, 2.5, size=SUPPORT_POINTS))
    values -= rng.uniform(0.0, values[0])
    probs = rng.uniform(0.1, 1.0, size=SUPPORT_POINTS)
    probs /= probs.sum()
    return DiscreteDistribution(tuple(zip(values.tolist(), probs.tolist())))


def _profit(rng) -> PwlFunction:
    slope = float(rng.uniform(0.5, 2.0))
    cap = float(rng.uniform(1.0, 6.0))
    if rng.random() < 0.5:   # either shape has two cuts
        return capped_linear(slope, cap)
    mid = float(rng.uniform(0.3, cap))
    return PwlFunction(((0.0, 0.0), (mid, slope * mid)), slope,
                       slope * float(rng.uniform(0.1, 0.9)),
                       ("concave", "nondecreasing"))


def _risk(rng) -> PwlFunction:
    return hinge(float(rng.uniform(0.5, 4.0)))


def _transfer_cost(rng) -> PwlFunction:
    slope = float(rng.uniform(0.05, 1.0))
    knee = float(rng.uniform(0.5, 3.0))
    return PwlFunction(((0.0, 0.0), (knee, slope * knee)), slope,
                       slope * float(rng.uniform(1.1, 2.0)),
                       ("convex", "nondecreasing"))


def synthetic_network(seed: int) -> Scenario:
    """A validated RESERVOIRS x HORIZON network drawn from `seed`."""
    rng = np.random.default_rng(seed)
    ids = range(1, RESERVOIRS + 1)
    periods = range(1, HORIZON + 1)

    reservoirs = []
    for n in ids:
        max_volume = float(rng.uniform(5.0, 15.0))
        initial = float(rng.uniform(0.2, 0.9)) * max_volume
        reservoirs.append(ReservoirSpec(n, max_volume, initial,
                                        float(rng.uniform(0.0, initial))))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    chosen = sorted(rng.choice(len(pairs), size=round(LINK_DENSITY * len(pairs)),
                               replace=False))
    links = [LinkSpec(*pairs[i], float(rng.uniform(0.5, 5.0))) for i in chosen]

    profit = {(n, t): _profit(rng) for n in ids for t in periods}
    scenario = Scenario(
        name=f"network-{RESERVOIRS}x{HORIZON}-seed{seed}",
        horizon=HORIZON,
        reservoirs=tuple(reservoirs),
        links=tuple(links),
        release_profit=profit,
        shortfall_risk={(n, t): _risk(rng) for n in ids for t in periods},
        transfer_cost={(l.source, l.target, t): _transfer_cost(rng)
                       for l in links for t in periods},
        inflow={(n, t): _distribution(rng) for n in ids for t in periods},
        overflow_penalty={(n, t): default_overflow_penalty(profit)
                          for n in ids for t in periods},
    )
    report = validate_scenario(scenario)
    if not report.ok:
        raise ValueError(f"generated network is invalid: {report.summary()}")
    return scenario

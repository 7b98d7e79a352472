import copy
import dataclasses
import pickle

import numpy as np
import pytest

from conftest import random_scenario
from reservoirplan import model
from reservoirplan.model import DiscreteDistribution, validate_scenario
from reservoirplan.pwl import PwlFunction, capped_linear, hinge
from reservoirplan.scenarios import builtin_angpuang, builtin_simple


def test_wellformed_builtin_simple_accepts():
    report = validate_scenario(builtin_simple(1))
    assert report.ok, report.summary()


def test_unnormalized_distribution_rejected():
    scenario = builtin_simple(1)
    bad = DiscreteDistribution(((0.0, 0.5), (1.0, 0.4)))
    inflow = dict(scenario.inflow)
    inflow[(1, 2)] = bad
    report = validate_scenario(dataclasses.replace(scenario, inflow=inflow))
    assert not report.ok
    messages = [str(v) for v in report.violations]
    assert any("reservoir 1, period 2" in m and "sums to 0.9" in m
               for m in messages)


def test_initial_volume_above_capacity_rejected():
    scenario = builtin_simple(1)
    reservoirs = list(scenario.reservoirs)
    reservoirs[0] = dataclasses.replace(reservoirs[0], initial_volume=12.0,
                                        max_volume=10.0)
    report = validate_scenario(
        dataclasses.replace(scenario, reservoirs=tuple(reservoirs)))
    assert not report.ok
    assert any("initial volume" in str(v) and "reservoir 1" in str(v)
               for v in report.violations)


def test_validation_collects_all_violations_in_one_scan():
    scenario = builtin_simple(1)
    reservoirs = list(scenario.reservoirs)
    reservoirs[0] = dataclasses.replace(reservoirs[0], initial_volume=12.0)
    inflow = dict(scenario.inflow)
    inflow[(2, 1)] = DiscreteDistribution(((0.0, 0.7), (1.0, 0.2)))
    penalty = dict(scenario.overflow_penalty)
    penalty[(2, 3)] = -1.0
    report = validate_scenario(dataclasses.replace(
        scenario, reservoirs=tuple(reservoirs), inflow=inflow,
        overflow_penalty=penalty))
    assert len(report.violations) >= 3


def test_missing_function_reported_with_location():
    scenario = builtin_simple(1)
    profit = dict(scenario.release_profit)
    del profit[(2, 3)]
    report = validate_scenario(
        dataclasses.replace(scenario, release_profit=profit))
    assert any(str(v) == "reservoir 2, period 3: missing release profit function"
               for v in report.violations)


@pytest.mark.parametrize("duplicate", [
    lambda d: d, lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy,
    dataclasses.replace,
], ids=["same", "pickle", "deepcopy", "replace"])
def test_distribution_violations_are_checked_once_and_not_shared(duplicate):
    bad = DiscreteDistribution(((1.0, 0.5), (0.0, 0.4)))
    expected = ["support values must be distinct and sorted ascending",
                "distribution sums to 0.9"]
    bad.violations().append("edited by a caller")
    assert duplicate(bad).violations() == expected
    assert duplicate(bad) == bad


def test_distribution_mean_symmetric_two_point():
    assert DiscreteDistribution(((0.0, 0.5), (4.0, 0.5))).mean() == 2.0


def test_distribution_mean_point_mass():
    assert DiscreteDistribution(((3.0, 1.0),)).mean() == 3.0


def test_distribution_mean_weighted_sum():
    d = DiscreteDistribution(((0.0, 0.2), (1.0, 0.3), (5.0, 0.5)))
    assert d.mean() == pytest.approx(2.8, abs=1e-12)


def test_distribution_bounds():
    assert DiscreteDistribution(
        ((0.0, 0.5), (4.0, 0.5))).bounds() == (0.0, 4.0)
    assert DiscreteDistribution(((3.0, 1.0),)).bounds() == (3.0, 3.0)
    assert DiscreteDistribution(
        ((1.0, 0.1), (2.0, 0.8), (9.0, 0.1))).bounds() == (1.0, 9.0)


def test_mean_always_within_bounds():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        values = np.sort(rng.uniform(0, 10, size=k))
        while np.any(np.diff(values) <= 0):
            values = np.sort(rng.uniform(0, 10, size=k))
        probs = rng.uniform(0.05, 1, size=k)
        probs /= probs.sum()
        d = DiscreteDistribution(tuple(zip(values.tolist(), probs.tolist())))
        lo, hi = d.bounds()
        assert lo <= d.mean() <= hi


def test_builtin_generators_validate():
    for scenario in (builtin_simple(1), builtin_simple(2), builtin_angpuang()):
        report = validate_scenario(scenario)
        assert report.ok, f"{scenario.name}: {report.summary()}"


def test_random_generator_scenarios_validate():
    rng = np.random.default_rng(31337)
    for _ in range(25):
        scenario = random_scenario(rng)
        report = validate_scenario(scenario)
        assert report.ok, report.summary()


def _with_support(scenario, key, support):
    inflow = dict(scenario.inflow)
    inflow[key] = DiscreteDistribution(support)
    return dataclasses.replace(scenario, inflow=inflow)


def _with_capacity(scenario, capacity):
    links = list(scenario.links)
    links[0] = dataclasses.replace(links[0], capacity=capacity)
    return dataclasses.replace(scenario, links=tuple(links))


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda s: _with_support(s, (1, 2), ((0.0, 0.6), (1.0, np.nan))),
                 "reservoir 1, period 2: probabilities must be finite",
                 id="nan_probability"),
    pytest.param(lambda s: _with_support(s, (1, 2), ((0.0, 0.5), (np.nan, 0.5))),
                 "reservoir 1, period 2: support values must be finite",
                 id="nan_value"),
    pytest.param(lambda s: _with_support(s, (1, 2), ((0.0, 0.5), (np.inf, 0.5))),
                 "reservoir 1, period 2: support values must be finite",
                 id="infinite_value"),
    pytest.param(lambda s: _with_capacity(s, np.nan),
                 "link 1->2: capacity must be positive, got nan",
                 id="nan_capacity"),
])
def test_non_finite_scenario_numbers_rejected(edit, message):
    report = validate_scenario(edit(builtin_simple(2)))
    assert message in [str(v) for v in report.violations]


def test_infinite_link_capacity_still_accepted():
    report = validate_scenario(_with_capacity(builtin_simple(2), np.inf))
    assert report.ok, report.summary()


def _shared_faults_scenario():
    """simple1 with one non-concave profit, one risk nonzero at 0, one
    non-convex risk and one non-convex cost, each held by several keys, as
    one shared object and as an equal copy."""
    scenario = builtin_simple(1)
    profit = hinge(1.0)
    risk = PwlFunction(((0.0, 1.0),), 0.0, 2.0, ("convex", "nondecreasing"))
    bent = capped_linear(1.0, 2.0)
    cost = capped_linear(0.5, 1.0)
    return dataclasses.replace(
        scenario,
        release_profit={**scenario.release_profit, (1, 1): profit,
                        (2, 1): profit, (2, 3): dataclasses.replace(profit)},
        shortfall_risk={**scenario.shortfall_risk, (1, 2): risk,
                        (2, 2): risk, (1, 3): dataclasses.replace(risk),
                        (1, 1): bent, (2, 3): bent},
        transfer_cost={**scenario.transfer_cost, (1, 2, 1): cost,
                       (2, 1, 2): cost, (2, 1, 3): dataclasses.replace(cost)})


def test_shared_faulty_functions_are_reported_at_every_key(monkeypatch):
    verdicts = []
    shape_fault = model._shape_fault
    monkeypatch.setattr(model, "_shape_fault", lambda role, f:
                        verdicts.append((role, f)) or shape_fault(role, f))
    scenario = _shared_faults_scenario()
    report = validate_scenario(scenario)
    assert [str(v) for v in report.violations] == [
        "reservoir 1, period 1: release profit not concave at segment 1",
        "reservoir 1, period 1: shortfall risk not convex at segment 2",
        "reservoir 1, period 2: shortfall risk must be zero on nonpositive arguments",
        "reservoir 1, period 3: shortfall risk must be zero on nonpositive arguments",
        "reservoir 2, period 1: release profit not concave at segment 1",
        "reservoir 2, period 2: shortfall risk must be zero on nonpositive arguments",
        "reservoir 2, period 3: release profit not concave at segment 1",
        "reservoir 2, period 3: shortfall risk not convex at segment 2",
        "link 1->2, period 1: transfer cost not convex at segment 2",
        "link 2->1, period 2: transfer cost not convex at segment 2",
        "link 2->1, period 3: transfer cost not convex at segment 2",
    ]
    # One verdict per distinct (role, function), equal copies included.
    roles = {"release profit": scenario.release_profit,
             "shortfall risk": scenario.shortfall_risk,
             "transfer cost": scenario.transfer_cost}
    distinct = {(role, f) for role, functions in roles.items()
                for f in functions.values()}
    assert sorted(map(repr, verdicts)) == sorted(map(repr, distinct))

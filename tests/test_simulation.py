import bisect
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (expected_realized_risk, random_distribution,
                      random_scenario)
from reservoirplan import lp, simulation
from reservoirplan.formulation import (build_deterministic, build_proposed,
                                       extract_plan)
from reservoirplan.model import DiscreteDistribution
from reservoirplan.scenarios import (builtin_angpuang, builtin_simple,
                                    resolve_scenario)
from reservoirplan.simulation import (exact_moments, realize, run_monte_carlo,
                                      sample_inflows, score)


def solve_plan(scenario):
    problem, vm = build_proposed(scenario)
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    return extract_plan(solution, vm, scenario)


def point_mass_scenario(rng_seed=5):
    rng = np.random.default_rng(rng_seed)
    return random_scenario(rng, point_mass=True)


def test_point_mass_sampling_returns_support_value():
    scenario = point_mass_scenario()
    inflows = sample_inflows(scenario, seed=0, rep=0)
    for n in scenario.ids():
        for t in scenario.periods():
            assert inflows[t - 1, n - 1] == scenario.inflow[(n, t)].support[0][0]


def test_sampling_determinism():
    scenario = builtin_simple(1)
    a = sample_inflows(scenario, seed=42, rep=17)
    b = sample_inflows(scenario, seed=42, rep=17)
    np.testing.assert_array_equal(a, b)
    c = sample_inflows(scenario, seed=42, rep=18)
    assert not np.array_equal(a, c)


def test_two_point_empirical_mean():
    scenario = builtin_simple(1)
    inflow = dict(scenario.inflow)
    inflow[(1, 1)] = DiscreteDistribution(((0.0, 0.5), (4.0, 0.5)))
    scenario = dataclasses.replace(scenario, inflow=inflow)
    draws = np.array([sample_inflows(scenario, seed=3, rep=r)[0, 0]
                      for r in range(10_000)])
    # Binomial standard error of the mean is about 0.02; 2 is well within 0.1.
    assert abs(draws.mean() - 2.0) < 0.1
    assert set(np.unique(draws)) == {0.0, 4.0}


def test_zero_deviation_identity():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    trajectory = realize(plan, plan.predicted_inflows, scenario)
    np.testing.assert_allclose(trajectory.releases, plan.releases, atol=1e-9)
    np.testing.assert_allclose(trajectory.volumes[1:], plan.volumes, atol=1e-9)


def test_first_period_release_immune():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    rng = np.random.default_rng(0)
    for rep in range(20):
        inflows = rng.uniform(0, 6, size=plan.releases.shape)
        trajectory = realize(plan, inflows, scenario)
        np.testing.assert_array_equal(trajectory.releases[0], plan.releases[0])


def test_deviation_identity_on_random_trajectories():
    rng = np.random.default_rng(314)
    scenario = builtin_simple(2)
    plan = solve_plan(scenario)
    for rep in range(50):
        inflows = rng.uniform(0, 8, size=plan.releases.shape)
        trajectory = realize(plan, inflows, scenario)
        deviation = trajectory.volumes[1:] - plan.volumes
        np.testing.assert_allclose(deviation,
                                   inflows - plan.predicted_inflows,
                                   atol=1e-9)


def test_initial_volume_row():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    trajectory = realize(plan, plan.predicted_inflows, scenario)
    np.testing.assert_array_equal(trajectory.volumes[0],
                                  scenario.initial_volumes())


def test_score_zero_deviation():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    trajectory = realize(plan, plan.predicted_inflows, scenario)
    breakdown = score(plan, trajectory, scenario)
    assert breakdown.risk_cost == pytest.approx(0.0, abs=1e-9)
    assert breakdown.total == pytest.approx(
        breakdown.release_profit - breakdown.transfer_cost, abs=1e-9)


def test_score_shortfall_hand_values():
    # Deficit 2 against a hinge of slope 2.5 costs 5; surplus costs nothing.
    from reservoirplan.model import DiscreteDistribution, ReservoirSpec, Scenario
    from reservoirplan.pwl import capped_linear, hinge
    from reservoirplan.model import Plan
    from reservoirplan.simulation import RealizedTrajectory
    scenario = Scenario(
        name="hand", horizon=1,
        reservoirs=(ReservoirSpec(1, 10.0, 5.0, 0.0),),
        links=(),
        release_profit={(1, 1): capped_linear(1.0, 10.0)},
        shortfall_risk={(1, 1): hinge(2.5)},
        transfer_cost={},
        inflow={(1, 1): DiscreteDistribution(((0.0, 1.0),))},
        overflow_penalty={(1, 1): 1000.0},
    )
    plan = Plan(transfers=np.zeros((1, 1, 1)), releases=np.array([[3.0]]),
                predicted_inflows=np.zeros((1, 1)), volumes=np.array([[2.0]]),
                objective=0.0)
    deficit = RealizedTrajectory(inflows=np.zeros((1, 1)),
                                 releases=np.array([[1.0]]),
                                 volumes=np.array([[5.0], [0.0]]))
    assert score(plan, deficit, scenario).risk_cost == pytest.approx(5.0)
    surplus = RealizedTrajectory(inflows=np.zeros((1, 1)),
                                 releases=np.array([[4.0]]),
                                 volumes=np.array([[5.0], [0.0]]))
    assert score(plan, surplus, scenario).risk_cost == pytest.approx(0.0)


def test_physical_mode_caps_and_floors():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    # Deep deficit: realized releases would go negative in literal mode.
    inflows = np.zeros_like(plan.predicted_inflows)
    literal = realize(plan, inflows, scenario)
    physical = realize(plan, inflows,
                       dataclasses.replace(scenario, physical_sim=True))
    assert physical.releases.min() >= 0.0
    caps = scenario.max_volumes()
    assert np.all(physical.volumes[1:] <= caps[None, :] + 1e-9)
    if literal.releases.min() < 0:
        assert physical.releases.min() > literal.releases.min()


def test_run_monte_carlo_point_mass_has_zero_std():
    scenario = point_mass_scenario()
    plan = solve_plan(scenario)
    report = run_monte_carlo(plan, scenario, reps=50, seed=9)
    assert report.std_total == 0.0
    assert report.std_risk == 0.0


def test_run_monte_carlo_single_rep_mean():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    report = run_monte_carlo(plan, scenario, reps=1, seed=4)
    assert report.mean_total == pytest.approx(float(report.total_profit[0]))
    assert report.std_total == 0.0


def test_run_monte_carlo_matches_per_rep_scoring():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    report = run_monte_carlo(plan, scenario, reps=25, seed=31)
    for rep in (0, 7, 24):
        inflows = sample_inflows(scenario, seed=31, rep=rep)
        trajectory = realize(plan, inflows, scenario)
        breakdown = score(plan, trajectory, scenario)
        assert report.total_profit[rep] == pytest.approx(breakdown.total,
                                                         abs=1e-12)
        assert report.risk_cost[rep] == pytest.approx(breakdown.risk_cost,
                                                      abs=1e-12)


def test_monte_carlo_mean_risk_matches_closed_form():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    reps = 10_000
    report = run_monte_carlo(plan, scenario, reps=reps, seed=123)
    expected = expected_realized_risk(plan, scenario)
    stderr = report.std_risk / np.sqrt(reps)
    assert abs(report.mean_risk - expected) <= max(3 * stderr, 1e-9)


def test_reps_must_be_positive():
    scenario = builtin_simple(1)
    plan = solve_plan(scenario)
    with pytest.raises(ValueError):
        run_monte_carlo(plan, scenario, reps=0, seed=0)


def test_deterministic_plan_realized_total_equals_objective_on_point_mass():
    from reservoirplan.formulation import build_deterministic
    scenario = point_mass_scenario(rng_seed=21)
    problem, vm = build_deterministic(scenario)
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    plan = extract_plan(solution, vm, scenario)
    report = run_monte_carlo(plan, scenario, reps=5, seed=2)
    # No randomness, no risk, and the overflow penalty term is zero at the
    # optimum, so the realized total is the planner objective.
    assert report.std_total == 0.0
    assert report.mean_total == pytest.approx(plan.objective,
                                              abs=1e-6 * (1 + abs(plan.objective)))


_MASK_64 = (1 << 64) - 1


def _splitmix_int(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK_64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return z ^ (z >> 31)


def _bisect_pick(probabilities, m):
    """Reference inverse CDF: the support index of the uniform m * 2**-53."""
    cdf = list(itertools.accumulate(probabilities))
    cdf[-1] = 1.0
    return bisect.bisect_right(cdf, m * 2.0 ** -53)


def _mixed_random_scenario():
    scenario = random_scenario(np.random.default_rng(8), max_reservoirs=4,
                               max_horizon=4)
    sizes = {len(d.support) for d in scenario.inflow.values()}
    assert 1 in sizes and len(sizes) >= 3
    return scenario


def test_draws_follow_the_seed_rep_reservoir_period_chain():
    # Reference: all four SplitMix64 passes per draw in Python integers, then
    # inverse-CDF lookup. The scenarios mix point masses with supports of two
    # to six points.
    for scenario in (builtin_angpuang(), builtin_simple(2),
                     _mixed_random_scenario()):
        for seed in (0, 77, -3, _MASK_64):
            for rep in (0, 1, 8191, 8192, 123457):
                inflows = sample_inflows(scenario, seed=seed, rep=rep)
                for n in scenario.ids():
                    for t in scenario.periods():
                        h = _splitmix_int(seed & _MASK_64)
                        for key in (rep, n, t):
                            h = _splitmix_int(h ^ key)
                        support = scenario.inflow[(n, t)].support
                        pick = _bisect_pick([p for _, p in support], h >> 11)
                        assert inflows[t - 1, n - 1] == support[pick][0]


@pytest.mark.parametrize("probabilities", [
    pytest.param([0.1] * 10, id="tenths_sum_below_one"),
    pytest.param([1 / 3] * 3, id="thirds"),
    pytest.param([1e-17, 1 - 1e-17], id="tiny_first"),
    pytest.param([0.5, 0.5], id="halves"),
    pytest.param([1.0], id="point_mass"),
])
def test_threshold_pick_matches_bisect_at_the_boundaries(probabilities):
    thresholds = simulation._cdf_thresholds(np.array(probabilities))
    assert thresholds.size == len(probabilities) - 1
    ms = {0, 2 ** 53 - 1}
    for threshold in thresholds.tolist():
        ms |= {threshold, threshold - 1}
    ms = sorted(m for m in ms if 0 <= m < 2 ** 53)
    picks = simulation._count_reached(thresholds, np.array(ms, dtype=np.uint64))
    assert picks.tolist() == [_bisect_pick(probabilities, m) for m in ms]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
       draws=st.lists(st.integers(0, 2 ** 53 - 1), min_size=1, max_size=20),
       near=st.integers(-2, 2))
def test_threshold_pick_matches_bisect(weights, draws, near):
    total = sum(weights)
    probabilities = [w / total for w in weights]
    thresholds = simulation._cdf_thresholds(np.array(probabilities))
    ms = draws + [min(max(int(x) + near, 0), 2 ** 53 - 1)
                  for x in thresholds.tolist()]
    picks = simulation._count_reached(thresholds, np.array(ms, dtype=np.uint64))
    assert picks.tolist() == [_bisect_pick(probabilities, m) for m in ms]


@pytest.mark.parametrize("points", [250, 256, 257, 300])
def test_threshold_pick_matches_bisect_on_wide_supports(points):
    # Supports this wide take the count from uint8 to uint16; a count that
    # wrapped at 255 would send the draws above the 256th threshold to the
    # bottom of the support.
    rng = np.random.default_rng(points)
    weights = rng.uniform(1e-3, 1.0, points)
    probabilities = (weights / weights.sum()).tolist()
    thresholds = simulation._cdf_thresholds(np.array(probabilities))
    ms = {0, 2 ** 53 - 1} | set(rng.integers(0, 2 ** 53, 100).tolist())
    for threshold in thresholds.tolist():
        ms |= {threshold - 1, threshold, threshold + 1}
    ms = sorted(m for m in ms if 0 <= m < 2 ** 53)
    picks = simulation._count_reached(thresholds, np.array(ms, dtype=np.uint64))
    assert picks.dtype == (np.uint8 if points <= 256 else np.uint16)
    assert picks.tolist() == [_bisect_pick(probabilities, m) for m in ms]


def test_changing_one_support_leaves_every_other_draw_unchanged():
    # Widen a point mass of simple2 to three points, and narrow a three-point
    # support to a point mass.
    scenario = builtin_simple(2)
    edits = {1: ((0.0, 0.2), (1.5, 0.5), (3.0, 0.3)), 3: ((1.5, 1.0),)}
    for size, support in edits.items():
        key = next(k for k, d in sorted(scenario.inflow.items())
                   if len(d.support) == size)
        inflow = dict(scenario.inflow)
        inflow[key] = DiscreteDistribution(support)
        changed = dataclasses.replace(scenario, inflow=inflow)
        others = np.ones((scenario.horizon, scenario.num_reservoirs), dtype=bool)
        others[key[1] - 1, key[0] - 1] = False
        drawn = set()
        for seed in (0, 5, -3):
            for rep in range(200):
                base = sample_inflows(scenario, seed=seed, rep=rep)
                new = sample_inflows(changed, seed=seed, rep=rep)
                assert base[others].tobytes() == new[others].tobytes()
                drawn.add(float(new[key[1] - 1, key[0] - 1]))
        assert drawn == {value for value, _ in support}


PER_REPLICATION = ("risk_cost", "total_profit")


@pytest.mark.parametrize("physical", [False, True])
def test_blocks_cannot_change_a_replication(physical, monkeypatch):
    scenario = builtin_angpuang()
    plan = solve_plan(scenario)
    scenario = dataclasses.replace(scenario, physical_sim=physical)
    block = simulation._BLOCK_REPS
    reps = 2 * block + 5
    report = run_monte_carlo(plan, scenario, reps=reps, seed=19)
    longer = run_monte_carlo(plan, scenario, reps=3 * block - 7, seed=19)
    monkeypatch.setattr(simulation, "_BLOCK_REPS", 777)
    reblocked = run_monte_carlo(plan, scenario, reps=reps, seed=19)
    for field in PER_REPLICATION:
        values = getattr(report, field)
        assert np.array_equal(values, getattr(longer, field)[:reps])
        assert np.array_equal(values, getattr(reblocked, field))
    for rep in (0, block - 1, block, reps - 1):
        inflows = sample_inflows(scenario, seed=19, rep=rep)
        breakdown = score(plan, realize(plan, inflows, scenario), scenario)
        assert report.release_profit == breakdown.release_profit
        assert report.transfer_cost == breakdown.transfer_cost
        assert report.risk_cost[rep] == breakdown.risk_cost
        assert report.total_profit[rep] == breakdown.total


@functools.cache
def _builtin_plan(name):
    """A built-in scenario and its proposed plan, solved once per test run."""
    scenario = resolve_scenario(f"builtin:{name}")
    return scenario, solve_plan(scenario)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["simple1", "simple2", "angpuang"]),
       perturbation=st.integers(0, 2**32 - 1) | st.none(),
       seed=st.integers(0, 2**32 - 1))
def test_literal_replication_is_bitwise_the_batch(name, perturbation, seed):
    # The literal recursion of one replication computes each volume with the
    # float operations of the risk tables, so a replication scored on its own
    # equals the batch's to the bit for any plan, not only for plans whose
    # volumes round exactly along the recursion.
    scenario, plan = _builtin_plan(name)
    if perturbation is not None:
        rng = np.random.default_rng(perturbation)
        plan = dataclasses.replace(
            plan,
            releases=plan.releases * rng.uniform(0.5, 1.5, plan.releases.shape),
            transfers=plan.transfers * rng.uniform(0.5, 1.5,
                                                   plan.transfers.shape),
            volumes=plan.volumes + rng.uniform(-2.0, 2.0, plan.volumes.shape))
    reps = 8
    report = run_monte_carlo(plan, scenario, reps=reps, seed=seed)
    for rep in range(reps):
        inflows = sample_inflows(scenario, seed=seed, rep=rep)
        breakdown = score(plan, realize(plan, inflows, scenario), scenario)
        assert report.risk_cost[rep] == breakdown.risk_cost
        assert report.total_profit[rep] == breakdown.total


def _terminal_expected_risk(plan, scenario):
    """Expected shortfall risk of the last period's prediction, which the LP
    charges and the simulation never does."""
    t = scenario.horizon
    return sum(prob * scenario.shortfall_risk[(n, t)].evaluate(
                   plan.predicted_inflows[t - 1, n - 1] - value)
               for n in scenario.ids()
               for value, prob in scenario.inflow[(n, t)].support)


@pytest.mark.parametrize("name", ["simple1", "simple2", "angpuang"])
def test_exact_expected_total_is_lp_objective_plus_terminal_risk(name):
    # Risk functions are time-invariant and overflow is zero at these optima,
    # so the simulation charges period t's expected risk at t + 1 and only the
    # terminal term separates its exact mean from the LP objective.
    scenario = resolve_scenario(f"builtin:{name}")
    plan = solve_plan(scenario)
    exact = exact_moments(plan, scenario)
    assert exact.mean_total == pytest.approx(
        plan.objective + _terminal_expected_risk(plan, scenario), rel=1e-12)
    reps = 20_000
    report = run_monte_carlo(plan, scenario, reps=reps, seed=2024)
    assert report.exact == exact
    assert abs(report.mean_total - exact.mean_total) <= \
        4 * report.std_total / np.sqrt(reps)


def _perturbed_volumes(plan, rng):
    """The plan with its volumes moved off its own recursion."""
    return dataclasses.replace(
        plan, volumes=plan.volumes + rng.uniform(-2.0, 2.0, plan.volumes.shape))


def _table_cases():
    """(scenario, plan) pairs: solved random plans, point masses and plans
    whose volumes do not follow their recursion."""
    rng = np.random.default_rng(4141)
    cases = []
    for _ in range(8):
        scenario = random_scenario(rng)
        plan = solve_plan(scenario)
        cases += [(scenario, plan), (scenario, _perturbed_volumes(plan, rng))]
    for _ in range(3):
        scenario = random_scenario(rng, point_mass=True)
        cases.append((scenario, solve_plan(scenario)))
    return cases


def _assert_tables_match_recursion(scenario, plan, seed=5, reps=40):
    """Each replication's gathered risk against score(realize(...))."""
    report = run_monte_carlo(plan, scenario, reps=reps, seed=seed)
    for rep in range(reps):
        inflows = sample_inflows(scenario, seed=seed, rep=rep)
        expected = score(plan, realize(plan, inflows, scenario),
                         scenario).risk_cost
        assert report.risk_cost[rep] == pytest.approx(expected, rel=1e-12,
                                                      abs=1e-12)


def test_risk_tables_match_the_recursion_per_replication():
    for scenario, plan in _table_cases():
        _assert_tables_match_recursion(scenario, plan)


def _small_case(rng):
    """A random scenario with N*T <= 4 and supports of at most 3 points, and
    its plan with perturbed volumes."""
    scenario = random_scenario(rng, max_reservoirs=2, max_horizon=2)
    scenario = dataclasses.replace(scenario, inflow={
        key: random_distribution(rng, max_points=3) for key in scenario.inflow})
    return scenario, _perturbed_volumes(solve_plan(scenario), rng)


def _assert_exact_moments_match_enumeration(scenario, plan):
    """exact_moments against every inflow sequence of the support product,
    each realized and scored on its own."""
    keys = [(n, t) for n in scenario.ids() for t in scenario.periods()]
    probabilities, totals, risks = [], [], []
    for support in itertools.product(*(scenario.inflow[key].support
                                       for key in keys)):
        inflows = np.empty((scenario.horizon, scenario.num_reservoirs))
        probability = 1.0
        for (n, t), (value, p) in zip(keys, support):
            inflows[t - 1, n - 1] = value
            probability *= p
        breakdown = score(plan, realize(plan, inflows, scenario), scenario)
        probabilities.append(probability)
        totals.append(breakdown.total)
        risks.append(breakdown.risk_cost)
    probabilities = np.array(probabilities)
    exact = exact_moments(plan, scenario)
    for values, mean, std in ((np.array(totals), exact.mean_total,
                               exact.std_total),
                              (np.array(risks), exact.mean_risk,
                               exact.std_risk)):
        expected_mean = probabilities @ values
        expected_std = np.sqrt(probabilities @ (values - expected_mean) ** 2)
        scale = 1.0 + np.abs(values).max()
        assert mean == pytest.approx(expected_mean, rel=1e-12, abs=1e-12 * scale)
        assert std == pytest.approx(expected_std, rel=1e-9, abs=1e-12 * scale)


def test_exact_moments_match_enumeration_over_the_supports():
    rng = np.random.default_rng(77)
    for _ in range(12):
        _assert_exact_moments_match_enumeration(*_small_case(rng))


def test_exact_moments_of_a_point_mass_have_zero_std():
    scenario = point_mass_scenario()
    plan = solve_plan(scenario)
    exact = exact_moments(plan, scenario)
    report = run_monte_carlo(plan, scenario, reps=20, seed=1)
    assert exact.std_total == exact.std_risk == 0.0
    assert exact.mean_risk == report.risk_cost[0]
    assert exact.mean_total == pytest.approx(report.mean_total, rel=1e-15)


def test_exact_moments_refuse_physical_mode():
    scenario = dataclasses.replace(builtin_simple(1), physical_sim=True)
    plan = solve_plan(scenario)
    with pytest.raises(ValueError, match="no closed form"):
        exact_moments(plan, scenario)
    assert run_monte_carlo(plan, scenario, reps=3).exact is None


def _charge_own_period(monkeypatch):
    """Build the risk tables with each period's own risk function, r[n, t],
    in place of the next period's, r[n, t+1]."""
    build = simulation._risk_tables

    def mutant(plan, scenario):
        shifted = {(n, t): scenario.shortfall_risk[(n, max(t - 1, 1))]
                   for n, t in scenario.shortfall_risk}
        return build(plan, dataclasses.replace(scenario,
                                               shortfall_risk=shifted))

    monkeypatch.setattr(simulation, "_risk_tables", mutant)


def test_tables_charging_the_wrong_period_are_caught(monkeypatch):
    rng = np.random.default_rng(77)
    small = [_small_case(rng) for _ in range(4)]
    tables = _table_cases()[:4]
    _charge_own_period(monkeypatch)
    with pytest.raises(AssertionError):
        for scenario, plan in tables:
            _assert_tables_match_recursion(scenario, plan)
    with pytest.raises(AssertionError):
        for scenario, plan in small:
            _assert_exact_moments_match_enumeration(scenario, plan)


def _full_table_gather(tables, seed, reps):
    """Reference for `simulation._gathered_risk`: every entry of a table keeps
    its CDF threshold, and every table is gathered or added, zeros included."""
    thresholds = [[simulation._cdf_thresholds(probabilities)
                   for _, probabilities in row[1:]]
                  + [np.empty(0, dtype=np.uint64)] for row in tables]
    risk = np.empty(reps)
    for start in range(0, reps, simulation._BLOCK_REPS):
        rep_ids = np.arange(start, min(start + simulation._BLOCK_REPS, reps),
                            dtype=np.uint64)
        picks = {(n, t + 1): drawn for n, t, drawn
                 in simulation._sample_indices(thresholds, seed, rep_ids)}
        block = np.zeros(rep_ids.size)
        for n, row in enumerate(tables):
            for t, (charged, _) in enumerate(row):
                drawn = picks.get((n, t))
                block += charged[0] if drawn is None else charged[drawn]
        risk[start:start + rep_ids.size] = block
    return risk


def _hand_tables():
    """Risk tables with the cases runs must keep apart or fold, and the
    (reservoir, period) keys of those with more than one run. Equal values
    that are not adjacent, -0.0 next to 0.0, nonzero constants between drawn
    tables, and tables of several equal entries, zero or not."""
    one = np.ones(1)
    p2, p3 = np.array([0.375, 0.625]), np.array([0.25, 0.5, 0.25])
    p4 = np.array([0.125, 0.25, 0.5, 0.125])
    p5 = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    a, b, c = 2.5, 0.75, 1.0 / 3.0
    tables = [
        [(np.array([0.5]), one), (np.array([a, b, a]), p3),
         (np.array([3.0]), one), (np.array([-0.0, 0.0, 0.0, -0.0]), p4),
         (np.array([c, c, c]), p3), (np.array([b, 0.0]), p2)],
        [(np.array([0.0]), one), (np.array([c, c]), p2),
         (np.array([a, a, b, b, a]), p5), (np.array([0.0, 0.0, 0.0]), p3),
         (np.array([7.0]), one), (np.array([-0.0]), one)],
    ]
    drawn = {(0, 1), (0, 3), (0, 5), (1, 2)}
    return tables, drawn


def _gather_cases():
    """Risk tables of both plans of every built-in, of 20 random scenarios'
    plans, and the hand-built tables."""
    cases = [_hand_tables()[0]]
    for name in ("simple1", "simple2", "angpuang"):
        scenario = resolve_scenario(f"builtin:{name}")
        for build in (build_proposed, build_deterministic):
            problem, vm = build(scenario)
            plan = extract_plan(lp.solve(problem), vm, scenario)
            cases.append(simulation._risk_tables(plan, scenario))
    rng = np.random.default_rng(3303)
    for _ in range(20):
        scenario = random_scenario(rng)
        cases.append(simulation._risk_tables(solve_plan(scenario), scenario))
    return cases


def test_run_gather_is_bitwise_the_full_table_gather():
    reps = simulation._BLOCK_REPS + 5
    for tables in _gather_cases():
        for seed in (0, 7, 2 ** 63 + 5):
            assert simulation._gathered_risk(tables, seed, reps).tobytes() == \
                _full_table_gather(tables, seed, reps).tobytes()


def test_risk_runs_give_every_entry_bitwise():
    for tables in _gather_cases():
        for charged, probabilities in itertools.chain(*tables):
            values, boundaries = simulation._risk_runs(charged, probabilities)
            bits = values.view(np.uint64)
            assert np.all(bits[1:] != bits[:-1])
            thresholds = simulation._cdf_thresholds(probabilities)
            ends = np.array([0, 2 ** 53 - 1], dtype=np.uint64)
            ms = np.unique(np.concatenate([thresholds - 1, thresholds, ends]))
            index = simulation._count_reached(thresholds, ms)
            run = simulation._count_reached(boundaries, ms)
            assert values.take(run).tobytes() == charged[index].tobytes()


def test_tables_of_one_run_draw_nothing(monkeypatch):
    tables, expected = _hand_tables()
    sample = simulation._sample_indices
    drawn = set()

    def recording(thresholds, seed, reps):
        picks = sample(thresholds, seed, reps)
        drawn.update((n, t + 1) for n, t, _ in picks)
        return picks

    monkeypatch.setattr(simulation, "_sample_indices", recording)
    simulation._gathered_risk(tables, 5, 100)
    assert drawn == expected

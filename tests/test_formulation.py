import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_scenario, zero
from epigraph import build_epigraph, cuts
from reservoirplan import cli, lp
from reservoirplan.formulation import (build_deterministic, build_proposed,
                                       extract_plan, plan_violations)
from reservoirplan.model import (DiscreteDistribution, LinkSpec, ReservoirSpec,
                                 Scenario, ScenarioValidationError)
from reservoirplan.pwl import PwlFunction, capped_linear, hinge, linear
from reservoirplan.scenarios import (builtin_angpuang, builtin_simple,
                                     load_scenario, save_scenario,
                                     sweep_scenario)


def single_reservoir_scenario():
    """One reservoir, one period, point-mass inflow 2, v0=5, terminal 0."""
    return Scenario(
        name="single", horizon=1,
        reservoirs=(ReservoirSpec(1, 10.0, 5.0, 0.0),),
        links=(),
        release_profit={(1, 1): capped_linear(1.0, 10.0)},
        shortfall_risk={(1, 1): hinge(2.5)},
        transfer_cost={},
        inflow={(1, 1): DiscreteDistribution(((2.0, 1.0),))},
        overflow_penalty={(1, 1): 1000.0},
    )


def two_reservoir_transfer_scenario():
    """Demand only at reservoir 2; water starts at reservoir 1."""
    zero_inflow = DiscreteDistribution(((0.0, 1.0),))
    pairs = [(n, t) for n in (1, 2) for t in (1, 2)]
    return Scenario(
        name="transfer", horizon=2,
        reservoirs=(ReservoirSpec(1, 10.0, 4.0, 0.0),
                    ReservoirSpec(2, 10.0, 0.0, 0.0)),
        links=(LinkSpec(1, 2, 5.0),),
        release_profit={(1, 1): zero(), (1, 2): zero(),
                        (2, 1): capped_linear(1.0, 10.0),
                        (2, 2): capped_linear(1.0, 10.0)},
        shortfall_risk={key: hinge(2.5) for key in pairs},
        transfer_cost={(1, 2, 1): linear(0.25), (1, 2, 2): linear(0.25)},
        inflow={key: zero_inflow for key in pairs},
        overflow_penalty={key: 1000.0 for key in pairs},
    )


def forced_overflow_scenario():
    """Two reservoirs start empty and take a point-mass inflow of 5 in period
    1, when nothing can be released yet: reservoir 1 (capacity 2) overflows
    by 3 and reservoir 2 (capacity 0) by 5. Period 2 releases all of it."""
    pairs = [(n, t) for n in (1, 2) for t in (1, 2)]
    return Scenario(
        name="forced-overflow", horizon=2,
        reservoirs=(ReservoirSpec(1, 2.0, 0.0, 0.0),
                    ReservoirSpec(2, 0.0, 0.0, 0.0)),
        links=(),
        release_profit={key: capped_linear(1.0, 10.0) for key in pairs},
        shortfall_risk={key: hinge(2.5) for key in pairs},
        transfer_cost={},
        inflow={(n, t): DiscreteDistribution(((5.0 if t == 1 else 0.0, 1.0),))
                for n, t in pairs},
        overflow_penalty={key: 1000.0 for key in pairs},
    )


def grid_search_single_reservoir(step=1e-3):
    """Brute force over the only decision (release g in [0, v0])."""
    scenario = single_reservoir_scenario()
    v0 = 5.0
    gs = np.linspace(0.0, v0, int(round(v0 / step)) + 1)
    profit = np.minimum(gs, 10.0)          # slope-1 capped profit
    volumes = v0 - gs + 2.0                # point-mass inflow
    feasible = volumes >= 0.0
    best = np.argmax(np.where(feasible, profit, -np.inf))
    return float(profit[best]), float(gs[best]), float(volumes[best])


def grid_search_two_reservoir(step=1e-3):
    """Brute force over (q transfer in period 1, release at reservoir 2 in
    period 2); other decisions are dominated (zero profit or infeasible)."""
    best = (-np.inf, 0.0, 0.0)
    qs = np.linspace(0.0, 4.0, int(round(4.0 / step)) + 1)
    for q in qs:
        g_max = q  # v_2^1 = q; budget at t=2
        objective = g_max * 1.0 - 0.25 * q  # best g is the max: slope 1 > 0
        if objective > best[0]:
            best = (objective, q, g_max)
    return best


def test_single_reservoir_example_matches_grid_oracle():
    oracle_obj, oracle_g, oracle_v = grid_search_single_reservoir()
    scenario = single_reservoir_scenario()
    problem, vm = build_proposed(scenario)
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    assert solution.objective == pytest.approx(oracle_obj, abs=1e-3)
    assert solution.objective == pytest.approx(5.0, abs=1e-9)
    plan = extract_plan(solution, vm, scenario)
    assert plan.releases[0, 0] == pytest.approx(5.0, abs=1e-6)
    assert plan.volumes[0, 0] == pytest.approx(2.0, abs=1e-6)
    assert oracle_g == pytest.approx(5.0, abs=1e-3)
    assert oracle_v == pytest.approx(2.0, abs=1e-3)


def test_two_reservoir_example_matches_grid_oracle():
    oracle_obj, oracle_q, oracle_g = grid_search_two_reservoir()
    scenario = two_reservoir_transfer_scenario()
    problem, vm = build_proposed(scenario)
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    assert solution.objective == pytest.approx(oracle_obj, abs=1e-3)
    assert solution.objective == pytest.approx(3.0, abs=1e-9)
    plan = extract_plan(solution, vm, scenario)
    assert plan.transfers[0, 0, 1] == pytest.approx(4.0, abs=1e-6)
    assert plan.releases[1, 1] == pytest.approx(4.0, abs=1e-6)
    assert oracle_q == pytest.approx(4.0, abs=1e-3)
    assert oracle_g == pytest.approx(4.0, abs=1e-3)


def test_deterministic_build_same_example():
    scenario = single_reservoir_scenario()
    problem, vm = build_deterministic(scenario)
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    assert solution.objective == pytest.approx(5.0, abs=1e-9)
    plan = extract_plan(solution, vm, scenario)
    assert plan.releases[0, 0] == pytest.approx(5.0, abs=1e-6)


def test_deterministic_fixes_inflow_to_mean():
    scenario = builtin_simple(1)
    problem, vm = build_deterministic(scenario)
    plan = extract_plan(lp.solve(problem), vm, scenario)
    for n in scenario.ids():
        for t in scenario.periods():
            mean = scenario.inflow[(n, t)].mean()
            assert plan.predicted_inflows[t - 1, n - 1] == pytest.approx(
                mean, abs=1e-9)
    # Each inflow is one fixed column, and nothing prices risk.
    for (t, n), columns in vm.inflow.items():
        assert len(columns) == 1 and vm.inflow_lo[(t, n)] == 0.0
        assert problem.lower[columns[0]] == problem.upper[columns[0]]
        assert columns[0] not in problem.objective


def test_point_mass_degeneration_on_random_scenarios():
    rng = np.random.default_rng(2718)
    for _ in range(12):
        scenario = random_scenario(rng, point_mass=True)
        p_prob, _ = build_proposed(scenario)
        d_prob, _ = build_deterministic(scenario)
        p_sol, d_sol = lp.solve(p_prob), lp.solve(d_prob)
        assert p_sol.status == d_sol.status == lp.OPTIMAL
        gap = abs(p_sol.objective - d_sol.objective)
        assert gap <= 1e-6 * (1 + abs(p_sol.objective))


def test_extract_plan_rejects_non_optimal():
    scenario = single_reservoir_scenario()
    _, vm = build_proposed(scenario)
    with pytest.raises(ValueError, match="infeasible"):
        extract_plan(lp.LpSolution(status=lp.INFEASIBLE), vm, scenario)


def test_build_rejects_invalid_scenario():
    scenario = single_reservoir_scenario()
    broken = dataclasses.replace(
        scenario,
        release_profit={(1, 1): hinge(1.0)})  # convex, not concave
    with pytest.raises(ScenarioValidationError):
        build_proposed(broken)


def test_feasibility_replay_on_builtins():
    for scenario in (builtin_simple(1), builtin_simple(2), builtin_angpuang()):
        for builder in (build_proposed, build_deterministic):
            problem, vm = builder(scenario)
            plan = extract_plan(lp.solve(problem), vm, scenario)
            assert plan_violations(plan, scenario) == []


def test_plan_feasibility_replay_on_random_scenarios():
    rng = np.random.default_rng(404)
    for _ in range(10):
        scenario = random_scenario(rng)
        problem, vm = build_proposed(scenario)
        solution = lp.solve(problem)
        assert solution.status == lp.OPTIMAL
        plan = extract_plan(solution, vm, scenario)
        assert plan_violations(plan, scenario) == []


def test_big_f_guarantee_on_builtins():
    for scenario in (builtin_simple(1), builtin_simple(2), builtin_angpuang()):
        caps = scenario.max_volumes()
        for builder in (build_proposed, build_deterministic):
            problem, vm = builder(scenario)
            plan = extract_plan(lp.solve(problem), vm, scenario)
            assert np.all(plan.volumes <= caps[None, :] + 1e-6)


def test_risk_slope_scaling_never_increases_proposed_objective():
    base = builtin_simple(2)
    baseline = lp.solve(build_proposed(base)[0]).objective
    previous = baseline
    for lam in (1.5, 3.0, 10.0):
        scaled = dataclasses.replace(
            base,
            shortfall_risk={k: f.scale(lam)
                            for k, f in base.shortfall_risk.items()})
        objective = lp.solve(build_proposed(scaled)[0]).objective
        assert objective <= previous + 1e-6 * (1 + abs(previous))
        previous = objective


def test_predicted_inflows_stay_inside_support_range():
    rng = np.random.default_rng(77)
    for _ in range(8):
        scenario = random_scenario(rng)
        problem, vm = build_proposed(scenario)
        plan = extract_plan(lp.solve(problem), vm, scenario)
        for n in scenario.ids():
            for t in scenario.periods():
                lo, hi = scenario.inflow[(n, t)].bounds()
                assert lo <= plan.predicted_inflows[t - 1, n - 1] <= hi


def test_transfer_shutoff_when_cost_exceeds_profit():
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(12):
        scenario = random_scenario(rng, max_reservoirs=3, max_horizon=3,
                                   link_prob=0.7)
        if not scenario.links:
            continue
        top_profit = max(f.max_cut_slope()
                         for f in scenario.release_profit.values())
        expensive = sweep_scenario(scenario, "transfer-cost-slope",
                                   2.0 * top_profit + 1.0)
        for builder in (build_proposed, build_deterministic):
            problem, vm = builder(expensive)
            plan = extract_plan(lp.solve(problem), vm, expensive)
            assert float(plan.transfers.sum()) <= 1e-6
            checked += 1
    assert checked >= 6


def _objective_from_plan(plan, scenario):
    """Proposed objective recomputed from the plan's arrays alone."""
    total = 0.0
    for t in scenario.periods():
        for n in scenario.ids():
            total += scenario.release_profit[(n, t)].evaluate(
                plan.releases[t - 1, n - 1])
            x = plan.predicted_inflows[t - 1, n - 1]
            total -= sum(prob * scenario.shortfall_risk[(n, t)].evaluate(x - value)
                         for value, prob in scenario.inflow[(n, t)].support)
            excess = plan.volumes[t - 1, n - 1] - scenario.reservoir(n).max_volume
            total -= scenario.overflow_penalty[(n, t)] * max(excess, 0.0)
        for link in scenario.links:
            total -= scenario.transfer_cost[(link.source, link.target, t)].evaluate(
                plan.transfers[t - 1, link.source - 1, link.target - 1])
    return total


def test_proposed_objective_equals_plan_recomputation():
    # The pieces of each term price it exactly at the optimum. No random draw
    # overflows, so the forced case adds a priced overflow; its inflows are
    # point masses, so both builds price the same program there.
    rng = np.random.default_rng(31337)
    cases = [(random_scenario(rng), build_proposed) for _ in range(12)]
    forced = forced_overflow_scenario()
    cases += [(forced, build_proposed), (forced, build_deterministic)]
    for scenario, build in cases:
        problem, vm = build(scenario)
        plan = extract_plan(lp.solve(problem), vm, scenario)
        assert _objective_from_plan(plan, scenario) == pytest.approx(
            plan.objective, rel=1e-7, abs=1e-7)


def _assert_volume_pieces(problem, vm, scenario):
    """Each volume is the pieces of its overflow penalty F * max(0, v - V):
    a column [0, V] priced 0, then one [0, inf) priced -F; only the latter
    if V = 0."""
    objective = problem.objective_vector()
    for (t, n), columns in vm.volume.items():
        cap = scenario.reservoir(n).max_volume
        expected = [(0.0, cap, 0.0)] if cap > 0 else []
        expected.append((0.0, math.inf, -scenario.overflow_penalty[(n, t)]))
        assert [(problem.lower[j], problem.upper[j], objective[j])
                for j in columns] == expected, (scenario.name, t, n)


def test_forced_overflow_is_priced(highs_objective):
    # Period 1 pays 3F at capacity 2 and 5F at capacity 0, and period 2
    # releases the 10 units at profit slope 1.
    scenario = forced_overflow_scenario()
    for build in (build_proposed, build_deterministic):
        problem, vm = build(scenario)
        _assert_volume_pieces(problem, vm, scenario)
        plan = extract_plan(lp.solve(problem), vm, scenario)
        assert plan.volumes == pytest.approx(np.array([[5.0, 5.0], [0.0, 0.0]]),
                                             abs=1e-9)
        assert plan.objective == pytest.approx(10.0 - 8 * 1000.0, rel=1e-12)
        assert highs_objective(problem) == pytest.approx(plan.objective,
                                                         rel=1e-9)
        assert plan_violations(plan, scenario) == []


def test_angpuang_lp_sizes():
    # Two rows per reservoir and period (state, release budget) and one
    # terminal row per reservoir; no term adds a row or a free column.
    scenario = builtin_angpuang()
    proposed, vm = build_proposed(scenario)
    assert (proposed.num_constraints, proposed.num_variables) == (104, 346)
    deterministic, _ = build_deterministic(scenario)
    assert (deterministic.num_constraints,
            deterministic.num_variables) == (104, 324)
    for problem in (proposed, deterministic):
        assert not any(math.isinf(lo) and math.isinf(up)
                       for lo, up in zip(problem.lower, problem.upper))
    assert vm.constant is None


def test_variable_map_is_bijective():
    scenario = builtin_simple(1)
    for builder in (build_proposed, build_deterministic):
        problem, vm = builder(scenario)
        vm.check_bijective(problem.num_variables)  # raises on failure


def test_big_f_threshold_keeps_volumes_under_capacity():
    # Penalties at 10 * (sum of profit cut slopes) * (total capacity) already
    # dominate any achievable marginal profit.
    for scenario in (builtin_simple(1), builtin_simple(2)):
        slope_sum = sum(abs(s) for f in scenario.release_profit.values()
                        for s, _ in cuts(f))
        threshold = 10.0 * slope_sum * float(scenario.max_volumes().sum())
        bounded = dataclasses.replace(
            scenario,
            overflow_penalty={k: threshold
                              for k in scenario.overflow_penalty})
        caps = scenario.max_volumes()
        for builder in (build_proposed, build_deterministic):
            problem, vm = builder(bounded)
            plan = extract_plan(lp.solve(problem), vm, bounded)
            assert np.all(plan.volumes <= caps[None, :] + 1e-6)


def _offset(f, constant):
    """f plus a constant, with f's shape flags."""
    return PwlFunction(tuple((x, y + constant) for x, y in f.breakpoints),
                       f.left_slope, f.right_slope, f.shape)


def _offset_scenario(scenario, rng):
    """The scenario with a constant added to every profit and transfer cost,
    so that the objective's constant, the sum of the f(lo), is nonzero."""
    return dataclasses.replace(
        scenario,
        release_profit={key: _offset(f, float(rng.uniform(-2.0, 2.0)))
                        for key, f in scenario.release_profit.items()},
        transfer_cost={key: _offset(f, float(rng.uniform(0.0, 1.0)))
                       for key, f in scenario.transfer_cost.items()})


def _equivalence_cases(group, monkeypatch):
    if group == "builtins":
        return [builtin_simple(1), builtin_simple(2), builtin_angpuang()]
    if group == "sweep":
        config = Path(__file__).resolve().parents[1] / "scenarios" / "example_sweep.json"
        return cli.expand_sweep(cli.load_sweep_config(config))
    if group == "network":
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                        / "perfbench"))
        from network import synthetic_network
        return [synthetic_network(seed) for seed in range(10)]
    rng = np.random.default_rng(1956)
    scenarios = [random_scenario(rng) for _ in range(40)]
    return [_offset_scenario(s, rng) if i % 4 == 0 else s
            for i, s in enumerate(scenarios)]


@pytest.mark.parametrize("group", ["builtins", "sweep", "network", "random"])
def test_lps_have_only_state_budget_and_terminal_rows(group, monkeypatch):
    # 2 * N * T + N rows: the overflow penalty, like every term, is piece
    # columns and no row.
    for scenario in _equivalence_cases(group, monkeypatch):
        n_count, horizon = scenario.num_reservoirs, scenario.horizon
        for build in (build_proposed, build_deterministic):
            problem, vm = build(scenario)
            assert problem.num_constraints == 2 * n_count * horizon + n_count
            _assert_volume_pieces(problem, vm, scenario)


@pytest.mark.parametrize("group", ["builtins", "sweep", "network", "random"])
def test_piece_columns_give_the_epigraph_optimum(group, monkeypatch):
    # The piece columns and the epigraph reference (one free variable and one
    # row per cut) are two LPs of the same program, so their optima agree.
    cases = _equivalence_cases(group, monkeypatch)
    constants = 0
    for scenario in cases:
        for build, stochastic in ((build_proposed, True),
                                  (build_deterministic, False)):
            problem, vm = build(scenario)
            solution = lp.solve(problem)
            reference = lp.solve(build_epigraph(scenario, stochastic))
            assert solution.is_optimal and reference.is_optimal
            assert solution.objective == pytest.approx(
                reference.objective, rel=1e-9, abs=1e-9), scenario.name
            assert plan_violations(extract_plan(solution, vm, scenario),
                                   scenario) == []
            constants += vm.constant is not None
    assert len(cases) == {"builtins": 3, "sweep": 5, "network": 10,
                          "random": 40}[group]
    # The constant column shows up only where a term is nonzero at lo.
    assert (constants > 0) == (group == "random")


def _shared_function_scenario():
    """One cost object serves links of different capacities, and one risk
    object serves distributions of different supports, some with the same
    range, so the pieces of equal functions differ by argument."""
    cost = PwlFunction(((0.0, 0.0), (1.5, 0.3)), 0.2, 0.6,
                       ("convex", "nondecreasing"))
    risk = PwlFunction(((0.0, 0.0), (1.0, 0.5)), 0.0, 2.0,
                       ("convex", "nondecreasing"))
    profit = capped_linear(1.0, 4.0)
    supports = {1: ((0.0, 0.5), (4.0, 0.5)),
                2: ((0.0, 0.2), (2.0, 0.3), (4.0, 0.5)),
                3: ((1.0, 0.4), (3.0, 0.6))}
    keys = [(n, t) for n in (1, 2, 3) for t in (1, 2)]
    links = (LinkSpec(1, 2, 1.0), LinkSpec(2, 1, 2.5), LinkSpec(2, 3, 4.0),
             LinkSpec(3, 1, 2.5))
    return Scenario(
        name="shared", horizon=2,
        reservoirs=tuple(ReservoirSpec(n, 10.0, 3.0, 1.0) for n in (1, 2, 3)),
        links=links,
        release_profit={key: profit for key in keys},
        shortfall_risk={key: risk for key in keys},
        transfer_cost={(l.source, l.target, t): cost
                       for l in links for t in (1, 2)},
        inflow={(n, t): DiscreteDistribution(supports[n if t == 1 else 4 - n])
                for n, t in keys},
        overflow_penalty={key: 1000.0 for key in keys},
    )


def _round_trip(scenario, tmp_path):
    path = tmp_path / f"{scenario.name}.json"
    save_scenario(scenario, path)
    return load_scenario(path)


def _assert_columns_hold_fresh_pieces(scenario, stochastic):
    """Each transfer, release, inflow and volume term's columns carry the
    pieces a fresh `pieces` call gives for that key alone, and the constant
    column the sum of sign * f(lo)."""
    build = build_proposed if stochastic else build_deterministic
    problem, vm = build(scenario)
    lower, upper = np.array(problem.lower), np.array(problem.upper)
    objective = problem.objective_vector()
    capacity = {(l.source, l.target): l.capacity for l in scenario.links}
    terms = [(columns, scenario.transfer_cost[(a, b, t)], 0.0,
              capacity[(a, b)], ((0.0, 1.0),), -1.0)
             for (t, a, b), columns in vm.transfer.items()]
    terms += [(columns, scenario.release_profit[(n, t)], 0.0, math.inf,
               ((0.0, 1.0),), 1.0) for (t, n), columns in vm.release.items()]
    terms += [(columns, hinge(scenario.overflow_penalty[(n, t)]), 0.0,
               math.inf, ((scenario.reservoir(n).max_volume, 1.0),), -1.0)
              for (t, n), columns in vm.volume.items()]
    for (t, n), columns in vm.inflow.items():
        inflow = scenario.inflow[(n, t)]
        if stochastic:
            lo, hi = inflow.bounds()
            terms.append((columns, scenario.shortfall_risk[(n, t)], lo, hi,
                          inflow.support, -1.0))
            assert vm.inflow_lo[(t, n)] == lo
        else:
            mean = inflow.mean()
            assert lower[list(columns)].tolist() == [mean]
            assert upper[list(columns)].tolist() == [mean]
    constant = 0.0
    for columns, func, lo, hi, support, sign in terms:
        value, slopes, lengths = func.pieces(lo, hi, support)
        columns = list(columns)
        assert lower[columns].tolist() == [0.0] * len(columns)
        assert upper[columns].tolist() == list(lengths)
        assert objective[columns].tolist() == [sign * s for s in slopes]
        constant += sign * value
    if vm.constant is None:
        assert constant == 0.0
    else:
        assert objective[vm.constant] == constant


@pytest.mark.parametrize("case", ["angpuang", "angpuang-json", "shared",
                                  "shared-json", "random"])
def test_piece_columns_equal_fresh_pieces_per_key(case, tmp_path):
    if case.startswith("angpuang"):
        scenarios = [builtin_angpuang()]
    elif case.startswith("shared"):
        scenarios = [_shared_function_scenario()]
    else:
        rng = np.random.default_rng(2027)
        scenarios = [random_scenario(rng) for _ in range(20)]
    if case.endswith("json"):
        scenarios = [_round_trip(s, tmp_path) for s in scenarios]
    for scenario in scenarios:
        for stochastic in (True, False):
            _assert_columns_hold_fresh_pieces(scenario, stochastic)


def test_shared_function_scenario_has_distinct_pieces_per_argument():
    # The case above only checks the memo key if one function object gives
    # different pieces at different capacities and supports of one range.
    scenario = _shared_function_scenario()
    assert len({id(f) for f in scenario.transfer_cost.values()}) == 1
    assert len({id(f) for f in scenario.shortfall_risk.values()}) == 1
    cost = scenario.transfer_cost[(1, 2, 1)]
    assert cost.pieces(0.0, 1.0) != cost.pieces(0.0, 2.5)
    risk = scenario.shortfall_risk[(1, 1)]
    one, two = scenario.inflow[(1, 1)], scenario.inflow[(2, 1)]
    assert one.bounds() == two.bounds()
    assert risk.pieces(0.0, 4.0, one.support) != risk.pieces(0.0, 4.0, two.support)


def test_json_round_trip_builds_the_same_lps(tmp_path):
    # The file gives each key its own, equal function object; the LP must
    # not depend on which keys shared one object.
    builtin = builtin_angpuang()
    loaded = _round_trip(builtin, tmp_path)
    assert len({id(f) for f in loaded.transfer_cost.values()}) > 1
    for build in (build_proposed, build_deterministic):
        expected, _ = build(builtin)
        problem, _ = build(loaded)
        for got, want in zip(problem.matrix(), expected.matrix()):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert problem.lower == expected.lower
        assert problem.upper == expected.upper
        assert np.array_equal(problem.objective_vector(),
                              expected.objective_vector())
        assert problem.variable_names == expected.variable_names

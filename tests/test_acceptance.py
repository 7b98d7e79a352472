"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Mean profit magnitudes depend on inflow distributions that ship as
reconstructions, so the directional and property criteria below are the
contract rather than exact profit values.
"""
import time

import numpy as np

from conftest import expected_realized_risk, random_lp, random_scenario
from oracle import oracle_solve
from reservoirplan import lp
from reservoirplan.cli import compare_methods
from reservoirplan.formulation import (build_deterministic, build_proposed,
                                       extract_plan)
from reservoirplan.model import Plan
from reservoirplan.scenarios import (builtin_angpuang, builtin_simple,
                                     sweep_scenario)
from reservoirplan.simulation import (realize, run_monte_carlo, sample_inflows)

from test_formulation import (grid_search_single_reservoir,
                              grid_search_two_reservoir,
                              single_reservoir_scenario,
                              two_reservoir_transfer_scenario)

BUILTIN_FACTORIES = (builtin_simple(1), builtin_simple(2), builtin_angpuang())


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _solve_plan(scenario, builder=build_proposed) -> Plan:
    problem, vm = builder(scenario)
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    return extract_plan(solution, vm, scenario)


def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    started = time.perf_counter()
    checked = 0
    for trial in range(200):
        problem = random_lp(rng, max_vars=6, max_cons=8,
                            anchored=(trial % 2 == 0))
        ours = lp.solve(problem)
        reference = oracle_solve(problem)
        assert ours.status == reference.status, f"trial {trial}"
        if ours.status == lp.OPTIMAL:
            assert abs(ours.objective - reference.objective) <= 1e-7 * (
                1 + abs(reference.objective)), f"trial {trial}"
            checked += 1
    elapsed = time.perf_counter() - started
    _report(1, elapsed < 5.0,
            f"200 random LPs agree with the enumeration oracle "
            f"({checked} optimal) in {elapsed:.2f}s < 5s")


def test_criterion_2_point_mass_degeneration():
    rng = np.random.default_rng(8128)
    worst = 0.0
    for _ in range(50):
        scenario = random_scenario(rng, max_reservoirs=4, max_horizon=4,
                                   point_mass=True)
        proposed = lp.solve(build_proposed(scenario)[0])
        deterministic = lp.solve(build_deterministic(scenario)[0])
        assert proposed.status == deterministic.status == lp.OPTIMAL
        gap = abs(proposed.objective - deterministic.objective) / (
            1 + abs(proposed.objective))
        worst = max(worst, gap)
    _report(2, worst <= 1e-6,
            f"50 point-mass scenarios: worst relative objective gap "
            f"{worst:.2e} <= 1e-6")


def test_criterion_3_brute_force_formulation_checks():
    oracle_obj, _, _ = grid_search_single_reservoir()
    scenario = single_reservoir_scenario()
    single = lp.solve(build_proposed(scenario)[0]).objective
    gap_single = abs(single - oracle_obj)

    oracle_obj2, _, _ = grid_search_two_reservoir()
    scenario2 = two_reservoir_transfer_scenario()
    double = lp.solve(build_proposed(scenario2)[0]).objective
    gap_double = abs(double - oracle_obj2)
    ok = gap_single <= 1e-3 and gap_double <= 1e-3
    _report(3, ok,
            f"grid-search oracles match: single-reservoir gap "
            f"{gap_single:.2e}, two-reservoir gap {gap_double:.2e} (<= 1e-3)")


def test_criterion_4_big_f_guarantee():
    worst = -np.inf
    for scenario in BUILTIN_FACTORIES:
        caps = scenario.max_volumes()
        for builder in (build_proposed, build_deterministic):
            plan = _solve_plan(scenario, builder)
            worst = max(worst, float((plan.volumes - caps[None, :]).max()))
    _report(4, worst <= 1e-6,
            f"built-in scenarios with default penalties: max planned "
            f"volume excess {worst:.2e} <= 1e-6")


def test_criterion_5_directional_outperformance():
    details = []
    ok = True
    for scenario in BUILTIN_FACTORIES:
        started = time.perf_counter()
        proposed, deterministic, _ = compare_methods(scenario, reps=100, seed=0)
        elapsed = time.perf_counter() - started
        diff = proposed.total_profit - deterministic.total_profit
        se = float(np.std(diff - diff[0], ddof=1) / np.sqrt(diff.size))
        mean_diff = float(diff.mean())
        good = (proposed.mean_total >= deterministic.mean_total
                and mean_diff > 2 * se and elapsed < 120.0)
        ok = ok and good
        details.append(f"{scenario.name}: diff={mean_diff:.3f} "
                       f"se={se:.3f} t={elapsed:.1f}s")
    _report(5, ok, "proposed beats deterministic by >2 SE on all built-ins "
            f"({'; '.join(details)})")


def test_criterion_6_transfer_shutoff():
    base = builtin_angpuang()
    grid = (0.25, 0.5, 1.0, 1.5, 2.0)
    means = {}
    ses = {}
    transfer_volumes = {}
    for value in grid:
        variant = sweep_scenario(base, "transfer-cost-slope", value)
        proposed, deterministic, plans = compare_methods(variant, reps=100,
                                                         seed=0)
        means[value] = (proposed.mean_total, deterministic.mean_total)
        ses[value] = (proposed.std_total / 10.0, deterministic.std_total / 10.0)
        transfer_volumes[value] = max(
            float(plans["proposed"].transfers.sum()),
            float(plans["deterministic"].transfers.sum()))
    shutoff_ok = all(transfer_volumes[v] <= 1e-6 for v in (1.5, 2.0))
    flat_ok = True
    for a, b in ((1.5, 2.0),):
        for side in (0, 1):
            gap = abs(means[a][side] - means[b][side])
            noise = 3 * (ses[a][side] + ses[b][side])
            flat_ok = flat_ok and gap <= max(noise, 1e-6)
    _report(6, shutoff_ok and flat_ok,
            f"transfer volume at cost slopes 1.5/2.0: "
            f"{transfer_volumes[1.5]:.2e}/{transfer_volumes[2.0]:.2e} (=0); "
            f"means flat past shutoff")


def test_criterion_7_risk_sensitivity_ordering():
    base = builtin_angpuang()
    grid = (0.5, 2.5, 10.0)
    means = {}
    for value in grid:
        variant = sweep_scenario(base, "risk-slope", value)
        proposed, deterministic, _ = compare_methods(variant, reps=100, seed=0)
        means[value] = (proposed.mean_total, deterministic.mean_total)
    proposed_decline = means[grid[0]][0] - means[grid[-1]][0]
    deterministic_decline = means[grid[0]][1] - means[grid[-1]][1]
    _report(7, proposed_decline <= deterministic_decline + 1e-9,
            f"risk-slope sweep {grid}: proposed declines "
            f"{proposed_decline:.3f} <= deterministic {deterministic_decline:.3f}")


def test_criterion_8_deviation_identity_suite():
    rng = np.random.default_rng(55)
    pairs = 0
    worst = 0.0
    first_period_exact = True
    while pairs < 1000:
        scenario = random_scenario(rng, max_reservoirs=3, max_horizon=4)
        t_count, n_count = scenario.horizon, scenario.num_reservoirs
        caps = {(l.source, l.target): l.capacity for l in scenario.links}
        for _ in range(20):
            # Random feasible-shaped plan: volumes follow the state recursion.
            transfers = np.zeros((t_count, n_count, n_count))
            for (src, dst), cap in caps.items():
                transfers[:, src - 1, dst - 1] = rng.uniform(0, cap, size=t_count)
            releases = rng.uniform(0, 3, size=(t_count, n_count))
            predicted = rng.uniform(0, 5, size=(t_count, n_count))
            volumes = np.empty((t_count, n_count))
            previous = scenario.initial_volumes()
            for t in range(t_count):
                net = transfers[t].sum(axis=0) - transfers[t].sum(axis=1)
                volumes[t] = previous - releases[t] + predicted[t] + net
                previous = volumes[t]
            plan = Plan(transfers=transfers, releases=releases,
                        predicted_inflows=predicted, volumes=volumes,
                        objective=0.0)
            inflows = rng.uniform(0, 6, size=(t_count, n_count))
            trajectory = realize(plan, inflows, scenario)
            deviation = trajectory.volumes[1:] - plan.volumes
            gap = float(np.abs(deviation - (inflows - predicted)).max())
            worst = max(worst, gap)
            if not np.array_equal(trajectory.releases[0], plan.releases[0]):
                first_period_exact = False
            pairs += 1
    _report(8, worst <= 1e-9 and first_period_exact,
            f"{pairs} random plan/trajectory pairs: max deviation identity "
            f"error {worst:.2e} <= 1e-9, first-period releases exact")


def test_criterion_9_expected_risk_consistency():
    rng = np.random.default_rng(909)
    failures = []
    for case in range(10):
        scenario = random_scenario(rng, max_reservoirs=3, max_horizon=3)
        plan = _solve_plan(scenario)
        reps = 10_000
        report = run_monte_carlo(plan, scenario, reps=reps, seed=case)
        closed_form = expected_realized_risk(plan, scenario)
        stderr = report.std_risk / np.sqrt(reps)
        gap = abs(report.mean_risk - closed_form)
        if gap > max(3 * stderr, 1e-9):
            failures.append(f"case {case}: gap {gap:.3g} > 3se {3 * stderr:.3g}")
    _report(9, not failures,
            "Monte Carlo mean risk matches the discretized expected-risk sum "
            f"within 3 standard errors on 10 random scenarios {failures}")


def test_criterion_10_scale_runtime():
    scenario = builtin_angpuang()
    started = time.perf_counter()
    problem, vm = build_proposed(scenario)
    solution = lp.solve(problem)
    elapsed = time.perf_counter() - started
    assert solution.status == lp.OPTIMAL
    size = problem.num_variables + problem.num_constraints
    _report(10, elapsed < 60.0,
            f"8-reservoir 6-period proposed plan ({problem.num_variables} "
            f"variables, {size} simplex columns) solved in {elapsed:.2f}s < 60s")


def test_criterion_11_reproducibility(tmp_path):
    from reservoirplan import cli

    out = tmp_path / "run"
    args = ["compare", "--scenario", "builtin:simple1", "--reps", "50",
            "--seed", "9", "--out", str(out)]
    assert cli.main(args) == 0
    tracked = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    first = {p.name: p.read_bytes() for p in tracked}
    assert cli.main(args) == 0
    second = {p.name: p.read_bytes() for p in tracked}
    identical = first == second

    # Scheduling independence: per-replication streams match the batch run.
    scenario = builtin_simple(1)
    plan = _solve_plan(scenario)
    report = run_monte_carlo(plan, scenario, reps=16, seed=3)
    per_rep = []
    for rep in range(16):
        inflows = sample_inflows(scenario, seed=3, rep=rep)
        trajectory = realize(plan, inflows, scenario)
        from reservoirplan.simulation import score
        per_rep.append(score(plan, trajectory, scenario).total)
    order_independent = np.array_equal(np.array(per_rep), report.total_profit)

    _report(11, identical and order_independent,
            "repeated runs are bitwise identical and per-replication streams "
            "are independent of batching order")

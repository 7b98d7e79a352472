"""The three workloads: their inputs, CLI command, set-up probe and checks.

Each factory writes its inputs under `work` from the benchmark seed and
returns a `Workload`. Paths are relative to the repository root, so the data
files, which embed their paths, have the same bytes in every checkout.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable

import checks
import network
from reservoirplan import cli
from reservoirplan.formulation import plan_violations
from reservoirplan.scenarios import (load_scenario, resolve_scenario,
                                     save_scenario)

SWEEP_CONFIG = Path("scenarios/example_sweep.json")
FIXED_PLAN = Path("perfbench/data/angpuang_proposed_plan.json")
EVALUATE_REPS = 200_000


@dataclasses.dataclass
class Workload:
    argv: list[str]                 # CLI arguments
    out: Path                       # the command's output directory
    setup: list[str]                # child.py set-up probe arguments
    check: Callable[[checks.Capture, str], list[str]]  # (capture, stdout) -> problems


def _close(a: float, b: float) -> bool:
    return checks.close(a, b, checks.AGGREGATE_RTOL)


def sweep_angpuang(seed: int, work: Path) -> Workload:
    """The committed transfer-cost sweep on angpuang with the benchmark seed:
    ten medium LPs and ten 100-replication Monte Carlo runs."""
    doc = json.loads(SWEEP_CONFIG.read_text())
    doc["seed"] = seed
    config = work / "sweep.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    out = work / "out"
    grid = [float(v) for v in doc["grid"]]
    expected = [(value, method) for value in grid
                for method in ("proposed", "deterministic")]

    def check(capture: checks.Capture, stdout: str) -> list[str]:
        problems = checks.check_solves(capture, len(expected))
        header, rows = checks.read_csv(out / "sweep.csv")
        if header != ["value", "method", "mean_total", "std_total"]:
            problems.append(f"sweep.csv header {header}")
        if f"({len(expected)} rows)" not in stdout:
            problems.append(f"sweep stdout {stdout!r}")
        if len(rows) != len(expected) or len(capture.reports) != len(expected):
            return problems + [f"{len(rows)} sweep rows and "
                               f"{len(capture.reports)} evaluations, expected "
                               f"{len(expected)}"]
        for row, key, (_, plan, scenario, reps, mc_seed) in zip(
                rows, expected, capture.reports):
            mean, std = checks.reference_monte_carlo(
                plan.releases, plan.volumes, plan.transfers, scenario,
                reps, mc_seed)
            if ((float(row[0]), row[1]) != key or mc_seed != seed
                    or reps != doc["reps"] or not _close(float(row[2]), mean)
                    or not _close(float(row[3]), std)):
                problems.append(f"sweep row {row}: expected {key} with "
                                f"mean {mean!r} std {std!r}")
        return problems

    return Workload(["sweep", "--config", str(config), "--out", str(out)],
                    out, ["sweep", str(config)], check)


def plan_network(seed: int, work: Path) -> Workload:
    """`plan --method proposed` on a seeded synthetic network read from JSON:
    one large sparse LP and no Monte Carlo."""
    path = work / "network.json"
    scenario = network.synthetic_network(seed)
    save_scenario(scenario, path)
    out = work / "out"

    def check(capture: checks.Capture, stdout: str) -> list[str]:
        problems = checks.check_solves(capture, 1)
        if load_scenario(path) != scenario:
            problems.append("network JSON does not read back as written")
        plan = cli.load_plan_json(out / "plan.json")
        violations = plan_violations(plan, scenario)
        if violations:
            problems.append(f"plan.json violates {violations[:3]}")
        if capture.solves:
            objective = capture.solves[0][1].objective
            if not _close(plan.objective, objective) or \
                    f"objective={objective!r}" not in stdout:
                problems.append(f"plan objective {plan.objective!r} and stdout "
                                f"{stdout!r} disagree with the LP {objective!r}")
        links = len(scenario.links)
        for name, count in (("plan_releases.csv", len(scenario.ids())),
                            ("plan_transfers.csv", links)):
            rows = checks.read_csv(out / name)[1]
            if len(rows) != count * scenario.horizon:
                problems.append(f"{name} has {len(rows)} rows")
        return problems

    return Workload(["plan", "--scenario", str(path), "--method", "proposed",
                     "--out", str(out)],
                    out, ["scenario", str(path)], check)


def evaluate_mc(seed: int, work: Path) -> Workload:
    """`evaluate` of the committed angpuang plan with one large Monte Carlo
    batch written as CSV; no LP is built or solved."""
    out = work / "out"

    def check(capture: checks.Capture, stdout: str) -> list[str]:
        problems = []
        if capture.solves:
            problems.append(f"evaluate solved {len(capture.solves)} LPs")
        header, rows = checks.read_csv(out / "evaluation.csv")
        if header != ["rep", "release", "transfer", "risk", "total"]:
            problems.append(f"evaluation.csv header {header}")
        if len(rows) != EVALUATE_REPS + 2 or rows[-2][0] != "mean" or \
                rows[-1][0] != "std":
            return problems + [f"evaluation.csv has {len(rows)} rows"]
        for i, row in enumerate(rows[:-2]):
            release, transfer, risk, total = map(float, row[1:])
            if row[0] != str(i) or not _close(release - transfer - risk, total):
                problems.append(f"evaluation row {row} breaks "
                                "release - transfer - risk = total")
                break
        scenario = resolve_scenario("builtin:angpuang")
        mean, std = checks.reference_monte_carlo(
            *checks.plan_arrays_from_json(FIXED_PLAN, scenario.horizon,
                                          scenario.num_reservoirs),
            scenario, EVALUATE_REPS, seed)
        reported = {"mean_total": float(rows[-2][4]),
                    "std_total": float(rows[-1][4])}
        for key, reference in (("mean_total", mean), ("std_total", std)):
            if not _close(reported[key], reference) or \
                    f"{key}={reported[key]!r}" not in stdout:
                problems.append(f"{key} {reported[key]!r} (stdout {stdout!r}) "
                                f"but the reference gives {reference!r}")
        return problems

    return Workload(["evaluate", "--scenario", "builtin:angpuang",
                     "--plan", str(FIXED_PLAN), "--reps", str(EVALUATE_REPS),
                     "--seed", str(seed), "--format", "csv", "--out", str(out)],
                    out, ["scenario", "builtin:angpuang", str(FIXED_PLAN)], check)


WORKLOADS = {
    "sweep-angpuang": sweep_angpuang,
    "plan-network": plan_network,
    "evaluate-mc": evaluate_mc,
}

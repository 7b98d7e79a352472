"""Command-line front end: planning, evaluation, comparison and sweeps.

Every output file embeds the run manifest (the inputs that determine the run),
so identical manifests yield bitwise-identical files; wall-clock duration is
recorded only in the separate manifest.json, keeping the data files
reproducible. Every file is read and written as UTF-8, with LF line ends,
whatever the platform and its locale. The plan file format is owned here:
`_write_plan_files` writes it and `load_plan_json` reads it with the scenario
module's reader and field helpers.

Each `cmd_*` loads its inputs, computes, writes its data files and returns
its summary line, raising on any fault. `main` alone makes `--out`, times the
command, writes manifest.json, prints the summary and turns a fault into an
exit code: 0 optimal, 1 usage/IO error, 2 infeasible, 3 unbounded,
4 iteration limit, 5 numerical failure (the solver broke down or its optimum
failed the feasibility check). Every failure prints the same two lines on
stderr, `manifest: {...}` and then `error: ...`, and writes no manifest.json.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from . import formulation, lp, simulation
from .model import Plan, Scenario, ScenarioValidationError, validate_scenario
from .scenarios import (ScenarioParseError, _integer, _load, _need, _number,
                        _objects, expand_sweep, load_sweep_config,
                        resolve_scenario)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_ITERATION_LIMIT = 4
EXIT_NUMERICAL = 5

RELEASE_HEADER = ["t", "n", "g", "x", "v"]
TRANSFER_HEADER = ["t", "from", "to", "q"]
REPORT_HEADER = ["rep", "release", "transfer", "risk", "total"]

_STATUS_EXIT = {
    lp.INFEASIBLE: EXIT_INFEASIBLE,
    lp.UNBOUNDED: EXIT_UNBOUNDED,
    lp.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
}


@dataclasses.dataclass
class RunManifest:
    """Inputs that determine a run, recorded verbatim into every output."""

    command: str
    scenario: str | None = None
    method: str | None = None
    seed: int | None = None
    reps: int | None = None
    tolerance_overrides: dict = dataclasses.field(default_factory=dict)
    outputs: list[str] = dataclasses.field(default_factory=list)
    duration_s: float | None = None
    # Derived results written to manifest.json only, never into data files.
    results: dict = dataclasses.field(default_factory=dict)

    def embedded(self) -> dict:
        """Deterministic fields embedded into data files (duration excluded)."""
        fields = {
            "command": self.command,
            "scenario": self.scenario,
            "method": self.method,
            "seed": self.seed,
            "reps": self.reps,
        }
        for key, value in sorted(self.tolerance_overrides.items()):
            fields[key] = value
        fields["outputs"] = ";".join(self.outputs)
        return {k: v for k, v in fields.items() if v is not None}

    def write(self, out_dir: Path) -> None:
        record = dict(self.embedded())
        record.update(self.results)
        record["duration_s"] = self.duration_s
        path = out_dir / "manifest.json"
        path.write_bytes((json.dumps(record, indent=2) + "\n").encode())


def _csv_lines(rows: Iterable[Sequence]) -> str:
    # str of a float (Python or numpy float64) is its shortest round-trip repr.
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _csv_head(manifest: RunManifest, header: list[str]) -> str:
    """The manifest comment lines and the header line of a data CSV."""
    comments = [f"# {key}={value}\n"
                for key, value in manifest.embedded().items()]
    return "".join(comments) + ",".join(header) + "\n"


def _write_csv(path: Path, manifest: RunManifest, header: list[str],
               rows: Sequence[Sequence]) -> None:
    path.write_bytes((_csv_head(manifest, header) + _csv_lines(rows)).encode())


def _records(header: list[str], rows: Sequence[Sequence]) -> list[dict]:
    """JSON records of a CSV table: one object per row, keyed by the header."""
    return [dict(zip(header, row)) for row in rows]


def _write_json(path: Path, manifest: RunManifest, payload: dict) -> None:
    document = {"manifest": manifest.embedded(), **payload}
    path.write_bytes((json.dumps(document, indent=2) + "\n").encode())


def _load_scenario_arg(args, manifest: RunManifest) -> Scenario:
    """The validated scenario of `--scenario`; one that `--big-f` or
    `--physical-sim` changed is validated again."""
    resolved = scenario = resolve_scenario(args.scenario)
    if getattr(args, "big_f", None) is not None:
        manifest.tolerance_overrides["big_f"] = args.big_f
        scenario = dataclasses.replace(
            scenario,
            overflow_penalty={key: float(args.big_f)
                              for key in scenario.overflow_penalty})
    if getattr(args, "physical_sim", False):
        scenario = dataclasses.replace(scenario, physical_sim=True)
    if scenario is not resolved:
        report = validate_scenario(scenario)
        if not report.ok:
            raise ScenarioValidationError(report)
    return scenario


def _solve_method(scenario: Scenario, method: str,
                  start: lp.Basis | None = None):
    builder = (formulation.build_proposed if method == "proposed"
               else formulation.build_deterministic)
    problem, vm = builder(scenario)
    try:
        solution = lp.solve(problem, start=start)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{scenario.name}: {method} solve: {exc}") from exc
    return problem, vm, solution


class _SolveFailure(Exception):
    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


def _require_optimal(solution: lp.LpSolution, scenario: Scenario,
                     method: str) -> None:
    """Raise _SolveFailure, naming the scenario and the method, unless the
    solve ended optimal."""
    if not solution.is_optimal:
        raise _SolveFailure(
            f"{scenario.name}: {method} solve returned {solution.status} "
            f"after {solution.iterations} iterations", solution.status)


def _plan_entries(doc: dict, key: str, kind: str, fields: tuple[str, ...],
                  sizes: tuple[int, ...],
                  numbers: tuple[str, ...]) -> dict[tuple[int, ...], tuple]:
    """The `numbers` fields of the plan entries `doc[key]`, keyed by the
    entries' zero-based `fields` indices.

    Rejects a missing field, an index that is not an integer in 1..size, a
    value that is not a finite number and a repeated key, naming the entry.
    """
    keyed = {}
    for entry in _objects(doc, key, "top level", required=True):
        where = f"{kind} entry {entry}"
        index = tuple(_integer(_need(entry, field, where), where, field, size)
                      - 1 for field, size in zip(fields, sizes))
        if index in keyed:
            raise ScenarioParseError(f"duplicate {kind} entry {entry}")
        keyed[index] = tuple(_number(_need(entry, field, where), where, field,
                                     finite=True) for field in numbers)
    return keyed


def _plan_from_dict(doc: dict) -> Plan:
    where = "top level"
    t_count, n_count = (_integer(_need(doc, field, where), where, field,
                                 math.inf)
                        for field in ("horizon", "reservoirs"))
    objective = _number(_need(doc, "objective", where), where, "objective",
                        finite=True)
    transfers = np.zeros((t_count, n_count, n_count))
    for index, (q,) in _plan_entries(doc, "transfers", "transfer",
                                     ("t", "from", "to"),
                                     (t_count, n_count, n_count),
                                     ("q",)).items():
        transfers[index] = q
    releases = np.zeros((t_count, n_count))
    predicted = np.zeros((t_count, n_count))
    volumes = np.zeros((t_count, n_count))
    release_entries = _plan_entries(doc, "releases", "release", ("t", "n"),
                                    (t_count, n_count), ("g", "x", "v"))
    for index, (g, x, v) in release_entries.items():
        releases[index], predicted[index], volumes[index] = g, x, v
    missing = set(np.ndindex(t_count, n_count)) - release_entries.keys()
    if missing:
        t, n = min(missing)
        raise ScenarioParseError(f"no release entry for t={t + 1}, n={n + 1}")
    return Plan(transfers=transfers, releases=releases,
                predicted_inflows=predicted, volumes=volumes,
                objective=objective)


def load_plan_json(path: str | Path, scenario: Scenario | None = None) -> Plan:
    """Read a plan written by `plan`/`compare` back into arrays, and check
    that it fits `scenario` if one is given.

    Raises ScenarioParseError, naming the file and the field or entry, for
    an unreadable file, a missing field, a horizon or reservoir count that
    is not a positive integer, an index that is not an integer in range, a
    value that is not a finite number, a repeated or missing entry, and a
    plan that `Plan.check_dimensions` refuses.
    """
    def parse(doc: dict) -> Plan:
        plan = _plan_from_dict(doc)
        if scenario is not None:
            plan.check_dimensions(scenario)
        return plan
    return _load(path, parse)


def _write_plan_files(plan: Plan, scenario: Scenario, manifest: RunManifest,
                      out_dir: Path, prefix: str = "plan") -> None:
    releases_path = out_dir / f"{prefix}_releases.csv"
    transfers_path = out_dir / f"{prefix}_transfers.csv"
    json_path = out_dir / f"{prefix}.json"
    manifest.outputs = [str(releases_path), str(transfers_path), str(json_path)]

    release_rows = [[t, n,
                     float(plan.releases[t - 1, n - 1]),
                     float(plan.predicted_inflows[t - 1, n - 1]),
                     float(plan.volumes[t - 1, n - 1])]
                    for t in scenario.periods() for n in scenario.ids()]
    transfer_rows = [[t, link.source, link.target,
                      float(plan.transfers[t - 1, link.source - 1,
                                           link.target - 1])]
                     for t in scenario.periods()
                     for link in scenario.sorted_links()]
    _write_csv(releases_path, manifest, RELEASE_HEADER, release_rows)
    _write_csv(transfers_path, manifest, TRANSFER_HEADER, transfer_rows)
    _write_json(json_path, manifest, {
        "objective": plan.objective,
        "horizon": scenario.horizon,
        "reservoirs": scenario.num_reservoirs,
        "transfers": _records(TRANSFER_HEADER, transfer_rows),
        "releases": _records(RELEASE_HEADER, release_rows),
    })


def cmd_plan(args, manifest: RunManifest, out_dir: Path) -> str:
    scenario = _load_scenario_arg(args, manifest)
    problem, vm, solution = _solve_method(scenario, args.method)
    if args.dump_lp:
        Path(args.dump_lp).write_bytes(lp.to_mps(problem).encode())
    _require_optimal(solution, scenario, args.method)
    plan = formulation.extract_plan(solution, vm, scenario)
    solution.basis = None   # drops the final tableau it keeps, before writing
    _write_plan_files(plan, scenario, manifest, out_dir)
    return (f"status=optimal objective={plan.objective!r} "
            f"iterations={solution.iterations}")


def _indexed_rows(prefix: str, risk: np.ndarray,
                  row_text: Callable[[float], str]) -> Iterator[np.ndarray]:
    """The ASCII bytes of `prefix`, the index i and `row_text(risk[i])` for
    every replication i, as one uint8 array per block of
    `simulation._BLOCK_REPS` replications, so the table is never held whole.

    Only the risk varies from row to row, and it repeats (a replication's
    risk depends on finitely many discrete inflow draws), so `row_text` is
    called once per distinct risk of the whole run: each block looks its
    distinct risks up in a dict of the texts made so far. Risks are told
    apart by bit pattern, not by float equality, because -0.0 == 0.0 yet the
    two print differently. A block's rows are laid out in a padded matrix,
    prefix and index digits first, and its padding dropped by one length
    mask.
    """
    lead = np.frombuffer(prefix.encode(), np.uint8)
    texts: dict[int, bytes] = {}  # bit pattern -> row text, for the whole run
    for begin in range(0, risk.size, simulation._BLOCK_REPS):
        end = min(begin + simulation._BLOCK_REPS, risk.size)
        distinct, codes = np.unique(risk[begin:end].view(np.int64),
                                    return_inverse=True)
        block_texts = []
        for key, value in zip(distinct.tolist(),
                              distinct.view(np.float64).tolist()):
            text = texts.get(key)
            if text is None:
                text = texts[key] = row_text(value).encode()
            block_texts.append(text)
        lengths = np.fromiter(map(len, block_texts), np.intp, len(block_texts))
        longest = int(lengths.max())
        table = np.zeros((len(block_texts), longest), np.uint8)
        table[np.arange(longest) < lengths[:, None]] = np.frombuffer(
            b"".join(block_texts), np.uint8)

        digits = len(str(end - 1))
        matrix = np.empty((end - begin, lead.size + digits + longest),
                          np.uint8)
        matrix[:, :lead.size] = lead
        row_lengths = np.take(lengths, codes)
        row_lengths += lead.size
        start = begin
        for width in range(len(str(begin)), digits + 1):
            stop = min(10 ** width, end)
            rows = slice(start - begin, stop - begin)
            # The narrowest unsigned type divides fastest.
            index = np.arange(start, stop, dtype=np.min_scalar_type(stop))
            for column in range(lead.size + width - 1, lead.size - 1, -1):
                matrix[rows, column] = index % 10 + ord("0")
                index //= 10
            matrix[rows, lead.size + width:lead.size + width + longest] = \
                np.take(table, codes[rows], axis=0)
            row_lengths[rows] += width
            start = stop
        # keep[n] marks the first n bytes of a matrix row.
        keep = np.arange(matrix.shape[1] + 1)[:, None] > \
            np.arange(matrix.shape[1])
        yield matrix[np.take(keep, row_lengths, axis=0)]


def _write_report_csv(path: Path, manifest: RunManifest,
                      report: simulation.SimulationReport) -> None:
    """The evaluation table: one row per replication, then mean and std."""
    release, transfer = report.release_profit, report.transfer_cost
    blocks = _indexed_rows("", report.risk_cost, lambda risk: (
        f",{release},{transfer},{risk},{release - transfer - risk}\n"))
    with path.open("wb") as file:
        file.write(_csv_head(manifest, REPORT_HEADER).encode())
        file.writelines(blocks)
        # Release and transfer are the plan's constants: no spread.
        file.write(_csv_lines([
            ("mean", release, transfer, report.mean_risk, report.mean_total),
            ("std", 0.0, 0.0, report.std_risk, report.std_total)]).encode())


def _write_report_json(path: Path, manifest: RunManifest,
                       report: simulation.SimulationReport) -> None:
    """The bytes `_write_json` would write for the evaluation, with one
    `REPORT_HEADER` record per replication laid out as `json.dumps` does."""
    release, transfer = report.release_profit, report.transfer_cost
    key, *keys = map(json.dumps, REPORT_HEADER)

    def record_tail(risk: float) -> str:
        values = (release, transfer, risk, release - transfer - risk)
        return "".join(f",\n      {name}: {json.dumps(value)}"
                       for name, value in zip(keys, values)) + "\n    },\n"

    blocks = _indexed_rows(f"    {{\n      {key}: ", report.risk_cost,
                           record_tail)
    aggregates = ("mean_total", "std_total", "mean_risk", "std_risk")
    document = {"manifest": manifest.embedded(),
                "replications": report.replications, "per_replication": None,
                "aggregates": {k: getattr(report, k) for k in aggregates}}
    # A string value cannot hold this text unescaped, so only the key does.
    head, _, tail = json.dumps(document, indent=2).rpartition(
        '"per_replication": null')
    with path.open("wb") as file:
        file.write(f'{head}"per_replication": [\n'.encode())
        # Each block is written once the next exists, so the last is known.
        held = next(blocks)
        for block in blocks:
            file.write(held)
            held = block
        file.write(held[:-2])  # all but the last record's ",\n"
        file.write(f"\n  ]{tail}\n".encode())


def cmd_evaluate(args, manifest: RunManifest, out_dir: Path) -> str:
    scenario = _load_scenario_arg(args, manifest)
    plan = load_plan_json(args.plan, scenario)
    report = simulation.run_monte_carlo(plan, scenario, reps=args.reps,
                                        seed=args.seed)
    path = out_dir / f"evaluation.{args.format}"
    manifest.outputs = [str(path)]
    write = _write_report_json if args.format == "json" else _write_report_csv
    write(path, manifest, report)
    manifest.results = _exact_results(report, plan)
    if report.exact is None:
        exact = "exact=none (physical mode has no closed form)"
    else:
        exact = (f"exact_mean_total={report.exact.mean_total!r} "
                 f"exact_std_total={report.exact.std_total!r}")
    return (f"mean_total={report.mean_total!r} std_total={report.std_total!r} "
            f"mean_risk={report.mean_risk!r} {exact}")


def _exact_results(report: simulation.SimulationReport, plan: Plan) -> dict:
    """The exact moments next to the Monte Carlo ones, for manifest.json.

    `mc_z_score` is the Monte Carlo mean's distance from the exact mean in
    exact standard errors; it is None when the total has no spread.
    `objective_minus_exact_mean_total` is what the plan's LP objective
    promises beyond the exact expected total. All are None in physical mode.
    """
    exact = report.exact
    if exact is None:
        return {key: None for key in ("exact_mean_total", "exact_std_total",
                                      "mc_z_score",
                                      "objective_minus_exact_mean_total")}
    standard_error = exact.std_total / math.sqrt(report.replications)
    return {
        "exact_mean_total": exact.mean_total,
        "exact_std_total": exact.std_total,
        "mc_z_score": ((report.mean_total - exact.mean_total) / standard_error
                       if standard_error > 0 else None),
        "objective_minus_exact_mean_total": plan.objective - exact.mean_total,
    }


def compare_methods(scenario: Scenario, reps: int, seed: int,
                    bases: dict[str, lp.Basis] | None = None,
                    solves: list[dict] | None = None):
    """Plan both methods and evaluate them on the same sampled inflows.

    Without `bases` every solve starts cold, and each solve's final tableau
    is dropped once its plan is extracted. With it, each method's solve
    starts from `bases[method]` if present, and `bases[method]` is then set
    to that solve's optimal basis, which keeps the tableau for the next warm
    start. Each solve's method, `LpSolution.start` and iteration count are
    appended to `solves` if given.

    Returns (proposed_report, deterministic_report, plans) or raises
    _SolveFailure carrying the failing solver status.
    """
    reports = {}
    plans = {}
    for method in ("proposed", "deterministic"):
        start = bases.get(method) if bases is not None else None
        _, vm, solution = _solve_method(scenario, method, start)
        _require_optimal(solution, scenario, method)
        if solves is not None:
            solves.append({"method": method, "start": solution.start,
                           "iterations": solution.iterations})
        plan = formulation.extract_plan(solution, vm, scenario)
        if bases is not None:
            bases[method] = solution.basis
        solution.basis = None
        plans[method] = plan
        reports[method] = simulation.run_monte_carlo(plan, scenario, reps=reps,
                                                     seed=seed)
    return reports["proposed"], reports["deterministic"], plans


def cmd_compare(args, manifest: RunManifest, out_dir: Path) -> str:
    scenario = _load_scenario_arg(args, manifest)
    proposed, deterministic, plans = compare_methods(scenario, args.reps,
                                                     args.seed)
    diff = proposed.total_profit - deterministic.total_profit
    mean_diff = float(diff.mean())
    se_diff = simulation._sample_std(diff, in_place=True) / np.sqrt(diff.size)

    path = out_dir / "compare.csv"
    manifest.outputs = [str(path)]
    rows = [
        ["proposed", proposed.mean_total, proposed.std_total,
         proposed.mean_risk, proposed.std_risk],
        ["deterministic", deterministic.mean_total, deterministic.std_total,
         deterministic.mean_risk, deterministic.std_risk],
        # For the paired row, the std column holds the standard error of the
        # mean paired difference.
        ["paired_difference", mean_diff, float(se_diff), "", ""],
    ]
    _write_csv(path, manifest,
               ["label", "mean_total", "std_total", "mean_risk", "std_risk"],
               rows)
    for method, plan in plans.items():
        plan_manifest = dataclasses.replace(manifest, method=method)
        _write_plan_files(plan, scenario, plan_manifest, out_dir,
                          prefix=f"plan_{method}")
    return (f"proposed_mean={proposed.mean_total!r} "
            f"deterministic_mean={deterministic.mean_total!r} "
            f"paired_diff={mean_diff!r} se={float(se_diff)!r}")


def cmd_sweep(args, manifest: RunManifest, out_dir: Path) -> str:
    config = load_sweep_config(args.config)
    manifest.scenario, manifest.seed, manifest.reps = (
        config.scenario, config.seed, config.reps)
    manifest.tolerance_overrides = {"parameter": config.parameter,
                                    "grid": list(config.grid)}
    variants = expand_sweep(config)

    # Grid points share the LP's shape, so each solve starts from the basis
    # the previous point's solve of the same method ended at. A sweep changes
    # no constraint coefficient, so that start takes over the tableau the
    # previous solve kept.
    bases: dict[str, lp.Basis] = {}
    rows, solves = [], []
    for value, scenario in zip(config.grid, variants):
        point_solves = []
        proposed, deterministic, _ = compare_methods(
            scenario, config.reps, config.seed, bases, point_solves)
        solves += [{"value": float(value), **solve} for solve in point_solves]
        rows.append([float(value), "proposed",
                     proposed.mean_total, proposed.std_total])
        rows.append([float(value), "deterministic",
                     deterministic.mean_total, deterministic.std_total])
    bases.clear()   # no later solve starts from the last point's tableaux
    manifest.results = {"solves": solves}

    path = out_dir / "sweep.csv"
    manifest.outputs = [str(path)]
    _write_csv(path, manifest, ["value", "method", "mean_total", "std_total"],
               rows)
    return f"wrote {path} ({len(rows)} rows)"


def _replications(text: str) -> int:
    try:
        reps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if reps < 1:
        raise argparse.ArgumentTypeError(f"reps must be >= 1, got {reps}")
    return reps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reservoirplan",
        description="Risk-aware demand-supply planning for reservoir networks")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, simulate=True):
        p.add_argument("--scenario", required=True,
                       help="scenario file path or builtin:<name>")
        if simulate:
            p.add_argument("--reps", type=_replications, default=100,
                           help="Monte Carlo replications (default 100)")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--physical-sim", action="store_true",
                           dest="physical_sim",
                           help="cap realized volumes at capacity and floor "
                                "realized releases at zero")
        p.add_argument("--big-f", type=float, default=None, dest="big_f",
                       help="override every overflow penalty constant")
        p.add_argument("--out", default=".", help="output directory")

    p_plan = sub.add_parser("plan", help="compute a demand-supply plan")
    add_common(p_plan, simulate=False)
    p_plan.add_argument("--method", choices=("proposed", "deterministic"),
                        default="proposed")
    p_plan.add_argument("--dump-lp", default=None,
                        help="also write the compiled LP as MPS text")
    p_plan.set_defaults(func=cmd_plan)

    p_eval = sub.add_parser("evaluate", help="Monte Carlo evaluation of a plan")
    add_common(p_eval)
    p_eval.add_argument("--plan", required=True, help="plan JSON file")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare",
                           help="plan and evaluate both methods, paired seeds")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run a sensitivity sweep")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", default=".")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # sweep fills in its scenario, seed and replications from its config.
    manifest = RunManifest(command=args.subcommand,
                           scenario=getattr(args, "scenario", None),
                           method=getattr(args, "method", None),
                           seed=getattr(args, "seed", None),
                           reps=getattr(args, "reps", None))
    out_dir = Path(args.out)
    started = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = args.func(args, manifest, out_dir)
    except _SolveFailure as exc:
        code, error = _STATUS_EXIT[exc.status], exc
    except (ScenarioParseError, ScenarioValidationError, OSError) as exc:
        # An unreadable or invalid input, or an --out that cannot be made or
        # an output that cannot be written.
        code, error = EXIT_USAGE, exc
    except ArithmeticError as exc:
        code, error = EXIT_NUMERICAL, exc
    else:
        manifest.duration_s = time.perf_counter() - started
        manifest.write(out_dir)
        print(summary)
        return EXIT_OK
    print(f"manifest: {json.dumps(manifest.embedded())}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

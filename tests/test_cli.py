import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reservoirplan import cli, lp, model, simulation
from reservoirplan.scenarios import (builtin_simple, resolve_scenario,
                                    save_scenario, scenario_to_dict)


def run_cli(*args):
    return cli.main(list(args))


def test_plan_builtin_simple1_regression(tmp_path, capsys):
    code = run_cli("plan", "--scenario", "builtin:simple1",
                   "--method", "proposed", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "status=optimal" in out
    # Regression value frozen after verifying the formulation against the
    # grid-search oracles; tolerance covers solver roundoff only.
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["objective"] == pytest.approx(0.4, abs=1e-9)
    assert (tmp_path / "plan_releases.csv").exists()
    assert (tmp_path / "plan_transfers.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_plan_csv_headers_and_manifest(tmp_path):
    run_cli("plan", "--scenario", "builtin:simple1", "--out", str(tmp_path))
    lines = (tmp_path / "plan_releases.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("command=plan" in c for c in comments)
    assert any("scenario=builtin:simple1" in c for c in comments)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,n,g,x,v"
    t_lines = (tmp_path / "plan_transfers.csv").read_text().splitlines()
    assert next(l for l in t_lines if not l.startswith("#")) == "t,from,to,q"


def test_plan_infeasible_exit_code(tmp_path):
    doc = scenario_to_dict(builtin_simple(1))
    # Terminal requirement above any attainable volume.
    for entry in doc["reservoirs"]:
        entry["final_min_volume"] = entry["max_volume"]
        entry["initial_volume"] = 0.0
    for entry in doc["distributions"]:
        entry["support"] = [[0.0, 1.0]]
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    code = run_cli("plan", "--scenario", str(path), "--out", str(tmp_path))
    assert code == 2


def test_plan_deterministic_equals_proposed_on_point_mass(tmp_path):
    doc = scenario_to_dict(builtin_simple(1))
    for entry in doc["distributions"]:
        support = entry["support"]
        mean = sum(v * p for v, p in support)
        entry["support"] = [[mean, 1.0]]
    path = tmp_path / "pointmass.json"
    path.write_text(json.dumps(doc))
    objectives = {}
    for method in ("proposed", "deterministic"):
        out = tmp_path / method
        assert run_cli("plan", "--scenario", str(path), "--method", method,
                       "--out", str(out)) == 0
        objectives[method] = json.loads((out / "plan.json").read_text())["objective"]
    gap = abs(objectives["proposed"] - objectives["deterministic"])
    assert gap <= 1e-6 * (1 + abs(objectives["proposed"]))


def test_usage_error_exit_code(tmp_path):
    assert run_cli("plan", "--scenario", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path)) == 1
    assert run_cli("plan") == 1  # missing required --scenario


def test_plan_rejects_simulation_only_flags(tmp_path):
    # plan never writes an evaluation or simulates, so these flags are unknown.
    for flag in (["--format", "json"], ["--physical-sim"]):
        assert run_cli("plan", "--scenario", "builtin:simple1", *flag,
                       "--out", str(tmp_path)) == 1
    assert not (tmp_path / "plan.json").exists()


def test_nonpositive_reps_is_usage_error(tmp_path, capsys):
    assert run_cli("plan", "--scenario", "builtin:simple1",
                   "--out", str(tmp_path)) == 0
    plan = ["--plan", str(tmp_path / "plan.json")]
    for command, extra in (("evaluate", plan), ("compare", [])):
        for reps in ("0", "-3"):
            assert run_cli(command, "--scenario", "builtin:simple1", *extra,
                           "--reps", reps, "--out", str(tmp_path / "out")) == 1
            assert "reps must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_deterministic_outputs(tmp_path):
    assert run_cli("plan", "--scenario", "builtin:simple1",
                   "--out", str(tmp_path)) == 0
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli("evaluate", "--scenario", "builtin:simple1",
                       "--plan", str(tmp_path / "plan.json"),
                       "--reps", "100", "--seed", "11", "--out", str(out))
        assert code == 0
    a = (out_a / "evaluation.csv").read_text()
    b = (out_b / "evaluation.csv").read_text()
    # Identical manifest inputs (paths aside) give identical rows.
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith("#")]
    assert strip(a) == strip(b)


def test_evaluate_accounting_identity_and_aggregates(tmp_path):
    run_cli("plan", "--scenario", "builtin:simple2", "--out", str(tmp_path))
    run_cli("evaluate", "--scenario", "builtin:simple2",
            "--plan", str(tmp_path / "plan.json"), "--reps", "50",
            "--seed", "3", "--out", str(tmp_path))
    lines = [l for l in (tmp_path / "evaluation.csv").read_text().splitlines()
             if not l.startswith("#")]
    header, *rows = lines
    assert header == "rep,release,transfer,risk,total"
    data = [r.split(",") for r in rows]
    per_rep = [r for r in data if r[0] not in ("mean", "std")]
    assert len(per_rep) == 50
    for row in per_rep:
        release, transfer, risk, total = map(float, row[1:])
        assert total == pytest.approx(release - transfer - risk, abs=1e-9)
    labels = [r[0] for r in data]
    assert labels[-2:] == ["mean", "std"]


def test_evaluate_point_mass_zero_std(tmp_path):
    doc = scenario_to_dict(builtin_simple(1))
    for entry in doc["distributions"]:
        entry["support"] = [[1.0, 1.0]]
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(doc))
    run_cli("plan", "--scenario", str(path), "--out", str(tmp_path))
    run_cli("evaluate", "--scenario", str(path),
            "--plan", str(tmp_path / "plan.json"), "--reps", "20",
            "--seed", "0", "--out", str(tmp_path))
    lines = [l for l in (tmp_path / "evaluation.csv").read_text().splitlines()
             if not l.startswith("#")]
    std_row = next(l for l in lines if l.startswith("std"))
    assert all(float(v) == 0.0 for v in std_row.split(",")[1:])


def test_evaluate_dimension_mismatch_reported(tmp_path):
    run_cli("plan", "--scenario", "builtin:simple1", "--out", str(tmp_path))
    code = run_cli("evaluate", "--scenario", "builtin:angpuang",
                   "--plan", str(tmp_path / "plan.json"),
                   "--out", str(tmp_path))
    assert code == 1


def test_evaluate_json_format(tmp_path):
    run_cli("plan", "--scenario", "builtin:simple1", "--out", str(tmp_path))
    run_cli("evaluate", "--scenario", "builtin:simple1",
            "--plan", str(tmp_path / "plan.json"), "--reps", "10",
            "--seed", "1", "--format", "json", "--out", str(tmp_path))
    doc = json.loads((tmp_path / "evaluation.json").read_text())
    assert doc["manifest"]["command"] == "evaluate"
    assert len(doc["per_replication"]) == 10
    for row in doc["per_replication"]:
        assert row["total"] == pytest.approx(
            row["release"] - row["transfer"] - row["risk"], abs=1e-9)
    # Per-replication values stay JSON numbers, equal to the report's.
    report = simulation.run_monte_carlo(
        cli.load_plan_json(tmp_path / "plan.json"),
        resolve_scenario("builtin:simple1"), reps=10, seed=1)
    assert doc["per_replication"] == [
        {"rep": rep, "release": report.release_profit,
         "transfer": report.transfer_cost, "risk": risk, "total": total}
        for rep, (risk, total) in enumerate(zip(
            report.risk_cost.tolist(), report.total_profit.tolist()))]
    assert all(type(row[key]) is float for row in doc["per_replication"]
               for key in cli.REPORT_HEADER[1:])


def test_evaluation_files_round_trip_every_number(tmp_path):
    run_cli("plan", "--scenario", "builtin:angpuang", "--out", str(tmp_path))
    plan_path = tmp_path / "plan.json"
    for fmt in ("csv", "json"):
        assert run_cli("evaluate", "--scenario", "builtin:angpuang",
                       "--plan", str(plan_path), "--reps", "300",
                       "--seed", "6", "--format", fmt,
                       "--out", str(tmp_path / fmt)) == 0
    report = simulation.run_monte_carlo(
        cli.load_plan_json(plan_path), resolve_scenario("builtin:angpuang"),
        reps=300, seed=6)
    expected = np.column_stack([np.full(300, report.release_profit),
                                np.full(300, report.transfer_cost),
                                report.risk_cost, report.total_profit])

    lines = [line for line in
             (tmp_path / "csv" / "evaluation.csv").read_text().splitlines()
             if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:301]]
    assert [row[0] for row in rows] == [str(rep) for rep in range(300)]
    from_csv = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.array_equal(from_csv, expected)

    doc = json.loads((tmp_path / "json" / "evaluation.json").read_text())
    assert [r["rep"] for r in doc["per_replication"]] == list(range(300))
    from_json = np.array([[r[key] for key in cli.REPORT_HEADER[1:]]
                          for r in doc["per_replication"]])
    assert np.array_equal(from_json, expected)


def test_csv_writes_floats_as_their_repr(tmp_path):
    floats = [0.1 + 0.2, 1e16, 1e-05, -0.0, np.float64(0.1 + 0.2),
              np.float64(1e16), np.float64(1e-05), np.float64(-0.0),
              np.float64(38.92499999999999)]
    path = tmp_path / "table.csv"
    cli._write_csv(path, cli.RunManifest(command="test", scenario="s"),
                   ["a", "b"], [[7, "label", *floats], ("mean", "")])
    lines = path.read_text().splitlines()
    assert lines[-2] == ",".join(["7", "label",
                                  *(repr(float(x)) for x in floats)])
    assert lines[-2].endswith("0.30000000000000004,1e+16,1e-05,-0.0,"
                              "38.92499999999999")
    assert lines[-1] == "mean,"


def test_report_csv_rows_are_str_of_each_value(tmp_path):
    reps = 60
    release, transfer = 38.92499999999999, 0.1 + 0.2
    # Repeats of a few values, 0.0 and -0.0 among them, then distinct values.
    risk = np.concatenate([
        np.array([0.0, -0.0, 1e16, -0.0, 1e-05, 0.0] * 5),
        np.random.default_rng(5).standard_normal(reps - 30) * 1e3])
    report = simulation.SimulationReport(seed=0, release_profit=release,
                                         transfer_cost=transfer, risk_cost=risk)
    path = tmp_path / "evaluation.csv"
    cli._write_report_csv(path, cli.RunManifest(command="test", scenario="s"),
                          report)
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    float_rows = [(rep, release, transfer, value, release - transfer - value)
                  for rep, value in enumerate(risk.tolist())]
    assert lines[1:reps + 1] == [",".join(map(str, row)) for row in float_rows]
    assert [line.split(",")[3] for line in lines[1:7]] == [
        "0.0", "-0.0", "1e+16", "-0.0", "1e-05", "0.0"]
    # The mean row gives the constants exactly, and the std row zero spread.
    assert lines[reps + 1:] == [
        f"mean,38.92499999999999,0.30000000000000004,{report.mean_risk},"
        f"{report.mean_total}",
        f"std,0.0,0.0,{report.std_risk},{report.std_total}"]


def test_evaluate_mean_row_gives_the_exact_constants(tmp_path):
    # The np.mean of 100 copies of the release profit 8.7 is
    # 8.700000000000003, which this row used to print.
    assert run_cli("plan", "--scenario", "builtin:simple1",
                   "--method", "deterministic", "--out", str(tmp_path)) == 0
    assert run_cli("evaluate", "--scenario", "builtin:simple1",
                   "--plan", str(tmp_path / "plan.json"), "--reps", "100",
                   "--out", str(tmp_path)) == 0
    lines = (tmp_path / "evaluation.csv").read_text().splitlines()
    mean, std = (line.split(",") for line in lines[-2:])
    assert mean[:3] == ["mean", "8.7", "0.0"]
    assert std[:3] == ["std", "0.0", "0.0"]
    assert {line.split(",")[1] for line in lines[-102:-2]} == {"8.7"}


def _per_row_reference(prefix, risk, row_text) -> bytes:
    """The rows of `_indexed_rows`, written one replication at a time."""
    return "".join(prefix + str(rep) + row_text(value)
                   for rep, value in enumerate(risk.tolist())).encode()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e308, -1e308, 1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-05,
               38.92499999999999]


@st.composite
def _risk_columns(draw):
    """A float64 risk column that mostly repeats a few values (edge values
    among them), or else holds a distinct value per row."""
    size = draw(st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 3)):
        pool = draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(),
                             min_size=1, max_size=6))
        return np.array(pool)[rng.integers(len(pool), size=size)]
    return rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)


def _csv_row_text(release, transfer):
    """The CSV text after a replication's index, as `_csv_lines` writes it."""
    def row_text(risk):
        return ",".join(map(str, ("", release, transfer, risk,
                                  release - transfer - risk))) + "\n"
    return row_text


# Block sizes whose edges fall on the index width changes 9|10, 99|100 and
# 999|1000, and the default one.
BLOCK_SIZES = [1, 3, 7, simulation._BLOCK_REPS]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(release=st.sampled_from(EDGE_FLOATS),
       transfer=st.sampled_from(EDGE_FLOATS), risk=_risk_columns(),
       prefix=st.sampled_from(["", "x", '    {\n      "rep": ']),
       block=st.sampled_from(BLOCK_SIZES))
@example(release=68.0, transfer=-0.0, risk=np.array([0.0, -0.0] * 6),
         prefix="", block=simulation._BLOCK_REPS)
@example(release=-0.0, transfer=0.0, risk=np.array([0.0, -0.0, 0.0]),
         prefix="", block=1)
# A later block brings a new risk whose row text is longer than any before.
@example(release=1.0, transfer=0.0,
         risk=np.array([2.0] * 12 + [0.1 + 0.2, 2.0, -0.0]), prefix="x",
         block=7)
def test_indexed_rows_equal_the_per_row_text(release, transfer, risk, prefix,
                                             block):
    row_text = _csv_row_text(release, transfer)
    called = []

    def counted_row_text(value):
        called.append(value)
        return row_text(value)

    with np.errstate(over="ignore", invalid="ignore"), \
            mock.patch.object(simulation, "_BLOCK_REPS", block):
        blocks = list(cli._indexed_rows(prefix, risk, counted_row_text))
        assert b"".join(blocks) == _per_row_reference(prefix, risk, row_text)
    assert len(blocks) == -(-risk.size // block)
    # One call per distinct bit pattern of the whole run, -0.0 apart from 0.0.
    assert np.array_equal(np.sort(np.array(called).view(np.int64)),
                          np.unique(risk.view(np.int64)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(release=st.sampled_from(EDGE_FLOATS),
       transfer=st.sampled_from(EDGE_FLOATS), risk=_risk_columns(),
       scenario=st.text() | st.just('x/"per_replication": null.json'),
       block=st.sampled_from(BLOCK_SIZES))
@example(release=-0.0, transfer=float("inf"),
         risk=np.array([0.0, -0.0, float("inf"), float("nan"), 0.0]),
         scenario='"per_replication": null', block=simulation._BLOCK_REPS)
@example(release=1e308, transfer=-1e308, risk=np.array([-0.0]),
         scenario="builtin:angpuang", block=simulation._BLOCK_REPS)
# The last block holds a single record.
@example(release=1.0, transfer=0.5, risk=np.array([0.0, 1e-05] * 5),
         scenario="builtin:angpuang", block=3)
def test_report_json_is_json_dumps_of_one_record_per_row(
        release, transfer, risk, scenario, block, tmp_path_factory):
    manifest = cli.RunManifest(command="evaluate", scenario=scenario, seed=7,
                               reps=risk.size)
    with np.errstate(over="ignore", invalid="ignore"):
        report = simulation.SimulationReport(
            seed=7, release_profit=release, transfer_cost=transfer,
            risk_cost=risk)
        totals = report.total_profit.tolist()
    path = tmp_path_factory.getbasetemp() / "evaluation.json"
    with mock.patch.object(simulation, "_BLOCK_REPS", block):
        cli._write_report_json(path, manifest, report)
    records = [dict(zip(cli.REPORT_HEADER, (rep, release, transfer, value,
                                            total)))
               for rep, (value, total) in enumerate(zip(risk.tolist(),
                                                        totals))]
    assert path.read_bytes() == (json.dumps({
        "manifest": manifest.embedded(),
        "replications": risk.size,
        "per_replication": records,
        "aggregates": {"mean_total": report.mean_total,
                       "std_total": report.std_total,
                       "mean_risk": report.mean_risk,
                       "std_risk": report.std_risk},
    }, indent=2) + "\n").encode()


def _traced_peak(write, path, report) -> int:
    """The bytes `write` allocates at its peak above what it starts with."""
    manifest = cli.RunManifest(command="evaluate", scenario="s", seed=0,
                               reps=report.replications)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        write(path, manifest, report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


@pytest.mark.parametrize("write", [cli._write_report_csv,
                                   cli._write_report_json],
                         ids=["csv", "json"])
def test_report_writers_memory_does_not_grow_with_reps(write, tmp_path):
    values = np.random.default_rng(3).standard_normal(45) * 1e3
    peaks = []
    for reps in (25000, 200000):
        risk = values[np.random.default_rng(reps).integers(45, size=reps)]
        report = simulation.SimulationReport(
            seed=0, release_profit=38.92499999999999, transfer_cost=0.1 + 0.2,
            risk_cost=risk)
        peaks.append(_traced_peak(write, tmp_path / f"{reps}.out", report))
    assert abs(peaks[1] - peaks[0]) < 2 ** 20, peaks


# Digests of evaluation.csv written before the table was assembled as bytes,
# when each row was joined from per-value strings.
EVALUATION_SHA256 = {
    "literal": "e5d6fa42f65a2d3a114c5b47dcff83e6d8bd0806204b8489c0ee293f10b2b843",
    "physical": "a9645d3eec4d959057116c6e2917151dcec9726fad09b1687bd4ea2594ddb6f9",
}
# Digests of evaluation.json written when `json.dumps` laid out one dict per
# replication.
EVALUATION_JSON_SHA256 = {
    "literal": "304dab997637d6d3b1c2c7793a935f8cea8b45c42238c737290fd6eb227dcfc5",
    "physical": "de377f3f684e1578280d0206c45a413d66bc9bd9f20bdf5259c8bfed79b63ffb",
}


def _evaluation_digest(fmt, mode, tmp_path, monkeypatch) -> str:
    """The SHA-256 of a 20000-replication angpuang evaluation file."""
    # A relative --out keeps the embedded `outputs` field the same.
    monkeypatch.chdir(tmp_path)
    flags = ["--physical-sim"] if mode == "physical" else []
    assert run_cli("evaluate", "--scenario", "builtin:angpuang",
                   "--plan", str(COMMITTED_PLAN), "--reps", "20000",
                   "--seed", "7", *flags, "--format", fmt,
                   "--out", "out") == 0
    data = (tmp_path / "out" / f"evaluation.{fmt}").read_bytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("mode", sorted(EVALUATION_SHA256))
def test_evaluation_csv_bytes_are_unchanged(mode, tmp_path, monkeypatch):
    assert _evaluation_digest("csv", mode, tmp_path, monkeypatch) == \
        EVALUATION_SHA256[mode]


@pytest.mark.parametrize("mode", sorted(EVALUATION_JSON_SHA256))
def test_evaluation_json_bytes_are_unchanged(mode, tmp_path, monkeypatch):
    assert _evaluation_digest("json", mode, tmp_path, monkeypatch) == \
        EVALUATION_JSON_SHA256[mode]


def test_compare_direction_on_builtin_simple(tmp_path, capsys):
    for name in ("simple1", "simple2"):
        out = tmp_path / name
        code = run_cli("compare", "--scenario", f"builtin:{name}",
                       "--reps", "100", "--seed", "0", "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in
                (out / "compare.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        table = {r[0]: r[1:] for r in rows}
        proposed_mean = float(table["proposed"][0])
        det_mean = float(table["deterministic"][0])
        diff, se = float(table["paired_difference"][0]), \
            float(table["paired_difference"][1])
        assert proposed_mean >= det_mean
        assert diff > 2 * se


def test_compare_point_mass_paired_difference_zero(tmp_path):
    doc = scenario_to_dict(builtin_simple(2))
    for entry in doc["distributions"]:
        support = entry["support"]
        mean = sum(v * p for v, p in support)
        entry["support"] = [[mean, 1.0]]
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(doc))
    assert run_cli("compare", "--scenario", str(path), "--reps", "10",
                   "--seed", "5", "--out", str(tmp_path)) == 0
    rows = [l.split(",") for l in
            (tmp_path / "compare.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    table = {r[0]: r[1:] for r in rows}
    assert abs(float(table["paired_difference"][0])) <= 1e-6


def test_compare_reproducible_bitwise(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run_cli("compare", "--scenario", "builtin:simple1", "--reps", "30",
                "--seed", "2", "--out", str(out))
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("#")]
    assert strip(out_a / "compare.csv") == strip(out_b / "compare.csv")


def _failure_line(command, err, out_dir):
    """The error line of a failed run, after checking that the run ended
    with its manifest line and one error line and wrote no manifest.json."""
    *_, manifest_line, error_line = err.splitlines()
    prefix = "manifest: "
    assert manifest_line.startswith(prefix), err
    assert json.loads(manifest_line[len(prefix):])["command"] == command
    assert error_line.startswith("error: "), err
    assert "Traceback" not in err
    assert not (out_dir / "manifest.json").exists()
    return error_line


# The scenario of each command's first solve; a sweep's is its first grid point.
SOLVED_SCENARIO = {"plan": "simple1", "compare": "simple1",
                   "sweep": "angpuang[transfer-cost-slope=0.25]"}


@pytest.mark.parametrize("command", ["plan", "compare", "sweep"])
def test_solver_breakdown_is_numerical_failure(command, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(lp, "constraint_violation",
                        lambda problem, x, matrix=None: 1.0)
    code = run_cli(command, *COMMAND_INPUTS[command], "--out", str(tmp_path))
    assert code == cli.EXIT_NUMERICAL == 5
    error = _failure_line(command, capsys.readouterr().err, tmp_path)
    # The error names the scenario and the method that broke down.
    assert error == (f"error: {SOLVED_SCENARIO[command]}: proposed solve: "
                     f"simplex optimum violates a bound or constraint by 1")


@pytest.mark.parametrize("command", ["plan", "compare", "sweep"])
@pytest.mark.parametrize("status,code", [(lp.UNBOUNDED, 3),
                                         (lp.ITERATION_LIMIT, 4)])
def test_solver_status_sets_the_exit_code(command, status, code, tmp_path,
                                          capsys, monkeypatch):
    monkeypatch.setattr(lp, "solve", lambda problem, **_: lp.LpSolution(status))
    assert run_cli(command, *COMMAND_INPUTS[command],
                   "--out", str(tmp_path)) == code
    error = _failure_line(command, capsys.readouterr().err, tmp_path)
    # The error names the scenario (a sweep's grid point) and the method.
    assert error == (f"error: {SOLVED_SCENARIO[command]}: proposed solve "
                     f"returned {status} after 0 iterations")


@pytest.mark.parametrize("command,name,edit", [
    ("plan", "id_not_integer", lambda doc: doc["reservoirs"][0].update(id="a")),
    ("plan", "reservoirs_not_a_list", lambda doc: doc.update(reservoirs=7)),
    ("sweep", "reps_null", lambda doc: doc.update(reps=None)),
    ("sweep", "grid_not_a_list", lambda doc: doc.update(grid=1.0)),
])
def test_malformed_input_file_is_usage_error(command, name, edit, tmp_path,
                                             capsys):
    if command == "plan":
        doc = scenario_to_dict(builtin_simple(1))
    else:
        doc = {"scenario": "builtin:simple1", "parameter": "risk-slope",
               "grid": [1.0], "reps": 10, "seed": 0}
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    flag = "--scenario" if command == "plan" else "--config"
    code = run_cli(command, flag, str(path), "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {path}:" in err


@pytest.mark.parametrize("command", ["plan", "sweep", "evaluate"])
def test_input_file_not_utf8_is_usage_error(command, tmp_path, capsys):
    doc = scenario_to_dict(builtin_simple(1))
    doc["name"] = "Caf\u00e9"
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    args = ["--scenario", str(path)]
    if command == "sweep":
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"scenario": str(path), "grid": [1.0],
                                      "parameter": "risk-slope", "reps": 10}))
        args = ["--config", str(config)]
    elif command == "evaluate":
        plan = json.loads(COMMITTED_PLAN.read_text())
        plan["note"] = "Caf\u00e9"
        path.write_bytes(
            json.dumps(plan, ensure_ascii=False).encode("latin-1"))
        args = ["--scenario", "builtin:angpuang", "--plan", str(path)]
    assert run_cli(command, *args, "--out", str(tmp_path / "out")) == \
        cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {path}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


def test_files_are_utf8_whatever_the_locale(tmp_path):
    doc = scenario_to_dict(builtin_simple(1))
    doc["name"] = "Ang Puang \u2013 \u0e17\u0e14\u0e2a\u0e2d\u0e1a"
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    src = str(Path(cli.__file__).resolve().parents[1])
    files = []
    for encoding, locale in [
            ("utf-8", {"PYTHONUTF8": "1"}),
            ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0",
                       "PYTHONCOERCECLOCALE": "0"})]:
        cwd = tmp_path / encoding
        cwd.mkdir()
        env = {**os.environ, **locale,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # A relative --out keeps the embedded `outputs` field the same.
        result = subprocess.run(
            [sys.executable, "-c", "import codecs, locale, sys\n"
             "from reservoirplan.cli import main\n"
             "print(codecs.lookup(locale.getpreferredencoding(False)).name,"
             " file=sys.stderr)\n"
             "sys.exit(main(sys.argv[1:]))",
             "plan", "--scenario", str(scenario), "--out", "out",
             "--dump-lp", "out/lp.mps"],
            cwd=cwd, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        # The locale's encoding is the one the run was set up with.
        assert result.stderr.split()[0] == encoding, result.stderr
        files.append({path.name: path.read_bytes()
                      for path in (cwd / "out").iterdir()
                      if path.name != "manifest.json"})
    assert files[0] == files[1]
    assert sorted(files[0]) == ["lp.mps", "plan.json", "plan_releases.csv",
                                "plan_transfers.csv"]
    assert doc["name"].encode() in files[0]["lp.mps"]


def _edit_support(doc, value):
    entry = next(e for e in doc["distributions"]
                 if e["reservoirs"] == [1] and e["periods"] == [2])
    entry["support"] = value


@pytest.mark.parametrize("command", ["plan", "evaluate"])
@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda doc: _edit_support(doc, [[0.0, 0.6], [1.0, float("nan")]]),
                 "probabilities must be finite", id="nan_probability"),
    pytest.param(lambda doc: _edit_support(doc, [[0.0, 0.5], [float("nan"), 0.5]]),
                 "support values must be finite", id="nan_value"),
    pytest.param(lambda doc: _edit_support(doc, [[0.0, 0.5], [float("inf"), 0.5]]),
                 "support values must be finite", id="infinite_value"),
    pytest.param(lambda doc: doc["links"][0].update(capacity=float("nan")),
                 "capacity must be positive, got nan", id="nan_capacity"),
    pytest.param(lambda doc: doc["reservoirs"][0].update(max_volume=10 ** 400),
                 "reservoirs[0]: 'max_volume' must be a number, got 1000",
                 id="huge_integer"),
])
def test_non_finite_scenario_numbers_are_usage_errors(command, edit, message,
                                                      tmp_path, capsys):
    assert run_cli("plan", "--scenario", "builtin:simple2",
                   "--out", str(tmp_path)) == 0
    doc = scenario_to_dict(builtin_simple(2))
    edit(doc)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    args = ["--scenario", str(path), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        args += ["--plan", str(tmp_path / "plan.json"), "--reps", "10"]
    assert run_cli(command, *args) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fields,faults", [
    ({"max_volume": float("inf")}, ["maximum volume"]),
    ({"max_volume": float("inf"), "initial_volume": float("inf")},
     ["maximum volume", "initial volume"]),
    ({"max_volume": float("inf"), "final_min_volume": float("inf")},
     ["maximum volume", "final minimum volume"]),
], ids=["max_volume", "initial_volume", "final_min_volume"])
def test_infinite_volumes_are_usage_errors(fields, faults, tmp_path, capsys):
    # JSON's Infinity loads as a number; the plan's LP would have an
    # infinite rhs.
    doc = scenario_to_dict(builtin_simple(1))
    doc["reservoirs"][0].update(fields)
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc))
    violations = [f"reservoir 1: {fault} must be finite, got inf"
                  for fault in faults]
    with pytest.raises(model.ScenarioValidationError) as raised:
        resolve_scenario(path)
    assert [str(v) for v in raised.value.report.violations] == violations
    assert run_cli("plan", "--scenario", str(path),
                   "--out", str(tmp_path / "out")) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 2
    more = f" (and {len(faults) - 1} more violations)" if len(faults) > 1 else ""
    assert _failure_line("plan", err, tmp_path / "out") == (
        f"error: {path}: {violations[0]}{more}")


COMMITTED_PLAN = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                  / "angpuang_proposed_plan.json")


def _release(doc, t, n):
    return next(e for e in doc["releases"] if e["t"] == t and e["n"] == n)


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda doc: _release(doc, 1, 1).update(t=0),
                 "'t' must be an integer in 1..6", id="period_zero"),
    pytest.param(lambda doc: _release(doc, 1, 1).update(t=99),
                 "'t' must be an integer in 1..6", id="period_out_of_range"),
    pytest.param(lambda doc: _release(doc, 1, 1).update(t=1.7),
                 "'t' must be an integer in 1..6", id="period_not_integer"),
    pytest.param(lambda doc: doc.update(horizon=6.5),
                 "'horizon' must be a positive integer, got 6.5",
                 id="horizon_not_integer"),
    pytest.param(lambda doc: doc["releases"].remove(_release(doc, 3, 5)),
                 "no release entry for t=3, n=5", id="missing_release"),
    pytest.param(lambda doc: doc["releases"].append(dict(_release(doc, 2, 1),
                                                         g=9.0)),
                 "duplicate release entry", id="duplicate_release"),
    pytest.param(lambda doc: doc["transfers"].append(
                     {"t": 1, "from": 1, "to": 4, "q": 1.0}),
                 "1->4 is not a scenario link", id="unlinked_transfer"),
    pytest.param(lambda doc: _release(doc, 2, 3).update(g="2.0"),
                 "release entry {'t': 2, 'n': 3, 'g': '2.0', 'x': 2.0, "
                 "'v': 2.5}: 'g' must be a finite number, got '2.0'",
                 id="g_string"),
    pytest.param(lambda doc: _release(doc, 2, 3).update(v=True),
                 "'v' must be a finite number, got True", id="v_bool"),
    pytest.param(lambda doc: _release(doc, 2, 3).update(x=None),
                 "'x' must be a finite number, got None", id="x_null"),
    pytest.param(lambda doc: _release(doc, 2, 3).update(g=float("nan")),
                 "'g' must be a finite number, got nan", id="g_nan"),
    pytest.param(lambda doc: doc["transfers"][4].update(q=[1.0]),
                 "transfer entry {'t': 1, 'from': 3, 'to': 4, 'q': [1.0]}: "
                 "'q' must be a finite number, got [1.0]", id="q_list"),
    pytest.param(lambda doc: doc["transfers"][4].update(q=10 ** 400),
                 "'q' must be a finite number, got 1000", id="q_overflows"),
    pytest.param(lambda doc: doc.update(objective="12"),
                 "'objective' must be a finite number, got '12'",
                 id="objective_string"),
    pytest.param(lambda doc: doc.update(objective=float("inf")),
                 "'objective' must be a finite number, got inf",
                 id="objective_infinite"),
    pytest.param(lambda doc: _release(doc, 2, 3).pop("g"),
                 "release entry {'t': 2, 'n': 3, 'x': 2.0, 'v': 2.5}: "
                 "missing 'g'", id="g_missing"),
    pytest.param(lambda doc: doc.pop("objective"),
                 "missing 'objective'", id="objective_missing"),
])
def test_evaluate_rejects_malformed_plan(edit, message, tmp_path, capsys):
    doc = json.loads(COMMITTED_PLAN.read_text())
    edit(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code = run_cli("evaluate", "--scenario", "builtin:angpuang",
                   "--plan", str(path), "--reps", "10", "--out",
                   str(tmp_path / "out"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "evaluation.csv").exists()


def _plan_text(**fields):
    return json.dumps({**json.loads(COMMITTED_PLAN.read_text()), **fields})


def _scenario_text(edit):
    doc = scenario_to_dict(builtin_simple(1))
    edit(doc)
    return json.dumps(doc)


def _unlinked_plan_text():
    doc = json.loads(COMMITTED_PLAN.read_text())
    doc["transfers"].append({"t": 1, "from": 1, "to": 4, "q": 1.0})
    return json.dumps(doc)


_SWEEP_TEXT = ('{"scenario": "builtin:simple1", "parameter": "risk-slope", '
               '"grid": [1.0]')


@pytest.mark.parametrize("command,text,message", [
    pytest.param("evaluate", '{"horizon": ',
                 "invalid JSON at line 1, column 13: Expecting value",
                 id="plan_truncated"),
    pytest.param("evaluate", _plan_text(transfers=5),
                 "top level: 'transfers' must be an array of objects, got 5",
                 id="plan_transfers_number"),
    pytest.param("evaluate", _plan_text(releases=[5]),
                 "top level: 'releases' must be an array of objects, but "
                 "entry 0 is 5", id="plan_release_number"),
    pytest.param("plan", _scenario_text(lambda doc: doc.update(reservoirs=5)),
                 "top level: 'reservoirs' must be an array of objects, got 5",
                 id="scenario_reservoirs_number"),
    pytest.param("plan", _scenario_text(
                     lambda doc: doc.update(reservoirs=[5])),
                 "top level: 'reservoirs' must be an array of objects, but "
                 "entry 0 is 5", id="scenario_reservoir_number"),
    pytest.param("plan", _scenario_text(
                     lambda doc: doc["functions"][0].update(periods="x")),
                 "functions[0]: 'periods' must be \"all\" or a list of "
                 "integers, got 'x'", id="scenario_periods_string"),
    pytest.param("plan", _scenario_text(
                     lambda doc: _edit_support(doc, [[0.0, 0.5], [1.0, 0.4]])),
                 "reservoir 1, period 2: distribution sums to 0.9",
                 id="scenario_fails_validation"),
    pytest.param("evaluate", _unlinked_plan_text(),
                 "plan.transfers moves 1.0 from 1 to 4 in period 1, but "
                 "1->4 is not a scenario link", id="plan_does_not_fit"),
    pytest.param("sweep", _SWEEP_TEXT,
                 f"invalid JSON at line 1, column {len(_SWEEP_TEXT) + 1}: "
                 "Expecting ',' delimiter", id="sweep_truncated"),
])
def test_input_file_faults_name_the_file_and_field(command, text, message,
                                                   tmp_path, capsys):
    # At the parent the plan faults printed no file name and the shape faults
    # printed "'int' object is not iterable" or the like, naming no field.
    path = tmp_path / "input.json"
    path.write_text(text)
    args = {"evaluate": ["--scenario", "builtin:angpuang", "--plan", str(path),
                         "--reps", "10"],
            "plan": ["--scenario", str(path)],
            "sweep": ["--config", str(path)]}[command]
    assert run_cli(command, *args, "--out", str(tmp_path / "out")) == \
        cli.EXIT_USAGE
    assert _failure_line(command, capsys.readouterr().err,
                         tmp_path / "out") == f"error: {path}: {message}"


EXAMPLE_SWEEP = Path(__file__).resolve().parents[1] / "scenarios" / \
    "example_sweep.json"
COMMAND_INPUTS = {
    "plan": ["--scenario", "builtin:simple1"],
    "evaluate": ["--scenario", "builtin:angpuang", "--plan",
                 str(COMMITTED_PLAN), "--reps", "10"],
    "compare": ["--scenario", "builtin:simple1", "--reps", "10"],
    "sweep": ["--config", str(EXAMPLE_SWEEP)],
}


@pytest.mark.parametrize("command", sorted(COMMAND_INPUTS))
def test_out_naming_a_file_is_usage_error(command, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert run_cli(command, *COMMAND_INPUTS[command],
                   "--out", str(taken)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: [Errno 17] File exists: '{taken}'" in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command,name", [("plan", "plan_releases.csv"),
                                          ("evaluate", "evaluation.csv")])
def test_unwritable_data_file_is_usage_error(command, name, tmp_path, capsys):
    (tmp_path / name).mkdir()
    assert run_cli(command, *COMMAND_INPUTS[command],
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: [Errno 21] Is a directory: '{tmp_path / name}'" in err
    assert "Traceback" not in err


def test_committed_benchmark_plan_loads():
    plan = cli.load_plan_json(COMMITTED_PLAN)
    plan.check_dimensions(resolve_scenario("builtin:angpuang"))
    assert plan.objective == 38.25


def test_sweep_single_point_grid(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "scenario": "builtin:simple2", "parameter": "profit-slope",
        "grid": [1.0], "reps": 10, "seed": 0,
    }))
    assert run_cli("sweep", "--config", str(config),
                   "--out", str(tmp_path)) == 0
    rows = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "value,method,mean_total,std_total"
    assert len(rows) == 3  # header + one row per method
    methods = {r.split(",")[1] for r in rows[1:]}
    assert methods == {"proposed", "deterministic"}


def test_sweep_profit_slope_nondecreasing_means(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "scenario": "builtin:simple2", "parameter": "profit-slope",
        "grid": [0.5, 1.0, 2.0], "reps": 50, "seed": 1,
    }))
    assert run_cli("sweep", "--config", str(config),
                   "--out", str(tmp_path)) == 0
    rows = [l.split(",") for l in
            (tmp_path / "sweep.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    by_method = {"proposed": [], "deterministic": []}
    for value, method, mean, std in rows:
        by_method[method].append((float(value), float(mean)))
    for series in by_method.values():
        means = [m for _, m in sorted(series)]
        assert all(b >= a - 1e-6 for a, b in zip(means, means[1:]))


def _record_solves(monkeypatch):
    solutions = []
    solve = lp.solve

    def recording_solve(problem, *args, **kwargs):
        solutions.append(solve(problem, *args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(lp, "solve", recording_solve)
    return solutions


def test_sweep_warm_starts_each_grid_point(tmp_path, monkeypatch):
    # A fallback to cold starts would still give correct output, so only
    # these counts show that the warm start works.
    solutions = _record_solves(monkeypatch)
    config = Path(__file__).resolve().parent.parent / "scenarios" / \
        "example_sweep.json"
    assert run_cli("sweep", "--config", str(config),
                   "--out", str(tmp_path)) == 0
    starts = [s.start for s in solutions]
    assert len(starts) == 10
    assert starts[:2] == [lp.COLD, lp.COLD]
    assert starts.count(lp.WARM) >= 8
    assert sum(s.iterations for s in solutions) <= 1000


@pytest.mark.parametrize("command", ["plan", "compare"])
def test_plan_and_compare_solve_cold(command, tmp_path, monkeypatch):
    solutions = _record_solves(monkeypatch)
    assert run_cli(command, "--scenario", "builtin:simple2",
                   "--out", str(tmp_path)) == 0
    assert solutions and all(s.start == lp.COLD for s in solutions)


def test_sweep_output_does_not_depend_on_earlier_commands(tmp_path,
                                                         monkeypatch):
    # Bases pass only between the grid points of one sweep.
    solutions = _record_solves(monkeypatch)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "scenario": "builtin:simple2", "parameter": "risk-slope",
        "grid": [0.5, 2.0, 1.0], "reps": 20, "seed": 3,
    }))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 0
        outputs.append([line for line in
                        (out / "sweep.csv").read_text().splitlines()
                        if not line.startswith("# outputs=")])
    assert outputs[0] == outputs[1]
    starts = [s.start for s in solutions]
    assert starts[:2] == starts[6:8] == [lp.COLD, lp.COLD]
    assert starts[2:6] == starts[8:] == [lp.WARM] * 4


# SHA-256 of `plan --dump-lp` on each built-in LP. Each was recorded only
# after an MPS reader had parsed the dump back to the same bounds and
# objective, and its solve had given exactly the objective of the original LP.
DUMP_LP_DIGESTS = {
    ("simple1", "proposed"):
        "3ac85e363ddda9501b1a0a0da7bcdf2d8ed5abda48c907873ba139edef43df64",
    ("simple1", "deterministic"):
        "25c3cb93ede91c6606826bfe5a1c88a9a31c93dcdf005bf13d0b1dcc0b1ad5c4",
    ("simple2", "proposed"):
        "2d9d9ca72ea3165293e8f8be4ecbf9c37b2daf83032a3379245e9f9b3e4129e8",
    ("simple2", "deterministic"):
        "833de52fa4e9eb9e33a35124f55fa054f47245a68e173d1ecf435467d63c2855",
    ("angpuang", "proposed"):
        "250199f8a5cfaf4a3c6a01efd3c95527ee3ef7933d4979ef3eaeef353624e0ea",
    ("angpuang", "deterministic"):
        "af6f7a4076a874d953f8a0547ebc93ceb22a7c0f4da8477228bff48d1da5a4d6",
}


def test_plan_dump_lp_matches_recorded_digests(tmp_path):
    digests = {}
    for name, method in DUMP_LP_DIGESTS:
        dump = tmp_path / f"{name}_{method}.mps"
        assert run_cli("plan", "--scenario", f"builtin:{name}",
                       "--method", method, "--out", str(tmp_path),
                       "--dump-lp", str(dump)) == 0
        digests[name, method] = hashlib.sha256(dump.read_bytes()).hexdigest()
    assert digests == DUMP_LP_DIGESTS


def test_physical_sim_flag(tmp_path):
    run_cli("plan", "--scenario", "builtin:simple1", "--out", str(tmp_path))
    literal = tmp_path / "literal"
    physical = tmp_path / "physical"
    assert run_cli("evaluate", "--scenario", "builtin:simple1",
                   "--plan", str(tmp_path / "plan.json"), "--reps", "40",
                   "--seed", "6", "--out", str(literal)) == 0
    assert run_cli("evaluate", "--scenario", "builtin:simple1",
                   "--plan", str(tmp_path / "plan.json"), "--reps", "40",
                   "--seed", "6", "--physical-sim", "--out", str(physical)) == 0
    rows = lambda p: [l for l in (p / "evaluation.csv").read_text().splitlines()
                      if not l.startswith("#")]
    # Same seeds; the capped/floored realization may change risk but both run.
    assert len(rows(literal)) == len(rows(physical))


def test_evaluate_reports_exact_moments(tmp_path, capsys):
    run_cli("plan", "--scenario", "builtin:simple2", "--out", str(tmp_path))
    capsys.readouterr()
    plan_path = tmp_path / "plan.json"
    runs = {}
    for mode, flags in (("literal", ()), ("physical", ("--physical-sim",))):
        out = tmp_path / mode
        assert run_cli("evaluate", "--scenario", "builtin:simple2",
                       "--plan", str(plan_path), "--reps", "400", "--seed", "8",
                       *flags, "--out", str(out)) == 0
        runs[mode] = (capsys.readouterr().out,
                      json.loads((out / "manifest.json").read_text()),
                      (out / "evaluation.csv").read_text())

    stdout, manifest, csv = runs["literal"]
    plan = cli.load_plan_json(plan_path)
    scenario = resolve_scenario("builtin:simple2")
    exact = simulation.exact_moments(plan, scenario)
    report = simulation.run_monte_carlo(plan, scenario, reps=400, seed=8)
    assert stdout.split() == [
        f"mean_total={report.mean_total!r}", f"std_total={report.std_total!r}",
        f"mean_risk={report.mean_risk!r}",
        f"exact_mean_total={exact.mean_total!r}",
        f"exact_std_total={exact.std_total!r}"]
    assert manifest["exact_mean_total"] == exact.mean_total
    assert manifest["exact_std_total"] == exact.std_total
    assert manifest["mc_z_score"] == pytest.approx(
        (report.mean_total - exact.mean_total)
        / (exact.std_total / np.sqrt(400)), rel=1e-12)
    assert abs(manifest["mc_z_score"]) < 4
    assert manifest["objective_minus_exact_mean_total"] == \
        plan.objective - exact.mean_total

    stdout, manifest, csv = runs["physical"]
    assert "no closed form" in stdout
    assert manifest["exact_mean_total"] is None
    assert manifest["mc_z_score"] is None
    # The results go to manifest.json only, never into the data files.
    for _, _, csv in runs.values():
        assert "exact_mean_total" not in csv and "mc_z_score" not in csv


def test_big_f_override_recorded_in_manifest(tmp_path):
    assert run_cli("plan", "--scenario", "builtin:simple1",
                   "--big-f", "5000", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["big_f"] == 5000.0
    lines = (tmp_path / "plan_releases.csv").read_text().splitlines()
    assert any("big_f=5000.0" in l for l in lines if l.startswith("#"))


def test_several_violations_make_one_error_line(tmp_path, capsys):
    # --big-f nan makes every overflow penalty of simple1's 3 x 2 grid
    # invalid; the error names the first and counts the others.
    assert run_cli("plan", "--scenario", "builtin:simple1", "--big-f", "nan",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 2
    assert _failure_line("plan", err, tmp_path) == (
        "error: reservoir 1, period 1: overflow penalty must be positive and "
        "finite, got nan (and 5 more violations)")


def test_infinite_overflow_penalty_is_a_usage_error(tmp_path, capsys):
    # From --big-f and from a scenario file's JSON Infinity alike, the one
    # error line says why an infinite penalty is refused.
    doc = scenario_to_dict(builtin_simple(1))
    doc["penalty"] = float("inf")
    path = tmp_path / "infinite_penalty.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    line = ("error: {}reservoir 1, period 1: overflow penalty must be positive "
            "and finite, got inf (and 5 more violations)")
    for args, prefix in ((["--scenario", "builtin:simple1", "--big-f", "inf"], ""),
                         (["--scenario", str(path)], f"{path}: ")):
        out = tmp_path / "out"
        assert run_cli("plan", *args, "--out", str(out)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 2
        assert _failure_line("plan", err, out) == line.format(prefix)


def test_each_scenario_is_validated_once(tmp_path, monkeypatch):
    checked = []
    check = model._check_scenario

    def counting_check(scenario):
        checked.append(scenario.name)
        return check(scenario)

    monkeypatch.setattr(model, "_check_scenario", counting_check)
    path = tmp_path / "simple1.json"
    save_scenario(builtin_simple(1), path)
    assert run_cli("plan", "--scenario", str(path), "--out",
                   str(tmp_path / "plan")) == 0
    assert checked == ["simple1"]
    # A scenario changed by an override is a new one, validated afresh.
    checked.clear()
    assert run_cli("plan", "--scenario", str(path), "--big-f", "500",
                   "--out", str(tmp_path / "big_f")) == 0
    assert checked == ["simple1", "simple1"]
    checked.clear()
    assert run_cli("sweep", *COMMAND_INPUTS["sweep"], "--out",
                   str(tmp_path / "sweep")) == 0
    grid = json.loads(EXAMPLE_SWEEP.read_text())["grid"]
    assert checked == ["angpuang"] + [
        f"angpuang[transfer-cost-slope={value:g}]" for value in grid]


def test_sweep_manifest_lists_each_solve(tmp_path):
    config = Path(__file__).resolve().parent.parent / "scenarios" / \
        "example_sweep.json"
    assert run_cli("sweep", "--config", str(config),
                   "--out", str(tmp_path)) == 0
    grid = json.loads(config.read_text())["grid"]
    solves = json.loads((tmp_path / "manifest.json").read_text())["solves"]
    assert [(s["value"], s["method"]) for s in solves] == [
        (float(value), method) for value in grid
        for method in ("proposed", "deterministic")]
    assert [s["start"] for s in solves] == [lp.COLD] * 2 + [lp.WARM] * 8
    assert all(isinstance(s["iterations"], int) for s in solves)
    assert min(s["iterations"] for s in solves[:2]) > 100


@pytest.mark.parametrize("command", ["plan", "compare", "sweep"])
def test_finished_tableaux_are_released(command, tmp_path, monkeypatch):
    # A solve's final tableau may outlive its plan's extraction only as the
    # start of a later warm solve. So `plan` and `compare` run no solve and
    # write no file while an earlier tableau is alive, and `sweep` runs each
    # solve with at most the other method's tableau alive besides its own
    # start's, and writes with none.
    refs, seen = {}, []   # id -> weakref of each tableau a solve kept
    solve, write_csv = lp.solve, cli._write_csv

    def alive(start=None):
        own = start._kept[0][0] if start is not None and start._kept else None
        return sum(ref() is not None and ref() is not own
                   for ref in refs.values())

    def tracking_solve(problem, *args, start=None, **kwargs):
        seen.append(("solve", alive(start)))
        solution = solve(problem, *args, start=start, **kwargs)
        refs.update((id(tab), weakref.ref(tab))
                    for tab, _, _ in solution.basis._kept)
        return solution

    def tracking_write_csv(*args, **kwargs):
        seen.append(("write", alive()))
        return write_csv(*args, **kwargs)

    monkeypatch.setattr(lp, "solve", tracking_solve)
    monkeypatch.setattr(cli, "_write_csv", tracking_write_csv)
    if command == "sweep":
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "scenario": "builtin:angpuang", "parameter": "risk-slope",
            "grid": [0.5, 2.0, 1.0], "reps": 10, "seed": 3}))
        args = ["--config", str(config)]
    else:
        args = ["--scenario", "builtin:angpuang"]
    assert run_cli(command, *args, "--out", str(tmp_path / "out")) == 0
    solves = [count for kind, count in seen if kind == "solve"]
    writes = [count for kind, count in seen if kind == "write"]
    assert len(solves) == {"plan": 1, "compare": 2, "sweep": 6}[command]
    assert refs and writes and max(writes) == 0
    assert max(solves) == (1 if command == "sweep" else 0)

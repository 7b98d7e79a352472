"""Benchmark of the reservoirplan CLI on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`. The
workloads (see workloads.py) drive `reservoirplan.cli.main` one command at a
time in a closed loop. Their inputs are made from `--seed`; the program only
sees the generated files.

With `--trace 0` the run reports the end-to-end metrics:
  setup_s      median over fresh interpreters of importing reservoirplan.cli
               and loading and validating the workload's inputs;
  wall_s       median warm in-process wall time of the command, after a
               priming call;
  cold_wall_s  median wall time of the command in a fresh interpreter with
               .pyc files compiled;
  peak_rss_mb  median peak resident set of those fresh interpreters.
With `--trace 1` warm commands alternate between traced and untraced, and the
run reports per-layer metrics from spans patched around the package's public
functions (spans.py), plus the tracing overhead.

The priming call is checked in depth (checks.py); every later call must exit
0 and write the same data files and standard output as the priming call.
`attempted` counts commands run and `failed` those that exit nonzero or fail
a check. The last line of standard output is the JSON result; the metric
names and units come from BENCHMARK.json. Spans, samples and provenance are
written under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_out")
MIN_SAMPLES = 2       # per kind of call, even if the window has passed
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _child(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/child.py", *args],
                          capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - started


def _last_json(text: str) -> dict:
    return json.loads(text.rstrip("\n").rsplit("\n", 1)[-1])


class Runner:
    """Runs one workload's command and keeps the operation tally."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.expected = None   # (stdout, data files) of the priming call
        self.expected_ok = True  # whether those passed the checks

    def _outputs(self) -> dict[str, bytes]:
        # manifest.json holds the run duration, so only data files compare.
        return {p.name: p.read_bytes()
                for p in sorted(self.workload.out.iterdir())
                if p.name != "manifest.json"}

    def _tally(self, code, stdout: str, stderr: str) -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems = [f"exit code {code}", stderr]
        elif self.expected is None:
            self.expected = (stdout, self._outputs())
        elif (stdout, self._outputs()) != self.expected:
            problems = ["output differs from the priming call"]
        elif not self.expected_ok:
            problems = ["same output as the priming call, which failed checks"]
        if problems:
            self.failed += 1
            print(f"failed: {' '.join(self.workload.argv)}: "
                  + "; ".join(problems), file=sys.stderr)

    def warm(self, call=None) -> float:
        """One in-process command, optionally wrapped by `call`; returns its
        wall time."""
        from reservoirplan import cli

        def command():
            return cli.main(self.workload.argv)

        shutil.rmtree(self.workload.out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            started = time.perf_counter()
            try:
                code = call(command) if call else command()
            except Exception:
                traceback.print_exc(file=stderr)
                code = None
            elapsed = time.perf_counter() - started
        self._tally(code, stdout.getvalue(), stderr.getvalue().strip())
        return elapsed

    def prime(self) -> None:
        """Untimed first call; its outputs are checked in depth."""
        from checks import Capture

        capture = Capture()
        with capture.patches():
            self.warm()
        if self.expected is not None:
            try:
                problems = self.workload.check(capture, self.expected[0])
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                self.failed += 1
                self.expected_ok = False
                print("failed checks:\n  " + "\n  ".join(problems),
                      file=sys.stderr)

    def cold(self) -> tuple[float, float]:
        """One command in a fresh interpreter: (wall seconds, peak RSS MB)."""
        shutil.rmtree(self.workload.out, ignore_errors=True)
        proc, elapsed = _child(["cli", *self.workload.argv])
        self._tally(proc.returncode, proc.stdout, proc.stderr.strip())
        try:
            return elapsed, _last_json(proc.stderr)["peak_rss_kb"] / 1024
        except (ValueError, KeyError):   # the child died before reporting
            return elapsed, 0.0

    def setup_seconds(self) -> float:
        """Import plus input loading in a fresh interpreter, timed inside it."""
        proc, _ = _child(["setup", *self.workload.setup])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        return _last_json(proc.stdout)["setup_s"]


def _window(seconds: float, step) -> None:
    """Call `step()` until `seconds` have passed and MIN_SAMPLES were taken."""
    deadline = time.perf_counter() + seconds
    for count in itertools.count(1):
        step()
        if count >= MIN_SAMPLES and time.perf_counter() >= deadline:
            return


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.prime()
    samples = {"setup_s": [], "wall_s": [], "cold_wall_s": [], "peak_rss_mb": []}

    def step():
        # Interleaved, so that every metric samples the same stretch of time.
        wall, rss = runner.cold()
        samples["cold_wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        samples["setup_s"].append(runner.setup_seconds())
        samples["wall_s"].append(runner.warm())

    _window(seconds, step)
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import spans

    tracer = spans.Tracer()
    runner.prime()
    output_bytes = sum(len(b) for b in runner.expected[1].values()) \
        if runner.expected else 0
    traced, untraced, layers = [], [], []

    def traced_call(command):
        code, run_id = tracer.call(command)
        layers.append(tracer.run_metrics(run_id))
        return code

    def step():
        traced.append(runner.warm(traced_call))
        untraced.append(runner.warm())

    _window(seconds, step)
    tracer.dump(runner.workload.out.parent / "spans.json")
    for metrics in layers[1:]:
        if any(metrics[k] != layers[0][k] for k in spans.COUNT_METRICS):
            runner.failed += 1
            print(f"failed: counts differ between traced runs: {metrics}",
                  file=sys.stderr)
    values = spans.combine(layers)
    values["cli.output_bytes"] = output_bytes
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    return values, {"traced_s": traced, "untraced_s": untraced}


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Fresh interpreters should load bytecode, as from an installed package,
    # even where PYTHONDONTWRITEBYTECODE keeps them from writing it.
    compileall.compile_dir(SRC / "reservoirplan", quiet=1)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(WORKLOADS[args.workload](args.seed, work))
    measure = per_layer if args.trace else end_to_end
    values, samples = measure(runner, args.seconds)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    info = provenance(args)
    (work / "result.json").write_text(json.dumps(
        {"provenance": info, "samples": samples, "metrics": metrics},
        indent=2) + "\n")

    print(f"provenance: {json.dumps(info)}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']!r:>24} {metric['unit']}")
    print(f"  {'failed_ops':28s} {runner.failed / runner.attempted!r:>24} "
          f"share ({runner.failed} of {runner.attempted} commands)")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "reservoirplan" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'reservoirplan'} not found; run from a "
                 "checkout of the repository")
    # One BLAS thread, set before numpy loads and inherited by every child.
    # On a 2-core machine the OpenBLAS thread pool made the import slower and
    # less steady (0.16-0.22 s against 0.10 s) and the sweep slower (7.0 s
    # against 6.3 s): the package's BLAS calls are matrix-vector products too
    # small to gain from threads.
    os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.exit(main())

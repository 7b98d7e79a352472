"""Fresh-interpreter probes, started by run.py with the package on PYTHONPATH.

    child.py cli ARGS...                 run the CLI; report peak resident set
    child.py setup sweep CONFIG          time import + sweep config load/expand
    child.py setup scenario REF [PLAN]   time import + scenario load (+ plan)

Each reports one JSON object as its last line: `cli` on standard error, so
that standard output is the CLI's own, and `setup` on standard output.
"""
import sys
import time

STARTED = time.perf_counter()


def peak_rss_kb() -> int:
    # VmHWM is the high-water mark of this process image alone; getrusage
    # would also count the parent's pages inherited at fork or vfork.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_cli(argv: list[str]) -> int:
    from reservoirplan.cli import main
    code = main(argv)
    print('{"peak_rss_kb": %d}' % peak_rss_kb(), file=sys.stderr)
    return code


def run_setup(kind: str, args: list[str]) -> int:
    from reservoirplan import cli
    from reservoirplan.model import ScenarioValidationError, validate_scenario

    if kind == "sweep":
        scenarios = cli.expand_sweep(cli.load_sweep_config(args[0]))
    else:
        scenarios = [cli.resolve_scenario(args[0])]
    for scenario in scenarios:
        report = validate_scenario(scenario)
        if not report.ok:
            raise ScenarioValidationError(report)
    if len(args) > 1:
        cli.load_plan_json(args[1]).check_dimensions(scenarios[0])
    print('{"setup_s": %r}' % (time.perf_counter() - STARTED))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(run_cli(sys.argv[2:]))
    sys.exit(run_setup(sys.argv[2], sys.argv[3:]))

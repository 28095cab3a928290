"""belllab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process through
``belllab.cli.main(argv)`` as a closed loop: one client, no threads, each
command issued after the previous one returned.  The package is imported
from ``src/`` of the checkout this file sits in; nothing is installed.

A run makes one untimed warm-up pass, whose reports are checked against the
analytic oracles, then timed passes until --seconds have elapsed.  Every
timed command must print stdout byte-identical to its warm-up output.
With --trace 1 a final traced pass follows, and the run reports the
per-layer metrics instead of the end-to-end ones.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh interpreters launched per run to time set-up; the median is reported.
SETUP_LAUNCHES = 11
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import belllab.cli; "
              "belllab.cli.main(['--version'])")

#: Failure messages echoed to stderr, at most.
MAX_REPORTED_FAILURES = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_cli():
    """Import belllab from this checkout's src/, refusing any other copy."""
    if not (SRC / "belllab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no belllab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import belllab.cli
    import belllab.search

    if not Path(belllab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported belllab from {belllab.cli.__file__}, not {SRC}")
    return belllab.cli, belllab.search


def measure_setup() -> list[float]:
    """Wall seconds for fresh interpreters to import the CLI and parse one flag."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    samples = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=60, cwd=ROOT)
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or not done.stdout.startswith("belllab "):
            raise SystemExit(f"perfbench: set-up launch failed: {done.stderr.strip()}")
        if launch:  # the first launch only warms the bytecode and file caches
            samples.append(elapsed)
    return samples


class Client:
    """Closed-loop client issuing one command at a time through belllab.cli.main."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def issue(self, argv) -> tuple[int | str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(argv))  # looked up per call, so tracing can patch it
            except Exception:  # a crash is a failed command, not the end of the run
                code = "uncaught exception: " + traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def _work(command) -> int:
    """Work units behind the throughput figure: lattice points, models or commands."""
    if command.kind == "search":
        if command.spec["refine"]:
            return 0
        return workloads.lattice_size(command.spec["space"], command.spec["resolution_deg"])
    if command.kind == "lhv-check":
        return command.spec["models"]
    return 1


class Run:
    def __init__(self, client: Client, plan):
        self.client = client
        self.plan = plan
        self.reference: list[tuple[int | str, bytes, str | None]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _fail(self, index: int, reason: str) -> None:
        self.failures.append(f"command {index} {' '.join(self.plan.commands[index].argv)}: {reason}")

    def warm_up(self) -> None:
        """Untimed pass: oracle-check every report and keep its stdout digest."""
        for index, command in enumerate(self.plan.commands):
            code, out, _ = self.client.issue(command.argv)
            reason = oracles.check_command(command, code, out)
            self.attempted += 1
            if reason is not None:
                self._fail(index, reason)
            self.reference.append((code, _digest(out), reason))

    def timed_pass(self, tracer=None) -> tuple[float, list[float]]:
        """One pass; returns its wall seconds and per-command latencies."""
        latencies = []
        start = time.perf_counter()
        for index, command in enumerate(self.plan.commands):
            if tracer is not None:
                tracer.command = index
            code, out, elapsed = self.client.issue(command.argv)
            latencies.append(elapsed)
            self.attempted += 1
            ref_code, ref_digest, reason = self.reference[index]
            if code != ref_code or _digest(out) != ref_digest:
                self._fail(index, "output differs from the warm-up pass")
            elif reason is not None:
                self._fail(index, reason)
        return time.perf_counter() - start, latencies

    def timed_phase(self, seconds: float) -> tuple[list[float], list[list[float]]]:
        """Timed passes until `seconds` have elapsed; wall and latencies of each."""
        walls, latencies = [], []
        deadline = time.perf_counter() + seconds
        while True:
            wall, pass_latencies = self.timed_pass()
            walls.append(wall)
            latencies.append(pass_latencies)
            if time.perf_counter() >= deadline:
                return walls, latencies


def _end_to_end(run: Run, setup: list[float], walls: list[float], latencies: list[list[float]]):
    work = [_work(c) for c in run.plan.commands]
    rates = [sum(work) / sum(t for t, units in zip(lat, work) if units) for lat in latencies]
    flat = [t for lat in latencies for t in lat]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "work_per_s": (statistics.median(rates), "1/s", len(rates)),
        "command_p50_ms": (statistics.median(flat) * 1e3, "ms", len(flat)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    # the workload's own name for its throughput, and figures that apply to
    # some workloads only or read 0 when all is well: printed, not gated
    alias = {"lattice-planar": "lattice_points_per_s", "lattice-3d": "lattice_points_per_s",
             "lhv-fuzz": "models_per_s", "scenario-mix": "commands_per_s"}[run.plan.workload]
    extra = {alias: metrics["work_per_s"]}
    if len(flat) >= 1000:  # at least ten samples beyond the 99th percentile
        p99 = statistics.quantiles(flat, n=100)[98]
        extra["command_p99_ms"] = (p99 * 1e3, "ms", len(flat))
    extra["failed_frac"] = (len(run.failures) / run.attempted, "ratio", run.attempted)
    return metrics, extra


def _print_table(rows: dict) -> None:
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<6} n={samples}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli_module, search_module = _import_cli()
    scenario_dir = WORK / f"run-{os.getpid()}"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup()
        plan = workloads.generate(args.workload, args.seed, str(scenario_dir))
        plan.write_files()
        run = Run(Client(cli_module), plan)
        run.warm_up()
        walls, latencies = run.timed_phase(args.seconds)
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracer.install(cli_module, search_module)
            try:
                traced_wall, _ = run.timed_pass(tracer)
            finally:
                restore()
            side_file = WORK / f"trace-{args.workload}.jsonl"
            tracer.write(side_file)
            summary = tracing.aggregate(tracing.read_spans(side_file))
            layer = tracing.per_layer_metrics(summary, traced_wall, statistics.median(walls))
            gated = table = {name: (value, unit, 1) for name, (value, unit) in layer.items()}
        else:
            gated, extra = _end_to_end(run, setup, walls, latencies)
            table = {**gated, **extra}
    finally:
        shutil.rmtree(scenario_dir, ignore_errors=True)

    print(f"# belllab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__} platform={platform.platform()}")
    print(f"# commands per pass={len(plan.commands)} timed passes={len(walls)} "
          f"attempted={run.attempted} failed={len(run.failures)}")
    if args.trace:
        print(f"# span side file: {side_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    _print_table(table)
    for failure in run.failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in gated.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

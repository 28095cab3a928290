"""Benchmark pairs: the unchanged perfbench runner on a base revision and on this tree, alternating.

    python tools/bench_pairs.py --base REV --out BENCH.json

REV is checked out into ``<temp>/base`` with the worktree helper of
tools/bytecheck.py, and this tree's ``src/`` and ``perfbench/`` are copied to
``<temp>/head``, so both sides run from paths of equal length: the path of
the runner and of the imported package moves the heap layout of a run, and
with it the lattice timings.  For each workload of BENCHMARK.json, pair k of
PAIRS runs ``perfbench/run.py --workload NAME --seed FIRST_SEED+k --seconds S
--trace 0`` once in each tree, S being BENCHMARK.json's run_seconds, each
tree with its own runner and its own ``src/``; the base runs first in even
pairs and this tree first in odd ones, so a slow phase of the machine falls
on both sides alike.  After the pairs of a workload, each tree runs it once
more with ``--trace 1`` at seed FIRST_SEED, for its per-layer metrics.  A run
that exits non-zero or reports ``correct: false`` stops the script.

The file written holds, per workload and side, the median, quartiles and
interquartile range of each gated metric of BENCHMARK.json and of the minor
page faults of a run, and the timed-pass count of each run; per metric, the
number of pairs the change won (ties count for neither side); every run's
metrics and minor page faults; each side's per-layer metrics; and the
machine: nproc, CPython, numpy, the CPU dispatch targets numpy found on this
processor, and the seconds one fixed numpy loop took before the first pair
and after the last, which differ when the machine slowed down or sped up
during the pairs.  A run's minor page faults are the ``ru_minflt`` of its
process (and of the processes it waited for), read from
``getrusage(RUSAGE_CHILDREN)`` around it, so a lattice timing gap can be read
next to the heap behaviour of the two sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import bytecheck

ROOT = Path(__file__).resolve().parents[1]

PAIRS = 10
FIRST_SEED = 1000


def machine() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_cpu_dispatch": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)],
        "platform": platform.platform(),
    }


def calibration_s() -> float:
    """Seconds of one fixed numpy loop: cosines and sums of a 65 536-value array, 400 times."""
    values = np.linspace(0.0, 100.0, 65536)
    start = time.perf_counter()
    for _ in range(400):
        np.cos(values).sum()
    return time.perf_counter() - start


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run of tree: {"metrics": {name: value}, "timed_passes": n, "minor_faults": n}."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise RuntimeError(f"{tree} {workload} seed {seed}: incorrect run\n{done.stdout}")
    passes = int(re.search(r"timed passes=(\d+)", done.stdout).group(1))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"metrics": metrics, "timed_passes": passes, "minor_faults": faults}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], gated: list[dict]) -> dict:
    """Per side, each gated metric's spread and the pass counts; the pairs the change won."""
    summary = {}
    for side in ("base", "head"):
        summary[side] = {
            metric["name"]: spread([pair[side]["metrics"][metric["name"]] for pair in runs])
            for metric in gated
        }
        summary[side]["minor_faults"] = spread([pair[side]["minor_faults"] for pair in runs])
        summary[side]["timed_passes"] = [pair[side]["timed_passes"] for pair in runs]
    wins = {}
    for metric in gated:
        sign = 1.0 if metric["better"] == "higher" else -1.0
        name = metric["name"]
        wins[name] = sum(
            sign * (pair["head"]["metrics"][name] - pair["base"]["metrics"][name]) > 0
            for pair in runs
        )
    summary["change_won_pairs"] = wins
    summary["pairs"] = len(runs)
    return summary


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    gated = benchmark["end_to_end"]
    base_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                              capture_output=True, text=True, check=True).stdout.strip()
    report = {
        "base": base_rev,
        "machine": machine(),
        "settings": {"pairs": PAIRS, "seconds": seconds, "first_seed": FIRST_SEED, "trace": 0,
                     "per_layer_seed": FIRST_SEED},
        "workloads": {},
    }
    before = calibration_s()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as temp, \
            bytecheck.worktree(base_rev, Path(temp) / "base") as base_tree:
        head_tree = Path(temp) / "head"
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, head_tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        trees = {"base": base_tree, "head": head_tree}
        for workload in names:
            runs = []
            for pair in range(PAIRS):
                seed = FIRST_SEED + pair
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                record = {"seed": seed, "first": order[0]}
                for side in order:
                    record[side] = run(trees[side], workload, seed, seconds)
                runs.append(record)
                print(f"{workload} pair {pair}: " + ", ".join(
                    f"{side} wall_s {record[side]['metrics']['wall_s']:.4g}" for side in order
                ), flush=True)
            per_layer = {
                side: run(trees[side], workload, FIRST_SEED, seconds, trace=1)["metrics"]
                for side in ("base", "head")
            }
            report["workloads"][workload] = {
                **summarize(runs, gated), "runs": runs, "per_layer": per_layer
            }
    report["machine"]["calibration_s"] = {"before": before, "after": calibration_s()}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Byte-contract check: the command line's exit code, stdout and stderr, base tree against this one.

    python tools/bytecheck.py [--base REV]

The corpus is generated once, from this checkout: the argv of the benchmark
workloads (``perfbench/workloads.py``: scenario-mix seeds 0-2, the distinct
lattice-planar and lattice-3d commands of seeds 0-4, lhv-fuzz seed 0), every
``belllab ...`` line of the README, and the edge argv in EDGE_ARGV.  Scenario
files go into one temporary directory, which is the working directory of both
runs, so every path a message quotes is the same relative path in both.

REV (default HEAD) is checked out with ``git worktree`` into a temporary
directory, removed afterwards.  Each tree runs the whole corpus in its own
subprocess, calling ``belllab.cli.main`` in-process with that tree's ``src/``
first on ``sys.path``, and records the sha256 of (exit code, stdout, stderr) per
argv.  Every argv whose digest differs is listed.

Each line of tools/expected_byte_changes.txt is an fnmatch glob, matched
against the space-joined argv; blank lines and lines starting with # are
skipped.  The check exits 1 on a difference no glob declares, and on a glob
that matches no difference, so the file names exactly what a change moves.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import importlib.util
import io
import json
import re
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = ROOT / "tools" / "expected_byte_changes.txt"

_SWEEP = ("sweep", "--scenario", "ghz.json", "--inequality", "ghz_dispersion_free",
          "--axis", "0", "--steps", "3", "--range")
_SEARCH = ("search", "--inequality", "chsh", "--space")

#: Refusals, defaults and boundaries the workloads and the README do not reach.
EDGE_ARGV = (
    ("--version",),
    ("--help",),
    ("search", "--help"),
    ("lhv-check", "--models", "0"),
    ("lhv-check", "--seed", "-1"),
    # the stacked draw of small models (belllab.lhv.STACKED_DRAW_MAX_POINTS = 40):
    # seeds of one and two 32-bit words, a batch across 2**64, a seed past it,
    # and the point counts on either side of the cut-off
    ("lhv-check", "--seed", "4294967000", "--models", "600"),
    ("lhv-check", "--seed", "18446744073709551000", "--models", "1000"),
    ("lhv-check", "--seed", "1180591620717411303424", "--models", "1000"),
    ("lhv-check", "--points", "40", "--models", "1000"),
    ("lhv-check", "--points", "41", "--models", "1000"),
    # two-point models saturate the general bound, so roundoff decides their verdicts
    ("lhv-check", "--points", "2", "--bound", "1000", "--models", "2000"),
    (*_SEARCH, "vectors3d"),
    # vectors3d scans by reflection orbit: z -> -z and y -> -y both close at 45
    # and 36 degrees, only y -> -y at 72 and 24, neither at 28.5; the general
    # bound at 30 keeps K = 145 854 points, imaged in 11 slices, most during the box
    (*_SEARCH, "vectors3d", "--resolution", "45"),
    (*_SEARCH, "vectors3d", "--resolution", "36"),
    (*_SEARCH, "vectors3d", "--resolution", "72"),
    (*_SEARCH, "vectors3d", "--resolution", "24"),
    (*_SEARCH, "vectors3d", "--resolution", "28.5"),
    ("search", "--inequality", "general", "--space", "vectors3d", "--resolution", "30"),
    # the general bound's kept-orbit pass on planar-epr: K = 61 778 kept points at
    # 2.5 degrees, imaged in 5 slices of at most the table's 144 * 144 entries,
    # some during the box: the two of 20 736 points through per-map permuted
    # tables, the three of 3 158, 3 372 and 13 776 by the row gather; and
    # K = 3 782 at 10, imaged after the box in one slice through the tables,
    # as it outnumbers their 36 * 36 entries
    ("search", "--inequality", "general", "--space", "planar-epr", "--resolution", "2.5"),
    ("search", "--inequality", "general", "--space", "planar-epr", "--resolution", "10"),
    # the smallest pair tables (P = N = 2 on vectors3d, N = 2 on ghz-angles), and
    # the plain scan through a table where no symmetry closes (ghz-angles at 7
    # and vectors3d at 29 degrees)
    (*_SEARCH, "vectors3d", "--resolution", "180"),
    (*_SEARCH, "ghz-angles", "--resolution", "90"),
    ("search", "--inequality", "ghz_general", "--space", "ghz-angles", "--resolution", "7"),
    ("search", "--inequality", "dispersion_free", "--space", "vectors3d", "--resolution", "29"),
    # the bound skip of dispersion_free and chsh at its edges: on vectors3d at 28
    # degrees 20 pair values round past 1 (a plain scan); chsh on planar-epr at 7
    # degrees skips in the plain scan; dispersion_free on ghz-angles at 90 degrees
    # reaches its bound 12 at 4 of the 16 points, the first one reported
    ("search", "--inequality", "dispersion_free", "--space", "vectors3d", "--resolution", "28"),
    (*_SEARCH, "vectors3d", "--resolution", "28"),
    (*_SEARCH, "planar-epr", "--resolution", "7"),
    ("search", "--inequality", "dispersion_free", "--space", "ghz-angles", "--resolution", "90"),
    # the general bound's reflection pass at 45 degrees: the 120 000 box points
    # and the images of K = 24 338 kept points, in one pass of the 320 000-point
    # lattice without a rescan
    ("search", "--inequality", "general", "--space", "vectors3d", "--resolution", "45"),
    # roundoff in the axis count puts a last polar step past 180 degrees, which
    # the lattice clamps to 180, so refinement starts inside the bounds
    (*_SEARCH, "vectors3d", "--resolution", "90.00000001"),
    (*_SEARCH, "vectors3d", "--resolution", "90.00000001", "--refine"),
    (*_SEARCH, "nowhere"),
    (*_SEARCH, "planar-epr", "--resolution", "45", "--tolerance", "1", "--refine"),
    (*_SEARCH, "planar-epr", "--resolution", "45", "--tolerance", "nan"),
    (*_SWEEP, "-90:90"),
    (*_SWEEP, "-inf:0"),
    (*_SWEEP, "10:10"),
    (*_SWEEP, "0:2e-322"),
    (*_SWEEP, "0:1e-322"),
    (*_SWEEP, "0:5e-324"),
    (*_SWEEP, "-5e-324:5e-324"),
)

# Run by each tree's subprocess: argv[1] is that tree's src/, argv[2] this
# directory, argv[3] the corpus file and argv[4] the digest file to write.
_WORKER = """
import sys
sys.path[:0] = sys.argv[1:3]
import bytecheck
bytecheck.write_digests(sys.argv[1], *sys.argv[3:])
"""


def readme_command_lines(readme: Path) -> list[str]:
    """Every `belllab ...` line of a fenced block of the README."""
    blocks = re.findall(r"```[a-z]*\n(.*?)```", readme.read_text(), re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("belllab ")]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def corpus(directory: Path) -> list[list[str]]:
    """The corpus argv, in a fixed order and without repeats; writes its scenarios under directory.

    Scenario paths are relative to directory, the working directory of the runs.
    """
    workloads = _workloads()
    argvs = []
    runs = [("scenario-mix", seed) for seed in range(3)]
    runs += [(name, seed) for name in ("lattice-planar", "lattice-3d") for seed in range(5)]
    runs.append(("lhv-fuzz", 0))
    for name, seed in runs:
        plan = workloads.generate(name, seed, f"{name}-{seed}")
        for path, text in plan.files.items():
            (directory / path).parent.mkdir(exist_ok=True)
            (directory / path).write_text(text)
        argvs += [list(command.argv) for command in plan.commands]

    readme = ROOT / "README.md"
    # the README's sweeps read ghz.json, its ghz scenario
    ghz = re.search(r'^\{"kind": "ghz".*\}$', readme.read_text(), re.M).group(0)
    (directory / "ghz.json").write_text(ghz)
    # a synopsis with [optional] parts is not a command
    argvs += [shlex.split(line)[1:] for line in readme_command_lines(readme) if "[" not in line]
    argvs += [list(argv) for argv in EDGE_ARGV]
    return list({" ".join(argv): argv for argv in argvs}.values())


def write_digests(src: str, corpus_file: str, digest_file: str) -> None:
    """Run every corpus argv through this process's belllab.cli.main; write {argv: sha256}."""
    import belllab.cli as cli  # found under src, which the caller put first on sys.path

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the tree under {src}")
    digests = {}
    for argv in json.loads(Path(corpus_file).read_text()):
        out, err = io.StringIO(), io.StringIO()
        # entering catch_warnings resets the show-once registry, so each command
        # prints the warnings a fresh process would
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped exception is a result to compare too
                code = f"{type(exc).__name__}: {exc}"
        record = json.dumps([code, out.getvalue(), err.getvalue()])
        digests[" ".join(argv)] = hashlib.sha256(record.encode()).hexdigest()
    Path(digest_file).write_text(json.dumps(digests))


def digests(trees: dict[str, Path], argvs: list[list[str]], directory: Path) -> dict:
    """{tree name: {argv: digest}}, each tree's corpus run in its own subprocess, all at once."""
    corpus_file = directory / "corpus.json"
    corpus_file.write_text(json.dumps(argvs))
    running = {}
    for name, tree in trees.items():
        out = directory / f"digests-{name}.json"
        argv = [sys.executable, "-c", _WORKER, str(tree / "src"), str(ROOT / "tools"),
                str(corpus_file), str(out)]
        running[name] = (subprocess.Popen(argv, cwd=directory), out)
    codes = {name: process.wait() for name, (process, _) in running.items()}
    failed = {name: code for name, code in codes.items() if code != 0}
    if failed:
        raise RuntimeError(f"runs exited non-zero: {failed}")
    return {name: json.loads(out.read_text()) for name, (_, out) in running.items()}


def compare(base: dict, head: dict, declared: list[str]) -> tuple[list[str], list[str]]:
    """(report lines, problems) for two digest maps and the declared globs."""
    changed = [argv for argv in head if base[argv] != head[argv]]
    lines, problems = [], []
    for argv in changed:
        if any(fnmatch.fnmatchcase(argv, glob) for glob in declared):
            lines.append(f"declared:   {argv}")
        else:
            problems.append(f"undeclared: {argv}")
    for glob in declared:
        if not any(fnmatch.fnmatchcase(argv, glob) for argv in changed):
            problems.append(f"stale declaration, matches no difference: {glob}")
    return lines, problems


def declared_globs() -> list[str]:
    lines = DECLARED.read_text().splitlines() if DECLARED.exists() else []
    return [line for line in lines if line.strip() and not line.startswith("#")]


@contextlib.contextmanager
def worktree(rev: str, path: Path):
    """rev checked out with ``git worktree`` at path, a directory that must not exist yet,
    for the duration of the block; removed afterwards."""
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                    str(path), rev], check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                       check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as temp, \
            worktree(args.base, Path(temp) / "base") as base_tree:
        scenarios = Path(temp) / "scenarios"
        scenarios.mkdir()
        argvs = corpus(scenarios)
        start = time.perf_counter()
        runs = digests({"base": base_tree, "head": ROOT}, argvs, scenarios)
        seconds = time.perf_counter() - start
    lines, problems = compare(runs["base"], runs["head"], declared_globs())
    print(f"bytecheck: {len(argvs)} argv, {args.base} against this tree in {seconds:.1f} s, "
          f"{len(lines)} declared difference(s), {len(problems)} problem(s)")
    for line in lines + problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

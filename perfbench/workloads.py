"""The four benchmark workloads: every command a run issues, derived from a seed.

A workload is a fixed list of CLI commands (one "pass").  The seed chooses
the inputs -- scenario contents, model seeds, command order, and for the
lattice workloads the resolutions that are free to move without changing
the lattice size -- but never the amount of work, so runs on different
seeds measure the same cost.

Each Command carries the argv the program receives, the exit code it must
return, and a ``spec`` holding what the oracle needs to judge its report.
Scenario files are returned as text in ``Plan.files`` and written by the
caller before the first command runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("lattice-planar", "lattice-3d", "lhv-fuzz", "scenario-mix")

EXIT_OK = 0
EXIT_INPUT = 1


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    #: Oracle selector: search, lhv-check, evaluate, reproduce, sweep, malformed.
    kind: str
    spec: dict
    expect_exit: int = EXIT_OK


@dataclass
class Plan:
    workload: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)

    def write_files(self) -> None:
        for path, text in self.files.items():
            with open(path, "w") as handle:
                handle.write(text)


def generate(workload: str, seed: int, scenario_dir: str) -> Plan:
    """Build one pass of a workload; scenario files are placed under scenario_dir."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "lattice-planar":
        commands = _lattice_planar(rng)
    elif workload == "lattice-3d":
        commands = _lattice_3d(rng)
    elif workload == "lhv-fuzz":
        commands = _lhv_fuzz(rng)
    elif workload == "scenario-mix":
        return _scenario_mix(rng, scenario_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return Plan(workload, commands)


# ---------------------------------------------------------------------------
# Lattice workloads.


def _search(inequality: str, space: str, resolution: str, refine: bool = False) -> Command:
    argv = ["search", "--inequality", inequality, "--space", space, "--resolution", resolution]
    if refine:
        argv.append("--refine")
    spec = {"inequality": inequality, "space": space, "resolution_deg": float(resolution),
            "refine": refine}
    return Command(tuple(argv), "search", spec)


def _shuffled(rng, commands: list[Command]) -> list[Command]:
    return [commands[i] for i in rng.permutation(len(commands))]


# Resolutions that do not divide 360 degrees but all give 51 points per axis
# (51**4 lattice points), so the seed may pick any of them at equal cost.
PLANAR_ODD_RESOLUTIONS = ("6.95", "6.97", "7", "7.02", "7.05")

# Resolutions for the refined vectors3d scan: 7 polar and 12 azimuth points
# each, none a divisor of 45 degrees, so the lattice misses the CHSH optimum
# and refinement has real climbing to do.
VECTORS3D_REFINE_RESOLUTIONS = ("28", "28.5", "29", "29.5")


def _lattice_planar(rng) -> list[Command]:
    # 5 and 2.5 degrees divide 45 (and 22.5 for the doubled four-spin angles),
    # so every analytic optimum lies on these lattices.
    commands = [
        _search(inequality, "planar-epr", "5")
        for inequality in ("general", "dispersion_free", "chsh")
    ] + [
        _search(inequality, "ghz-angles", "2.5")
        for inequality in ("ghz_general", "ghz_dispersion_free", "chsh")
    ]
    commands.append(_search("general", "planar-epr", str(rng.choice(PLANAR_ODD_RESOLUTIONS))))
    return _shuffled(rng, commands)


def _lattice_3d(rng) -> list[Command]:
    commands = [
        _search(inequality, "vectors3d", "22.5")
        for inequality in ("general", "dispersion_free", "chsh")
    ]
    resolution = str(rng.choice(VECTORS3D_REFINE_RESOLUTIONS))
    commands.append(_search("chsh", "vectors3d", resolution, refine=True))
    return _shuffled(rng, commands)


# ---------------------------------------------------------------------------
# Hidden-variable fuzzing.

LHV_SMALL = (4, 10000, 8)  # commands, models per command, points per model
LHV_LARGE = (2, 2000, 512)
LHV_BOUND = "5"


def _lhv_fuzz(rng) -> list[Command]:
    commands = []
    for count, models, points in (LHV_SMALL, LHV_LARGE):
        for _ in range(count):
            first = int(rng.integers(0, 2**40))
            argv = ("lhv-check", "--models", str(models), "--points", str(points),
                    "--bound", LHV_BOUND, "--seed", str(first))
            spec = {"models": models, "points": points, "bound": float(LHV_BOUND),
                    "seed": first}
            commands.append(Command(argv, "lhv-check", spec))
    return _shuffled(rng, commands)


# ---------------------------------------------------------------------------
# Scenario mix: many small commands over every scenario kind.

#: Commands per pass for each category; fixed so every seed costs the same.
MIX_COUNTS = {
    "epr_angles": 200,
    "epr_vectors": 100,
    "epr_dots": 100,
    "ghz": 200,
    "profile": 80,
    "lhv": 120,
    "reproduce": 40,
    "sweep": 120,
    "malformed": 40,
}

EPR_IDS = ("general", "dispersion_free", "chsh", "epr_general", "epr_dispersion_free")
GHZ_IDS = ("general", "dispersion_free", "chsh", "ghz_general", "ghz_dispersion_free")
ANY_IDS = ("general", "dispersion_free", "chsh")
TOLERANCES = (1e-9, 1e-7, 1e-3)

SWEEP_STEPS = {"csv": 37, "json": 19}


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _unit_vectors(rng, count: int) -> list[list[float]]:
    out = []
    while len(out) < count:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            out.append(_floats(v / norm))
    return out


def _lhv_block(rng) -> dict:
    n = int(rng.integers(2, 9))
    weights = rng.random(n) + 0.05
    weights = weights / weights.sum()
    tables = rng.uniform(-3.0, 3.0, size=(4, n))
    return {"weights": _floats(weights), "A": _floats(tables[0]), "B": _floats(tables[1]),
            "C": _floats(tables[2]), "D": _floats(tables[3])}


def _profile_block(rng) -> dict:
    values = rng.uniform(-2.0, 2.0, size=6)
    variances = rng.uniform(0.0, 3.0, size=4)
    keys = ("e_ac", "e_ad", "e_bc", "e_bd", "e_ab", "e_cd")
    block = {key: float(v) for key, v in zip(keys, values)}
    block.update({f"var_{x}": float(v) for x, v in zip("abcd", variances)})
    return block


def _scenario_data(rng, category: str) -> tuple[dict, tuple[str, ...]]:
    """A valid scenario of one category and the inequality ids it admits."""
    if category == "epr_angles":
        return {"kind": "epr", "epr": {"angles_deg": _floats(rng.uniform(0, 360, 4))}}, EPR_IDS
    if category == "epr_vectors":
        return {"kind": "epr", "epr": {"vectors": _unit_vectors(rng, 4)}}, EPR_IDS
    if category == "epr_dots":
        return {"kind": "epr", "epr": {"dots": _floats(rng.uniform(-1, 1, 6))}}, EPR_IDS
    if category == "ghz":
        return {"kind": "ghz", "ghz": {"angles_deg": _floats(rng.uniform(0, 180, 4))}}, GHZ_IDS
    if category == "profile":
        return {"kind": "profile", "profile": _profile_block(rng)}, ANY_IDS
    return {"kind": "lhv", "lhv": _lhv_block(rng)}, ANY_IDS


class _Files:
    def __init__(self, directory: str):
        self.directory = directory
        self.texts: dict[str, str] = {}

    def add(self, text: str) -> str:
        path = os.path.join(self.directory, f"s{len(self.texts):04d}.json")
        self.texts[path] = text
        return path


def _evaluate(rng, files: _Files, category: str) -> Command:
    data, ids = _scenario_data(rng, category)
    inequality = str(rng.choice(ids))
    argv = ["evaluate"]
    # half the commands name the inequality in the file, half on the command line
    if rng.random() < 0.5:
        data["inequality"] = inequality
    else:
        argv += ["--inequality", inequality]
    tolerance = 1e-9
    roll = rng.random()
    if roll < 0.2:
        tolerance = float(rng.choice(TOLERANCES))
        data["tolerance"] = tolerance
    elif roll < 0.4:
        tolerance = float(rng.choice(TOLERANCES))
        argv += ["--tolerance", repr(tolerance)]
    path = files.add(json.dumps(data))
    argv[1:1] = ["--scenario", path]
    spec = {"scenario": data, "inequality": inequality, "tolerance": tolerance}
    return Command(tuple(argv), "evaluate", spec)


def _sweep(rng, files: _Files, index: int) -> Command:
    fmt = "csv" if index % 2 == 0 else "json"
    if rng.random() < 0.5:
        data, ids = _scenario_data(rng, "epr_angles")
        hi = 360.0
    else:
        data, ids = _scenario_data(rng, "ghz")
        hi = 180.0
    inequality = str(rng.choice(ids))
    data["inequality"] = inequality
    axis = int(rng.integers(0, 4))
    lo = float(rng.integers(0, 90))
    steps = SWEEP_STEPS[fmt]
    path = files.add(json.dumps(data))
    argv = ("sweep", "--scenario", path, "--axis", str(axis), "--range", f"{lo!r}:{hi!r}",
            "--steps", str(steps), "--format", fmt)
    spec = {"scenario": data, "inequality": inequality, "tolerance": 1e-9, "axis": axis,
            "range_deg": [lo, hi], "steps": steps, "format": fmt}
    return Command(argv, "sweep", spec)


def _malformed_text(rng, variant: int) -> tuple[str, list[str]]:
    """Scenario text that must be refused with exit 1, and extra argv."""
    if variant == 0:
        return '{"kind": "epr", "epr": {"angles_deg": [0, 45, 90', []
    if variant == 1:
        return json.dumps({"kind": "qubit", "qubit": {}, "inequality": "general"}), []
    if variant == 2:
        data = {"kind": "epr", "inequality": "general",
                "epr": {"angles_deg": _floats(rng.uniform(0, 360, 3))}}
        return json.dumps(data), []
    if variant == 3:
        block = _profile_block(rng)
        del block["var_c"]
        return json.dumps({"kind": "profile", "inequality": "chsh", "profile": block}), []
    if variant == 4:
        block = _lhv_block(rng)
        block["weights"] = [w * 1.5 for w in block["weights"]]
        return json.dumps({"kind": "lhv", "inequality": "general", "lhv": block}), []
    if variant == 5:
        data, _ = _scenario_data(rng, "ghz")
        return json.dumps(data), ["--inequality", "epr_general"]
    data, _ = _scenario_data(rng, "profile")
    return json.dumps(data), []  # no inequality anywhere


MALFORMED_VARIANTS = 7


def _malformed(rng, files: _Files, index: int) -> Command:
    variant = index % MALFORMED_VARIANTS
    text, extra = _malformed_text(rng, variant)
    path = files.add(text)
    argv = ("evaluate", "--scenario", path, *extra)
    return Command(argv, "malformed", {"variant": variant}, expect_exit=EXIT_INPUT)


def _scenario_mix(rng, scenario_dir: str) -> Plan:
    files = _Files(scenario_dir)
    commands = []
    for category, count in MIX_COUNTS.items():
        for index in range(count):
            if category == "reproduce":
                target = "epr" if index % 2 == 0 else "ghz"
                commands.append(Command(("reproduce", target), "reproduce", {"target": target}))
            elif category == "sweep":
                commands.append(_sweep(rng, files, index))
            elif category == "malformed":
                commands.append(_malformed(rng, files, index))
            else:
                commands.append(_evaluate(rng, files, category))
    return Plan("scenario-mix", _shuffled(rng, commands), files.texts)


def lattice_size(space: str, resolution_deg: float) -> int:
    """Lattice points a scan covers, counted the way the program's axes are built."""
    res = math.radians(resolution_deg)
    polar, azimuth = (math.pi, False), (2.0 * math.pi, True)
    axes = {
        "planar-epr": [azimuth] * 4,
        "ghz-angles": [(math.pi, True)] * 4,
        "vectors3d": [polar, polar, azimuth, polar, azimuth, polar, azimuth],
    }[space]
    total = 1
    for span, wrapped in axes:
        steps = int(math.floor(span / res + 1e-9))
        total *= steps if wrapped else steps + 1
    return total

"""Command-line front end.

Subcommands:

* reproduce: evaluate the two bundled reference configurations and compare
  against their published figures, listing discrepancies side by side.
* evaluate: run one inequality on a scenario file (quantum parameters, a raw
  profile, or a finite hidden-variable model).
* search: lattice-scan a parameter space for the largest margin, with
  optional compass refinement.
* lhv-check: fuzz seeded random hidden-variable models against the general
  bound; any positive margin beyond tolerance is a property failure.
* sweep: vary one angle of a scenario and tabulate lhs, rhs, margin.

Reports are JSON on stdout (or --out); sweep emits CSV by default.  Exit
codes: 0 success, 1 input error, 2 numeric or property failure.  All
randomness flows from --seed, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericsError
from .geometry import Direction, DotProductConfig, gram_of, planar, realizability_report
from .inequalities import (
    INEQUALITY_IDS,
    VIOLATION_TOL,
    CorrelationProfile,
    correlation_combination,
    epr_profile_from_dots,
    inequality_kernel,
    verdict_for_profile,
)
from .lhv import LhvModel, lhv_profile, random_model
from .quantum import epr_profile, ghz_profile
from .search import grid_search, parameter_space, refine, sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

SPACE_BY_CLI_NAME = {
    "planar-epr": "planar_epr",
    "ghz-angles": "ghz_angles",
    "vectors3d": "vectors3d",
}

SCENARIO_KINDS = ("epr", "ghz", "profile", "lhv")

# Reference configurations quoted from the published account of these
# inequalities, kept verbatim so the discrepancy ledger has fixed targets.
REFERENCE_EPR_DOT_ANGLES_DEG = {
    "ab": 120.0,
    "ac": 30.0,
    "ad": 120.0,
    "bc": 140.0,
    "bd": 160.0,
    "cd": 45.0,
}
REFERENCE_GHZ_ANGLES_DEG = (45.0, 60.0, 120.0, 150.0)

PUBLISHED_EPR_GENERAL_LHS = 0.38
PUBLISHED_EPR_GENERAL_RHS = 10.2
PUBLISHED_GHZ_GENERAL_LHS = 0.0275
PUBLISHED_GHZ_GENERAL_RHS = 6.804

PROFILE_KEYS = (
    "e_ac",
    "e_ad",
    "e_bc",
    "e_bd",
    "e_ab",
    "e_cd",
    "var_a",
    "var_b",
    "var_c",
    "var_d",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # input-error path (exit 1) instead.
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="belllab", description="Bell-type inequality laboratory")
    parser.add_argument("--version", action="version", version=f"belllab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    rep = commands.add_parser("reproduce", help="evaluate a bundled reference configuration")
    rep.add_argument("target", choices=("epr", "ghz"))
    rep.add_argument("--tolerance", type=float, default=None, help="violation tolerance")
    rep.add_argument("--out", default=None, help="write the report here instead of stdout")

    ev = commands.add_parser("evaluate", help="evaluate one inequality on a scenario file")
    ev.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    ev.add_argument("--inequality", default=None, choices=INEQUALITY_IDS,
                    help="override the scenario's inequality id")
    ev.add_argument("--tolerance", type=float, default=None)
    ev.add_argument("--out", default=None)

    se = commands.add_parser("search", help="grid-search a parameter space for the largest margin")
    se.add_argument("--inequality", required=True, choices=INEQUALITY_IDS)
    se.add_argument("--space", required=True, choices=tuple(SPACE_BY_CLI_NAME))
    se.add_argument("--resolution", type=float, default=5.0, help="lattice resolution in degrees")
    se.add_argument("--refine", action="store_true", help="compass-refine the grid optimum")
    se.add_argument("--tolerance", type=float, default=None)
    se.add_argument("--out", default=None)

    lc = commands.add_parser("lhv-check", help="fuzz random hidden-variable models against the bound")
    lc.add_argument("--models", type=int, default=10000, help="number of random models")
    lc.add_argument("--points", type=int, default=8, help="hidden points per model")
    lc.add_argument("--bound", type=float, default=5.0, help="table values drawn from [-bound, bound]")
    lc.add_argument("--seed", type=int, default=0, help="seed of the first model")
    lc.add_argument("--tolerance", type=float, default=None)
    lc.add_argument("--out", default=None)

    sw = commands.add_parser("sweep", help="vary one angle of a scenario, tabulating the margin")
    sw.add_argument("--scenario", required=True, help="angle-parameterized scenario JSON file")
    sw.add_argument("--inequality", default=None, choices=INEQUALITY_IDS,
                    help="override the scenario's inequality id")
    sw.add_argument("--axis", type=int, required=True, help="angle index to vary, 0 to 3")
    sw.add_argument("--range", dest="sweep_range", required=True, metavar="LO:HI",
                    help="swept interval in degrees")
    sw.add_argument("--steps", type=int, required=True, help="number of sweep points")
    sw.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
    sw.add_argument("--tolerance", type=float, default=None)
    sw.add_argument("--out", default=None)

    return parser


# ---------------------------------------------------------------------------
# Scenario files.


def _expect_numbers(value, what: str, length: int | None = None) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of numbers")
    if length is not None and len(value) != length:
        raise ValueError(f"{what} must hold exactly {length} numbers, got {len(value)}")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValueError(f"{what} must hold only numbers")
        out.append(float(entry))
    return out


def load_scenario(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    _reject_non_finite_numbers(data, "")
    _validate_scenario(data)
    return data


def _reject_non_finite_numbers(value, where: str) -> None:
    """Refuse what cannot enter a computation as a finite float: JSON integers
    beyond the float range, and float literals that overflow, NaN and Infinity."""
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite_numbers(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _reject_non_finite_numbers(item, f"{where}[{index}]")
    elif type(value) is int and abs(value) > sys.float_info.max:
        raise ValueError(f"scenario {where} is an integer too large for a float")
    elif type(value) is float and not math.isfinite(value):
        raise ValueError(f"scenario {where} is not a finite number")


def _validate_scenario(data) -> None:
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    kind = data.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"scenario kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    allowed = {"kind", "inequality", "tolerance", kind}
    extra = data.keys() - allowed
    if extra:
        raise ValueError(f"scenario has unexpected keys {sorted(extra)}")
    if kind not in data:
        raise ValueError(f"scenario is missing its {kind!r} parameter block")
    if "inequality" in data and data["inequality"] not in INEQUALITY_IDS:
        raise ValueError(
            f"scenario inequality must be one of {INEQUALITY_IDS}, got {data['inequality']!r}"
        )
    if "tolerance" in data:
        _checked_tolerance(data["tolerance"], "scenario tolerance")
    block = data[kind]
    if not isinstance(block, dict):
        raise ValueError(f"the {kind!r} parameter block must be a JSON object")
    if kind == "epr":
        keys = set(block)
        variants = {"angles_deg", "vectors", "dots"}
        chosen = keys & variants
        if len(chosen) != 1 or keys - variants:
            raise ValueError(
                "the epr block must hold exactly one of angles_deg (4 planar angles), "
                "vectors (4 unit vectors), or dots (6 dot products)"
            )
        which = chosen.pop()
        if which == "angles_deg":
            _expect_numbers(block[which], "epr angles_deg", 4)
        elif which == "dots":
            _expect_numbers(block[which], "epr dots", 6)
        else:
            rows = block[which]
            if not isinstance(rows, list) or len(rows) != 4:
                raise ValueError("epr vectors must be a list of 4 vectors")
            for row in rows:
                _expect_numbers(row, "epr vector", 3)
    elif kind == "ghz":
        if set(block) != {"angles_deg"}:
            raise ValueError("the ghz block must hold exactly the key angles_deg")
        _expect_numbers(block["angles_deg"], "ghz angles_deg", 4)
    elif kind == "profile":
        if set(block) != set(PROFILE_KEYS):
            raise ValueError(f"the profile block must hold exactly the keys {PROFILE_KEYS}")
        for key in PROFILE_KEYS:
            value = block[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"profile field {key} must be a number")
    else:
        LhvModel.from_dict(block)  # raises ValueError with specifics


def _inequality_for_scenario(data: dict, override: str | None) -> str:
    inequality_id = override or data.get("inequality")
    if inequality_id is None:
        raise ValueError("no inequality requested: set it in the scenario or pass --inequality")
    inequality_kernel(inequality_id, data["kind"])
    return inequality_id


def _scenario_profile(data: dict) -> tuple[CorrelationProfile, dict | None, dict]:
    """Build the profile for a scenario; returns (profile, realizability, angle echo)."""
    kind = data["kind"]
    block = data[kind]
    if kind == "epr":
        if "angles_deg" in block:
            degs = [float(v) for v in block["angles_deg"]]
            directions = planar([math.radians(v) for v in degs])
            profile = epr_profile(*directions)
            report = realizability_report(gram_of(*directions))
            echo = {"angles_deg": degs, "angles_rad": [math.radians(v) for v in degs]}
            return profile, report, echo
        if "vectors" in block:
            directions = tuple(Direction(*(float(v) for v in row)) for row in block["vectors"])
            profile = epr_profile(*directions)
            report = realizability_report(gram_of(*directions))
            return profile, report, {}
        dots = DotProductConfig.from_sequence(block["dots"])
        # raw dot products may be unrealizable, so only the closed form applies
        return epr_profile_from_dots(dots), realizability_report(dots), {}
    if kind == "ghz":
        degs = [float(v) for v in block["angles_deg"]]
        rads = [math.radians(v) for v in degs]
        return ghz_profile(*rads), None, {"angles_deg": degs, "angles_rad": rads}
    if kind == "profile":
        return CorrelationProfile(**{key: block[key] for key in PROFILE_KEYS}), None, {}
    return lhv_profile(LhvModel.from_dict(block)), None, {}


# ---------------------------------------------------------------------------
# Commands.  Each returns (output text, exit code).


def _json_text(report: dict) -> str:
    # every number in a report is finite by construction; refuse to print one that is not
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def cmd_evaluate(args) -> tuple[str, int]:
    data = load_scenario(args.scenario)
    inequality_id = _inequality_for_scenario(data, args.inequality)
    tolerance = _effective_tolerance(args.tolerance, data.get("tolerance"))
    profile, realizability, echo = _scenario_profile(data)
    verdict = verdict_for_profile(profile, inequality_id, tolerance)
    report = {
        "command": "evaluate",
        "scenario": data,
        **echo,
        "tolerance": tolerance,
        "profile": profile.as_dict(),
        "verdicts": [verdict.as_dict()],
        "realizability": realizability,
        "discrepancies": [],
    }
    return _json_text(report), EXIT_OK


def cmd_reproduce(args) -> tuple[str, int]:
    tolerance = _effective_tolerance(args.tolerance, None)
    if args.target == "epr":
        report = _reproduce_epr(tolerance)
    else:
        report = _reproduce_ghz(tolerance)
    return _json_text(report), EXIT_OK


def _reproduce_epr(tolerance: float) -> dict:
    angles = REFERENCE_EPR_DOT_ANGLES_DEG
    dots = DotProductConfig(
        **{name: math.cos(math.radians(deg)) for name, deg in angles.items()}
    )
    profile = epr_profile_from_dots(dots)
    df = verdict_for_profile(profile, "epr_dispersion_free", tolerance)
    general = verdict_for_profile(profile, "epr_general", tolerance)
    return {
        "command": "reproduce",
        "target": "epr",
        "dot_angles_deg": dict(angles),
        "dot_products": {name: getattr(dots, name) for name in angles},
        "tolerance": tolerance,
        "profile": profile.as_dict(),
        "verdicts": [df.as_dict(), general.as_dict()],
        "realizability": realizability_report(dots),
        "discrepancies": [
            {
                "location": "epr general lhs",
                "published_value": PUBLISHED_EPR_GENERAL_LHS,
                "computed_value": general.lhs,
            },
            {
                "location": "epr general rhs",
                "published_value": PUBLISHED_EPR_GENERAL_RHS,
                "computed_value": general.rhs,
            },
        ],
    }


def _reproduce_ghz(tolerance: float) -> dict:
    degs = REFERENCE_GHZ_ANGLES_DEG
    rads = [math.radians(v) for v in degs]
    profile = ghz_profile(*rads)
    df = verdict_for_profile(profile, "ghz_dispersion_free", tolerance)
    general = verdict_for_profile(profile, "ghz_general", tolerance)
    # the variant groups the combination as (A+B) with (C-D), which flips the
    # signs of E(A,D) and E(B,C); both groupings are reported so the published
    # reading stays inspectable
    variant = dataclasses.replace(profile, e_ad=-profile.e_ad, e_bc=-profile.e_bc)
    variant_verdicts = {}
    for inequality_id in ("dispersion_free", "general"):
        verdict = verdict_for_profile(variant, inequality_id, tolerance).as_dict()
        del verdict["inequality"]
        variant_verdicts[inequality_id] = verdict
    return {
        "command": "reproduce",
        "target": "ghz",
        "angles_deg": list(degs),
        "angles_rad": rads,
        "tolerance": tolerance,
        "profile": profile.as_dict(),
        "verdicts": [df.as_dict(), general.as_dict()],
        "sign_variant": {
            "note": "correlation combination grouped as (A+B),(C-D) instead of (A-B),(C+D)",
            "combination": correlation_combination(
                variant.e_ac, variant.e_ad, variant.e_bc, variant.e_bd
            ),
            **variant_verdicts,
        },
        "discrepancies": [
            {
                "location": "ghz general lhs",
                "published_value": PUBLISHED_GHZ_GENERAL_LHS,
                "computed_value": general.lhs,
            },
            {
                "location": "ghz general rhs",
                "published_value": PUBLISHED_GHZ_GENERAL_RHS,
                "computed_value": general.rhs,
            },
        ],
    }


def cmd_search(args) -> tuple[str, int]:
    tolerance = _effective_tolerance(args.tolerance, None)
    space = parameter_space(SPACE_BY_CLI_NAME[args.space])
    resolution = math.radians(args.resolution)
    grid = grid_search(args.inequality, space, resolution, tolerance)
    report = {
        "command": "search",
        "inequality": args.inequality,
        "space": args.space,
        "resolution_deg": float(args.resolution),
        "tolerance": tolerance,
        "grid": _search_result_dict(grid),
        "refine": None,
    }
    if args.refine:
        initial_step = resolution / 2.0
        min_step = resolution / 4096.0
        refined = refine(
            args.inequality, space, grid.best_params, initial_step, 0.5, min_step, tolerance
        )
        report["refine"] = {
            **_search_result_dict(refined),
            "initial_step_deg": math.degrees(initial_step),
            "shrink": 0.5,
            "min_step_deg": math.degrees(min_step),
        }
    return _json_text(report), EXIT_OK


def _search_result_dict(result) -> dict:
    return {
        "best_params_rad": list(result.best_params),
        "best_params_deg": [math.degrees(v) for v in result.best_params],
        "verdict": result.best_verdict.as_dict(),
        "evaluations": result.evaluations,
    }


def cmd_lhv_check(args) -> tuple[str, int]:
    if args.models < 1:
        raise ValueError("--models must be at least 1")
    tolerance = _effective_tolerance(args.tolerance, None)
    max_margin = -math.inf
    max_margin_seed = args.seed
    violations = 0
    for offset in range(args.models):
        seed = args.seed + offset
        model = random_model(seed, args.points, args.bound)
        verdict = verdict_for_profile(lhv_profile(model), "general", tolerance)
        if verdict.margin > max_margin:
            max_margin = verdict.margin
            max_margin_seed = seed
        if verdict.violated:
            violations += 1
    passed = violations == 0
    report = {
        "command": "lhv_check",
        "models": args.models,
        "points": args.points,
        "bound": args.bound,
        "seed": args.seed,
        "tolerance": tolerance,
        "max_margin": max_margin,
        "max_margin_seed": max_margin_seed,
        "violations": violations,
        "passed": passed,
    }
    return _json_text(report), EXIT_OK if passed else EXIT_NUMERIC


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--range must look like LO:HI in degrees, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValueError(f"--range must hold two numbers, got {text!r}") from exc


def cmd_sweep(args) -> tuple[str, int]:
    data = load_scenario(args.scenario)
    kind = data["kind"]
    if kind == "ghz":
        base_deg = [float(v) for v in data["ghz"]["angles_deg"]]
        space = parameter_space("ghz_angles")
    elif kind == "epr" and "angles_deg" in data["epr"]:
        base_deg = [float(v) for v in data["epr"]["angles_deg"]]
        space = parameter_space("planar_epr")
    else:
        raise ValueError(
            "sweep needs an angle-parameterized scenario: kind ghz, or kind epr with angles_deg"
        )
    inequality_id = _inequality_for_scenario(data, args.inequality)
    tolerance = _effective_tolerance(args.tolerance, data.get("tolerance"))
    lo_deg, hi_deg = _parse_range(args.sweep_range)
    base_rad = [math.radians(v) for v in base_deg]
    rows = sweep(
        inequality_id,
        space,
        base_rad,
        args.axis,
        (math.radians(lo_deg), math.radians(hi_deg)),
        args.steps,
        tolerance,
    )
    coords_deg = np.linspace(lo_deg, hi_deg, args.steps)
    if args.out_format == "csv":
        lines = ["coord,lhs,rhs,margin"]
        for coord_deg, (_, lhs, rhs, margin) in zip(coords_deg, rows):
            lines.append(f"{float(coord_deg)!r},{lhs!r},{rhs!r},{margin!r}")
        return "\n".join(lines) + "\n", EXIT_OK
    report = {
        "command": "sweep",
        "scenario": data,
        "inequality": inequality_id,
        "axis": args.axis,
        "range_deg": [lo_deg, hi_deg],
        "steps": args.steps,
        "tolerance": tolerance,
        "series": [
            {
                "coord_deg": float(coord_deg),
                "coord_rad": coord_rad,
                "lhs": lhs,
                "rhs": rhs,
                "margin": margin,
            }
            for coord_deg, (coord_rad, lhs, rhs, margin) in zip(coords_deg, rows)
        ],
    }
    return _json_text(report), EXIT_OK


def _checked_tolerance(value, source: str) -> float:
    """A tolerance must be a finite positive number: an infinite one hides every violation."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        # also refuses nan and any int too large for a float
        or not 0.0 < value <= sys.float_info.max
    ):
        raise ValueError(f"{source} must be a finite positive number, got {value!r}")
    return float(value)


def _effective_tolerance(flag_value: float | None, scenario_value) -> float:
    if flag_value is not None:
        return _checked_tolerance(flag_value, "--tolerance")
    if scenario_value is not None:
        return float(scenario_value)  # checked when the scenario was loaded
    return VIOLATION_TOL


_COMMANDS = {
    "reproduce": cmd_reproduce,
    "evaluate": cmd_evaluate,
    "search": cmd_search,
    "lhv-check": cmd_lhv_check,
    "sweep": cmd_sweep,
}


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = _COMMANDS[args.command](args)
        _emit(text, args.out)
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())

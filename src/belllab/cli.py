"""Command-line front end.

Subcommands:

* reproduce: evaluate the two bundled reference configurations and compare
  against their published figures, listing discrepancies side by side.
* evaluate: run one inequality on a scenario file (quantum parameters, a raw
  profile, or a finite hidden-variable model).  The scenario kinds are
  defined in one place, the SCENARIOS table, which parses each kind once.
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
    PROFILE_KEYS,
    VIOLATION_TOL,
    CorrelationProfile,
    correlation_combination,
    epr_profile_from_dots,
    inequality_kernel,
    make_verdict,
    verdict_for_profile,
)
from .lhv import MAX_CHECK_MODELS, MAX_MODEL_POINTS, LhvModel, check_general_bound, lhv_profile
from .quantum import epr_profile, ghz_profile
from .search import REFINE_SHRINK, SPACE_KINDS, grid_search, parameter_space, refine, sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

#: search --resolution in degrees when none is given, by space kind.  22.5
#: divides 45, so the vectors3d lattice still holds the CHSH and dispersion-free
#: optima, at 2.7e7 points where 5 degrees would be 7.0e11, beyond the lattice limit.
DEFAULT_RESOLUTION_DEG = {"planar_epr": 5.0, "ghz_angles": 5.0, "vectors3d": 22.5}

# Reference configurations quoted from the published account of these
# inequalities, kept verbatim so the discrepancy ledger has fixed targets.
REFERENCE_EPR_DOT_ANGLES_DEG = {
    "ab": 120.0, "ac": 30.0, "ad": 120.0, "bc": 140.0, "bd": 160.0, "cd": 45.0,
}
REFERENCE_GHZ_ANGLES_DEG = (45.0, 60.0, 120.0, 150.0)
#: Published (lhs, rhs) of the general form at each reference configuration.
PUBLISHED_GENERAL = {"epr": (0.38, 10.2), "ghz": (0.0275, 6.804)}


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
    se.add_argument("--space", required=True,
                    choices=tuple(kind.replace("_", "-") for kind in SPACE_KINDS))
    se.add_argument("--resolution", type=float, default=None, help="lattice resolution in degrees")
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expect_numbers(value, what: str, length: int) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of numbers")
    if len(value) != length:
        raise ValueError(f"{what} must hold exactly {length} numbers, got {len(value)}")
    out = []
    for entry in value:
        if not _is_number(entry):
            raise ValueError(f"{what} must hold only numbers")
        out.append(float(entry))
    return out


def _angle_echo(degs: list[float]) -> dict:
    return {"angles_deg": degs, "angles_rad": [math.radians(v) for v in degs]}


def _singlet_build(directions, echo: dict):
    return epr_profile(*directions), realizability_report(gram_of(*directions)), echo


def _dots_build(values: list[float]):
    dots = DotProductConfig.from_sequence(values)
    # raw dot products may be unrealizable, so only the closed form applies
    return epr_profile_from_dots(dots), realizability_report(dots), {}


def _parse_epr(block: dict):
    if len(block) != 1 or not block.keys() <= {"angles_deg", "vectors", "dots"}:
        raise ValueError(
            "the epr block must hold exactly one of angles_deg (4 planar angles), "
            "vectors (4 unit vectors), or dots (6 dot products)"
        )
    [(which, value)] = block.items()
    if which == "angles_deg":
        degs = _expect_numbers(value, "epr angles_deg", 4)
        echo = _angle_echo(degs)
        return degs, lambda: _singlet_build(planar(echo["angles_rad"]), echo)
    if which == "dots":
        values = _expect_numbers(value, "epr dots", 6)
        return None, lambda: _dots_build(values)
    if not isinstance(value, list) or len(value) != 4:
        raise ValueError("epr vectors must be a list of 4 vectors")
    vectors = [_expect_numbers(row, "epr vector", 3) for row in value]
    return None, lambda: _singlet_build(tuple(Direction(*v) for v in vectors), {})


def _parse_ghz(block: dict):
    if set(block) != {"angles_deg"}:
        raise ValueError("the ghz block must hold exactly the key angles_deg")
    degs = _expect_numbers(block["angles_deg"], "ghz angles_deg", 4)
    echo = _angle_echo(degs)
    return degs, lambda: (ghz_profile(*echo["angles_rad"]), None, echo)


def _parse_profile(block: dict):
    if set(block) != set(PROFILE_KEYS):
        raise ValueError(f"the profile block must hold exactly the keys {PROFILE_KEYS}")
    for key in PROFILE_KEYS:
        if not _is_number(block[key]):
            raise ValueError(f"profile field {key} must be a number")
    return None, lambda: (CorrelationProfile(**block), None, {})


LHV_TABLE_KEYS = ("A", "B", "C", "D")


def _parse_lhv(block: dict):
    required = {"weights", *LHV_TABLE_KEYS}
    missing = required - block.keys()
    if missing:
        raise ValueError(f"hidden-variable model is missing keys {sorted(missing)}")
    extra = block.keys() - required - {"bound"}
    if extra:
        raise ValueError(f"hidden-variable model has unexpected keys {sorted(extra)}")
    weights = block["weights"]
    size = len(weights) if isinstance(weights, list) else 0
    weights = _expect_numbers(weights, "lhv weights", size)
    tables = [_expect_numbers(block[key], f"lhv table {key}", size) for key in LHV_TABLE_KEYS]
    bound = block.get("bound", math.inf)  # undeclared: every finite table fits
    if not (_is_number(bound) and bound > 0):
        raise ValueError(f"lhv bound must be a number above 0, got {bound!r}")
    model = LhvModel(weights, tables)  # checks the weights now, before the inequality
    for key, peak in zip(LHV_TABLE_KEYS, np.max(np.abs(model.tables), axis=1)):
        if peak > float(bound):
            raise ValueError(f"table {key} exceeds declared bound {float(bound)!r}")
    return None, lambda: (lhv_profile(model), None, {})


# The one place a scenario kind is interpreted: kind -> (block parser, search
# space of its angles or None).  A parser checks its block as it converts it and
# returns (angles in degrees or None, build); build() returns (profile,
# realizability or None, angle echo), checking what only the profile can check.
SCENARIOS = {
    "epr": (_parse_epr, "planar_epr"),
    "ghz": (_parse_ghz, "ghz_angles"),
    "profile": (_parse_profile, None),
    "lhv": (_parse_lhv, None),
}

SCENARIO_KINDS = tuple(SCENARIOS)


def load_scenario(path: str):
    """Read, check and parse a scenario file; returns (data, angles in degrees or None, build)."""
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON's encoding, whatever the locale
    except OSError as exc:
        raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: scenario is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    try:
        data = json.loads(text)
        _reject_non_finite_numbers(data, "")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ValueError(f"{path}: scenario is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    kind = data.get("kind")
    # a tuple, not the table: an unhashable kind must get this message too
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"scenario kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    extra = data.keys() - {"kind", "inequality", "tolerance", kind}
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
    angles_deg, build = SCENARIOS[kind][0](block)
    return data, angles_deg, build


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


def _inequality_for_scenario(data: dict, override: str | None) -> str:
    inequality_id = override or data.get("inequality")
    if inequality_id is None:
        raise ValueError("no inequality requested: set it in the scenario or pass --inequality")
    inequality_kernel(inequality_id, data["kind"])
    return inequality_id


# ---------------------------------------------------------------------------
# Commands.  Each returns (output text, exit code).


def _json_text(report: dict) -> str:
    # every number in a report is finite by construction; refuse to print one that is not
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def cmd_evaluate(args) -> tuple[str, int]:
    data, _, build = load_scenario(args.scenario)
    inequality_id = _inequality_for_scenario(data, args.inequality)
    tolerance = _effective_tolerance(args.tolerance, data.get("tolerance"))
    profile, realizability, echo = build()
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
    reproduce = _reproduce_epr if args.target == "epr" else _reproduce_ghz
    return _json_text(reproduce(tolerance)), EXIT_OK


def _discrepancies(target: str, general, published_lhs: float, published_rhs: float) -> list:
    sides = (("lhs", published_lhs, general.lhs), ("rhs", published_rhs, general.rhs))
    return [
        {"location": f"{target} general {side}", "published_value": published,
         "computed_value": computed}
        for side, published, computed in sides
    ]


def _reference_report(target: str, profile, tolerance: float, head: dict, tail: dict) -> dict:
    """Both verdicts of the target's family, with the target's own blocks around them."""
    df = verdict_for_profile(profile, f"{target}_dispersion_free", tolerance)
    general = verdict_for_profile(profile, f"{target}_general", tolerance)
    return {
        "command": "reproduce",
        "target": target,
        **head,
        "tolerance": tolerance,
        "profile": profile.as_dict(),
        "verdicts": [df.as_dict(), general.as_dict()],
        **tail,
        "discrepancies": _discrepancies(target, general, *PUBLISHED_GENERAL[target]),
    }


def _reproduce_epr(tolerance: float) -> dict:
    angles = REFERENCE_EPR_DOT_ANGLES_DEG
    dot_products = {name: math.cos(math.radians(deg)) for name, deg in angles.items()}
    profile, realizability, _ = _dots_build(list(dot_products.values()))
    head = {"dot_angles_deg": dict(angles), "dot_products": dot_products}
    return _reference_report("epr", profile, tolerance, head, {"realizability": realizability})


def _reproduce_ghz(tolerance: float) -> dict:
    _, build = _parse_ghz({"angles_deg": list(REFERENCE_GHZ_ANGLES_DEG)})
    profile, _, echo = build()
    # the variant groups the combination as (A+B) with (C-D), which flips the
    # signs of E(A,D) and E(B,C); both groupings are reported so the published
    # reading stays inspectable
    variant = dataclasses.replace(profile, e_ad=-profile.e_ad, e_bc=-profile.e_bc)
    sign_variant = {
        "note": "correlation combination grouped as (A+B),(C-D) instead of (A-B),(C+D)",
        "combination": correlation_combination(
            variant.e_ac, variant.e_ad, variant.e_bc, variant.e_bd
        ),
    }
    for inequality_id in ("dispersion_free", "general"):
        verdict = verdict_for_profile(variant, inequality_id, tolerance).as_dict()
        del verdict["inequality"]
        sign_variant[inequality_id] = verdict
    return _reference_report("ghz", profile, tolerance, echo, {"sign_variant": sign_variant})


def cmd_search(args) -> tuple[str, int]:
    tolerance = _effective_tolerance(args.tolerance, None)
    kind = args.space.replace("-", "_")
    space = parameter_space(kind)
    degrees = args.resolution
    if degrees is None:
        degrees = DEFAULT_RESOLUTION_DEG[kind]
    resolution = math.radians(degrees)
    grid = grid_search(args.inequality, space, resolution)
    report = {
        "command": "search",
        "inequality": args.inequality,
        "space": args.space,
        "resolution_deg": degrees,
        "tolerance": tolerance,
        "grid": _search_result_dict(grid, tolerance),
        "refine": None,
    }
    if args.refine:
        initial_step = resolution / 2.0
        min_step = resolution / 4096.0
        refined = refine(args.inequality, space, grid.best_params, initial_step, min_step)
        report["refine"] = {
            **_search_result_dict(refined, tolerance),
            "initial_step_deg": math.degrees(initial_step),
            "shrink": REFINE_SHRINK,
            "min_step_deg": math.degrees(min_step),
        }
    return _json_text(report), EXIT_OK


def _search_result_dict(result, tolerance: float) -> dict:
    # search labels its verdicts at VIOLATION_TOL; the report labels them at tolerance
    verdict = result.best_verdict
    return {
        "best_params_rad": list(result.best_params),
        "best_params_deg": [math.degrees(v) for v in result.best_params],
        "verdict": make_verdict(verdict.inequality_id, verdict.lhs, verdict.rhs, tolerance).as_dict(),
        "evaluations": result.evaluations,
    }


def cmd_lhv_check(args) -> tuple[str, int]:
    if args.models < 1:
        raise ValueError("--models must be at least 1")
    if args.models > MAX_CHECK_MODELS:
        raise ValueError(f"--models must be at most {MAX_CHECK_MODELS}, got {args.models}")
    # the hour MAX_CHECK_MODELS allows at 8 points; a bad --points keeps the draw's message
    most = 8 * MAX_CHECK_MODELS
    if args.points <= MAX_MODEL_POINTS and args.models * args.points > most:
        raise ValueError(
            f"--models times --points must be at most {most}, got {args.models} x {args.points}"
        )
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    tolerance = _effective_tolerance(args.tolerance, None)
    max_margin, max_margin_seed, violations = check_general_bound(
        args.seed, args.models, args.points, args.bound, tolerance
    )
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
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValueError(f"--range must hold two numbers, got {text!r}") from exc
    # the degree coordinates are tabulated across hi - lo, so it must be finite too
    if not math.isfinite(hi - lo) or lo == hi:
        raise ValueError(
            f"--range must hold two distinct finite numbers a finite width apart, got {text!r}"
        )
    # the sweep runs in radians, where two subnormal degree values can round equal
    if math.radians(lo) == math.radians(hi):
        raise ValueError(f"--range must hold endpoints that stay distinct in radians, got {text!r}")
    return lo, hi


def cmd_sweep(args) -> tuple[str, int]:
    data, base_deg, _ = load_scenario(args.scenario)
    if base_deg is None:
        raise ValueError(
            "sweep needs an angle-parameterized scenario: kind ghz, or kind epr with angles_deg"
        )
    space = parameter_space(SCENARIOS[data["kind"]][1])
    inequality_id = _inequality_for_scenario(data, args.inequality)
    tolerance = _effective_tolerance(args.tolerance, data.get("tolerance"))
    lo_deg, hi_deg = _parse_range(args.sweep_range)
    base_rad = [math.radians(v) for v in base_deg]
    span_rad = (math.radians(lo_deg), math.radians(hi_deg))
    rows = sweep(inequality_id, space, base_rad, args.axis, span_rad, args.steps)
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
    # the range test also refuses nan and any int too large for a float
    if not _is_number(value) or not 0.0 < value <= sys.float_info.max:
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


# built once: parse_args leaves the parser as it found it, so every call shares it
_PARSER = _build_parser()


def _joined_range(argv: list[str]) -> list[str]:
    """argv with sweep's `--range LO:HI` written `--range=LO:HI`.

    argparse reads a separate value starting with "-", such as -90:90, as a
    flag; joined, it is the value.  A value not starting with "-" parses the
    same either way, and a following long option is left apart.
    """
    if argv[:1] != ["sweep"]:
        return argv
    joined = []
    for token in argv:
        if joined[-1:] == ["--range"] and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # --version and --help exit through SystemExit; hand its code back instead
        try:
            args = _PARSER.parse_args(_joined_range(argv))
        except SystemExit as exc:
            return exc.code
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

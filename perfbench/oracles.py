"""Analytic checks of every report the benchmark receives.

Nothing here calls into belllab: profiles come from the closed forms of the
singlet and four-spin states, margins from the inequality formulas, lattice
optima from known suprema, and hidden-variable margins from an independent
numpy computation of the weighted covariance (the Cauchy-Schwarz form of the
general bound).  Each check returns None when the report holds and a short
reason string when it does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import lattice_size

REL_TOL = 1e-9

#: Suprema of each inequality family over real measurement geometries.
CHSH_OPTIMUM_MARGIN = 2.0 * math.sqrt(2.0) - 2.0  # Tsirelson bound minus 2
DISPERSION_FREE_OPTIMUM_MARGIN = 12.0

# Reference configurations of `reproduce`, restated from the published account.
REFERENCE_EPR_DOT_ANGLES_DEG = {"ab": 120.0, "ac": 30.0, "ad": 120.0,
                                "bc": 140.0, "bd": 160.0, "cd": 45.0}
REFERENCE_GHZ_ANGLES_DEG = (45.0, 60.0, 120.0, 150.0)

PROFILE_KEYS = ("e_ac", "e_ad", "e_bc", "e_bd", "e_ab", "e_cd",
                "var_a", "var_b", "var_c", "var_d")


class OracleError(Exception):
    pass


def _reject_constant(name):
    raise OracleError(f"non-finite JSON constant {name}")


def parse_strict(text: str):
    """json.loads that refuses NaN/Infinity tokens and overflowing numbers."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OracleError(f"invalid JSON: {exc}") from exc
    _require_finite(data)
    return data


def _require_finite(value) -> None:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OracleError(f"non-finite number {value!r}")
    elif isinstance(value, dict):
        for item in value.values():
            _require_finite(item)
    elif isinstance(value, list):
        for item in value:
            _require_finite(item)


def _close(got, want, what: str, scale: float = 1.0) -> None:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise OracleError(f"{what} is not a number: {got!r}")
    if not abs(got - want) <= REL_TOL * max(1.0, abs(want), scale):
        raise OracleError(f"{what} = {got!r}, expected {want!r}")


def _equal(got, want, what: str) -> None:
    if got != want:
        raise OracleError(f"{what} = {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Closed forms.


def _family(inequality: str) -> str:
    if inequality == "chsh":
        return "chsh"
    if inequality.endswith("dispersion_free"):
        return "dispersion_free"
    return "general"


def terms(inequality: str, p: dict) -> tuple[float, float]:
    """(lhs, rhs) of an inequality on a profile dict."""
    family = _family(inequality)
    if family == "chsh":
        return abs(p["e_ac"] + p["e_ad"] + p["e_bc"] - p["e_bd"]), 2.0
    combination = p["e_ac"] + p["e_ad"] - p["e_bc"] - p["e_bd"]
    if family == "dispersion_free":
        return combination * combination + 4.0 * p["e_ab"] * p["e_cd"], 0.0
    rhs = (p["var_a"] + p["var_b"] - 2.0 * p["e_ab"]) * (p["var_c"] + p["var_d"] + 2.0 * p["e_cd"])
    return combination * combination, rhs


def _unit_profile(e_ac, e_ad, e_bc, e_bd, e_ab, e_cd) -> dict:
    return {"e_ac": e_ac, "e_ad": e_ad, "e_bc": e_bc, "e_bd": e_bd, "e_ab": e_ab, "e_cd": e_cd,
            "var_a": 1.0, "var_b": 1.0, "var_c": 1.0, "var_d": 1.0}


def pair_dots(a, b, c, d) -> list[float]:
    """Dot products in (ab, ac, ad, bc, bd, cd) order."""
    return [float(np.dot(x, y)) for x, y in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d))]


def singlet_profile_from_dots(dots) -> dict:
    """Singlet correlations: E(X,Y) = -x.y across the pair, +x.y on one side."""
    ab, ac, ad, bc, bd, cd = dots
    return _unit_profile(-ac, -ad, -bc, -bd, ab, cd)


def four_spin_profile(alpha, beta, gamma, delta) -> dict:
    """Pair-product correlations of (|++--> - |--++>)/sqrt(2) at planar angles (radians)."""
    ac, ad, bc, bd, ab, cd = (math.cos(2.0 * (x - y)) for x, y in (
        (alpha, gamma), (alpha, delta), (beta, gamma), (beta, delta), (alpha, beta), (gamma, delta)))
    return _unit_profile(-ac, -ad, -bc, -bd, ab, cd)


def _planar(theta: float):
    return np.array([math.cos(theta), math.sin(theta), 0.0])


def _spherical(theta: float, phi: float):
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def space_profile(space: str, coords) -> dict:
    if space == "planar-epr":
        return singlet_profile_from_dots(pair_dots(*(_planar(x) for x in coords)))
    if space == "ghz-angles":
        return four_spin_profile(*coords)
    theta_a, theta_b, phi_b, theta_c, phi_c, theta_d, phi_d = coords
    return singlet_profile_from_dots(pair_dots(
        _spherical(theta_a, 0.0), _spherical(theta_b, phi_b),
        _spherical(theta_c, phi_c), _spherical(theta_d, phi_d)))


def check_verdict(verdict: dict, inequality: str, profile: dict, tolerance: float) -> None:
    _equal(verdict.get("inequality"), inequality, "verdict inequality")
    lhs, rhs = terms(inequality, profile)
    scale = max(abs(lhs), abs(rhs))
    _close(verdict["lhs"], lhs, f"{inequality} lhs", scale)
    _close(verdict["rhs"], rhs, f"{inequality} rhs", scale)
    _close(verdict["margin"], lhs - rhs, f"{inequality} margin", scale)
    _equal(verdict["violated"], verdict["margin"] > tolerance, f"{inequality} violated")


def check_profile(got: dict, want: dict) -> None:
    _equal(sorted(got), sorted(PROFILE_KEYS), "profile keys")
    scale = max(abs(v) for v in want.values())
    for key in PROFILE_KEYS:
        _close(got[key], want[key], f"profile {key}", scale)


def check_realizability(block: dict, dots) -> None:
    ab, ac, ad, bc, bd, cd = dots
    gram = np.array([[1.0, ab, ac, ad], [ab, 1.0, bc, bd], [ac, bc, 1.0, cd], [ad, bd, cd, 1.0]])
    eigenvalues = np.linalg.eigvalsh(gram)[::-1]
    for got, want in zip(block["eigenvalues"], eigenvalues):
        _close(got, float(want), "gram eigenvalue")
    # classify only away from the tolerance edge, where roundoff cannot flip it
    tol = block["tolerance"]
    if abs(eigenvalues[-1] + tol) > 1e-12:
        _equal(block["psd"], bool(eigenvalues[-1] >= -tol), "realizability psd")


# ---------------------------------------------------------------------------
# Lattice search.


def expected_optimum(inequality: str) -> float:
    family = _family(inequality)
    if family == "chsh":
        return CHSH_OPTIMUM_MARGIN
    if family == "dispersion_free":
        return DISPERSION_FREE_OPTIMUM_MARGIN
    return 0.0


def _check_point(result: dict, spec: dict, tolerance: float) -> float:
    coords = result["best_params_rad"]
    for rad, deg in zip(coords, result["best_params_deg"]):
        _close(deg, math.degrees(rad), "best_params_deg")
    check_verdict(result["verdict"], spec["inequality"],
                  space_profile(spec["space"], coords), tolerance)
    return result["verdict"]["margin"]


def check_search(report: dict, spec: dict) -> None:
    for key in ("inequality", "space", "resolution_deg"):
        _equal(report[key], spec[key], key)
    tolerance = report["tolerance"]
    grid = report["grid"]
    _equal(grid["evaluations"], lattice_size(spec["space"], spec["resolution_deg"]),
           "grid evaluations")
    margin = _check_point(grid, spec, tolerance)
    optimum = expected_optimum(spec["inequality"])
    if spec["refine"]:
        # the refined lattice misses the optimum; refinement may only climb toward it
        if margin > optimum + REL_TOL:
            raise OracleError(f"grid margin {margin!r} exceeds the supremum {optimum!r}")
        refined = _check_point(report["refine"], spec, tolerance)
        if refined < margin or refined > optimum + REL_TOL:
            raise OracleError(f"refined margin {refined!r} outside [{margin!r}, {optimum!r}]")
    else:
        _equal(report["refine"], None, "refine block")
        if abs(margin - optimum) > REL_TOL:
            raise OracleError(f"grid optimum margin {margin!r}, expected {optimum!r}")


# ---------------------------------------------------------------------------
# Hidden-variable fuzzing.


def lhv_margins(first_seed: int, models: int, points: int, bound: float):
    """General-bound margins and right-hand sides of models first_seed .. + models - 1.

    Redraws each model the documented way (weights uniform then normalized,
    tables uniform in [-bound, bound], one default_rng per model seed) and
    evaluates inner^2 - |u|^2 |v|^2 with u = A - B and v = C + D centered.
    """
    margins, rhs = np.empty(models), np.empty(models)
    chunk = max(1, 16384 // points)  # keeps the batch arrays near 2 MB
    for start in range(0, models, chunk):
        count = min(chunk, models - start)
        weights = np.empty((count, points))
        tables = np.empty((count, 4, points))
        for k in range(count):
            rng = np.random.default_rng(first_seed + start + k)
            w = rng.random(points)
            weights[k] = w / w.sum()
            tables[k] = rng.uniform(-bound, bound, size=(4, points))
        u = tables[:, 0] - tables[:, 1]
        v = tables[:, 2] + tables[:, 3]
        u = u - np.einsum("kp,kp->k", weights, u)[:, None]
        v = v - np.einsum("kp,kp->k", weights, v)[:, None]
        inner = np.einsum("kp,kp->k", weights, u * v)
        norm_u = np.einsum("kp,kp->k", weights, u * u)
        norm_v = np.einsum("kp,kp->k", weights, v * v)
        rhs[start:start + count] = norm_u * norm_v
        margins[start:start + count] = inner * inner - norm_u * norm_v
    return margins, rhs


def check_lhv(report: dict, spec: dict) -> None:
    for key in ("models", "points", "bound", "seed"):
        _equal(report[key], spec[key], key)
    _equal(report["violations"], 0, "violations")
    _equal(report["passed"], True, "passed")
    tolerance = report["tolerance"]
    if not report["max_margin"] <= tolerance:
        raise OracleError(f"max_margin {report['max_margin']!r} above tolerance {tolerance!r}")
    margins, rhs = lhv_margins(spec["seed"], spec["models"], spec["points"], spec["bound"])
    offset = report["max_margin_seed"] - spec["seed"]
    if not 0 <= offset < spec["models"]:
        raise OracleError(f"max_margin_seed {report['max_margin_seed']!r} outside the run")
    _close(report["max_margin"], float(margins[offset]), "max_margin at its seed",
           float(rhs[offset]))
    best = int(np.argmax(margins))
    _close(report["max_margin"], float(margins[best]), "max_margin over all models",
           float(rhs[best]))


# ---------------------------------------------------------------------------
# Scenario commands.


def _rad(degs) -> list[float]:
    return [math.radians(v) for v in degs]


def scenario_profile(data: dict) -> dict:
    """Profile a scenario must produce, from the closed forms."""
    kind = data["kind"]
    block = data[kind]
    if kind == "epr":
        return singlet_profile_from_dots(_scenario_dots(data))
    if kind == "ghz":
        return four_spin_profile(*_rad(block["angles_deg"]))
    if kind == "profile":
        return {key: float(block[key]) for key in PROFILE_KEYS}
    w = np.array(block["weights"])
    tables = {name: np.array(block[name]) for name in "ABCD"}
    mean = {name: float(w @ t) for name, t in tables.items()}

    def cov(x, y):
        return float(w @ ((tables[x] - mean[x]) * (tables[y] - mean[y])))

    profile = {f"e_{x.lower()}{y.lower()}": cov(x, y)
               for x, y in ("AC", "AD", "BC", "BD", "AB", "CD")}
    profile.update({f"var_{x.lower()}": cov(x, x) for x in "ABCD"})
    return profile


def _scenario_dots(data: dict):
    block = data["epr"]
    if "dots" in block:
        return block["dots"]
    if "angles_deg" in block:
        return pair_dots(*(_planar(x) for x in _rad(block["angles_deg"])))
    return pair_dots(*(np.array(v) for v in block["vectors"]))


def check_evaluate(report: dict, spec: dict) -> None:
    data = spec["scenario"]
    _equal(report["scenario"], data, "scenario echo")
    _close(report["tolerance"], spec["tolerance"], "tolerance")
    want = scenario_profile(data)
    check_profile(report["profile"], want)
    _equal(len(report["verdicts"]), 1, "verdict count")
    check_verdict(report["verdicts"][0], spec["inequality"], report["profile"], spec["tolerance"])
    if data["kind"] == "epr":
        check_realizability(report["realizability"], _scenario_dots(data))
    else:
        _equal(report["realizability"], None, "realizability")


def check_reproduce(report: dict, spec: dict) -> None:
    tolerance = report["tolerance"]
    if spec["target"] == "epr":
        dots = [math.cos(math.radians(REFERENCE_EPR_DOT_ANGLES_DEG[k]))
                for k in ("ab", "ac", "ad", "bc", "bd", "cd")]
        want = singlet_profile_from_dots(dots)
        ids = ("epr_dispersion_free", "epr_general")
        check_realizability(report["realizability"], dots)
    else:
        want = four_spin_profile(*_rad(REFERENCE_GHZ_ANGLES_DEG))
        ids = ("ghz_dispersion_free", "ghz_general")
        p = report["profile"]
        combination = p["e_ac"] - p["e_ad"] + p["e_bc"] - p["e_bd"]
        _close(report["sign_variant"]["combination"], combination, "sign_variant combination")
    check_profile(report["profile"], want)
    for verdict, inequality in zip(report["verdicts"], ids, strict=True):
        check_verdict(verdict, inequality, report["profile"], tolerance)
    general = report["verdicts"][1]
    ledger = [entry["computed_value"] for entry in report["discrepancies"]]
    _equal(ledger, [general["lhs"], general["rhs"]], "discrepancy ledger")


def _sweep_rows(text: str, spec: dict) -> list[tuple[float, float, float, float]]:
    if spec["format"] == "json":
        report = parse_strict(text)
        _equal(report["inequality"], spec["inequality"], "sweep inequality")
        _equal(report["steps"], spec["steps"], "sweep steps")
        return [(row["coord_deg"], row["lhs"], row["rhs"], row["margin"])
                for row in report["series"]]
    lines = text.splitlines()
    _equal(lines[0] if lines else None, "coord,lhs,rhs,margin", "csv header")
    rows = []
    for line in lines[1:]:
        values = [float(cell) for cell in line.split(",")]
        if len(values) != 4 or not all(math.isfinite(v) for v in values):
            raise OracleError(f"bad csv row {line!r}")
        rows.append(tuple(values))
    return rows


def check_sweep(text: str, spec: dict) -> None:
    data = spec["scenario"]
    rows = _sweep_rows(text, spec)
    lo, hi = spec["range_deg"]
    coords = np.linspace(lo, hi, spec["steps"])
    _equal(len(rows), spec["steps"], "sweep rows")
    base = list(data[data["kind"]]["angles_deg"])
    space = "ghz-angles" if data["kind"] == "ghz" else "planar-epr"
    for (coord, lhs, rhs, margin), want_coord in zip(rows, coords):
        _close(coord, float(want_coord), "sweep coordinate")
        angles = base.copy()
        angles[spec["axis"]] = coord
        want_lhs, want_rhs = terms(spec["inequality"], space_profile(space, _rad(angles)))
        scale = max(abs(want_lhs), abs(want_rhs))
        _close(lhs, want_lhs, "sweep lhs", scale)
        _close(rhs, want_rhs, "sweep rhs", scale)
        _close(margin, want_lhs - want_rhs, "sweep margin", scale)


def check_command(command, code: int, out: str) -> str | None:
    """Judge one command's exit code and stdout; None when correct."""
    try:
        if code != command.expect_exit:
            raise OracleError(f"exit code {code}, expected {command.expect_exit}")
        if command.kind == "malformed":
            _equal(out, "", "stdout of a refused command")
        elif command.kind == "sweep":
            check_sweep(out, command.spec)
        else:
            report = parse_strict(out)
            {
                "search": check_search,
                "lhv-check": check_lhv,
                "evaluate": check_evaluate,
                "reproduce": check_reproduce,
            }[command.kind](report, command.spec)
    except OracleError as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None

"""Acceptance gate: eleven numbered criteria with stated tolerances.

Each test prints one `ACCEPTANCE n: PASS/FAIL - description` line and
asserts the same condition, so the gate reads off either the printed
lines (pytest -s) or the per-test verdicts (pytest -v).
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belllab.cli as cli
from belllab.geometry import Direction, gram_of
from belllab.inequalities import (
    CorrelationProfile,
    epr_profile_from_dots,
    ghz_profile_from_angles,
    verdict_for_profile,
)
from belllab.lhv import lhv_profile, random_model
from belllab.quantum import (
    covariance_matrix,
    epr_profile,
    epr_state,
    ghz_observables,
    ghz_state,
    pauli_dot,
)
from belllab.search import evaluate_point, grid_search, parameter_space

REFERENCE_EPR_DOTS = cli.DotProductConfig(
    ab=math.cos(math.radians(120.0)),
    ac=math.cos(math.radians(30.0)),
    ad=math.cos(math.radians(120.0)),
    bc=math.cos(math.radians(140.0)),
    bd=math.cos(math.radians(160.0)),
    cd=math.cos(math.radians(45.0)),
)
REFERENCE_GHZ_ANGLES = tuple(math.radians(v) for v in (45.0, 60.0, 120.0, 150.0))

PLANAR = parameter_space("planar_epr")
GHZ_SPACE = parameter_space("ghz_angles")


def _criterion(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    assert ok, f"ACCEPTANCE {number}: {status} - {description}"


def test_acceptance_01_epr_dispersion_free_violation():
    verdict = cli.verdict_for_profile(
        epr_profile_from_dots(REFERENCE_EPR_DOTS), "epr_dispersion_free"
    )
    ok = abs(verdict.margin - 2.87798) <= 1e-5 and verdict.violated
    _criterion(
        1,
        f"EPR dispersion-free margin {verdict.margin:.6f} = 2.87798 +/- 1e-5, violated",
        ok,
    )


def test_acceptance_02_epr_general_no_violation():
    verdict = cli.verdict_for_profile(epr_profile_from_dots(REFERENCE_EPR_DOTS), "epr_general")
    report = cli._reproduce_epr(1e-9)
    published = {d["location"]: d["published_value"] for d in report["discrepancies"]}
    ok = (
        abs(verdict.rhs - 10.2426) <= 1e-3
        and abs(verdict.lhs - 4.2922) <= 1e-4
        and not verdict.violated
        and published.get("epr general lhs") == 0.38
        and published.get("epr general rhs") == 10.2
    )
    _criterion(
        2,
        f"EPR general lhs {verdict.lhs:.5f} = 4.2922 +/- 1e-4, rhs {verdict.rhs:.5f} = "
        "10.2426 +/- 1e-3, not violated; published 0.38 ledgered",
        ok,
    )


def test_acceptance_03_ghz_dispersion_free_violation():
    verdict = cli.verdict_for_profile(
        ghz_profile_from_angles(*REFERENCE_GHZ_ANGLES), "ghz_dispersion_free"
    )
    ok = abs(verdict.margin - 1.78590) <= 1e-5 and verdict.violated
    _criterion(
        3,
        f"GHZ dispersion-free margin {verdict.margin:.6f} = 1.78590 +/- 1e-5, violated",
        ok,
    )


def test_acceptance_04_ghz_general_no_violation():
    verdict = cli.verdict_for_profile(
        ghz_profile_from_angles(*REFERENCE_GHZ_ANGLES), "ghz_general"
    )
    report = cli._reproduce_ghz(1e-9)
    published = {d["location"]: d["published_value"] for d in report["discrepancies"]}
    ok = (
        abs(verdict.lhs - 0.05385) <= 1e-5
        and abs(verdict.rhs - 0.80385) <= 1e-5
        and not verdict.violated
        and published.get("ghz general lhs") == 0.0275
        and published.get("ghz general rhs") == 6.804
    )
    _criterion(
        4,
        f"GHZ general lhs {verdict.lhs:.6f} = 0.05385 +/- 1e-5, rhs {verdict.rhs:.6f} = "
        "0.80385 +/- 1e-5, not violated; published 0.0275 and 6.804 ledgered",
        ok,
    )


def test_acceptance_05_unit_variances():
    rng = np.random.default_rng(2024)
    singlet = ghz = True
    state = epr_state()
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        direction = Direction(*(v / np.linalg.norm(v)))
        var = covariance_matrix(state, [np.kron(pauli_dot(direction), np.eye(2))])[0, 0]
        worst = max(worst, abs(var - 1.0))
        singlet = singlet and abs(var - 1.0) <= 1e-12
    four_spin = ghz_state()
    for _ in range(25):
        sigma = covariance_matrix(four_spin, ghz_observables(*rng.uniform(0.0, math.pi, size=4)))
        for var in np.diag(sigma):
            worst = max(worst, abs(var - 1.0))
            ghz = ghz and abs(var - 1.0) <= 1e-12
    ok = singlet and ghz
    _criterion(
        5,
        f"spin and pair-product variances all 1 within 1e-12 (worst drift {worst:.2e})",
        ok,
    )


def test_acceptance_06_matrix_closed_form_agreement():
    rng = np.random.default_rng(77)
    fields = ("e_ac", "e_ad", "e_bc", "e_bd", "e_ab", "e_cd",
              "var_a", "var_b", "var_c", "var_d")
    worst = 0.0
    for _ in range(500):
        vs = rng.normal(size=(4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        directions = [Direction(*row) for row in vs]
        matrix_profile = epr_profile(*directions)
        closed = epr_profile_from_dots(gram_of(*directions))
        for field in fields:
            worst = max(worst, abs(getattr(matrix_profile, field) - getattr(closed, field)))
    for _ in range(500):
        angles = rng.uniform(0.0, math.pi, size=4)
        matrix_profile = cli.ghz_profile(*angles)
        closed = ghz_profile_from_angles(*angles)
        for field in fields:
            worst = max(worst, abs(getattr(matrix_profile, field) - getattr(closed, field)))
    ok = worst <= 1e-10
    _criterion(
        6,
        f"1000 random matrix profiles match closed forms within 1e-10 (worst {worst:.2e})",
        ok,
    )


def test_acceptance_07_lhv_universality():
    worst = -math.inf
    ok = True
    for seed in range(10000):
        margin = verdict_for_profile(lhv_profile(random_model(seed, 8, 5.0)), "general").margin
        worst = max(worst, margin)
        ok = ok and margin <= 1e-9
    _criterion(
        7,
        f"10^4 seeded random hidden-variable models satisfy the general bound "
        f"(max margin {worst:.3e} <= 1e-9)",
        ok,
    )


def test_acceptance_08_quantum_safety_of_general_bound():
    epr_result = grid_search("general", PLANAR, math.radians(20.0))
    ghz_result = grid_search("ghz_general", GHZ_SPACE, math.radians(10.0))
    epr_saturation = evaluate_point("general", PLANAR, (0.0, math.pi, 0.0, 0.0))
    ghz_saturation = evaluate_point("ghz_general", GHZ_SPACE, (0.0, math.pi / 2.0, 0.0, 0.0))
    ok = (
        epr_result.evaluations >= 100000
        and ghz_result.evaluations >= 100000
        and epr_result.best_verdict.margin <= 1e-9
        and ghz_result.best_verdict.margin <= 1e-9
        and abs(epr_saturation.margin) <= 1e-9
        and abs(ghz_saturation.margin) <= 1e-9
    )
    _criterion(
        8,
        f"{epr_result.evaluations} singlet and {ghz_result.evaluations} four-spin grid "
        f"points never violate the general bound (max margins "
        f"{epr_result.best_verdict.margin:.2e}, {ghz_result.best_verdict.margin:.2e}); "
        "saturated at b = -a, d = c",
        ok,
    )


def test_acceptance_09_dispersion_free_search_supremum():
    result = grid_search("dispersion_free", PLANAR, math.radians(15.0))
    a, b, c, d = result.best_params
    aligned = (
        abs(math.cos(a - b) + 1.0) <= 1e-9  # b opposite a
        and abs(math.cos(c - d) - 1.0) <= 1e-9  # d aligned with c
        and abs(abs(math.cos(a - c)) - 1.0) <= 1e-9  # c parallel or antiparallel to a
    )
    ok = abs(result.best_verdict.margin - 12.0) <= 1e-9 and aligned
    _criterion(
        9,
        f"15 degree lattice scan of the dispersion-free bound peaks at margin "
        f"{result.best_verdict.margin:.10f} = 12 +/- 1e-9 on a degenerate aligned "
        "configuration",
        ok,
    )


def test_acceptance_10_chsh_baseline():
    result = grid_search("chsh", PLANAR, math.radians(15.0))
    quantum_ok = abs(result.best_verdict.lhs - 2.0 * math.sqrt(2.0)) <= 1e-6
    worst = -math.inf
    classical_ok = True
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        a, b, c, d = signs
        profile = CorrelationProfile(
            e_ac=a * c, e_ad=a * d, e_bc=b * c, e_bd=b * d, e_ab=a * b, e_cd=c * d,
            var_a=0.0, var_b=0.0, var_c=0.0, var_d=0.0,
        )
        lhs = verdict_for_profile(profile, "chsh").lhs
        worst = max(worst, lhs)
        classical_ok = classical_ok and lhs <= 2.0
    ok = quantum_ok and classical_ok
    _criterion(
        10,
        f"planar chsh optimum {result.best_verdict.lhs:.7f} = 2*sqrt(2) +/- 1e-6; all 16 "
        f"sign assignments stay at lhs <= 2 (max {worst})",
        ok,
    )


def test_acceptance_11_byte_identical_reruns(tmp_path, capsys):
    argv_sets = [
        ["lhv-check", "--models", "500", "--points", "8", "--bound", "5.0", "--seed", "0"],
        [
            "search", "--inequality", "dispersion_free", "--space", "planar-epr",
            "--resolution", "15", "--refine",
        ],
    ]
    ok = True
    for index, argv in enumerate(argv_sets):
        first = tmp_path / f"first{index}.json"
        second = tmp_path / f"second{index}.json"
        ok = ok and cli.main(argv + ["--out", str(first)]) == 0
        ok = ok and cli.main(argv + ["--out", str(second)]) == 0
        ok = ok and first.read_bytes() == second.read_bytes()
        ok = ok and json.loads(first.read_text())["command"] in ("lhv_check", "search")
    # one process shares its parser between commands, a refused one included
    scenario = tmp_path / "ghz.json"
    scenario.write_text(json.dumps(
        {"kind": "ghz", "inequality": "ghz_general", "ghz": {"angles_deg": [45, 60, 120, 150]}}
    ))
    evaluate = ["evaluate", "--scenario", str(scenario)]
    refused = ["search", "--inequality", "chsh", "--space", "no-such-space"]
    capsys.readouterr()
    runs = []
    for argv in (evaluate, refused, evaluate):
        code = cli.main(argv)
        runs.append((code, capsys.readouterr().out))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-m", "belllab.cli", *evaluate],
        capture_output=True, text=True, env=env, timeout=120,
    )
    ok = ok and fresh.returncode == 0 and runs[1] == (1, "")
    ok = ok and runs[0] == runs[2] == (0, fresh.stdout)
    _criterion(
        11,
        "lhv-check and search reruns with identical flags produce byte-identical reports; "
        "an evaluate before and after a refused command matches a fresh process byte for byte",
        ok,
    )

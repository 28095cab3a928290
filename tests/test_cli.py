"""Command-line behavior: reports, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import belllab.cli as cli
import belllab.lhv as lhv
from belllab.errors import NumericsError
from belllab.inequalities import VIOLATION_TOL, verdict_for_profile
from belllab.lhv import MAX_CHECK_MODELS, lhv_profile, random_model
from belllab.search import MAX_SWEEP_STEPS, parameter_space

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_reproduce_epr_report(capsys):
    code, out, err = run(capsys, "reproduce", "epr")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["target"] == "epr"
    assert [v["inequality"] for v in report["verdicts"]] == [
        "epr_dispersion_free",
        "epr_general",
    ]
    df, general = report["verdicts"]
    assert df["violated"] is True
    assert general["violated"] is False
    # the published lhs and rhs figures ride along for comparison
    published = {d["location"]: d["published_value"] for d in report["discrepancies"]}
    assert published == {"epr general lhs": 0.38, "epr general rhs": 10.2}
    assert report["realizability"]["psd"] is False


def test_reproduce_ghz_report(capsys):
    code, out, err = run(capsys, "reproduce", "ghz")
    assert code == 0
    report = json.loads(out)
    assert report["angles_deg"] == [45.0, 60.0, 120.0, 150.0]
    df, general = report["verdicts"]
    assert df["inequality"] == "ghz_dispersion_free"
    assert df["violated"] is True
    assert general["violated"] is False
    assert report["sign_variant"]["combination"] == pytest.approx(-0.5, abs=1e-12)
    published = {d["location"]: d["published_value"] for d in report["discrepancies"]}
    assert published == {"ghz general lhs": 0.0275, "ghz general rhs": 6.804}


def test_evaluate_ghz_scenario(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "ghz.json",
        {"kind": "ghz", "inequality": "ghz_dispersion_free", "ghz": {"angles_deg": [45, 60, 120, 150]}},
    )
    code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    verdict = report["verdicts"][0]
    assert verdict["inequality"] == "ghz_dispersion_free"
    assert verdict["margin"] == pytest.approx(1.7858983848622427, abs=1e-9)
    assert verdict["violated"] is True
    assert report["angles_rad"][0] == pytest.approx(math.radians(45.0), abs=1e-15)
    assert report["realizability"] is None


def test_evaluate_epr_vectors_scenario(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "vec.json",
        {
            "kind": "epr",
            "inequality": "epr_general",
            "epr": {
                "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]]
            },
        },
    )
    code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["realizability"]["psd"] is True
    assert report["verdicts"][0]["inequality"] == "epr_general"


def test_evaluate_epr_dots_scenario_flags_unrealizable_input(capsys, tmp_path):
    # mutually parallel-and-antiparallel claims cannot come from vectors,
    # but the closed-form evaluation still runs
    path = write_scenario(
        tmp_path,
        "dots.json",
        {
            "kind": "epr",
            "inequality": "epr_dispersion_free",
            "epr": {"dots": [1.0, 1.0, 0.0, -1.0, 0.0, 0.0]},
        },
    )
    code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["realizability"]["psd"] is False


def test_evaluate_profile_scenario(capsys, tmp_path):
    profile = {
        "e_ac": 0.3,
        "e_ad": -0.2,
        "e_bc": 0.1,
        "e_bd": 0.4,
        "e_ab": -0.5,
        "e_cd": 0.25,
        "var_a": 1.0,
        "var_b": 1.0,
        "var_c": 1.0,
        "var_d": 1.0,
    }
    path = write_scenario(
        tmp_path, "profile.json", {"kind": "profile", "inequality": "general", "profile": profile}
    )
    code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"][0]["lhs"] == pytest.approx(0.16, abs=1e-12)


def test_evaluate_lhv_scenario(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "lhv.json",
        {
            "kind": "lhv",
            "inequality": "general",
            "lhv": {
                "weights": [0.5, 0.5],
                "A": [1.0, -1.0],
                "B": [1.0, -1.0],
                "C": [1.0, -1.0],
                "D": [1.0, -1.0],
            },
        },
    )
    code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"][0]["violated"] is False


def test_inequality_flag_overrides_scenario(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "ghz.json",
        {"kind": "ghz", "inequality": "ghz_dispersion_free", "ghz": {"angles_deg": [45, 60, 120, 150]}},
    )
    code, out, _ = run(capsys, "evaluate", "--scenario", path, "--inequality", "ghz_general")
    assert code == 0
    assert json.loads(out)["verdicts"][0]["inequality"] == "ghz_general"


def test_kind_specific_inequality_on_wrong_kind_is_an_input_error(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "ghz.json",
        {"kind": "ghz", "inequality": "epr_general", "ghz": {"angles_deg": [0, 10, 20, 30]}},
    )
    code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 1
    assert out == ""
    assert "epr_general" in err


def test_missing_inequality_is_an_input_error(capsys, tmp_path):
    path = write_scenario(tmp_path, "bare.json", {"kind": "ghz", "ghz": {"angles_deg": [0, 10, 20, 30]}})
    code, _, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 1
    assert "--inequality" in err


def test_tolerance_flag_beats_scenario_tolerance(capsys, tmp_path):
    # margin is about 1.786; a huge scenario tolerance suppresses the
    # violation unless the flag overrides it back down
    payload = {
        "kind": "ghz",
        "inequality": "ghz_dispersion_free",
        "tolerance": 10.0,
        "ghz": {"angles_deg": [45, 60, 120, 150]},
    }
    path = write_scenario(tmp_path, "tol.json", payload)
    code, out, _ = run(capsys, "evaluate", "--scenario", path)
    assert code == 0
    assert json.loads(out)["verdicts"][0]["violated"] is False
    code, out, _ = run(capsys, "evaluate", "--scenario", path, "--tolerance", "1e-9")
    assert code == 0
    assert json.loads(out)["verdicts"][0]["violated"] is True


@pytest.mark.parametrize("value", ["inf", "nan", "1e400", "-inf", "0", "-1e-9"])
def test_tolerance_flag_must_be_finite_and_positive(capsys, value):
    # an infinite tolerance would report no violation at all
    code, out, err = run(capsys, "reproduce", "epr", "--tolerance", value)
    assert code == 1
    assert out == ""
    assert "--tolerance" in err


@pytest.mark.parametrize(
    "literal",
    ["1e400", "Infinity", "NaN", "1" + "0" * 400, "0", "true"],
    ids=["overflow", "infinity", "nan", "huge-int", "zero", "bool"],
)
def test_scenario_tolerance_must_be_finite_and_positive(capsys, tmp_path, literal):
    # written by hand: json.dumps cannot produce an overflowing literal
    path = tmp_path / "tol.json"
    path.write_text(
        '{"kind": "ghz", "inequality": "ghz_dispersion_free", "tolerance": %s, '
        '"ghz": {"angles_deg": [45, 60, 120, 150]}}' % literal
    )
    code, out, err = run(capsys, "evaluate", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert "scenario tolerance" in err


_PROFILE_TEXT = ", ".join(
    f'"{key}": {"%s" if key == "e_ac" else "0"}' for key in cli.PROFILE_KEYS
)


@pytest.mark.parametrize(
    "template, where, pick",
    [
        ('"ghz": {"angles_deg": [%s, 60, 120, 150]}', "ghz.angles_deg[0]",
         lambda s: s["ghz"]["angles_deg"][0]),
        ('"profile": {' + _PROFILE_TEXT + "}", "profile.e_ac", lambda s: s["profile"]["e_ac"]),
        ('"lhv": {"weights": [1], "A": [%s], "B": [0], "C": [0], "D": [0]}', "lhv.A[0]",
         lambda s: s["lhv"]["A"][0]),
    ],
    ids=["ghz-angle", "profile-field", "lhv-table"],
)
def test_scenario_rejects_integers_too_large_for_a_float(capsys, tmp_path, template, where, pick):
    kind = where.split(".")[0]
    # written by hand: the integer must reach the parser as a JSON integer literal
    path = tmp_path / "scenario.json"
    text = '{"kind": "%s", "inequality": "general", %s}' % (kind, template)
    for literal, problem in [
        ("1" + "0" * 400, "is an integer too large for a float"),
        # float literals that overflow, and the non-standard tokens json accepts
        ("1e400", "is not a finite number"),
        ("-Infinity", "is not a finite number"),
        ("NaN", "is not a finite number"),
    ]:
        path.write_text(text % literal)
        code, out, err = run(capsys, "evaluate", "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: scenario {where} {problem}"]
    # an integer in range still loads, and the scenario echo keeps it an integer
    path.write_text(text % "45")
    code, out, _ = run(capsys, "evaluate", "--scenario", str(path))
    assert code == 0
    assert repr(pick(json.loads(out)["scenario"])) == "45"


def test_overflowing_lhv_model_names_its_statistics(capsys, tmp_path):
    model = {"weights": [0.5, 0.5], "A": [1e200, -1e200], "B": [0, 0], "C": [0, 0], "D": [0, 0]}
    path = write_scenario(
        tmp_path, "lhv.json", {"kind": "lhv", "inequality": "general", "lhv": model}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: hidden-variable model statistics")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err


def test_overflowing_profile_exits_two_without_a_report(capsys, tmp_path):
    profile = dict.fromkeys(cli.PROFILE_KEYS, 0.0)
    profile.update(e_ac=1e308, e_ad=1e308, var_a=1.0, var_b=1.0, var_c=1.0, var_d=1.0)
    path = write_scenario(
        tmp_path, "huge.json", {"kind": "profile", "inequality": "general", "profile": profile}
    )
    code, out, err = run(capsys, "evaluate", "--scenario", path)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_reports_refuse_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._json_text({"lhs": math.inf})


def test_scenario_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "ghz",\n  broken\n}\n')
    code, out, err = run(capsys, "evaluate", "--scenario", str(path))
    assert code == 1
    assert f"{path}:3:" in err


_ZERO_PROFILE = dict.fromkeys(cli.PROFILE_KEYS, 0.0)
_LHV_BLOCK = {"weights": [0.5, 0.5], "A": [1, -1], "B": [1, -1], "C": [1, -1], "D": [1, -1]}
_EPR_BLOCK_SHAPES = (
    "the epr block must hold exactly one of angles_deg (4 planar angles), "
    "vectors (4 unit vectors), or dots (6 dot products)"
)


def test_scenario_schema_errors(capsys, tmp_path):
    cases = [
        ({"kind": "nope"},
         "scenario kind must be one of ('epr', 'ghz', 'profile', 'lhv'), got 'nope'"),
        ({"kind": ["ghz"], "ghz": {"angles_deg": [1, 2, 3, 4]}},
         "scenario kind must be one of ('epr', 'ghz', 'profile', 'lhv'), got ['ghz']"),
        ({"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3]}},
         "ghz angles_deg must hold exactly 4 numbers, got 3"),
        ({"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3, "x"]}},
         "ghz angles_deg must hold only numbers"),
        ({"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3, 4], "extra": 1}},
         "the ghz block must hold exactly the key angles_deg"),
        ({"kind": "ghz", "ghz": [45, 60, 120, 150]},
         "the 'ghz' parameter block must be a JSON object"),
        ({"kind": "epr", "epr": {}}, _EPR_BLOCK_SHAPES),
        ({"kind": "epr", "epr": {"dots": [0, 0, 0], "angles_deg": [0, 0, 0, 0]}},
         _EPR_BLOCK_SHAPES),
        ({"kind": "epr", "epr": {"angles_deg": 45}}, "epr angles_deg must be a list of numbers"),
        ({"kind": "epr", "epr": {"vectors": [[1, 1, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]]}},
         "direction must have unit length, got |v|^2 = 2.0"),
        ({"kind": "epr", "epr": {"vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
         "epr vectors must be a list of 4 vectors"),
        ({"kind": "epr", "epr": {"vectors": [[1, 0, 0], [0, 1], [0, 0, 1], [-1, 0, 0]]}},
         "epr vector must hold exactly 3 numbers, got 2"),
        ({"kind": "epr", "epr": {"dots": [0.5, 1.5, 0, 0, 0, 0]}},
         "dot product ac = 1.5 is outside [-1, 1]"),
        ({"kind": "epr", "epr": {"dots": [0, 0, 0, 0, 0]}},
         "epr dots must hold exactly 6 numbers, got 5"),
        ({"kind": "profile", "profile": {"e_ac": 0.0}},
         f"the profile block must hold exactly the keys {cli.PROFILE_KEYS}"),
        ({"kind": "profile", "profile": dict(_ZERO_PROFILE, var_b=-1.0)},
         "variance var_b must be nonnegative, got -1.0"),
        ({"kind": "profile", "profile": dict(_ZERO_PROFILE, e_bd=True)},
         "profile field e_bd must be a number"),
        ({"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3, 4]}, "surprise": True},
         "scenario has unexpected keys ['surprise']"),
        ({"kind": "ghz"}, "scenario is missing its 'ghz' parameter block"),
        ({"kind": "ghz", "inequality": "bell", "ghz": {"angles_deg": [1, 2, 3, 4]}},
         f"scenario inequality must be one of {cli.INEQUALITY_IDS}, got 'bell'"),
        ({"kind": "lhv", "lhv": {"weights": [1.0], "A": [0.0], "B": [0.0], "C": [0.0]}},
         "hidden-variable model is missing keys ['D']"),
        ({"kind": "lhv", "lhv": {"weights": [0.5, 0.6], "A": [1, -1], "B": [1, -1],
                                 "C": [1, -1], "D": [1, -1]}},
         "weights must sum to 1 within 1e-12, got 1.1"),
        # every weight, table entry and bound must be a JSON number
        ({"kind": "lhv", "lhv": dict(_LHV_BLOCK, weights=["0.5", 0.5])},
         "lhv weights must hold only numbers"),
        ({"kind": "lhv", "lhv": dict(_LHV_BLOCK, A=[True, False])},
         "lhv table A must hold only numbers"),
        ({"kind": "lhv", "lhv": dict(_LHV_BLOCK, bound=True)},
         "lhv bound must be a number above 0, got True"),
        ({"kind": "lhv", "lhv": dict(_LHV_BLOCK, bound="2")},
         "lhv bound must be a number above 0, got '2'"),
        ({"kind": "lhv", "lhv": dict(_LHV_BLOCK, D=[1, -1, 0])},
         "lhv table D must hold exactly 2 numbers, got 3"),
        ({"kind": "lhv", "lhv": dict(_LHV_BLOCK, C=[1, -2.5], bound=2)},
         "table C exceeds declared bound 2.0"),
        ({"kind": "lhv", "lhv": dict(_LHV_BLOCK, E=[1, -1])},
         "hidden-variable model has unexpected keys ['E']"),
        # the inequality is checked before the profile is built, so a second
        # fault in the parameter values is not the one reported
        ({"kind": "epr", "inequality": "ghz_general",
          "epr": {"vectors": [[1, 1, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]]}},
         "inequality 'ghz_general' applies to ghz states, not 'epr'"),
    ]
    for index, (payload, message) in enumerate(cases):
        payload = {"inequality": "general", **payload}
        path = write_scenario(tmp_path, f"bad{index}.json", payload)
        code, out, err = run(capsys, "evaluate", "--scenario", path)
        assert code == 1, payload
        assert out == ""
        assert err == f"error: {message}\n", payload


def _json_nesting_limit():
    """The shallowest list nesting json.loads refuses when called from here."""
    accepted, refused = 1, 100_000
    while refused - accepted > 1:
        depth = (accepted + refused) // 2
        try:
            json.loads("[" * depth + "]" * depth)
        except RecursionError:
            refused = depth
        else:
            accepted = depth
    return refused


@pytest.mark.parametrize("depth", [1, 100_000, "past json's limit"])
def test_a_scenario_of_nested_lists_is_an_input_error(capsys, tmp_path, depth):
    if depth == "past json's limit":
        depth = _json_nesting_limit()
    path = tmp_path / "nested.json"
    path.write_text("[" * depth + "]" * depth)
    message = (
        "scenario must be a JSON object" if depth == 1 else f"{path}: scenario is nested too deeply"
    )
    for command in ("evaluate", "sweep"):
        argv = ["--scenario", str(path)]
        if command == "sweep":
            argv += ["--axis", "0", "--range", "0:1", "--steps", "3"]
        code, out, err = run(capsys, command, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), (command, depth)


GHZ_ANGLES = b'"ghz": {"angles_deg": [45, 60, 120, 150]}'


def test_a_scenario_that_is_not_utf8_names_its_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "ghz", ' + GHZ_ANGLES + b', "inequality": "ghz_general\xff"}')
    code, out, err = run(capsys, "evaluate", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: scenario is not UTF-8 text: invalid start byte at byte 85\n"


def test_a_scenario_is_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "accent.json"
    path.write_bytes(
        b'{"kind": "ghz", ' + GHZ_ANGLES + b', "inequality": "' + "général".encode() + b'"}'
    )
    # the C locale decodes files as ASCII unless told otherwise
    env = dict(
        os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(SRC)
    )
    done = subprocess.run(
        [sys.executable, "-m", "belllab.cli", "evaluate", "--scenario", str(path)],
        capture_output=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    # stderr is ASCII under this locale, so the accents print escaped
    assert done.stderr.startswith(b"error: scenario inequality must be one of ("), done.stderr
    assert done.stderr.endswith(b"got 'g\\xe9n\\xe9ral'\n"), done.stderr


def test_missing_scenario_file(capsys):
    code, _, err = run(capsys, "evaluate", "--scenario", "/no/such/file.json")
    assert code == 1
    assert "file.json" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "reproduce", "epr", "--frobnicate")
    assert code == 1
    assert err != ""


def test_unknown_inequality_choice_exits_one(capsys):
    code, _, err = run(capsys, "search", "--inequality", "nope", "--space", "planar-epr")
    assert code == 1


def test_search_report(capsys):
    code, out, _ = run(
        capsys, "search", "--inequality", "chsh", "--space", "planar-epr", "--resolution", "45"
    )
    assert code == 0
    report = json.loads(out)
    assert report["grid"]["evaluations"] == 8**4
    assert report["grid"]["verdict"]["lhs"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert report["refine"] is None
    assert len(report["grid"]["best_params_deg"]) == 4


def test_search_with_refinement(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--inequality",
        "chsh",
        "--space",
        "planar-epr",
        "--resolution",
        "30",
        "--refine",
    )
    assert code == 0
    report = json.loads(out)
    assert report["refine"] is not None
    grid_margin = report["grid"]["verdict"]["margin"]
    refined_margin = report["refine"]["verdict"]["margin"]
    assert refined_margin >= grid_margin
    assert refined_margin == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-6)


def test_search_ghz_space(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--inequality",
        "ghz_dispersion_free",
        "--space",
        "ghz-angles",
        "--resolution",
        "30",
    )
    assert code == 0
    report = json.loads(out)
    assert report["grid"]["evaluations"] == 6**4
    assert report["grid"]["verdict"]["violated"] is True


def test_search_tolerance_labels_both_reported_verdicts(capsys):
    argv = ("search", "--inequality", "chsh", "--space", "planar-epr", "--resolution", "45",
            "--refine")
    reports = []
    for extra in ((), ("--tolerance", "1")):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    default, loose = reports
    for part in ("grid", "refine"):
        # the CHSH margin 2 sqrt 2 - 2 = 0.828... lies between the two tolerances
        assert default[part]["verdict"]["margin"] == pytest.approx(2.0 * math.sqrt(2.0) - 2.0)
        assert default[part]["verdict"]["violated"] is True
        assert loose[part]["verdict"]["violated"] is False
        for report in (default, loose):
            del report[part]["verdict"]["violated"]
    del default["tolerance"], loose["tolerance"]
    assert loose == default


def test_search_space_mismatch_exits_one(capsys):
    code, _, err = run(
        capsys, "search", "--inequality", "ghz_general", "--space", "planar-epr"
    )
    assert code == 1
    assert "ghz" in err


def test_search_refuses_a_lattice_beyond_the_limit(capsys):
    # the messages name the resolution in degrees, as it was given
    cases = [
        # vectors3d at 5 degrees is 6.995e11 points, about ten hours
        (["--space", "vectors3d", "--resolution", "5"],
         "resolution 5.0 degrees needs at least 699526844928 lattice points, "
         "more than the 10000000000 one scan may cover"),
        (["--space", "planar-epr", "--resolution", "400"],
         "resolution 400.0 degrees leaves fewer than 2 lattice steps on "
         "interval (0.0, 360.0) degrees"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, "search", "--inequality", "general", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


def test_search_defaults_to_a_resolution_each_space_can_scan(capsys):
    # 22.5 degrees divides 45, so the vectors3d default lattice holds the
    # dispersion-free supremum 12 (a = c = d, b = -a)
    code, out, err = run(capsys, "search", "--inequality", "dispersion_free", "--space", "vectors3d")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["resolution_deg"] == 22.5
    assert report["grid"]["verdict"]["margin"] == 12.0
    code, out, _ = run(capsys, "search", "--inequality", "chsh", "--space", "ghz-angles")
    assert code == 0
    assert json.loads(out)["resolution_deg"] == 5.0


@pytest.mark.parametrize(
    "inequality, degrees",
    [("chsh", "90.00000001"), ("general", "60.00000001"), ("dispersion_free", "45.00000001"),
     ("general", "90.0000000001")],
)
def test_search_reports_points_inside_the_clipped_polar_interval(capsys, inequality, degrees):
    # roundoff in the axis count gives these polar axes a last step past 180
    # degrees; the lattice ends on 180, so the grid point is in bounds and
    # refinement can start from it
    code, out, err = run(capsys, "search", "--inequality", inequality, "--space", "vectors3d",
                         "--resolution", degrees, "--refine")
    assert (code, err) == (0, "")
    report = json.loads(out)
    for part in ("grid", "refine"):
        coords = report[part]["best_params_rad"]
        for value, (lo, hi) in zip(coords, parameter_space("vectors3d").bounds):
            assert lo <= value <= hi


def test_lhv_check_passes(capsys):
    code, out, _ = run(capsys, "lhv-check", "--models", "50", "--points", "5", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["violations"] == 0
    assert report["max_margin"] <= 1e-9
    assert 3 <= report["max_margin_seed"] < 53


def test_lhv_check_refuses_draws_it_cannot_make(capsys):
    for argv, message in [
        (["--bound", "inf"], "bound inf is too large: the width of [-bound, bound] overflows"),
        (["--bound", "1e308"], "bound 1e+308 is too large: the width of [-bound, bound] overflows"),
        (["--points", "100000000000"], "n_points must lie between 1 and 1000000, got 100000000000"),
        (["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["--models", "0"], "--models must be at least 1"),
        (["--models", str(MAX_CHECK_MODELS + 1)],
         f"--models must be at most {MAX_CHECK_MODELS}, got {MAX_CHECK_MODELS + 1}"),
        (["--models", "1000000000000000"],
         f"--models must be at most {MAX_CHECK_MODELS}, got 1000000000000000"),
        # a run of about 146 days at 126 ms per million-point model
        (["--models", str(MAX_CHECK_MODELS), "--points", "1000000"],
         f"--models times --points must be at most {8 * MAX_CHECK_MODELS}, "
         f"got {MAX_CHECK_MODELS} x 1000000"),
        (["--models", "801", "--points", "1000000"],
         f"--models times --points must be at most {8 * MAX_CHECK_MODELS}, got 801 x 1000000"),
        (["--models", str(MAX_CHECK_MODELS), "--points", "9"],
         f"--models times --points must be at most {8 * MAX_CHECK_MODELS}, "
         f"got {MAX_CHECK_MODELS} x 9"),
    ]:
        code, out, err = run(capsys, "lhv-check", "--models", "2", *argv)
        assert code == 1, argv
        assert out == ""
        assert err == f"error: {message}\n"


def test_lhv_check_runs_up_to_its_cost_cap(capsys, monkeypatch):
    # at the cap itself the run starts; the run is stubbed, so no model is drawn
    runs = []

    def stub(first_seed, count, n_points, bound, tolerance):
        runs.append((count, n_points))
        return 0.0, first_seed, 0

    monkeypatch.setattr(cli, "check_general_bound", stub)
    for models, points in ((MAX_CHECK_MODELS, 8), (800, 1000000)):
        code, _, err = run(capsys, "lhv-check", "--models", str(models), "--points", str(points))
        assert (code, err) == (0, "")
    assert runs == [(MAX_CHECK_MODELS, 8), (800, 1000000)]


def test_lhv_check_failure_exits_two(capsys, monkeypatch):
    # every model of the batch reads a margin above tolerance
    monkeypatch.setattr(lhv, "general_margins", lambda first, count, *a: np.full(count, 0.5))
    code, out, _ = run(capsys, "lhv-check", "--models", "3")
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["violations"] == 3


def reference_lhv_check(models, points, bound, seed=0, tolerance=VIOLATION_TOL):
    """lhv-check spelled out one model at a time: (exit code, report fields or stderr)."""
    max_margin, max_margin_seed, violations = -math.inf, seed, 0
    for k in range(models):
        try:
            model = random_model(seed + k, points, bound)
            verdict = verdict_for_profile(lhv_profile(model), "general", tolerance)
        except NumericsError as exc:
            return 2, f"numeric error: {exc}\n"
        except ValueError as exc:
            return 1, f"error: {exc}\n"
        if verdict.margin > max_margin:
            max_margin, max_margin_seed = verdict.margin, seed + k
        violations += verdict.violated
    fields = {
        "max_margin": max_margin.hex(),
        "max_margin_seed": max_margin_seed,
        "violations": violations,
        "passed": violations == 0,
    }
    return (0 if violations == 0 else 2), fields


def batched_lhv_check(capsys, *argv):
    code, out, err = run(capsys, "lhv-check", *argv)
    assert err == ""
    report = json.loads(out)
    report["max_margin"] = report["max_margin"].hex()  # compared bit for bit
    keys = ("max_margin", "max_margin_seed", "violations", "passed")
    return code, {key: report[key] for key in keys}


@pytest.mark.parametrize("points", [1, 2, 8, 512, 513])
def test_lhv_check_matches_the_per_model_loop(capsys, points):
    # 513 points leave part of BATCH_TABLE_FLOATS unused; batch + 1 models
    # leave a partial last batch
    batch = max(1, lhv.BATCH_TABLE_FLOATS // (4 * points))
    for models in (batch - 1, batch, batch + 1):
        got = batched_lhv_check(capsys, "--models", str(models), "--points", str(points))
        assert got == reference_lhv_check(models, points, 5.0), models


def test_lhv_check_matches_the_per_model_loop_at_saturated_models(capsys):
    # two-point models saturate the bound, so the sign of the margin is
    # roundoff and hundreds read as violated under the absolute tolerance
    argv = ("--models", "2000", "--points", "2", "--bound", "1000")
    code, fields = reference_lhv_check(2000, 2, 1000.0)
    assert code == 2
    assert fields["violations"] > 100
    assert batched_lhv_check(capsys, *argv) == (code, fields)
    relaxed = reference_lhv_check(2000, 2, 1000.0, tolerance=1e-3)
    assert batched_lhv_check(capsys, *argv, "--tolerance", "1e-3") == relaxed


@pytest.mark.parametrize(
    "points, bound, seed, code",
    [
        (2048, "1e150", 0, 2),
        (2, "1e300", 0, 1),
        # seed 0 has no finite margin, seed 1 no finite covariance matrix
        (2, "3e154", 0, 2),
        # seed 1 has no finite covariance matrix, seed 8 no finite margin
        (2, "3e154", 1, 1),
        # seed 0 passes, seed 1 has no finite margin
        (2, "3e77", 0, 2),
    ],
)
def test_lhv_check_errors_match_the_per_model_loop(capsys, points, bound, seed, code):
    argv = ("--models", "37", "--points", str(points), "--bound", bound, "--seed", str(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = reference_lhv_check(37, points, float(bound), seed)
        got = run(capsys, "lhv-check", *argv)
    assert expected[0] == code
    assert got == (expected[0], "", expected[1])


def test_numeric_failure_exits_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericsError("self check failed")

    monkeypatch.setattr(cli, "ghz_profile", boom)
    code, out, err = run(capsys, "reproduce", "ghz")
    assert code == 2
    assert out == ""
    assert "self check failed" in err


def test_sweep_csv_output(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "ghz.json",
        {"kind": "ghz", "inequality": "ghz_dispersion_free", "ghz": {"angles_deg": [45, 60, 120, 150]}},
    )
    code, out, err = run(
        capsys, "sweep", "--scenario", path, "--axis", "0", "--range", "0:90", "--steps", "7"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coord,lhs,rhs,margin"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(lines[-1].split(",")[0]) == 90.0
    # round trip through repr keeps every digit
    for line in lines[1:]:
        coord, lhs, rhs, margin = (float(v) for v in line.split(","))
        assert margin == lhs - rhs


def test_sweep_json_output(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "epr.json",
        {"kind": "epr", "inequality": "general", "epr": {"angles_deg": [0, 45, 90, 135]}},
    )
    code, out, _ = run(
        capsys,
        "sweep",
        "--scenario",
        path,
        "--axis",
        "3",
        "--range",
        "0:180",
        "--steps",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["series"]) == 5
    assert report["series"][0]["coord_deg"] == 0.0
    assert report["series"][-1]["coord_deg"] == 180.0
    row = report["series"][2]
    assert row["margin"] == pytest.approx(row["lhs"] - row["rhs"], abs=1e-12)


def test_sweep_builds_no_profile(capsys, tmp_path, monkeypatch):
    # a sweep evaluates its own lattice of angles; the scenario's profile is never needed
    def boom(*args, **kwargs):
        raise AssertionError("sweep built the scenario profile")

    for name in ("ghz_profile", "epr_profile", "realizability_report"):
        monkeypatch.setattr(cli, name, boom)
    for kind, angles in (("ghz", [45, 60, 120, 150]), ("epr", [0, 45, 90, 135])):
        path = write_scenario(
            tmp_path,
            f"{kind}.json",
            {"kind": kind, "inequality": "general", kind: {"angles_deg": angles}},
        )
        code, out, err = run(
            capsys, "sweep", "--scenario", path, "--axis", "1", "--range", "0:90", "--steps", "4"
        )
        assert code == 0, kind
        assert err == ""
        assert len(out.splitlines()) == 5


def test_sweep_rejects_non_angle_scenarios(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "dots.json",
        {"kind": "epr", "inequality": "general", "epr": {"dots": [0, 0, 0, 0, 0, 0]}},
    )
    code, _, err = run(
        capsys, "sweep", "--scenario", path, "--axis", "0", "--range", "0:90", "--steps", "3"
    )
    assert code == 1
    assert "angle" in err


def test_sweep_rejects_malformed_range(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "ghz.json",
        {"kind": "ghz", "inequality": "general", "ghz": {"angles_deg": [0, 10, 20, 30]}},
    )
    # the last three are distinct in degrees but round to one value in radians
    for bad in ("0", "0:10:20", "a:b", "1e308:-1e308", "10:10", "0:inf", "nan:5",
                "0:1e-322", "0:5e-324", "-5e-324:5e-324"):
        code, out, err = run(
            capsys, "sweep", "--scenario", path, "--axis", "0", "--range", bad, "--steps", "3"
        )
        assert code == 1, bad
        assert out == "", bad
        assert err.startswith("error: --range ") and repr(bad) in err, err


def test_sweep_range_may_start_below_zero_as_a_separate_argument(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "ghz.json",
        {"kind": "ghz", "inequality": "general", "ghz": {"angles_deg": [0, 10, 20, 30]}},
    )
    base = ("sweep", "--scenario", path, "--axis", "0")
    for text in ("-5:5", "-90:90"):
        separate = run(capsys, *base, "--range", text, "--steps", "5")
        assert separate == run(capsys, *base, f"--range={text}", "--steps", "5"), text
        assert separate[0] == 0 and separate[2] == "", text
    code, out, err = run(capsys, *base, "--range", "-inf:0", "--steps", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error: --range ") and "'-inf:0'" in err, err


def test_sweep_refuses_too_many_steps(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        "ghz.json",
        {"kind": "ghz", "inequality": "general", "ghz": {"angles_deg": [0, 10, 20, 30]}},
    )
    for steps in (MAX_SWEEP_STEPS + 1, 10000000000000):
        code, out, err = run(
            capsys, "sweep", "--scenario", path, "--axis", "0", "--range", "0:10",
            "--steps", str(steps),
        )
        assert code == 1, steps
        assert out == ""
        assert err == f"error: sweep needs between 2 and 1000000 steps, got {steps}\n"


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "reproduce", "epr", "--out", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "reproduce"


def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    argv_sets = [
        ["lhv-check", "--models", "40", "--points", "6", "--seed", "11"],
        ["search", "--inequality", "dispersion_free", "--space", "planar-epr", "--resolution", "45"],
        ["reproduce", "ghz"],
    ]
    for argv in argv_sets:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("belllab ")


def test_help_and_usage_errors_return_their_exit_codes(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: belllab")
    # usage errors take the input-error path, as on the console script
    code, out, err = run(capsys, "search")
    assert code == 1
    assert out == ""
    assert err == "error: the following arguments are required: --inequality, --space\n"

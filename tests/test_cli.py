"""Command-line behavior: reports, formats, exit codes, determinism."""

import json
import math
import warnings

import pytest

import belllab.cli as cli
from belllab.errors import NumericsError
from belllab.search import MAX_SWEEP_STEPS


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


def test_scenario_schema_errors(capsys, tmp_path):
    cases = [
        {"kind": "nope"},
        {"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3]}},
        {"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3, "x"]}},
        {"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3, 4], "extra": 1}},
        {"kind": "epr", "epr": {}},
        {"kind": "epr", "epr": {"dots": [0, 0, 0], "angles_deg": [0, 0, 0, 0]}},
        {"kind": "profile", "profile": {"e_ac": 0.0}},
        {"kind": "ghz", "ghz": {"angles_deg": [1, 2, 3, 4]}, "surprise": True},
        {"kind": "lhv", "lhv": {"weights": [1.0], "A": [0.0], "B": [0.0], "C": [0.0]}},
    ]
    for index, payload in enumerate(cases):
        payload = dict(payload, inequality="general")
        path = write_scenario(tmp_path, f"bad{index}.json", payload)
        code, out, err = run(capsys, "evaluate", "--scenario", path)
        assert code == 1, payload
        assert err != ""


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


def test_search_space_mismatch_exits_one(capsys):
    code, _, err = run(
        capsys, "search", "--inequality", "ghz_general", "--space", "planar-epr"
    )
    assert code == 1
    assert "ghz" in err


def test_search_refuses_a_lattice_beyond_the_limit(capsys):
    # vectors3d at the default 5 degrees is 6.995e11 points, about ten hours
    code, out, err = run(capsys, "search", "--inequality", "general", "--space", "vectors3d")
    assert code == 1
    assert out == ""
    assert "699526844928 lattice points" in err


def test_lhv_check_passes(capsys):
    code, out, _ = run(capsys, "lhv-check", "--models", "50", "--points", "5", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["violations"] == 0
    assert report["max_margin"] <= 1e-9
    assert 3 <= report["max_margin_seed"] < 53


def test_lhv_check_failure_exits_two(capsys, monkeypatch):
    class FakeVerdict:
        margin = 0.5
        violated = True

    monkeypatch.setattr(cli, "verdict_for_profile", lambda *a, **k: FakeVerdict())
    code, out, _ = run(capsys, "lhv-check", "--models", "3")
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["violations"] == 3


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
    for bad in ("0", "0:10:20", "a:b"):
        code, _, err = run(
            capsys, "sweep", "--scenario", path, "--axis", "0", "--range", bad, "--steps", "3"
        )
        assert code == 1, bad


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
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "belllab" in out

"""Compatibility matrix: which inequality ids each scenario kind and search space admits.

The expected table is written out here from the documented rule, not read
from the registry, so the registry and every entry point that consults it
are checked against one independent statement of the rule.
"""

import json
import math

import pytest

import belllab.cli as cli
from belllab.inequalities import INEQUALITIES, INEQUALITY_IDS
from belllab.search import SPACE_KINDS, evaluate_point, grid_search, parameter_space, refine, sweep

#: State family each id requires; None admits any input.
EXPECTED_FAMILY = {
    "general": None,
    "dispersion_free": None,
    "epr_general": "epr",
    "epr_dispersion_free": "epr",
    "ghz_general": "ghz",
    "ghz_dispersion_free": "ghz",
    "chsh": None,
}

#: Scenario variant -> (scenario without its inequality, state family it describes).
SCENARIOS = {
    "epr-angles": ({"kind": "epr", "epr": {"angles_deg": [0, 45, 90, 135]}}, "epr"),
    "epr-vectors": (
        {"kind": "epr", "epr": {"vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]]}},
        "epr",
    ),
    "epr-dots": ({"kind": "epr", "epr": {"dots": [0.5, 0.1, -0.3, 0.2, 0.0, 0.7]}}, "epr"),
    "ghz": ({"kind": "ghz", "ghz": {"angles_deg": [45, 60, 120, 150]}}, "ghz"),
    "profile": (
        {
            "kind": "profile",
            "profile": {
                "e_ac": 0.3, "e_ad": -0.2, "e_bc": 0.1, "e_bd": 0.4, "e_ab": -0.5,
                "e_cd": 0.25, "var_a": 1, "var_b": 1, "var_c": 1, "var_d": 1,
            },
        },
        "profile",
    ),
    "lhv": (
        {
            "kind": "lhv",
            "lhv": {"weights": [0.5, 0.5], "A": [1, -1], "B": [1, -1], "C": [1, -1], "D": [1, -1]},
        },
        "lhv",
    ),
}

SWEEPABLE = ("epr-angles", "ghz")

SPACE_FAMILY = {"planar_epr": "epr", "vectors3d": "epr", "ghz_angles": "ghz"}


def admitted(inequality_id, family):
    required = EXPECTED_FAMILY[inequality_id]
    return required is None or required == family


def test_registry_states_the_expected_families():
    assert {key: family for key, (_, family) in INEQUALITIES.items()} == EXPECTED_FAMILY
    # argparse choices, and so every --help text, follow this order
    assert INEQUALITY_IDS == (
        "general",
        "dispersion_free",
        "epr_general",
        "epr_dispersion_free",
        "ghz_general",
        "ghz_dispersion_free",
        "chsh",
    )
    assert set(SPACE_FAMILY) == set(SPACE_KINDS)
    assert all(parameter_space(kind).family == SPACE_FAMILY[kind] for kind in SPACE_KINDS)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_evaluate_admits_exactly_the_registry_pairs(capsys, tmp_path, scenario, inequality_id):
    payload, family = SCENARIOS[scenario]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(payload, inequality=inequality_id)))
    code, out, err = _run(capsys, ["evaluate", "--scenario", str(path)])
    if admitted(inequality_id, family):
        assert code == 0, err
        assert json.loads(out)["verdicts"][0]["inequality"] == inequality_id
    else:
        assert code == 1
        assert out == ""
        assert inequality_id in err


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
@pytest.mark.parametrize("scenario", SWEEPABLE)
def test_sweep_admits_exactly_the_registry_pairs(capsys, tmp_path, scenario, inequality_id):
    payload, family = SCENARIOS[scenario]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    argv = ["sweep", "--scenario", str(path), "--inequality", inequality_id,
            "--axis", "1", "--range", "0:90", "--steps", "4", "--format", "json"]
    code, out, err = _run(capsys, argv)
    if admitted(inequality_id, family):
        assert code == 0, err
        report = json.loads(out)
        assert report["inequality"] == inequality_id
        assert len(report["series"]) == 4
    else:
        assert code == 1
        assert out == ""
        assert inequality_id in err


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_search_spaces_admit_exactly_the_registry_pairs(kind, inequality_id):
    space = parameter_space(kind)
    start = tuple(lo for lo, _ in space.bounds)
    calls = {
        "grid_search": lambda: grid_search(inequality_id, space, math.pi / 2.0),
        "evaluate_point": lambda: evaluate_point(inequality_id, space, start),
        "refine": lambda: refine(inequality_id, space, start, 0.1, 0.5, 0.05),
        "sweep": lambda: sweep(inequality_id, space, start, 0, (0.0, 1.0), 3),
    }
    for name, call in calls.items():
        if admitted(inequality_id, SPACE_FAMILY[kind]):
            result = call()
            if name == "evaluate_point":
                assert result.inequality_id == inequality_id
            elif name in ("grid_search", "refine"):
                assert result.best_verdict.inequality_id == inequality_id
        else:
            with pytest.raises(ValueError, match=inequality_id):
                call()

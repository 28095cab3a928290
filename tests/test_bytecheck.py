"""tools/bytecheck.py: digests of a few argv, and how differences meet declarations."""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bytecheck  # noqa: E402

from belllab import cli, lhv, search  # noqa: E402

ARGV = [
    ["--version"],
    ["lhv-check", "--models", "0"],
    ["search", "--inequality", "chsh", "--space", "planar-epr", "--resolution", "45"],
    ["search", "--inequality", "chsh", "--space", "planar-epr", "--resolution", "45",
     "--tolerance", "1"],
]


def test_a_tree_compared_with_itself_shows_no_difference(tmp_path):
    runs = bytecheck.digests({"base": ROOT, "head": ROOT}, ARGV, tmp_path)
    assert runs["base"] == runs["head"]
    # every argv gets its own digest, and the tolerance moves the search report
    assert len(set(runs["head"].values())) == len(ARGV)
    assert bytecheck.compare(runs["base"], runs["head"], []) == ([], [])


def test_differences_must_match_the_declarations_exactly():
    base = {"reproduce epr": "1", "sweep --range 0:1e-322": "2", "--version": "3"}
    head = dict(base, **{"sweep --range 0:1e-322": "4"})
    assert bytecheck.compare(base, head, []) == ([], ["undeclared: sweep --range 0:1e-322"])
    assert bytecheck.compare(base, head, ["sweep --range *e-322"]) == (
        ["declared:   sweep --range 0:1e-322"], []
    )
    lines, problems = bytecheck.compare(base, head, ["sweep *", "reproduce *"])
    assert lines == ["declared:   sweep --range 0:1e-322"]
    assert problems == ["stale declaration, matches no difference: reproduce *"]


def test_the_corpus_holds_the_readme_commands_and_their_scenarios(tmp_path):
    argvs = bytecheck.corpus(tmp_path)
    joined = [" ".join(argv) for argv in argvs]
    assert len(set(joined)) == len(joined)
    for line in bytecheck.readme_command_lines(ROOT / "README.md"):
        assert "[" in line or line.removeprefix("belllab ") in joined, line
    for argv in argvs:
        if "--scenario" in argv:
            assert (tmp_path / argv[argv.index("--scenario") + 1]).is_file(), argv


def test_the_edge_argv_reach_both_sides_of_the_stacked_draw_cut_off():
    points = {argv[argv.index("--points") + 1] for argv in bytecheck.EDGE_ARGV if "--points" in argv}
    cut = lhv.STACKED_DRAW_MAX_POINTS
    assert {str(cut), str(cut + 1)} <= points


def test_the_edge_argv_reach_every_case_of_the_vectors3d_reflections():
    # both reflections close, only y -> -y closes, neither closes
    space = search.SPACES["vectors3d"]
    cases = set()
    for argv in bytecheck.EDGE_ARGV:
        if "vectors3d" in argv and "--resolution" in argv:
            resolution = math.radians(float(argv[argv.index("--resolution") + 1]))
            closes = [search._axis_count(*space.bounds[axis], space.wrap[axis], resolution)[1]
                      for axis in (0, 2)]  # a polar and an azimuth axis
            cases.add(tuple(closes))
    assert cases == {(True, True), (False, True), (False, False)}


def test_the_edge_argv_reach_the_whole_lattice_rescan_of_a_failed_premise(monkeypatch, capsys):
    # a scan whose premise fails calls _lattice_maximum a second time, on the
    # whole lattice; the edge argv reach that from a general scan and a bounded one
    scan = search._lattice_maximum
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(search, "_lattice_maximum", counted)
    rescanned = set()
    for argv in bytecheck.EDGE_ARGV:
        if argv[0] == "search" and "--help" not in argv:
            calls.clear()
            cli.main(list(argv))
            if len(calls) == 2:
                rescanned.add(argv[argv.index("--inequality") + 1])
    capsys.readouterr()
    assert "general" in rescanned
    assert rescanned & {"chsh", "dispersion_free"}

"""Lattice scans, compass refinement, and one-axis sweeps."""

import itertools
import math

import numpy as np
import pytest

from belllab import search
from belllab.geometry import Direction, gram_of, planar
from belllab.inequalities import (
    epr_profile_from_dots,
    ghz_profile_from_angles,
    verdict_for_profile,
)
from belllab.search import (
    SPACE_KINDS,
    evaluate_point,
    grid_search,
    parameter_space,
    refine,
    sweep,
)

PLANAR = parameter_space("planar_epr")
GHZ = parameter_space("ghz_angles")
VECTORS = parameter_space("vectors3d")


def test_space_shapes():
    assert PLANAR.n_coords == 4
    assert GHZ.n_coords == 4
    assert VECTORS.n_coords == 7
    assert all(PLANAR.wrap)
    assert all(GHZ.wrap)
    assert PLANAR.bounds[0] == (0.0, 2.0 * math.pi)
    assert GHZ.bounds[0] == (0.0, math.pi)


def test_unknown_space_kind_rejected():
    with pytest.raises(ValueError):
        parameter_space("spherical")
    assert set(SPACE_KINDS) == {"planar_epr", "ghz_angles", "vectors3d"}


def test_evaluate_point_matches_profile_route_planar():
    # the scan kernel uses cos(angle differences); the profile route goes
    # through explicit vectors, which is an independent arithmetic path
    angles = (0.3, 1.2, 2.5, 4.4)
    for inequality_id in ("general", "dispersion_free", "chsh", "epr_general"):
        from_scan = evaluate_point(inequality_id, PLANAR, angles)
        profile = epr_profile_from_dots(gram_of(*planar(angles)))
        expected = verdict_for_profile(profile, inequality_id)
        assert from_scan.lhs == pytest.approx(expected.lhs, abs=1e-12)
        assert from_scan.rhs == pytest.approx(expected.rhs, abs=1e-12)


def test_evaluate_point_matches_profile_route_ghz():
    angles = (0.2, 0.9, 1.7, 2.8)
    from_scan = evaluate_point("ghz_general", GHZ, angles)
    expected = verdict_for_profile(ghz_profile_from_angles(*angles), "ghz_general")
    assert from_scan.lhs == pytest.approx(expected.lhs, abs=1e-12)
    assert from_scan.rhs == pytest.approx(expected.rhs, abs=1e-12)


def test_evaluate_point_vectors3d_matches_explicit_directions():
    # coordinates: polar_a, then (polar, azimuth) for b, c, d; a is gauge
    # fixed into the x-z plane
    coords = (0.7, 1.1, 0.4, 2.0, 3.9, 0.6, 5.1)

    def from_spherical(theta, phi):
        return Direction(
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )

    a = Direction(math.sin(coords[0]), 0.0, math.cos(coords[0]))
    b = from_spherical(coords[1], coords[2])
    c = from_spherical(coords[3], coords[4])
    d = from_spherical(coords[5], coords[6])
    from_scan = evaluate_point("general", VECTORS, coords)
    expected = verdict_for_profile(epr_profile_from_dots(gram_of(a, b, c, d)), "general")
    assert from_scan.lhs == pytest.approx(expected.lhs, abs=1e-12)
    assert from_scan.rhs == pytest.approx(expected.rhs, abs=1e-12)


def test_incompatible_inequality_and_space():
    with pytest.raises(ValueError):
        evaluate_point("epr_general", GHZ, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        evaluate_point("ghz_general", PLANAR, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        grid_search("ghz_dispersion_free", VECTORS, 1.0)


def test_evaluate_point_validates_coordinate_count():
    with pytest.raises(ValueError):
        evaluate_point("general", PLANAR, (0.0, 1.0))


def test_grid_counts_wrapped_lattice_points(monkeypatch):
    # 90 degree resolution on wrapped [0, 2pi) axes: 4 points per axis
    result = grid_search("general", PLANAR, math.pi / 2.0)
    assert result.evaluations == 4**4
    # a lattice exactly at the size limit runs; one point more is refused
    monkeypatch.setattr(search, "MAX_LATTICE_POINTS", 4**4)
    assert grid_search("general", PLANAR, math.pi / 2.0).evaluations == 4**4
    monkeypatch.setattr(search, "MAX_LATTICE_POINTS", 4**4 - 1)
    with pytest.raises(ValueError, match="256 lattice points"):
        grid_search("general", PLANAR, math.pi / 2.0)


def test_grid_matches_brute_force():
    resolution = math.pi / 2.0
    result = grid_search("dispersion_free", PLANAR, resolution)
    axis = [i * resolution for i in range(4)]
    best = None
    for coords in itertools.product(axis, repeat=4):
        margin = evaluate_point("dispersion_free", PLANAR, coords).margin
        if best is None or margin > best[1]:
            best = (coords, margin)
    assert result.best_verdict.margin == pytest.approx(best[1], abs=1e-12)
    assert result.best_params == pytest.approx(best[0], abs=1e-12)


def test_grid_result_is_independent_of_block_size(monkeypatch):
    resolution = math.radians(45.0)
    coarse = grid_search("chsh", PLANAR, resolution)
    for block_size in (1, 7, 64, 100000):
        monkeypatch.setattr(search, "BLOCK_SIZE", block_size)
        other = grid_search("chsh", PLANAR, resolution)
        assert other.best_params == coarse.best_params
        assert other.best_verdict.margin == coarse.best_verdict.margin
        assert other.evaluations == coarse.evaluations


def test_grid_lex_smallest_tie_break():
    # chsh on the 90 degree lattice peaks at exactly 2.0 on many points;
    # the scan must return the lexicographically first of the exact ties
    resolution = math.pi / 2.0
    result = grid_search("chsh", PLANAR, resolution)
    axis = [i * resolution for i in range(4)]
    best_margin = -math.inf
    ties = []
    for coords in itertools.product(axis, repeat=4):
        margin = evaluate_point("chsh", PLANAR, coords).margin
        if margin > best_margin:
            best_margin = margin
            ties = [coords]
        elif margin == best_margin:
            ties.append(coords)
    assert len(ties) > 1
    assert result.best_params == pytest.approx(ties[0], abs=1e-15)
    assert result.best_verdict.margin == best_margin


def test_grid_chsh_finds_tsirelson_value_on_45_degree_lattice():
    result = grid_search("chsh", PLANAR, math.radians(45.0))
    assert result.best_verdict.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_grid_validates_arguments():
    with pytest.raises(ValueError):
        grid_search("general", PLANAR, 0.0)
    with pytest.raises(ValueError):
        grid_search("general", PLANAR, 10.0)  # coarser than the axis span
    # lattices beyond the size limit are refused before any array is built:
    # vectors3d at 5 degrees has 6.995e11 points, and a subnormal resolution
    # has a point count no float can hold
    with pytest.raises(ValueError, match="699526844928 lattice points"):
        grid_search("general", VECTORS, math.radians(5.0))
    with pytest.raises(ValueError, match="lattice points"):
        grid_search("general", PLANAR, math.radians(1e-320))
    with pytest.raises(ValueError):
        grid_search("bogus", PLANAR, 1.0)


def test_refine_never_loses_margin():
    start = (0.7, 2.4, 1.5, 0.1)
    before = evaluate_point("chsh", PLANAR, start).margin
    result = refine("chsh", PLANAR, start, 0.2, 0.5, 1e-4)
    assert result.best_verdict.margin >= before
    assert result.evaluations >= 1


def test_refine_polishes_grid_optimum_toward_tsirelson():
    grid = grid_search("chsh", PLANAR, math.radians(30.0))
    result = refine("chsh", PLANAR, grid.best_params, math.radians(15.0), 0.5, 1e-7)
    assert result.best_verdict.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


def test_refine_with_step_at_or_below_floor_returns_start():
    start = (0.5, 0.5, 0.5, 0.5)
    result = refine("general", PLANAR, start, 1e-5, 0.5, 1e-5)
    assert result.best_params == start
    assert result.evaluations == 1


def test_refine_validates_arguments():
    start = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        refine("general", PLANAR, start, 0.1, 1.5, 1e-3)
    with pytest.raises(ValueError):
        refine("general", PLANAR, start, -0.1, 0.5, 1e-3)
    with pytest.raises(ValueError):
        refine("general", PLANAR, (9.0, 0.0, 0.0, 0.0), 0.1, 0.5, 1e-3)


def test_refine_wraps_around_periodic_axes():
    # optimum sits across the 0/2pi seam from the start
    start = (6.2, 3.0, 0.1, 0.2)
    result = refine("chsh", PLANAR, start, 0.3, 0.5, 1e-6)
    for value, (lo, hi) in zip(result.best_params, PLANAR.bounds):
        assert lo <= value < hi or value == pytest.approx(hi)


def test_sweep_row_values_match_point_evaluations():
    base = (0.4, 1.0, 2.0, 3.0)
    rows = sweep("general", PLANAR, base, 2, (0.0, math.pi), 9)
    assert len(rows) == 9
    coords = np.linspace(0.0, math.pi, 9)
    for (coord, lhs, rhs, margin), expected_coord in zip(rows, coords):
        assert coord == pytest.approx(expected_coord, abs=1e-15)
        point = base[:2] + (coord,) + base[3:]
        verdict = evaluate_point("general", PLANAR, point)
        assert lhs == pytest.approx(verdict.lhs, abs=1e-12)
        assert rhs == pytest.approx(verdict.rhs, abs=1e-12)
        assert margin == pytest.approx(verdict.margin, abs=1e-12)


def test_sweep_handles_constant_rhs_forms():
    rows = sweep("chsh", PLANAR, (0.0, 1.0, 2.0, 3.0), 0, (0.0, 1.0), 5)
    assert all(rhs == 2.0 for _, _, rhs, _ in rows)
    rows = sweep("ghz_dispersion_free", GHZ, (0.1, 0.2, 0.3, 0.4), 1, (0.0, 1.0), 4)
    assert all(rhs == 0.0 for _, _, rhs, _ in rows)


def test_sweep_validates_arguments():
    base = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, base, 5, (0.0, 1.0), 4)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, base, 0, (0.0, 1.0), 1)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, base, 0, (1.0, 1.0), 4)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, (0.0, 0.0), 0, (0.0, 1.0), 4)


def test_vectors3d_grid_search_runs_at_coarse_resolution():
    # 7 axes at 90 degrees stays desk scale and exercises the non-planar path
    result = grid_search("general", VECTORS, math.pi / 2.0)
    assert result.best_verdict.margin <= 1e-9
    assert result.evaluations > 0

"""Direction arithmetic and Gram-matrix realizability."""

import math

import numpy as np
import pytest

from belllab.geometry import (
    Direction,
    DotProductConfig,
    gram_eigenvalues,
    gram_of,
    planar,
    realizability_report,
)


def test_planar_direction_is_unit():
    for theta in (0.0, 0.3, math.pi / 2, 2.0, 5.9):
        d = Direction.planar(theta)
        assert math.isclose(d.x * d.x + d.y * d.y + d.z * d.z, 1.0, abs_tol=1e-15)
        assert d.z == 0.0


def test_planar_dot_is_cosine_of_difference():
    # independent oracle: a.b for planar vectors is cos(theta_a - theta_b)
    for ta, tb in [(0.0, 1.0), (0.4, 2.9), (3.3, 0.2), (5.5, 5.5)]:
        got = Direction.planar(ta).dot(Direction.planar(tb))
        assert got == pytest.approx(math.cos(ta - tb), abs=1e-15)


def test_direction_rejects_non_unit():
    with pytest.raises(ValueError):
        Direction(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Direction(0.5, 0.0, 0.0)


def test_direction_rejects_non_finite():
    with pytest.raises(ValueError):
        Direction(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Direction(math.inf, 0.0, 0.0)


def test_gram_of_matches_pairwise_dots():
    a, b, c, d = planar([0.1, 0.9, 2.2, 4.0])
    config = gram_of(a, b, c, d)
    assert config.ab == pytest.approx(a.dot(b), abs=1e-15)
    assert config.ac == pytest.approx(a.dot(c), abs=1e-15)
    assert config.ad == pytest.approx(a.dot(d), abs=1e-15)
    assert config.bc == pytest.approx(b.dot(c), abs=1e-15)
    assert config.bd == pytest.approx(b.dot(d), abs=1e-15)
    assert config.cd == pytest.approx(c.dot(d), abs=1e-15)


def test_config_rejects_wrong_count_and_range():
    with pytest.raises(ValueError):
        DotProductConfig.from_sequence([0.0] * 5)
    with pytest.raises(ValueError):
        DotProductConfig.from_sequence([0.0] * 7)
    with pytest.raises(ValueError):
        DotProductConfig(1.5, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        DotProductConfig(math.nan, 0, 0, 0, 0, 0)


def test_matrix_round_trip():
    config = DotProductConfig(0.1, -0.2, 0.3, 0.4, -0.5, 0.6)
    m = config.matrix()
    # unit diagonal, symmetric, each dot product at its (row, column) pair
    assert np.array_equal(np.diag(m), np.ones(4))
    assert np.array_equal(m, m.T)
    assert (m[0, 1], m[0, 2], m[0, 3], m[1, 2], m[1, 3], m[2, 3]) == (
        config.ab, config.ac, config.ad, config.bc, config.bd, config.cd
    )


def test_orthonormal_config_needs_four_dimensions():
    config = DotProductConfig(0, 0, 0, 0, 0, 0)
    eigs = gram_eigenvalues(config)
    assert np.allclose(eigs, 1.0)
    report = realizability_report(config)
    assert report["psd"] is True
    assert report["rank"] == 4
    assert report["dim4_only"] is True
    assert report["realizable_3d"] is False


def test_planar_quadruple_has_rank_two_gram():
    config = gram_of(*planar([0.0, 0.7, 1.9, 3.1]))
    report = realizability_report(config)
    assert report["psd"] is True
    assert report["rank"] == 2
    assert report["realizable_3d"] is True
    assert report["dim4_only"] is False


def test_eigenvalue_sum_is_trace():
    config = DotProductConfig(0.3, -0.1, 0.25, 0.9, -0.4, 0.05)
    assert gram_eigenvalues(config).sum() == pytest.approx(4.0, abs=1e-12)


def test_random_vector_grams_are_realizable():
    rng = np.random.default_rng(11)
    for _ in range(300):
        vs = rng.normal(size=(4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        dirs = [Direction(*row) for row in vs]
        config = gram_of(*dirs)
        report = realizability_report(config)
        assert report["psd"] is True
        assert report["rank"] <= 3
        assert report["realizable_3d"] is True
        # the dense matrix is the Gram matrix of the vectors themselves
        np.testing.assert_allclose(config.matrix(), vs @ vs.T, atol=1e-12)


def test_contradictory_dots_are_rejected_as_unrealizable():
    # a parallel to b and to c forces b parallel to c; saying otherwise
    # cannot come from actual vectors
    config = DotProductConfig(ab=1.0, ac=1.0, ad=0.0, bc=-1.0, bd=0.0, cd=0.0)
    assert realizability_report(config)["psd"] is False

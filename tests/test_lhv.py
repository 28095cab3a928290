"""Finite weighted hidden-variable models and the Schwarz mechanism."""

import math

import numpy as np
import pytest

from belllab.inequalities import verdict_for_profile
from belllab.lhv import (
    LhvModel,
    is_dispersion_free,
    lhv_covariance,
    lhv_mean,
    lhv_profile,
    lhv_variance,
    random_model,
    schwarz_witness,
)

# two-point model with every moment easy to do by hand
HAND_MODEL = LhvModel(
    weights=[0.25, 0.75],
    a=[1.0, -1.0],
    b=[2.0, 0.0],
    c=[0.0, 4.0],
    d=[-1.0, 1.0],
)


def test_mean_hand_computed():
    assert lhv_mean(HAND_MODEL, "A") == pytest.approx(0.25 - 0.75, abs=1e-15)
    assert lhv_mean(HAND_MODEL, "C") == pytest.approx(3.0, abs=1e-15)


def test_variance_hand_computed():
    # A: mean -0.5, deviations (1.5, -0.5): 0.25 * 2.25 + 0.75 * 0.25 = 0.75
    assert lhv_variance(HAND_MODEL, "A") == pytest.approx(0.75, abs=1e-15)
    # C: mean 3, deviations (-3, 1): 0.25 * 9 + 0.75 * 1 = 3.0
    assert lhv_variance(HAND_MODEL, "C") == pytest.approx(3.0, abs=1e-15)


def test_covariance_hand_computed():
    # <AC> = 0.25 * 0 + 0.75 * (-4) = -3; mean(A) mean(C) = -1.5
    assert lhv_covariance(HAND_MODEL, "A", "C") == pytest.approx(-1.5, abs=1e-15)


def test_covariance_of_observable_with_itself_is_variance():
    for which in ("A", "B", "C", "D"):
        assert lhv_covariance(HAND_MODEL, which, which) == pytest.approx(
            lhv_variance(HAND_MODEL, which), abs=1e-12
        )


def test_profile_wires_fields_to_moments():
    profile = lhv_profile(HAND_MODEL)
    assert profile.e_ac == pytest.approx(lhv_covariance(HAND_MODEL, "A", "C"), abs=1e-15)
    assert profile.e_cd == pytest.approx(lhv_covariance(HAND_MODEL, "C", "D"), abs=1e-15)
    assert profile.var_b == pytest.approx(lhv_variance(HAND_MODEL, "B"), abs=1e-15)


def test_model_validation():
    with pytest.raises(ValueError):
        LhvModel(weights=[0.5, 0.6], a=[0, 0], b=[0, 0], c=[0, 0], d=[0, 0])
    with pytest.raises(ValueError):
        LhvModel(weights=[-0.5, 1.5], a=[0, 0], b=[0, 0], c=[0, 0], d=[0, 0])
    with pytest.raises(ValueError):
        LhvModel(weights=[1.0], a=[0, 0], b=[0], c=[0], d=[0])
    with pytest.raises(ValueError):
        LhvModel(weights=[1.0], a=[math.nan], b=[0], c=[0], d=[0])
    with pytest.raises(ValueError):
        LhvModel(weights=[], a=[], b=[], c=[], d=[])


def test_model_bound_is_enforced():
    LhvModel(weights=[1.0], a=[2.0], b=[0.0], c=[0.0], d=[0.0], bound=2.0)
    with pytest.raises(ValueError):
        LhvModel(weights=[1.0], a=[2.1], b=[0.0], c=[0.0], d=[0.0], bound=2.0)
    with pytest.raises(ValueError):
        LhvModel(weights=[1.0], a=[0.0], b=[0.0], c=[0.0], d=[0.0], bound=-1.0)


def test_model_tables_are_read_only():
    model = LhvModel(weights=[1.0], a=[1.0], b=[1.0], c=[1.0], d=[1.0])
    with pytest.raises(ValueError):
        model.a[0] = 5.0


def test_dict_round_trip():
    data = HAND_MODEL.to_dict()
    again = LhvModel.from_dict(data)
    assert np.array_equal(again.weights, HAND_MODEL.weights)
    assert np.array_equal(again.c, HAND_MODEL.c)


def test_from_dict_rejects_missing_and_extra_keys():
    good = HAND_MODEL.to_dict()
    missing = dict(good)
    del missing["C"]
    with pytest.raises(ValueError):
        LhvModel.from_dict(missing)
    extra = dict(good)
    extra["E"] = [0.0, 0.0]
    with pytest.raises(ValueError):
        LhvModel.from_dict(extra)


def test_schwarz_witness_hand_model():
    witness = schwarz_witness(HAND_MODEL)
    # u = (A - B) - mean(A - B); A - B = (-1, -1) so u = 0 identically
    assert witness.norm_u == pytest.approx(0.0, abs=1e-15)
    assert witness.inner == pytest.approx(0.0, abs=1e-15)
    assert witness.norm_v > 0.0


def test_schwarz_inequality_holds_on_random_models():
    for seed in range(300):
        model = random_model(seed, 8, 5.0)
        witness = schwarz_witness(model)
        assert witness.inner**2 <= witness.norm_u * witness.norm_v + 1e-9
        assert witness.norm_u >= 0.0
        assert witness.norm_v >= 0.0


def test_witness_matches_profile_combination():
    # inner equals the correlation combination, norms equal the bound factors
    model = random_model(123, 16, 3.0)
    witness = schwarz_witness(model)
    p = lhv_profile(model)
    combination = p.e_ac + p.e_ad - p.e_bc - p.e_bd
    assert witness.inner == pytest.approx(combination, abs=1e-10)
    assert witness.norm_u == pytest.approx(p.var_a + p.var_b - 2.0 * p.e_ab, abs=1e-10)
    assert witness.norm_v == pytest.approx(p.var_c + p.var_d + 2.0 * p.e_cd, abs=1e-10)


def test_no_random_model_violates_general_bound():
    for seed in range(500):
        verdict = verdict_for_profile(lhv_profile(random_model(seed, 8, 5.0)), "general")
        assert verdict.margin <= 1e-9
        assert not verdict.violated


def test_general_bound_holds_for_varied_shapes():
    for seed, n_points, bound in [(1, 1, 0.5), (2, 2, 10.0), (3, 64, 1.0), (4, 257, 20.0)]:
        verdict = verdict_for_profile(lhv_profile(random_model(seed, n_points, bound)), "general")
        assert verdict.margin <= 1e-9


def test_point_mass_model_is_dispersion_free():
    model = LhvModel(weights=[1.0], a=[1.5], b=[-0.5], c=[2.0], d=[0.0])
    assert is_dispersion_free(model)
    # all covariances vanish, so the dispersion-free bound saturates at zero
    profile = lhv_profile(model)
    assert profile.e_ac == 0.0
    assert profile.var_a == 0.0


def test_spread_model_is_not_dispersion_free():
    assert not is_dispersion_free(HAND_MODEL)


def test_constant_tables_are_dispersion_free_regardless_of_points():
    model = LhvModel(
        weights=[0.2, 0.3, 0.5],
        a=[1.0, 1.0, 1.0],
        b=[-2.0, -2.0, -2.0],
        c=[0.5, 0.5, 0.5],
        d=[0.0, 0.0, 0.0],
    )
    assert is_dispersion_free(model)


def test_random_model_is_deterministic_per_seed():
    one = random_model(99, 12, 4.0)
    two = random_model(99, 12, 4.0)
    assert np.array_equal(one.weights, two.weights)
    assert np.array_equal(one.a, two.a)
    assert np.array_equal(one.d, two.d)
    other = random_model(100, 12, 4.0)
    assert not np.array_equal(one.a, other.a)


def test_random_model_respects_requested_shape_and_bound():
    model = random_model(0, 7, 2.5)
    assert model.n_points == 7
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for table in (model.a, model.b, model.c, model.d):
        assert np.all(np.abs(table) <= 2.5)


def test_random_model_validates_arguments():
    with pytest.raises(ValueError):
        random_model(0, 0, 1.0)
    with pytest.raises(ValueError):
        random_model(0, 4, 0.0)


def test_mirrored_sign_model_reaches_chsh_bound():
    # deterministic +/-1 strategy mirrored to zero means attains lhs = 2 exactly
    model = LhvModel(
        weights=[0.5, 0.5],
        a=[1.0, -1.0],
        b=[1.0, -1.0],
        c=[1.0, -1.0],
        d=[1.0, -1.0],
    )
    verdict = verdict_for_profile(lhv_profile(model), "chsh")
    assert verdict.lhs == pytest.approx(2.0, abs=1e-15)
    assert not verdict.violated

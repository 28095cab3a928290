"""Inequality kernels, profiles, and verdicts against hand-worked numbers."""

import math
import re
import warnings

import numpy as np
import pytest

from belllab import inequalities
from belllab.errors import NumericsError
from belllab.geometry import DotProductConfig, gram_of, planar
from belllab.inequalities import (
    INEQUALITIES,
    INEQUALITY_IDS,
    CorrelationProfile,
    chsh_terms,
    correlation_combination,
    dispersion_free_terms,
    epr_correlation_terms,
    epr_profile_from_dots,
    general_terms,
    ghz_correlation_terms,
    ghz_profile_from_angles,
    inequality_kernel,
    make_verdict,
    verdict_for_profile,
)

# one fixed profile reused below; all downstream numbers worked by hand
HAND_PROFILE = CorrelationProfile(
    e_ac=0.3,
    e_ad=-0.2,
    e_bc=0.1,
    e_bd=0.4,
    e_ab=-0.5,
    e_cd=0.25,
    var_a=0.9,
    var_b=1.1,
    var_c=0.8,
    var_d=1.2,
)


def test_profile_casts_to_float():
    profile = CorrelationProfile(1, 0, 0, 0, 0, 0, 1, 1, 1, 1)
    assert isinstance(profile.e_ac, float)
    assert isinstance(profile.var_d, float)


def test_profile_rejects_non_finite():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="e_ac must be finite"):
            CorrelationProfile(value, 0, 0, 0, 0, 0, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="var_d must be finite"):
            CorrelationProfile(0, 0, 0, 0, 0, 0, 1, 1, 1, value)


def test_profile_rejects_negative_variance():
    with pytest.raises(ValueError):
        CorrelationProfile(0, 0, 0, 0, 0, 0, -0.01, 1, 1, 1)
    # tiny negative from roundoff is tolerated
    CorrelationProfile(0, 0, 0, 0, 0, 0, -1e-13, 1, 1, 1)


@pytest.mark.parametrize(
    "sigma, shape",
    [([[0.0] * 3] * 3, (3, 3)), ([0.0] * 16, (16,)), ([[[0.0] * 4] * 4] * 2, (2, 4, 4))],
)
def test_profile_from_covariance_refuses_a_matrix_not_4x4(sigma, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be 4x4, got shape {shape}")):
        CorrelationProfile.from_covariance(sigma)


def test_combination_arithmetic():
    assert correlation_combination(0.3, -0.2, 0.1, 0.4) == pytest.approx(-0.4, abs=1e-15)


def test_general_terms_hand_computed():
    lhs, rhs = general_terms(0.3, -0.2, 0.1, 0.4, -0.5, 0.25, 0.9, 1.1, 0.8, 1.2)
    # comb = 0.3 - 0.2 - 0.1 - 0.4 = -0.4, lhs = 0.16
    # rhs = (0.9 + 1.1 + 1.0) * (0.8 + 1.2 + 0.5) = 3.0 * 2.5 = 7.5
    assert lhs == pytest.approx(0.16, abs=1e-15)
    assert rhs == pytest.approx(7.5, abs=1e-15)


def test_general_terms_default_unit_variances():
    # the singlet's unit variances come from its correlation terms, not from defaults
    lhs, rhs = general_terms(*epr_correlation_terms(-1, 0, 0, 0, 0, 1))
    assert lhs == 0.0
    assert rhs == pytest.approx(16.0, abs=1e-15)


def test_dispersion_free_terms_hand_computed():
    lhs, rhs = dispersion_free_terms(0.3, -0.2, 0.1, 0.4, -0.5, 0.25, 1.0, 1.0, 1.0, 1.0)
    # 0.16 + 4 * (-0.5) * 0.25 = -0.34
    assert lhs == pytest.approx(-0.34, abs=1e-15)
    assert rhs == 0.0
    assert math.copysign(1.0, rhs) == 1.0


def test_chsh_terms_tsirelson_point():
    r = 0.7071067811865476
    lhs, rhs = chsh_terms(r, r, r, -r, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert lhs == pytest.approx(2.8284271247461903, abs=1e-15)
    assert rhs == 2.0


def test_make_verdict_margin_and_flag():
    v = make_verdict("general", 3.0, 2.0, 1e-9)
    assert v.margin == pytest.approx(1.0)
    assert v.violated is True
    assert v.inequality_id == "general"


def test_make_verdict_tolerance_boundary():
    # margin exactly equal to the tolerance is not yet a violation
    step = 2.0**-30
    assert make_verdict("general", 1.0 + step, 1.0, step).violated is False
    assert make_verdict("general", 1.0 + step, 1.0, step / 2.0).violated is True


def test_make_verdict_rejects_unknown_id():
    with pytest.raises(ValueError):
        make_verdict("nonsense", 1.0, 0.0, 1e-9)


@pytest.mark.parametrize(
    "lhs,rhs",
    [(math.inf, 16.0), (0.0, math.nan), (math.inf, math.inf), (1e308, -1e308)],
)
def test_make_verdict_rejects_non_finite_margin(lhs, rhs):
    # the last case has finite sides whose difference overflows
    with pytest.raises(NumericsError):
        make_verdict("general", lhs, rhs)


def test_overflowing_profile_is_a_numerics_error():
    profile = CorrelationProfile(1e308, 1e308, 0, 0, 0, 0, 1, 1, 1, 1)
    with pytest.raises(NumericsError):
        verdict_for_profile(profile, "general")


def test_kernels_share_the_profile_signature():
    # every registry kernel takes the ten profile fields by name, in profile order
    fields = HAND_PROFILE.as_dict()
    for kernel, _ in INEQUALITIES.values():
        assert kernel(**fields) == kernel(*fields.values())
        # no field has a default: a call with the six correlations alone is refused
        with pytest.raises(TypeError):
            kernel(*list(fields.values())[:6])


def test_verdict_as_dict_keys():
    d = make_verdict("chsh", 2.5, 2.0, 1e-9).as_dict()
    assert list(d) == ["inequality", "lhs", "rhs", "margin", "violated"]
    assert d["violated"] is True


def test_epr_correlation_signs():
    # cross correlations flip sign, same-side ones do not
    e_ac, e_ad, e_bc, e_bd, e_ab, e_cd, *_ = epr_correlation_terms(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert (e_ac, e_ad, e_bc, e_bd) == (-0.2, -0.3, -0.4, -0.5)
    assert (e_ab, e_cd) == (0.1, 0.6)


@pytest.mark.parametrize(
    "alpha,beta,gamma,delta",
    [(0.0, 0.5, 1.0, 1.5), (0.3, 2.0, 0.9, 2.8), (1.1, 1.1, 0.0, 3.0)],
)
def test_ghz_correlations_against_inline_trig(alpha, beta, gamma, delta):
    e_ac, e_ad, e_bc, e_bd, e_ab, e_cd, *_ = ghz_correlation_terms(alpha, beta, gamma, delta)
    assert e_ac == pytest.approx(-math.cos(2 * (alpha - gamma)), abs=1e-15)
    assert e_ad == pytest.approx(-math.cos(2 * (alpha - delta)), abs=1e-15)
    assert e_bc == pytest.approx(-math.cos(2 * (beta - gamma)), abs=1e-15)
    assert e_bd == pytest.approx(-math.cos(2 * (beta - delta)), abs=1e-15)
    assert e_ab == pytest.approx(math.cos(2 * (alpha - beta)), abs=1e-15)
    assert e_cd == pytest.approx(math.cos(2 * (gamma - delta)), abs=1e-15)


def test_profile_builders_have_unit_variances():
    dots = DotProductConfig(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    p = epr_profile_from_dots(dots)
    assert (p.var_a, p.var_b, p.var_c, p.var_d) == (1.0, 1.0, 1.0, 1.0)
    q = ghz_profile_from_angles(0.2, 0.4, 0.6, 0.8)
    assert (q.var_a, q.var_b, q.var_c, q.var_d) == (1.0, 1.0, 1.0, 1.0)


def test_singlet_perfect_anticorrelation():
    # c aligned with a gives E(A, C) = -1 exactly
    dots = gram_of(*planar([0.7, 2.0, 0.7, 1.2]))
    p = epr_profile_from_dots(dots)
    assert p.e_ac == pytest.approx(-1.0, abs=1e-15)


def test_aligned_degenerate_configuration_reaches_twelve():
    # b = -a, c = d = a: comb = -4, lhs = 16 - 4 = 12
    dots = gram_of(*planar([0.0, math.pi, 0.0, 0.0]))
    verdict = verdict_for_profile(epr_profile_from_dots(dots), "dispersion_free")
    assert verdict.lhs == pytest.approx(12.0, abs=1e-12)
    assert verdict.violated is True


def test_general_verdict_saturates_at_aligned_configuration():
    dots = gram_of(*planar([0.0, math.pi, 0.0, 0.0]))
    verdict = verdict_for_profile(epr_profile_from_dots(dots), "general")
    assert verdict.lhs == pytest.approx(16.0, abs=1e-12)
    assert verdict.rhs == pytest.approx(16.0, abs=1e-12)
    assert abs(verdict.margin) <= 1e-12
    assert verdict.violated is False


def test_verdict_dispatch_covers_every_id():
    for inequality_id in INEQUALITY_IDS:
        v = verdict_for_profile(HAND_PROFILE, inequality_id)
        assert v.inequality_id == inequality_id


def test_verdict_dispatch_picks_matching_formula():
    fields = HAND_PROFILE.as_dict().values()
    assert verdict_for_profile(HAND_PROFILE, "epr_general").lhs == general_terms(*fields)[0]
    assert verdict_for_profile(HAND_PROFILE, "epr_general").rhs == general_terms(*fields)[1]
    assert (
        verdict_for_profile(HAND_PROFILE, "ghz_dispersion_free").lhs
        == dispersion_free_terms(*fields)[0]
    )
    assert verdict_for_profile(HAND_PROFILE, "chsh").rhs == 2.0


def test_verdict_dispatch_rejects_unknown_id():
    with pytest.raises(ValueError):
        verdict_for_profile(HAND_PROFILE, "made_up")


def test_epr_closed_form_ids_and_values():
    dots = DotProductConfig(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    profile = epr_profile_from_dots(dots)
    general = verdict_for_profile(profile, "epr_general")
    df = verdict_for_profile(profile, "epr_dispersion_free")
    assert general.inequality_id == "epr_general"
    assert df.inequality_id == "epr_dispersion_free"
    fields = profile.as_dict().values()
    assert (general.lhs, general.rhs) == general_terms(*fields)
    assert (df.lhs, df.rhs) == dispersion_free_terms(*fields)
    # the singlet ids are refused on any other state family
    for family in ("ghz", "profile", "lhv"):
        with pytest.raises(ValueError):
            inequality_kernel("epr_general", family)
    assert inequality_kernel("epr_general", "epr") is general_terms


def test_epr_closed_form_from_directions():
    # the singlet forms written out in dot products:
    #   general:         (ac + ad - bc - bd)^2 <= 4 (1 - ab)(1 + cd)
    #   dispersion-free: (ac + ad - bc - bd)^2 + 4 ab cd <= 0
    a, b, c, d = planar([0.3, 1.1, 2.0, 2.9])
    dots = gram_of(a, b, c, d)
    profile = epr_profile_from_dots(dots)
    combination = dots.ac + dots.ad - dots.bc - dots.bd
    general = verdict_for_profile(profile, "epr_general")
    assert general.lhs == pytest.approx(combination**2, abs=1e-15)
    assert general.rhs == pytest.approx(4.0 * (1.0 - dots.ab) * (1.0 + dots.cd), abs=1e-15)
    df = verdict_for_profile(profile, "epr_dispersion_free")
    assert df.lhs == pytest.approx(combination**2 + 4.0 * dots.ab * dots.cd, abs=1e-15)


def test_ghz_closed_form_ids():
    angles = (0.1, 0.2, 0.3, 0.4)
    v = verdict_for_profile(ghz_profile_from_angles(*angles), "ghz_dispersion_free")
    assert v.inequality_id == "ghz_dispersion_free"
    e_ac, e_ad, e_bc, e_bd, e_ab, e_cd, *_ = ghz_correlation_terms(*angles)
    expected = (e_ac + e_ad - e_bc - e_bd) ** 2 + 4.0 * e_ab * e_cd
    assert v.lhs == pytest.approx(expected, abs=1e-15)
    assert inequality_kernel("ghz_dispersion_free", "ghz") is dispersion_free_terms
    with pytest.raises(ValueError):
        inequality_kernel("ghz_dispersion_free", "epr")


def test_chsh_verdict_reads_only_cross_correlations():
    v = verdict_for_profile(HAND_PROFILE, "chsh")
    assert v.lhs == pytest.approx(abs(0.3 - 0.2 + 0.1 - 0.4), abs=1e-15)
    assert v.rhs == 2.0
    assert v.violated is False


def test_the_bounded_kernels_reach_their_suprema_at_their_bounds():
    # the margin bounds give the paper's two suprema: Tsirelson's 2 sqrt 2 for
    # CHSH at E(A,B) = 0 and 12 for the dispersion-free form at E(A,B) = -1
    bounds = inequalities._PAIR_BOUNDS
    assert set(bounds) == {chsh_terms, dispersion_free_terms}
    assert bounds[chsh_terms](0.0) + 2.0 == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)
    assert bounds[dispersion_free_terms](-1.0) == 12.0
    # four planar settings at 0, 180, 45 and -45 degrees meet both bounds
    for kernel, angles in ((chsh_terms, (0, 90, 45, -45)), (dispersion_free_terms, (0, 180, 0, 0))):
        profile = epr_profile_from_dots(gram_of(*planar([math.radians(a) for a in angles])))
        lhs, rhs = kernel(*profile.as_dict().values())
        assert lhs - rhs == pytest.approx(bounds[kernel](profile.e_ab), abs=1e-12)


def test_each_bound_is_finite_and_quiet_a_few_ulp_past_plus_and_minus_one():
    # a rounded dot product of two unit vectors may fall just outside [-1, 1];
    # the bound clips it, so a root of a negative never warns or gives NaN
    edges = []
    for end in (-1.0, 1.0):
        value = end
        for _ in range(4):
            value = np.nextafter(value, 2.0 * end)
            edges.append(value)
        edges.append(end)
    edges = np.array(edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound in inequalities._PAIR_BOUNDS.values():
            values = bound(edges)
            assert np.isfinite(values).all()
            assert np.array_equal(values, bound(np.clip(edges, -1.0, 1.0)))
            assert all(math.isfinite(bound(float(value))) for value in edges)

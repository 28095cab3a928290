"""Finite weighted hidden-variable models and the Schwarz mechanism behind the general bound."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab import _streams, cli, lhv
from belllab.errors import NumericsError
from belllab.inequalities import verdict_for_profile
from belllab.lhv import (
    MAX_MODEL_POINTS,
    LhvModel,
    general_margins,
    lhv_covariance_matrix,
    lhv_profile,
    random_model,
)

# two-point model with every moment easy to do by hand, as a scenario block
# and as the model it spells out (table rows A, B, C, D)
HAND_BLOCK = {
    "weights": [0.25, 0.75],
    "A": [1.0, -1.0],
    "B": [2.0, 0.0],
    "C": [0.0, 4.0],
    "D": [-1.0, 1.0],
}
HAND_MODEL = LhvModel(HAND_BLOCK["weights"], [HAND_BLOCK[key] for key in "ABCD"])

HAND_SIGMA = lhv_covariance_matrix(HAND_MODEL)

# quadratic-form vectors of the general bound: u picks A - B, v picks C + D;
# u.S.v is the correlation combination and (u.S.v)^2 <= (u.S.u)(v.S.v) is the bound
SCHWARZ_U = np.array([1.0, -1.0, 0.0, 0.0])
SCHWARZ_V = np.array([0.0, 0.0, 1.0, 1.0])


def parse_lhv(block):
    """The lhv block parser of the scenario table; returns the built profile."""
    _, build = cli.SCENARIOS["lhv"][0](block)
    profile, _, _ = build()
    return profile


def test_mean_hand_computed():
    # the matrix is centered: removing the means (A: 0.25 - 0.75, C: 3) or
    # adding any constant to a table leaves it unchanged
    offsets = np.array([[0.25 - 0.75], [-7.0], [3.0], [0.0]])
    centered = LhvModel(weights=HAND_MODEL.weights, tables=HAND_MODEL.tables - offsets)
    assert centered.tables[0] @ centered.weights == pytest.approx(0.0, abs=1e-15)
    assert centered.tables[2] @ centered.weights == pytest.approx(0.0, abs=1e-15)
    assert lhv_covariance_matrix(centered) == pytest.approx(HAND_SIGMA, abs=1e-15)


def test_variance_hand_computed():
    # A: mean -0.5, deviations (1.5, -0.5): 0.25 * 2.25 + 0.75 * 0.25 = 0.75
    assert HAND_SIGMA[0, 0] == pytest.approx(0.75, abs=1e-15)
    # C: mean 3, deviations (-3, 1): 0.25 * 9 + 0.75 * 1 = 3.0
    assert HAND_SIGMA[2, 2] == pytest.approx(3.0, abs=1e-15)


def test_covariance_hand_computed():
    # <AC> = 0.25 * 0 + 0.75 * (-4) = -3; mean(A) mean(C) = -1.5
    assert HAND_SIGMA[0, 2] == pytest.approx(-1.5, abs=1e-15)


def test_covariance_of_observable_with_itself_is_variance():
    weights = HAND_MODEL.weights
    for k, table in enumerate(HAND_MODEL.tables):
        deviation = table - weights @ table
        assert HAND_SIGMA[k, k] == pytest.approx(weights @ (deviation * deviation), abs=1e-12)
    assert np.array_equal(HAND_SIGMA, HAND_SIGMA.T)


def test_profile_wires_fields_to_moments():
    profile = lhv_profile(HAND_MODEL)
    assert profile.e_ac == pytest.approx(HAND_SIGMA[0, 2], abs=1e-15)
    assert profile.e_cd == pytest.approx(HAND_SIGMA[2, 3], abs=1e-15)
    assert profile.var_b == pytest.approx(HAND_SIGMA[1, 1], abs=1e-15)


def test_model_validation():
    zeros = [[0, 0]] * 4
    with pytest.raises(ValueError, match="weights must sum to 1"):
        LhvModel(weights=[0.5, 0.6], tables=zeros)
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        LhvModel(weights=[-0.5, 1.5], tables=zeros)
    with pytest.raises(ValueError, match=r"need \(4, 1\)"):
        LhvModel(weights=[1.0], tables=[[0, 0], [0, 0], [0, 0], [0, 0]])
    with pytest.raises(ValueError, match=r"need \(4, 2\)"):
        LhvModel(weights=[0.5, 0.5], tables=[[0, 0]] * 3)
    with pytest.raises(ValueError, match="not numeric"):
        LhvModel(weights=[1.0], tables=[[0, 0], [0], [0], [0]])
    with pytest.raises(ValueError, match="non-finite"):
        LhvModel(weights=[1.0], tables=[[math.nan], [0], [0], [0]])
    with pytest.raises(ValueError, match="one-dimensional"):
        LhvModel(weights=[[1.0]], tables=[[0], [0], [0], [0]])
    with pytest.raises(ValueError, match="at least one hidden point"):
        LhvModel(weights=[], tables=np.empty((4, 0)))


def test_model_bound_is_enforced():
    def block(a, bound):
        return {"weights": [1.0], "A": [a], "B": [0.0], "C": [0.0], "D": [0.0], "bound": bound}

    parse_lhv(block(2.0, 2.0))
    parse_lhv(block(-2.0, 2))
    with pytest.raises(ValueError, match=r"^table A exceeds declared bound 2.0$"):
        parse_lhv(block(2.1, 2))
    with pytest.raises(ValueError, match=r"^table A exceeds declared bound 2.0$"):
        parse_lhv(block(-2.1, 2.0))
    # the bound is exact: no slack above it, however small the bound
    with pytest.raises(ValueError, match=r"^table A exceeds declared bound 1e-13$"):
        parse_lhv(block(1e-12, 1e-13))
    with pytest.raises(ValueError, match=r"^table A exceeds declared bound 2.0$"):
        parse_lhv(block(2.0000000000005, 2))
    for bound in (-1.0, 0, True, "2", None, [2.0]):
        with pytest.raises(ValueError, match="lhv bound must be a number above 0"):
            parse_lhv(block(0.0, bound))


def test_model_tables_are_read_only():
    model = LhvModel(weights=[1.0], tables=[[1.0], [1.0], [1.0], [1.0]])
    with pytest.raises(ValueError):
        model.tables[0, 0] = 5.0
    with pytest.raises(ValueError):
        model.weights[0] = 0.5


def test_model_leaves_the_callers_arrays_writable():
    weights = np.array([0.5, 0.5])
    tables = np.zeros((4, 2))
    model = LhvModel(weights, tables)
    weights[0] = 0.1
    tables[0, 0] = 3.0
    # the model holds copies, so it is unchanged
    assert model.weights.tolist() == [0.5, 0.5]
    assert not model.tables.any()


def test_dict_round_trip():
    # the scenario block builds the same model as the arrays it spells out
    assert parse_lhv(HAND_BLOCK) == lhv_profile(HAND_MODEL)
    assert parse_lhv({**HAND_BLOCK, "bound": 4}) == lhv_profile(HAND_MODEL)


def test_from_dict_rejects_missing_and_extra_keys():
    missing = dict(HAND_BLOCK)
    del missing["C"]
    with pytest.raises(ValueError, match=r"^hidden-variable model is missing keys \['C'\]$"):
        parse_lhv(missing)
    extra = dict(HAND_BLOCK, E=[0.0, 0.0])
    with pytest.raises(ValueError, match=r"^hidden-variable model has unexpected keys \['E'\]$"):
        parse_lhv(extra)


def test_schwarz_witness_hand_model():
    # u = (A - B) - mean(A - B); A - B = (-1, -1) so u = 0 identically
    assert SCHWARZ_U @ HAND_SIGMA @ SCHWARZ_U == pytest.approx(0.0, abs=1e-15)
    assert SCHWARZ_U @ HAND_SIGMA @ SCHWARZ_V == pytest.approx(0.0, abs=1e-15)
    assert SCHWARZ_V @ HAND_SIGMA @ SCHWARZ_V > 0.0


def test_schwarz_inequality_holds_on_random_models():
    for seed in range(300):
        sigma = lhv_covariance_matrix(random_model(seed, 8, 5.0))
        inner = SCHWARZ_U @ sigma @ SCHWARZ_V
        norm_u = SCHWARZ_U @ sigma @ SCHWARZ_U
        norm_v = SCHWARZ_V @ sigma @ SCHWARZ_V
        assert inner**2 <= norm_u * norm_v + 1e-9
        assert norm_u >= 0.0
        assert norm_v >= 0.0


def test_witness_matches_profile_combination():
    # u.S.v equals the correlation combination, the norms equal the bound factors
    model = random_model(123, 16, 3.0)
    sigma = lhv_covariance_matrix(model)
    p = lhv_profile(model)
    combination = p.e_ac + p.e_ad - p.e_bc - p.e_bd
    assert SCHWARZ_U @ sigma @ SCHWARZ_V == pytest.approx(combination, abs=1e-10)
    assert SCHWARZ_U @ sigma @ SCHWARZ_U == pytest.approx(
        p.var_a + p.var_b - 2.0 * p.e_ab, abs=1e-10
    )
    assert SCHWARZ_V @ sigma @ SCHWARZ_V == pytest.approx(
        p.var_c + p.var_d + 2.0 * p.e_cd, abs=1e-10
    )


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
    model = LhvModel(weights=[1.0], tables=[[1.5], [-0.5], [2.0], [0.0]])
    assert np.all(np.diag(lhv_covariance_matrix(model)) == 0.0)
    # all covariances vanish, so the dispersion-free bound saturates at zero
    profile = lhv_profile(model)
    assert profile.e_ac == 0.0
    assert profile.var_a == 0.0


def test_spread_model_is_not_dispersion_free():
    assert np.all(np.diag(HAND_SIGMA) > 0.0)


def test_constant_tables_are_dispersion_free_regardless_of_points():
    model = LhvModel(
        weights=[0.2, 0.3, 0.5],
        tables=[[1.0] * 3, [-2.0] * 3, [0.5] * 3, [0.0] * 3],
    )
    assert np.diag(lhv_covariance_matrix(model)) == pytest.approx(np.zeros(4), abs=1e-12)


def test_random_model_is_deterministic_per_seed():
    one = random_model(99, 12, 4.0)
    two = random_model(99, 12, 4.0)
    assert np.array_equal(one.weights, two.weights)
    assert np.array_equal(one.tables, two.tables)
    other = random_model(100, 12, 4.0)
    assert not np.array_equal(one.tables[0], other.tables[0])


def test_random_model_respects_requested_shape_and_bound():
    model = random_model(0, 7, 2.5)
    assert model.weights.shape == (7,)
    assert model.tables.shape == (4, 7)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(model.tables) <= 2.5)


def test_random_model_validates_arguments():
    with pytest.raises(ValueError):
        random_model(0, 0, 1.0)
    with pytest.raises(ValueError):
        random_model(0, 4, 0.0)
    # refused before any draw: the width 2 * bound overflows, or the tables
    # would not fit in memory
    for bound in (math.inf, 1e308, math.nan, 10**400):
        with pytest.raises(ValueError, match="bound"):
            random_model(0, 4, bound)
    for n_points in (MAX_MODEL_POINTS + 1, 100_000_000_000):
        with pytest.raises(ValueError, match="n_points must lie between 1 and 1000000"):
            random_model(0, n_points, 1.0)
    # the widest finite interval still draws
    widest = random_model(0, 4, sys.float_info.max / 2.0)
    assert np.all(np.isfinite(widest.tables))


def test_batched_margins_are_the_per_model_margins():
    for first, count, n_points, bound in [(0, 50, 8, 5.0), (7, 5, 1, 0.5), (3, 4, 513, 20.0)]:
        margins = general_margins(first, count, n_points, bound)
        expected = [
            verdict_for_profile(lhv_profile(random_model(first + k, n_points, bound)), "general")
            for k in range(count)
        ]
        # bit for bit: the batch makes the per-model arithmetic, stacked
        assert [m.hex() for m in margins.tolist()] == [v.margin.hex() for v in expected]


CUT = lhv.STACKED_DRAW_MAX_POINTS


@pytest.mark.parametrize(
    "first_seed, count, n_points, stacked",
    [
        (0, 4096, 8, True),
        (10**9, 300, 1, True),
        (77, 64, CUT, True),
        (77, 64, CUT + 1, False),
        (2**32 - 300, 600, 8, True),  # one and two entropy words
        (2**64 - 200, 200, 3, True),  # up to the last seed below 2**64
        (2**64 - 100, 200, 8, False),  # across 2**64
        (2**70, 3, 8, False),
        (5, 1, 8, False),  # one model
    ],
)
def test_batch_draws_are_the_per_seed_draws_bit_for_bit(monkeypatch, first_seed, count, n_points, stacked):
    mirror = _streams.draw
    mirrored = []

    def recording_mirror(*args):
        mirrored.append(mirror(*args))
        return mirrored[-1]

    monkeypatch.setattr(_streams, "draw", recording_mirror)
    drawn = lhv._draws(first_seed, count, n_points, 5.0)
    assert len(mirrored) == int(stacked)
    # the stacked draw itself, not only what the guard lets through
    for weights, tables in [drawn, *mirrored]:
        assert weights.shape == (count, n_points) and tables.shape == (count, 4, n_points)
        for k in range(count):
            expected = lhv._draw(first_seed + k, n_points, 5.0)
            assert weights[k].tobytes() == expected[0].tobytes()
            assert tables[k].tobytes() == expected[1].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 2),
    st.integers(1, CUT),
    st.floats(1e-300, sys.float_info.max / 2.0),
)
def test_stacked_draw_is_the_per_seed_draw_for_any_seed_below_2_64(first_seed, n_points, bound):
    weights, tables = _streams.draw(first_seed, 2, n_points, bound)
    for k in range(2):
        expected = lhv._draw(first_seed + k, n_points, bound)
        assert weights[k].tobytes() == expected[0].tobytes()
        assert tables[k].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("field", [0, 1], ids=["weights", "tables"])
def test_a_stacked_batch_unlike_the_per_seed_draw_is_drawn_per_seed(monkeypatch, field):
    margins = general_margins(3, 256, 8, 5.0)
    run = lhv.check_general_bound(3, 1000, 8, 5.0, 1e-9)
    mirror = _streams.draw
    drifted = []

    # numpy's stream moves: model 0's first weight or table value changes by
    # 2**10 ulp, which moves its margin but keeps its weights summing to 1
    def drifted_draw(*args):
        drawn = mirror(*args)
        drawn[field][0].reshape(-1).view(np.uint64)[0] ^= np.uint64(1 << 10)
        drifted.append(args)
        return drawn

    monkeypatch.setattr(_streams, "draw", drifted_draw)
    assert general_margins(3, 256, 8, 5.0).tobytes() == margins.tobytes()
    assert lhv.check_general_bound(3, 1000, 8, 5.0, 1e-9) == run
    assert len(drifted) == 1 + 4  # one batch, then the run's four


def test_batched_margins_refuse_what_random_model_refuses():
    for n_points, bound, message in [
        (0, 1.0, "n_points must lie between 1 and 1000000"),
        (4, 0.0, "bound must be positive"),
        (4, 1e308, r"bound 1e\+308 is too large"),
    ]:
        with pytest.raises(ValueError, match=message):
            random_model(0, n_points, bound)
        with pytest.raises(ValueError, match=message):
            general_margins(0, 3, n_points, bound)


@pytest.mark.parametrize("n_points", [1, 8, 513, 2048])
def test_check_general_bound_splits_the_run_into_seed_ordered_batches(monkeypatch, n_points):
    margins = lhv.general_margins
    calls = []

    def recording_margins(first_seed, count, *args):
        calls.append((first_seed, count))
        return margins(first_seed, count, *args)

    monkeypatch.setattr(lhv, "general_margins", recording_margins)
    step = max(1, lhv.BATCH_TABLE_FLOATS // (4 * n_points))
    seed, models = 5, 2 * step + 3
    lhv.check_general_bound(seed, models, n_points, 5.0, 1e-9)
    starts = [first for first, _ in calls]
    assert starts == list(range(seed, seed + models, step))
    assert all(count == step for _, count in calls[:-1])
    assert 1 <= calls[-1][1] <= step
    assert sum(count for _, count in calls) == models


def test_check_general_bound_reports_the_lowest_seed_of_equal_margins(monkeypatch):
    # every batch reads the same margins, so only the first batch's first maximum counts
    monkeypatch.setattr(lhv, "general_margins", lambda first, count, *a: np.zeros(count))
    assert lhv.check_general_bound(7, 100, 512, 5.0, 1e-9) == (0.0, 7, 0)
    monkeypatch.setattr(lhv, "general_margins", lambda first, count, *a: np.full(count, 0.5))
    assert lhv.check_general_bound(7, 100, 512, 5.0, 1e-9) == (0.5, 7, 100)


# faults no seeded draw makes, each applied to the drawn model of one seed
FAULTS = {
    # the weight of point 0 moves twice over to point 1, so the sum stays 1
    "negative weight": lambda w, t: (w + w[0] * np.array([-2.0, 2.0] + [0.0] * (w.size - 2)), t),
    "sum x 1.5": lambda w, t: (w * 1.5, t),
    "inf weight": lambda w, t: (np.where(np.arange(w.size) == 0, math.inf, w), t),
    "nan table": lambda w, t: (w, np.where(np.arange(w.size) == 0, math.nan, t)),
    "overflowing table": lambda w, t: (w, t * 1e300),
    "overflowing margin": lambda w, t: (w, t * 1e153),
}


def _first_model_error(weights, tables):
    """The error the per-model path raises on one model, or None."""
    try:
        verdict_for_profile(lhv_profile(LhvModel(weights, tables)), "general")
    except (ValueError, NumericsError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "faults",
    [
        {3: "negative weight", 5: "nan table"},
        {5: "negative weight", 3: "nan table"},
        {4: "sum x 1.5", 6: "inf weight"},
        {2: "inf weight", 1: "sum x 1.5"},
        {7: "overflowing table", 8: "negative weight"},
        {0: "sum x 1.5"},
        {11: "overflowing table", 9: "inf weight"},
        {10: "negative weight", 6: "overflowing margin"},
        {4: "overflowing table", 6: "overflowing margin"},
    ],
)
def test_batched_margins_raise_the_error_of_the_first_faulty_seed(monkeypatch, faults):
    draws = lhv._draws

    # the batch's models are drawn together, so each fault goes into its seed's row
    def faulty_draws(first_seed, count, n_points, bound):
        weights, tables = draws(first_seed, count, n_points, bound)
        for seed, fault in faults.items():
            row = seed - first_seed
            weights[row], tables[row] = FAULTS[fault](weights[row], tables[row])
        return weights, tables

    monkeypatch.setattr(lhv, "_draws", faulty_draws)
    assert lhv.BATCH_TABLE_FLOATS // 32 >= 12  # one batch holds all 12 eight-point models
    errors = {
        seed: _first_model_error(*FAULTS[fault](*lhv._draw(seed, 8, 5.0)))
        for seed, fault in faults.items()
    }
    expected = errors.pop(min(faults))
    assert expected is not None
    assert expected not in errors.values()  # the message tells which seed raised
    with pytest.raises(expected[0]) as caught:
        general_margins(0, 12, 8, 5.0)
    assert str(caught.value) == expected[1]


def test_mirrored_sign_model_reaches_chsh_bound():
    # deterministic +/-1 strategy mirrored to zero means attains lhs = 2 exactly
    model = LhvModel(weights=[0.5, 0.5], tables=[[1.0, -1.0]] * 4)
    verdict = verdict_for_profile(lhv_profile(model), "chsh")
    assert verdict.lhs == pytest.approx(2.0, abs=1e-15)
    assert not verdict.violated


def test_common_offset_does_not_fake_a_violation():
    # tables near 1e8 make an uncentered covariance cancel 1e16-sized
    # products; A = B saturates the bound, so the exact margin is 0
    offset = [100000000.3, 99999999.9]
    model = LhvModel(weights=[0.5, 0.5], tables=[offset, offset, [1.0, -1.0], [1.0, -1.0]])
    profile = lhv_profile(model)
    verdict = verdict_for_profile(profile, "general")
    assert not verdict.violated
    assert abs(verdict.margin) <= 1e-9
    assert profile.e_ab <= math.sqrt(profile.var_a * profile.var_b)


@st.composite
def _offset_tables(draw):
    n_points = draw(st.integers(1, 6))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n_points, max_size=n_points))
    weights = np.array(raw) / sum(raw)
    noise = st.lists(st.floats(-1.0, 1.0), min_size=n_points, max_size=n_points)
    tables = []
    for _ in range(4):
        offset = draw(st.floats(-1e8, 1e8))
        tables.append(offset + np.array(draw(noise)))
    if draw(st.booleans()):
        tables[1] = tables[0]
    return LhvModel(weights, np.array(tables))


@settings(max_examples=300, deadline=None)
@given(_offset_tables())
def test_general_bound_holds_under_common_offset(model):
    profile = lhv_profile(model)
    assert not verdict_for_profile(profile, "general").violated
    variances = {"a": profile.var_a, "b": profile.var_b, "c": profile.var_c, "d": profile.var_d}
    for x, y in ("ac", "ad", "bc", "bd", "ab", "cd"):
        e_xy = getattr(profile, f"e_{x}{y}")
        assert e_xy * e_xy <= variances[x] * variances[y] + 1e-9


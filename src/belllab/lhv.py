"""Finite weighted hidden-variable models and their correlation statistics.

A model is two arrays: the probability weights of its n hidden points, and
one (4, n) table whose rows are the values of the observables A, B, C, D at
each point.  Every statistic is an entry of one matrix: the weighted
covariance matrix of (A, B, C, D), computed from the centered table.  The
profile is its ten distinct entries.

The seed contract: model k of a run is what its own default_rng(seed + k)
draws (_draw), however the run is split.  A batch of small models reproduces
those draws bit for bit as stacked streams (_streams), and keeps them only if
its first model is _draw's; other batches are drawn one seed at a time.
check_general_bound is the run, and the one place it is split: it hands
general_margins batches of at most BATCH_TABLE_FLOATS table values (or of one
model, where one alone holds more), so a run's memory does not grow with its
model count.  A batch makes the same arithmetic per model as one LhvModel, its
covariance matrix and its verdict.  Each check is written once, on one model;
a batch screens its stacked results and replays the per-model checks, in seed
order, only when the screen trips.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import _streams
from .inequalities import CorrelationProfile, covariance_fields, general_terms, make_verdict, violates

WEIGHT_SUM_TOL = 1e-12

#: Most hidden points random_model draws, so its memory is bounded before it starts.
MAX_MODEL_POINTS = 1_000_000

#: Most models one lhv-check run draws, so its time is bounded before it starts
#: (about an hour at 8 points).
MAX_CHECK_MODELS = 100_000_000

#: Table values one general_margins batch stacks (64 KiB), which bounds its memory.
BATCH_TABLE_FLOATS = 8192

#: Most hidden points at which a batch of models is drawn as stacked streams.
#: A stacked batch costs about 1.5 ms at any point count (its 5/4 *
#: BATCH_TABLE_FLOATS draws), a per-seed draw 20-35 us a model.  Per model in
#: general_margins, stacked against per seed, medians of 7 interleaved runs:
#: 29.4 against 34.9 us at 40 points (stacked faster in 6 of 7), 27.7 against
#: 26.9 at 48 (4 of 7), 40.3 against 38.3 at 56 (2 of 7); 2 CPUs, CPython 3.11,
#: numpy 2.4.
STACKED_DRAW_MAX_POINTS = 40


def _numeric(value, name: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)  # a copy: freezing it leaves the caller's array writable
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model field {name} is not numeric: {exc}") from exc
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LhvModel:
    """Finite hidden-parameter space: weights plus a (4, n) table, rows A, B, C, D.

    Weights must be nonnegative and already normalized; an off-by-more-than
    1e-12 total is rejected rather than silently rescaled.
    """

    weights: np.ndarray
    tables: np.ndarray

    def __post_init__(self) -> None:
        weights = _numeric(self.weights, "weights")
        tables = _numeric(self.tables, "tables")
        if weights.ndim != 1:
            raise ValueError("model field weights must be one-dimensional")
        n = weights.size
        if n == 0:
            raise ValueError("model needs at least one hidden point")
        if tables.shape != (4, n):
            raise ValueError(f"model tables have shape {tables.shape}, need (4, {n})")
        for name, arr in (("weights", weights), ("tables", tables)):
            if not np.isfinite(arr).all():
                raise ValueError(f"model field {name} contains non-finite values")
        if (weights < 0.0).any():
            raise ValueError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "tables", tables)


def _covariances(weights: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Weighted covariance matrices of (..., n) weights and (..., 4, n) tables, shape (..., 4, 4).

    Centering first keeps the entries accurate for tables far from zero,
    and the weighted Gram form keeps each matrix positive semidefinite.
    """
    with np.errstate(all="ignore"):
        centered = tables - np.matmul(tables, weights[..., None])
        return np.matmul(centered * weights[..., None, :], np.swapaxes(centered, -1, -2))


def _finite_covariance(sigma: np.ndarray) -> np.ndarray:
    if not np.isfinite(sigma).all():
        raise ValueError("hidden-variable model statistics overflow: covariance matrix is not finite")
    return sigma


def lhv_covariance_matrix(model: LhvModel) -> np.ndarray:
    """Weighted covariance matrix of (A, B, C, D): sum(rho * (O_j - mean_j) * (O_k - mean_k))."""
    return _finite_covariance(_covariances(model.weights, model.tables))


def lhv_profile(model: LhvModel) -> CorrelationProfile:
    return CorrelationProfile.from_covariance(lhv_covariance_matrix(model))


def _check_draw(n_points: int, bound: float) -> None:
    if not 1 <= n_points <= MAX_MODEL_POINTS:
        raise ValueError(f"n_points must lie between 1 and {MAX_MODEL_POINTS}, got {n_points}")
    if not bound > 0.0:
        raise ValueError("bound must be positive")
    # the draw needs the width 2 * bound of [-bound, bound] as a finite float
    if not bound <= sys.float_info.max / 2.0:
        raise ValueError(f"bound {bound!r} is too large: the width of [-bound, bound] overflows")


def _draw(seed: int, n_points: int, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """The seed contract: default_rng(seed) draws the weights, which are normalized, then the table."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n_points)
    return weights / weights.sum(), rng.uniform(-bound, bound, size=(4, n_points))


def _draws(first_seed: int, count: int, n_points: int, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """(count, n) weights and (count, 4, n) tables of _draw(first_seed + k, ...) for k < count.

    A batch of several small models with seeds in [0, 2**64) is drawn as
    stacked streams (_streams.draw), the others one seed at a time.  numpy
    promises no stream for Generator methods, so a stacked batch is kept only
    if its model 0 is _draw(first_seed) bit for bit; otherwise the batch is
    drawn one seed at a time too, and the models are _draw's either way.
    """
    if 1 < count and n_points <= STACKED_DRAW_MAX_POINTS and 0 <= first_seed <= 2**64 - count:
        weights, tables = _streams.draw(first_seed, count, n_points, bound)
        first = _draw(first_seed, n_points, bound)
        if weights[0].tobytes() == first[0].tobytes() and tables[0].tobytes() == first[1].tobytes():
            return weights, tables
    weights = np.empty((count, n_points))
    tables = np.empty((count, 4, n_points))
    for k in range(count):
        weights[k], tables[k] = _draw(first_seed + k, n_points, bound)
    return weights, tables


def random_model(seed: int, n_points: int, bound: float) -> LhvModel:
    """Deterministic random model: weights uniform then normalized, tables uniform in [-bound, bound].

    The draw order (weights, then the (4, n_points) table) is fixed, so one
    seed always yields one model.
    """
    _check_draw(n_points, bound)
    return LhvModel(*_draw(seed, n_points, bound))


def general_margins(first_seed: int, count: int, n_points: int, bound: float) -> np.ndarray:
    """General-bound margins lhs - rhs of random_model(first_seed + k, ...) for k < count.

    The models are stacked, not built: one pass computes every covariance
    matrix and one general_terms call every margin.  One screen over the
    stacked results flags each model that fails a check; only for those are
    the per-model checks of LhvModel, lhv_covariance_matrix and make_verdict
    replayed on the batch's own arrays in seed order, so the first failing
    model raises its error.
    """
    _check_draw(n_points, bound)
    weights, tables = _draws(first_seed, count, n_points, bound)
    sigma = _covariances(weights, tables)
    with np.errstate(all="ignore"):
        lhs, rhs = general_terms(*covariance_fields(sigma).T)
        margins = lhs - rhs
        # The screen flags every model that a replayed check refuses.  A
        # non-finite weight or table value makes a row mean, and so that
        # row's variance, non-finite, which the Σ screen sees.  Σ is
        # screened whole, not only through the margin, which reads one
        # triangle of it: roundoff leaves Σ asymmetric, so the other
        # triangle alone might overflow.
        suspect = (
            ~np.isfinite(margins)
            | ~np.isfinite(sigma).all(axis=(-2, -1))
            | (weights < 0.0).any(axis=-1)
            | (np.abs(weights.sum(axis=-1) - 1.0) > WEIGHT_SUM_TOL)
        )
    for k in np.flatnonzero(suspect):
        LhvModel(weights[k], tables[k])
        _finite_covariance(sigma[k])
        make_verdict("general", lhs[k], rhs[k])
    return margins


def check_general_bound(
    first_seed: int, count: int, n_points: int, bound: float, tolerance: float
) -> tuple[float, int, int]:
    """(max_margin, max_margin_seed, violations) of random_model(first_seed + k, ...) for k < count.

    The models go through general_margins in seed order, in batches of
    BATCH_TABLE_FLOATS table values or of one model.  Only a strictly larger
    margin replaces the maximum, so of equal margins the lowest seed is
    reported, whatever the batching.  A violation is a margin that
    inequalities.violates reads as one at tolerance.
    """
    _check_draw(n_points, bound)
    step = max(1, BATCH_TABLE_FLOATS // (4 * n_points))
    max_margin = -np.inf
    max_margin_seed = first_seed
    violations = 0
    end = first_seed + count
    for first in range(first_seed, end, step):
        margins = general_margins(first, min(step, end - first), n_points, bound)
        best = int(np.argmax(margins))  # the first of equal margins, as the seed order has it
        if margins[best] > max_margin:
            max_margin = float(margins[best])
            max_margin_seed = first + best
        violations += int(np.count_nonzero(violates(margins, tolerance)))
    return max_margin, max_margin_seed, violations

"""Finite weighted hidden-variable models and their correlation statistics.

A model is two arrays: the probability weights of its n hidden points, and
one (4, n) table whose rows are the values of the observables A, B, C, D at
each point.  Every statistic is an entry of one matrix: the weighted
covariance matrix of (A, B, C, D), computed from the centered table.  The
profile is its ten distinct entries.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .inequalities import CorrelationProfile

WEIGHT_SUM_TOL = 1e-12

#: Most hidden points random_model draws, so its memory is bounded before it starts.
MAX_MODEL_POINTS = 1_000_000


def _frozen(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model field {name} is not numeric: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"model field {name} contains non-finite values")
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
        weights = _frozen(self.weights, "weights")
        tables = _frozen(self.tables, "tables")
        if weights.ndim != 1:
            raise ValueError("model field weights must be one-dimensional")
        n = weights.size
        if n == 0:
            raise ValueError("model needs at least one hidden point")
        if tables.shape != (4, n):
            raise ValueError(f"model tables have shape {tables.shape}, need (4, {n})")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "tables", tables)


def lhv_covariance_matrix(model: LhvModel) -> np.ndarray:
    """Weighted covariance matrix of (A, B, C, D): sum(rho * (O_j - mean_j) * (O_k - mean_k)).

    Centering first keeps the entries accurate for tables far from zero,
    and the weighted Gram form keeps the matrix positive semidefinite.
    """
    tables = model.tables
    with np.errstate(all="ignore"):
        centered = tables - (tables @ model.weights)[:, None]
        sigma = (centered * model.weights) @ centered.T
    if not np.all(np.isfinite(sigma)):
        raise ValueError("hidden-variable model statistics overflow: covariance matrix is not finite")
    return sigma


def lhv_profile(model: LhvModel) -> CorrelationProfile:
    return CorrelationProfile.from_covariance(lhv_covariance_matrix(model))


def random_model(seed: int, n_points: int, bound: float) -> LhvModel:
    """Deterministic random model: weights uniform then normalized, tables uniform in [-bound, bound].

    The draw order (weights, then the (4, n_points) table) is fixed, so one
    seed always yields one model.
    """
    if not 1 <= n_points <= MAX_MODEL_POINTS:
        raise ValueError(f"n_points must lie between 1 and {MAX_MODEL_POINTS}, got {n_points}")
    if not bound > 0.0:
        raise ValueError("bound must be positive")
    # the draw needs the width 2 * bound of [-bound, bound] as a finite float
    if not bound <= sys.float_info.max / 2.0:
        raise ValueError(f"bound {bound!r} is too large: the width of [-bound, bound] overflows")
    rng = np.random.default_rng(seed)
    weights = rng.random(n_points)
    weights = weights / weights.sum()
    return LhvModel(weights, rng.uniform(-bound, bound, size=(4, n_points)))

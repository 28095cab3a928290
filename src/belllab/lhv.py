"""Finite weighted hidden-variable models and their correlation statistics.

A model assigns each hidden point a probability weight and a real value for
each of the four observables A, B, C, D.  Every statistic is an entry of one
matrix: the weighted covariance matrix of (A, B, C, D), computed from
centered tables.  The profile is its ten distinct entries, and the Schwarz
witness is three of its quadratic forms: the inner product and norms whose
Cauchy-Schwarz relation produces the general inequality, so the bound can be
inspected and not just asserted.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .inequalities import CorrelationProfile

WEIGHT_SUM_TOL = 1e-12
DISPERSION_TOL = 1e-12

#: Most hidden points random_model draws, so its memory is bounded before it starts.
MAX_MODEL_POINTS = 1_000_000

#: Quadratic-form vectors of the general bound: u picks A - B, v picks C + D.
_SCHWARZ_U = np.array([1.0, -1.0, 0.0, 0.0])
_SCHWARZ_V = np.array([0.0, 0.0, 1.0, 1.0])


@dataclass(frozen=True, eq=False)
class LhvModel:
    """Finite hidden-parameter space: weights plus one value table per observable.

    Weights must be nonnegative and already normalized; an off-by-more-than
    1e-12 total is rejected rather than silently rescaled.
    """

    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    bound: float | None = None

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("weights", "a", "b", "c", "d"):
            try:
                arr = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"model field {name} is not numeric: {exc}") from exc
            if arr.ndim != 1:
                raise ValueError(f"model field {name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"model field {name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            arrays[name] = arr
        n = arrays["weights"].size
        if n == 0:
            raise ValueError("model needs at least one hidden point")
        for name in ("a", "b", "c", "d"):
            if arrays[name].size != n:
                raise ValueError(
                    f"table {name.upper()} has {arrays[name].size} values for {n} weights"
                )
        if np.any(arrays["weights"] < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(arrays["weights"].sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        if self.bound is not None:
            limit = float(self.bound)
            if not limit > 0.0:
                raise ValueError("bound must be positive")
            for name in ("a", "b", "c", "d"):
                peak = float(np.max(np.abs(arrays[name]))) if n else 0.0
                if peak > limit + 1e-12:
                    raise ValueError(f"table {name.upper()} exceeds declared bound {limit!r}")

    @property
    def n_points(self) -> int:
        return self.weights.size

    @classmethod
    def from_dict(cls, data: dict) -> "LhvModel":
        if not isinstance(data, dict):
            raise ValueError("hidden-variable model must be a JSON object")
        required = {"weights", "A", "B", "C", "D"}
        missing = required - data.keys()
        if missing:
            raise ValueError(f"hidden-variable model is missing keys {sorted(missing)}")
        extra = data.keys() - required - {"bound"}
        if extra:
            raise ValueError(f"hidden-variable model has unexpected keys {sorted(extra)}")
        bound = data.get("bound")
        return cls(
            weights=data["weights"],
            a=data["A"],
            b=data["B"],
            c=data["C"],
            d=data["D"],
            bound=None if bound is None else float(bound),
        )

    def to_dict(self) -> dict:
        out = {
            "weights": [float(v) for v in self.weights],
            "A": [float(v) for v in self.a],
            "B": [float(v) for v in self.b],
            "C": [float(v) for v in self.c],
            "D": [float(v) for v in self.d],
        }
        if self.bound is not None:
            out["bound"] = float(self.bound)
        return out


class SchwarzWitness(NamedTuple):
    """Inner product and squared norms behind the general bound."""

    inner: float
    norm_u: float
    norm_v: float


def lhv_covariance_matrix(model: LhvModel) -> np.ndarray:
    """Weighted covariance matrix of (A, B, C, D): sum(rho * (O_j - mean_j) * (O_k - mean_k)).

    Centering first keeps the entries accurate for tables far from zero,
    and the weighted Gram form keeps the matrix positive semidefinite.
    """
    tables = np.array([model.a, model.b, model.c, model.d])
    with np.errstate(all="ignore"):
        centered = tables - (tables @ model.weights)[:, None]
        sigma = (centered * model.weights) @ centered.T
    if not np.all(np.isfinite(sigma)):
        raise ValueError("hidden-variable model statistics overflow: covariance matrix is not finite")
    return sigma


def lhv_profile(model: LhvModel) -> CorrelationProfile:
    return CorrelationProfile.from_covariance(lhv_covariance_matrix(model))


def schwarz_witness(model: LhvModel) -> SchwarzWitness:
    """Decompose the general bound into its Cauchy-Schwarz ingredients.

    With u = (A - B) - mean(A - B) and v = (C + D) - mean(C + D) under the
    weight measure, returns (sum(rho u v), sum(rho u^2), sum(rho v^2)), read
    as quadratic forms of the covariance matrix.  inner equals the
    correlation combination, norm_u equals varA + varB - 2 E(A,B), norm_v
    equals varC + varD + 2 E(C,D), and inner^2 <= norm_u * norm_v is the
    inequality itself.
    """
    sigma = lhv_covariance_matrix(model)
    return SchwarzWitness(
        float(_SCHWARZ_U @ sigma @ _SCHWARZ_V),
        float(_SCHWARZ_U @ sigma @ _SCHWARZ_U),
        float(_SCHWARZ_V @ sigma @ _SCHWARZ_V),
    )


def is_dispersion_free(model: LhvModel, tol: float = DISPERSION_TOL) -> bool:
    """True when every observable has variance at most tol on this model."""
    return bool(np.all(np.diag(lhv_covariance_matrix(model)) <= tol))


def random_model(seed: int, n_points: int, bound: float) -> LhvModel:
    """Deterministic random model: weights uniform then normalized, tables uniform in [-bound, bound].

    The draw order (weights, then tables A..D) is fixed, so one seed always
    yields one model.
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
    tables = rng.uniform(-bound, bound, size=(4, n_points))
    return LhvModel(
        weights=weights,
        a=tables[0],
        b=tables[1],
        c=tables[2],
        d=tables[3],
        bound=float(bound),
    )

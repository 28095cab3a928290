"""Unit measurement directions and dot-product realizability checks.

Four measurement axes a, b, c, d enter every inequality only through their
pairwise dot products.  A candidate set of six dot products is realizable by
actual unit vectors exactly when the corresponding 4x4 Gram matrix is
positive semidefinite; rank decides how many spatial dimensions are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

UNIT_NORM_TOL = 1e-12
PSD_EIG_TOL = 1e-9

_DOT_NAMES = ("ab", "ac", "ad", "bc", "bd", "cd")


@dataclass(frozen=True)
class Direction:
    """Unit vector in 3-space used as a spin measurement axis."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for component in (self.x, self.y, self.z):
            if not math.isfinite(component):
                raise ValueError("direction components must be finite")
        norm_sq = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(norm_sq - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction must have unit length, got |v|^2 = {norm_sq!r}")

    @classmethod
    def planar(cls, theta: float) -> "Direction":
        """Direction at angle theta (radians) in the x-y plane."""
        return cls(float(np.cos(theta)), float(np.sin(theta)), 0.0)

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class DotProductConfig:
    """Pairwise dot products among four unit vectors, in fixed (ab, ac, ad, bc, bd, cd) order."""

    ab: float
    ac: float
    ad: float
    bc: float
    bd: float
    cd: float

    def __post_init__(self) -> None:
        for name in _DOT_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"dot product {name} must be finite")
            if abs(value) > 1.0 + UNIT_NORM_TOL:
                raise ValueError(f"dot product {name} = {value!r} is outside [-1, 1]")

    @classmethod
    def from_sequence(cls, values: Sequence[float]) -> "DotProductConfig":
        if len(values) != 6:
            raise ValueError(f"expected 6 dot products (ab, ac, ad, bc, bd, cd), got {len(values)}")
        return cls(*(float(v) for v in values))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, tol: float = 1e-9) -> "DotProductConfig":
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"Gram matrix must be 4x4, got shape {m.shape}")
        if np.max(np.abs(m - m.T)) > tol:
            raise ValueError("Gram matrix must be symmetric")
        if np.max(np.abs(np.diag(m) - 1.0)) > tol:
            raise ValueError("Gram matrix of unit vectors must have unit diagonal")
        return cls(m[0, 1], m[0, 2], m[0, 3], m[1, 2], m[1, 3], m[2, 3])

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0, self.ab, self.ac, self.ad],
                [self.ab, 1.0, self.bc, self.bd],
                [self.ac, self.bc, 1.0, self.cd],
                [self.ad, self.bd, self.cd, 1.0],
            ]
        )


def planar(angles: Sequence[float]) -> tuple[Direction, ...]:
    """Directions in the x-y plane at the given angles (radians)."""
    return tuple(Direction.planar(theta) for theta in angles)


def gram_of(a: Direction, b: Direction, c: Direction, d: Direction) -> DotProductConfig:
    return DotProductConfig(
        ab=a.dot(b), ac=a.dot(c), ad=a.dot(d), bc=b.dot(c), bd=b.dot(d), cd=c.dot(d)
    )


def _as_config(config) -> DotProductConfig:
    if isinstance(config, DotProductConfig):
        return config
    return DotProductConfig.from_matrix(np.asarray(config, dtype=float))


def gram_eigenvalues(config) -> np.ndarray:
    """Eigenvalues of the 4x4 Gram matrix, sorted descending.

    Accepts a DotProductConfig or anything from_matrix accepts.
    """
    return np.linalg.eigvalsh(_as_config(config).matrix())[::-1]


def realizable(config: DotProductConfig, tol: float = PSD_EIG_TOL) -> bool:
    """True iff the Gram matrix is positive semidefinite (smallest eigenvalue >= -tol).

    PSD means some set of four unit vectors produces these dot products in at
    most four dimensions; see realizability_report for the dimension split.
    """
    eigenvalues = gram_eigenvalues(config)
    return bool(eigenvalues[-1] >= -tol)


def realizability_report(config: DotProductConfig, tol: float = PSD_EIG_TOL) -> dict:
    """Classify a dot-product configuration by PSD status and required dimension.

    rank counts eigenvalues above tol.  A PSD Gram of rank r is realizable by
    unit vectors in r dimensions and no fewer, so rank 4 configurations are
    flagged dim4_only: they cannot come from actual spatial directions.
    """
    eigenvalues = gram_eigenvalues(config)
    psd = bool(eigenvalues[-1] >= -tol)
    rank = int(np.count_nonzero(eigenvalues > tol))
    return {
        "eigenvalues": [float(v) for v in eigenvalues],
        "psd": psd,
        "rank": rank,
        "realizable_3d": psd and rank <= 3,
        "dim4_only": psd and rank == 4,
        "tolerance": float(tol),
    }

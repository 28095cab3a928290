"""Unit measurement directions and dot-product realizability checks.

Four measurement axes a, b, c, d enter every inequality only through their
pairwise dot products, in pairwise's order (ab, ac, ad, bc, bd, cd).  A
candidate set of six dot products is realizable by actual unit vectors
exactly when the corresponding 4x4 Gram matrix is positive semidefinite;
rank decides how many spatial dimensions are needed.
"""

from __future__ import annotations

import itertools
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

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


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


def pairwise(pair, settings) -> tuple:
    """pair(s, t) of each two of the four settings a, b, c, d: (ab, ac, ad, bc, bd, cd)."""
    return tuple(pair(s, t) for s, t in itertools.combinations(settings, 2))


def gram_of(a: Direction, b: Direction, c: Direction, d: Direction) -> DotProductConfig:
    return DotProductConfig(*pairwise(Direction.dot, (a, b, c, d)))


def gram_eigenvalues(config: DotProductConfig) -> np.ndarray:
    """Eigenvalues of the 4x4 Gram matrix, sorted descending."""
    return np.linalg.eigvalsh(config.matrix())[::-1]


def realizability_report(config: DotProductConfig) -> dict:
    """Classify a dot-product configuration by PSD status and required dimension.

    psd (smallest eigenvalue >= -PSD_EIG_TOL) means some set of four unit
    vectors produces these dot products in at most four dimensions.  rank
    counts eigenvalues above PSD_EIG_TOL.  A PSD Gram of rank r is
    realizable by unit vectors in r dimensions and no fewer, so rank 4
    configurations are flagged dim4_only: they cannot come from actual
    spatial directions.
    """
    eigenvalues = gram_eigenvalues(config)
    psd = bool(eigenvalues[-1] >= -PSD_EIG_TOL)
    rank = int(np.count_nonzero(eigenvalues > PSD_EIG_TOL))
    return {
        "eigenvalues": [float(v) for v in eigenvalues],
        "psd": psd,
        "rank": rank,
        "realizable_3d": psd and rank <= 3,
        "dim4_only": psd and rank == 4,
        "tolerance": PSD_EIG_TOL,
    }

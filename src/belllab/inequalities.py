"""Inequality evaluators over correlation-and-variance profiles.

Every inequality here is plain arithmetic on a CorrelationProfile: six
pairwise correlations E(X,Y) and four variances.  The same evaluators apply
unchanged to quantum profiles, finite hidden-variable profiles, and raw
user-supplied profiles, because the underlying bound is a property of the
numbers alone.

The general form bounds the combination E(A,C) + E(A,D) - E(B,C) - E(B,D):

    combination^2 <= (varA + varB - 2 E(A,B)) * (varC + varD + 2 E(C,D))

and the dispersion-free form is its zero-variance specialization

    combination^2 + 4 E(A,B) E(C,D) <= 0.

On singlet-rule profiles of unit vectors a, b, c, d (E(A,C) = -a.c, ...,
E(A,B) = +a.b, E(C,D) = +c.d, every variance 1) the combination is
-(a - b).(c + d), and |a - b|^2 = 2 - 2 E(A,B), |c + d|^2 = 2 + 2 E(C,D).  So
the dispersion-free lhs is at most (2 - 2 E(A,B)) (2 + 2 E(C,D)) +
4 E(A,B) E(C,D) = 4 - 4 E(A,B) + 4 E(C,D) <= 8 - 4 E(A,B), whose supremum
is 12 at E(A,B) = -1.  The CHSH lhs is |c.(a + b) + d.(a - b)| <= |a + b| +
|a - b| = sqrt(2 + 2 E(A,B)) + sqrt(2 - 2 E(A,B)), whose supremum is the
Tsirelson value 2 sqrt 2 at E(A,B) = 0.  Each of these two kernels has its
bound on the margin, a function of E(A,B) alone, next to it, and
_PAIR_BOUNDS maps the kernel to it; the general form has none.

The term kernels take the ten profile fields, scalars or numpy arrays, so
searches evaluate whole lattices in one shot with identical arithmetic.  The
INEQUALITIES registry is the one place an inequality id is interpreted: it
maps each id to its kernel and to the state family the id requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter

import numpy as np

from .errors import NumericsError
from .geometry import DotProductConfig, pairwise

#: A verdict is "violated" only when margin exceeds this, so roundoff at a
#: saturated bound never reads as a violation.
VIOLATION_TOL = 1e-9

VARIANCE_TOL = 1e-12


def violates(margin, tolerance: float = VIOLATION_TOL):
    """The violation rule, for one margin or an array of them: margin above tolerance."""
    return margin > tolerance


# where each profile field sits, in field order, in the flattened covariance
# matrix of (A, B, C, D) = indices 0..3
_FIELD_POSITIONS = tuple(
    4 * row + col
    for row, col in ((0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3), (0, 0), (1, 1), (2, 2), (3, 3))
)
_read_fields = itemgetter(*_FIELD_POSITIONS)


def covariance_fields(sigma: np.ndarray) -> np.ndarray:
    """The ten profile fields, in field order, of covariance matrices (..., 4, 4): shape (..., 10)."""
    return sigma.reshape(*sigma.shape[:-2], 16)[..., _FIELD_POSITIONS]


@dataclass(frozen=True)
class CorrelationProfile:
    """Six pairwise correlations and four variances of observables A, B, C, D.

    Correlations are mean-subtracted: E(X,Y) = <XY> - <X><Y> (symmetrized
    when X and Y do not commute).  Variances must be nonnegative.
    """

    e_ac: float
    e_ad: float
    e_bc: float
    e_bd: float
    e_ab: float
    e_cd: float
    var_a: float
    var_b: float
    var_c: float
    var_d: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = float(getattr(self, field.name))
            object.__setattr__(self, field.name, value)
            if not math.isfinite(value):
                raise ValueError(f"profile field {field.name} must be finite, got {value!r}")
            if field.name.startswith("var_") and value < -VARIANCE_TOL:
                raise ValueError(f"variance {field.name} must be nonnegative, got {value!r}")

    @classmethod
    def from_covariance(cls, sigma) -> "CorrelationProfile":
        """Profile read off the 4x4 covariance matrix of (A, B, C, D) = indices 0..3."""
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got shape {sigma.shape}")
        return cls(*_read_fields(sigma.ravel().tolist()))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(PROFILE_KEYS, _profile_values(self)))


#: The profile fields in declaration order: the order of every kernel's arguments.
PROFILE_KEYS = tuple(field.name for field in fields(CorrelationProfile))
_profile_values = attrgetter(*PROFILE_KEYS)


@dataclass(frozen=True)
class InequalityVerdict:
    """One evaluated inequality: sides, margin = lhs - rhs, and the violation flag."""

    inequality_id: str
    lhs: float
    rhs: float
    margin: float
    violated: bool

    def as_dict(self) -> dict:
        return {
            "inequality": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "violated": self.violated,
        }


def make_verdict(
    inequality_id: str, lhs: float, rhs: float, tolerance: float = VIOLATION_TOL
) -> InequalityVerdict:
    inequality_kernel(inequality_id)  # rejects an unknown id
    lhs = float(lhs)
    rhs = float(rhs)
    margin = lhs - rhs
    # a non-finite side always leaves a non-finite margin, and so does overflow
    if not math.isfinite(margin):
        raise NumericsError(
            f"inequality {inequality_id!r} has no finite margin: lhs {lhs!r}, rhs {rhs!r}"
        )
    return InequalityVerdict(inequality_id, lhs, rhs, margin, violates(margin, tolerance))


# ---------------------------------------------------------------------------
# Term kernels: scalar or ndarray inputs, identical arithmetic either way.


def correlation_combination(e_ac, e_ad, e_bc, e_bd):
    return e_ac + e_ad - e_bc - e_bd


def general_terms(e_ac, e_ad, e_bc, e_bd, e_ab, e_cd, var_a, var_b, var_c, var_d):
    """lhs and rhs of the general bound."""
    combination = correlation_combination(e_ac, e_ad, e_bc, e_bd)
    lhs = combination * combination
    rhs = (var_a + var_b - 2.0 * e_ab) * (var_c + var_d + 2.0 * e_cd)
    return lhs, rhs


def dispersion_free_terms(e_ac, e_ad, e_bc, e_bd, e_ab, e_cd, var_a, var_b, var_c, var_d):
    """lhs of the dispersion-free bound; rhs is identically zero and variances are unused."""
    combination = correlation_combination(e_ac, e_ad, e_bc, e_bd)
    lhs = combination * combination + 4.0 * e_ab * e_cd
    # squared term keeps the zero rhs at +0.0 for any sign of the combination
    return lhs, combination * combination * 0.0


def _dispersion_free_bound(e_ab):
    """8 - 4 E(A,B): the dispersion-free margin's bound on singlet-rule profiles of unit vectors.

    E(A,B) is clipped to [-1, 1], where a rounded dot product may fall just outside.
    """
    return 8.0 - 4.0 * np.clip(e_ab, -1.0, 1.0)


def chsh_terms(e_ac, e_ad, e_bc, e_bd, e_ab, e_cd, var_a, var_b, var_c, var_d):
    """CHSH with the +++- sign convention: |eAC + eAD + eBC - eBD| against 2.

    Only the four cross correlations enter; the rest of the signature is
    shared with the other kernels.
    """
    lhs = abs(e_ac + e_ad + e_bc - e_bd)
    return lhs, lhs * 0.0 + 2.0


def _chsh_bound(e_ab):
    """sqrt(2 + 2 E(A,B)) + sqrt(2 - 2 E(A,B)) - 2: the CHSH margin's bound on singlet-rule
    profiles of unit vectors, E(A,B) clipped to [-1, 1] so that no root is of a negative."""
    e_ab = np.clip(e_ab, -1.0, 1.0)
    return np.sqrt(2.0 + 2.0 * e_ab) + np.sqrt(2.0 - 2.0 * e_ab) - 2.0


def epr_correlation_terms(ab, ac, ad, bc, bd, cd):
    """Singlet profile fields from dot products: E(A,C) = -a.c etc., E(A,B) = +a.b,
    E(C,D) = +c.d, and variances 1, as every spin observable squares to one."""
    return -ac, -ad, -bc, -bd, ab, cd, 1.0, 1.0, 1.0, 1.0


def _ghz_pair(x, y):
    """cos 2(x - y): what the four-spin rule puts in place of the dot product of two settings."""
    return np.cos(2.0 * (x - y))


def ghz_correlation_terms(alpha, beta, gamma, delta):
    """Four-spin profile fields from planar angles (radians): the singlet rule over
    cos 2(x - y) for each two angles, so E(A,C) = -cos 2(alpha - gamma) and
    E(A,B) = +cos 2(alpha - beta); the variances are 1, as every pair-product
    observable squares to one."""
    return epr_correlation_terms(*pairwise(_ghz_pair, (alpha, beta, gamma, delta)))


# ---------------------------------------------------------------------------
# The registry: inequality id -> (term kernel, required state family).  A
# family of None admits any profile; prefixed ids share the generic kernels
# and differ only in the family they admit and the label their verdicts carry.

INEQUALITIES = {
    "general": (general_terms, None),
    "dispersion_free": (dispersion_free_terms, None),
    "epr_general": (general_terms, "epr"),
    "epr_dispersion_free": (dispersion_free_terms, "epr"),
    "ghz_general": (general_terms, "ghz"),
    "ghz_dispersion_free": (dispersion_free_terms, "ghz"),
    "chsh": (chsh_terms, None),
}

INEQUALITY_IDS = tuple(INEQUALITIES)

# term kernel -> its margin's bound at E(A,B) on singlet-rule profiles of unit vectors
_PAIR_BOUNDS = {dispersion_free_terms: _dispersion_free_bound, chsh_terms: _chsh_bound}


def inequality_kernel(inequality_id: str, family: str | None = None):
    """Term kernel of an inequality id, refusing an id that requires another family.

    family names where the correlations come from: "epr" (the singlet),
    "ghz" (the four-spin state) or another scenario kind such as "profile"
    or "lhv".  None skips the family check, for callers holding only a
    profile, which does not record its source.
    """
    entry = INEQUALITIES.get(inequality_id)
    if entry is None:
        raise ValueError(f"unknown inequality id {inequality_id!r}, expected one of {INEQUALITY_IDS}")
    kernel, required = entry
    if family is not None and required not in (None, family):
        raise ValueError(f"inequality {inequality_id!r} applies to {required} states, not {family!r}")
    return kernel


def verdict_for_profile(
    profile: CorrelationProfile,
    inequality_id: str,
    tolerance: float = VIOLATION_TOL,
) -> InequalityVerdict:
    """Evaluate any known inequality id on a profile, labelled with that id."""
    lhs, rhs = inequality_kernel(inequality_id)(*_profile_values(profile))
    return make_verdict(inequality_id, lhs, rhs, tolerance)


# ---------------------------------------------------------------------------
# Closed forms for the two entangled-state families.  These are independent
# of the matrix route in the quantum module; tests hold the two within 1e-12.


def epr_profile_from_dots(dots: DotProductConfig) -> CorrelationProfile:
    """Singlet-state profile implied by pairwise dot products."""
    terms = epr_correlation_terms(dots.ab, dots.ac, dots.ad, dots.bc, dots.bd, dots.cd)
    return CorrelationProfile(*terms)


def ghz_profile_from_angles(
    alpha: float, beta: float, gamma: float, delta: float
) -> CorrelationProfile:
    """Four-spin pair-product profile at planar angles (radians)."""
    return CorrelationProfile(*ghz_correlation_terms(alpha, beta, gamma, delta))

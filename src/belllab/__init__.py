"""Numerical laboratory for uncertainty-augmented Bell-type inequalities.

The package evaluates variance-weighted and dispersion-free correlation
inequalities on three kinds of input: exact quantum profiles built from
dense state vectors (a two-spin singlet and a four-spin pair-product
state), finite weighted hidden-variable models, and raw correlation
profiles.  On top of the evaluators sit a Gram-matrix realizability
check for dot-product configurations, derivative-free searches over
angle lattices, and a JSON/CSV command line.

Everything is deterministic: random model generation is seeded, and no
evaluation path depends on iteration order or hashing.

The names below are the documented library surface; everything else is
reachable through its module (belllab.inequalities, belllab.search, ...).
"""

from .errors import NumericsError
from .geometry import gram_of, planar, realizability_report
from .inequalities import (
    INEQUALITY_IDS,
    VIOLATION_TOL,
    CorrelationProfile,
    InequalityVerdict,
    epr_profile_from_dots,
    verdict_for_profile,
)
from .lhv import lhv_profile, random_model
from .quantum import epr_profile, ghz_profile
from .search import grid_search, parameter_space, refine

__version__ = "0.1.0"

__all__ = [
    "NumericsError",
    "gram_of",
    "planar",
    "realizability_report",
    "INEQUALITY_IDS",
    "VIOLATION_TOL",
    "CorrelationProfile",
    "InequalityVerdict",
    "epr_profile_from_dots",
    "verdict_for_profile",
    "lhv_profile",
    "random_model",
    "epr_profile",
    "ghz_profile",
    "grid_search",
    "parameter_space",
    "refine",
    "__version__",
]

"""Derivative-free maximization of inequality margins over measurement parameters.

One table, SPACES, is the only place a search space is described: bounds,
wrap flags, the state family it models and its coordinates -> correlations map.

* planar_epr: four planar angles, one per singlet measurement axis.
* ghz_angles: four planar angles for the pair-product observables; the
  closed forms have period pi in each angle, so the bounds stop there.
* vectors3d: four unit vectors as spherical coordinates with the first
  vector's azimuth fixed to 0, which quotients out the free global rotation
  about z instead of wasting lattice points on it.  Coordinate order is
  (theta_a, theta_b, phi_b, theta_c, phi_c, theta_d, phi_d).

Grid search sizes the lattice from integer axis counts before it builds any
array, then scans it in blocks of at most BLOCK_SIZE trailing points with the
kernels evaluate_point uses, so a reported optimum re-evaluates to identical
numbers.  Ties go to the lexicographically smallest coordinate vector, which a
lexicographic scan with strict improvement gives whatever the blocking.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import inequalities
from .inequalities import VIOLATION_TOL, InequalityVerdict, inequality_kernel, make_verdict

#: Most points one grid scan covers, so a scan's run time is bounded before it starts.
MAX_LATTICE_POINTS = 10**10

#: Most lattice points one vectorized block evaluates; results do not depend on it.
BLOCK_SIZE = 262144

#: Most accepted moves per refinement step size.
MAX_MOVES_PER_LEVEL = 100000

#: Most points one sweep tabulates, so a sweep's memory is bounded before it starts.
MAX_SWEEP_STEPS = 1_000_000


@dataclass(frozen=True)
class ParameterSpace:
    """Search domain: per-coordinate closed intervals (radians) plus wrap flags.

    Wrapped coordinates are periodic with period hi - lo; their lattices and
    refinement probes wrap modulo that period, and clipped coordinates pin to
    the interval instead.  correlations maps coordinates (floats or arrays) to
    the six correlations; the kernels' default unit variances hold because
    every spin and pair-product observable squares to one.
    """

    family: str
    bounds: tuple[tuple[float, float], ...]
    wrap: tuple[bool, ...]
    correlations: Callable

    @property
    def n_coords(self) -> int:
        return len(self.bounds)


def _epr_dots_from_planar(coords):
    # pairs in the order ab, ac, ad, bc, bd, cd
    return tuple(np.cos(x - y) for x, y in itertools.combinations(coords, 2))


def _epr_dots_from_spherical(coords):
    theta_a, theta_b, phi_b, theta_c, phi_c, theta_d, phi_d = coords
    ax, az = np.sin(theta_a), np.cos(theta_a)

    def components(theta, phi):
        s = np.sin(theta)
        return s * np.cos(phi), s * np.sin(phi), np.cos(theta)

    bx, by, bz = components(theta_b, phi_b)
    cx, cy, cz = components(theta_c, phi_c)
    dx, dy, dz = components(theta_d, phi_d)
    # vector a lies in the x-z plane, so its y component is identically zero
    ab = ax * bx + az * bz
    ac = ax * cx + az * cz
    ad = ax * dx + az * dz
    bc = bx * cx + by * cy + bz * cz
    bd = bx * dx + by * dy + bz * dz
    cd = cx * dx + cy * dy + cz * dz
    return ab, ac, ad, bc, bd, cd


_POLAR = (0.0, math.pi)
_AZIMUTH = (0.0, 2.0 * math.pi)

SPACES = {
    "planar_epr": ParameterSpace(
        "epr", (_AZIMUTH,) * 4, (True,) * 4,
        lambda x: inequalities.epr_correlation_terms(*_epr_dots_from_planar(x)),
    ),
    "ghz_angles": ParameterSpace(
        "ghz", (_POLAR,) * 4, (True,) * 4, lambda x: inequalities.ghz_correlation_terms(*x)
    ),
    "vectors3d": ParameterSpace(
        "epr",
        (_POLAR, _POLAR, _AZIMUTH, _POLAR, _AZIMUTH, _POLAR, _AZIMUTH),
        (False, False, True, False, True, False, True),
        lambda x: inequalities.epr_correlation_terms(*_epr_dots_from_spherical(x)),
    ),
}

SPACE_KINDS = tuple(SPACES)


def parameter_space(kind: str) -> ParameterSpace:
    """Standard space for a kind, with its natural bounds."""
    try:
        return SPACES[kind]
    except KeyError:
        raise ValueError(f"unknown space kind {kind!r}, expected one of {SPACE_KINDS}") from None


@dataclass(frozen=True)
class SearchResult:
    best_params: tuple[float, ...]
    best_verdict: InequalityVerdict
    evaluations: int


def evaluate_point(
    inequality_id: str,
    space: ParameterSpace,
    coords,
    tolerance: float = VIOLATION_TOL,
) -> InequalityVerdict:
    """Evaluate one parameter point with the same arithmetic the lattice scan uses."""
    kernel = inequality_kernel(inequality_id, space.family)
    coords = tuple(float(v) for v in coords)
    if len(coords) != space.n_coords:
        raise ValueError(f"expected {space.n_coords} coordinates, got {len(coords)}")
    lhs, rhs = kernel(*space.correlations(coords))
    return make_verdict(inequality_id, float(lhs), float(rhs), tolerance)


# ---------------------------------------------------------------------------
# Grid search.


def grid_search(
    inequality_id: str,
    space: ParameterSpace,
    resolution: float,
    tolerance: float = VIOLATION_TOL,
) -> SearchResult:
    """Exhaustive lattice scan returning the maximum-margin point.

    Equal margins resolve to the lexicographically smallest coordinate
    vector: the lattice is scanned in lexicographic order and only strict
    improvements replace the incumbent, so blocking cannot change the result.
    """
    kernel = inequality_kernel(inequality_id, space.family)
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    sizes = []
    for (lo, hi), wrapped in zip(space.bounds, space.wrap):
        # clamped so a resolution too fine for any float count reaches the size check
        steps = math.floor(min((hi - lo) / resolution + 1e-9, MAX_LATTICE_POINTS))
        # wrapped axes drop the upper endpoint, which duplicates lo modulo the period
        sizes.append(steps if wrapped else steps + 1)
        if sizes[-1] < 2:
            raise ValueError(
                f"resolution {resolution!r} leaves fewer than 2 lattice steps on "
                f"interval ({lo!r}, {hi!r})"
            )
    total = math.prod(sizes)
    if total > MAX_LATTICE_POINTS:
        raise ValueError(
            f"resolution {resolution!r} needs at least {total} lattice points, "
            f"more than the {MAX_LATTICE_POINTS} one scan may cover"
        )
    axes = [lo + resolution * np.arange(count) for (lo, _), count in zip(space.bounds, sizes)]

    # the trailing block holds the last axis, plus earlier axes while they fit
    split = len(axes) - 1
    while split > 0 and math.prod(sizes[split - 1 :]) <= BLOCK_SIZE:
        split -= 1
    tail_axes = axes[split:]
    tail_shape = tuple(sizes[split:])
    tail_flat = tuple(m.ravel() for m in np.meshgrid(*tail_axes, indexing="ij"))

    best_margin = -math.inf
    best_coords: tuple[float, ...] | None = None
    for prefix in itertools.product(*axes[:split]):
        head = tuple(float(v) for v in prefix)
        lhs, rhs = kernel(*space.correlations(head + tail_flat))
        margin = lhs - rhs
        index = int(np.argmax(margin))
        candidate = float(margin[index])
        if candidate > best_margin:
            offsets = np.unravel_index(index, tail_shape)
            best_margin = candidate
            best_coords = head + tuple(
                float(axis[offset]) for axis, offset in zip(tail_axes, offsets)
            )

    assert best_coords is not None
    best_verdict = evaluate_point(inequality_id, space, best_coords, tolerance)
    return SearchResult(best_coords, best_verdict, total)


# ---------------------------------------------------------------------------
# Compass refinement.


def _move(space: ParameterSpace, coords: tuple[float, ...], axis: int, delta: float) -> tuple[float, ...]:
    lo, hi = space.bounds[axis]
    value = coords[axis] + delta
    if space.wrap[axis]:
        span = hi - lo
        value = lo + (value - lo) % span
    else:
        value = min(max(value, lo), hi)
    return coords[:axis] + (value,) + coords[axis + 1 :]


def refine(
    inequality_id: str,
    space: ParameterSpace,
    start,
    initial_step: float,
    shrink: float,
    min_step: float,
    tolerance: float = VIOLATION_TOL,
) -> SearchResult:
    """Coordinate-wise compass ascent from start.

    Probes +step then -step along each coordinate in order and accepts the
    first strict margin improvement, restarting the sweep; when a full sweep
    yields no improvement, or MAX_MOVES_PER_LEVEL moves were accepted, the
    step shrinks.  Terminates once the step falls below min_step; a starting
    step not above min_step returns the start unchanged.  The accepted-margin
    trace is monotone by construction.
    """
    if not (0.0 < shrink < 1.0):
        raise ValueError("shrink must lie strictly between 0 and 1")
    if not initial_step > 0.0 or not min_step > 0.0:
        raise ValueError("steps must be positive")
    current = tuple(float(v) for v in start)
    if len(current) != space.n_coords:
        raise ValueError(f"expected {space.n_coords} coordinates, got {len(current)}")
    for value, (lo, hi) in zip(current, space.bounds):
        if not lo <= value <= hi:
            raise ValueError(f"start coordinate {value!r} outside interval ({lo!r}, {hi!r})")

    verdict = evaluate_point(inequality_id, space, current, tolerance)
    evaluations = 1
    if initial_step <= min_step:
        return SearchResult(current, verdict, evaluations)

    step = initial_step
    while step >= min_step:
        moves = 0
        improved = True
        while improved and moves < MAX_MOVES_PER_LEVEL:
            improved = False
            for axis in range(space.n_coords):
                for delta in (step, -step):
                    candidate = _move(space, current, axis, delta)
                    if candidate == current:
                        continue
                    probe = evaluate_point(inequality_id, space, candidate, tolerance)
                    evaluations += 1
                    if probe.margin > verdict.margin:
                        current, verdict = candidate, probe
                        moves += 1
                        improved = True
                        break
                if improved:
                    break
        step *= shrink
    return SearchResult(current, verdict, evaluations)


def sweep(
    inequality_id: str,
    space: ParameterSpace,
    base,
    axis: int,
    sweep_range: tuple[float, float],
    steps: int,
    tolerance: float = VIOLATION_TOL,
) -> list[tuple[float, float, float, float]]:
    """Vary one coordinate over an inclusive interval, keeping the others fixed.

    Returns (coordinate, lhs, rhs, margin) rows in sweep order, steps of them.
    """
    kernel = inequality_kernel(inequality_id, space.family)
    base = tuple(float(v) for v in base)
    if len(base) != space.n_coords:
        raise ValueError(f"expected {space.n_coords} coordinates, got {len(base)}")
    if not 0 <= axis < space.n_coords:
        raise ValueError(f"axis {axis} out of range for {space.n_coords} coordinates")
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"sweep needs between 2 and {MAX_SWEEP_STEPS} steps, got {steps}")
    lo, hi = (float(sweep_range[0]), float(sweep_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        raise ValueError(f"invalid sweep interval ({lo!r}, {hi!r})")
    values = np.linspace(lo, hi, steps)
    coords = base[:axis] + (values,) + base[axis + 1 :]
    lhs, rhs = kernel(*space.correlations(coords))
    margin = lhs - rhs
    return [
        (float(values[i]), float(lhs[i]), float(rhs[i]), float(margin[i]))
        for i in range(steps)
    ]

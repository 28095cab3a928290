"""Derivative-free maximization of inequality margins over measurement parameters.

Three parameter spaces are supported:

* planar_epr: four planar angles, one per singlet measurement axis.
* ghz_angles: four planar angles for the pair-product observables; the
  closed forms have period pi in each angle, so the default bounds stop there.
* vectors3d: four unit vectors as spherical coordinates with the first
  vector's azimuth fixed to 0, which quotients out the free global rotation
  about z instead of wasting lattice points on it.  Coordinate order is
  (theta_a, theta_b, phi_b, theta_c, phi_c, theta_d, phi_d).

Grid search scans a full lattice; margins are evaluated with the same
vectorized kernels the scalar evaluate_point uses, so a reported optimum
re-evaluates to identical numbers.  Ties are broken by the lexicographically
smallest coordinate vector, which a lexicographic scan with strict
improvement gives for free, independent of how the lattice is blocked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import inequalities
from .inequalities import VIOLATION_TOL, InequalityVerdict, inequality_kernel, make_verdict

SPACE_KINDS = ("planar_epr", "ghz_angles", "vectors3d")

TWO_PI = 2.0 * math.pi

#: Largest trailing block materialized during a grid scan; a pure
#: performance knob, results do not depend on it.
DEFAULT_BLOCK_SIZE = 262144

#: Most points one sweep tabulates, so a sweep's memory is bounded before it starts.
MAX_SWEEP_STEPS = 1_000_000


@dataclass(frozen=True)
class ParameterSpace:
    """Search domain: per-coordinate closed intervals (radians) plus wrap flags.

    Wrapped coordinates are periodic with period hi - lo; their lattices and
    refinement probes wrap modulo that period, and clipped coordinates pin to
    the interval instead.
    """

    kind: str
    bounds: tuple[tuple[float, float], ...]
    wrap: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.kind not in SPACE_KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}, expected one of {SPACE_KINDS}")
        if len(self.bounds) == 0 or len(self.bounds) != len(self.wrap):
            raise ValueError("bounds and wrap flags must be nonempty and of equal length")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid coordinate interval ({lo!r}, {hi!r})")

    @property
    def n_coords(self) -> int:
        return len(self.bounds)


def parameter_space(kind: str) -> ParameterSpace:
    """Standard space for a kind, with its natural bounds."""
    if kind == "planar_epr":
        return ParameterSpace(kind, (((0.0, TWO_PI),) * 4), (True,) * 4)
    if kind == "ghz_angles":
        # correlations have period pi in every angle
        return ParameterSpace(kind, (((0.0, math.pi),) * 4), (True,) * 4)
    if kind == "vectors3d":
        polar = (0.0, math.pi)
        azimuth = (0.0, TWO_PI)
        return ParameterSpace(
            kind,
            (polar, polar, azimuth, polar, azimuth, polar, azimuth),
            (False, False, True, False, True, False, True),
        )
    raise ValueError(f"unknown space kind {kind!r}, expected one of {SPACE_KINDS}")


@dataclass(frozen=True)
class SearchResult:
    best_params: tuple[float, ...]
    best_verdict: InequalityVerdict
    evaluations: int
    resolution: float


# ---------------------------------------------------------------------------
# Vectorized margin kernels.


def _epr_dots_from_planar(coords):
    a, b, c, d = coords
    return (
        np.cos(a - b),
        np.cos(a - c),
        np.cos(a - d),
        np.cos(b - c),
        np.cos(b - d),
        np.cos(c - d),
    )


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


def _correlations(kind: str, coords):
    if kind == "ghz_angles":
        return inequalities.ghz_correlation_terms(*coords)
    if kind == "planar_epr":
        dots = _epr_dots_from_planar(coords)
    else:
        dots = _epr_dots_from_spherical(coords)
    return inequalities.epr_correlation_terms(*dots)


def _kernel(inequality_id: str, space: ParameterSpace):
    """Registry kernel for an id, checked against the state family the space models.

    Kernels run on the six correlations alone: their default unit variances
    hold because every spin and pair-product observable squares to one.
    """
    return inequality_kernel(inequality_id, "ghz" if space.kind == "ghz_angles" else "epr")


def evaluate_point(
    inequality_id: str,
    space: ParameterSpace,
    coords,
    tolerance: float = VIOLATION_TOL,
) -> InequalityVerdict:
    """Evaluate one parameter point with the same arithmetic the lattice scan uses."""
    kernel = _kernel(inequality_id, space)
    coords = tuple(float(v) for v in coords)
    if len(coords) != space.n_coords:
        raise ValueError(f"expected {space.n_coords} coordinates, got {len(coords)}")
    lhs, rhs = kernel(*_correlations(space.kind, coords))
    return make_verdict(inequality_id, float(lhs), float(rhs), tolerance)


# ---------------------------------------------------------------------------
# Grid search.


def _axis_lattice(lo: float, hi: float, resolution: float, wrapped: bool) -> np.ndarray:
    steps = int(math.floor((hi - lo) / resolution + 1e-9))
    count = steps if wrapped else steps + 1
    if count < 2:
        raise ValueError(
            f"resolution {resolution!r} leaves fewer than 2 lattice steps on "
            f"interval ({lo!r}, {hi!r})"
        )
    # wrapped axes drop the upper endpoint, which duplicates lo modulo the period
    return lo + resolution * np.arange(count)


def grid_search(
    inequality_id: str,
    space: ParameterSpace,
    resolution: float,
    tolerance: float = VIOLATION_TOL,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SearchResult:
    """Exhaustive lattice scan returning the maximum-margin point.

    Equal margins resolve to the lexicographically smallest coordinate
    vector: the lattice is scanned in lexicographic order and only strict
    improvements replace the incumbent, so blocking cannot change the result.
    """
    kernel = _kernel(inequality_id, space)
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    axes = [
        _axis_lattice(lo, hi, resolution, wrapped)
        for (lo, hi), wrapped in zip(space.bounds, space.wrap)
    ]
    sizes = [axis.size for axis in axes]
    total = math.prod(sizes)

    # split the axes so the materialized trailing block stays within block_size
    split = len(axes)
    tail = 1
    while split > 0 and tail * sizes[split - 1] <= block_size:
        tail *= sizes[split - 1]
        split -= 1
    tail_axes = axes[split:]
    tail_shape = tuple(sizes[split:])
    if tail_axes:
        mesh = np.meshgrid(*tail_axes, indexing="ij")
        tail_flat = tuple(m.ravel() for m in mesh)
    else:
        tail_flat = ()

    best_margin = -math.inf
    best_coords: tuple[float, ...] | None = None
    for prefix in itertools.product(*axes[:split]):
        if tail_flat:
            coords = tuple(float(v) for v in prefix) + tail_flat
            lhs, rhs = kernel(*_correlations(space.kind, coords))
            margin = lhs - rhs
            index = int(np.argmax(margin))
            candidate = float(margin[index])
            if candidate > best_margin:
                offsets = np.unravel_index(index, tail_shape)
                best_margin = candidate
                best_coords = tuple(float(v) for v in prefix) + tuple(
                    float(axis[offset]) for axis, offset in zip(tail_axes, offsets)
                )
        else:
            coords = tuple(float(v) for v in prefix)
            lhs, rhs = kernel(*_correlations(space.kind, coords))
            candidate = float(lhs - rhs)
            if candidate > best_margin:
                best_margin = candidate
                best_coords = coords

    assert best_coords is not None
    best_verdict = evaluate_point(inequality_id, space, best_coords, tolerance)
    return SearchResult(best_coords, best_verdict, total, resolution)


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
    max_moves_per_level: int = 100000,
) -> SearchResult:
    """Coordinate-wise compass ascent from start.

    Probes +step then -step along each coordinate in order and accepts the
    first strict margin improvement, restarting the sweep; when a full sweep
    yields no improvement the step shrinks.  Terminates once the step falls
    below min_step; a starting step not above min_step returns the start
    unchanged.  The accepted-margin trace is monotone by construction.
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
        return SearchResult(current, verdict, evaluations, initial_step)

    step = initial_step
    while step >= min_step:
        moves = 0
        improved = True
        while improved and moves < max_moves_per_level:
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
    return SearchResult(current, verdict, evaluations, initial_step)


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
    kernel = _kernel(inequality_id, space)
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
    lhs, rhs = kernel(*_correlations(space.kind, coords))
    margin = lhs - rhs
    return [
        (float(values[i]), float(lhs[i]), float(rhs[i]), float(margin[i]))
        for i in range(steps)
    ]

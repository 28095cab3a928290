"""Derivative-free maximization of inequality margins over measurement parameters.

One table, SPACES, is the only place a search space is described: bounds,
wrap flags, the state family it models, its coordinates -> correlations map
and whether a common shift of every coordinate leaves that map unchanged.

* planar_epr: four planar angles, one per singlet measurement axis.
* ghz_angles: four planar angles for the pair-product observables; the
  closed forms have period pi in each angle, so the bounds stop there.
* vectors3d: four unit vectors as spherical coordinates with the first
  vector's azimuth fixed to 0, which quotients out the free global rotation
  about z instead of wasting lattice points on it.  Coordinate order is
  (theta_a, theta_b, phi_b, theta_c, phi_c, theta_d, phi_d).

Grid search sizes the lattice from integer axis counts before it builds any
array, then scans it in blocks of at most BLOCK_SIZE points.  A block is an open
mesh: the trailing axes whose product fits, plus one chunk of the axis before
them, each passed as a 1-d axis shaped by np.ix_ to the kernels evaluate_point
uses.  Every elementwise operation sees the operands it would on a dense
meshgrid, so a reported optimum re-evaluates to identical numbers, and a term
depending on two tail axes costs one evaluation per pair of axis values, not
one per point.  Ties compare the computed float64 margins exactly and go to the
lexicographically first lattice index, which a lexicographic scan with strict
improvement gives whatever the blocking.

Rotation quotient.  The planar_epr and ghz_angles correlations depend on the
angles only through their differences (-cos(a - c), ..., -cos 2(alpha -
gamma), ...).  When the N lattice steps of a wrapped axis span its period to
within a few ulp, shifting every index by s (mod N) is an exact symmetry of
the margin, so each orbit of N points has one representative with first
index 0.  Computed margins are not exactly invariant: the premise, pinned by
a property test, is that a point's and its shift's computed margins differ by
at most delta = 1e-12 (measured worst case about 2e-14).  The scan therefore
runs its blocks over the first-index-0 slab (N**3 points) as usual and keeps
every representative within 2 delta of the slab maximum M.  The point p* the
full scan reports, and every point tying with it, has computed margin at
least M, so its representative's is above M - delta and is kept.  If K, the
number kept, stays at most N**2, only the other points of the K kept orbits
are evaluated next: one kernel call per shift, of its K points in
lexicographic order, each coordinate a flat array gathered from its axis,
which returns p* bit for bit.  K <= N**2 bounds that call as BLOCK_SIZE
bounds a block.  A closing lattice within MAX_LATTICE_POINTS has N <= 316, so
N**2 < BLOCK_SIZE and a block has at most one head axis; every correlation
pairs two axes, so the scan takes no cosine of a scalar, and the flat pass
gives each point the same operands through the same array ufuncs.  Otherwise
(the general bound saturates on about 3 N**2 orbits) the plain scan continues
from the next block, wasting no work.  Either way SearchResult.evaluations
counts the whole lattice, N**4 points.  vectors3d and lattices that do not
close always take the plain scan.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import inequalities
from .inequalities import InequalityVerdict, inequality_kernel, make_verdict

#: Most points one grid scan covers, so a scan's run time is bounded before it starts.
MAX_LATTICE_POINTS = 10**10

#: Most lattice points one open-mesh block covers; results do not depend on it.
#: On the benchmark lattices (2 CPUs, CPython 3.11, numpy 2.4) 262144 scanned
#: faster than 65536 or 131072, at a peak memory below the dense meshgrid scan's.
BLOCK_SIZE = 262144

#: Most accepted moves per refinement step size.
MAX_MOVES_PER_LEVEL = 100000

#: Factor refinement multiplies its step by when a step size is exhausted.
REFINE_SHRINK = 0.5

#: Most points one sweep tabulates, so a sweep's memory is bounded before it starts.
MAX_SWEEP_STEPS = 1_000_000

# delta of the rotation quotient: a bound on |computed margin(p) - computed
# margin(p shifted)| on a closing lattice, which keeps the quotient exact
_SHIFT_DELTA = 1e-12


@dataclass(frozen=True)
class ParameterSpace:
    """Search domain: per-coordinate closed intervals (radians) plus wrap flags.

    Wrapped coordinates are periodic with period hi - lo; their lattices and
    refinement probes wrap modulo that period, and clipped coordinates pin to
    the interval instead.  correlations maps coordinates (floats or arrays) to
    the ten profile fields the kernels take.  shift_invariant marks a space of
    equal wrapped axes whose correlations depend only on coordinate
    differences, so adding one angle to every coordinate changes no
    correlation.
    """

    family: str
    bounds: tuple[tuple[float, float], ...]
    wrap: tuple[bool, ...]
    correlations: Callable
    shift_invariant: bool = False

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
        shift_invariant=True,
    ),
    "ghz_angles": ParameterSpace(
        "ghz", (_POLAR,) * 4, (True,) * 4, lambda x: inequalities.ghz_correlation_terms(*x),
        shift_invariant=True,
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


def _point(space: ParameterSpace, values) -> tuple[float, ...]:
    """values as a coordinate tuple of floats, refusing the wrong coordinate count."""
    coords = tuple(float(v) for v in values)
    if len(coords) != space.n_coords:
        raise ValueError(f"expected {space.n_coords} coordinates, got {len(coords)}")
    return coords


def evaluate_point(inequality_id: str, space: ParameterSpace, coords) -> InequalityVerdict:
    """Evaluate one parameter point with the same arithmetic the lattice scan uses."""
    kernel = inequality_kernel(inequality_id, space.family)
    lhs, rhs = kernel(*space.correlations(_point(space, coords)))
    return make_verdict(inequality_id, lhs, rhs)


# ---------------------------------------------------------------------------
# Grid search.


def _open_mesh_blocks(kernel, space, axes):
    """(positions, margins) of each open-mesh block, in lexicographic order.

    A block's tail is the trailing axes whose product fits in BLOCK_SIZE plus
    one chunk of the axis before them; blocks run over the leading (head) axes,
    then the chunk starts.  positions is the range of linear lattice indices
    the flattened margins cover.
    """
    cut = len(axes) - 1
    inner = 1
    while cut > 0 and inner * len(axes[cut]) <= BLOCK_SIZE:
        inner *= len(axes[cut])
        cut -= 1
    chunk = BLOCK_SIZE // inner
    first = 0
    for *prefix, start in itertools.product(*axes[:cut], range(0, len(axes[cut]), chunk)):
        head = tuple(float(v) for v in prefix)
        tail_axes = [axes[cut][start : start + chunk], *axes[cut + 1 :]]
        tail_shape = tuple(len(axis) for axis in tail_axes)
        lhs, rhs = kernel(*space.correlations(head + np.ix_(*tail_axes)))
        margin = np.broadcast_to(lhs - rhs, tail_shape)
        yield range(first, first + margin.size), margin
        first += margin.size


def _rotation_quotient(kernel, space, axes, blocks):
    """blocks, with the lattice beyond the first-index-0 slab cut to the kept orbits.

    Passes the slab's blocks through, keeping the slab points within
    2 _SHIFT_DELTA of the slab maximum so far.  Once more than n**2 are kept,
    the remaining blocks follow unchanged.  Otherwise the kept orbits' points
    not yet scanned follow as (positions, margins), one evaluation per shift
    of the K <= n**2 kept points in lexicographic order, every coordinate a
    flat array.
    """
    n = len(axes[0])
    shape = (n,) * len(axes)
    slab = n ** (len(axes) - 1)
    floor = -math.inf
    kept = np.empty(0, dtype=np.intp)
    kept_margins = np.empty(0)
    for positions, margin in blocks:
        yield positions, margin
        flat = margin.reshape(-1)[: slab - positions.start]
        floor = max(floor, float(flat.max()) - 2.0 * _SHIFT_DELTA)
        near = flat >= floor
        still = kept_margins >= floor
        if np.count_nonzero(near) + np.count_nonzero(still) > n * n:
            del margin, flat, near  # a block's arrays, which the rest of the scan does not need
            yield from blocks
            return
        fresh = np.flatnonzero(near)
        kept = np.concatenate((kept[still], positions.start + fresh))
        kept_margins = np.concatenate((kept_margins[still], flat[fresh]))
        if positions.stop >= slab:
            break

    representatives = np.stack(np.unravel_index(kept, shape), axis=-1)
    for shift in range(positions.stop // slab, n):
        points = np.sort(np.ravel_multi_index(tuple(((representatives + shift) % n).T), shape))
        coords = tuple(axis[i] for axis, i in zip(axes, np.unravel_index(points, shape)))
        lhs, rhs = kernel(*space.correlations(coords))
        yield points, lhs - rhs


def grid_search(inequality_id: str, space: ParameterSpace, resolution: float) -> SearchResult:
    """Exhaustive lattice scan returning the maximum-margin point.

    Computed float64 margins compare exactly, and equal ones resolve to the
    lexicographically first lattice index: the lattice is scanned in
    lexicographic order and only strict improvements replace the incumbent,
    so blocking cannot change the result.  On a shift-invariant space whose
    lattice closes, the rotation quotient of the module docstring skips the
    orbits that cannot hold the optimum and returns the identical result;
    evaluations always counts every lattice point.  The verdict is labelled
    at VIOLATION_TOL, as refine's is; a caller with another tolerance
    relabels it with make_verdict.
    """
    kernel = inequality_kernel(inequality_id, space.family)
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    # messages name the resolution in degrees, the unit the command line takes;
    # rounding to 12 digits drops the conversion's roundoff
    degrees = float(f"{math.degrees(resolution):.12g}")
    sizes = []
    for (lo, hi), wrapped in zip(space.bounds, space.wrap):
        # clamped so a resolution too fine for any float count reaches the size check
        steps = math.floor(min((hi - lo) / resolution + 1e-9, MAX_LATTICE_POINTS))
        # wrapped axes drop the upper endpoint, which duplicates lo modulo the period
        sizes.append(steps if wrapped else steps + 1)
        if sizes[-1] < 2:
            raise ValueError(
                f"resolution {degrees!r} degrees leaves fewer than 2 lattice steps on "
                f"interval ({math.degrees(lo)!r}, {math.degrees(hi)!r}) degrees"
            )
    total = math.prod(sizes)
    if total > MAX_LATTICE_POINTS:
        raise ValueError(
            f"resolution {degrees!r} degrees needs at least {total} lattice points, "
            f"more than the {MAX_LATTICE_POINTS} one scan may cover"
        )
    axes = [lo + resolution * np.arange(count) for (lo, _), count in zip(space.bounds, sizes)]
    blocks = _open_mesh_blocks(kernel, space, axes)
    span = space.bounds[0][1] - space.bounds[0][0]
    if space.shift_invariant and abs(sizes[0] * resolution - span) <= 4.0 * math.ulp(span):
        blocks = _rotation_quotient(kernel, space, axes, blocks)

    best_margin = -math.inf
    best_position = None
    for positions, margin in blocks:
        index = int(np.argmax(margin))
        candidate = float(margin.flat[index])
        if candidate > best_margin:
            best_margin = candidate
            best_position = positions[index]

    assert best_position is not None
    best_index = np.unravel_index(best_position, sizes)
    best_coords = tuple(float(axis[i]) for axis, i in zip(axes, best_index))
    best_verdict = evaluate_point(inequality_id, space, best_coords)
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
    inequality_id: str, space: ParameterSpace, start, initial_step: float, min_step: float
) -> SearchResult:
    """Coordinate-wise compass ascent from start.

    Probes +step then -step along each coordinate in order and accepts the
    first strict margin improvement, restarting the sweep; when a full sweep
    yields no improvement, or MAX_MOVES_PER_LEVEL moves were accepted, the
    step shrinks by the factor REFINE_SHRINK.  Terminates once the step falls
    below min_step; a starting step not above min_step returns the start
    unchanged.  The accepted-margin trace is monotone by construction.
    """
    if not initial_step > 0.0 or not min_step > 0.0:
        raise ValueError("steps must be positive")
    current = _point(space, start)
    for value, (lo, hi) in zip(current, space.bounds):
        if not lo <= value <= hi:
            raise ValueError(f"start coordinate {value!r} outside interval ({lo!r}, {hi!r})")

    verdict = evaluate_point(inequality_id, space, current)
    evaluations = 1
    if initial_step <= min_step:
        return SearchResult(current, verdict, evaluations)

    step = initial_step
    while step >= min_step:
        for _ in range(MAX_MOVES_PER_LEVEL):
            for axis, delta in itertools.product(range(space.n_coords), (step, -step)):
                candidate = _move(space, current, axis, delta)
                if candidate == current:
                    continue
                probe = evaluate_point(inequality_id, space, candidate)
                evaluations += 1
                if probe.margin > verdict.margin:
                    current, verdict = candidate, probe
                    break
            else:
                break
        step *= REFINE_SHRINK
    return SearchResult(current, verdict, evaluations)


def sweep(
    inequality_id: str,
    space: ParameterSpace,
    base,
    axis: int,
    sweep_range: tuple[float, float],
    steps: int,
) -> list[tuple[float, float, float, float]]:
    """Vary one coordinate over an inclusive interval, keeping the others fixed.

    Returns (coordinate, lhs, rhs, margin) rows in sweep order, steps of them.
    """
    kernel = inequality_kernel(inequality_id, space.family)
    base = _point(space, base)
    if not 0 <= axis < space.n_coords:
        raise ValueError(f"axis {axis} out of range for {space.n_coords} coordinates")
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"sweep needs between 2 and {MAX_SWEEP_STEPS} steps, got {steps}")
    lo, hi = (float(sweep_range[0]), float(sweep_range[1]))
    if not math.isfinite(hi - lo) or lo == hi:
        raise ValueError(f"invalid sweep interval ({lo!r}, {hi!r})")
    values = np.linspace(lo, hi, steps)
    coords = base[:axis] + (values,) + base[axis + 1 :]
    lhs, rhs = kernel(*space.correlations(coords))
    margin = lhs - rhs
    return [
        (float(values[i]), float(lhs[i]), float(rhs[i]), float(margin[i]))
        for i in range(steps)
    ]

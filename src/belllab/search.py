"""Derivative-free maximization of inequality margins over measurement parameters.

One table, SPACES, is the only place a search space is described: bounds,
wrap flags, the state family it models, its coordinates -> correlations map,
the lattice symmetries of that map and the arguments of its sines and cosines.

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
lexicographically first (smallest linear) lattice index: each block's
np.argmax is its first maximum, and blocks fold in any order.

Kept-orbit pass.  Each space lists its symmetries in SPACES: groups of index
maps i -> (offset + sign * i) mod n applied to a set of axes at once, each
exact when the lattice steps of its axes close their interval (span it to
within 4 ulp).  planar_epr and ghz_angles depend on the angles only through
their differences, so shifting all four indices by one step is exact.  On
vectors3d, z -> -z takes each polar index i to P - 1 - i and y -> -y each
azimuth index k to (N - k) mod N; both keep every dot product.  The
symmetries that close generate a group G.  The box keeps, on the first axis
of each, only the indices that are the least image of some index (first index
0 under the shifts; theta_a <= 90 and phi_b <= 180 degrees under the
reflections), so it holds an image of every lattice point.

Computed margins are not exactly invariant: the premise, pinned by property
tests, is that a point's and its image's computed margins differ by at most
delta = 1e-12 (measured worst case about 2e-14).  The pass scans the box in
blocks as usual, keeps every box point within 2 delta of the box maximum M,
and evaluates every non-identity image of the K kept points, one kernel call
per map of G, each coordinate a flat array gathered from its axis.  This is
exact, for every symmetry.  The point p* the full scan reports has margin at
least M and an image q in the box with margin at least M - delta, so q is
kept and every image of q, p* among them, is evaluated.  A point whose box
image was not kept has margin below M - delta, so it neither beats nor ties
p*.  The largest margin, and of equal ones the smallest linear index, is
therefore the full scan's answer, whatever order the points come in.

Three premises are checked as the pass runs; a failure hands whatever the pass
has not covered to the plain scan, so the result is the full scan's either way.
Before the box, np.cos and np.sin must round every argument the space's
correlations take, as its trig entry in SPACES names them (the sine and cosine
of an axis value, or the cosine of a scaled difference of two axis values), one
way: as a Python float, in an open-mesh grid and in a flat gather; this lets a
box of another shape than the lattice, and the flat images, reproduce the
scan's margins bit for bit.  (A difference of two Python floats arises only
from two head axes, which a closing planar lattice at the default BLOCK_SIZE
never has; a test pins that layout too.)  This check and the maps of G depend
only on the lattice, so they run once per lattice in a process.  During the
box, K must meet the cost rule of _orbit_limit.  After the images, none may
differ from its kept point by more than delta / 8.  SearchResult.evaluations
counts the whole lattice either way, and a lattice on which no symmetry closes
takes the plain scan.
"""

from __future__ import annotations

import functools
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

# delta of the kept-orbit pass: a bound on |computed margin(p) - computed
# margin(g p)| for a symmetry map g of a closing lattice, which keeps the pass exact
_SHIFT_DELTA = 1e-12


@dataclass(frozen=True)
class _Symmetry:
    """Index maps i -> (offset + sign * i) mod n, each applied to every axis in axes at once.

    maps(n) gives the (offset, sign) of each map other than the identity, for
    axes of n points; the axes have equal bounds, and a map keeps the
    correlations when the lattice steps of those axes close their interval.
    """

    axes: tuple[int, ...]
    maps: Callable[[int], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class _TrigArguments:
    """The arguments np.cos and np.sin take in a space's correlations.

    values: the sine and cosine of each coordinate.  differences: the cosine
    of scale * (x - y) for two coordinates x and y, one entry per scale.
    """

    values: bool = False
    differences: tuple[float, ...] = ()


@dataclass(frozen=True)
class ParameterSpace:
    """Search domain: per-coordinate closed intervals (radians) plus wrap flags.

    Wrapped coordinates are periodic with period hi - lo; their lattices and
    refinement probes wrap modulo that period, and clipped coordinates pin to
    the interval instead.  correlations maps coordinates (floats or arrays) to
    the ten profile fields the kernels take.  symmetries lists groups of
    lattice index maps that keep those fields, acting on disjoint axes, each
    exact on a lattice that closes its axes (module docstring).  trig names
    the arguments of every sine and cosine correlations takes, which the
    kept-orbit pass checks before it runs.
    """

    family: str
    bounds: tuple[tuple[float, float], ...]
    wrap: tuple[bool, ...]
    correlations: Callable
    symmetries: tuple[_Symmetry, ...] = ()
    trig: _TrigArguments = _TrigArguments()

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

# every angle shifted by the same number of lattice steps
_ROTATIONS = (_Symmetry((0, 1, 2, 3), lambda n: tuple((s, 1) for s in range(1, n))),)

SPACES = {
    "planar_epr": ParameterSpace(
        "epr", (_AZIMUTH,) * 4, (True,) * 4,
        lambda x: inequalities.epr_correlation_terms(*_epr_dots_from_planar(x)),
        _ROTATIONS,
        _TrigArguments(differences=(1.0,)),  # cos(a - b)
    ),
    "ghz_angles": ParameterSpace(
        "ghz", (_POLAR,) * 4, (True,) * 4, lambda x: inequalities.ghz_correlation_terms(*x),
        _ROTATIONS,
        _TrigArguments(differences=(2.0,)),  # cos 2(alpha - gamma)
    ),
    "vectors3d": ParameterSpace(
        "epr",
        (_POLAR, _POLAR, _AZIMUTH, _POLAR, _AZIMUTH, _POLAR, _AZIMUTH),
        (False, False, True, False, True, False, True),
        lambda x: inequalities.epr_correlation_terms(*_epr_dots_from_spherical(x)),
        (
            _Symmetry((0, 1, 3, 5), lambda n: ((n - 1, -1),)),  # z -> -z: theta -> pi - theta
            _Symmetry((2, 4, 6), lambda n: ((0, -1),)),  # y -> -y: phi -> -phi
        ),
        _TrigArguments(values=True),  # sin and cos of each polar and azimuth angle
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
    then the chunk starts.  positions is the range of linear indices, in the
    lattice the axes span, that the flattened margins cover.
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


@functools.lru_cache(maxsize=64)
def _orbit_maps(symmetries, sizes):
    """The maps of the group the symmetries generate, identity excluded, and the box.

    Row g of the (offsets, signs) arrays takes a lattice index i to
    (offsets[g] + signs[g] * i) mod sizes.  The box gives each axis a count of
    leading indices: on each symmetry's first axis, 1 + the largest least image
    of an index, so the box holds an image of every lattice point.  Kept per
    (symmetries, sizes), so the arrays are read-only.
    """
    offsets = np.zeros((1, len(sizes)), dtype=np.intp)
    signs = np.ones((1, len(sizes)), dtype=np.intp)
    box = list(sizes)
    for symmetry in symmetries:
        n = sizes[symmetry.axes[0]]
        own = np.array(((0, 1), *symmetry.maps(n)))[:, :, None]
        moved = np.isin(np.arange(len(sizes)), symmetry.axes)
        # every map so far followed by each of this symmetry's, which moves other axes
        offsets = np.where(moved, own[None, :, 0], offsets[:, None]).reshape(-1, len(sizes))
        signs = np.where(moved, own[None, :, 1], signs[:, None]).reshape(-1, len(sizes))
        least = ((own[:, 0] + own[:, 1] * np.arange(n)) % n).min(axis=0)
        box[symmetry.axes[0]] = 1 + int(least.max())
    offsets, signs = offsets[1:], signs[1:]
    offsets.setflags(write=False)
    signs.setflags(write=False)
    return offsets, signs, tuple(box)


def _orbit_limit(sizes, box, maps: int) -> int:
    """Most points the pass may keep; beyond it the plain scan covers the rest.

    A flat image takes its trig per point, so it costs up to N open-mesh
    points, N the longest axis: the kept points' images may cost no more than
    the points outside the box that they spare.  And K stays at most
    BLOCK_SIZE / 4, or N**2 where that is more, so the kept indices and
    margins take no more memory than half a block's margins; the images'
    margins, maps * K floats, are at most the points outside the box over N
    (1.4 blocks' margins on the planar 5 degree lattice).  On a closing
    planar lattice the rule reads K <= N**2.
    """
    longest = max(sizes)
    outside = math.prod(sizes) - math.prod(box)
    return min(outside // (longest * maps), max(longest**2, BLOCK_SIZE // 4))


@functools.lru_cache(maxsize=64)
def _trig_layouts_agree(space: ParameterSpace, resolution: float, sizes) -> bool:
    """Whether np.cos and np.sin round each argument space.trig names one way in every layout.

    On the lattice axes of that resolution and sizes: a sine or cosine of an
    axis value as a Python float, in its axis and in a flat gather in reverse
    order; a cosine of a scaled difference of two axis values in an open-mesh
    grid and in a flat gather in reverse order.  The answer depends on nothing
    else but numpy, so it is kept per lattice: a repeated scan checks once.
    """
    axes = _lattice_axes(space, resolution, sizes)
    distinct = list({axis.tobytes(): axis for axis in axes}.values())
    checks = [(f, axis) for f in (np.cos, np.sin) for axis in distinct if space.trig.values]
    for f, axis in checks:
        scalars = np.array([f(value) for value in axis.tolist()])
        if not np.array_equal(scalars.view(np.int64), f(axis).view(np.int64)):
            return False
    checks += [
        (np.cos, scale * (x[:, None] - y))
        for x, y in itertools.product(distinct, repeat=2)
        for scale in space.trig.differences
    ]
    for f, grid in checks:
        gathered = f(np.ascontiguousarray(grid.ravel()[::-1]))[::-1]
        if not np.array_equal(f(grid).ravel().view(np.int64), gathered.view(np.int64)):
            return False
    return True


def _block_top(positions, margin, shape, starts, sizes):
    """(margin, -linear lattice index) of a block's first maximum.

    The block covers positions of the sub-lattice of that shape whose first
    point sits at lattice index starts.
    """
    index = int(np.argmax(margin))
    local = np.unravel_index(positions.start + index, shape)
    position = np.ravel_multi_index(tuple(np.add(local, starts)), sizes)
    return float(margin.flat[index]), -int(position)


def _fold(best, blocks, shape, starts, sizes):
    """best, folded with each (positions, margin) block of a sub-lattice at starts of that shape."""
    for positions, margin in blocks:
        best = max(best, _block_top(positions, margin, shape, starts, sizes))
    return best


def _scan(kernel, space, axes, starts, stops, best):
    """best, folded with every block of the sub-lattice axes[j][starts[j]:stops[j]]."""
    sizes = tuple(len(axis) for axis in axes)
    shape = tuple(stop - start for start, stop in zip(starts, stops))
    sliced = [axis[start:stop] for axis, start, stop in zip(axes, starts, stops)]
    return _fold(best, _open_mesh_blocks(kernel, space, sliced), shape, starts, sizes)


def _scan_outside(kernel, space, axes, box, best):
    """best, folded with the lattice outside the box: one sliced open mesh per axis the box cuts."""
    sizes = tuple(len(axis) for axis in axes)
    for axis, (count, size) in enumerate(zip(box, sizes)):
        if count < size:
            starts = (0,) * axis + (count,) + (0,) * (len(sizes) - axis - 1)
            best = _scan(kernel, space, axes, starts, box[:axis] + sizes[axis:], best)
    return best


def _lattice_maximum(kernel, space, axes, orbits):
    """(margin, -linear index) of the lattice point with the largest computed margin.

    Of equal margins the smallest index wins.  With orbits, the (offsets,
    signs, box) of _orbit_maps, the kept-orbit pass of the module docstring;
    without, or when a premise fails, the plain scan, which the pass hands
    whatever it has not yet covered.
    """
    sizes = tuple(len(axis) for axis in axes)
    origin = (0,) * len(sizes)
    best = (-math.inf, 0)
    if orbits is None:
        return _scan(kernel, space, axes, origin, sizes, best)
    offsets, signs, box = orbits

    limit = _orbit_limit(sizes, box, len(offsets))
    blocks = _open_mesh_blocks(kernel, space, [axis[:count] for axis, count in zip(axes, box)])
    floor = -math.inf
    kept = []  # (box positions, margins) at or above the floor, one pair per block
    for positions, margin in blocks:
        top = _block_top(positions, margin, box, origin, sizes)
        best = max(best, top)
        if top[0] - 2.0 * _SHIFT_DELTA > floor:
            floor = top[0] - 2.0 * _SHIFT_DELTA
            kept = [(p[m >= floor], m[m >= floor]) for p, m in kept]
        if not top[0] >= floor:
            continue  # no point of the block is near the maximum
        fresh = np.flatnonzero(margin >= floor)
        if fresh.size + sum(m.size for _, m in kept) > limit:
            del margin, fresh, kept  # arrays the rest of the scan does not need
            best = _fold(best, blocks, box, origin, sizes)
            return _scan_outside(kernel, space, axes, box, best)
        kept.append((positions.start + fresh, margin.flat[fresh]))

    # the box starts at index 0 on every axis, so a box index is a lattice index
    kept, kept_margins = (np.concatenate(arrays) for arrays in zip(*kept))
    representatives = np.stack(np.unravel_index(kept, box), axis=-1)
    modulus = np.array(sizes)
    images = np.empty((len(offsets), kept.size))  # row g: the margins of map g's images
    for offset, sign, margin in zip(offsets, signs, images):
        points = (offset + sign * representatives) % modulus
        lhs, rhs = kernel(*space.correlations(tuple(axis[i] for axis, i in zip(axes, points.T))))
        np.subtract(lhs, rhs, out=margin)
    if not np.abs(images - kept_margins).max() <= _SHIFT_DELTA / 8.0:
        return _scan_outside(kernel, space, axes, box, best)
    top = float(images.max())
    maps, ties = np.nonzero(images == top)
    points = (offsets[maps] + signs[maps] * representatives[ties]) % modulus
    return max(best, (top, -int(np.ravel_multi_index(tuple(points.T), sizes).min())))


def _lattice_axes(space: ParameterSpace, resolution: float, sizes) -> list[np.ndarray]:
    """The lattice axes of space at resolution, of the given point counts."""
    return [lo + resolution * np.arange(count) for (lo, _), count in zip(space.bounds, sizes)]


def _axis_count(lo: float, hi: float, wrapped: bool, resolution: float) -> tuple[int, bool]:
    """Points of one lattice axis on [lo, hi], and whether its steps close the interval.

    The steps are the whole resolutions that fit, up to roundoff; they close
    the interval when they span it to within 4 ulp.  A wrapped axis drops the
    upper endpoint, which duplicates lo modulo the period.
    """
    span = hi - lo
    # clamped so a resolution too fine for any float count reaches the size check
    steps = math.floor(min(span / resolution + 1e-9, MAX_LATTICE_POINTS))
    closes = abs(steps * resolution - span) <= 4.0 * math.ulp(span)
    return (steps if wrapped else steps + 1), closes


def grid_search(inequality_id: str, space: ParameterSpace, resolution: float) -> SearchResult:
    """Exhaustive lattice scan returning the maximum-margin point.

    Computed float64 margins compare exactly, and equal ones resolve to the
    lexicographically first lattice index, so blocking cannot change the
    result.  On a lattice that closes the axes of one of the space's
    symmetries, the kept-orbit pass of the module docstring skips the orbits
    that cannot hold the optimum and returns the identical result;
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
    sizes, closing = [], []
    for (lo, hi), wrapped in zip(space.bounds, space.wrap):
        count, closes = _axis_count(lo, hi, wrapped, resolution)
        sizes.append(count)
        closing.append(closes)
        if count < 2:
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
    sizes = tuple(sizes)
    axes = _lattice_axes(space, resolution, sizes)
    symmetries = tuple(sym for sym in space.symmetries if all(closing[axis] for axis in sym.axes))
    orbits = None
    if symmetries and _trig_layouts_agree(space, resolution, sizes):
        orbits = _orbit_maps(symmetries, sizes)
    _, position = _lattice_maximum(kernel, space, axes, orbits)
    best_index = np.unravel_index(-position, sizes)
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

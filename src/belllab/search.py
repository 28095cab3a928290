"""Derivative-free maximization of inequality margins over measurement parameters.

One table, SPACES, is the only place a search space is described: bounds,
wrap flags, the state family it models, which of its coordinates make each
of the four measurement settings a, b, c, d (declared as data), the pair
function of two settings, and the lattice symmetries.  Every correlation
depends on one pair of settings, so a space's correlations are the singlet
rule inequalities.epr_correlation_terms over its six pair values, taken in
geometry.pairwise's order: E(A,C) = -pair(a, c), E(A,B) = +pair(a, b), ...

* planar_epr: four planar angles, one per singlet measurement axis; the pair
  function is cos(x - y), the dot product of two planar unit vectors.
* ghz_angles: four planar angles for the pair-product observables, pair
  function cos 2(x - y); the closed forms have period pi in each angle, so the
  bounds stop there.
* vectors3d: four unit vectors as spherical coordinates with the first
  vector's azimuth fixed to 0, which quotients out the free global rotation
  about z instead of wasting lattice points on it.  Coordinate order is
  (theta_a, theta_b, phi_b, theta_c, phi_c, theta_d, phi_d), and the pair
  function is the dot product of two (theta, phi) unit vectors.

Grid search sizes the lattice from integer axis counts before it builds any
array.  It then calls the pair function once, on an open mesh of the lattice's
setting values: a raveled S x S table for the lattice's S settings (S = N
planar, P * N on vectors3d for P polar and N azimuth values: 144 at 22.5
degrees).  A lattice point's indices ravel into one flat index per setting,
and pair value s, t is entry s * S + t, one flat gather for the open mesh and
the kept-orbit images alike.  An entry holds the bits the pair function gives
at those two settings, since np.cos and np.sin round a value one way whatever
the array layout (a numpy fact the tests pin), so a reported optimum
re-evaluates to identical numbers.  The scan runs in blocks of at most
BLOCK_SIZE points.  A block is an open mesh: the trailing axes whose product
fits, plus one chunk of the axis before them, each passed as a 1-d index axis
shaped by np.ix_, so a pair value of two tail axes costs one gather per pair
of settings, not one per point.  Ties compare the computed float64 margins
exactly and go to the lexicographically first (smallest linear) lattice
index: each block's np.argmax is its first maximum, and blocks fold in any
order.

Kept-orbit pass.  Each space lists its symmetries in SPACES, one per
coordinate of a setting: index maps i -> (offset + sign * i) mod n applied to
that coordinate of all four settings at once, each exact when the lattice
steps of the axes it moves close their interval (span it to within 4 ulp).
planar_epr and ghz_angles depend on the angles only through their
differences, so shifting all four indices by one step is exact.  On
vectors3d, z -> -z takes each polar index i to P - 1 - i and y -> -y each
azimuth index k to (N - k) mod N; both keep every dot product.  The
symmetries that apply generate a group G.  The box keeps, on the first axis
each moves, only the indices that are the least image of some index (first index
0 under the shifts; theta_a <= 90 and phi_b <= 180 degrees under the
reflections), so it holds an image of every lattice point.

Computed margins are not exactly invariant: the premise, pinned by property
tests, is that a point's and its image's computed margins differ by at most
delta = 1e-12 (measured worst case about 2e-14).  The pass scans the box in
blocks as usual, and each block adds to one list of kept points its points
at or above the floor, the box maximum so far less 2 delta.  Once a slice's
worth is kept, it evaluates every non-identity image of those points and
drops them, and after the last block it images the rest, so it never holds
all of the kept points.  A slice is the pair table's size, or BLOCK_SIZE /
16 where that is more.  A map moves every setting alike, so it permutes
the S settings of the pair table: each non-identity
map of G is one row of S flat setting indices, the outer product of its
coordinates' index images, built once per lattice.  An image's four
settings are 1-d takes from its map's row at the kept point's flat
settings, and its six pair values the table's flat gather, the entries the
blocks read; an image that ties the best margin has its lattice index read
back from its four settings.  The images go to the kernel in batches of
whole maps, as many as fit in the table's size (or one map), and each batch
folds into the maximum as it comes.  This is exact, for every symmetry.
Let M be the box maximum.  The point p* the full scan reports has margin at
least M and an image q in the box with margin at least M - delta.  The floor
never exceeds M - 2 delta, so q is kept and its images, p* among them, are
evaluated.  A point whose box image was not kept has margin below M - delta,
so it neither beats nor ties p*.  A kept point is a lattice point whatever
the floor does later, and its images have the margins the blocks would
compute.  The largest margin, and of equal ones the smallest linear index,
is therefore the full scan's answer, whatever order the points come in.
Each box point is kept at most once, so the pass evaluates at most |G|
times the box's points.

A symmetry acts on one coordinate of every setting, so it cannot move one
setting's coordinate without the others'.  Two premises are checked, and
the result is the full scan's either way.  Where the map rows are built, a
symmetry applies only if each of its maps keeps index 0 where a setting
holds its coordinate at the origin (a's azimuth on vectors3d); a lattice on
which no symmetry applies takes the plain scan.  In each batch of images, no
image may differ from its kept point by more than delta / 8.

Bound skip.  Every space's pair function is the dot product of two unit
vectors (on ghz_angles at the doubled angles), so under the singlet rule the
dispersion-free and CHSH margins are at most a function of E(A,B) alone,
each kernel's bound in inequalities: 8 - 4 E(A,B), and sqrt(2 + 2 E(A,B)) +
sqrt(2 - 2 E(A,B)) - 2.  a and b's coordinates are the leading axes, so a
head, one index on each of them, fixes E(A,B) for the whole (c, d) tail
after it.  A scan with a bound, the plain scan and the kept-orbit box alike,
takes its heads in descending bound + epsilon, in groups of 1, 2, 4, ...
within a block, and stops before a group whose first bound + epsilon is below
the floor: the maximum so far less 2 delta, of the lattice in the plain scan
and of the box in the pass.  Every point of a skipped head has a margin below
the floor, so it neither beats nor ties the best, which is at least the
maximum so far, and in the box it would not have been kept: the kept points,
their images and the result are the full scan's.  A
group's heads go in ascending order, so a block's first maximum is still
its least index.  general has no bound and keeps the blocks above.

epsilon bounds how far a computed margin may exceed the computed bound at its
computed E(A,B).  Let u = 2^-53, and take np.sin and np.cos within 4 ulp.  A
table entry is then within eta = 2^-46 = 128 u of the exact dot product of
the unit vectors at its two settings' angles: 8 u from the trig, 2 pi u from
the rounded angle difference on the planar spaces, and at most 108 u through
the products and sums of _spherical_dot.  At the exact dot products the
margin obeys its bound.  The computed margin exceeds the exact one at the
table's entries by at most the kernel's rounding, under 140 u with every
|E| <= 1 + eta, and that in turn the margin at the exact dot products by at
most L eta: L = 40 for dispersion_free (2 |combination| <= 8 on each of four
terms, 8 on the E(A,B) E(C,D) term) and 4 for CHSH.  Clipping E(A,B) to
[-1, 1] moves it no further from the exact dot product, which lies there, so
the bound at the clipped value is below the bound at the exact one by at
most 4 eta (dispersion_free) or, sqrt being 1/2-Hoelder, 2 sqrt(2 eta) =
3.4e-7 (CHSH, near E(A,B) = +-1), plus its own rounding of a few u.  The
largest sum, CHSH's 3.4e-7 + 4 eta + 150 u, is below epsilon = 1e-6 by a
factor of about 3, and every block row checks it.

A failed premise, a block row above its head's bound + epsilon or an image
past delta / 8, rescans the whole lattice with the plain scan and without
the bound, so the result is the full scan's either way.  The work before the
rescan is at most one lattice (a plain scan) or |G| times the box's points,
so a scan's cost is bounded before it starts.  SearchResult.evaluations
counts the whole lattice either way.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import inequalities
from .geometry import pairwise
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

# epsilon of the bound skip: a bound on how far a computed margin may exceed its
# kernel's bound at the computed E(A,B) (module docstring)
_BOUND_EPSILON = 1e-6


@dataclass(frozen=True)
class ParameterSpace:
    """Search domain: per-coordinate closed intervals (radians) plus wrap flags.

    Wrapped coordinates are periodic with period hi - lo; their lattices and
    refinement probes wrap modulo that period, and clipped coordinates pin to
    the interval instead.  settings declares the four settings a, b, c, d: for
    each, the index of each of its coordinates among the space's, or None for
    a coordinate held at the origin, where its bounds start, so that angle 0
    and lattice index 0 name one value (correlations gives angle 0.0 there,
    and _PairTable.flat_settings index 0).  d holds no None, since its axes
    shape the pair table.  pair(*s, *t) is the pair function of settings s
    and t.  symmetries has one entry per
    coordinate of a setting: symmetries[c](n) gives the (offset, sign) of each
    non-identity lattice index map i -> (offset + sign * i) mod n of that
    coordinate, on axes of n points, applied to coordinate c of all four
    settings at once; the maps keep the correlations on a lattice that closes
    those axes (module docstring).
    """

    family: str
    bounds: tuple[tuple[float, float], ...]
    wrap: tuple[bool, ...]
    settings: tuple[tuple[int | None, ...], ...]
    pair: Callable
    symmetries: tuple[Callable[[int], tuple[tuple[int, int], ...]], ...]

    @property
    def n_coords(self) -> int:
        return len(self.bounds)

    def correlations(self, coords):
        """The ten profile fields the kernels take, at coordinates given as floats or arrays."""
        # the float 0.0 at the origin: np.cos and np.sin take an int through numpy's slower path
        settings = [[0.0 if j is None else coords[j] for j in s] for s in self.settings]
        terms = pairwise(lambda s, t: self.pair(*s, *t), settings)
        return inequalities.epr_correlation_terms(*terms)


def _planar_dot(x, y):
    return np.cos(x - y)


def _spherical_dot(theta_1, phi_1, theta_2, phi_2):
    def components(theta, phi):
        s = np.sin(theta)
        return s * np.cos(phi), s * np.sin(phi), np.cos(theta)

    x_1, y_1, z_1 = components(theta_1, phi_1)
    x_2, y_2, z_2 = components(theta_2, phi_2)
    return x_1 * x_2 + y_1 * y_2 + z_1 * z_2


_POLAR = (0.0, math.pi)
_AZIMUTH = (0.0, 2.0 * math.pi)

_PLANAR_SETTINGS = ((0,), (1,), (2,), (3,))

# every angle shifted by the same number of lattice steps
_ROTATIONS = (lambda n: tuple((s, 1) for s in range(1, n)),)

SPACES = {
    "planar_epr": ParameterSpace(
        "epr", (_AZIMUTH,) * 4, (True,) * 4, _PLANAR_SETTINGS, _planar_dot, _ROTATIONS
    ),
    "ghz_angles": ParameterSpace(
        "ghz", (_POLAR,) * 4, (True,) * 4, _PLANAR_SETTINGS, inequalities._ghz_pair, _ROTATIONS
    ),
    "vectors3d": ParameterSpace(
        "epr",
        (_POLAR, _POLAR, _AZIMUTH, _POLAR, _AZIMUTH, _POLAR, _AZIMUTH),
        (False, False, True, False, True, False, True),
        # vector a lies in the x-z plane, at the first azimuth of the lattice
        ((0, None), (1, 2), (3, 4), (5, 6)),
        _spherical_dot,
        (
            lambda n: ((n - 1, -1),),  # z -> -z: theta -> pi - theta
            lambda n: ((0, -1),),  # y -> -y: phi -> -phi
        ),
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


class _PremiseFailure(Exception):
    """A premise of the bound skip or the kept-orbit pass failed (module docstring)."""


class _PairTable:
    """A space's pair function at every two settings of a lattice, read at flat settings.

    Every setting ranges over the axes of d, whose lengths are shape; its flat
    index ravels its lattice indices over shape, one of S = prod(shape).
    values[s * S + t] is space.pair(*s, *t) for flat settings s and t, from one
    pair-function call on the open mesh of d's axes; sizes are the lattice's
    axis lengths.
    """

    def __init__(self, space: ParameterSpace, axes):
        self.settings = space.settings
        last = [axes[j] for j in space.settings[-1]]
        self.values = space.pair(*np.ix_(*last, *last)).reshape(-1)
        self.shape = tuple(len(axis) for axis in last)
        self.sizes = tuple(len(axis) for axis in axes)
        # the leading axes that hold every coordinate of a and b: their heads fix E(A,B)
        self.heads = 1 + max(j for s in space.settings[:2] for j in s if j is not None)

    def correlations(self, settings):
        """ParameterSpace.correlations at four flat settings: pair value s, t is values[s * S + t]."""
        values, count = self.values, math.prod(self.shape)
        terms = pairwise(lambda s, t: values.take(s * count + t), settings)
        return inequalities.epr_correlation_terms(*terms)

    def flat_settings(self, indices):
        """The flat index of each of the four settings at lattice indices, index 0 at None."""
        return tuple(
            np.ravel_multi_index([0 if j is None else indices[j] for j in s], self.shape)
            for s in self.settings
        )

    def lattice_index(self, settings):
        """The linear lattice index of points given by their four flat settings.

        The inverse of flat_settings: each flat index unravels over shape and
        each of its indices goes to the axis the setting holds it on.
        """
        index = [0] * len(self.sizes)
        for flat, axes in zip(settings, self.settings):
            for axis, i in zip(axes, np.unravel_index(flat, self.shape)):
                if axis is not None:  # the origin holds index 0
                    index[axis] = i
        return np.ravel_multi_index(index, self.sizes)


@functools.lru_cache(maxsize=64)
def _orbits(settings, symmetries, sizes, closing):
    """(box, rows) of the kept-orbit pass over a lattice, or None for the plain scan.

    symmetries[c] moves coordinate c of every setting, on the axes that
    settings gives that coordinate; it applies when all of them close and
    each of its maps keeps index 0 where a setting holds the coordinate at
    the origin (a's azimuth on vectors3d).  Row g of rows takes a setting's
    flat index (_PairTable) to its image's under map g of the group the
    applying symmetries generate, identity excluded, the later coordinate
    varying fastest.  The box gives each axis a count of leading indices: on
    the first axis each symmetry moves, 1 + the largest least image of an
    index, so the box holds an image of every lattice point.  Kept per
    lattice, so rows is read-only.
    """
    box = list(sizes)
    rows = np.zeros((1, 1), dtype=np.intp)
    for maps, owners in zip(symmetries, zip(*settings)):
        axes = [axis for axis in owners if axis is not None]
        n = sizes[axes[0]]
        own = np.array(((0, 1), *maps(n)))
        images = (own[:, :1] + own[:, 1:] * np.arange(n)) % n  # row m: each index under map m
        fixes_origin = None not in owners or (images[:, 0] == 0).all()
        if not (fixes_origin and all(closing[axis] for axis in axes)):
            images = images[:1]  # the identity alone: the symmetry does not apply
        box[axes[0]] = 1 + int(images.min(axis=0).max())
        # every map so far followed by each of this coordinate's
        rows = rows[:, None, :, None] * n + images[None, :, None, :]
        rows = rows.reshape(rows.shape[0] * rows.shape[1], -1)
    if len(rows) == 1:
        return None
    rows = rows[1:]
    rows.setflags(write=False)
    return tuple(box), rows


def _positions(rows, margin, flat):
    """Linear indices in the block's sub-lattice of flat indices into its margins."""
    if len(rows) == 1:  # no per-point division: a block's kept points may fill it
        return rows[0] + flat
    width = margin.size // len(rows)
    return rows[flat // width] + flat % width


def _lattice_maximum(kernel, table, orbits, bound=None):
    """(margin, -linear index) of the lattice point with the largest computed margin.

    Of equal margins the smallest index wins.  Without orbits, the plain scan
    of the lattice of table.sizes; with orbits, the (box, rows) of _orbits,
    the kept-orbit pass of the module docstring.  Either scans open-mesh
    blocks, the trailing axes whose product fits in BLOCK_SIZE plus one chunk
    of the axis before them.  Row r of a block's margins covers the linear
    indices, in the lattice or box scanned, from block_rows[r] on; rows
    ascend, so a block's first maximum has the least index.  Without a bound,
    blocks run over the leading axes, then the chunk starts, in lexicographic
    order, one row each.  With a bound (the module docstring), the leading
    table.heads axes are a and b's, and their heads go in descending bound +
    epsilon, ties lexicographic: in groups of 1, 2, 4, ... heads, doubling
    while a group's tails fit in BLOCK_SIZE, a group's heads in ascending
    order, one row each, the whole tail in one block; or, with the tail over
    BLOCK_SIZE, one head at a time, over the tail's blocks.  The scan stops
    before a group whose bound + epsilon is below the floor, the largest
    block maximum so far less 2 delta.  The pass evaluates at most
    len(rows) + 1 times the box's points.  Raises _PremiseFailure where a
    premise fails: a block row above its head's bound + epsilon, or an image
    past delta / 8 (_fold_images).
    """
    sizes = table.sizes
    box, rows = (sizes, None) if orbits is None else orbits
    axes = [np.arange(count) for count in box]
    heads = 0 if bound is None else table.heads
    tail_axes = axes[heads:]
    cut = len(tail_axes) - 1
    inner = 1
    while cut > 0 and inner * len(tail_axes[cut]) <= BLOCK_SIZE:
        inner *= len(tail_axes[cut])
        cut -= 1
    chunk = BLOCK_SIZE // inner
    tail = math.prod(len(axis) for axis in tail_axes)
    if bound is None:
        order, limits, indices = np.zeros(1, dtype=np.intp), None, []
    else:
        head_shape = tuple(len(axis) for axis in axes[:heads])
        lexicographic = np.unravel_index(np.arange(math.prod(head_shape)), head_shape)
        indices = [axis[i] for axis, i in zip(axes, lexicographic)]
        # E(A,B) of every head: c and d's indices, held at 0, do not enter it
        e_ab = table.correlations(table.flat_settings(indices + [0] * len(tail_axes)))[4]
        limits = bound(e_ab) + _BOUND_EPSILON
        order = np.argsort(-limits, kind="stable")
    # a slice: a pair table's worth of kept points, one map's images per kernel call,
    # and at least a sixteenth of a block, so the small planar and ghz tables image
    # their benchmark scans' K (15 338 at planar 5 degrees) in one slice after the box
    slice_size = max(table.values.size, BLOCK_SIZE // 16)
    best = (-math.inf, 0)
    floor = -math.inf
    kept = []  # (box positions, margins) of kept points not yet imaged, one pair per block
    first, size = 0, 1
    # past the floor no point of this or a later head beats or ties the best, or is kept
    while first < order.size and (limits is None or limits[order[first]] >= floor):
        group = np.sort(order[first : first + size])
        first += size
        if 2 * size * tail <= BLOCK_SIZE:
            size *= 2
        head = [index[group].reshape(-1, *[1] * (len(tail_axes) - cut)) for index in indices]
        start_of_row = 0
        for *mid, start in itertools.product(*tail_axes[:cut], range(0, len(tail_axes[cut]), chunk)):
            block_axes = [tail_axes[cut][start : start + chunk], *tail_axes[cut + 1 :]]
            shape = (group.size,) * (heads > 0) + tuple(len(axis) for axis in block_axes)
            settings = table.flat_settings((*head, *mid, *np.ix_(*block_axes)))
            # lhs and rhs are freed once the margins exist, so only the margins outlive the block
            margin = np.broadcast_to(np.subtract(*kernel(*table.correlations(settings))), shape)
            block_rows = group * tail + start_of_row
            start_of_row += margin.size // group.size
            if limits is not None:
                tops = margin.reshape(group.size, -1).max(axis=1)
                if (tops > limits[group]).any():
                    raise _PremiseFailure
            flat = int(np.argmax(margin))
            local = np.unravel_index(int(_positions(block_rows, margin, flat)), box)
            top = float(margin.flat[flat])
            best = max(best, (top, -int(np.ravel_multi_index(local, sizes))))
            floor = max(floor, top - 2.0 * _SHIFT_DELTA)
            if rows is None:
                continue
            if sum(m.size for _, m in kept) >= slice_size:
                best = _fold_images(kernel, table, rows, box, kept, slice_size, best)
            fresh = np.flatnonzero(margin >= floor)
            kept.append((_positions(block_rows, margin, fresh), margin.flat[fresh]))
            del fresh  # freed before the next block: 1.6 MB less peak RSS over the lattice-3d scans
    if rows is None:
        return best
    return _fold_images(kernel, table, rows, box, kept, slice_size, best)


def _fold_images(kernel, table, rows, box, kept, slice_size, best):
    """best, folded with every map's image of the kept (box positions, margins) pairs.

    kept is emptied first, so only its points' concatenation stays alive.  The
    points go in slices of slice_size, and a slice's images to the kernel in
    batches of whole maps, as many as fit in the table's size (or one map).
    Raises _PremiseFailure when an image's margin differs from its kept
    point's by more than delta / 8.
    """
    positions, margins = (np.concatenate(arrays) for arrays in zip(*kept))
    kept.clear()
    for first in range(0, positions.size, slice_size):
        here = slice(first, first + slice_size)
        points, point_margins = positions[here], margins[here]
        # the box starts at index 0 on every axis, so a box index is a lattice index
        settings = table.flat_settings(np.unravel_index(points, box))
        batch = max(1, table.values.size // points.size)
        for start in range(0, len(rows), batch):
            moved = rows[start : start + batch]
            # each map's images of the slice, flat for the kernel
            lhs, rhs = kernel(
                *table.correlations([moved.take(s, axis=1).ravel() for s in settings])
            )
            images = (lhs - rhs).reshape(len(moved), points.size)  # row g: map start + g's margins
            if not np.abs(images - point_margins).max() <= _SHIFT_DELTA / 8.0:
                raise _PremiseFailure  # the tripwire
            top = float(images.max())
            if top >= best[0]:  # else no image of the batch beats or ties the best
                maps, ties = np.nonzero(images == top)
                index = table.lattice_index(tuple(moved[maps, s[ties]] for s in settings))
                best = max(best, (top, -int(index.min())))
    return best


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

    Every correlation of the scan is read from the lattice's pair table
    (module docstring).  Computed float64 margins compare exactly, and equal ones resolve to the
    lexicographically first lattice index, so blocking cannot change the
    result.  On a lattice that closes the axes of one of the space's
    symmetries, the kept-orbit pass of the module docstring skips the orbits
    that cannot hold the optimum, and dispersion_free and chsh scans skip the
    (a, b) heads whose bound + epsilon is below the floor, the maximum so far
    less 2 delta; either returns the identical result,
    and evaluations always counts every lattice point.  The verdict is labelled
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
    # clamped, so that roundoff in a clipped axis's count puts no point past its bound
    axes = [
        np.minimum(lo + resolution * np.arange(count), hi)
        for (lo, hi), count in zip(space.bounds, sizes)
    ]
    orbits = _orbits(space.settings, space.symmetries, sizes, tuple(closing))
    table = _PairTable(space, axes)
    bound = inequalities._PAIR_BOUNDS.get(kernel)
    try:
        _, position = _lattice_maximum(kernel, table, orbits, bound)
    except _PremiseFailure:
        position = None  # rescanned below, once the traceback frees the failed pass's arrays
    if position is None:  # the whole lattice goes to the plain scan without the bound
        _, position = _lattice_maximum(kernel, table, None)
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

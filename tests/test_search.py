"""Lattice scans, compass refinement, and one-axis sweeps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab import inequalities, search
from belllab.geometry import Direction, gram_of, planar
from belllab.inequalities import (
    INEQUALITIES,
    epr_profile_from_dots,
    ghz_profile_from_angles,
    inequality_kernel,
    verdict_for_profile,
)
from belllab.search import (
    SPACE_KINDS,
    SPACES,
    _axis_count,
    evaluate_point,
    grid_search,
    parameter_space,
    refine,
    sweep,
)

PLANAR = parameter_space("planar_epr")
GHZ = parameter_space("ghz_angles")
VECTORS = parameter_space("vectors3d")


def test_space_shapes():
    assert PLANAR.n_coords == 4
    assert GHZ.n_coords == 4
    assert VECTORS.n_coords == 7
    assert all(PLANAR.wrap)
    assert all(GHZ.wrap)
    assert PLANAR.bounds[0] == (0.0, 2.0 * math.pi)
    assert GHZ.bounds[0] == (0.0, math.pi)


def test_unknown_space_kind_rejected():
    with pytest.raises(ValueError):
        parameter_space("spherical")
    assert set(SPACE_KINDS) == {"planar_epr", "ghz_angles", "vectors3d"}


def test_evaluate_point_matches_profile_route_planar():
    # the scan kernel uses cos(angle differences); the profile route goes
    # through explicit vectors, which is an independent arithmetic path
    angles = (0.3, 1.2, 2.5, 4.4)
    for inequality_id in ("general", "dispersion_free", "chsh", "epr_general"):
        from_scan = evaluate_point(inequality_id, PLANAR, angles)
        profile = epr_profile_from_dots(gram_of(*planar(angles)))
        expected = verdict_for_profile(profile, inequality_id)
        assert from_scan.lhs == pytest.approx(expected.lhs, abs=1e-12)
        assert from_scan.rhs == pytest.approx(expected.rhs, abs=1e-12)


def test_evaluate_point_matches_profile_route_ghz():
    angles = (0.2, 0.9, 1.7, 2.8)
    from_scan = evaluate_point("ghz_general", GHZ, angles)
    expected = verdict_for_profile(ghz_profile_from_angles(*angles), "ghz_general")
    assert from_scan.lhs == pytest.approx(expected.lhs, abs=1e-12)
    assert from_scan.rhs == pytest.approx(expected.rhs, abs=1e-12)


def test_evaluate_point_vectors3d_matches_explicit_directions():
    # coordinates: polar_a, then (polar, azimuth) for b, c, d; a is gauge
    # fixed into the x-z plane
    coords = (0.7, 1.1, 0.4, 2.0, 3.9, 0.6, 5.1)

    def from_spherical(theta, phi):
        return Direction(
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )

    a = Direction(math.sin(coords[0]), 0.0, math.cos(coords[0]))
    b = from_spherical(coords[1], coords[2])
    c = from_spherical(coords[3], coords[4])
    d = from_spherical(coords[5], coords[6])
    from_scan = evaluate_point("general", VECTORS, coords)
    expected = verdict_for_profile(epr_profile_from_dots(gram_of(a, b, c, d)), "general")
    assert from_scan.lhs == pytest.approx(expected.lhs, abs=1e-12)
    assert from_scan.rhs == pytest.approx(expected.rhs, abs=1e-12)


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_kernels_respect_their_mathematical_bounds(kind):
    # at any point of any space: Cauchy-Schwarz caps the general margin at 0,
    # the dispersion-free supremum is 12 and Tsirelson caps chsh at 2 sqrt 2
    space = SPACES[kind]

    def check(coords):
        assert evaluate_point("general", space, coords).margin <= 1e-12
        assert evaluate_point("dispersion_free", space, coords).lhs <= 12.0 + 1e-12
        assert evaluate_point("chsh", space, coords).lhs <= 2.0 * math.sqrt(2.0) + 1e-12

    point = st.tuples(*(st.floats(lo, hi) for lo, hi in space.bounds))
    settings(max_examples=150, deadline=None)(given(point)(check))()
    # random points rarely come near the suprema, so check the lattice optima
    # too: these lattices hold the analytic optima (ghz angles enter doubled)
    resolution = math.pi / (4.0 if kind == "vectors3d" else 8.0)
    for inequality_id in ("general", "dispersion_free", "chsh"):
        check(grid_search(inequality_id, space, resolution).best_params)


def test_incompatible_inequality_and_space():
    with pytest.raises(ValueError):
        evaluate_point("epr_general", GHZ, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        evaluate_point("ghz_general", PLANAR, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        grid_search("ghz_dispersion_free", VECTORS, 1.0)


def test_evaluate_point_validates_coordinate_count():
    with pytest.raises(ValueError):
        evaluate_point("general", PLANAR, (0.0, 1.0))


def test_grid_counts_wrapped_lattice_points(monkeypatch):
    # 90 degree resolution on wrapped [0, 2pi) axes: 4 points per axis
    result = grid_search("general", PLANAR, math.pi / 2.0)
    assert result.evaluations == 4**4
    # a lattice exactly at the size limit runs; one point more is refused
    monkeypatch.setattr(search, "MAX_LATTICE_POINTS", 4**4)
    assert grid_search("general", PLANAR, math.pi / 2.0).evaluations == 4**4
    monkeypatch.setattr(search, "MAX_LATTICE_POINTS", 4**4 - 1)
    with pytest.raises(ValueError, match="256 lattice points"):
        grid_search("general", PLANAR, math.pi / 2.0)


def test_grid_matches_brute_force():
    resolution = math.pi / 2.0
    result = grid_search("dispersion_free", PLANAR, resolution)
    axis = [i * resolution for i in range(4)]
    best = None
    for coords in itertools.product(axis, repeat=4):
        margin = evaluate_point("dispersion_free", PLANAR, coords).margin
        if best is None or margin > best[1]:
            best = (coords, margin)
    assert result.best_verdict.margin == pytest.approx(best[1], abs=1e-12)
    assert result.best_params == pytest.approx(best[0], abs=1e-12)


def test_grid_result_is_independent_of_block_size(monkeypatch):
    resolution = math.radians(45.0)
    coarse = grid_search("chsh", PLANAR, resolution)
    for block_size in (1, 7, 64, 100000):
        monkeypatch.setattr(search, "BLOCK_SIZE", block_size)
        other = grid_search("chsh", PLANAR, resolution)
        assert other.best_params == coarse.best_params
        assert other.best_verdict.margin == coarse.best_verdict.margin
        assert other.evaluations == coarse.evaluations


def _dense_scan(kernels, space, resolution):
    """Lattice scan over dense meshgrid blocks, kept as the open-mesh scan's reference.

    Returns ({kernel: best coordinates}, lattice size); each block's
    correlations serve every one of kernels.  The inequality id only labels
    the verdict, so one scan serves every id sharing a kernel.
    """
    sizes = [
        _axis_count(lo, hi, wrapped, resolution)[0]
        for (lo, hi), wrapped in zip(space.bounds, space.wrap)
    ]
    # clamped as grid_search clamps them, so no point lies past a clipped bound
    axes = [
        np.minimum(lo + resolution * np.arange(count), hi)
        for (lo, hi), count in zip(space.bounds, sizes)
    ]

    split = len(axes) - 1
    while split > 0 and math.prod(sizes[split - 1 :]) <= 262144:
        split -= 1
    tail_axes = axes[split:]
    tail_shape = tuple(sizes[split:])
    tail_flat = tuple(m.ravel() for m in np.meshgrid(*tail_axes, indexing="ij"))

    best = {kernel: (-math.inf, None) for kernel in kernels}
    for prefix in itertools.product(*axes[:split]):
        head = tuple(float(v) for v in prefix)
        terms = space.correlations(head + tail_flat)
        for kernel in best:
            lhs, rhs = kernel(*terms)
            margin = lhs - rhs
            index = int(np.argmax(margin))
            candidate = float(margin[index])
            if candidate > best[kernel][0]:
                offsets = np.unravel_index(index, tail_shape)
                best[kernel] = candidate, head + tuple(
                    float(axis[offset]) for axis, offset in zip(tail_axes, offsets)
                )
    return {kernel: coords for kernel, (_, coords) in best.items()}, math.prod(sizes)


def _admitted(space):
    """{inequality id: kernel} of the ids a space's family admits."""
    return {
        inequality_id: kernel
        for inequality_id, (kernel, family) in INEQUALITIES.items()
        if family in (None, space.family)
    }


@pytest.mark.parametrize(
    "kind, resolutions_deg",
    [
        ("planar_epr", (90, 45, 30, 22.5, 13, 7.5)),
        ("ghz_angles", (45, 22.5, 11, 7.5)),
        # 90.00000001 and 60.00000001 end the polar axes on the clamped 180 degrees
        ("vectors3d", (90, 45, 36, 29, 90.00000001, 60.00000001)),
    ],
)
def test_grid_search_matches_the_dense_scan_bit_for_bit(monkeypatch, kind, resolutions_deg):
    space = SPACES[kind]
    admitted = _admitted(space)
    default_block = search.BLOCK_SIZE
    for degrees in resolutions_deg:
        resolution = math.radians(degrees)
        scans, total = _dense_scan(admitted.values(), space, resolution)
        for inequality_id, kernel in admitted.items():
            coords = scans[kernel]
            expected = (coords, evaluate_point(inequality_id, space, coords), total)
            # blocks far below the default only on lattices of a few thousand points:
            # one-point blocks cost about 30 us each
            blocks = (1, 7, 64, 4096, default_block) if total <= 6_000 else (4096, default_block)
            for block_size in blocks:
                monkeypatch.setattr(search, "BLOCK_SIZE", block_size)
                result = grid_search(inequality_id, space, resolution)
                assert (
                    result.best_params, result.best_verdict, result.evaluations
                ) == expected, (inequality_id, degrees, block_size)


# closing lattices, in degrees; at 3 degrees n * resolution misses the period by one ulp
CLOSING_DEGREES = {"planar_epr": (2.5, 3, 5, 10, 15, 45), "ghz_angles": (2.5, 3, 5, 10, 22.5)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rotating_a_closing_lattice_moves_a_margin_by_at_most_delta(data):
    # the premise that makes the rotation quotient exact
    kind = data.draw(st.sampled_from(sorted(CLOSING_DEGREES)))
    space = SPACES[kind]
    resolution = math.radians(data.draw(st.sampled_from(CLOSING_DEGREES[kind])))
    lo, hi = space.bounds[0]
    n, _ = _axis_count(lo, hi, True, resolution)
    axis = lo + resolution * np.arange(n)
    index = np.array(data.draw(st.tuples(*[st.integers(0, n - 1)] * 4)))
    shift = data.draw(st.integers(1, n - 1))
    for inequality_id in ("general", "dispersion_free", "chsh"):
        margin = evaluate_point(inequality_id, space, axis[index]).margin
        rotated = evaluate_point(inequality_id, space, axis[(index + shift) % n]).margin
        assert abs(margin - rotated) <= search._SHIFT_DELTA


@pytest.mark.parametrize(
    "kind, degrees", [("planar_epr", 10), ("planar_epr", 15), ("ghz_angles", 5), ("ghz_angles", 10)]
)
def test_rotation_quotient_matches_the_dense_scan_bit_for_bit(monkeypatch, kind, degrees):
    space = SPACES[kind]
    resolution = math.radians(degrees)
    default_block = search.BLOCK_SIZE
    admitted = _admitted(space)
    scans, total = _dense_scan(admitted.values(), space, resolution)
    for inequality_id, kernel in admitted.items():
        coords = scans[kernel]
        expected = (coords, evaluate_point(inequality_id, space, coords), total)
        for block_size in (4096, default_block):
            monkeypatch.setattr(search, "BLOCK_SIZE", block_size)
            result = grid_search(inequality_id, space, resolution)
            assert (
                result.best_params, result.best_verdict, result.evaluations
            ) == expected, (inequality_id, block_size)


def test_rotation_quotient_evaluates_only_the_kept_orbits(monkeypatch, kernel_points):
    def scanned_points(inequality_id, kind, degrees, n):
        kernel_points.clear()
        result = grid_search(inequality_id, SPACES[kind], math.radians(degrees))
        assert result.evaluations == n**4
        return sum(kernel_points) - 1  # the reported optimum is evaluated once more

    def calls_after_the_slab(n):
        # the slab's blocks end exactly at n**3 points; the last call is the optimum's
        ends = list(itertools.accumulate(kernel_points))
        return kernel_points[ends.index(n**3) + 1 : -1]

    # 72 points per axis.  dispersion_free and chsh scan the first-index-0 slab
    # by (a, b) head, b's angle with a at 0, each head the n * n points of c and
    # d, in descending bound and in groups of 1, 2, 4, ... heads: one head
    # (b opposite a) reaches the dispersion-free 12, and the groups of 1 and 2
    # reach the Tsirelson value, after which no bound reaches the best.  Then
    # the other 71 points of each of K kept orbits, K = 2 for dispersion_free
    # and 4 for chsh; the images come in batches of whole shifts, as many as
    # the 72 * 72 entries of the pair table hold, so all 71 shifts take one call
    n = 72
    assert scanned_points("dispersion_free", "planar_epr", 5, n) == n**2 + 2 * (n - 1)
    assert kernel_points[:-1] == [n**2, 2 * (n - 1)]
    assert scanned_points("chsh", "planar_epr", 5, n) == 3 * n**2 + 4 * (n - 1)
    assert kernel_points[:-1] == [n**2, 2 * n**2, 4 * (n - 1)]
    assert scanned_points("ghz_dispersion_free", "ghz_angles", 2.5, n) == n**2 + 2 * (n - 1)
    assert kernel_points[:-1] == [n**2, 2 * (n - 1)]
    # the general bound keeps K = 15 338 orbits, more than the table holds, so
    # each shift's images take a call of their own
    for inequality_id, kind, degrees in (
        ("general", "planar_epr", 5), ("ghz_general", "ghz_angles", 2.5)
    ):
        assert scanned_points(inequality_id, kind, degrees, n) == 1462246  # n**3 + 15338 * (n - 1)
        assert calls_after_the_slab(n) == [15338] * (n - 1)
    # 7 degrees does not close
    assert scanned_points("general", "planar_epr", 7, 51) == 51**4
    # a lattice one ulp off its period still closes: three heads, then K = 4
    assert abs(120 * math.radians(3.0) - 2.0 * math.pi) == math.ulp(2.0 * math.pi)
    assert scanned_points("chsh", "planar_epr", 3, 120) == 3 * 120**2 + 4 * 119
    assert kernel_points[:-1] == [120**2, 2 * 120**2, 4 * 119]
    # the table's size bounds a batch, not BLOCK_SIZE: 28 kept orbits at 30
    # degrees take batches of 144 // 28 = 5 shifts even with blocks of 7 points;
    # a head's 12 * 12 points of c and d then take blocks of 7 and 5, one head
    # at a time, and 6 of the 12 heads are scanned.  The 28 are the points at or
    # above the floor when their block came, 4 of them below the final one
    monkeypatch.setattr(search, "BLOCK_SIZE", 7)
    assert scanned_points("chsh", "planar_epr", 30, 12) == 6 * 12**2 + 28 * 11
    assert kernel_points[:-1] == [7, 5] * (6 * 12) + [28 * 5, 28 * 5, 28]


@pytest.mark.parametrize(
    "kind, degrees, scale", [("planar_epr", 5, 1.0), ("ghz_angles", 2.5, 2.0), ("vectors3d", 22.5, 1.0)]
)
def test_trig_gives_scalars_and_every_array_layout_the_same_bits(kind, degrees, scale):
    # the pair table takes its sines and cosines on an open mesh, the dense
    # reference on meshgrid blocks and evaluate_point on Python floats: a
    # reported optimum re-evaluates to the scan's bits only if np.cos and np.sin
    # round one argument one way, whatever its layout
    space = SPACES[kind]
    resolution = math.radians(degrees)
    axes = []
    for (lo, hi), wrapped in sorted(set(zip(space.bounds, space.wrap))):
        axes.append(lo + resolution * np.arange(_axis_count(lo, hi, wrapped, resolution)[0]))
    for x, y in itertools.product(axes, repeat=2):
        grid_x, grid_y = np.ix_(x, y)
        grid = scale * (grid_x - grid_y)
        flat = grid.ravel()
        strided = np.stack((flat, -flat), axis=-1)[:, 0]
        broadcast = np.broadcast_to(flat[:, None], (flat.size, 3))
        for trig in (np.cos, np.sin):
            expected = trig(flat).view(np.int64)
            assert np.array_equal(trig(grid).ravel().view(np.int64), expected)
            assert np.array_equal(trig(strided).view(np.int64), expected)
            for column in trig(broadcast).T:
                assert np.array_equal(column.view(np.int64), expected)
            scalars = np.array([trig(value) for value in flat.tolist()])
            assert np.array_equal(scalars.view(np.int64), expected)


@pytest.mark.parametrize(
    "hi, wrapped, degrees, count, closes",
    [
        (2.0 * math.pi, True, 5, 72, True),
        (2.0 * math.pi, True, 3, 120, True),  # 120 steps miss 2 pi by one ulp
        (math.pi, False, 22.5, 9, True),
        (2.0 * math.pi, True, 22.5, 16, True),
        (math.pi, True, 2.5, 72, True),
        (math.pi, False, 72, 3, False),
        (2.0 * math.pi, True, 72, 5, True),
        (math.pi, False, 28.5, 7, False),
        (2.0 * math.pi, True, 28.5, 12, False),
        (2.0 * math.pi, True, 7, 51, False),
    ],
)
def test_axis_count_gives_the_whole_steps_and_whether_they_close(
    hi, wrapped, degrees, count, closes
):
    # the reference scans above take their sizes from _axis_count, so it is
    # pinned here on its own against counts worked out by hand
    assert _axis_count(0.0, hi, wrapped, math.radians(degrees)) == (count, closes)


def test_grid_axes_stay_inside_a_clipped_interval(monkeypatch):
    # 12 degrees divides 180, but 15 of its steps end one ulp past it; the polar
    # axes end on 180 instead (the command line tests coarser lattices whose
    # count roundoff adds a whole step past 180 degrees)
    axes = []

    class Built(Exception):
        pass

    def capture(space, lattice_axes):
        axes.extend(lattice_axes)
        raise Built  # the 12 degree lattice's 1.8e9 points are not scanned

    monkeypatch.setattr(search, "_PairTable", capture)
    with pytest.raises(Built):
        grid_search("general", VECTORS, math.radians(12.0))
    for axis, (lo, hi) in zip(axes, VECTORS.bounds):
        assert lo <= axis.min() and axis.max() <= hi
    assert axes[0][-1] == math.pi


# the six correlations in field order, e_ac, e_ad, e_bc, e_bd, e_ab, e_cd, as pairs of settings
FIELD_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3))


@pytest.mark.parametrize(
    "kind, degrees",
    [
        ("planar_epr", 5), ("planar_epr", 7),
        ("ghz_angles", 2.5), ("ghz_angles", 7),
        ("vectors3d", 22.5), ("vectors3d", 29),
    ],
)
def test_the_pair_table_holds_the_bits_the_correlations_compute(kind, degrees):
    # each correlation depends on two settings only, so the lattice that varies
    # their coordinates and holds the others at index 0 reaches every value it takes
    space = SPACES[kind]
    axes = _lattice_axes(space, math.radians(degrees))
    table = search._PairTable(space, axes)
    for field, pair in enumerate(FIELD_PAIRS):
        varied = {j for setting in pair for j in space.settings[setting] if j is not None}
        indices = [np.arange(len(axis) if j in varied else 1) for j, axis in enumerate(axes)]
        dense = np.meshgrid(*indices, indexing="ij")
        expected = space.correlations(tuple(axis[i] for axis, i in zip(axes, dense)))[field]
        expected = expected.view(np.int64)
        open_mesh = table.correlations(table.flat_settings(np.ix_(*indices)))[field]
        open_mesh = np.broadcast_to(open_mesh, expected.shape)
        assert np.array_equal(open_mesh.view(np.int64), expected), (field, "open mesh")
        reversed_flat = tuple(np.ascontiguousarray(i.ravel()[::-1]) for i in dense)
        gathered = table.correlations(table.flat_settings(reversed_flat))[field][::-1]
        assert np.array_equal(gathered.view(np.int64), expected.ravel()), (field, "flat gather")


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_each_settings_declaration_meets_its_premises(kind):
    # the pair table ranges every setting over d's axes, and at None
    # correlations gives angle 0.0 and flat_settings index 0, so the
    # declaration must name each coordinate once, give d all of its
    # coordinates, and put None only where angle 0 is index 0
    space = SPACES[kind]
    *_, d = space.settings
    assert len(space.settings) == 4 and all(len(s) == len(d) for s in space.settings)
    declared = [j for setting in space.settings for j in setting if j is not None]
    assert sorted(declared) == list(range(space.n_coords))
    assert None not in d
    for owners in zip(*space.settings):  # one coordinate of every setting
        axes = [j for j in owners if j is not None]
        assert len({(space.bounds[j], space.wrap[j]) for j in axes}) == 1
        if None in owners:
            assert space.bounds[axes[0]][0] == 0.0


def _lattice_axes(space, resolution):
    return [
        np.minimum(lo + resolution * np.arange(_axis_count(lo, hi, wrapped, resolution)[0]), hi)
        for (lo, hi), wrapped in zip(space.bounds, space.wrap)
    ]


def _axis_maps(kind, sizes):
    """The (offsets, signs) on every axis of each non-identity symmetry map, in the rows' order."""
    if kind != "vectors3d":  # every angle shifted by s steps
        return [(np.full(4, s), np.ones(4, dtype=int)) for s in range(1, sizes[0])]
    polar = np.isin(np.arange(7), [0, 1, 3, 5])
    z = (np.where(polar, sizes[0] - 1, 0), np.where(polar, -1, 1))  # theta -> pi - theta
    y = (np.zeros(7, dtype=int), np.where(polar, 1, -1))  # phi -> -phi
    return [y, z, (z[0], -np.ones(7, dtype=int))]


@pytest.mark.parametrize(
    "kind, degrees",
    [("planar_epr", 5), ("ghz_angles", 2.5), ("vectors3d", 22.5), ("vectors3d", 45)],
)
def test_the_map_rows_gather_the_images_correlations_bit_for_bit(kind, degrees):
    # the kept-orbit pass reads an image's pair values through the map rows of
    # _orbits; they must be the entries table.correlations reads at the image's
    # lattice indices (offset + sign * i) % n, for every map
    space = SPACES[kind]
    resolution = math.radians(degrees)
    intervals = zip(space.bounds, space.wrap)
    closing = tuple(_axis_count(lo, hi, wrapped, resolution)[1] for (lo, hi), wrapped in intervals)
    assert all(closing)
    axes = _lattice_axes(space, resolution)
    sizes = tuple(len(axis) for axis in axes)
    table = search._PairTable(space, axes)
    maps = _axis_maps(kind, sizes)
    _, rows = search._orbits(space.settings, space.symmetries, sizes, closing)
    assert rows.shape == (len(maps), math.prod(table.shape))
    points = np.random.default_rng(0).integers(0, sizes, size=(3000, len(sizes)))
    settings = table.flat_settings(tuple(points.T))
    # a tied image's lattice index is read back from its flat settings
    indices = np.ravel_multi_index(tuple(points.T), sizes)
    assert np.array_equal(table.lattice_index(settings), indices)
    for g, (offset, sign) in enumerate(maps):
        image = (offset + sign * points) % np.array(sizes)
        expected = table.correlations(table.flat_settings(tuple(image.T)))
        got = table.correlations(tuple(rows[g].take(s) for s in settings))
        for field, (value, want) in enumerate(zip(got[:6], expected[:6])):
            assert np.array_equal(value.view(np.int64), want.view(np.int64)), (g, field)


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_every_symmetry_moves_the_settings_alike_and_fixes_the_origin(kind):
    # a symmetry acts on one coordinate of every setting; on a lattice that
    # closes every axis, each alone and all together give map rows
    space = SPACES[kind]
    degrees = 22.5 if kind == "vectors3d" else 5
    sizes = tuple(len(axis) for axis in _lattice_axes(space, math.radians(degrees)))
    closing = (True,) * len(sizes)

    def identity(n):
        return ()

    alone = [
        tuple(maps if c == k else identity for c, maps in enumerate(space.symmetries))
        for k in range(len(space.symmetries))
    ]
    for symmetries in [space.symmetries, *alone]:
        assert search._orbits(space.settings, symmetries, sizes, closing) is not None
    # a lattice on which no symmetry closes takes the plain scan
    assert search._orbits(space.settings, space.symmetries, sizes, (False,) * len(sizes)) is None
    if kind == "vectors3d":
        # turning every azimuth one step on moves a's, which is fixed at the origin
        def turn(n):
            return ((1, 1),)

        assert search._orbits(space.settings, (identity, turn), sizes, closing) is None
        _, rows = search._orbits(space.settings, (space.symmetries[0], turn), sizes, closing)
        assert len(rows) == 1  # z -> -z alone


def _wrap_kernels(monkeypatch, wrap):
    """Give grid_search wrap(kernel) for each kernel it looks up, with the kernel's bound.

    grid_search finds a kernel's bound by the kernel it holds, so the wrapper
    is entered in inequalities._PAIR_BOUNDS too, and the bound skip still runs.
    """

    def wrapped_kernel(inequality_id, family=None):
        kernel = inequality_kernel(inequality_id, family)
        wrapped = wrap(kernel)
        if kernel in inequalities._PAIR_BOUNDS:
            monkeypatch.setitem(inequalities._PAIR_BOUNDS, wrapped, inequalities._PAIR_BOUNDS[kernel])
        return wrapped

    monkeypatch.setattr(search, "inequality_kernel", wrapped_kernel)


@pytest.fixture
def kernel_points(monkeypatch):
    """The point count of every kernel call grid_search makes, in call order."""
    evaluated = []

    def counting(kernel):
        def counted(*terms):
            evaluated.append(np.broadcast(*terms).size)
            return kernel(*terms)

        return counted

    _wrap_kernels(monkeypatch, counting)
    return evaluated


# vectors3d lattices on which both reflections close: (P - 1) r spans 180 and N r 360 degrees
REFLECTING_DEGREES = (22.5, 30, 36, 45)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reflecting_a_closing_vectors3d_lattice_moves_a_margin_by_at_most_delta(data):
    # the premise that makes the reflection pass exact: z -> -z takes each polar
    # index i to P - 1 - i and y -> -y each azimuth index k to (N - k) mod N
    resolution = math.radians(data.draw(st.sampled_from(REFLECTING_DEGREES)))
    intervals = zip(VECTORS.bounds, VECTORS.wrap)
    assert all(_axis_count(lo, hi, wrapped, resolution)[1] for (lo, hi), wrapped in intervals)
    axes = _lattice_axes(VECTORS, resolution)
    index = np.array(data.draw(st.tuples(*(st.integers(0, len(axis) - 1) for axis in axes))))
    polar, azimuth = [0, 1, 3, 5], [2, 4, 6]
    z, y = index.copy(), index.copy()
    z[polar] = len(axes[0]) - 1 - index[polar]
    y[azimuth] = (len(axes[2]) - index[azimuth]) % len(axes[2])
    zy = z.copy()
    zy[azimuth] = y[azimuth]
    def point(i):
        return [axis[j] for axis, j in zip(axes, i)]

    for inequality_id in ("general", "dispersion_free", "chsh"):
        margin = evaluate_point(inequality_id, VECTORS, point(index)).margin
        for image in (z, y, zy):
            reflected = evaluate_point(inequality_id, VECTORS, point(image)).margin
            assert abs(reflected - margin) <= search._SHIFT_DELTA


@pytest.mark.parametrize("degrees, cut_block", [(45, 10000), (36, 30000)])
def test_reflection_pass_matches_the_dense_scan_bit_for_bit(monkeypatch, degrees, cut_block):
    resolution = math.radians(degrees)
    axes = _lattice_axes(VECTORS, resolution)
    sizes = tuple(len(axis) for axis in axes)
    intervals = zip(VECTORS.bounds, VECTORS.wrap)
    closing = tuple(_axis_count(lo, hi, wrapped, resolution)[1] for (lo, hi), wrapped in intervals)
    box, _ = search._orbits(VECTORS.settings, VECTORS.symmetries, sizes, closing)
    assert box[0] < len(axes[0]) and box[2] < len(axes[2])

    def first_block_axes(orbits):
        # general has no bound, so its first kernel call is an open-mesh block over all 7 axes
        calls = []

        def recording(kernel):
            def recorded(*terms):
                lhs, rhs = kernel(*terms)
                calls.append(np.ndim(lhs))
                return lhs, rhs

            return recorded

        with monkeypatch.context() as patch:
            _wrap_kernels(patch, recording)
            if not orbits:
                patch.setattr(search, "_orbits", lambda *args: None)
            grid_search("general", VECTORS, resolution)
        return calls[0]

    # at cut_block the box's blocks split another axis than the whole lattice's do
    default_block = search.BLOCK_SIZE
    monkeypatch.setattr(search, "BLOCK_SIZE", cut_block)
    assert first_block_axes(orbits=True) != first_block_axes(orbits=False)
    admitted = _admitted(VECTORS)
    scans, total = _dense_scan(admitted.values(), VECTORS, resolution)
    for inequality_id, kernel in admitted.items():
        coords = scans[kernel]
        expected = (coords, evaluate_point(inequality_id, VECTORS, coords), total)
        for block_size in (4096, cut_block, default_block):
            monkeypatch.setattr(search, "BLOCK_SIZE", block_size)
            result = grid_search(inequality_id, VECTORS, resolution)
            assert (
                result.best_params, result.best_verdict, result.evaluations
            ) == expected, (inequality_id, block_size)


def test_reflection_pass_evaluates_the_box_and_the_kept_images(kernel_points):
    # at 22.5 degrees the box theta_a <= 90, phi_b <= 180 degrees holds 5 of the
    # 9 polar and 9 of the 16 azimuth values.  dispersion_free and chsh scan its
    # 5 * 9 * 9 (a, b) heads, each the 144 * 144 points of c and d, in
    # descending bound and in groups of 1, 2, 4 and 8 heads (16 would not fit
    # in 262144 points), until no bound reaches the box maximum less 2 delta:
    # 15 heads and 47.  Then the images under the three maps (z, y and zy) of the K points
    # within 2 delta of the box maximum, in one call, as 3 K images fit in the
    # 144 * 144 entries of the pair table
    total = 9**4 * 16**3
    box = total // (9 * 16) * 5 * 9
    tail = 144**2
    resolution = math.radians(22.5)
    for inequality_id, groups, kept in (
        ("dispersion_free", (1, 2, 4, 8), 4616), ("chsh", (1, 2, 4, 8, 8, 8, 8, 8), 128)
    ):
        kernel_points.clear()
        assert grid_search(inequality_id, VECTORS, resolution).evaluations == total
        # the last call is the reported optimum's evaluate_point
        assert kernel_points[:-1] == [heads * tail for heads in groups] + [kept * 3]
    # the general bound keeps K = 540 830 points, many slices' worth, so their
    # images are evaluated slice by slice while the box is scanned
    kernel_points.clear()
    grid_search("general", VECTORS, resolution)
    assert sum(kernel_points) - 1 == box + 540830 * 3


def test_the_bounded_benchmark_scans_evaluate_the_pinned_heads(kernel_points):
    # chsh on ghz_angles at 2.5 degrees takes the rotation quotient: the
    # first-index-0 slab's heads of 72 * 72 points of c and d in groups of 1
    # and 2, then the other 71 shifts of K = 4 kept orbits in one call
    assert grid_search("chsh", SPACES["ghz_angles"], math.radians(2.5)).evaluations == 72**4
    # the last call is the reported optimum's evaluate_point
    assert kernel_points[:-1] == [5184, 10368, 284]
    # 28 to 29.5 degrees close no vectors3d axis, so chsh takes the plain scan:
    # its 7 * 7 * 12 (a, b) heads, each the 84 * 84 points of c and d, in
    # descending bound and in groups of 1, 2, 4, ..., 32 heads (64 would not
    # fit in 262144 points), until no bound reaches the floor
    groups = [7056 * 2**k for k in range(6)]
    for degrees, last in ((28, 1), (28.5, 1), (29, 2), (29.5, 2)):
        kernel_points.clear()
        result = grid_search("chsh", VECTORS, math.radians(degrees))
        assert result.evaluations == 7**4 * 12**3 == 4148928
        assert kernel_points[:-1] == groups + [225792] * last, degrees


def test_an_image_beyond_delta_over_8_hands_the_rest_to_the_plain_scan(monkeypatch):
    resolution = math.radians(45.0)
    expected = grid_search("chsh", VECTORS, resolution)
    evaluated = []

    def offsetting(kernel):
        def offset(*terms):
            lhs, rhs = kernel(*terms)
            evaluated.append(np.size(lhs))
            if np.ndim(lhs) == 1:  # the flat images of the kept points
                lhs = lhs.copy()
                lhs[0] += search._SHIFT_DELTA / 4.0
            return lhs, rhs

        return offset

    _wrap_kernels(monkeypatch, offsetting)
    assert grid_search("chsh", VECTORS, resolution) == expected
    # the box (3 * 5 of its 5 * 8 values of theta_a and phi_b) in groups of 1,
    # 2, 4, 8 and 16 (a, b) heads of the 5**2 * 8**2 points of c and d, one
    # batch of the images of K = 64 kept points under the three maps, which
    # trips; then the whole 5**4 * 8**3 lattice without the bound, in blocks
    # of four theta_a values and then the fifth, 64 000 points a value; then the
    # optimum's evaluate_point
    tail = 5**2 * 8**2
    assert evaluated[:6] == [tail, 2 * tail, 4 * tail, 8 * tail, 16 * tail, 64 * 3]
    assert evaluated[6:-1] == [256000, 64000]


def _bounded_point(space, data):
    """Coordinates drawn in space's bounds; b often at a's setting or opposite it, where E(A,B) is +-1."""
    coords = [data.draw(st.floats(lo, hi)) for lo, hi in space.bounds]
    shape = data.draw(st.sampled_from(("free", "same", "opposite")))
    if shape != "free":
        a, b = space.settings[:2]
        if len(a) == 1:  # the planar spaces: one angle per setting, period pi on ghz_angles
            half = (space.bounds[a[0]][1] - space.bounds[a[0]][0]) / 2.0
            coords[b[0]] = coords[a[0]] + (half if shape == "opposite" else 0.0)
        else:  # vectors3d: a at (theta_a, 0)
            theta, _ = a
            coords[b[0]] = coords[theta] if shape == "same" else math.pi - coords[theta]
            coords[b[1]] = 0.0 if shape == "same" else math.pi
    return coords


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_bounded_margin_is_within_epsilon_of_its_bound(data):
    # the premise of the bound skip: a computed margin is at most the bound at
    # its computed E(A,B) plus epsilon, on every space
    space = SPACES[data.draw(st.sampled_from(SPACE_KINDS))]
    coords = _bounded_point(space, data)
    e_ab = space.correlations(tuple(coords))[4]
    for inequality_id in ("dispersion_free", "chsh"):
        bound = inequalities._PAIR_BOUNDS[inequality_kernel(inequality_id)]
        margin = evaluate_point(inequality_id, space, coords).margin
        assert margin <= bound(e_ab) + search._BOUND_EPSILON


@pytest.mark.parametrize(
    "kind, degrees",
    [("planar_epr", 5), ("planar_epr", 7), ("ghz_angles", 2.5), ("ghz_angles", 90),
     ("vectors3d", 22.5), ("vectors3d", 28), ("vectors3d", 29)],
)
def test_each_bounded_lattice_optimum_is_within_epsilon_of_its_bound(kind, degrees):
    space = SPACES[kind]
    for inequality_id in ("dispersion_free", "chsh"):
        result = grid_search(inequality_id, space, math.radians(degrees))
        e_ab = space.correlations(result.best_params)[4]
        bound = inequalities._PAIR_BOUNDS[inequality_kernel(inequality_id)]
        assert math.isfinite(bound(e_ab))
        assert result.best_verdict.margin <= bound(e_ab) + search._BOUND_EPSILON


@pytest.mark.parametrize(
    "inequality_id, kind, degrees",
    [("chsh", "vectors3d", 45), ("dispersion_free", "vectors3d", 45),
     ("dispersion_free", "planar_epr", 13), ("chsh", "ghz_angles", 7)],
)
@pytest.mark.parametrize("failing_call", [0, 2])
def test_a_margin_above_its_bound_hands_the_whole_lattice_to_the_unbounded_plain_scan(
    monkeypatch, inequality_id, kind, degrees, failing_call
):
    # the reflection pass at 45 degrees on vectors3d, the plain scan at 13 and 7
    # degrees on the planar spaces; one block's last point is raised far above
    # its head's bound, in the first block or the third
    space = SPACES[kind]
    resolution = math.radians(degrees)
    kernel = inequality_kernel(inequality_id)
    scans, total = _dense_scan([kernel], space, resolution)
    coords = scans[kernel]
    expected = grid_search(inequality_id, space, resolution)
    dense = (coords, evaluate_point(inequality_id, space, coords), total)
    assert (expected.best_params, expected.best_verdict, expected.evaluations) == dense
    calls = []  # (ndim, points) of every kernel call

    def raising(kernel):
        def raised(*terms):
            lhs, rhs = kernel(*terms)
            if len(calls) == failing_call:
                lhs = lhs.copy()
                lhs.flat[-1] += 100.0
            calls.append((np.ndim(lhs), np.size(lhs)))
            return lhs, rhs

        return raised

    _wrap_kernels(monkeypatch, raising)
    assert grid_search(inequality_id, space, resolution) == expected
    assert calls[failing_call][0] > 1  # an open-mesh block
    # the open-mesh blocks after it cover the whole lattice; the last call is
    # the reported optimum's evaluate_point
    assert all(ndim > 1 for ndim, _ in calls[failing_call + 1 : -1])
    assert sum(size for _, size in calls[failing_call + 1 : -1]) == total


def test_a_premise_failing_after_a_mid_box_slice_hands_the_rest_to_the_plain_scan(monkeypatch):
    # with blocks of 4096 points the 36 degree general scan images its kept
    # points in slices of the pair table's 60 * 60 = 3600 entries while it
    # scans the box, one map per kernel call; the first image of the second
    # slice is offset past delta / 8
    resolution = math.radians(36.0)
    kernel = inequality_kernel("general")
    scans, total = _dense_scan([kernel], VECTORS, resolution)
    coords = scans[kernel]
    box = total // (6 * 10) * 3 * 6  # theta_a <= 90 and phi_b <= 180 degrees
    monkeypatch.setattr(search, "BLOCK_SIZE", 4096)
    expected = grid_search("general", VECTORS, resolution)
    dense = (coords, evaluate_point("general", VECTORS, coords), total)
    assert (expected.best_params, expected.best_verdict, expected.evaluations) == dense
    calls = []  # (ndim, points) of every kernel call

    def offsetting(kernel):
        def offset(*terms):
            lhs, rhs = kernel(*terms)
            calls.append((np.ndim(lhs), np.size(lhs)))
            first_of_second_slice = [dim for dim, _ in calls].count(1) == 4
            if calls[-1][0] == 1 and first_of_second_slice:
                lhs = lhs.copy()
                lhs[0] += search._SHIFT_DELTA / 4.0
            return lhs, rhs

        return offset

    _wrap_kernels(monkeypatch, offsetting)
    assert grid_search("general", VECTORS, resolution) == expected
    # the first slice's three maps, then the second slice's first map
    images = [k for k, (dim, _) in enumerate(calls) if dim == 1]
    assert [calls[k][1] for k in images] == [3600] * 4
    # the pass stopped partway through the box; the open-mesh blocks then
    # cover the whole lattice, and the last call is the optimum's evaluate_point
    assert sum(size for dim, size in calls[: images[-1]] if dim > 1) < box
    assert all(dim > 1 for dim, _ in calls[images[-1] + 1 : -1])
    assert sum(size for _, size in calls[images[-1] + 1 : -1]) == total


def test_the_kept_orbit_pass_evaluates_at_most_the_group_order_times_the_box(monkeypatch):
    # general at 45 degrees on vectors3d: the box theta_a <= 90, phi_b <= 180
    # degrees holds 3 of the 5 polar and 5 of the 8 azimuth values, 120 000 of
    # the 320 000 points, and the group of z -> -z and y -> -y has 4 maps.  One
    # pass scans the box and images each of its K = 24 338 kept points under
    # the three non-identity maps, within the 4 * 120 000 points bounded
    # before the scan starts
    resolution = math.radians(45.0)
    kernel = inequality_kernel("general")
    scans, total = _dense_scan([kernel], VECTORS, resolution)
    coords = scans[kernel]
    box = total // (5 * 8) * 3 * 5
    passes = []
    scan = search._lattice_maximum

    def counted_pass(*args, **kwargs):
        passes.append(args)
        return scan(*args, **kwargs)

    calls = []  # (ndim, points) of every kernel call

    def recording(kernel):
        def recorded(*terms):
            lhs, rhs = kernel(*terms)
            calls.append((np.ndim(lhs), np.size(lhs)))
            return lhs, rhs

        return recorded

    monkeypatch.setattr(search, "_lattice_maximum", counted_pass)
    _wrap_kernels(monkeypatch, recording)
    result = grid_search("general", VECTORS, resolution)
    assert (result.best_params, result.best_verdict, result.evaluations) == (
        coords, evaluate_point("general", VECTORS, coords), total
    )
    assert len(passes) == 1
    # the last call is the reported optimum's evaluate_point
    assert sum(size for dim, size in calls[:-1] if dim > 1) == box == 120000
    assert sum(size for dim, size in calls[:-1] if dim == 1) == 3 * 24338
    assert sum(size for _, size in calls[:-1]) <= 4 * box


def test_the_reflection_pass_holds_at_most_a_block_of_kept_points_beyond_the_plain_scan(
    monkeypatch,
):
    # the general bound keeps K = 540 830 points at 22.5 degrees, and the pass
    # images them slice by slice during the box instead of holding them all:
    # its traced peak stays within the plain scan's plus one block's kept
    # points, a position and a margin of 8 bytes each
    resolution = math.radians(22.5)

    def traced_peak():
        tracemalloc.start()
        try:
            grid_search("general", VECTORS, resolution)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kept_orbits = traced_peak()
    monkeypatch.setattr(search, "_orbits", lambda *args: None)
    assert kept_orbits <= traced_peak() + 16 * search.BLOCK_SIZE


def test_grid_lex_smallest_tie_break():
    # chsh on the 90 degree lattice peaks at exactly 2.0 on many points;
    # the scan must return the lexicographically first of the exact ties
    resolution = math.pi / 2.0
    result = grid_search("chsh", PLANAR, resolution)
    axis = [i * resolution for i in range(4)]
    best_margin = -math.inf
    ties = []
    for coords in itertools.product(axis, repeat=4):
        margin = evaluate_point("chsh", PLANAR, coords).margin
        if margin > best_margin:
            best_margin = margin
            ties = [coords]
        elif margin == best_margin:
            ties.append(coords)
    assert len(ties) > 1
    assert result.best_params == pytest.approx(ties[0], abs=1e-15)
    assert result.best_verdict.margin == best_margin


def test_grid_chsh_finds_tsirelson_value_on_45_degree_lattice():
    result = grid_search("chsh", PLANAR, math.radians(45.0))
    assert result.best_verdict.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_grid_validates_arguments():
    with pytest.raises(ValueError):
        grid_search("general", PLANAR, 0.0)
    with pytest.raises(ValueError):
        grid_search("general", PLANAR, 10.0)  # coarser than the axis span
    # lattices beyond the size limit are refused before any array is built:
    # vectors3d at 5 degrees has 6.995e11 points, and a subnormal resolution
    # has a point count no float can hold
    with pytest.raises(ValueError, match="699526844928 lattice points"):
        grid_search("general", VECTORS, math.radians(5.0))
    with pytest.raises(ValueError, match="lattice points"):
        grid_search("general", PLANAR, math.radians(1e-320))
    with pytest.raises(ValueError):
        grid_search("bogus", PLANAR, 1.0)


def test_refine_never_loses_margin():
    start = (0.7, 2.4, 1.5, 0.1)
    before = evaluate_point("chsh", PLANAR, start).margin
    result = refine("chsh", PLANAR, start, 0.2, 1e-4)
    assert result.best_verdict.margin >= before
    assert result.evaluations >= 1


def test_refine_polishes_grid_optimum_toward_tsirelson():
    grid = grid_search("chsh", PLANAR, math.radians(30.0))
    result = refine("chsh", PLANAR, grid.best_params, math.radians(15.0), 1e-7)
    assert result.best_verdict.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


def test_refine_with_step_at_or_below_floor_returns_start():
    start = (0.5, 0.5, 0.5, 0.5)
    result = refine("general", PLANAR, start, 1e-5, 1e-5)
    assert result.best_params == start
    assert result.evaluations == 1


def test_refine_validates_arguments():
    start = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        refine("general", PLANAR, start, -0.1, 1e-3)
    with pytest.raises(ValueError):
        refine("general", PLANAR, (9.0, 0.0, 0.0, 0.0), 0.1, 1e-3)


def test_refine_wraps_around_periodic_axes():
    # optimum sits across the 0/2pi seam from the start
    start = (6.2, 3.0, 0.1, 0.2)
    result = refine("chsh", PLANAR, start, 0.3, 1e-6)
    for value, (lo, hi) in zip(result.best_params, PLANAR.bounds):
        assert lo <= value < hi or value == pytest.approx(hi)


def _reference_refine(inequality_id, space, start, initial_step, min_step):
    """The compass ascent as a plain nested loop, reading the module's cap and shrink."""
    current = tuple(float(v) for v in start)
    verdict = evaluate_point(inequality_id, space, current)
    evaluations = 1
    if initial_step <= min_step:
        return current, verdict, evaluations
    step = initial_step
    while step >= min_step:
        moves = 0
        improved = True
        while improved and moves < search.MAX_MOVES_PER_LEVEL:
            improved = False
            for axis in range(space.n_coords):
                for delta in (step, -step):
                    candidate = search._move(space, current, axis, delta)
                    if candidate == current:
                        continue
                    probe = evaluate_point(inequality_id, space, candidate)
                    evaluations += 1
                    if probe.margin > verdict.margin:
                        current, verdict = candidate, probe
                        moves += 1
                        improved = True
                        break
                if improved:
                    break
        step *= search.REFINE_SHRINK
    return current, verdict, evaluations


@pytest.mark.parametrize("cap", [search.MAX_MOVES_PER_LEVEL, 3, 1])
@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_refine_matches_the_reference_loop(monkeypatch, kind, cap):
    monkeypatch.setattr(search, "MAX_MOVES_PER_LEVEL", cap)
    space = SPACES[kind]
    rng = np.random.default_rng(11)
    starts = [tuple(rng.uniform(lo, hi) for lo, hi in space.bounds) for _ in range(3)]
    # clipped coordinates pinned to their bounds, where the outward probe is a no-op
    pinned = zip(space.bounds, space.wrap)
    starts.append(tuple(lo if wrapped else hi for (lo, hi), wrapped in pinned))
    starts.append(tuple(lo for lo, _ in space.bounds))
    for inequality_id in ("general", "dispersion_free", "chsh", f"{space.family}_general"):
        for start in starts:
            result = refine(inequality_id, space, start, 0.4, 0.01)
            expected = _reference_refine(inequality_id, space, start, 0.4, 0.01)
            assert (result.best_params, result.best_verdict, result.evaluations) == expected


def test_sweep_row_values_match_point_evaluations():
    base = (0.4, 1.0, 2.0, 3.0)
    rows = sweep("general", PLANAR, base, 2, (0.0, math.pi), 9)
    assert len(rows) == 9
    coords = np.linspace(0.0, math.pi, 9)
    for (coord, lhs, rhs, margin), expected_coord in zip(rows, coords):
        assert coord == pytest.approx(expected_coord, abs=1e-15)
        point = base[:2] + (coord,) + base[3:]
        verdict = evaluate_point("general", PLANAR, point)
        assert lhs == pytest.approx(verdict.lhs, abs=1e-12)
        assert rhs == pytest.approx(verdict.rhs, abs=1e-12)
        assert margin == pytest.approx(verdict.margin, abs=1e-12)


def test_sweep_handles_constant_rhs_forms():
    rows = sweep("chsh", PLANAR, (0.0, 1.0, 2.0, 3.0), 0, (0.0, 1.0), 5)
    assert all(rhs == 2.0 for _, _, rhs, _ in rows)
    rows = sweep("ghz_dispersion_free", GHZ, (0.1, 0.2, 0.3, 0.4), 1, (0.0, 1.0), 4)
    assert all(rhs == 0.0 for _, _, rhs, _ in rows)


def test_sweep_validates_arguments():
    base = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, base, 5, (0.0, 1.0), 4)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, base, 0, (0.0, 1.0), 1)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, base, 0, (1.0, 1.0), 4)
    with pytest.raises(ValueError, match="invalid sweep interval"):
        sweep("general", PLANAR, base, 0, (1e308, -1e308), 4)
    with pytest.raises(ValueError):
        sweep("general", PLANAR, (0.0, 0.0), 0, (0.0, 1.0), 4)


def test_vectors3d_grid_search_runs_at_coarse_resolution():
    # 7 axes at 90 degrees stays desk scale and exercises the non-planar path
    result = grid_search("general", VECTORS, math.pi / 2.0)
    assert result.best_verdict.margin <= 1e-9
    assert result.evaluations > 0

"""Lidar-to-sensor-grid conversion and grid traversal."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evigrid import frames
from evigrid.dst import MassFunction, combine_dempster
from evigrid.grid import GridSpec
from evigrid.sensor import (LidarScan, Pose, SensorGridParams, build_sg,
                            normalize_heading, traverse_ray)
from evigrid.simulator import SensorSpec, simulate_scan
from oracles import (cell_mass, scan_of, sensor_counts_oracle, sensor_merge_oracle,
                     traverse_ray_oracle)

PARAMS = SensorGridParams(free_weight=0.7, occupied_weight=0.8)


class TestPose:
    def test_heading_normalized(self):
        assert Pose(0, 0, 3 * math.pi).heading == pytest.approx(math.pi)
        assert Pose(0, 0, -math.pi).heading == pytest.approx(math.pi)
        assert Pose(0, 0, 2 * math.pi).heading == pytest.approx(0.0)

    def test_wrap_range(self):
        for h in np.linspace(-10, 10, 101):
            w = normalize_heading(h)
            assert -math.pi < w <= math.pi

    @pytest.mark.parametrize("x, y, heading", [
        (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf),
        (0.0, 0.0, math.nan)])
    def test_rejects_non_finite(self, x, y, heading):
        with pytest.raises(ValueError, match="finite"):
            Pose(x, y, heading)


class TestLidarScan:
    def test_hit_range_validated(self):
        with pytest.raises(ValueError):
            scan_of(((0.0, 25.0, True),), max_range=20.0)
        with pytest.raises(ValueError):
            scan_of(((0.0, 0.0, True),), max_range=20.0)

    def test_non_hit_range_is_max(self):
        with pytest.raises(ValueError):
            scan_of(((0.0, 10.0, False),), max_range=20.0)

    @pytest.mark.parametrize("beam, max_range", [
        ((0.0, math.inf, False), math.inf),
        ((0.0, 5.0, True), math.nan),
        ((math.nan, 5.0, True), 20.0),
        ((math.inf, 20.0, False), 20.0),
        ((0.0, math.nan, True), 20.0),
        ((0.0, math.nan, False), 20.0)])
    def test_rejects_non_finite(self, beam, max_range):
        with pytest.raises(ValueError):
            scan_of((beam,), max_range=max_range)


    @pytest.mark.parametrize("k", [0, 540, 1080])
    @pytest.mark.parametrize("bad, message", [
        ((math.nan, 5.0, True), "bearing nan is not finite"),
        ((math.inf, 6.0, False), "bearing inf is not finite"),
        ((0.0, 7.0, True), "hit range 7.0 outside (0, max_range]"),
        ((0.0, 0.0, True), "hit range 0.0 outside (0, max_range]"),
        ((0.0, math.nan, True), "hit range nan outside (0, max_range]"),
        ((0.0, 5.0, False), "non-hit beams must carry range = max_range"),
        ((0.0, 5, 0), "non-hit beams must carry range = max_range"),
        ((0.0, math.inf, False), "non-hit beams must carry range = max_range")])
    def test_names_the_first_bad_beam_of_many(self, k, bad, message):
        """The columns are checked at once; a bad beam is named by the
        per-beam checks, the first one when there are two."""
        beams = [(0.001 * i, 5.0, True) if i % 3 else (0.001 * i, 6.0, False)
                 for i in range(1081)]
        beams[k] = bad
        if k < 1080:
            beams[1080] = (math.nan, 5.0, True)
        with pytest.raises(ValueError, match=f"^beam {k}: {re.escape(message)}$"):
            scan_of(beams, 6.0)

    def test_columns_hold_the_beams(self):
        scan = scan_of([(0.5, 5.0, True), (1, 6, False), (-0.25, 6.0, False)], 6)
        assert scan.columns.tolist() == [[0.5, 1.0, -0.25], [5.0, 6.0, 6.0], [1.0, 0.0, 0.0]]
        again = LidarScan(scan.columns[:, ::2], 6.0)
        assert again.columns.tolist() == [[0.5, -0.25], [5.0, 6.0], [1.0, 0.0]]
        assert LidarScan(np.empty((3, 0)), 6.0).columns.shape == (3, 0)
        assert not scan.columns.flags.writeable and not again.columns.flags.writeable
        assert again == scan_of([(0.5, 5.0, True), (-0.25, 6.0, False)], 6.0)

    def test_columns_in_one_array(self):
        columns = np.array([[0.5, 1.0], [5.0, 6.0], [1.0, 0.0]])
        scan = LidarScan(columns, 6.0)
        assert scan == scan_of([(0.5, 5.0, True), (1.0, 6.0, False)], 6.0)
        columns[1, 0] = 7.0
        assert scan.columns[1, 0] == 5.0    # the scan holds its own copy
        with pytest.raises(ValueError, match=r"^beam 0: hit range 7\.0 outside"):
            LidarScan(columns, 6.0)
        with pytest.raises(ValueError, match=r"shape \(3, beams\), got \(2, 2\)"):
            LidarScan(columns[:2], 6.0)
        # only an array: beams as triples, even three of them, are not columns
        with pytest.raises(ValueError, match=r"shape \(3, beams\), got tuple"):
            LidarScan(((0.5, 5.0, True), (1.0, 6.0, False), (0.0, 6.0, False)), 6.0)


def ray_cells(spec, cells, ray=0):
    """The (i, j) cells of one ray of a batched traversal, in order."""
    return [(c % spec.width, c // spec.width) for c in cells[cells[:, 0] == ray, 1].tolist()]


def traverse_one(spec, x0, y0, dx, dy, length):
    return ray_cells(spec, traverse_ray(spec, x0, y0, np.array([dx]), np.array([dy]),
                                        np.array([length])))


class TestTraverseRay:
    SPEC = GridSpec(0.0, 0.0, 0.5, 20, 20)

    def test_axis_aligned(self):
        cells = traverse_one(self.SPEC, 0.25, 0.25, 1.0, 0.0, 3.0)
        assert cells == [(i, 0) for i in range(7)]  # entry of (7,0) is at 3.25

    def test_starts_outside(self):
        cells = traverse_one(self.SPEC, -1.0, 0.25, 1.0, 0.0, 2.0)
        assert cells == [(0, 0), (1, 0)]  # enters at t=1, stops before t=2

    def test_misses_grid(self):
        assert traverse_one(self.SPEC, -1.0, -1.0, -1.0, 0.0, 10.0) == []

    def test_diagonal(self):
        cells = traverse_one(self.SPEC, 0.25, 0.25, math.sqrt(0.5), math.sqrt(0.5), 1.4)
        assert cells[0] == (0, 0)
        assert cells[-1][0] == cells[-1][1]  # stays on the diagonal corridor
        # consecutive cells differ by a single-axis or exact-corner step
        for (i1, j1), (i2, j2) in zip(cells, cells[1:]):
            assert abs(i2 - i1) <= 1 and abs(j2 - j1) <= 1


SPECS = [GridSpec(0.0, 0.0, 0.5, 20, 20), GridSpec(-3.25, 7.5, 0.125, 37, 11),
         GridSpec(100.0, -50.0, 1.0, 5, 64)]
DIAG = math.sqrt(0.5)
# exact zero components of both signs, and 45-degree rays through cell corners
AXIS_AND_CORNER_DIRECTIONS = [
    (1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, 1.0),
    (0.0, -1.0), (-0.0, -1.0), (DIAG, DIAG), (DIAG, -DIAG), (-DIAG, DIAG), (-DIAG, -DIAG)]


def origins(spec, rng):
    """Ray origins on the lattice, on cell centres and outside the grid."""
    cs = spec.cell_size
    lattice = [(spec.origin_east + i * cs, spec.origin_north + j * cs)
               for i, j in ((0, 0), (spec.width, spec.height), (1, spec.height // 2),
                            (spec.width // 2, 3))]
    centres = [tuple(map(float, spec.cell_centers(int(rng.integers(spec.width)),
                                                  int(rng.integers(spec.height)))))
               for _ in range(3)]
    outside = [(spec.origin_east - 2.5 * cs, spec.origin_north + 0.5 * spec.height * cs),
               (spec.origin_east + (spec.width + 3) * cs, spec.origin_north - 4 * cs),
               (spec.origin_east - 1.0 * cs, spec.origin_north - 1.0 * cs)]
    return lattice + centres + outside


def assert_matches_oracle(spec, x0, y0, dx, dy, length):
    cells = traverse_ray(spec, x0, y0, dx, dy, length)
    total = 0
    for k in range(len(dx)):
        expect = traverse_ray_oracle(spec, x0, y0, float(dx[k]), float(dy[k]), float(length[k]))
        assert ray_cells(spec, cells, k) == expect, (x0, y0, dx[k], dy[k], length[k])
        total += len(expect)
    # no row outside the rays checked above
    assert cells.shape == (total, 2) and cells.dtype == np.intp


@pytest.mark.parametrize("spec", SPECS, ids=["square", "offset_fine", "tall_coarse"])
class TestBatchedTraversal:
    """The batched traversal against the scalar oracle, cell for cell."""

    def test_random_fans(self, spec):
        rng = np.random.default_rng(11)
        extent = max(spec.width, spec.height) * spec.cell_size
        for x0, y0 in origins(spec, rng):
            angles = rng.uniform(-math.pi, math.pi, 200).tolist()
            dx = np.array([math.cos(a) for a in angles])
            dy = np.array([math.sin(a) for a in angles])
            assert_matches_oracle(spec, x0, y0, dx, dy, rng.uniform(0.01, 1.5 * extent, 200))

    def test_axis_and_corner_rays(self, spec):
        rng = np.random.default_rng(12)
        dx, dy = np.array(AXIS_AND_CORNER_DIRECTIONS).T
        extent = max(spec.width, spec.height) * spec.cell_size
        for x0, y0 in origins(spec, rng):
            assert_matches_oracle(spec, x0, y0, dx, dy, np.full(len(dx), 2.0 * extent))
        # the 45-degree rays from a lattice point step diagonally through corners
        cells = traverse_one(spec, spec.origin_east, spec.origin_north, DIAG, DIAG,
                             3.0 * spec.cell_size)
        assert cells == [(0, 0), (1, 1), (2, 2)]

    def test_subnormal_direction_components(self, spec):
        # 1/d overflows to inf, as in the scalar float arithmetic
        tiny = 1.1125369292536007e-308
        dx = np.array([1.0, -1.0, tiny, -tiny, 5e-324])
        dy = np.array([tiny, -tiny, 1.0, -1.0, -1.0])
        for x0, y0 in origins(spec, np.random.default_rng(14)):
            assert_matches_oracle(spec, x0, y0, dx, dy, np.full(len(dx), 8.0))

    def test_lengths_ending_on_cell_boundaries(self, spec):
        cs = spec.cell_size
        dx, dy = np.array(AXIS_AND_CORNER_DIRECTIONS[:8]).T
        for x0, y0, offset in ((spec.origin_east + 2 * cs, spec.origin_north + 2 * cs, 0.0),
                               (*map(float, spec.cell_centers(2, 2)), 0.5)):
            for steps in (1, 2, 3):
                length = np.full(len(dx), (steps + offset) * cs)
                assert_matches_oracle(spec, x0, y0, dx, dy, length)
        # along +x from a lattice point, a ray of k cells enters exactly k
        assert len(traverse_one(spec, spec.origin_east, spec.origin_north + 0.5 * cs,
                                1.0, 0.0, 3 * cs)) == 3

    def test_hit_cells_on_boundaries_follow_world_to_index(self, spec):
        # hit points on an upper cell boundary and on the grid's outer edge
        cs, (xc, yc) = spec.cell_size, map(float, spec.cell_centers(0, 1))
        beams, ends = [], []
        for bearing, end in ((0.0, (spec.origin_east + 3 * cs, yc)),
                             (0.0, (spec.origin_east + spec.width * cs, yc)),
                             (math.pi / 2, (xc, spec.origin_north + 2 * cs)),
                             (math.pi / 2, (xc, spec.origin_north + spec.height * cs))):
            beams.append((bearing, math.dist((xc, yc), end), True))
            ends.append(end)
        scan = scan_of(beams, max_range=1e3)
        pose = Pose(xc, yc, 0.0)
        grid = build_sg(scan, pose, spec, PARAMS)
        n_free, n_hit = sensor_counts_oracle(scan, pose, spec)
        # the upper boundary belongs to the higher-index cell, the outer edge
        # to the last cell
        hits = [(3, 1), (spec.width - 1, 1), (0, 2), (0, spec.height - 1)]
        assert [int(spec.world_to_index(*end)) for end in ends] == [j * spec.width + i
                                                                     for i, j in hits]
        for hit in hits:
            assert cell_mass(grid, *hit)["O"] > 0.0
        assert n_free[1, spec.width - 1] == 0 and cell_mass(grid, spec.width - 1, 1)["F"] == 0.0
        assert_counts(grid, n_free, n_hit)

    def test_sensor_grid_matches_counts(self, spec):
        rng = np.random.default_rng(13)
        for x0, y0 in origins(spec, rng)[::2]:
            bearings = np.linspace(-math.pi, math.pi, 90, endpoint=False).tolist()
            max_range = max(spec.width, spec.height) * spec.cell_size
            ranges = rng.uniform(0.05, max_range, len(bearings)).tolist()
            beams = tuple((b, r, True) if r < 0.8 * max_range else (b, max_range, False)
                          for b, r in zip(bearings, ranges))
            scan, pose = scan_of(beams, max_range), Pose(x0, y0, float(rng.uniform(-3, 3)))
            grid = build_sg(scan, pose, spec, PARAMS)
            assert_counts(grid, *sensor_counts_oracle(scan, pose, spec))

    def test_empty_scan_and_missing_fan_are_vacuous(self, spec):
        assert traverse_ray(spec, 0.0, 0.0, np.empty(0), np.empty(0), np.empty(0)).shape == (0, 2)
        omega = frames.SENSOR_FRAME.omega
        pose = Pose(spec.origin_east, spec.origin_north, 0.0)
        grid = build_sg(scan_of((), 20.0), pose, spec, PARAMS)
        assert (grid.masses[:, :, omega] == 1.0).all()
        # a fan facing away from the grid, from a pose south-west of it
        beams = tuple((b, 5.0, True) for b in np.linspace(-2.8, -1.9, 31).tolist())
        pose = Pose(spec.origin_east - 1.0, spec.origin_north - 1.0, 0.0)
        grid = build_sg(scan_of(beams, 20.0), pose, spec, PARAMS)
        assert (grid.masses[:, :, omega] == 1.0).all()


# cos and sin of the same 45-degree angle, one ulp apart
COS_45, SIN_45 = math.cos(math.pi / 4), math.sin(math.pi / 4)
SUBNORMALS = (5e-324, 1.1125369292536007e-308, 1e-310)


@st.composite
def directions(draw):
    """Random angles, the axes with zeros of both signs, 45-degree rays whose
    cos and sin differ in the last bit, and subnormal components."""
    kind = draw(st.sampled_from(["angle", "axis", "diagonal", "subnormal"]))
    if kind == "angle":
        angle = draw(st.floats(-math.pi, math.pi))
        return math.cos(angle), math.sin(angle)
    if kind == "axis":
        return draw(st.sampled_from(AXIS_AND_CORNER_DIRECTIONS[:8]))
    big, small = (COS_45, SIN_45) if kind == "diagonal" else (1.0, draw(st.sampled_from(SUBNORMALS)))
    sx, sy = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([1.0, -1.0]))
    return (sx * big, sy * small) if draw(st.booleans()) else (sx * small, sy * big)


@st.composite
def ray_fans(draw):
    """A grid from 1x1 and up to 8 rays from one origin on a lattice point,
    on a cell centre or outside the grid; lengths at random or ending on a
    cell boundary, as near as the floats allow."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cs = draw(st.sampled_from([0.125, 0.1, 0.3, 1.0, 7.0]))
    ox, oy = draw(st.sampled_from([0.0, -3.25, 0.1, 100.03])), draw(st.sampled_from([0.0, 7.5, -0.7]))
    spec = GridSpec(ox, oy, cs, width, height)
    where = draw(st.sampled_from(["lattice", "centre", "outside"]))
    i, j = draw(st.integers(0, width)), draw(st.integers(0, height))
    if where == "lattice":
        x0, y0 = ox + i * cs, oy + j * cs
    elif where == "centre":
        x0, y0 = map(float, spec.cell_centers(min(i, width - 1), min(j, height - 1)))
    else:
        fx = draw(st.sampled_from([-2.5, -1.0, -0.25, width + 0.5, width + 3.0]))
        x0, y0 = ox + fx * cs, oy + draw(st.floats(-3.0, height + 3.0)) * cs
    rays = []
    for dx, dy in draw(st.lists(directions(), min_size=1, max_size=8)):
        k = draw(st.integers(0, width + height))
        if draw(st.booleans()):
            length = draw(st.floats(1e-3, 2.0 * (width + height) * cs))
        elif dx != 0.0 and (ox + k * cs - x0) / dx > 0.0:
            length = (ox + k * cs - x0) / dx
        else:
            length = (k + draw(st.sampled_from([0.0, 0.5]))) * cs or cs
        rays.append((dx, dy, length))
    dx, dy, length = map(np.array, zip(*rays))
    return spec, x0, y0, dx, dy, length


@settings(max_examples=300, deadline=None)
@given(ray_fans())
def test_traversal_matches_oracle_property(fan):
    """Ray by ray and in order, the cells of the scalar traversal; the rows
    are grouped by ray in ascending order, and no ray enters more than
    width + height - 1 cells."""
    spec, x0, y0, dx, dy, length = fan
    cells = traverse_ray(spec, x0, y0, dx, dy, length)
    assert (np.diff(cells[:, 0]) >= 0).all()
    assert_matches_oracle(spec, x0, y0, dx, dy, length)
    assert np.bincount(cells[:, 0], minlength=len(dx)).max() <= spec.width + spec.height - 1


@pytest.mark.parametrize("width, height", [(1, 1), (1, 7), (9, 1), (5, 5), (37, 11)])
def test_a_ray_enters_at_most_width_plus_height_minus_one_cells(width, height):
    """A segment crosses each of the width - 1 inner vertical and height - 1
    inner horizontal grid lines at most once, and every cell it enters after
    its first needs such a crossing, a corner crossing two lines at once:
    at most width + height - 1 cells.  A ray from near one corner to near the
    opposite one, through no lattice point, enters exactly that many."""
    spec = GridSpec(0.0, 0.0, 1.0, width, height)
    x0, y0 = 0.1234567, 0.0
    dx, dy = width - 2 * x0, float(height)
    norm = math.hypot(dx, dy)
    cells = traverse_ray(spec, x0, y0, np.array([dx / norm]), np.array([dy / norm]),
                         np.array([2.0 * norm]))
    assert len(cells) == width + height - 1
    assert ray_cells(spec, cells) == traverse_ray_oracle(spec, x0, y0, dx / norm, dy / norm,
                                                         2.0 * norm)


@pytest.mark.parametrize("dx", [5e-324, -5e-324, -1e-310, 0.0])
def test_component_with_infinite_spacing_does_not_move(dx):
    """A start a few ulps past the boundary that a subnormal dx moves
    towards: cs / |dx| overflows to inf, so the ray moves along y only, as
    for dx = 0, and crosses rows 2-4 of column 459."""
    spec = GridSpec(-15.044045342610389, 0.0, 0.1, 600, 5)
    x0, y0 = 30.855954657389614, 0.25
    expect = [(459, 2), (459, 3), (459, 4)]
    assert traverse_ray_oracle(spec, x0, y0, dx, 1.0, 0.3) == expect
    assert traverse_one(spec, x0, y0, dx, 1.0, 0.3) == expect


@pytest.mark.parametrize("beam_count, fov", [(1, 0.0), (1, 2 * math.pi), (5, 0.0),
                                             (91, 2 * math.pi)])
def test_sensor_grid_matches_counts_at_extreme_fans(beam_count, fov):
    """One beam, a zero field of view (every beam on one bearing) and a full
    turn, whose first and last beams share a direction up to the sign of a
    tiny sine, against the beam-by-beam counts."""
    spec = GridSpec(-1.0, 0.5, 0.25, 23, 17)
    box = [(-0.5, 1.0), (4.0, 1.0), (4.0, 4.5), (-0.5, 4.5)]
    segments = np.array([[*a, *b] for a, b in zip(box, box[1:] + box[:1])])
    sensor = SensorSpec(beam_count=beam_count, fov=fov, max_range=3.0)
    for pose in (Pose(1.3, 2.6, 0.4), Pose(-1.0, 0.5, math.pi), Pose(0.75, 1.25, -math.pi / 2)):
        scan = simulate_scan(segments, pose, sensor)
        assert scan.columns.shape == (3, beam_count)
        assert_counts(build_sg(scan, pose, spec, PARAMS), *sensor_counts_oracle(scan, pose, spec))


def assert_counts(grid, n_free, n_hit):
    """Each cell's masses are the exact Dempster merge of its beam counts."""
    expect = {}
    for counts in set(zip(n_free.ravel().tolist(), n_hit.ravel().tolist())):
        expect[counts] = [float(m) for m in sensor_merge_oracle(
            PARAMS.free_weight, PARAMS.occupied_weight, *counts)]
    want = np.array([[expect[nf, no] for nf, no in zip(row_f, row_o)]
                     for row_f, row_o in zip(n_free.tolist(), n_hit.tolist())])
    got = grid.masses[:, :, [frames.SG_FREE, frames.SG_OCCUPIED, frames.SG_OMEGA]]
    assert np.abs(got - want).max() <= 1e-12


class TestBuildSg:
    SPEC = GridSpec(0.0, 0.0, 0.5, 44, 4)

    def test_single_hit_beam(self):
        scan = scan_of(((0.0, 10.0, True),), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.0, 0.0), self.SPEC, PARAMS)
        for i in range(20):
            cell = cell_mass(grid, i, 0)
            assert cell["F"] == pytest.approx(0.7)
            assert cell["FO"] == pytest.approx(0.3)
        hit = cell_mass(grid, 20, 0)
        assert hit["O"] == pytest.approx(0.8)
        assert hit["FO"] == pytest.approx(0.2)
        # cells beyond the hit stay vacuous
        assert cell_mass(grid, 21, 0).is_vacuous()

    def test_non_hit_beam_marks_free(self):
        scan = scan_of(((0.0, 20.0, False),), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.0, 0.0), self.SPEC, PARAMS)
        for i in range(40):
            assert cell_mass(grid, i, 0)["F"] == pytest.approx(0.7)
        assert all(cell_mass(grid, i, 0)["O"] == 0.0 for i in range(self.SPEC.width))

    def test_empty_scan(self):
        grid = build_sg(scan_of((), 20.0), Pose(0, 0, 0), self.SPEC, PARAMS)
        assert (grid.masses[:, :, frames.SENSOR_FRAME.omega] == 1.0).all()

    def test_focal_sets_limited(self):
        scan = scan_of(((0.0, 5.0, True), (0.01, 5.0, True),
                          (-0.01, 20.0, False)), max_range=20.0)
        grid = build_sg(scan, Pose(0.2, 1.1, 0.0), self.SPEC, PARAMS)
        total = grid.masses.sum(axis=2)
        assert np.allclose(total, 1.0, atol=1e-9)
        assert (grid.masses[:, :, 0] == 0.0).all()

    def test_beam_order_invariance(self):
        beams = ((0.0, 9.0, True), (0.05, 20.0, False), (-0.05, 4.0, True))
        pose = Pose(0.1, 1.0, 0.0)
        a = build_sg(scan_of(beams, 20.0), pose, self.SPEC, PARAMS)
        b = build_sg(scan_of(beams[::-1], 20.0), pose, self.SPEC, PARAMS)
        assert np.array_equal(a.masses, b.masses)

    def test_merge_matches_dempster(self):
        # two beams hitting the same cell: inline merge == dst Dempster rule
        scan = scan_of(((0.0, 1.1, True), (0.0, 1.2, True)), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.25, 0.0), self.SPEC, PARAMS)
        occ = MassFunction(frames.SENSOR_FRAME, {"O": 0.8, "FO": 0.2})
        free = MassFunction(frames.SENSOR_FRAME, {"F": 0.7, "FO": 0.3})
        # first beam: free cells 0,1 then hit in cell 2; second beam: free in
        # 0,1 and hit in cell 2 as well (1.2 is still inside cell 2)
        expect_free = combine_dempster(free, free)
        expect_hit = combine_dempster(occ, occ)
        assert np.allclose(cell_mass(grid, 0, 0).masses, expect_free.masses, atol=1e-12)
        assert np.allclose(cell_mass(grid, 2, 0).masses, expect_hit.masses, atol=1e-12)

    def test_occupied_survives_crossing_free_beam(self):
        # beam A hits cell (4,0); beam B passes through the same row as free
        scan = scan_of(((0.0, 2.2, True), (0.0, 20.0, False)), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.25, 0.0), self.SPEC, PARAMS)
        cell = cell_mass(grid, 4, 0)
        occ = MassFunction(frames.SENSOR_FRAME, {"O": 0.8, "FO": 0.2})
        free = MassFunction(frames.SENSOR_FRAME, {"F": 0.7, "FO": 0.3})
        expect = combine_dempster(occ, free)
        assert np.allclose(cell.masses, expect.masses, atol=1e-12)
        assert cell["O"] > cell["F"]

    @staticmethod
    def stacked_scan(n_free, n_occupied):
        """Beams along the x axis from (0, 0.25): each hit beam ends in cell
        (2, 0), each non-hit beam crosses it; the two kinds interleave."""
        hits = [(0.0, 1.2, True)] * n_occupied
        frees = [(0.0, 20.0, False)] * n_free
        beams = [b for pair in zip(hits, frees) for b in pair]
        beams += hits[len(frees):] + frees[len(hits):]
        return scan_of(beams, max_range=20.0)

    @pytest.mark.parametrize("n_free, n_occupied", [
        (20, 20), (0, 0), (1, 0), (0, 1), (1, 1), (3, 7), (12, 2), (40, 40)])
    def test_matches_exact_dempster(self, n_free, n_occupied):
        scan = self.stacked_scan(n_free, n_occupied)
        grid = build_sg(scan, Pose(0.0, 0.25, 0.0), self.SPEC, PARAMS)
        for (i, j), counts in (((2, 0), (n_free, n_occupied)),
                               ((0, 0), (n_free + n_occupied, 0))):
            expect = sensor_merge_oracle(PARAMS.free_weight, PARAMS.occupied_weight, *counts)
            got = grid.masses[j, i][[frames.SG_FREE, frames.SG_OCCUPIED, frames.SG_OMEGA]]
            assert np.abs(got - [float(m) for m in expect]).max() <= 1e-12, (i, j)

    def test_total_conflict_leaves_cell_vacuous(self):
        # weights 1.0: a free and an occupied beam in one cell contradict
        # each other totally, so the cell carries no evidence
        params = SensorGridParams(free_weight=1.0, occupied_weight=1.0)
        grid = build_sg(self.stacked_scan(1, 1), Pose(0.0, 0.25, 0.0), self.SPEC, params)
        assert not np.isnan(grid.masses).any()
        assert cell_mass(grid, 2, 0).is_vacuous()
        assert cell_mass(grid, 0, 0)["F"] == 1.0


@pytest.mark.parametrize("params", [PARAMS, SensorGridParams(1.0, 1.0),
                                    SensorGridParams(0.0, 0.3)])
def test_palette_state_per_pair_of_counts(params):
    """``build_sg`` evaluates the closed form once per distinct pair of
    counts: its cells hold the bits of the closed form evaluated on every
    cell's counts, and its palette one state per pair."""
    spec = GridSpec(-1.0, 0.5, 0.25, 23, 17)
    rng = np.random.default_rng(29)
    bearings = np.linspace(-math.pi, math.pi, 200, endpoint=False).tolist()
    ranges = rng.uniform(0.05, 6.0, len(bearings)).tolist()
    scan = scan_of(tuple((b, r, True) if r < 5.0 else (b, 6.0, False)
                           for b, r in zip(bearings, ranges)), 6.0)
    pose = Pose(1.3, 2.6, 0.4)
    grid = build_sg(scan, pose, spec, params)
    n_free, n_hit = sensor_counts_oracle(scan, pose, spec)
    a = (1.0 - params.free_weight) ** n_free
    b = (1.0 - params.occupied_weight) ** n_hit
    norm = a + b - a * b
    want = np.zeros(grid.masses.shape)
    want[..., frames.SG_OMEGA] = 1.0
    seen = norm > 0.0
    for focal, mass in ((frames.SG_FREE, (1.0 - a) * b), (frames.SG_OCCUPIED, (1.0 - b) * a),
                        (frames.SG_OMEGA, a * b)):
        want[seen, focal] = mass[seen] / norm[seen]
    assert grid.masses.tobytes() == want.tobytes()
    assert grid.states.shape[1] == len(set(zip(n_free.ravel().tolist(),
                                               n_hit.ravel().tolist())))

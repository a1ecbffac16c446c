"""Lidar-to-sensor-grid conversion and grid traversal."""

import math

import numpy as np
import pytest

from evigrid import frames
from evigrid.dst import MassFunction, combine_dempster
from evigrid.grid import GridSpec
from evigrid.sensor import (Beam, LidarScan, Pose, SensorGridParams, build_sg,
                            normalize_heading, traverse_ray)
from oracles import sensor_merge_oracle

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
            LidarScan((Beam(0.0, 25.0, True),), max_range=20.0)
        with pytest.raises(ValueError):
            LidarScan((Beam(0.0, 0.0, True),), max_range=20.0)

    def test_non_hit_range_is_max(self):
        with pytest.raises(ValueError):
            LidarScan((Beam(0.0, 10.0, False),), max_range=20.0)

    @pytest.mark.parametrize("beam, max_range", [
        (Beam(0.0, math.inf, False), math.inf),
        (Beam(0.0, 5.0, True), math.nan),
        (Beam(math.nan, 5.0, True), 20.0),
        (Beam(math.inf, 20.0, False), 20.0),
        (Beam(0.0, math.nan, True), 20.0),
        (Beam(0.0, math.nan, False), 20.0)])
    def test_rejects_non_finite(self, beam, max_range):
        with pytest.raises(ValueError):
            LidarScan((beam,), max_range=max_range)


class TestTraverseRay:
    SPEC = GridSpec(0.0, 0.0, 0.5, 20, 20)

    def test_axis_aligned(self):
        cells = traverse_ray(self.SPEC, 0.25, 0.25, 1.0, 0.0, 3.0)
        assert cells == [(i, 0) for i in range(7)]  # entry of (7,0) is at 3.25

    def test_starts_outside(self):
        cells = traverse_ray(self.SPEC, -1.0, 0.25, 1.0, 0.0, 2.0)
        assert cells == [(0, 0), (1, 0)]  # enters at t=1, stops before t=2

    def test_misses_grid(self):
        assert traverse_ray(self.SPEC, -1.0, -1.0, -1.0, 0.0, 10.0) == []

    def test_diagonal(self):
        cells = traverse_ray(self.SPEC, 0.25, 0.25, math.sqrt(0.5), math.sqrt(0.5), 1.4)
        assert cells[0] == (0, 0)
        assert cells[-1][0] == cells[-1][1]  # stays on the diagonal corridor
        # consecutive cells differ by a single-axis or exact-corner step
        for (i1, j1), (i2, j2) in zip(cells, cells[1:]):
            assert abs(i2 - i1) <= 1 and abs(j2 - j1) <= 1


class TestBuildSg:
    SPEC = GridSpec(0.0, 0.0, 0.5, 44, 4)

    def test_single_hit_beam(self):
        scan = LidarScan((Beam(0.0, 10.0, True),), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.0, 0.0), self.SPEC, PARAMS)
        for i in range(20):
            cell = grid.cell(i, 0)
            assert cell["F"] == pytest.approx(0.7)
            assert cell["FO"] == pytest.approx(0.3)
        hit = grid.cell(20, 0)
        assert hit["O"] == pytest.approx(0.8)
        assert hit["FO"] == pytest.approx(0.2)
        # cells beyond the hit stay vacuous
        assert grid.cell(21, 0).is_vacuous()

    def test_non_hit_beam_marks_free(self):
        scan = LidarScan((Beam(0.0, 20.0, False),), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.0, 0.0), self.SPEC, PARAMS)
        for i in range(40):
            assert grid.cell(i, 0)["F"] == pytest.approx(0.7)
        assert all(grid.cell(i, 0)["O"] == 0.0 for i in range(self.SPEC.width))

    def test_empty_scan(self):
        grid = build_sg(LidarScan((), 20.0), Pose(0, 0, 0), self.SPEC, PARAMS)
        assert (grid.masses[:, :, frames.SENSOR_FRAME.omega] == 1.0).all()

    def test_focal_sets_limited(self):
        scan = LidarScan((Beam(0.0, 5.0, True), Beam(0.01, 5.0, True),
                          Beam(-0.01, 20.0, False)), max_range=20.0)
        grid = build_sg(scan, Pose(0.2, 1.1, 0.0), self.SPEC, PARAMS)
        total = grid.masses.sum(axis=2)
        assert np.allclose(total, 1.0, atol=1e-9)
        assert (grid.masses[:, :, 0] == 0.0).all()

    def test_beam_order_invariance(self):
        beams = (Beam(0.0, 9.0, True), Beam(0.05, 20.0, False), Beam(-0.05, 4.0, True))
        pose = Pose(0.1, 1.0, 0.0)
        a = build_sg(LidarScan(beams, 20.0), pose, self.SPEC, PARAMS)
        b = build_sg(LidarScan(beams[::-1], 20.0), pose, self.SPEC, PARAMS)
        assert np.array_equal(a.masses, b.masses)

    def test_merge_matches_dempster(self):
        # two beams hitting the same cell: inline merge == dst Dempster rule
        scan = LidarScan((Beam(0.0, 1.1, True), Beam(0.0, 1.2, True)), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.25, 0.0), self.SPEC, PARAMS)
        occ = MassFunction(frames.SENSOR_FRAME, {"O": 0.8, "FO": 0.2})
        free = MassFunction(frames.SENSOR_FRAME, {"F": 0.7, "FO": 0.3})
        # first beam: free cells 0,1 then hit in cell 2; second beam: free in
        # 0,1 and hit in cell 2 as well (1.2 is still inside cell 2)
        expect_free = combine_dempster(free, free)
        expect_hit = combine_dempster(occ, occ)
        assert np.allclose(grid.cell(0, 0).masses, expect_free.masses, atol=1e-12)
        assert np.allclose(grid.cell(2, 0).masses, expect_hit.masses, atol=1e-12)

    def test_occupied_survives_crossing_free_beam(self):
        # beam A hits cell (4,0); beam B passes through the same row as free
        scan = LidarScan((Beam(0.0, 2.2, True), Beam(0.0, 20.0, False)), max_range=20.0)
        grid = build_sg(scan, Pose(0.0, 0.25, 0.0), self.SPEC, PARAMS)
        cell = grid.cell(4, 0)
        occ = MassFunction(frames.SENSOR_FRAME, {"O": 0.8, "FO": 0.2})
        free = MassFunction(frames.SENSOR_FRAME, {"F": 0.7, "FO": 0.3})
        expect = combine_dempster(occ, free)
        assert np.allclose(cell.masses, expect.masses, atol=1e-12)
        assert cell["O"] > cell["F"]

    @staticmethod
    def stacked_scan(n_free, n_occupied):
        """Beams along the x axis from (0, 0.25): each hit beam ends in cell
        (2, 0), each non-hit beam crosses it; the two kinds interleave."""
        hits = [Beam(0.0, 1.2, True)] * n_occupied
        frees = [Beam(0.0, 20.0, False)] * n_free
        beams = [b for pair in zip(hits, frees) for b in pair]
        beams += hits[len(frees):] + frees[len(hits):]
        return LidarScan(tuple(beams), max_range=20.0)

    @pytest.mark.parametrize("n_free, n_occupied", [
        (20, 20), (0, 0), (1, 0), (0, 1), (1, 1), (3, 7), (12, 2), (40, 40)])
    def test_matches_exact_dempster(self, n_free, n_occupied):
        scan = self.stacked_scan(n_free, n_occupied)
        grid = build_sg(scan, Pose(0.0, 0.25, 0.0), self.SPEC, PARAMS)
        for cell, counts in (((2, 0), (n_free, n_occupied)),
                             ((0, 0), (n_free + n_occupied, 0))):
            expect = sensor_merge_oracle(PARAMS.free_weight, PARAMS.occupied_weight, *counts)
            got = grid.masses[cell][[frames.SG_FREE, frames.SG_OCCUPIED, frames.SG_OMEGA]]
            assert np.abs(got - [float(m) for m in expect]).max() <= 1e-12, cell

    def test_total_conflict_leaves_cell_vacuous(self):
        # weights 1.0: a free and an occupied beam in one cell contradict
        # each other totally, so the cell carries no evidence
        params = SensorGridParams(free_weight=1.0, occupied_weight=1.0)
        grid = build_sg(self.stacked_scan(1, 1), Pose(0.0, 0.25, 0.0), self.SPEC, params)
        assert not np.isnan(grid.masses).any()
        assert grid.cell(2, 0).is_vacuous()
        assert grid.cell(0, 0)["F"] == 1.0

"""Grid geometry, cell bookkeeping and snapshot export."""

import io

import numpy as np
import pytest

from evigrid.dst import FrameOfDiscernment, MassFunction
from evigrid.grid import (EvidentialGrid, GridSpec, PerceptionGrid,
                          mass_column_names, write_grid_csv)
from evigrid.frames import PERCEPTION_FRAME

SPEC = GridSpec(0.0, 0.0, 0.5, 4, 4)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0.0, 4, 4)
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0.5, 0, 4)

    @pytest.mark.parametrize("field, value", [
        ("origin_east", float("inf")), ("origin_north", float("-inf")),
        ("origin_north", float("nan")), ("cell_size", float("nan")),
        ("cell_size", float("inf")), ("origin_east", "0"),
        ("width", 10.5), ("height", 4.0), ("width", True), ("height", "4")])
    def test_rejects_non_finite_and_non_integer(self, field, value):
        args = {"origin_east": 0.0, "origin_north": 0.0, "cell_size": 0.5,
                "width": 4, "height": 4, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GridSpec(**args)

    def test_accepts_numpy_integers(self):
        assert GridSpec(0, 0, 0.5, np.int64(4), np.int32(3)).height == 3

    def test_world_to_cell(self):
        assert SPEC.world_to_cell(0.0, 0.0) == (0, 0)
        assert SPEC.world_to_cell(0.74, 1.26) == (1, 2)
        assert SPEC.world_to_cell(-0.1, 0.0) is None
        # upper boundary belongs to the higher-index cell ...
        assert SPEC.world_to_cell(0.5, 0.0) == (1, 0)
        # ... except on the grid's outer edge
        assert SPEC.world_to_cell(2.0, 2.0) == (3, 3)
        assert SPEC.world_to_cell(2.1, 1.0) is None

    def test_cell_center(self):
        assert SPEC.cell_center(0, 0) == (0.25, 0.25)
        assert SPEC.cell_center(2, 3) == (1.25, 1.75)
        shifted = GridSpec(100.0, 200.0, 0.5, 4, 4)
        assert shifted.cell_center(0, 0) == (100.25, 200.25)
        with pytest.raises(IndexError):
            SPEC.cell_center(4, 0)

    def test_center_roundtrip(self):
        for i in range(SPEC.width):
            for j in range(SPEC.height):
                assert SPEC.world_to_cell(*SPEC.cell_center(i, j)) == (i, j)


class TestEvidentialGrid:
    def test_starts_vacuous(self):
        grid = EvidentialGrid(SPEC, PERCEPTION_FRAME)
        for i in range(SPEC.width):
            for j in range(SPEC.height):
                assert grid.cell(i, j).is_vacuous()

    def test_perception_counter_starts_zero(self):
        pg = PerceptionGrid(SPEC, PERCEPTION_FRAME)
        assert (pg.counter == 0.0).all()

    def test_set_cell_checks_frame(self):
        grid = EvidentialGrid(SPEC, PERCEPTION_FRAME)
        wrong = MassFunction(FrameOfDiscernment(("x",)), {"x": 1.0})
        with pytest.raises(ValueError):
            grid.set_cell(0, 0, wrong)


class TestCsvExport:
    def test_header_and_shape(self):
        pg = PerceptionGrid(SPEC, PERCEPTION_FRAME)
        pg.counter[1, 2] = 0.5
        buf = io.StringIO()
        write_grid_csv(pg, buf)
        lines = buf.getvalue().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["i", "j", "x_center", "y_center"]
        assert header[-1] == "zeta"
        assert len(header) == 4 + PERCEPTION_FRAME.size + 1
        assert len(lines) == 1 + SPEC.width * SPEC.height

    def test_column_names(self):
        names = mass_column_names(PERCEPTION_FRAME)
        assert names[0] == "m_empty"
        assert names[1] == "m_F"
        assert names[-1] == "m_FIUSM"

    def test_values_roundtrip(self):
        pg = PerceptionGrid(SPEC, PERCEPTION_FRAME)
        pg.masses[1, 2] = 0.0
        pg.masses[1, 2, PERCEPTION_FRAME.mask("F")] = 0.25
        pg.masses[1, 2, PERCEPTION_FRAME.omega] = 0.75
        pg.counter[1, 2] = 0.5
        buf = io.StringIO()
        write_grid_csv(pg, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        row = next(r for r in rows if r[0] == "1" and r[1] == "2")
        assert float(row[4 + PERCEPTION_FRAME.mask("F")]) == 0.25
        assert float(row[-1]) == 0.5

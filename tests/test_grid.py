"""Grid geometry, cell bookkeeping and snapshot export."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evigrid import grid as grid_module
from evigrid.grid import EvidentialGrid, GridSpec, mass_column_names, write_grid_csv
from evigrid.frames import PERCEPTION_FRAME, SENSOR_FRAME
from oracles import cell_mass, dense_grid, write_grid_csv_oracle

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
        ("width", 10.5), ("height", 4.0), ("width", True), ("height", "4"),
        ("origin_east", True), ("origin_north", False), ("cell_size", True)])
    def test_rejects_non_finite_and_non_integer(self, field, value):
        args = {"origin_east": 0.0, "origin_north": 0.0, "cell_size": 0.5,
                "width": 4, "height": 4, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GridSpec(**args)

    def test_accepts_numpy_integers(self):
        assert GridSpec(0, 0, 0.5, np.int64(4), np.int32(3)).height == 3

    def test_world_to_index(self):
        # the flat raster index j * width + i, -1 outside the grid
        assert SPEC.world_to_index(0.0, 0.0) == 0
        assert SPEC.world_to_index(0.74, 1.26) == 2 * SPEC.width + 1
        assert SPEC.world_to_index(-0.1, 0.0) == -1
        # upper boundary belongs to the higher-index cell ...
        assert SPEC.world_to_index(0.5, 0.0) == 1
        # ... except on the grid's outer edge
        assert SPEC.world_to_index(2.0, 2.0) == 3 * SPEC.width + 3
        assert SPEC.world_to_index(2.1, 1.0) == -1

    def test_cell_centers(self):
        assert SPEC.cell_centers(0, 0) == (0.25, 0.25)
        assert SPEC.cell_centers(2, 3) == (1.25, 1.75)
        shifted = GridSpec(100.0, 200.0, 0.5, 4, 4)
        assert shifted.cell_centers(0, 0) == (100.25, 200.25)

    def test_center_roundtrip(self):
        i, j = np.meshgrid(np.arange(SPEC.width), np.arange(SPEC.height))
        assert (SPEC.world_to_index(*SPEC.cell_centers(i, j)) == j * SPEC.width + i).all()

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(-3.25, 7.5, 0.125, 37, 11)])
    def test_world_to_index_boundary_rules(self, spec):
        """Point by point, the last cell whose closed box holds the point, so
        an upper boundary belongs to the higher-index cell and the grid's
        outer edge to the last cell, and -1 outside.  On lattice points
        (upper boundaries, outer edges, corners) and points in between,
        inside and outside the grid; every coordinate here is exact in
        binary, so the box bounds round nowhere."""
        cs = spec.cell_size

        def last_cell(p, origin, n):
            holding = [k for k in range(n) if origin + k * cs <= p <= origin + (k + 1) * cs]
            return holding[-1] if holding else None

        steps = np.arange(-2, 2 * max(spec.width, spec.height) + 3) * cs / 2
        x, y = np.broadcast_arrays(spec.origin_east + steps[:, None],
                                   spec.origin_north + steps[None, :])
        index = spec.world_to_index(x, y)
        assert index.shape == x.shape and index.dtype == np.intp
        for k, xk, yk in zip(index.ravel().tolist(), x.ravel().tolist(), y.ravel().tolist()):
            i = last_cell(xk, spec.origin_east, spec.width)
            j = last_cell(yk, spec.origin_north, spec.height)
            assert k == (-1 if i is None or j is None else j * spec.width + i), (xk, yk)
        assert (index >= 0).any() and (index == -1).any()

    def test_cell_centers_element_wise(self):
        spec = GridSpec(100.0, -7.3, 0.3, 5, 3)
        xs, ys = spec.cell_centers(np.arange(spec.width)[:, None], np.arange(spec.height))
        for i in range(spec.width):
            for j in range(spec.height):
                assert (xs[i, 0], ys[j]) == spec.cell_centers(i, j)


def vacuous_masses(spec):
    """(height, width, 32) masses of vacuous cells, to be edited."""
    masses = np.zeros((spec.height, spec.width, PERCEPTION_FRAME.size))
    masses[..., PERCEPTION_FRAME.omega] = 1.0
    return masses


class TestEvidentialGrid:
    def test_starts_vacuous(self):
        # one vacuous state, which every cell holds
        grid = EvidentialGrid(SPEC, PERCEPTION_FRAME)
        assert grid.states.tolist() == np.eye(PERCEPTION_FRAME.size)[:, [-1]].tolist()
        assert grid.ids.shape == (SPEC.height, SPEC.width) and (grid.ids == 0).all()
        for i in range(SPEC.width):
            for j in range(SPEC.height):
                assert cell_mass(grid, i, j).is_vacuous()

    def test_perception_counter_starts_zero(self):
        pg = EvidentialGrid(SPEC, PERCEPTION_FRAME)
        assert pg.state_counter.tolist() == [0.0]
        assert (pg.counter == 0.0).all()

    def test_checks_shapes(self):
        states = np.eye(PERCEPTION_FRAME.size)[:, [-1]]
        ids = np.zeros((SPEC.height, SPEC.width), dtype=np.intp)
        for args in ((states[1:], ids), (states, ids[1:])):
            with pytest.raises(ValueError, match="expected 32 mass rows"):
                EvidentialGrid(SPEC, PERCEPTION_FRAME, *args)
        with pytest.raises(ValueError, match="expected 1 counters"):
            EvidentialGrid(SPEC, PERCEPTION_FRAME, states, ids, np.zeros(2))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_rejects_palette_ids_out_of_range(self, bad):
        # a negative id would silently read the last state, a high one fail
        # only when a cell is read
        spec = GridSpec(0.0, 0.0, 1.0, 3, 2)
        states = np.eye(SENSOR_FRAME.size)[:, [1, 3]]
        ids = np.array([[0, 1, bad], [1, 1, 0]])
        with pytest.raises(ValueError, match=rf"^palette id {bad} is outside \[0, 2\)$"):
            EvidentialGrid(spec, SENSOR_FRAME, states, ids)

    def test_dense_grid_rejects_swapped_arrays(self):
        spec, swapped = GridSpec(0.0, 0.0, 1.0, 3, 2), GridSpec(0.0, 0.0, 1.0, 2, 3)
        with pytest.raises(ValueError, match=r"expected masses of shape \(2, 3, 32\)"):
            dense_grid(spec, PERCEPTION_FRAME, vacuous_masses(swapped))
        with pytest.raises(ValueError, match=r"expected a counter of shape \(2, 3\)"):
            dense_grid(spec, PERCEPTION_FRAME, vacuous_masses(spec), np.zeros((3, 2)))

    def test_rejects_non_integer_ids(self):
        ids = np.zeros((SPEC.height, SPEC.width))
        with pytest.raises(ValueError, match="ids must be integers, got dtype float64"):
            EvidentialGrid(SPEC, PERCEPTION_FRAME, np.eye(PERCEPTION_FRAME.size)[:, [-1]], ids)


class TestCsvExport:
    def test_header_and_shape(self):
        counter = np.zeros((SPEC.height, SPEC.width))
        counter[2, 1] = 0.5
        pg = dense_grid(SPEC, PERCEPTION_FRAME, vacuous_masses(SPEC), counter)
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
        masses, counter = vacuous_masses(SPEC), np.zeros((SPEC.height, SPEC.width))
        masses[2, 1, PERCEPTION_FRAME.mask("F")] = 0.25
        masses[2, 1, PERCEPTION_FRAME.omega] = 0.75
        counter[2, 1] = 0.5
        pg = dense_grid(SPEC, PERCEPTION_FRAME, masses, counter)
        buf = io.StringIO()
        write_grid_csv(pg, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        row = next(r for r in rows if r[0] == "1" and r[1] == "2")
        assert float(row[4 + PERCEPTION_FRAME.mask("F")]) == 0.25
        assert float(row[-1]) == 0.5

    @pytest.mark.parametrize("with_counter", [True, False])
    def test_matches_per_cell_format(self, with_counter):
        spec = GridSpec(100.0, -7.3, 0.3, 5, 3)
        rng = np.random.default_rng(3)
        masses = rng.dirichlet(np.ones(PERCEPTION_FRAME.size), (3, 5))
        masses[0, 0] = vacuous_masses(spec)[0, 0]
        grid = dense_grid(spec, PERCEPTION_FRAME, masses,
                          rng.random((3, 5)) if with_counter else None)
        buf = io.StringIO()
        write_grid_csv(grid, buf)
        expect = []
        for j in range(spec.height):
            for i in range(spec.width):
                x, y = map(float, spec.cell_centers(i, j))
                values = [x, y] + [float(v) for v in grid.masses[j, i]] + [float(grid.counter[j, i])]
                expect.append(",".join([repr(i), repr(j)] + [repr(v) for v in values]))
        assert buf.getvalue().splitlines()[1:] == expect


def _csv(writer, grid) -> str:
    buf = io.StringIO()
    writer(grid, buf)
    return buf.getvalue()


def _grid_from_rows(spec, rows, with_counter=True):
    """A grid whose cell k in raster order holds rows[k]: 32 masses and,
    with a counter, the counter as a 33rd value."""
    cells = np.asarray(rows, dtype=float).reshape(spec.height, spec.width, -1)
    if with_counter:
        return dense_grid(spec, PERCEPTION_FRAME, cells[..., :-1], cells[..., -1])
    return dense_grid(spec, PERCEPTION_FRAME, cells)


class TestCsvMatchesOracle:
    """``write_grid_csv`` formats each distinct row once; its bytes must be
    those of formatting every cell with ``repr``."""

    SPEC = GridSpec(-3.25, 7.5, 0.125, 7, 5)

    def check(self, grid):
        assert _csv(write_grid_csv, grid) == _csv(write_grid_csv_oracle, grid)

    def random_rows(self, rng, n):
        rows = np.empty((n, PERCEPTION_FRAME.size + 1))
        rows[:, :-1] = rng.dirichlet(np.ones(PERCEPTION_FRAME.size), n)
        rows[:, -1] = rng.random(n)
        return rows

    def test_many_repeated_rows(self):
        rng = np.random.default_rng(11)
        pool = self.random_rows(rng, 3)
        grid = _grid_from_rows(self.SPEC, pool[rng.integers(0, 3, 35)])
        self.check(grid)
        lines = _csv(write_grid_csv, grid).splitlines()[1:]
        assert len({line.split(",", 4)[-1] for line in lines}) == 3

    @pytest.mark.parametrize("column", [0, 7, PERCEPTION_FRAME.size])
    def test_signed_zero_and_one_ulp_apart(self, column):
        # cells 0 and 1 differ only in the sign of a zero, cells 2 and 3 only
        # by one ulp, in one mass or in the counter
        spec = GridSpec(0.0, 0.0, 0.5, 4, 1)
        base = self.random_rows(np.random.default_rng(12), 1)[0]
        rows = np.tile(base, (4, 1))
        rows[0, column] = 0.0
        rows[1, column] = -0.0
        rows[3, column] = np.nextafter(rows[2, column], 1.0)
        grid = _grid_from_rows(spec, rows)
        self.check(grid)
        lines = [line.split(",") for line in _csv(write_grid_csv, grid).splitlines()[1:]]
        assert (lines[0][4 + column], lines[1][4 + column]) == ("0.0", "-0.0")
        assert lines[2][4 + column] != lines[3][4 + column]

    def test_all_rows_distinct(self):
        spec = GridSpec(100.0, -7.3, 0.3, 13, 11)
        self.check(_grid_from_rows(spec, self.random_rows(np.random.default_rng(13), 143)))

    def test_one_cell(self):
        spec = GridSpec(0.0, 0.0, 1.0, 1, 1)
        self.check(_grid_from_rows(spec, self.random_rows(np.random.default_rng(14), 1)))
        self.check(EvidentialGrid(spec, PERCEPTION_FRAME))

    def test_grid_without_counter(self):
        rng = np.random.default_rng(15)
        pool = self.random_rows(rng, 4)[:, :-1]
        grid = _grid_from_rows(self.SPEC, pool[rng.integers(0, 4, 35)], with_counter=False)
        assert (grid.state_counter == 0.0).all()
        self.check(grid)

    @pytest.mark.parametrize("with_counter", [True, False])
    def test_palette_grid(self, with_counter):
        # a palette with a repeated state, a state no cell uses, and states
        # that differ only in the sign of a zero or by one ulp
        rng = np.random.default_rng(16)
        states = self.random_rows(rng, 3)
        states = np.vstack([states, states[0], states[0], states[2], states[1]])
        states[3, 5] = 0.0
        states[4, 5] = -0.0
        states[5, -1] = np.nextafter(states[5, -1], 2.0)
        ids = rng.integers(0, 6, (self.SPEC.height, self.SPEC.width))
        masses = states[:, :-1].T.copy()
        grid = EvidentialGrid(self.SPEC, PERCEPTION_FRAME, masses, ids,
                              states[:, -1].copy() if with_counter else None)
        self.check(grid)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_rows_drawn_from_a_small_pool(self, width, height, data):
        # the pool's rows are one row with one value changed each, so rows
        # repeat and differ in a single value (a signed zero, one ulp, ...)
        values = st.sampled_from([0.0, -0.0, 1.0, 0.5, np.nextafter(0.5, 1.0), 0.1,
                                  1 / 3, 5e-324, 1e-300])
        size = PERCEPTION_FRAME.size + 1
        base = data.draw(st.lists(values, min_size=size, max_size=size))
        pool = [base]
        for k, value in data.draw(st.lists(st.tuples(st.integers(0, size - 1), values),
                                           max_size=4)):
            pool.append(base[:k] + [value] + base[k + 1:])
        picks = data.draw(st.lists(st.sampled_from(pool),
                                   min_size=width * height, max_size=width * height))
        spec = GridSpec(data.draw(st.floats(-1e3, 1e3)), data.draw(st.floats(-1e3, 1e3)),
                        data.draw(st.floats(1e-3, 10.0)), width, height)
        self.check(_grid_from_rows(spec, picks))

    def test_states_across_blocks_of_rows(self):
        # 3,000 states over the 4,200 cells of three blocks of rows (29, 29
        # and 2 rows of 70 cells), most states used in more than one block,
        # with values from a small pool, so patterns recur across the blocks
        assert grid_module._BLOCK_CELLS == 2048
        spec = GridSpec(-1.5, 2.25, 0.2, 70, 60)
        pool = np.array([0.0, -0.0, 5e-324, 1e-05, 1e+16, 0.25, 1 / 3, 0.1])
        rng = np.random.default_rng(17)
        states = rng.choice(pool, (PERCEPTION_FRAME.size + 1, 3000))
        ids = rng.integers(0, 3000, (spec.height, spec.width))
        grid = EvidentialGrid(spec, PERCEPTION_FRAME, states[:-1].copy(), ids, states[-1].copy())
        self.check(grid)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 15), st.booleans(), st.data())
    def test_palette_grids_in_any_block_of_rows(self, width, height, block, with_counter,
                                                 data):
        """Palette grids, written in blocks of a few cells' rows: repeated
        states, a ``0.0`` next to a ``-0.0``, subnormals, reprs in exponent
        form, and a state used only in the first and the last raster row."""
        values = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                                  1e-05, 1e+16, 0.5, 1 / 3, 0.1, 1.0])
        state = st.lists(values, min_size=PERCEPTION_FRAME.size + 1,
                         max_size=PERCEPTION_FRAME.size + 1)
        states = data.draw(st.lists(state, min_size=1, max_size=5))
        # the last state again under another id, and the first state with
        # one value a zero and with that zero negative
        k = data.draw(st.integers(0, PERCEPTION_FRAME.size))
        plain, signed = list(states[0]), list(states[0])
        plain[k], signed[k] = 0.0, -0.0
        states += [states[-1], plain, signed]
        ids = np.array(data.draw(st.lists(st.integers(0, len(states) - 1),
                                          min_size=width * height, max_size=width * height)),
                       dtype=np.intp).reshape(height, width)
        if width > 1:
            ids[0, :2] = len(states) - 2, len(states) - 1
        if height > 1:
            states.append(data.draw(state))
            ids[0, -1] = ids[-1, 0] = len(states) - 1
        spec = GridSpec(0.5, -2.0, 0.25, width, height)
        columns = np.array(states).T
        masses = np.ascontiguousarray(columns[:-1])
        grid = EvidentialGrid(spec, PERCEPTION_FRAME, masses, ids,
                              columns[-1].copy() if with_counter else None)
        with mock.patch.object(grid_module, "_BLOCK_CELLS", block):
            self.check(grid)

"""Palette grids: the fusion kernel fuses each distinct cell state once.

A grid is a palette of S distinct states plus one palette id per cell.
On grids whose cells come from small pools of states (with signed zeros and
values one ulp apart), the kernel must give the bits of the dense 32-row
oracle, and its output palette must hold each distinct state exactly once,
also when the column hash collides.  Whole runs of the shipped scenarios,
with range jitter and a moving ego, must equal a dense loop epoch by epoch.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evigrid import frames, fusion
from evigrid.dst import MassFunction
from evigrid.fusion import (FusionParams, decide_grid, pignistic_grid, step_cell,
                            step_with_conflicts)
from evigrid.grid import EvidentialGrid, GridSpec
from evigrid.map_ingest import load_map, rasterize_gg
from evigrid.sensor import build_sg
from evigrid.simulator import ScenarioConfig, TimedPose, run_scenario
from oracles import cell_mass, dense_grid, step_with_conflicts_dense_oracle

PG = frames.PERCEPTION_FRAME
SG = frames.SENSOR_FRAME


def dense(grid):
    """A dense copy of `grid`: the same cells, one palette column each."""
    return dense_grid(grid.spec, grid.frame, grid.masses, grid.counter)


def cell_states(grid) -> np.ndarray:
    """Each cell's masses and counter, (N, 2**n + 1), in (j, i) raster order."""
    n = grid.spec.width * grid.spec.height
    return np.column_stack((grid.masses.reshape(n, -1), grid.counter.ravel()))


def assert_same_bits(out, totals, want, want_totals):
    assert out.masses.tobytes() == want.masses.tobytes()
    assert out.counter.tobytes() == want.counter.tobytes()
    assert totals == want_totals


def assert_exact_palette(grid):
    """No two palette states are equal, and two cells share an id exactly
    when their bits are equal."""
    states = [state.tobytes() for state in np.vstack([grid.states, grid.state_counter]).T]
    assert len(set(states)) == len(states)
    cells = [state.tobytes() for state in cell_states(grid)]
    pairs = set(zip(cells, grid.ids.ravel().tolist()))
    assert len(pairs) == len(set(cells)) == len(set(grid.ids.ravel().tolist()))


# --- grids drawn from small pools of states -------------------------------

unit = st.floats(min_value=0.0, max_value=1.0)


def nudged(value: float, how: str) -> float:
    """`value` moved one ulp up or down, or a zero with its sign flipped."""
    if how == "sign":
        return -value if value == 0.0 else value
    return float(np.nextafter(value, 2.0 if how == "up" else 0.0))


@st.composite
def state_pool(draw, size: int, ignorance: bool = False):
    """A few normal mass vectors of `size` subsets: one drawn base and
    copies of it with one value changed by ``nudged``.  With `ignorance`,
    every state keeps at least 0.01 on the full frame."""
    weights = draw(st.lists(unit, min_size=size - 1, max_size=size - 1))
    base = np.zeros(size)
    base[1:] = weights
    if base.sum() == 0.0:
        base[-1] = 1.0
    base /= base.sum()
    if ignorance:
        base *= 0.99
        base[-1] += 0.01
    pool = [base]
    for k, how in draw(st.lists(st.tuples(st.integers(1, size - 1),
                                          st.sampled_from(["sign", "up", "down"])),
                                max_size=3)):
        state = pool[-1].copy()
        state[k] = nudged(state[k], how)
        pool.append(state)
    return pool


@st.composite
def palette_grid(draw, spec, frame, ignorance=False, counter=False):
    """A palette grid whose cells take states from a small pool; some pool
    states may be used by no cell.  With `counter`, each state draws its
    counter, else it is 0."""
    pool = draw(state_pool(frame.size, ignorance))
    extra = draw(st.lists(st.sampled_from(pool), max_size=2))
    rows = np.array(pool + extra).T.copy()
    ids = np.array(draw(st.lists(st.integers(0, rows.shape[1] - 1),
                                 min_size=spec.width * spec.height,
                                 max_size=spec.width * spec.height)),
                   dtype=np.intp).reshape(spec.height, spec.width)
    if not counter:
        return EvidentialGrid(spec, frame, rows, ids)
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.2, nudged(0.2, "up"), 1.0]) | unit,
                           min_size=rows.shape[1], max_size=rows.shape[1]))
    return EvidentialGrid(spec, frame, rows, ids, np.array(values))


@st.composite
def pooled_inputs(draw):
    spec = GridSpec(0.0, 0.0, 0.5, draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    pg = draw(palette_grid(spec, PG, counter=True))
    sg = draw(palette_grid(spec, SG))
    gg = draw(palette_grid(spec, PG, ignorance=True))
    params = FusionParams(*(draw(unit) for _ in range(5)),
                          ageing_by_context=draw(st.none() | st.just({"building": 0.01,
                                                                      "road": 0.1})))
    return pg, sg, gg, params


@settings(max_examples=80, deadline=None)
@given(pooled_inputs())
def test_palette_kernel_equals_dense_oracle(inputs):
    pg, sg, gg, params = inputs
    out, totals = step_with_conflicts(pg, sg, gg, params)
    assert_same_bits(out, totals, *step_with_conflicts_dense_oracle(pg, sg, gg, params))
    # a dense grid is the palette with one column per cell
    assert_same_bits(*step_with_conflicts(dense(pg), dense(sg), dense(gg), params),
                     out, totals)
    assert_exact_palette(out)
    assert out.states.shape[1] == len({state.tobytes() for state in cell_states(out)})


@settings(max_examples=30, deadline=None)
@given(pooled_inputs(), st.sampled_from(["constant", "first_bit"]))
def test_hash_collisions_are_resolved_exactly(inputs, hash_kind):
    """With a colliding column hash the merge checks every column against
    its group and keys the mismatches by their bytes: same bits, and still
    one palette state per distinct cell."""
    pg, sg, gg, params = inputs
    want, want_totals = step_with_conflicts(pg, sg, gg, params)
    collide = {"constant": lambda bits: np.zeros(bits.shape[1], dtype=np.uint64),
               "first_bit": lambda bits: bits[0] & np.uint64(1)}[hash_kind]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fusion, "_column_hash", collide)
        out, totals = step_with_conflicts(pg, sg, gg, params)
    assert_same_bits(out, totals, want, want_totals)
    assert_exact_palette(out)


def test_merge_keeps_signed_zeros_and_ulps_apart():
    values = np.array([[0.0, -0.0, 0.0, 0.5, nudged(0.5, "up"), 0.5],
                       [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]])
    ids, first = fusion._merge_equal_columns(values)
    assert ids.tolist() == [ids[0], ids[1], ids[0], ids[3], ids[4], ids[3]]
    assert len(set(ids.tolist())) == 4 and len(first) == 4
    assert (ids[first] == np.arange(4)).all()


@pytest.mark.parametrize("sizes", [[7, 5, 3], [2**40, 2**40, 2**40], [3, 2**56, 2**40],
                                   [2**40, 2, 2**40]])
def test_distinct_cells_are_the_unique_id_tuples(sizes):
    """Keys whose product of palette sizes passes int64 are renumbered on
    the way; the tuples keep their ascending order either way."""
    rng = np.random.default_rng(5)
    pool = np.stack([rng.integers(max(0, size - 4), size, 6) for size in sizes], axis=1)
    pool[1, 0] = pool[0, 0]
    tuples = pool[rng.integers(0, len(pool), 40)]
    ids = [np.ascontiguousarray(column) for column in tuples.T]
    first, inverse = fusion._distinct_cells(ids, sizes)
    values, want = np.unique(tuples, axis=0, return_inverse=True)
    assert inverse.tolist() == want.ravel().tolist()
    assert tuples[first].tolist() == values.tolist()


def test_total_conflict_with_prior_keeps_the_sensor_mass():
    """Cells 3 and 10 see certain free space where the prior is a certain
    building: Dempster's rule is undefined there, and the cells fuse their
    refined sensor mass as if the prior were vacuous."""
    spec = GridSpec(0.0, 0.0, 0.5, 4, 3)
    free = np.zeros(SG.size)
    free[frames.SG_FREE] = 1.0
    vacuous_sg = np.zeros(SG.size)
    vacuous_sg[frames.SG_OMEGA] = 1.0
    sg_ids = np.full(12, 2)
    sg_ids[[3, 10]] = [1, 0]
    sg = EvidentialGrid(spec, SG, np.stack([free, free, vacuous_sg], axis=1),
                        sg_ids.reshape(3, 4))
    building = np.zeros(PG.size)
    building[frames.BUILDING_SET] = 1.0
    gg = EvidentialGrid(spec, PG, building[:, None], np.zeros((3, 4), dtype=np.intp))
    pg = EvidentialGrid(spec, PG)
    params = FusionParams()
    out, totals = step_with_conflicts(pg, sg, gg, params)
    assert_same_bits(out, totals, *step_with_conflicts_dense_oracle(pg, sg, gg, params))
    m_sg, vacuous = MassFunction(SG, free), MassFunction.vacuous(PG)
    want, want_z, _ = step_cell(vacuous, 0.0, m_sg, vacuous, params)
    got, got_z, _ = step_cell(vacuous, 0.0, m_sg, MassFunction(PG, building), params)
    assert got.masses.tolist() == want.masses.tolist() and got_z == want_z
    for i, j in [(3, 0), (2, 2)]:
        assert np.allclose(out.masses[j, i], want.masses, atol=1e-12)
        assert out.counter[j, i] == want_z


def test_gathered_cells_are_read_only():
    spec = GridSpec(0.0, 0.0, 0.5, 3, 2)
    pg = EvidentialGrid(spec, PG)
    for values in (pg.masses, pg.counter):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 0.5
    assert cell_mass(pg, 2, 1).is_vacuous()


# --- whole runs --------------------------------------------------------------

@pytest.mark.parametrize("name", ["crossing_car", "parked_then_leaves", "street_canyon"])
def test_scenario_run_equals_dense_loop(scenario_dir, name):
    """A run with range jitter and a moving ego, against the dense 32-row
    oracle chained on dense grids: the same bits at every epoch, and the
    same pignistic probabilities and decisions."""
    cfg = ScenarioConfig.from_file(scenario_dir / f"{name}.json")
    cfg.sensor = dataclasses.replace(cfg.sensor, range_jitter=0.02)
    start = cfg.trajectory[0]
    end_t = max(cfg.epochs / cfg.sensor.rate, cfg.trajectory[-1].t + 0.1)
    end = dataclasses.replace(start.pose, y=start.pose.y + 3.0,
                              heading=start.pose.heading + 0.3)
    cfg.trajectory = cfg.trajectory + (TimedPose(end_t, end),)
    gg = dense(rasterize_gg(load_map(cfg.map_path), cfg.map_confidence, cfg.grid))
    pg = EvidentialGrid(cfg.grid, PG)
    for result in run_scenario(cfg, seed=17):
        sg = dense(build_sg(result.scan, result.pose, cfg.grid, cfg.sensor_model))
        pg, totals = step_with_conflicts_dense_oracle(pg, sg, gg, cfg.fusion)
        assert_same_bits(result.pg, result.conflicts, pg, totals)
        assert result.state_bet.tobytes() == pignistic_grid(result.pg).tobytes(), result.epoch
        # per cell: the run's table and the oracle's, each gathered by its ids
        cell_bet = np.take(result.state_bet, result.pg.ids, axis=1)
        assert cell_bet.tobytes() == np.take(pignistic_grid(pg), pg.ids, axis=1).tobytes(), \
            result.epoch
        assert np.array_equal(result.codes[result.pg.ids],
                              decide_grid(pg, cfg.decision_threshold))
        assert result.pg.states.shape[1] < cfg.grid.width * cfg.grid.height


def test_subnormal_regime_soak(scenario_dir):
    """A long run at a high ageing rate, where masses that only decay pass
    through the subnormal range (from about epoch 54 here) without a
    flush to zero: the masses stay normal mass functions and the counter in
    [0, 1] at every checkpoint, the palette holds subnormal masses, and the
    step whose stored palette holds the most of them is bit for bit the
    dense 32-row oracle's."""
    cfg = ScenarioConfig.from_file(scenario_dir / "crossing_car.json")
    cfg.grid = GridSpec(0.0, 0.0, 1.0, 30, 30)
    cfg.fusion = dataclasses.replace(cfg.fusion, ageing_rate=0.5)
    cfg.sensor = dataclasses.replace(cfg.sensor, range_jitter=0.02)
    cfg.epochs = 300
    tiny = np.finfo(float).tiny
    pg, most = EvidentialGrid(cfg.grid, PG), (0, None, None)
    for result in run_scenario(cfg, seed=31):
        subnormal = int(((0.0 < pg.states) & (pg.states < tiny)).sum())
        if subnormal > most[0]:
            most = (subnormal, pg, result)
        pg = result.pg
        if result.epoch % 25 == 0 or result.epoch == cfg.epochs - 1:
            assert (pg.states >= 0.0).all(), result.epoch
            assert np.abs(pg.states.sum(axis=0) - 1.0).max() <= 1e-12, result.epoch
            assert ((0.0 <= pg.state_counter) & (pg.state_counter <= 1.0)).all(), result.epoch
    subnormal, before, result = most
    assert subnormal > 0
    gg = rasterize_gg(load_map(cfg.map_path), cfg.map_confidence, cfg.grid)
    sg = build_sg(result.scan, result.pose, cfg.grid, cfg.sensor_model)
    assert_same_bits(result.pg, result.conflicts,
                     *step_with_conflicts_dense_oracle(before, sg, gg, cfg.fusion))

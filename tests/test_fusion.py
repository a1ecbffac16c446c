"""The temporal fusion pipeline: conflict routing, counter, specialization."""

import numpy as np
import pytest

from evigrid import frames
from evigrid.dst import (MassFunction, TotalConflictError, combine_conjunctive,
                         combine_dempster, pignistic)
from evigrid.fusion import (ConflictPair, FusionParams, UNKNOWN,
                            apply_accumulator_specialization, combine_prior,
                            decide, decide_grid, fuse_pg, pignistic_grid,
                            refine_sg, step_cell, step_with_conflicts,
                            update_accumulator)
from evigrid.grid import EvidentialGrid, GridSpec
from evigrid.map_ingest import MapConfidence, VectorMap, load_map, rasterize_gg
from evigrid.sensor import Pose, SensorGridParams, build_sg
from evigrid.simulator import ScenarioConfig, run_scenario
from oracles import (cell_mass, context_of_cell, dense_grid, scan_of,
                     step_with_conflicts_dense_oracle)

PG = frames.PERCEPTION_FRAME
SG = frames.SENSOR_FRAME


def pg_mass(mapping):
    return MassFunction(PG, mapping)


def sg_mass(mapping):
    return MassFunction(SG, mapping)


class TestRefineSg:
    def test_relabeling(self):
        out = refine_sg(sg_mass({"F": 0.7, "O": 0.2, "FO": 0.1}))
        assert out["F"] == pytest.approx(0.7)
        assert out["IUSM"] == pytest.approx(0.2)
        assert out["FIUSM"] == pytest.approx(0.1)

    def test_pure_occupied(self):
        assert refine_sg(sg_mass({"O": 1.0}))["IUSM"] == 1.0

    def test_vacuous(self):
        assert refine_sg(MassFunction.vacuous(SG)).is_vacuous()


class TestCombinePrior:
    def test_building_prior_concentrates_infrastructure(self):
        sensor = pg_mass({"F": 0.7, "IUSM": 0.2, "FIUSM": 0.1})
        building = pg_mass({"I": 0.9, "FIUSM": 0.1})
        out = combine_prior(sensor, building)
        assert out["I"] == pytest.approx(0.27 / 0.37, abs=1e-9)
        assert out["F"] == pytest.approx(0.07 / 0.37, abs=1e-9)
        assert out["IUSM"] == pytest.approx(0.02 / 0.37, abs=1e-9)
        assert out["FIUSM"] == pytest.approx(0.01 / 0.37, abs=1e-9)

    def test_vacuous_map_is_neutral(self):
        sensor = pg_mass({"F": 0.7, "IUSM": 0.2, "FIUSM": 0.1})
        out = combine_prior(sensor, MassFunction.vacuous(PG))
        assert np.allclose(out.masses, sensor.masses)

    def test_vacuous_sensor_keeps_prior(self):
        road = pg_mass({"FSM": 0.8, "FIUSM": 0.2})
        out = combine_prior(MassFunction.vacuous(PG), road)
        assert np.allclose(out.masses, road.masses)


class TestConflictMasses:
    """The conflict partition that ``fuse_pg`` returns."""

    def test_disappearing_object(self):
        prev = pg_mass({"F": 0.6, "FIUSM": 0.4})
        sens = pg_mass({"IUSM": 0.5, "FIUSM": 0.5})
        out = fuse_pg(prev, sens)[1]
        assert out.free_to_occupied == pytest.approx(0.30)
        assert out.occupied_to_free == 0.0
        assert out.residual == 0.0

    def test_appearing_free(self):
        prev = pg_mass({"I": 0.5, "FIUSM": 0.5})
        sens = pg_mass({"F": 0.4, "FIUSM": 0.6})
        out = fuse_pg(prev, sens)[1]
        assert out.occupied_to_free == pytest.approx(0.20)
        assert out.free_to_occupied == 0.0
        assert out.residual == 0.0

    def test_vacuous(self):
        out = fuse_pg(MassFunction.vacuous(PG), MassFunction.vacuous(PG))[1]
        assert out.total == 0.0

    def test_residual(self):
        out = fuse_pg(pg_mass({"I": 1.0}), pg_mass({"S": 1.0}))[1]
        assert out.residual == pytest.approx(1.0)
        assert out.free_to_occupied == out.occupied_to_free == 0.0

    def test_matches_aggregate_formula(self):
        # when the only F-containing focal sets are {F} and the full frame,
        # the partition equals the product of the aggregates
        prev = pg_mass({"F": 0.3, "SM": 0.2, "I": 0.1, "FIUSM": 0.4})
        sens = pg_mass({"F": 0.5, "IUSM": 0.3, "FIUSM": 0.2})
        out = fuse_pg(prev, sens)[1]
        prev_occupied = 0.2 + 0.1
        sens_occupied = 0.3
        assert out.free_to_occupied == pytest.approx(0.3 * sens_occupied)
        assert out.occupied_to_free == pytest.approx(prev_occupied * 0.5)


class TestUpdateAccumulator:
    PARAMS = FusionParams(counter_inc=0.2, counter_dec=0.4,
                          occupancy_threshold=0.6, conflict_threshold=0.3)

    def test_clamped_at_one(self):
        m = pg_mass({"SM": 0.8, "FIUSM": 0.2})
        z = update_accumulator(1.0, m, ConflictPair(0.1, 0.0, 0.0), self.PARAMS)
        assert z == 1.0

    def test_increment(self):
        m = pg_mass({"SM": 0.7, "FIUSM": 0.3})
        z = update_accumulator(0.5, m, ConflictPair(0.05, 0.05, 0.0), self.PARAMS)
        assert z == pytest.approx(0.7)

    def test_decrement_clamped_at_zero(self):
        m = pg_mass({"F": 1.0})
        z = update_accumulator(0.1, m, ConflictPair(0.3, 0.2, 0.0), self.PARAMS)
        assert z == 0.0

    def test_unchanged(self):
        m = pg_mass({"F": 0.9, "FIUSM": 0.1})
        z = update_accumulator(0.4, m, ConflictPair(0.0, 0.0, 0.0), self.PARAMS)
        assert z == 0.4

    def test_occupied_aggregate_counts_all_subsets(self):
        # S+I+SM+IUSM all count towards the occupied aggregate
        m = pg_mass({"S": 0.2, "I": 0.2, "SM": 0.1, "IUSM": 0.1, "FIUSM": 0.4})
        z = update_accumulator(0.0, m, ConflictPair(0.0, 0.0, 0.0), self.PARAMS)
        assert z == pytest.approx(0.2)


class TestSpecialization:
    def test_zero_counter_is_identity(self):
        m = pg_mass({"SM": 0.4, "F": 0.6})
        out = apply_accumulator_specialization(m, 0.0)
        assert np.allclose(out.masses, m.masses)

    def test_full_transfer(self):
        m = pg_mass({"SM": 0.4, "F": 0.6})
        out = apply_accumulator_specialization(m, 1.0)
        assert out["S"] == pytest.approx(0.4)
        assert out["SM"] == 0.0

    def test_partial_transfer(self):
        m = pg_mass({"SM": 0.4, "F": 0.6})
        out = apply_accumulator_specialization(m, 0.6)
        assert out["S"] == pytest.approx(0.24)
        assert out["SM"] == pytest.approx(0.16)
        assert out["F"] == pytest.approx(0.6)

    def test_moving_singleton_kept(self):
        # stripping M from {M} would dump mass on the empty set, so the
        # moving singleton is exempt from the transfer
        m = pg_mass({"M": 0.5, "SM": 0.5})
        out = apply_accumulator_specialization(m, 1.0)
        assert out["M"] == pytest.approx(0.5)
        assert out["S"] == pytest.approx(0.5)

    def test_mass_preserved_no_empty(self):
        m = pg_mass({"SM": 0.3, "IUSM": 0.3, "FIUSM": 0.4})
        out = apply_accumulator_specialization(m, 0.37)
        assert out.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.conflict == 0.0


class TestFusePg:
    def test_no_conflict_equals_conjunctive(self):
        m1 = pg_mass({"FSM": 0.5, "FIUSM": 0.5})
        m2 = pg_mass({"SM": 0.6, "FIUSM": 0.4})
        out, conflicts = fuse_pg(m1, m2)
        conj = combine_conjunctive(m1, m2)
        assert conflicts.total == 0.0
        assert np.allclose(out.masses, conj.masses, atol=1e-12)

    def test_appearing_object_becomes_moving(self):
        m1 = pg_mass({"F": 0.8, "FIUSM": 0.2})
        m2 = pg_mass({"IUSM": 0.6, "FIUSM": 0.4})
        out, conflicts = fuse_pg(m1, m2)
        assert conflicts.free_to_occupied == pytest.approx(0.48)
        assert out["M"] == pytest.approx(0.48)
        assert out["F"] == pytest.approx(0.32)
        assert out["IUSM"] == pytest.approx(0.12)
        assert out["FIUSM"] == pytest.approx(0.08)

    def test_disappearing_object_becomes_ignorance(self):
        m1 = pg_mass({"I": 0.5, "FIUSM": 0.5})
        m2 = pg_mass({"F": 0.4, "FIUSM": 0.6})
        out, conflicts = fuse_pg(m1, m2)
        assert conflicts.occupied_to_free == pytest.approx(0.20)
        assert out["F"] == pytest.approx(0.20)
        assert out["I"] == pytest.approx(0.30)
        assert out["FIUSM"] == pytest.approx(0.50)

    def test_conflict_conservation(self):
        rng = np.random.default_rng(11)
        from oracles import random_mass
        for _ in range(100):
            m1 = random_mass(rng, PG, 6)
            m2 = random_mass(rng, PG, 6)
            out, conflicts = fuse_pg(m1, m2)
            conj = combine_conjunctive(m1, m2)
            assert conflicts.total == pytest.approx(conj.conflict, abs=1e-12)
            assert out.conflict == 0.0
            assert out.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_yager_equivalence_without_free_clash(self):
        # disagreement between occupied classes only is residual conflict,
        # which lands on the full frame: exactly Yager's rule
        m1 = pg_mass({"I": 0.4, "U": 0.4, "FIUSM": 0.2})
        m2 = pg_mass({"S": 0.7, "FIUSM": 0.3})
        out, conflicts = fuse_pg(m1, m2)
        conj = combine_conjunctive(m1, m2)
        yager = conj.masses.copy()
        yager[PG.omega] += yager[0]
        yager[0] = 0.0
        assert conflicts.free_to_occupied == 0.0
        assert conflicts.occupied_to_free == 0.0
        assert conflicts.residual == pytest.approx(0.56)
        assert np.allclose(out.masses, yager, atol=1e-12)


class TestDecide:
    def test_vacuous_unknown(self):
        assert decide(MassFunction.vacuous(PG), 0.3) == UNKNOWN

    def test_dominant_moving(self):
        assert decide(pg_mass({"M": 0.9, "FIUSM": 0.1}), 0.5) == "M"

    def test_tie_breaks_in_label_order(self):
        m = pg_mass({"FSM": 0.9, "FIUSM": 0.1})
        # BetP(F) = BetP(S) = BetP(M) = 0.32; F wins the tie
        assert decide(m, 0.3) == "F"

    def test_threshold(self):
        m = pg_mass({"FSM": 0.9, "FIUSM": 0.1})
        assert decide(m, 0.5) == UNKNOWN


def random_masses(rng, spec, frame, max_focal):
    """(height, width, 2**n) masses, each cell on `max_focal` random subsets."""
    masses = np.zeros((spec.height, spec.width, frame.size))
    for i in range(spec.width):
        for j in range(spec.height):
            n = min(max_focal, frame.size - 1)
            subsets = rng.choice(np.arange(1, frame.size), size=n, replace=False)
            weights = rng.random(n)
            masses[j, i, subsets] = weights / weights.sum()
    return masses


def random_grid(rng, spec, frame, max_focal):
    return dense_grid(spec, frame, random_masses(rng, spec, frame, max_focal))


def random_pg(rng, spec, with_counter=False):
    """A perception grid of random masses and, `with_counter`, counters."""
    masses = random_masses(rng, spec, PG, 6)
    counter = rng.random((spec.height, spec.width)) if with_counter else None
    return dense_grid(spec, PG, masses, counter)


class TestStep:
    SPEC = GridSpec(0.0, 0.0, 0.5, 5, 4)

    def fresh(self):
        sg = EvidentialGrid(self.SPEC, SG)
        gg = EvidentialGrid(self.SPEC, PG)
        pg = EvidentialGrid(self.SPEC, PG)
        return pg, sg, gg

    def test_vacuous_fixed_point(self):
        pg, sg, gg = self.fresh()
        out = step_with_conflicts(pg, sg, gg, FusionParams())[0]
        assert (out.masses[:, :, PG.omega] == 1.0).all()
        assert (out.counter == 0.0).all()

    def test_spec_mismatch(self):
        pg, sg, gg = self.fresh()
        other = EvidentialGrid(GridSpec(0, 0, 0.5, 4, 4), SG)
        with pytest.raises(ValueError, match="GridSpec"):
            step_with_conflicts(pg, other, gg, FusionParams())

    def test_matches_per_cell_reference(self):
        rng = np.random.default_rng(3)
        params = FusionParams(ageing_by_context={"building": 0.01, "road": 0.1})
        sg = random_grid(rng, self.SPEC, SG, 2)
        gg = random_grid(rng, self.SPEC, PG, 3)
        pg = random_pg(rng, self.SPEC, with_counter=True)
        out, totals = step_with_conflicts(pg, sg, gg, params)
        total_check = 0.0
        for i in range(self.SPEC.width):
            for j in range(self.SPEC.height):
                m, z, conflicts = step_cell(
                    cell_mass(pg, i, j), pg.counter[j, i], cell_mass(sg, i, j),
                    cell_mass(gg, i, j), params, context_of_cell(gg, i, j))
                assert np.allclose(out.masses[j, i], m.masses, atol=1e-12)
                assert out.counter[j, i] == pytest.approx(z, abs=1e-12)
                total_check += conflicts.total
        assert totals.total == pytest.approx(total_check, abs=1e-9)

    def test_vacuous_map_equals_map_free(self):
        rng = np.random.default_rng(5)
        sg = random_grid(rng, self.SPEC, SG, 2)
        gg_vac = EvidentialGrid(self.SPEC, PG)
        pg = EvidentialGrid(self.SPEC, PG)
        out, _ = step_with_conflicts(pg, sg, gg_vac, FusionParams())
        # reference: per-cell chain without the prior combination
        for i in range(self.SPEC.width):
            for j in range(self.SPEC.height):
                expect, _, _ = step_cell(cell_mass(pg, i, j), 0.0, cell_mass(sg, i, j),
                                         MassFunction.vacuous(PG), FusionParams())
                assert np.allclose(out.masses[j, i], expect.masses, atol=1e-12)

    def test_total_conflict_with_prior_keeps_the_sensor_mass(self):
        # a certain free cell against a certain building: Dempster's rule is
        # undefined there, so the cell fuses the sensor mass without the prior
        pg, sg, gg = self.fresh()
        sg_m, gg_m = sg.masses.copy(), gg.masses.copy()
        sg_m[1, 2] = sg_mass({"F": 1.0}).masses
        gg_m[1, 2] = pg_mass({"I": 1.0}).masses
        sg = dense_grid(self.SPEC, SG, sg_m)
        gg = dense_grid(self.SPEC, PG, gg_m)
        with pytest.raises(TotalConflictError):
            combine_dempster(refine_sg(cell_mass(sg, 2, 1)), cell_mass(gg, 2, 1))
        out, totals = step_with_conflicts(pg, sg, gg, FusionParams())
        m, z, conflicts = step_cell(cell_mass(pg, 2, 1), 0.0, cell_mass(sg, 2, 1),
                                    MassFunction.vacuous(PG), FusionParams())
        assert np.allclose(out.masses[1, 2], m.masses, atol=1e-12)
        assert out.counter[1, 2] == z and totals == conflicts
        assert (out.masses[:, :, PG.omega] == 1.0).sum() == self.SPEC.width * self.SPEC.height - 1

    def test_determinism(self):
        rng = np.random.default_rng(9)
        sg = random_grid(rng, self.SPEC, SG, 2)
        gg = random_grid(rng, self.SPEC, PG, 3)
        pg = EvidentialGrid(self.SPEC, PG)
        a = step_with_conflicts(pg, sg, gg, FusionParams())[0]
        b = step_with_conflicts(pg, sg, gg, FusionParams())[0]
        assert np.array_equal(a.masses, b.masses)
        assert np.array_equal(a.counter, b.counter)

    def test_building_reinforcement(self):
        # a building cell observed occupied accumulates infrastructure mass
        m_sg = sg_mass({"O": 0.8, "FO": 0.2})
        m_gg = pg_mass({"I": 0.9, "FIUSM": 0.1})
        m = MassFunction.vacuous(PG)
        z = 0.0
        for _ in range(5):
            m, z, _ = step_cell(m, z, m_sg, m_gg, FusionParams())
        assert m["I"] > 0.9

    def test_counter_saturates(self):
        m_sg = sg_mass({"O": 0.8, "FO": 0.2})
        m_gg = pg_mass({"FSM": 0.8, "FIUSM": 0.2})
        m = MassFunction.vacuous(PG)
        z = 0.0
        history = []
        for _ in range(6):
            m, z, _ = step_cell(m, z, m_sg, m_gg, FusionParams())
            history.append(z)
        assert history == sorted(history)
        assert history[4] == 1.0  # ceil(1 / 0.2) = 5 occupied epochs

    def test_unobserved_cells_age(self):
        params = FusionParams(ageing_rate=0.1)
        m = pg_mass({"F": 0.8, "FIUSM": 0.2})
        out, _, _ = step_cell(m, 0.0, MassFunction.vacuous(SG),
                              MassFunction.vacuous(PG), params)
        assert out["F"] == pytest.approx(0.72, abs=1e-12)

    def test_three_epoch_chain_matches_grid(self):
        # chain the per-cell reference for three epochs on a 1x1 grid and
        # compare with repeated grid steps
        spec = GridSpec(0, 0, 0.5, 1, 1)
        params = FusionParams()
        m_sg = sg_mass({"O": 0.8, "FO": 0.2})
        m_gg = pg_mass({"FSM": 0.8, "FIUSM": 0.2})
        sg = dense_grid(spec, SG, m_sg.masses[None, None])
        gg = dense_grid(spec, PG, m_gg.masses[None, None])
        pg = EvidentialGrid(spec, PG)
        m, z = MassFunction.vacuous(PG), 0.0
        for _ in range(3):
            pg = step_with_conflicts(pg, sg, gg, params)[0]
            m, z, _ = step_cell(m, z, m_sg, m_gg, params, "road")
        assert np.allclose(pg.masses[0, 0], m.masses, atol=1e-12)
        assert pg.counter[0, 0] == pytest.approx(z)


@pytest.mark.parametrize("name, ageing_by_context", [
    ("crossing_car", None), ("parked_then_leaves", None), ("street_canyon", None),
    ("street_canyon", {"building": 0.01, "road": 0.1})])
def test_scenario_epochs_equal_dense_oracle(scenario_dir, name, ageing_by_context):
    """Every epoch of a shipped scenario, fused by the dense 32-row oracle
    from the previous epoch's grid, gives the same bits."""
    cfg = ScenarioConfig.from_file(scenario_dir / f"{name}.json")
    if ageing_by_context:
        cfg.fusion = FusionParams(ageing_by_context=ageing_by_context)
    gg = rasterize_gg(load_map(cfg.map_path), cfg.map_confidence, cfg.grid)
    pg = EvidentialGrid(cfg.grid, PG)
    for result in run_scenario(cfg):
        sg = build_sg(result.scan, result.pose, cfg.grid, cfg.sensor_model)
        dense, totals = step_with_conflicts_dense_oracle(pg, sg, gg, cfg.fusion)
        assert result.pg.masses.tobytes() == dense.masses.tobytes(), result.epoch
        assert result.pg.counter.tobytes() == dense.counter.tobytes(), result.epoch
        assert result.conflicts == totals, result.epoch
        pg = result.pg


class TestDecideGrid:
    def test_matches_per_cell_decide(self):
        rng = np.random.default_rng(21)
        spec = GridSpec(0, 0, 0.5, 6, 5)
        pg = random_pg(rng, spec)
        codes = decide_grid(pg, 0.4)
        from evigrid.fusion import DECISION_LABELS
        for i in range(spec.width):
            for j in range(spec.height):
                assert DECISION_LABELS[codes[j, i]] == decide(cell_mass(pg, i, j), 0.4)

    def test_pignistic_grid_is_the_per_state_transform(self):
        # one column per state, each cell's within the rounding of 16 shares
        # of the scalar transform (whose MassFunction renormalizes), and a
        # state's bits do not depend on the other states
        rng = np.random.default_rng(22)
        spec, one = GridSpec(0, 0, 0.5, 6, 5), GridSpec(0, 0, 0.5, 1, 1)
        pg = random_pg(rng, spec)
        bet = pignistic_grid(pg)
        assert bet.shape == (PG.n, pg.states.shape[1])
        for i in range(spec.width):
            for j in range(spec.height):
                column = bet[:, pg.ids[j, i]]
                scalar = pignistic(cell_mass(pg, i, j))
                assert np.abs(column - scalar).max() <= 16 * np.finfo(float).eps
                alone = dense_grid(one, PG, pg.masses[j:j + 1, i:i + 1])
                assert pignistic_grid(alone)[:, 0].tobytes() == column.tobytes()


class TestStoredLayout:
    """The per-cell views are (height, width, ...) arrays indexed ``[j, i]``
    like ``ids``, and read-only: writing to them would not reach the grid's
    states."""

    SPEC = GridSpec(0.0, 0.0, 0.5, 5, 4)

    @staticmethod
    def assert_planes(grid):
        shape = (grid.spec.height, grid.spec.width)
        assert grid.masses.shape == shape + (grid.frame.size,)
        assert grid.counter.shape == shape
        assert not grid.masses.flags.writeable and not grid.counter.flags.writeable

    def test_grids_store_planes(self):
        self.assert_planes(EvidentialGrid(self.SPEC, SG))
        self.assert_planes(EvidentialGrid(self.SPEC, PG))
        scan = scan_of([(0.3, 1.2, True), (-0.4, 3.0, False)], 3.0)
        sg = build_sg(scan, Pose(0.6, 0.7, 0.0), self.SPEC, SensorGridParams())
        self.assert_planes(sg)
        vmap = VectorMap(buildings=[np.array([(0.1, 0.1), (1.1, 0.1), (1.1, 1.1), (0.1, 1.1)])])
        gg = rasterize_gg(vmap, MapConfidence(), self.SPEC)
        self.assert_planes(gg)
        pg = random_pg(np.random.default_rng(11), self.SPEC, with_counter=True)
        self.assert_planes(step_with_conflicts(pg, sg, gg, FusionParams())[0])

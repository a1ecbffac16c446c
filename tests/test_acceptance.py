"""Acceptance gate: seven end-to-end criteria, one printed verdict each.

Each test prints a single ``[PASS]``/``[FAIL]`` line directly to the real
stdout so the verdicts survive pytest's output capture.
"""

import sys
import time

import numpy as np
import pytest

from oracles import (cell_mass, conjunctive_oracle, dempster_oracle, disjunctive_oracle,
                     pignistic_oracle, random_mass)

from evigrid import frames
from evigrid.dst import (FrameOfDiscernment, MassFunction, combine_conjunctive,
                         combine_dempster, combine_disjunctive, discount,
                         pignistic, refine)
from evigrid.fusion import (DECISION_LABELS, FusionParams, decide, decide_grid,
                            fuse_pg, step_cell, apply_accumulator_specialization)
from evigrid.map_ingest import MapConfidence, point_in_polygon
from evigrid.simulator import ScenarioConfig, run_scenario

TOL = 1e-9


def _verdict(num, ok, desc):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture
def criterion(capfd):
    """Run a criterion body and print its verdict past pytest's capture."""

    def _run(num, desc, body):
        try:
            body()
        except BaseException:
            with capfd.disabled():
                _verdict(num, False, desc)
            raise
        with capfd.disabled():
            _verdict(num, True, desc)

    return _run


AB = FrameOfDiscernment(("a", "b"))
M1 = MassFunction(AB, {"a": 0.2, "b": 0.6, "ab": 0.2})
M2 = MassFunction(AB, {"a": 0.7, "b": 0.1, "ab": 0.2})


def test_criterion_1_golden_two_source_example(criterion):
    def body():
        dis = combine_disjunctive(M1, M2)
        assert dis["a"] == pytest.approx(0.14, abs=TOL)
        assert dis["b"] == pytest.approx(0.06, abs=TOL)
        assert dis["ab"] == pytest.approx(0.80, abs=TOL)

        aged = discount(M1, 0.1)
        assert aged["a"] == pytest.approx(0.18, abs=TOL)
        assert aged["b"] == pytest.approx(0.54, abs=TOL)
        assert aged["ab"] == pytest.approx(0.28, abs=TOL)

        bet = pignistic(M1)
        assert bet[0] == pytest.approx(0.3, abs=TOL)
        assert bet[1] == pytest.approx(0.7, abs=TOL)

        # The published worked example prints 0.34/0.18 for the combined
        # singletons, which is inconsistent with its own stated rule; the
        # enumeration oracle (and this library) give 0.32/0.20.  See
        # tests/test_dst.py for the full discussion.
        conj = combine_conjunctive(M1, M2)
        assert np.allclose(conj.masses, conjunctive_oracle(M1, M2), atol=TOL)
        assert conj.conflict == pytest.approx(0.44, abs=TOL)
        assert conj["a"] == pytest.approx(0.32, abs=TOL)
        assert conj["b"] == pytest.approx(0.20, abs=TOL)
        assert conj["ab"] == pytest.approx(0.04, abs=TOL)

        demp = combine_dempster(M1, M2)
        assert np.allclose(demp.masses, dempster_oracle(M1, M2), atol=TOL)
        assert demp["a"] == pytest.approx(0.32 / 0.56, abs=1e-4)
        assert demp["b"] == pytest.approx(0.20 / 0.56, abs=1e-4)
        assert demp["ab"] == pytest.approx(0.04 / 0.56, abs=1e-4)

    criterion(1, "two-source golden values match the enumeration oracle", body)


def test_criterion_2_oracle_equivalence_1000_pairs(criterion):
    def body():
        rng = np.random.default_rng(2024)
        frames_234 = [FrameOfDiscernment(tuple("abcd"[:n])) for n in (2, 3, 4)]
        start = time.perf_counter()
        for k in range(1000):
            frame = frames_234[k % 3]
            m1 = random_mass(rng, frame, frame.size - 1)
            m2 = random_mass(rng, frame, frame.size - 1)
            conj = conjunctive_oracle(m1, m2)
            assert np.allclose(combine_conjunctive(m1, m2).masses, conj, atol=TOL)
            assert np.allclose(combine_disjunctive(m1, m2).masses,
                               disjunctive_oracle(m1, m2), atol=TOL)
            if conj[0] < 1.0 - 1e-12:
                assert np.allclose(combine_dempster(m1, m2).masses,
                                   dempster_oracle(m1, m2), atol=TOL)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"

    criterion(2, "1000 random pairs match the double-loop oracle in < 5 s", body)


def test_criterion_3_property_suites(criterion):
    def body():
        rng = np.random.default_rng(99)
        frames_234 = [FrameOfDiscernment(tuple("abcd"[:n])) for n in (2, 3, 4)]
        cases = 200

        def draw(frame):
            return random_mass(rng, frame, frame.size - 1)

        # normalization after every operation
        for k in range(cases):
            frame = frames_234[k % 3]
            m1, m2 = draw(frame), draw(frame)
            for out in (combine_conjunctive(m1, m2), combine_disjunctive(m1, m2),
                        discount(m1, rng.random())):
                assert abs(out.masses.sum() - 1.0) < TOL

        # conjunctive and disjunctive commutativity
        for k in range(cases):
            frame = frames_234[k % 3]
            m1, m2 = draw(frame), draw(frame)
            assert np.allclose(combine_conjunctive(m1, m2).masses,
                               combine_conjunctive(m2, m1).masses, atol=TOL)
            assert np.allclose(combine_disjunctive(m1, m2).masses,
                               combine_disjunctive(m2, m1).masses, atol=TOL)

        # conjunctive and disjunctive associativity
        for k in range(cases):
            frame = frames_234[k % 3]
            ms = [draw(frame) for _ in range(3)]
            for rule in (combine_conjunctive, combine_disjunctive):
                left = rule(rule(ms[0], ms[1]), ms[2])
                right = rule(ms[0], rule(ms[1], ms[2]))
                assert np.allclose(left.masses, right.masses, atol=TOL)

        # Dempster equals normalized conjunctive
        for k in range(cases):
            frame = frames_234[k % 3]
            m1, m2 = draw(frame), draw(frame)
            conj = combine_conjunctive(m1, m2)
            if conj.conflict >= 1.0 - 1e-12:
                continue
            expected = conj.masses.copy()
            expected[0] = 0.0
            expected /= 1.0 - conj.conflict
            assert np.allclose(combine_dempster(m1, m2).masses, expected, atol=TOL)

        # vacuous neutrality
        for k in range(cases):
            frame = frames_234[k % 3]
            m = draw(frame)
            vac = MassFunction.vacuous(frame)
            assert np.allclose(combine_conjunctive(m, vac).masses, m.masses, atol=TOL)
            assert np.allclose(combine_dempster(m, vac).masses, m.masses, atol=TOL)

        # discount composition
        for k in range(cases):
            frame = frames_234[k % 3]
            m = draw(frame)
            a, b = rng.random(), rng.random()
            assert np.allclose(discount(discount(m, a), b).masses,
                               discount(m, 1.0 - (1.0 - a) * (1.0 - b)).masses,
                               atol=TOL)

        # refining commutes with the conjunctive rule
        for _ in range(cases):
            m1 = random_mass(rng, frames.SENSOR_FRAME, 3)
            m2 = random_mass(rng, frames.SENSOR_FRAME, 3)
            left = refine(combine_conjunctive(m1, m2), frames.SENSOR_REFINING)
            right = combine_conjunctive(refine(m1, frames.SENSOR_REFINING),
                                        refine(m2, frames.SENSOR_REFINING))
            assert np.allclose(left.masses, right.masses, atol=TOL)

        # counter specialization preserves mass and creates no conflict
        for _ in range(cases):
            m = random_mass(rng, frames.PERCEPTION_FRAME, 8)
            out = apply_accumulator_specialization(m, rng.random())
            assert abs(out.masses.sum() - 1.0) < TOL
            assert out.conflict == 0.0

        # grid fusion conserves conflict and outputs a normal mass function
        for _ in range(cases):
            m1 = random_mass(rng, frames.PERCEPTION_FRAME, 8)
            m2 = random_mass(rng, frames.PERCEPTION_FRAME, 8)
            out, conflicts = fuse_pg(m1, m2)
            conj = combine_conjunctive(m1, m2)
            assert conflicts.total == pytest.approx(conj.conflict, abs=1e-12)
            assert out.conflict == 0.0
            assert abs(out.masses.sum() - 1.0) < TOL

    criterion(3, "nine randomized property suites, 200 cases each", body)


def _footprint_cells(cfg, polygon):
    spec = cfg.grid
    xs, ys = spec.cell_centers(np.arange(spec.width)[:, None], np.arange(spec.height))
    inside = point_in_polygon(np.stack(np.broadcast_arrays(xs, ys), axis=-1), polygon)
    return [(int(i), int(j)) for i, j in np.argwhere(inside)]


def test_criterion_4_crossing_car(criterion, scenario_dir):
    def body():
        cfg = ScenarioConfig.from_file(scenario_dir / "crossing_car.json")
        track = cfg.objects[0]
        start = time.perf_counter()
        results = list(run_scenario(cfg))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"50-epoch run took {elapsed:.2f}s"

        ever_under_car = set()
        for result in results:
            poly = track.polygon_at(result.time)
            if poly is None:
                continue
            cells = _footprint_cells(cfg, poly)
            ever_under_car.update(cells)
            # while the car is fully inside the grid and past the warm-up
            if result.epoch < 4 or not cells or len(cells) < 8:
                continue
            codes = decide_grid(result.pg, cfg.decision_threshold)
            moving = sum(DECISION_LABELS[codes[j, i]] == "M" for i, j in cells)
            assert moving / len(cells) >= 0.8, (
                f"epoch {result.epoch}: only {moving}/{len(cells)} cells moving")

        # the car leaves the grid around epoch 33; by the final epoch (<= 30
        # epochs later) every formerly covered cell must read free again
        final = decide_grid(results[-1].pg, cfg.decision_threshold)
        for i, j in sorted(ever_under_car):
            assert DECISION_LABELS[final[j, i]] == "F", (i, j)

    criterion(4, "crossing car tracked as moving, wake returns to free, < 5 s", body)


def test_criterion_5_parked_car_vs_facade(criterion, scenario_dir):
    def body():
        cfg = ScenarioConfig.from_file(scenario_dir / "parked_then_leaves.json")
        car = cfg.objects[0]
        footprint = _footprint_cells(cfg, car.polygon_at(0.0))
        assert footprint
        # facade cell (j, i) straight ahead of the sensor on the near building wall
        facade = divmod(int(cfg.grid.world_to_index(15.25, 22.25)), cfg.grid.width)

        results = list(run_scenario(cfg))
        epoch4 = decide_grid(results[4].pg, cfg.decision_threshold)
        for i, j in footprint:
            assert DECISION_LABELS[epoch4[j, i]] == "S", (i, j)
        assert DECISION_LABELS[epoch4[facade]] == "I"

        # the parked car stays stopped until it disappears at epoch 30
        for result in results[5:30]:
            codes = decide_grid(result.pg, cfg.decision_threshold)
            for i, j in footprint:
                assert DECISION_LABELS[codes[j, i]] == "S", (result.epoch, i, j)

        # without map priors the facade can no longer be told apart from any
        # other persistent obstacle: its pignistic mass splits evenly over the
        # occupied classes and the decision drops below threshold
        cfg_blind = ScenarioConfig.from_file(scenario_dir / "parked_then_leaves.json")
        cfg_blind.map_confidence = MapConfidence(0.0, 0.0, 0.0)
        blind = list(run_scenario(cfg_blind))
        codes4 = decide_grid(blind[4].pg, cfg_blind.decision_threshold)
        assert DECISION_LABELS[codes4[facade]] != "I"
        assert DECISION_LABELS[codes4[facade]] == "UNKNOWN"
        bet = cell_mass(blind[4].pg, *facade[::-1])
        from evigrid.dst import pignistic as betp
        probs = betp(bet)
        assert probs[1] < cfg_blind.decision_threshold  # BetP(infrastructure)

    criterion(5, "priors separate parked car (S) from facade (I); blind run cannot", body)


def test_criterion_6_ageing_forgets_geometrically(criterion):
    def body():
        params = FusionParams()
        sg_free = MassFunction(frames.SENSOR_FRAME, {"F": 0.7, "FO": 0.3})
        vac_sg = MassFunction.vacuous(frames.SENSOR_FRAME)
        vac_gg = MassFunction.vacuous(frames.PERCEPTION_FRAME)
        m, z = MassFunction.vacuous(frames.PERCEPTION_FRAME), 0.0
        m, z, _ = step_cell(m, z, sg_free, vac_gg, params)
        p = m["F"]
        assert p == pytest.approx(0.7, abs=TOL)
        for k in range(1, 13):
            m, z, _ = step_cell(m, z, vac_sg, vac_gg, params)
            expected = p * (1.0 - params.ageing_rate) ** k
            assert m["F"] == pytest.approx(expected, abs=TOL), k

    criterion(6, "unobserved free mass decays as p*(1-ageing_rate)^k", body)


def test_criterion_7_synthetic_substitute_documented(criterion, scenario_dir):
    def body():
        # The original system was demonstrated on a 9 km urban drive with real
        # lidar; that data is not available and the runs are not reproducible
        # on a workstation.  Criteria 4-6 stand in for it with synthetic
        # scenarios exercising the same mechanisms (moving-object tracking,
        # prior-driven classification, temporal forgetting).  This criterion
        # records the substitution and checks the substitutes exist.
        for name in ("crossing_car.json", "parked_then_leaves.json",
                     "street_canyon.json"):
            assert (scenario_dir / name).is_file(), name

    criterion(7, "real-world drive replaced by synthetic scenarios (documented)", body)

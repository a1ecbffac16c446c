"""Randomized algebraic properties of the combination rules, and the
invariants of the grid kernels built on them.

Hypothesis generates arbitrary normal mass functions on frames of 2..4
hypotheses; each property is checked against the stated identity rather than
against the implementation itself.  The grid properties run the sensor-grid
build and the fusion step on random grids and beam fans: masses stay
non-negative and sum to 1, the counter stays in [0, 1], and the conflict
partition adds up to the conjunctive conflict K.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evigrid import frames
from evigrid.dst import (FrameOfDiscernment, MassFunction, Refining,
                         TotalConflictError, combine_conjunctive,
                         combine_dempster, combine_disjunctive, discount,
                         pignistic, refine)
from evigrid.fusion import (FusionParams, combine_prior, refine_sg, step_cell,
                            step_with_conflicts)
from evigrid.grid import EvidentialGrid, GridSpec
from evigrid.sensor import Pose, SensorGridParams, build_sg
from oracles import (cell_mass, context_of_cell, dense_grid, scan_of,
                     step_with_conflicts_dense_oracle)

FRAMES = {n: FrameOfDiscernment(tuple("abcd"[:n])) for n in (2, 3, 4)}


@st.composite
def mass_functions(draw, frame=None):
    if frame is None:
        frame = FRAMES[draw(st.sampled_from(sorted(FRAMES)))]
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                            min_size=frame.size - 1, max_size=frame.size - 1))
    arr = np.zeros(frame.size)
    arr[1:] = weights
    if arr.sum() == 0.0:
        arr[frame.omega] = 1.0
    arr /= arr.sum()
    return MassFunction(frame, arr)


@st.composite
def mass_function_pairs(draw):
    frame = FRAMES[draw(st.sampled_from(sorted(FRAMES)))]
    return draw(mass_functions(frame=frame)), draw(mass_functions(frame=frame))


@st.composite
def mass_function_triples(draw):
    frame = FRAMES[draw(st.sampled_from(sorted(FRAMES)))]
    return tuple(draw(mass_functions(frame=frame)) for _ in range(3))


@given(mass_function_pairs())
def test_conjunctive_commutes(pair):
    m1, m2 = pair
    assert np.allclose(combine_conjunctive(m1, m2).masses,
                       combine_conjunctive(m2, m1).masses, atol=1e-9)


@given(mass_function_triples())
def test_conjunctive_associates(triple):
    m1, m2, m3 = triple
    left = combine_conjunctive(combine_conjunctive(m1, m2), m3)
    right = combine_conjunctive(m1, combine_conjunctive(m2, m3))
    assert np.allclose(left.masses, right.masses, atol=1e-9)


@given(mass_function_pairs())
def test_disjunctive_commutes(pair):
    m1, m2 = pair
    assert np.allclose(combine_disjunctive(m1, m2).masses,
                       combine_disjunctive(m2, m1).masses, atol=1e-9)


@given(mass_function_triples())
def test_disjunctive_associates(triple):
    m1, m2, m3 = triple
    left = combine_disjunctive(combine_disjunctive(m1, m2), m3)
    right = combine_disjunctive(m1, combine_disjunctive(m2, m3))
    assert np.allclose(left.masses, right.masses, atol=1e-9)


@given(mass_function_pairs())
def test_dempster_is_normalized_conjunctive(pair):
    m1, m2 = pair
    conj = combine_conjunctive(m1, m2)
    try:
        out = combine_dempster(m1, m2)
    except TotalConflictError:
        assert conj.conflict >= 1.0 - 1e-12
        return
    expected = conj.masses.copy()
    expected[0] = 0.0
    expected /= 1.0 - conj.conflict
    assert np.allclose(out.masses, expected, atol=1e-9)


@given(mass_functions())
def test_vacuous_is_neutral(m):
    vac = MassFunction.vacuous(m.frame)
    assert np.allclose(combine_conjunctive(vac, m).masses, m.masses, atol=1e-9)
    assert np.allclose(combine_dempster(vac, m).masses, m.masses, atol=1e-9)


@given(mass_functions(),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_discount_composition(m, a, b):
    twice = discount(discount(m, a), b)
    once = discount(m, 1.0 - (1.0 - a) * (1.0 - b))
    assert np.allclose(twice.masses, once.masses, atol=1e-9)


@given(mass_functions())
def test_pignistic_is_probability(m):
    bet = pignistic(m)
    assert (bet >= -1e-12).all()
    assert abs(bet.sum() - 1.0) < 1e-9


@given(mass_function_pairs(), st.randoms(use_true_random=False))
def test_refine_commutes_with_conjunctive(pair, rnd):
    m1, m2 = pair
    source = m1.frame
    target = FrameOfDiscernment(tuple("pqrstuvw"[:2 * source.n]))
    # random refining: give each source singleton its own target singleton,
    # then scatter the remaining target hypotheses over the sources
    mapping = {lab: 1 << k for k, lab in enumerate(source.labels)}
    for extra in range(source.n, target.n):
        lab = source.labels[rnd.randrange(source.n)]
        mapping[lab] |= 1 << extra
    r = Refining(source, target, mapping)
    left = refine(combine_conjunctive(m1, m2), r)
    right = combine_conjunctive(refine(m1, r), refine(m2, r))
    assert np.allclose(left.masses, right.masses, atol=1e-9)


@settings(max_examples=200)
@given(mass_function_pairs())
def test_operations_stay_normalized(pair):
    m1, m2 = pair
    for out in (combine_conjunctive(m1, m2), combine_disjunctive(m1, m2),
                discount(m1, 0.3)):
        assert abs(out.masses.sum() - 1.0) < 1e-9


# --- grid kernels -------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0)
GRID_SPEC = GridSpec(0.0, 0.0, 0.5, 12, 10)


def assert_normal_grid(masses: np.ndarray) -> None:
    assert (masses >= 0.0).all()
    assert (masses[..., 0] == 0.0).all()
    assert np.abs(masses.sum(axis=-1) - 1.0).max() <= 1e-12


@st.composite
def fusion_inputs(draw):
    """Random perception, sensor and prior grids on a small spec.  Each
    prior cell keeps some ignorance (a rate of at least 0.01), as a map
    confidence below 1 does, so the prior step never meets total conflict."""
    pg_frame, sg_frame = frames.PERCEPTION_FRAME, frames.SENSOR_FRAME
    spec = GridSpec(0.0, 0.0, 0.5, draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    shape = (spec.height, spec.width)
    pg_m, counter = np.empty(shape + (pg_frame.size,)), np.empty(shape)
    sg_m, gg_m = np.empty(shape + (sg_frame.size,)), np.empty(shape + (pg_frame.size,))
    for cell in np.ndindex(shape):
        pg_m[cell] = draw(mass_functions(frame=pg_frame)).masses
        counter[cell] = draw(unit)
        sg_m[cell] = draw(mass_functions(frame=sg_frame)).masses
        prior = draw(mass_functions(frame=pg_frame))
        gg_m[cell] = discount(prior, draw(st.floats(min_value=0.01, max_value=1.0))).masses
    params = FusionParams(*(draw(unit) for _ in range(5)))
    return (dense_grid(spec, pg_frame, pg_m, counter), dense_grid(spec, sg_frame, sg_m),
            dense_grid(spec, pg_frame, gg_m), params)


@settings(max_examples=60, deadline=None)
@given(fusion_inputs())
def test_step_with_conflicts_invariants(inputs):
    pg, sg, gg, params = inputs
    out, totals = step_with_conflicts(pg, sg, gg, params)
    assert_normal_grid(out.masses)
    assert ((out.counter >= 0.0) & (out.counter <= 1.0)).all()
    assert min(totals.free_to_occupied, totals.occupied_to_free, totals.residual) >= 0.0


@settings(max_examples=60, deadline=None)
@given(fusion_inputs())
def test_conflict_partition_adds_up_to_k(inputs):
    """appear + disappear + residual = K, the empty-set mass of the scalar
    conjunctive rule of the aged cell and the prior-fused sensor cell: per
    cell for ``step_cell``, and over the grid for ``step_with_conflicts``."""
    pg, sg, gg, params = inputs
    grid_k = 0.0
    for i in range(pg.spec.width):
        for j in range(pg.spec.height):
            context = context_of_cell(gg, i, j)
            k = combine_conjunctive(
                discount(cell_mass(pg, i, j), params.ageing_for(context)),
                combine_prior(refine_sg(cell_mass(sg, i, j)), cell_mass(gg, i, j))).conflict
            pair = step_cell(cell_mass(pg, i, j), pg.counter[j, i], cell_mass(sg, i, j),
                             cell_mass(gg, i, j), params, context)[2]
            assert abs(pair.total - k) <= 1e-12
            grid_k += k
    totals = step_with_conflicts(pg, sg, gg, params)[1]
    assert abs(totals.free_to_occupied + totals.occupied_to_free + totals.residual
               - grid_k) <= 1e-12


def keep_focal_sets(grid: EvidentialGrid, keep: set[int]) -> EvidentialGrid:
    """`grid` with the mass of every subset outside `keep` moved to the full
    frame."""
    omega = grid.frame.omega
    dropped = [a for a in range(1, omega) if a not in keep]
    masses = grid.masses.copy()
    masses[..., omega] += masses[..., dropped].sum(axis=-1)
    masses[..., dropped] = 0.0
    return dense_grid(grid.spec, grid.frame, masses, grid.counter)


@settings(max_examples=100, deadline=None)
@given(fusion_inputs(), st.sets(st.integers(1, 31)), st.sets(st.integers(1, 31)))
def test_step_with_conflicts_equals_dense_oracle(inputs, pg_keep, gg_keep):
    """The compact kernel computes the dense 32-row kernel's bits, on grids
    with mass on any subsets and on grids restricted to a few."""
    pg, sg, gg, params = inputs
    for restrict in (False, True):
        if restrict:
            pg, gg = keep_focal_sets(pg, pg_keep), keep_focal_sets(gg, gg_keep)
        out, totals = step_with_conflicts(pg, sg, gg, params)
        dense, dense_totals = step_with_conflicts_dense_oracle(pg, sg, gg, params)
        assert out.masses.tobytes() == dense.masses.tobytes()
        assert out.counter.tobytes() == dense.counter.tobytes()
        assert totals == dense_totals


@st.composite
def beam_fans(draw):
    """A scan from a pose near the grid, with hit and non-hit beams."""
    max_range = 8.0
    beams = draw(st.lists(st.tuples(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.01, max_value=max_range), st.booleans()), max_size=40))
    scan = scan_of([(bearing, r if hit else max_range, hit) for bearing, r, hit in beams],
                   max_range)
    pose = Pose(draw(st.floats(-1.0, 7.0)), draw(st.floats(-1.0, 6.0)),
                draw(st.floats(-math.pi, math.pi)))
    params = SensorGridParams(draw(st.sampled_from([0.0, 0.7, 1.0]) | unit),
                              draw(st.sampled_from([0.0, 0.8, 1.0]) | unit))
    return scan, pose, params


@settings(max_examples=60, deadline=None)
@given(beam_fans(), st.randoms(use_true_random=False))
def test_build_sg_invariants_and_order(fan, rnd):
    scan, pose, params = fan
    grid = build_sg(scan, pose, GRID_SPEC, params)
    assert_normal_grid(grid.masses)
    shuffled = scan.columns.T.tolist()
    rnd.shuffle(shuffled)
    again = build_sg(scan_of(shuffled, scan.max_range), pose, GRID_SPEC, params)
    assert np.array_equal(grid.masses, again.masses)

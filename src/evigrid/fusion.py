"""Temporal fusion of sensor evidence, map priors and the perception grid.

Each epoch, per cell:

1. refine the sensor cell onto the 5-class frame;
2. inject the map prior with Dempster's rule, or keep the sensor mass
   alone where the two conflict totally;
3. discount the stored perception cell (information ageing);
4. fuse both with a modified conjunctive rule that routes the
   free-then-occupied conflict to the moving class and the
   occupied-then-free conflict to ignorance;
5. update the per-cell occupancy counter from the observed conflict;
6. transfer counter-confirmed mass from moving-containing sets to their
   moving-free subsets (a sustained occupancy is a stopped object).

``step_with_conflicts`` runs this vectorised over the grid, once per
distinct (stored state, sensor state, prior state) triple of the grids'
palettes, one row of triples per subset.  It carries compact row blocks:
only the subsets that can hold mass at each stage, named by an ascending
tuple of bitmasks (the three refined sensor sets; those and the at most
3 x k sets of the prior; the focal sets of the stored grid plus the full
frame, and their intersections).  The other rows of the 32 are zero and are never
stored, scanned or normalised; only the output palette holds all 32 rows.
``step_cell`` is the per-cell reference the grid kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import frames
from .dst import (MassFunction, TOTAL_CONFLICT_TOLERANCE, TotalConflictError,
                  combine_dempster, discount, pignistic, refine, specialize)
from .grid import EvidentialGrid, _distinct

DECISION_LABELS = ("F", "I", "U", "S", "M", "UNKNOWN")
UNKNOWN = "UNKNOWN"

# Subsets counting as "occupied" for the counter: non-empty subsets of the
# non-free classes.
_OCCUPIED_SUBSETS = tuple(
    a for a in range(1, frames.PERCEPTION_FRAME.size) if not a & frames.PG_FREE)

# Moving-containing subsets affected by the counter specialization.  The
# singleton {M} is deliberately excluded: stripping M from it would dump the
# mass on the empty set.
_MOVING_SUPERSETS = tuple(
    a for a in range(frames.PERCEPTION_FRAME.size)
    if a & frames.PG_MOVING and a != frames.PG_MOVING)

_CONTEXTS = ("building", "road", "intermediate")


@dataclass(frozen=True)
class FusionParams:
    """Tuning knobs of the temporal fusion, all in [0, 1].

    The defaults are implementation defaults, tuned on the shipped synthetic
    scenarios; they are not authoritative values.
    """

    ageing_rate: float = 0.05        # discount applied to the stored grid each epoch
    counter_inc: float = 0.2         # occupancy counter increment
    counter_dec: float = 0.4         # occupancy counter decrement
    occupancy_threshold: float = 0.6  # min occupied aggregate to count an epoch
    conflict_threshold: float = 0.3   # max tolerated appearance+disappearance conflict
    # Optional per-map-context ageing rates (keys: building, road,
    # intermediate); missing contexts fall back to ageing_rate.
    ageing_by_context: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        for name in ("ageing_rate", "counter_inc", "counter_dec",
                     "occupancy_threshold", "conflict_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.ageing_by_context:
            for key, value in self.ageing_by_context.items():
                if key not in _CONTEXTS:
                    raise ValueError(f"unknown ageing context {key!r}")
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"ageing rate for {key!r} must be in [0, 1]")

    def ageing_for(self, context: str) -> float:
        if self.ageing_by_context:
            return self.ageing_by_context.get(context, self.ageing_rate)
        return self.ageing_rate


@dataclass(frozen=True)
class ConflictPair:
    """Partition of the conjunctive empty-set mass of one fusion.

    ``free_to_occupied`` signals an appearing object, ``occupied_to_free`` a
    disappearing one; ``residual`` collects the remaining empty intersections
    (e.g. infrastructure against stopped).
    """

    free_to_occupied: float
    occupied_to_free: float
    residual: float

    @property
    def total(self) -> float:
        return self.free_to_occupied + self.occupied_to_free + self.residual

    @property
    def dynamic(self) -> float:
        """Appearance plus disappearance conflict, as seen by the counter."""
        return self.free_to_occupied + self.occupied_to_free


def _conflict_kind(b: int, c: int) -> int:
    """Classify an empty product term: 0 appear, 1 disappear, 2 residual.

    `b` comes from the stored grid, `c` from the sensor side; their
    intersection is empty.
    """
    b_free = bool(b & frames.PG_FREE)
    c_free = bool(c & frames.PG_FREE)
    if b_free and c and not c_free:
        return 0
    if c_free and b and not b_free:
        return 1
    return 2


def refine_sg(m_sg: MassFunction) -> MassFunction:
    """Carry a sensor-frame mass function onto the 5-class frame."""
    return refine(m_sg, frames.SENSOR_REFINING)


def combine_prior(m_sensor: MassFunction, m_map: MassFunction) -> MassFunction:
    """Inject the map prior into refined sensor evidence (Dempster's rule).

    Where the two conflict totally the rule is undefined, and the sensor
    evidence stands without the prior: the sensor observes the present, and
    the map is the source that can be stale.
    """
    try:
        return combine_dempster(m_sensor, m_map)
    except TotalConflictError:
        return m_sensor


def fuse_pg(m_prev: MassFunction, m_sensor: MassFunction) -> tuple[MassFunction, ConflictPair]:
    """Modified conjunctive rule adapted to mobile object detection.

    Equal to the conjunctive rule on non-conflicting terms; the appearance
    conflict lands on the moving singleton, the disappearance and residual
    conflict on the full frame (Yager-style), so the output is normal by
    construction.
    """
    frame = m_prev.frame
    out = np.zeros(frame.size)
    parts = [0.0, 0.0, 0.0]
    for b, vb in m_prev.focal():
        for c, vc in m_sensor.focal():
            a = b & c
            term = vb * vc
            if a:
                out[a] += term
            else:
                parts[_conflict_kind(b, c)] += term
    out[frames.PG_MOVING] += parts[0]
    out[frames.PG_OMEGA] += parts[1] + parts[2]
    return MassFunction(frame, out), ConflictPair(*parts)


def update_accumulator(counter_prev: float, m_new: MassFunction,
                       conflicts: ConflictPair, params: FusionParams) -> float:
    """Advance the occupancy counter from the fused cell and its conflict."""
    occupied = sum(m_new.masses[a] for a in _OCCUPIED_SUBSETS)
    if conflicts.dynamic > params.conflict_threshold:
        return max(0.0, counter_prev - params.counter_dec)
    if occupied >= params.occupancy_threshold:
        return min(1.0, counter_prev + params.counter_inc)
    return counter_prev


def specialization_matrix(counter: float) -> np.ndarray:
    """Counter-driven specialization on the 5-class frame.

    Every moving-containing set (except the moving singleton) passes a
    fraction `counter` of its mass to the same set without the moving class.
    """
    if not 0.0 <= counter <= 1.0:
        raise ValueError(f"counter must be in [0, 1], got {counter}")
    size = frames.PERCEPTION_FRAME.size
    s = np.eye(size)
    for a in _MOVING_SUPERSETS:
        s[a, a] = 1.0 - counter
        s[a & ~frames.PG_MOVING, a] = counter
    return s


def apply_accumulator_specialization(m: MassFunction, counter: float) -> MassFunction:
    return specialize(m, specialization_matrix(counter))


def decide(m: MassFunction, unknown_threshold: float) -> str:
    """Classify a cell by the maximum pignistic probability.

    Below the threshold the cell is UNKNOWN; ties break in frame label order.
    """
    bet = pignistic(m)
    k = int(np.argmax(bet))
    if bet[k] < unknown_threshold:
        return UNKNOWN
    return m.frame.labels[k]


def step_cell(m_prev: MassFunction, counter_prev: float,
              m_sg: MassFunction, m_gg: MassFunction,
              params: FusionParams,
              context: str = "intermediate") -> tuple[MassFunction, float, ConflictPair]:
    """Reference per-cell epoch update; mirrors ``step_with_conflicts``."""
    m_prior = combine_prior(refine_sg(m_sg), m_gg)
    m_aged = discount(m_prev, params.ageing_for(context))
    m_new, conflicts = fuse_pg(m_aged, m_prior)
    counter = update_accumulator(counter_prev, m_new, conflicts, params)
    m_out = apply_accumulator_specialization(m_new, counter)
    return m_out, counter, conflicts


# --- vectorised grid kernel -------------------------------------------------

def _sum_rows(rows, n: int) -> np.ndarray:
    """Cell-wise sum of (N,) rows, added in the order given.  Not
    ``sum(axis=0)``: that adds a single column pairwise, so a one-cell grid
    would round differently from the same cell in a larger grid."""
    total = np.zeros(n)
    for row in rows:
        total += row
    return total


def _conjunctive_rows(m1, sets1: tuple[int, ...], m2, sets2: tuple[int, ...],
                      sets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Conjunctive combination of two compact mass blocks, cell by cell.

    Row k of `m1` holds every cell's mass on the subset ``sets1[k]``, and
    likewise for `m2`; unlisted subsets carry no mass.  Returns the
    non-empty products as a (len(sets), N) block, row k for ``sets[k]``
    (`sets` must hold every non-empty ``b & c``), and the (3, N) empty-set
    mass partitioned by ``_conflict_kind``, with `m1` as the stored side.
    With `sets1` and `sets2` ascending, each output row adds its terms in
    the order of the rule on all 2**n rows; the zero rows left out would
    only add exact zeros.
    """
    row = {a: k for k, a in enumerate(sets)}
    out = np.zeros((len(sets), m1.shape[1]))
    parts = np.zeros((3, m1.shape[1]))
    term = np.empty(m1.shape[1])
    for b, mb in zip(sets1, m1):
        for c, mc in zip(sets2, m2):
            np.multiply(mb, mc, out=term)
            if b & c:
                out[row[b & c]] += term
            else:
                parts[_conflict_kind(b, c)] += term
    return out, parts


def _ageing_vector(gg_m: np.ndarray, params: FusionParams) -> np.ndarray:
    """Per-state ageing rate from the (32, S) prior states by map context:
    building where the prior supports I, else road where it supports FSM,
    else intermediate."""
    return np.select([gg_m[frames.BUILDING_SET] > 0.0, gg_m[frames.ROAD_SET] > 0.0],
                     [params.ageing_for("building"), params.ageing_for("road")],
                     params.ageing_for("intermediate"))


# The refined sensor rows: the sensor planes F, O and FO (_SG_SETS), in
# that order, are the masses of F, IUSM and the full frame on the 5-class
# frame (_SENSOR_SETS).
_SENSOR_SETS = (frames.PG_FREE, frames.OCCUPIED_SET, frames.PG_OMEGA)
_SG_SETS = (frames.SG_FREE, frames.SG_OCCUPIED, frames.SG_OMEGA)


def _distinct_cells(ids: list[np.ndarray], sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """One cell of each distinct tuple of palette ids, and the index of each
    cell's tuple among the tuples in ascending order.  ``ids[g]`` holds
    every cell's id into a palette of ``sizes[g]`` states; the number of
    cells times any size must stay within int64."""
    n = len(ids[0])
    key, radix = np.zeros(n, dtype=np.int64), 1
    for cell_ids, size in zip(ids, sizes):
        if radix * size > np.iinfo(np.int64).max:
            # renumber the tuples so far 0 .. < n, so the key cannot overflow
            radix, key = n, _distinct(key, radix)[1]
        key = key * size + cell_ids
        radix *= size
    inverse = _distinct(key, radix)[1]
    # any cell of a tuple stands for it: they all read the same states
    return _one_of_each(inverse), inverse


# odd multipliers of the column hash (splitmix64's finalizer)
_HASH_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _column_hash(bits: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each column of (k, S) uint64 rows."""
    h = np.zeros(bits.shape[1], dtype=np.uint64)
    for row in bits:
        h ^= row
        h *= _HASH_MIX[0]
        h ^= h >> np.uint64(31)
        h *= _HASH_MIX[1]
    return h


def _merge_equal_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the columns of C-contiguous (k, S) `values`, equal exactly when
    the columns' bits are (so ``-0.0`` and ``0.0`` stay apart), and one
    column of each id.

    Columns are grouped by a hash of their bits, and each column of a group
    of two or more is checked against the group's column.  A column that
    differs from it gets an id of its own, shared only with the columns
    whose bytes equal its own.
    """
    bits = values.view(np.uint64)
    ids = np.unique(_column_hash(bits), return_inverse=True)[1]
    first = _one_of_each(ids)
    shared = np.flatnonzero(np.bincount(ids)[ids] > 1)
    clash = shared[(bits[:, shared] != bits[:, first[ids[shared]]]).any(axis=0)]
    if clash.size:
        keys = np.ascontiguousarray(bits[:, clash].T)
        keys = keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel()
        clash_ids = np.unique(keys, return_inverse=True)[1]
        ids[clash] = len(first) + clash_ids
        first = np.concatenate([first, clash[_one_of_each(clash_ids)]])
    return ids, first


def _one_of_each(ids: np.ndarray) -> np.ndarray:
    """For each id 0 .. max(ids), the index of one element holding it."""
    first = np.empty(ids.max() + 1, dtype=np.intp)
    first[ids] = np.arange(len(ids))
    return first


def _columns(rows: np.ndarray, sets: tuple[int, ...], cols: np.ndarray) -> np.ndarray:
    """Rows `sets` of `rows` at the columns `cols`, taken one row at a time."""
    out = np.empty((len(sets), len(cols)))
    for k, a in enumerate(sets):
        np.take(rows[a], cols, out=out[k])
    return out


def step_with_conflicts(pg: EvidentialGrid, sg: EvidentialGrid, gg: EvidentialGrid,
                        params: FusionParams) -> tuple[EvidentialGrid, ConflictPair]:
    """One fusion epoch over the whole grid.

    Returns the new perception grid plus the grid-total conflict partition.
    Cells without sensor coverage still age; epochs are strictly sequential.

    Each distinct (stored state, sensor state, prior state) is fused once,
    one column per tuple; every operation is column-wise, and row sums add in
    a fixed order (``_sum_rows``), so a column's bits do not depend on the
    other columns.  The output palette holds each distinct fused state once.
    """
    if not (pg.spec == sg.spec == gg.spec):
        raise ValueError("perception, sensor and map grids must share a GridSpec")
    if sg.frame != frames.SENSOR_FRAME:
        raise ValueError("sensor grid must be on the free/occupied frame")
    if pg.frame != frames.PERCEPTION_FRAME or gg.frame != frames.PERCEPTION_FRAME:
        raise ValueError("perception and map grids must be on the 5-class frame")

    spec = pg.spec
    grids = (pg, sg, gg)
    ids = [grid.ids.ravel() for grid in grids]
    first, inverse = _distinct_cells(ids, [grid.states.shape[1] for grid in grids])
    n = len(first)
    # column k of the kernel's rows is the tuple of cell first[k]
    pg_col, sg_col, gg_col = (cell_ids[first] for cell_ids in ids)
    pg_m, sg_m, gg_m = (grid.states for grid in grids)
    counter_prev = pg.state_counter[pg_col]

    # Dempster's rule with the map prior: drop the conflict, renormalize by
    # 1 - K; where 1 - K is within the tolerance of 0 the rule is undefined,
    # and the cell takes the refined sensor mass without the prior
    gg_sets = tuple(np.flatnonzero(gg_m.any(axis=1)).tolist())
    prior_sets = {b & c for b in _SENSOR_SETS for c in gg_sets} - {0}
    prior_sets = tuple(sorted(prior_sets | set(_SENSOR_SETS)))
    sensor = _columns(sg_m, _SG_SETS, sg_col)
    prior = _conjunctive_rows(sensor, _SENSOR_SETS, _columns(gg_m, gg_sets, gg_col),
                              gg_sets, prior_sets)[0]
    norm = _sum_rows(prior, n)
    conflict = norm <= TOTAL_CONFLICT_TOLERANCE
    prior[:, conflict] = 0.0
    for a, mass in zip(_SENSOR_SETS, sensor):
        prior[prior_sets.index(a), conflict] = mass[conflict]
    norm[conflict] = 1.0
    prior /= norm

    # ageing: discount the stored masses, moving the rate alpha to the full
    # frame (the largest bitmask, so the last row)
    alpha = _ageing_vector(gg_m, params)[gg_col]
    prev_sets = tuple(sorted({*np.flatnonzero(pg_m.any(axis=1)).tolist(), frames.PG_OMEGA}))
    prev = _columns(pg_m, prev_sets, pg_col)
    prev *= 1.0 - alpha
    prev[-1] += alpha

    # the modified conjunctive rule: appearance conflict to M, the rest to
    # the full frame; the specialization below moves mass to M-free sets
    fused_sets = {b & c for b in prev_sets for c in prior_sets} - {0}
    fused_sets |= {frames.PG_MOVING, frames.PG_OMEGA}
    fused_sets = tuple(sorted(fused_sets | {a & ~frames.PG_MOVING for a in fused_sets
                                            if a in _MOVING_SUPERSETS}))
    row = {a: k for k, a in enumerate(fused_sets)}
    # the fused rows and, as the last row, the counter
    fused = np.empty((len(fused_sets) + 1, n))
    fused[:-1], (appear, disappear, residual) = _conjunctive_rows(
        prev, prev_sets, prior, prior_sets, fused_sets)
    fused[row[frames.PG_MOVING]] += appear
    fused[row[frames.PG_OMEGA]] += disappear + residual
    fused[:-1] /= _sum_rows(fused[:-1], n)

    occupied = _sum_rows((fused[row[a]] for a in fused_sets if a in _OCCUPIED_SUBSETS), n)
    dynamic = appear + disappear
    counter = fused[-1]
    counter[:] = np.where(
        dynamic > params.conflict_threshold,
        np.maximum(0.0, counter_prev - params.counter_dec),
        np.where(occupied >= params.occupancy_threshold,
                 np.minimum(1.0, counter_prev + params.counter_inc),
                 counter_prev))

    for a in fused_sets:
        if a in _MOVING_SUPERSETS:
            moved = counter * fused[row[a]]
            fused[row[a]] -= moved
            fused[row[a & ~frames.PG_MOVING]] += moved

    # one palette column per distinct fused state
    merged, kept = _merge_equal_columns(fused)
    rows = np.zeros((frames.PERCEPTION_FRAME.size, len(kept)))
    for k, a in enumerate(fused_sets):
        np.take(fused[k], kept, out=rows[a])
    out = EvidentialGrid(spec, pg.frame, rows, merged[inverse].reshape(spec.height, spec.width),
                         np.take(counter, kept))
    # the grid conflict totals sum over the cells in (j, i) raster order
    totals = ConflictPair(float(appear[inverse].sum()), float(disappear[inverse].sum()),
                          float(residual[inverse].sum()))
    return out, totals


def pignistic_grid(pg: EvidentialGrid) -> np.ndarray:
    """Pignistic probabilities of a grid's states on the 5-class frame, a
    (5, S) table: column k for state k of ``pg.states``.

    Each class adds the shares ``m(a) / |a|`` of the focal sets containing
    it, in ascending order of the sets, so a state's bits do not depend on
    the other states.
    """
    masses = pg.states
    bet = np.zeros((frames.PERCEPTION_FRAME.n, masses.shape[1]))
    for a in np.flatnonzero(masses.any(axis=1)).tolist():
        share = masses[a] / a.bit_count()
        for k in range(frames.PERCEPTION_FRAME.n):
            if a >> k & 1:
                bet[k] += share
    return bet


# kept for perfbench/traced.py, which times it by name
def decide_grid(pg: EvidentialGrid, unknown_threshold: float) -> np.ndarray:
    """Per-cell decision codes, indices into DECISION_LABELS, like ``pg.ids``."""
    return decide_pignistic(pignistic_grid(pg), unknown_threshold)[pg.ids]


def decide_pignistic(bet: np.ndarray, unknown_threshold: float) -> np.ndarray:
    """Decision codes, (S,), of the columns of a (5, S) ``pignistic_grid`` table."""
    codes = bet.argmax(axis=0).astype(np.int8)
    codes[bet.max(axis=0) < unknown_threshold] = len(DECISION_LABELS) - 1
    return codes

"""Temporal fusion of sensor evidence, map priors and the perception grid.

Each epoch, per cell:

1. refine the sensor cell onto the 5-class frame;
2. inject the map prior with Dempster's rule;
3. discount the stored perception cell (information ageing);
4. fuse both with a modified conjunctive rule that routes the
   free-then-occupied conflict to the moving class and the
   occupied-then-free conflict to ignorance;
5. update the per-cell occupancy counter from the observed conflict;
6. transfer counter-confirmed mass from moving-containing sets to their
   moving-free subsets (a sustained occupancy is a stopped object).

``step_with_conflicts`` runs this vectorised over the whole grid, one row
of cells per subset.  It carries compact row blocks: only the subsets that
can hold mass at each stage, named by an ascending tuple of bitmasks (the
three refined sensor sets, the at most 3 x k sets of the prior, the focal
sets of the stored grid plus the full frame, and their intersections).
The other rows of the 32 are zero and are never stored, scanned or
normalised; only the output grid holds all 32 planes.  ``step_cell`` is
the per-cell reference the grid kernel is tested against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import frames
from .dst import (MassFunction, TOTAL_CONFLICT_TOLERANCE, TotalConflictError,
                  combine_dempster, discount, pignistic, refine, specialize)
from .grid import EvidentialGrid, PerceptionGrid

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
    """Inject the map prior into refined sensor evidence (Dempster's rule)."""
    return combine_dempster(m_sensor, m_map)


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

def _rows(values: np.ndarray) -> np.ndarray:
    """(width, height, ...) cell data as the (..., N) rows the kernel works
    on, one column per cell in (j, i) raster order: for masses, one row per
    subset.  A view of a grid's stored planes, a copy of other layouts."""
    return values.T.reshape(values.shape[2:][::-1] + (-1,))


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
    """Per-cell ageing rate from the (32, N) prior masses by map context:
    building where the prior supports I, else road where it supports FSM,
    else intermediate."""
    if not params.ageing_by_context:
        return np.full(gg_m.shape[1], params.ageing_rate)
    return np.select([gg_m[frames.BUILDING_SET] > 0.0, gg_m[frames.ROAD_SET] > 0.0],
                     [params.ageing_for("building"), params.ageing_for("road")],
                     params.ageing_for("intermediate"))


# The refined sensor rows: the sensor planes F, O and FO, in that order,
# are the masses of F, IUSM and the full frame on the 5-class frame.
_SENSOR_SETS = (frames.PG_FREE, frames.OCCUPIED_SET, frames.PG_OMEGA)


def step_with_conflicts(pg: PerceptionGrid, sg: EvidentialGrid, gg: EvidentialGrid,
                        params: FusionParams) -> tuple[PerceptionGrid, ConflictPair]:
    """One fusion epoch over the whole grid.

    Returns the new perception grid plus the grid-total conflict partition.
    Cells without sensor coverage still age; epochs are strictly sequential.
    """
    if not (pg.spec == sg.spec == gg.spec):
        raise ValueError("perception, sensor and map grids must share a GridSpec")
    if sg.frame != frames.SENSOR_FRAME:
        raise ValueError("sensor grid must be on the free/occupied frame")
    if pg.frame != frames.PERCEPTION_FRAME or gg.frame != frames.PERCEPTION_FRAME:
        raise ValueError("perception and map grids must be on the 5-class frame")

    spec = pg.spec
    # the grid conflict totals sum in (j, i) raster order
    sg_m, gg_m, pg_m = _rows(sg.masses), _rows(gg.masses), _rows(pg.masses)
    counter_prev = _rows(pg.counter)
    n = counter_prev.size

    # Dempster's rule with the map prior: drop the conflict, renormalize by 1 - K
    gg_sets = tuple(np.flatnonzero(gg_m.any(axis=1)).tolist())
    prior_sets = tuple(sorted({b & c for b in _SENSOR_SETS for c in gg_sets} - {0}))
    prior = _conjunctive_rows(sg_m[frames.SG_FREE:], _SENSOR_SETS,
                              [gg_m[c] for c in gg_sets], gg_sets, prior_sets)[0]
    norm = _sum_rows(prior, n)
    if np.any(norm <= TOTAL_CONFLICT_TOLERANCE):
        cell = int(np.argmin(norm))
        raise TotalConflictError(f"total conflict with map prior at cell index {cell}")
    prior /= norm

    # ageing: discount the stored masses, moving the rate alpha to the full
    # frame (the largest bitmask, so the last row)
    alpha = _ageing_vector(gg_m, params)
    keep = 1.0 - alpha
    prev_sets = tuple(sorted({*np.flatnonzero(pg_m.any(axis=1)).tolist(), frames.PG_OMEGA}))
    prev = np.empty((len(prev_sets), n))
    for k, a in enumerate(prev_sets):
        np.multiply(pg_m[a], keep, out=prev[k])
    prev[-1] += alpha

    # the modified conjunctive rule: appearance conflict to M, the rest to
    # the full frame; the specialization below moves mass to M-free sets
    fused_sets = {b & c for b in prev_sets for c in prior_sets} - {0}
    fused_sets |= {frames.PG_MOVING, frames.PG_OMEGA}
    fused_sets = tuple(sorted(fused_sets | {a & ~frames.PG_MOVING for a in fused_sets
                                            if a in _MOVING_SUPERSETS}))
    row = {a: k for k, a in enumerate(fused_sets)}
    fused, (appear, disappear, residual) = _conjunctive_rows(
        prev, prev_sets, prior, prior_sets, fused_sets)
    fused[row[frames.PG_MOVING]] += appear
    fused[row[frames.PG_OMEGA]] += disappear + residual
    fused /= _sum_rows(fused, n)

    occupied = _sum_rows((fused[row[a]] for a in fused_sets if a in _OCCUPIED_SUBSETS), n)
    dynamic = appear + disappear
    counter = np.where(
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

    planes = np.zeros((frames.PERCEPTION_FRAME.size, spec.height, spec.width))
    planes.reshape(frames.PERCEPTION_FRAME.size, n)[list(fused_sets)] = fused
    out = copy.copy(pg)  # the spec and frame of pg, new masses and counter
    out.masses = planes.T
    out.counter = counter.reshape(spec.height, spec.width).T
    totals = ConflictPair(float(appear.sum()), float(disappear.sum()),
                          float(residual.sum()))
    return out, totals


# (5, 32): row k shares each subset's mass equally among its members
_BET_WEIGHTS = np.array([[1.0 / a.bit_count() if a >> k & 1 else 0.0
                          for a in range(frames.PERCEPTION_FRAME.size)]
                         for k in range(frames.PERCEPTION_FRAME.n)])


def pignistic_grid(pg: EvidentialGrid) -> np.ndarray:
    """Per-cell pignistic probabilities of a grid on the 5-class frame,
    shape (width, height, 5): a view of (5, height, width) planes."""
    bet = _BET_WEIGHTS @ _rows(pg.masses)
    return bet.reshape(-1, pg.spec.height, pg.spec.width).T


def decide_grid(pg: EvidentialGrid, unknown_threshold: float) -> np.ndarray:
    """Per-cell decision codes, indices into DECISION_LABELS."""
    return decide_pignistic(pignistic_grid(pg), unknown_threshold)


def decide_pignistic(bet: np.ndarray, unknown_threshold: float) -> np.ndarray:
    """Decision codes from the output of ``pignistic_grid``."""
    codes = bet.argmax(axis=2).astype(np.int8)
    codes[bet.max(axis=2) < unknown_threshold] = len(DECISION_LABELS) - 1
    return codes

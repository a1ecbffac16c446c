"""Lidar scan to sensor-grid conversion.

All beams of a scan are traversed together, each cell for cell as the exact
scalar cell-stepping traversal (Amanatides & Woo, 1987) would, in
whole-array passes with no loop over the steps: a beam's boundary crossing
times on each axis are one row of a cumulative sum, and each crossing's cell
follows from how many crossings on the other axis come before it.  Cells
strictly before the hit point collect free-space evidence, the cell
containing the hit point collects occupied evidence, cells beyond stay
vacuous.  A scan is reduced to per-cell counts of free and hit beams, and
each cell's mass is Dempster's rule of those beams in closed form, so an
occupied verdict is never overwritten by a free verdict from another beam
and the grid does not depend on the order of the beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames
from .grid import (EvidentialGrid, GridSpec, _check_fields, _distinct_tuples, _number, _positive,
                   _unit)

_TAU = 2.0 * math.pi


def normalize_heading(heading: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    h = heading % _TAU
    if h > math.pi:
        h -= _TAU
    return h


def beam_directions(heading: float, bearings: np.ndarray) -> np.ndarray:
    """Beam unit directions, rows dx and dy: math.cos/sin, as np's can differ in the last bit."""
    angles = (heading + bearings).tolist()
    return np.array((list(map(math.cos, angles)), list(map(math.sin, angles))))


@dataclass(frozen=True)
class Pose:
    """Globally referenced vehicle pose; heading counter-clockwise from east."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        _check_fields(self, _number, ("x", "y", "heading"))
        object.__setattr__(self, "heading", normalize_heading(self.heading))


class LidarScan:
    """One scan's beams as one read-only (3, beams) float array of bearing,
    range and hit columns, `columns` (a hit is 1.0, a miss 0.0), which
    `build_sg` reads, and the sensor's `max_range`.

    It is made from a (3, beams) numpy array of those columns, as
    `read_scan_log` and `simulate_scan` give them, and keeps a copy.
    """

    def __init__(self, columns: np.ndarray, max_range: float):
        # with a finite max_range the range checks below reject non-finite ranges
        max_range = _positive(max_range, "max_range")
        if not isinstance(columns, np.ndarray) or columns.ndim != 2 or len(columns) != 3:
            raise ValueError("beam columns must be an array of shape (3, beams), got "
                             f"{getattr(columns, 'shape', type(columns).__name__)}")
        columns = np.array(columns, dtype=float)
        columns[2] = columns[2] != 0.0
        bearing, rng, hit = columns
        ok = np.isfinite(bearing) & np.where(hit == 1.0, (0.0 < rng) & (rng <= max_range),
                                             rng == max_range)
        if not ok.all():
            k = int(ok.argmin())
            bearing, rng, hit = columns[:, k].tolist()
            if not math.isfinite(bearing):
                raise ValueError(f"beam {k}: bearing {bearing} is not finite")
            if hit:
                raise ValueError(f"beam {k}: hit range {rng} outside (0, max_range]")
            raise ValueError(f"beam {k}: non-hit beams must carry range = max_range")
        columns.flags.writeable = False
        self.columns = columns
        self.max_range = max_range

    def __eq__(self, other):
        if not isinstance(other, LidarScan):
            return NotImplemented
        return self.max_range == other.max_range and np.array_equal(self.columns, other.columns)

    def __repr__(self):
        return f"LidarScan({self.columns!r}, max_range={self.max_range!r})"


@dataclass(frozen=True)
class SensorGridParams:
    """Evidence weights of the beam model, each in [0, 1]."""

    free_weight: float = 0.7
    occupied_weight: float = 0.8

    def __post_init__(self):
        _check_fields(self, _unit, ("free_weight", "occupied_weight"))


def _crossing_times(k: np.ndarray, sign: np.ndarray, t0: np.ndarray, dt: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ray's boundary crossing times on one axis of n cells, one row per
    ray, up to the crossing that leaves the grid, and that crossing's index.

    Row r holds NaN, then ``t0[r]``, ``t0[r] + dt[r]``, ... added in order,
    as the scalar ``t += dt`` does, then NaN: crossing c is at column c + 1.
    A ray that starts in cell k[r] and moves by ``sign[r]`` leaves the grid
    at crossing ``n - 1 - k[r]`` upwards or ``k[r]`` downwards; a ray with
    ``sign`` 0 has an inf ``t0`` and never crosses.
    """
    last = np.where(sign > 0, n - 1 - k, k) * (sign != 0)
    times = np.empty((len(k), int(last.max(initial=-1)) + 3))
    times[:, 0] = times[:, -1] = np.nan
    times[:, 1] = t0
    times[:, 2:-1] = dt[:, None]
    np.cumsum(times[:, 1:-1], axis=1, out=times[:, 1:-1])
    return times, last


def _count_at_or_before(times: np.ndarray, row_start: np.ndarray, t: np.ndarray,
                        t0: np.ndarray, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many crossing times in the row of `_crossing_times` that starts
    at flat index ``row_start[e]`` are at most ``t[e]``, and whether the last
    of them equals ``t[e]``.

    The estimate from the row's ``t0`` and ``dt`` is corrected against the
    summed times until no count moves; in practice a few counts move once.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        guess = np.floor((t - t0) / dt) + 1.0
    # at is the flat index of the last crossing counted, or of the NaN
    # before the row's first; fmax and fmin also drop the NaN guess of an
    # axis that the ray never crosses
    at = np.fmin(np.fmax(guess, 0.0), times.shape[1] - 2).astype(np.intp)
    at += row_start
    flat = times.ravel()
    fix, a, u = np.arange(len(t)), at, t
    value = last = flat[at]
    while True:
        # the NaN at both ends of a row stops a count there
        move = (flat[a + 1] <= u).view(np.int8) - (last > u).view(np.int8)
        moved = np.flatnonzero(move)
        if not moved.size:
            return at - row_start, value == t
        fix = fix[moved]
        at[fix] += move[moved]
        a, u = at[fix], t[fix]
        last = value[fix] = flat[a]


def traverse_ray(spec: GridSpec, x0: float, y0: float, dx: np.ndarray, dy: np.ndarray,
                 length: np.ndarray) -> np.ndarray:
    """In-bounds cells entered by each ray segment, all rays together in
    whole-array passes, with no loop over a ray's steps.

    Ray k runs from (x0, y0) along (dx[k], dy[k]) and enters a cell when it
    reaches it strictly before length[k]; exact corner hits step diagonally,
    so no zero-dwell cell is reported.  Returns one row (k, j * width + i)
    per entered cell, grouped by ray in ascending k, each ray's rows in order
    along it.  The cells are those of the scalar Amanatides & Woo traversal,
    ray by ray: the same slab clipping and first cell, and crossing times
    that are its running sums ``t += dt`` bit for bit (one ``np.cumsum`` per
    axis), merged in time order without a sort.
    """
    ox, oy, cs = spec.origin_east, spec.origin_north, spec.cell_size
    width, height = spec.width, spec.height
    t_lo, t_hi = np.zeros(len(length)), length
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a component whose boundary spacing cs / |d| overflows to inf does
        # not move the ray along its axis: it is taken as 0
        dx, dy = (np.where(np.isinf(cs / abs(d)), 0.0, d) for d in (dx, dy))
        # slab clipping; np.where drops the quotients of d == 0 (the ray
        # enters no cell if it starts outside on that axis)
        for p, d, lo, hi in ((x0, dx, ox, ox + width * cs), (y0, dy, oy, oy + height * cs)):
            moving = d != 0.0
            t1, t2 = (lo - p) / d, (hi - p) / d
            t_lo = np.where(moving, np.maximum(t_lo, np.minimum(t1, t2)), t_lo)
            t_hi = np.where(moving, np.minimum(t_hi, np.maximum(t1, t2)),
                            t_hi if lo <= p <= hi else -np.inf)
        ray = np.flatnonzero(t_lo < t_hi)
        axes = []
        for p, d, o, n in ((x0, dx[ray], ox, width), (y0, dy[ray], oy, height)):
            f = (p + t_lo[ray] * d - o) / cs
            k = np.floor(f)
            # entering exactly on a boundary while moving towards lower
            # indices means leaving the floor() cell, not entering it
            k = np.clip(k - ((d < 0) & (f == k)), 0, n - 1).astype(np.intp)
            # the ray parameter of the next boundary crossed, and the boundary spacing
            t0 = np.where(d != 0.0, (o + (k + (d > 0)) * cs - p) / d, np.inf)
            dt = cs / abs(d)
            sign = np.sign(d).astype(np.intp)
            axes.append((k, sign, t0, dt, *_crossing_times(k, sign, t0, dt, n)))
    (i0, si, t0x, dtx, times_x, last_x), (j0, sj, t0y, dty, times_y, last_y) = axes
    rows = np.arange(len(ray))
    # a ray stops at its end or where it first leaves the grid; it enters
    # its first cell, then one cell at each distinct crossing time before
    # the stop, so at most width + height - 1 cells
    stop = np.minimum(t_hi[ray], np.minimum(times_x[rows, last_x + 1], times_y[rows, last_y + 1]))
    # the crossings strictly before it: those at or before it, less one at it
    nx, ny = (np.subtract(*_count_at_or_before(times, rows * times.shape[1], stop, t0, dt))
              for times, t0, dt in ((times_x, t0x, dtx), (times_y, t0y, dty)))
    # the x crossings before the stop, and how many y crossings come at or
    # before each; a y crossing at the time of an x crossing (an exact
    # corner) is the same, diagonal step
    start_x = np.cumsum(nx) - nx
    m = np.arange(nx.sum())
    tx = times_x.ravel()[m + np.repeat(rows * times_x.shape[1] + 1 - start_x, nx)]
    cy, tie = _count_at_or_before(times_y, np.repeat(rows * times_y.shape[1], nx), tx,
                                  np.repeat(t0y, nx), np.repeat(dty, nx))
    # one slot per ray for its first cell and one per distinct crossing
    # time, in time order: an x crossing comes after its ray's first cell,
    # the earlier x crossings and the earlier y crossings, less the ties
    # among those
    ties = np.zeros(len(tie) + 1, dtype=np.intp)
    np.cumsum(tie, out=ties[1:])
    crossings = 1 + nx + ny
    first = np.cumsum(crossings) - crossings
    slot_x = m + cy - ties[1:]
    slot_x += np.repeat(first + 1 - start_x, nx)
    first -= ties[start_x]
    per_ray = np.diff(first, append=crossings.sum() - ties[-1])
    # each slot's cell is the previous slot's plus its step: si on x,
    # sj * width on y, both at a tie; a ray's first slot takes the step from
    # the last cell of the ray before it, so one cumsum gives every cell
    delta = np.repeat(sj * width, per_ray)
    delta[slot_x] = np.repeat(si, nx) + np.repeat(sj * width, nx) * tie
    cell0 = j0 * width + i0
    delta[first] = cell0
    delta[first[1:]] -= (cell0 + si * nx + sj * width * ny)[:-1]
    out = np.empty((len(delta), 2), dtype=np.intp, order="F")
    out[:, 0] = np.repeat(ray, per_ray)
    np.cumsum(delta, out=out[:, 1])
    return out


def build_sg(scan: LidarScan, pose: Pose, spec: GridSpec,
             params: SensorGridParams) -> EvidentialGrid:
    """Convert a scan plus pose into a sensor grid on the free/occupied frame.

    Each beam adds one to the free count ``n_f`` of the cells it crosses; a
    hit beam adds one to the hit count ``n_o`` of the cell it ends in
    instead.  Dempster's rule of
    ``n_f`` free and ``n_o`` occupied simple supports is, with
    ``a = (1 - w_f)**n_f`` and ``b = (1 - w_o)**n_o`` the masses each side
    leaves on the frame and ``Z = a + b - a*b = 1 - K``:

        m(F) = (1 - a) b / Z,   m(O) = (1 - b) a / Z,   m(FO) = a b / Z.

    The two powers are ``math.pow``, as numpy's ``**`` can differ in the
    last bit from one CPU to another.  The counts do not depend on the order
    of the beams, so neither does the grid, bit for bit.  Where ``Z = 0``
    (weights of 1 and both kinds of beam: total conflict) the cell stays
    vacuous.  The grid's palette holds one state per distinct pair of
    counts, in ascending (n_f, n_o) order.
    """
    bearings, ranges, hit = scan.columns
    dx, dy = beam_directions(pose.heading, bearings)
    # cells as flat raster indices j * width + i, the cell order of the
    # grid's stored planes; -1 for a beam without a hit cell in the grid
    hit_cell = np.where(hit.astype(bool), spec.world_to_index(pose.x + ranges * dx,
                                                              pose.y + ranges * dy), -1)
    ray, cell = traverse_ray(spec, pose.x, pose.y, dx, dy, ranges).T
    free = cell[cell != hit_cell[ray]]
    hits = hit_cell[hit_cell >= 0]
    n = spec.width * spec.height
    n_free = np.bincount(free, minlength=n)
    n_hit = np.bincount(hits, minlength=n)
    # the closed form once per distinct (n_f, n_o) pair: one palette state each
    first, ids = _distinct_tuples((n_free, n_hit), (n_free.max() + 1, n_hit.max() + 1))
    a, b = (np.array([math.pow(1.0 - w, k) for k in counts[first].tolist()])
            for w, counts in ((params.free_weight, n_free), (params.occupied_weight, n_hit)))
    norm = a + b - a * b
    masses = np.zeros((frames.SENSOR_FRAME.size, len(first)))
    seen = norm > 0.0
    masses[frames.SG_OMEGA, ~seen] = 1.0
    for focal, mass in ((frames.SG_FREE, (1.0 - a) * b), (frames.SG_OCCUPIED, (1.0 - b) * a),
                        (frames.SG_OMEGA, a * b)):
        np.divide(mass, norm, out=masses[focal], where=seen)
    return EvidentialGrid(spec, frames.SENSOR_FRAME, masses, ids.reshape(spec.height, spec.width))

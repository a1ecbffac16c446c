"""Lidar scan to sensor-grid conversion.

All beams of a scan are walked through the grid together, in lockstep, by
one exact cell-stepping traversal (Amanatides & Woo, 1987): cells strictly
before the hit point collect free-space evidence, the cell containing the
hit point collects occupied evidence, cells beyond stay vacuous.  A scan
is reduced to per-cell counts of free and hit beams, and each cell's mass
is Dempster's rule of those beams in closed form, so an occupied verdict is
never overwritten by a free verdict from another beam and the grid does
not depend on the order of the beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import frames
from .grid import EvidentialGrid, GridSpec, _distinct

_TAU = 2.0 * math.pi


def normalize_heading(heading: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    h = heading % _TAU
    if h > math.pi:
        h -= _TAU
    return h


@dataclass(frozen=True)
class Pose:
    """Globally referenced vehicle pose; heading counter-clockwise from east."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.heading))):
            raise ValueError(f"pose must be finite, got ({self.x}, {self.y}, {self.heading})")
        object.__setattr__(self, "heading", normalize_heading(self.heading))


class Beam(NamedTuple):
    bearing: float   # radians, sensor frame
    range: float     # metres
    hit: bool


@dataclass(frozen=True)
class LidarScan:
    beams: tuple[Beam, ...]
    max_range: float

    def __post_init__(self):
        # with a finite max_range the range checks below reject non-finite ranges
        if not 0.0 < self.max_range < math.inf:
            raise ValueError(f"max_range must be finite and > 0, got {self.max_range}")
        object.__setattr__(self, "beams", tuple(Beam(*b) for b in self.beams))
        for k, beam in enumerate(self.beams):
            if not math.isfinite(beam.bearing):
                raise ValueError(f"beam {k}: bearing {beam.bearing} is not finite")
            if beam.hit:
                if not 0.0 < beam.range <= self.max_range:
                    raise ValueError(f"beam {k}: hit range {beam.range} outside (0, max_range]")
            elif beam.range != self.max_range:
                raise ValueError(f"beam {k}: non-hit beams must carry range = max_range")


@dataclass(frozen=True)
class SensorGridParams:
    """Evidence weights of the beam model, each in [0, 1]."""

    free_weight: float = 0.7
    occupied_weight: float = 0.8

    def __post_init__(self):
        for name in ("free_weight", "occupied_weight"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def traverse_ray(spec: GridSpec, x0: float, y0: float, dx: np.ndarray, dy: np.ndarray,
                 length: np.ndarray) -> np.ndarray:
    """In-bounds cells entered by each ray segment, all rays stepped together.

    Ray k runs from (x0, y0) along (dx[k], dy[k]) and enters a cell when it
    reaches it strictly before length[k]; exact corner hits step diagonally,
    so no zero-dwell cell is reported.  Returns one row (k, j * width + i)
    per entered cell, each ray's rows in order along it.  Each ray does the
    operations of the scalar Amanatides & Woo traversal in the same order.
    """
    ox, oy, cs = spec.origin_east, spec.origin_north, spec.cell_size
    width, height = spec.width, spec.height
    t_lo, t_hi = np.zeros(len(length)), length
    # slab clipping; np.where drops the quotients of d == 0 (the ray enters no
    # cell if it starts outside on that axis); a subnormal d overflows to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, d, lo, hi in ((x0, dx, ox, ox + width * cs), (y0, dy, oy, oy + height * cs)):
            moving = d != 0.0
            t1, t2 = (lo - p) / d, (hi - p) / d
            t_lo = np.where(moving, np.maximum(t_lo, np.minimum(t1, t2)), t_lo)
            t_hi = np.where(moving, np.minimum(t_hi, np.maximum(t1, t2)),
                            t_hi if lo <= p <= hi else -np.inf)
        ray = np.flatnonzero(t_lo < t_hi)
        times, steps = [], []
        for p, d, o, n in ((x0, dx[ray], ox, width), (y0, dy[ray], oy, height)):
            f = (p + t_lo[ray] * d - o) / cs
            k = np.floor(f)
            # entering exactly on a boundary while moving towards lower
            # indices means leaving the floor() cell, not entering it
            k = np.clip(k - ((d < 0) & (f == k)), 0, n - 1)
            # the ray parameter of the next boundary crossed, and the boundary spacing
            times += [np.where(d != 0.0, (o + (k + (d > 0)) * cs - p) / d, np.inf), cs / abs(d)]
            steps += [k, np.sign(d)]
    # the stepping state, one column per live ray
    times = np.stack(times + [t_hi[ray]])
    steps = np.stack(steps).astype(np.intp)
    rays, cells = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for _ in range(width + height + 2):
        if not ray.size:
            break
        tx, dtx, ty, dty, t_end = times
        i, si, j, sj = steps
        rays.append(ray)
        cells.append(j * width + i)
        t_next = np.minimum(tx, ty)
        for t, dt, k, sign in ((tx, dtx, i, si), (ty, dty, j, sj)):
            step = t <= t_next
            np.add(t, dt, out=t, where=step)
            np.add(k, sign, out=k, where=step)
        alive = (t_next < t_end) & (i >= 0) & (i < width) & (j >= 0) & (j < height)
        if not alive.all():
            ray, times, steps = ray[alive], times[:, alive], steps[:, alive]
    out = np.empty((sum(map(len, rays)), 2), dtype=np.intp)
    np.concatenate(rays, out=out[:, 0])
    np.concatenate(cells, out=out[:, 1])
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

    The counts do not depend on the order of the beams, so neither does the
    grid, bit for bit.  Where ``Z = 0`` (weights of 1 and both kinds of
    beam: total conflict) the cell stays vacuous.  The grid's palette holds
    one state per distinct pair of counts.
    """
    bearings, ranges, hit = np.array(scan.beams, dtype=float).reshape(-1, 3).T
    # math.cos/math.sin, not np.cos/np.sin, which can differ in the last bit
    angles = (pose.heading + bearings).tolist()
    dx = np.array([math.cos(angle) for angle in angles])
    dy = np.array([math.sin(angle) for angle in angles])
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
    radix = int(n_hit.max()) + 1
    pairs, ids = _distinct(n_free * radix + n_hit, (int(n_free.max()) + 1) * radix)
    n_f, n_o = np.divmod(pairs, radix)
    a = (1.0 - params.free_weight) ** n_f
    b = (1.0 - params.occupied_weight) ** n_o
    norm = a + b - a * b
    masses = np.zeros((frames.SENSOR_FRAME.size, len(pairs)))
    seen = norm > 0.0
    masses[frames.SG_OMEGA, ~seen] = 1.0
    for focal, mass in ((frames.SG_FREE, (1.0 - a) * b), (frames.SG_OCCUPIED, (1.0 - b) * a),
                        (frames.SG_OMEGA, a * b)):
        np.divide(mass, norm, out=masses[focal], where=seen)
    return EvidentialGrid(spec, frames.SENSOR_FRAME, masses, ids.reshape(spec.height, spec.width))

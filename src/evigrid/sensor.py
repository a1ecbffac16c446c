"""Lidar scan to sensor-grid conversion.

Each beam is walked through the grid with an exact cell-stepping traversal:
cells strictly before the hit point collect free-space evidence, the cell
containing the hit point collects occupied evidence, cells beyond stay
vacuous.  A scan is reduced to per-cell counts of free and hit beams, and
each cell's mass is Dempster's rule of those beams in closed form, so an
occupied verdict is never overwritten by a free verdict from another beam
and the grid does not depend on the order of the beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import frames
from .grid import EvidentialGrid, GridSpec

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


def traverse_ray(spec: GridSpec, x0: float, y0: float,
                 dx: float, dy: float, length: float) -> list[tuple[int, int]]:
    """In-bounds cells entered by the ray segment, in order along the ray.

    A cell is included when the ray enters it strictly before `length`; exact
    corner hits step diagonally so no zero-dwell cell is reported.
    """
    ox, oy, cs = spec.origin_east, spec.origin_north, spec.cell_size
    t_lo, t_hi = 0.0, length
    for p, d, lo, hi in ((x0, dx, ox, ox + spec.width * cs),
                         (y0, dy, oy, oy + spec.height * cs)):
        if d == 0.0:
            if not lo <= p <= hi:
                return []
        else:
            t1 = (lo - p) / d
            t2 = (hi - p) / d
            if t1 > t2:
                t1, t2 = t2, t1
            t_lo = max(t_lo, t1)
            t_hi = min(t_hi, t2)
    if t_lo >= t_hi:
        return []
    px, py = x0 + t_lo * dx, y0 + t_lo * dy
    fi = (px - ox) / cs
    fj = (py - oy) / cs
    i, j = math.floor(fi), math.floor(fj)
    # Entering exactly on a boundary while moving towards lower indices means
    # the ray is about to leave the floor() cell, not enter it.
    if dx < 0 and fi == i:
        i -= 1
    if dy < 0 and fj == j:
        j -= 1
    i = min(max(i, 0), spec.width - 1)
    j = min(max(j, 0), spec.height - 1)

    if dx > 0:
        si, tx, dtx = 1, (ox + (i + 1) * cs - x0) / dx, cs / dx
    elif dx < 0:
        si, tx, dtx = -1, (ox + i * cs - x0) / dx, -cs / dx
    else:
        si, tx, dtx = 0, math.inf, math.inf
    if dy > 0:
        sj, ty, dty = 1, (oy + (j + 1) * cs - y0) / dy, cs / dy
    elif dy < 0:
        sj, ty, dty = -1, (oy + j * cs - y0) / dy, -cs / dy
    else:
        sj, ty, dty = 0, math.inf, math.inf

    cells: list[tuple[int, int]] = []
    for _ in range(spec.width + spec.height + 2):
        if not (0 <= i < spec.width and 0 <= j < spec.height):
            break
        cells.append((i, j))
        t_next = min(tx, ty)
        if t_next >= t_hi:
            break
        if tx <= t_next:
            tx += dtx
            i += si
        if ty <= t_next:
            ty += dty
            j += sj
    return cells


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
    beam: total conflict) the cell stays vacuous.
    """
    # each beam's cells as flat raster indices j * width + i, the cell order
    # of the grid's stored planes
    width = spec.width
    free, hits = [np.empty(0, dtype=np.intp)], []
    for beam in scan.beams:
        angle = pose.heading + beam.bearing
        dx, dy = math.cos(angle), math.sin(angle)
        cells = np.array(traverse_ray(spec, pose.x, pose.y, dx, dy, beam.range),
                         dtype=np.intp).reshape(-1, 2)
        crossed = cells[:, 1] * width + cells[:, 0]
        if beam.hit:
            hit_cell = spec.world_to_cell(pose.x + beam.range * dx, pose.y + beam.range * dy)
            if hit_cell is not None:
                hit = hit_cell[1] * width + hit_cell[0]
                hits.append(hit)
                crossed = crossed[crossed != hit]
        free.append(crossed)
    n = width * spec.height
    a = (1.0 - params.free_weight) ** np.bincount(np.concatenate(free), minlength=n)
    b = (1.0 - params.occupied_weight) ** np.bincount(hits, minlength=n)
    norm = a + b - a * b
    grid = EvidentialGrid(spec, frames.SENSOR_FRAME)
    masses = grid.masses.T.reshape(frames.SENSOR_FRAME.size, n)
    seen = norm > 0.0
    for focal, mass in ((frames.SG_FREE, (1.0 - a) * b), (frames.SG_OCCUPIED, (1.0 - b) * a),
                        (frames.SG_OMEGA, a * b)):
        np.divide(mass, norm, out=masses[focal], where=seen)
    return grid

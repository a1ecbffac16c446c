"""Independent brute-force oracles for the combination rules and the map
prior.

The rule oracles iterate over *all* 2**n x 2**n subset pairs (not just focal
elements) and never share code with the implementation under test.  The map
oracles classify one cell centre at a time with the scalar even-odd test.
"""

import numpy as np

from evigrid import frames
from evigrid.dst import FrameOfDiscernment, MassFunction
from evigrid.grid import EvidentialGrid, GridSpec
from evigrid.map_ingest import _EDGE_EPS, MapConfidence, MapOverlapError, VectorMap


def conjunctive_oracle(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    size = m1.frame.size
    out = np.zeros(size)
    for b in range(size):
        for c in range(size):
            out[b & c] += m1.masses[b] * m2.masses[c]
    return out


def disjunctive_oracle(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    size = m1.frame.size
    out = np.zeros(size)
    for b in range(size):
        for c in range(size):
            out[b | c] += m1.masses[b] * m2.masses[c]
    return out


def dempster_oracle(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    out = conjunctive_oracle(m1, m2)
    k = out[0]
    out[0] = 0.0
    return out / (1.0 - k)


def pignistic_oracle(m: MassFunction) -> np.ndarray:
    n = m.frame.n
    bet = np.zeros(n)
    for a in range(1, m.frame.size):
        card = bin(a).count("1")
        for k in range(n):
            if a >> k & 1:
                bet[k] += m.masses[a] / card
    return bet


def random_mass(rng: np.random.Generator, frame: FrameOfDiscernment,
                max_focal: int = 4) -> MassFunction:
    """A random normal mass function with up to max_focal focal elements."""
    n_focal = int(rng.integers(1, max_focal + 1))
    subsets = rng.choice(np.arange(1, frame.size), size=min(n_focal, frame.size - 1),
                         replace=False)
    weights = rng.random(len(subsets))
    weights /= weights.sum()
    arr = np.zeros(frame.size)
    arr[subsets] = weights
    return MassFunction(frame, arr)


def point_in_polygon_oracle(point, polygon: np.ndarray) -> bool:
    """The scalar even-odd test, one point at a time: boundary points (within
    ``_EDGE_EPS`` of an edge) are inside."""
    x, y = float(point[0]), float(point[1])
    inside = False
    n = len(polygon)
    for k in range(n):
        x1, y1 = polygon[k]
        x2, y2 = polygon[(k + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if (abs(cross) <= _EDGE_EPS
                and min(x1, x2) - _EDGE_EPS <= x <= max(x1, x2) + _EDGE_EPS
                and min(y1, y2) - _EDGE_EPS <= y <= max(y1, y2) + _EDGE_EPS):
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def rasterize_oracle(vmap: VectorMap, conf: MapConfidence, spec: GridSpec) -> np.ndarray:
    """The prior-grid masses, classified cell by cell with the scalar test."""
    masses = EvidentialGrid(spec, frames.PERCEPTION_FRAME).masses
    omega = frames.PG_OMEGA
    for j in range(spec.height):
        for i in range(spec.width):
            center = spec.cell_center(i, j)
            in_building = any(point_in_polygon_oracle(center, p) for p in vmap.buildings)
            in_road = any(point_in_polygon_oracle(center, p) for p in vmap.roads)
            if in_building and in_road:
                raise MapOverlapError(f"map overlap at cell ({i}, {j})")
            cell = masses[i, j]
            cell[omega] = 0.0
            if in_building:
                cell[frames.BUILDING_SET] = conf.building
                cell[omega] = 1.0 - conf.building
            elif in_road:
                cell[frames.ROAD_SET] = conf.road
                cell[omega] = 1.0 - conf.road
            else:
                cell[frames.INTERMEDIATE_SET] = conf.intermediate
                cell[omega] = 1.0 - conf.intermediate
    return masses

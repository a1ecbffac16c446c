"""Vector map loading and rasterization into the map-prior grid.

Maps are a GeoJSON subset: a FeatureCollection of Polygon features, each with
a property ``kind`` equal to ``"building"`` or ``"road"``, coordinates already
in planar metres in the global frame.  Building and road regions must be
disjoint; overlap is detected during rasterization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import frames
from .dst import MassFunction
from .grid import EvidentialGrid, GridSpec

# Tolerance for the boundary-inclusive point-on-edge test (metres^2 scale in
# the cross product; map coordinates are metres, so this is far below any
# meaningful geometry).
_EDGE_EPS = 1e-9

FEATURE_KINDS = ("building", "road")


class MapFormatError(ValueError):
    """A map file could not be parsed or violates the schema."""


class MapOverlapError(MapFormatError):
    """A cell center falls inside both a building and a road polygon."""


@dataclass
class VectorMap:
    """Two disjoint polygon sets: buildings and roads.

    Each polygon is an (k, 2) array of vertices in metres, without a closing
    duplicate vertex.  Polygons are assumed simple (non-self-intersecting).
    """

    buildings: list[np.ndarray] = field(default_factory=list)
    roads: list[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True)
class MapConfidence:
    """Provider confidence per map context, each in [0, 1]."""

    building: float = 0.9
    road: float = 0.8
    intermediate: float = 0.6

    def __post_init__(self):
        for name in ("building", "road", "intermediate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} confidence must be in [0, 1], got {value}")


def _parse_polygon(feature_idx: int, geometry: dict) -> np.ndarray:
    if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
        raise MapFormatError(f"feature {feature_idx}: geometry must be a Polygon")
    coords = geometry.get("coordinates")
    if not coords or not isinstance(coords, list):
        raise MapFormatError(f"feature {feature_idx}: missing polygon coordinates")
    ring = coords[0]
    if len(ring) >= 2 and ring[0] == ring[-1]:
        ring = ring[:-1]
    if len(ring) < 3:
        raise MapFormatError(f"feature {feature_idx}: polygon needs at least 3 vertices")
    try:
        poly = np.asarray(ring, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"feature {feature_idx}: non-numeric coordinates") from exc
    if poly.ndim != 2 or poly.shape[1] != 2:
        raise MapFormatError(f"feature {feature_idx}: vertices must be [x, y] pairs")
    return poly


def load_map(path) -> VectorMap:
    """Load a GeoJSON-subset map file, partitioning features by kind."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MapFormatError(f"cannot read map file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"map file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("type") != "FeatureCollection":
        raise MapFormatError(f"map file {path} must be a FeatureCollection")
    vmap = VectorMap()
    for idx, feature in enumerate(data.get("features", [])):
        props = feature.get("properties") or {}
        kind = props.get("kind")
        if kind is None:
            raise MapFormatError(f"feature {idx}: missing kind property")
        if kind not in FEATURE_KINDS:
            raise MapFormatError(f"feature {idx}: unknown feature kind {kind!r}")
        poly = _parse_polygon(idx, feature.get("geometry"))
        (vmap.buildings if kind == "building" else vmap.roads).append(poly)
    return vmap


def point_in_polygon(point, polygon: np.ndarray) -> bool:
    """Even-odd (ray-crossing) membership test; boundary points are inside."""
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


def rasterize_gg(vmap: VectorMap, conf: MapConfidence, spec: GridSpec) -> EvidentialGrid:
    """Build the map-prior grid from the cell-center classification.

    Building cells support mapped infrastructure, road cells support whatever
    can occupy a road, everything else is intermediate space; the complement
    of the confidence stays on the full frame.
    """
    grid = EvidentialGrid(spec, frames.PERCEPTION_FRAME)
    omega = frames.PG_OMEGA
    for j in range(spec.height):
        for i in range(spec.width):
            center = spec.cell_center(i, j)
            in_building = any(point_in_polygon(center, p) for p in vmap.buildings)
            in_road = any(point_in_polygon(center, p) for p in vmap.roads)
            if in_building and in_road:
                raise MapOverlapError(f"map overlap at cell ({i}, {j})")
            cell = grid.masses[i, j]
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
    return grid


def context_of_cell(gg: EvidentialGrid, i: int, j: int) -> str:
    """Map context of a prior-grid cell: building, road or intermediate.

    A vacuous cell (all confidences zero) counts as intermediate.
    """
    cell = gg.masses[i, j]
    if cell[frames.BUILDING_SET] > 0.0:
        return "building"
    if cell[frames.ROAD_SET] > 0.0:
        return "road"
    return "intermediate"

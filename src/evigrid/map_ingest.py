"""Vector map loading and rasterization into the map-prior grid.

Maps are a GeoJSON subset: a FeatureCollection of Polygon features, each with
a property ``kind`` equal to ``"building"`` or ``"road"``, coordinates already
in planar metres in the global frame.  Building and road regions must be
disjoint; rasterization finds overlap at cell centres laid out as the ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import frames
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


def _parse_polygon(where: str, geometry: dict) -> np.ndarray:
    if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
        raise MapFormatError(f"{where}: geometry must be a Polygon")
    coords = geometry.get("coordinates")
    if not coords or not isinstance(coords, list):
        raise MapFormatError(f"{where}: missing polygon coordinates")
    ring = coords[0]
    if not isinstance(ring, list):
        raise MapFormatError(f"{where}: polygon ring {ring!r} is not a list of vertices")
    if len(ring) >= 2 and ring[0] == ring[-1]:
        ring = ring[:-1]
    if len(ring) < 3:
        raise MapFormatError(f"{where}: polygon needs at least 3 vertices")
    try:
        poly = np.asarray(ring, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"{where}: non-numeric coordinates") from exc
    if poly.ndim != 2 or poly.shape[1] != 2:
        raise MapFormatError(f"{where}: vertices must be [x, y] pairs")
    if not np.isfinite(poly).all():
        raise MapFormatError(f"{where}: coordinates must be finite")
    return poly


def load_map(path) -> VectorMap:
    """Load a GeoJSON-subset map file, partitioning features by kind.  Every
    error names the file, and the feature at fault."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MapFormatError(f"cannot read map file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MapFormatError(f"map file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("type") != "FeatureCollection":
        raise MapFormatError(f"map file {path} must be a FeatureCollection")
    features = data.get("features", [])
    if not isinstance(features, list):
        raise MapFormatError(f"map file {path}: features must be a list")
    vmap = VectorMap()
    for idx, feature in enumerate(features):
        where = f"map file {path}: feature {idx}"
        if not isinstance(feature, dict):
            raise MapFormatError(f"{where} is not an object")
        props = feature.get("properties") or {}
        if not isinstance(props, dict):
            raise MapFormatError(f"{where}: properties must be an object")
        kind = props.get("kind")
        if kind is None:
            raise MapFormatError(f"{where}: missing kind property")
        if kind not in FEATURE_KINDS:
            raise MapFormatError(f"{where}: unknown feature kind {kind!r}")
        poly = _parse_polygon(where, feature.get("geometry"))
        (vmap.buildings if kind == "building" else vmap.roads).append(poly)
    return vmap


def point_in_polygon(points, polygon: np.ndarray) -> np.ndarray:
    """Even-odd (ray-crossing) membership test; boundary points are inside.

    ``points`` is array-like with (x, y) on its last axis; the result is a
    bool array of the leading shape (0-d for a single point).  The loop runs
    over the polygon's edges, each tested against every point at once.
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    on_edge = np.zeros(x.shape, dtype=bool)
    inside = np.zeros(x.shape, dtype=bool)
    for (x1, y1), (x2, y2) in zip(polygon, np.roll(polygon, -1, axis=0)):
        dy = y - y1
        cross = (x2 - x1) * dy - (y2 - y1) * (x - x1)
        # the bounding-box test only where the point is on the edge's line
        near = np.flatnonzero(np.abs(cross) <= _EDGE_EPS)
        xn, yn = x[near], y[near]
        on_edge[near] |= ((min(x1, x2) - _EDGE_EPS <= xn) & (xn <= max(x1, x2) + _EDGE_EPS)
                          & (min(y1, y2) - _EDGE_EPS <= yn) & (yn <= max(y1, y2) + _EDGE_EPS))
        # the crossing only where the edge straddles the point's ray, so a
        # horizontal edge never divides by zero
        k = np.flatnonzero((y1 > y) != (y2 > y))
        inside[k] ^= x[k] < x1 + dy[k] * (x2 - x1) / (y2 - y1)
    return (on_edge | inside).reshape(pts.shape[:-1])


def rasterize_gg(vmap: VectorMap, conf: MapConfidence, spec: GridSpec) -> EvidentialGrid:
    """Build the map-prior grid from the cell-center classification.

    Building cells support mapped infrastructure, road cells support whatever
    can occupy a road, everything else is intermediate space; the complement
    of the confidence stays on the full frame.  The grid's palette holds one
    state per context that some cell has.
    """
    # cell centres in the (height, width) layout of the palette ids
    xs, ys = spec.cell_centers(np.arange(spec.width), np.arange(spec.height)[:, None])
    centres = np.stack(np.broadcast_arrays(xs, ys), axis=-1)
    in_building, in_road = np.zeros((2, spec.height, spec.width), dtype=bool)
    for mask, polygons in ((in_building, vmap.buildings), (in_road, vmap.roads)):
        for polygon in polygons:
            mask |= point_in_polygon(centres, polygon)
    overlap = in_building & in_road
    if overlap.any():
        j, i = np.argwhere(overlap)[0]
        raise MapOverlapError(f"map overlap at cell ({i}, {j})")
    # one palette state per context present, named by the context's mask
    ids = np.empty((spec.height, spec.width), dtype=np.intp)
    states = []
    for mask, focal, confidence in (
            (in_building, frames.BUILDING_SET, conf.building),
            (in_road, frames.ROAD_SET, conf.road),
            (~(in_building | in_road), frames.INTERMEDIATE_SET, conf.intermediate)):
        if mask.any():
            ids[mask] = len(states)
            state = np.zeros(frames.PERCEPTION_FRAME.size)
            state[focal] = confidence
            state[frames.PG_OMEGA] = 1.0 - confidence
            states.append(state)
    return EvidentialGrid(spec, frames.PERCEPTION_FRAME, np.stack(states, axis=1), ids)

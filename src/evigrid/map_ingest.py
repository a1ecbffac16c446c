"""Vector map loading and rasterization into the map-prior grid.

Maps are a GeoJSON subset: a FeatureCollection of Polygon features of one
ring each (no holes), each with a property ``kind`` equal to ``"building"``
or ``"road"``, coordinates already in planar metres in the global frame.
Building and road regions must be disjoint; rasterization finds overlap at
cell centres laid out as the ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import frames
from .grid import EvidentialGrid, GridSpec, _check_fields, _number, _parse_file, _unit

# Tolerance for the boundary-inclusive point-on-edge test (metres^2 scale in
# the cross product; map coordinates are metres, so this is far below any
# meaningful geometry).
_EDGE_EPS = 1e-9

# the mapped contexts; a cell in no polygon is intermediate space
FEATURE_KINDS = frames.MAP_CONTEXTS[:2]


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
        _check_fields(self, _unit, frames.MAP_CONTEXTS)


def _parse_polygon(where: str, geometry: dict) -> np.ndarray:
    if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
        raise MapFormatError(f"{where}: geometry must be a Polygon")
    coords = geometry.get("coordinates")
    if not coords or not isinstance(coords, list):
        raise MapFormatError(f"{where}: missing polygon coordinates")
    if len(coords) > 1:
        raise MapFormatError(f"{where}: polygon has {len(coords)} rings; holes are not supported")
    ring = coords[0]
    if not isinstance(ring, list):
        raise MapFormatError(f"{where}: polygon ring {ring!r} is not a list of vertices")
    if len(ring) >= 2 and ring[0] == ring[-1]:
        ring = ring[:-1]
    if len(ring) < 3:
        raise MapFormatError(f"{where}: polygon needs at least 3 vertices")
    if not all(isinstance(vertex, list) and len(vertex) == 2 for vertex in ring):
        raise MapFormatError(f"{where}: vertices must be [x, y] pairs")
    # JSON numbers only, each checked: numpy would parse "1.5" and true
    return np.array([(_number(x, f"{where}: vertex {k} x"), _number(y, f"{where}: vertex {k} y"))
                     for k, (x, y) in enumerate(ring)])


def load_map(path) -> VectorMap:
    """Load a GeoJSON-subset map file, partitioning features by kind.  Every
    error names the file, and the feature at fault."""
    return _parse_file(path, "map file", _parse_map, MapFormatError)


def _parse_map(data: dict) -> VectorMap:
    """The map of a map file's JSON object; errors name the feature."""
    if data.get("type") != "FeatureCollection":
        raise MapFormatError(f"type {data.get('type')!r} is not 'FeatureCollection'")
    features = data.get("features", [])
    if not isinstance(features, list):
        raise MapFormatError("features must be a list")
    vmap = VectorMap()
    for idx, feature in enumerate(features):
        where = f"feature {idx}"
        if not isinstance(feature, dict):
            raise MapFormatError(f"{where} is not an object")
        props = feature.get("properties")
        if props is not None and not isinstance(props, dict):
            raise MapFormatError(f"{where}: properties must be an object")
        kind = props.get("kind") if props else None
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
    of the confidence stays on the full frame.  The grid's palette holds the
    three context states in the order of ``frames.MAP_CONTEXTS``, whether or
    not some cell has them, so a cell's palette id is its context.
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
    states = np.zeros((frames.PERCEPTION_FRAME.size, len(frames.MAP_CONTEXTS)))
    for k, (name, focal) in enumerate(zip(frames.MAP_CONTEXTS, frames.CONTEXT_SETS)):
        confidence = getattr(conf, name)
        states[focal, k] = confidence
        states[frames.PG_OMEGA, k] = 1.0 - confidence
    # each cell's context, an index into frames.MAP_CONTEXTS
    ids = np.select([in_building, in_road], [0, 1], 2)
    return EvidentialGrid(spec, frames.PERCEPTION_FRAME, states, ids)

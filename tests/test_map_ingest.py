"""Map loading, point-in-polygon and prior-grid rasterization."""

import json
from pathlib import Path

import numpy as np
import pytest

from evigrid import frames
from evigrid.grid import GridSpec
from evigrid.map_ingest import (MapConfidence, MapFormatError, MapOverlapError,
                                VectorMap, load_map, point_in_polygon,
                                rasterize_gg)
from evigrid.simulator import ScenarioConfig
from oracles import cell_mass, point_in_polygon_oracle, rasterize_oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

UNIT_SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def write_map(path, features):
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def polygon_feature(kind, ring):
    return {"type": "Feature", "properties": {"kind": kind},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


SQUARE_RING = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]


class TestLoadMap:
    def test_single_building(self, tmp_path):
        path = write_map(tmp_path / "m.geojson", [polygon_feature("building", SQUARE_RING)])
        vmap = load_map(path)
        assert len(vmap.buildings) == 1
        assert len(vmap.roads) == 0
        assert vmap.buildings[0].shape == (4, 2)  # closing vertex stripped

    def test_unknown_kind(self, tmp_path):
        path = write_map(tmp_path / "m.geojson", [polygon_feature("river", SQUARE_RING)])
        with pytest.raises(MapFormatError, match="unknown feature kind"):
            load_map(path)

    def test_missing_kind(self, tmp_path):
        feature = polygon_feature("building", SQUARE_RING)
        del feature["properties"]["kind"]
        path = write_map(tmp_path / "m.geojson", [feature])
        with pytest.raises(MapFormatError, match="missing kind"):
            load_map(path)

    @pytest.mark.parametrize("properties", [[], 0, "", False, ["kind"], "building"])
    def test_properties_not_an_object(self, tmp_path, properties):
        feature = polygon_feature("building", SQUARE_RING)
        feature["properties"] = properties
        path = write_map(tmp_path / "m.geojson", [feature])
        with pytest.raises(MapFormatError, match="feature 0: properties must be an object"):
            load_map(path)

    @pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
    def test_null_or_absent_properties_miss_the_kind(self, tmp_path, absent):
        feature = polygon_feature("building", SQUARE_RING)
        if absent:
            del feature["properties"]
        else:
            feature["properties"] = None
        path = write_map(tmp_path / "m.geojson", [feature])
        with pytest.raises(MapFormatError, match="feature 0: missing kind property"):
            load_map(path)

    def test_too_few_vertices(self, tmp_path):
        path = write_map(tmp_path / "m.geojson",
                         [polygon_feature("road", [[0, 0], [1, 1], [0, 0]])])
        with pytest.raises(MapFormatError, match="at least 3 vertices"):
            load_map(path)

    def test_empty_collection(self, tmp_path):
        vmap = load_map(write_map(tmp_path / "m.geojson", []))
        assert vmap.buildings == [] and vmap.roads == []

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.geojson"
        path.write_text("not json {")
        with pytest.raises(MapFormatError, match="not valid JSON"):
            load_map(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MapFormatError, match="cannot read"):
            load_map(tmp_path / "nope.geojson")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10**400, id="10**400")])
    def test_non_finite_coordinates(self, tmp_path, value):
        ring = [list(v) for v in SQUARE_RING]
        ring[1][0] = value
        path = write_map(tmp_path / "m.geojson", [polygon_feature("road", SQUARE_RING),
                                                  polygon_feature("building", ring)])
        with pytest.raises(MapFormatError, match="feature 1: .*finite"):
            load_map(path)

    @pytest.mark.parametrize("value", ["1.5", True, False, None])
    def test_non_numeric_coordinates(self, tmp_path, value):
        # numpy would read the string and the booleans as numbers
        ring = [list(v) for v in SQUARE_RING]
        ring[1][0] = value
        path = write_map(tmp_path / "m.geojson", [polygon_feature("road", SQUARE_RING),
                                                  polygon_feature("building", ring)])
        with pytest.raises(MapFormatError, match=r"feature 1: vertex 1 x \S+ is not a number$"):
            load_map(path)

    def test_polygon_with_hole_rejected(self, tmp_path):
        # a courtyard would be rasterized solid, and a road inside it would
        # be reported as overlapping the building
        feature = polygon_feature("building", SQUARE_RING)
        feature["geometry"]["coordinates"].append([[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]])
        road = polygon_feature("road", [[4.5, 4.5], [5.5, 4.5], [5.5, 5.5], [4.5, 5.5]])
        path = write_map(tmp_path / "m.geojson", [road, feature])
        with pytest.raises(MapFormatError, match=r"m\.geojson: feature 1: polygon has 2 rings"):
            load_map(path)


def winding_number_inside(point, polygon):
    """Independent oracle: winding number via summed signed angles."""
    angles = np.arctan2(polygon[:, 1] - point[1], polygon[:, 0] - point[0])
    total = 0.0
    n = len(polygon)
    for k in range(n):
        d = angles[(k + 1) % n] - angles[k]
        while d > np.pi:
            d -= 2 * np.pi
        while d < -np.pi:
            d += 2 * np.pi
        total += d
    return abs(total) > np.pi  # ~2*pi inside, ~0 outside


# A notched (non-convex) polygon with horizontal, vertical and slanted edges,
# and the same shape rotated and shifted off the lattice.
NOTCHED = np.array([(0, 0), (6, 0), (6, 4), (4, 4), (3, 2), (2, 4), (0, 4)], dtype=float)
_TURN = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
TURNED = NOTCHED @ _TURN.T + (0.03, -1.7)


def boundary_probes(polygon):
    """Every vertex, points level with every vertex (whose rays pass through
    it), points along every edge, and those points moved 1e-10 (inside the
    edge tolerance) and 1e-8 (outside it) either way along the edge normal."""
    shifts = np.array([-2.5, -1.0, -0.5, 0.5, 1.0, 2.5])
    probes = [polygon] + [np.column_stack([x + shifts, np.full(len(shifts), y)])
                          for x, y in polygon]
    for a, b in zip(polygon, np.roll(polygon, -1, axis=0)):
        normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.hypot(*(b - a))
        for frac in (0.5, 0.25, 1 / 3):
            on = a + frac * (b - a)
            probes.append([on] + [on + sign * d * normal
                                  for d in (1e-10, 1e-8) for sign in (1, -1)])
    return np.vstack(probes)


class TestPointInPolygon:
    def test_center(self):
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)

    def test_outside(self):
        assert not point_in_polygon((2.0, 2.0), UNIT_SQUARE)

    def test_vertex_is_inside(self):
        assert point_in_polygon((0.0, 0.0), UNIT_SQUARE)

    def test_edge_is_inside(self):
        assert point_in_polygon((0.5, 0.0), UNIT_SQUARE)
        assert point_in_polygon((1.0, 0.5), UNIT_SQUARE)

    def test_matches_winding_oracle(self):
        rng = np.random.default_rng(7)
        # a non-convex polygon
        poly = np.array([(0, 0), (4, 0), (4, 3), (2, 1.5), (0, 3)])
        for _ in range(500):
            p = rng.uniform(-1, 5, size=2)
            # stay away from the boundary, where the conventions differ
            if abs(p[1] - 0) < 1e-6:
                continue
            assert point_in_polygon(p, poly) == winding_number_inside(p, poly)

    @pytest.mark.parametrize("polygon", [NOTCHED, TURNED], ids=["notched", "turned"])
    def test_equals_scalar_oracle(self, polygon):
        rng = np.random.default_rng(11)
        points = np.vstack([rng.uniform(-1.0, 7.0, size=(2000, 2)), boundary_probes(polygon)])
        got = point_in_polygon(points, polygon)
        assert got.shape == (len(points),) and got.dtype == bool
        want = np.array([point_in_polygon_oracle(p, polygon) for p in points])
        assert np.array_equal(got, want)
        # the points fall on both sides
        assert got.any() and not got.all()

    def test_leading_shape(self):
        points = np.array([[[0.5, 0.5], [2.0, 2.0]], [[1.0, 0.5], [-0.1, 0.5]]])
        assert np.array_equal(point_in_polygon(points, UNIT_SQUARE),
                              [[True, False], [True, False]])
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE).shape == ()

    def test_far_point_against_sloped_edges(self):
        """A point so far from a triangle that its cross products overflow
        to inf and inf - inf is outside, without a numeric warning."""
        triangle = np.array([(0.0, 0.0), (10.0, 3.0), (4.0, 9.0)])
        points = np.array([(1.5e308, 1.5e308), (-1.5e308, 1.0), (4.0, 4.0)])
        assert point_in_polygon(points, triangle).tolist() == [False, False, True]


def scenario_prior(name):
    cfg = ScenarioConfig.from_file(SCENARIOS / name)
    return load_map(cfg.map_path), cfg.map_confidence, cfg.grid


# Edges on cell centres: cell size 0.5 puts centres at odd multiples of 0.25.
CENTRED_SPEC = GridSpec(0.0, 0.0, 0.5, 20, 16)
CENTRED_MAP = VectorMap(
    buildings=[np.array([(0.25, 0.25), (2.75, 0.25), (2.75, 2.75), (0.25, 2.75)]),
               np.array([(5.25, 5.25), (9.75, 5.25), (5.25, 9.75)])],
    roads=[np.array([(3.75, 0.25), (9.75, 0.25), (9.75, 1.75), (6.25, 1.75),
                     (6.25, 4.25), (3.75, 4.25)]),
           np.array([(0.25, 4.75), (4.25, 4.75), (0.25, 7.75)])])


class TestRasterizeMatchesOracle:
    @pytest.mark.parametrize("name", ["crossing_car.json", "parked_then_leaves.json",
                                      "street_canyon.json"])
    def test_shipped_scenarios(self, name):
        vmap, conf, spec = scenario_prior(name)
        assert vmap.buildings and vmap.roads
        got = rasterize_gg(vmap, conf, spec).masses
        assert got.tobytes() == rasterize_oracle(vmap, conf, spec).tobytes()

    def test_intersection_map(self):
        vmap = load_map(SCENARIOS / "maps" / "intersection.geojson")
        conf, spec = MapConfidence(0.95, 0.7, 0.55), GridSpec(0.0, 0.0, 0.25, 120, 120)
        got = rasterize_gg(vmap, conf, spec).masses
        assert got.tobytes() == rasterize_oracle(vmap, conf, spec).tobytes()

    def test_edges_on_cell_centres(self):
        conf = MapConfidence(0.7, 0.65, 0.3)
        got = rasterize_gg(CENTRED_MAP, conf, CENTRED_SPEC).masses
        want = rasterize_oracle(CENTRED_MAP, conf, CENTRED_SPEC)
        assert got.tobytes() == want.tobytes()
        # centres on a vertex and on an edge are inside; the next one is not
        assert got[0, 0, frames.BUILDING_SET] == got[3, 5, frames.BUILDING_SET] == 0.7
        assert got[3, 6, frames.INTERMEDIATE_SET] == 0.3


class TestRasterize:
    SPEC = GridSpec(0.0, 0.0, 1.0, 4, 4)

    def test_contexts(self):
        vmap = VectorMap(buildings=[np.array([(0, 0), (2, 0), (2, 2), (0, 2)])],
                         roads=[np.array([(2, 2), (4, 2), (4, 4), (2, 4)])])
        conf = MapConfidence(building=0.9, road=0.8, intermediate=0.6)
        gg = rasterize_gg(vmap, conf, self.SPEC)
        building_cell = cell_mass(gg, 0, 0)
        assert building_cell[frames.BUILDING_SET] == pytest.approx(0.9)
        assert building_cell["FIUSM"] == pytest.approx(0.1)
        road_cell = cell_mass(gg, 3, 3)
        assert road_cell[frames.ROAD_SET] == pytest.approx(0.8)
        assert road_cell["FIUSM"] == pytest.approx(0.2)
        open_cell = cell_mass(gg, 0, 3)
        assert open_cell[frames.INTERMEDIATE_SET] == pytest.approx(0.6)
        assert open_cell["FIUSM"] == pytest.approx(0.4)

    def test_palette_is_the_three_contexts(self):
        """One state per map context, in the order of ``frames.MAP_CONTEXTS``,
        present on the map or not; each cell's id is its context."""
        vmap = VectorMap(roads=[np.array([(0, 0), (2, 0), (2, 2), (0, 2)])])
        gg = rasterize_gg(vmap, MapConfidence(building=0.9, road=0.8, intermediate=0.6),
                          self.SPEC)
        assert frames.MAP_CONTEXTS == ("building", "road", "intermediate")
        assert gg.states.shape == (frames.PERCEPTION_FRAME.size, 3)
        assert gg.states[[frames.BUILDING_SET, frames.ROAD_SET, frames.INTERMEDIATE_SET],
                         [0, 1, 2]].tolist() == [0.9, 0.8, 0.6]
        assert gg.ids.tolist() == [[1, 1, 2, 2], [1, 1, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2]]

    def test_at_most_two_focal(self):
        vmap = VectorMap(buildings=[np.array([(0, 0), (2, 0), (2, 2), (0, 2)])])
        gg = rasterize_gg(vmap, MapConfidence(), self.SPEC)
        for i in range(4):
            for j in range(4):
                assert np.count_nonzero(gg.masses[j, i]) <= 2

    def test_overlap_rejected(self):
        square = np.array([(0, 0), (2, 0), (2, 2), (0, 2)])
        vmap = VectorMap(buildings=[square], roads=[square])
        with pytest.raises(MapOverlapError, match=r"map overlap at cell \(0, 0\)"):
            rasterize_gg(vmap, MapConfidence(), self.SPEC)

    def test_overlap_names_first_cell_row_by_row(self):
        """Overlaps at (3, 0) and (0, 2): the first in j-outer, i-inner order
        is (3, 0); an i-outer order would name (0, 2)."""
        squares = [np.array([(3, 0), (4, 0), (4, 1), (3, 1)]),
                   np.array([(0, 2), (1, 2), (1, 3), (0, 3)])]
        vmap = VectorMap(buildings=squares, roads=squares[::-1])
        with pytest.raises(MapOverlapError, match=r"^map overlap at cell \(3, 0\)$"):
            rasterize_gg(vmap, MapConfidence(), self.SPEC)
        with pytest.raises(MapOverlapError, match=r"^map overlap at cell \(3, 0\)$"):
            rasterize_oracle(vmap, MapConfidence(), self.SPEC)

    def test_zero_confidence_is_vacuous(self):
        vmap = VectorMap(buildings=[np.array([(0, 0), (2, 0), (2, 2), (0, 2)])])
        gg = rasterize_gg(vmap, MapConfidence(0.0, 0.0, 0.0), self.SPEC)
        for i in range(4):
            for j in range(4):
                assert cell_mass(gg, i, j).is_vacuous()

    @pytest.mark.parametrize("origin_north", [0.0, 1.5e308], ids=["far_in_x", "far_in_x_and_y"])
    def test_grid_far_from_its_map(self, origin_north):
        """Cells far from every vertex are intermediate, with no overflow
        warning from the membership test."""
        vmap, conf, _ = scenario_prior("crossing_car.json")
        gg = rasterize_gg(vmap, conf, GridSpec(1.5e308, origin_north, 1e306, 4, 4))
        assert (gg.ids == frames.MAP_CONTEXTS.index("intermediate")).all()

    def test_deterministic(self):
        vmap = VectorMap(roads=[np.array([(0, 0), (4, 0), (4, 4), (0, 4)])])
        a = rasterize_gg(vmap, MapConfidence(), self.SPEC)
        b = rasterize_gg(vmap, MapConfidence(), self.SPEC)
        assert np.array_equal(a.masses, b.masses)

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            MapConfidence(building=1.2)

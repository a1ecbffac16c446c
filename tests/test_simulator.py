"""Scenario files, synthetic lidar casting and the end-to-end loop."""

import copy
import dataclasses
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from evigrid import frames
from evigrid.fusion import FusionParams
from evigrid.grid import GridSpec
from evigrid.map_ingest import MapConfidence, VectorMap, load_map
from evigrid.sensor import LidarScan, Pose, SensorGridParams
from evigrid.simulator import (ObjectTrack, ScenarioConfig, ScenarioError,
                               SensorSpec, Settings, TimedPose, format_scan,
                               interpolate_pose, polygon_segments,
                               read_scan_log, run_scenario, simulate_scan,
                               world_segments)
from oracles import cell_mass, format_scan_oracle, scan_of, simulate_scan_oracle

WALL = np.array([[10.0, -5.0, 10.0, 5.0]])  # vertical segment at x = 10


def fan(n=5, fov=math.pi / 2, max_range=20.0):
    return SensorSpec(beam_count=n, fov=fov, max_range=max_range)


def walls_of(vmap):
    """The building walls of `vmap`, made once per run as ``run_scenario`` makes them."""
    return np.vstack([np.empty((0, 4)), *map(polygon_segments, vmap.buildings)])


class TestInterpolatePose:
    TRAJ = (TimedPose(0.0, Pose(0, 0, 0.0)), TimedPose(2.0, Pose(4, 2, math.pi / 2)))

    def test_midpoint(self):
        p = interpolate_pose(self.TRAJ, 1.0)
        assert (p.x, p.y) == (2.0, 1.0)
        assert p.heading == pytest.approx(math.pi / 4)

    def test_clamped(self):
        assert interpolate_pose(self.TRAJ, -1.0) == self.TRAJ[0].pose
        assert interpolate_pose(self.TRAJ, 5.0) == self.TRAJ[-1].pose

    def test_heading_shortest_arc(self):
        traj = (TimedPose(0.0, Pose(0, 0, 3.0)), TimedPose(1.0, Pose(0, 0, -3.0)))
        # from +3 to -3 rad the short way crosses pi, not zero
        h = interpolate_pose(traj, 0.5).heading
        assert abs(h) == pytest.approx(math.pi, abs=0.15)


class TestObjectTrack:
    def test_static_lifetime(self):
        track = ObjectTrack(4.0, 2.0, pose=Pose(5, 5, 0), appear_t=1.0, disappear_t=3.0)
        assert track.pose_at(0.5) is None
        assert track.pose_at(1.0) == Pose(5, 5, 0)
        assert track.pose_at(2.9) == Pose(5, 5, 0)
        assert track.pose_at(3.0) is None

    def test_waypoint_lifetime(self):
        track = ObjectTrack(4.0, 2.0, waypoints=(
            TimedPose(1.0, Pose(0, 0, 0)), TimedPose(2.0, Pose(10, 0, 0))))
        assert track.pose_at(0.5) is None
        assert track.pose_at(1.5).x == pytest.approx(5.0)
        assert track.pose_at(2.5) is None

    def test_polygon_rotation(self):
        track = ObjectTrack(4.0, 2.0, pose=Pose(0, 0, math.pi / 2))
        poly = track.polygon_at(0.0)
        # rotated 90 degrees: extent 2 along x, 4 along y
        assert poly[:, 0].max() - poly[:, 0].min() == pytest.approx(2.0)
        assert poly[:, 1].max() - poly[:, 1].min() == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^length must be > 0, got 0\.0$"):
            ObjectTrack(0.0, 2.0, pose=Pose(0, 0, 0))
        with pytest.raises(ScenarioError):
            ObjectTrack(4.0, 2.0)  # neither waypoints nor pose
        with pytest.raises(ScenarioError):
            ObjectTrack(4.0, 2.0, pose=Pose(0, 0, 0),
                        waypoints=(TimedPose(0, Pose(0, 0, 0)),))


class TestSimulateScan:
    def test_wall_straight_ahead(self):
        scan = simulate_scan(WALL, Pose(0, 0, 0), fan(n=1))
        assert scan.columns[2, 0] == 1.0
        assert scan.columns[1, 0] == pytest.approx(10.0, abs=1e-12)

    def test_angled_hit_matches_geometry(self):
        # 45-degree beam reaches x=10 after 10*sqrt(2) metres, at y = 4
        scan = simulate_scan(WALL, Pose(0, -6, math.pi / 4), fan(n=1))
        assert scan.columns[2, 0] == 1.0
        assert scan.columns[1, 0] == pytest.approx(10 * math.sqrt(2), abs=1e-9)

    def test_open_space(self):
        scan = simulate_scan(np.empty((0, 4)), Pose(0, 0, 0), fan())
        assert (scan.columns[2] == 0.0).all() and (scan.columns[1] == 20.0).all()

    def test_wall_beyond_range(self):
        scan = simulate_scan(WALL, Pose(0, 0, 0), fan(n=1, max_range=8.0))
        assert scan.columns[2, 0] == 0.0
        assert scan.columns[1, 0] == 8.0

    def test_nearest_segment_wins(self):
        two = np.vstack([WALL, [[5.0, -5.0, 5.0, 5.0]]])
        scan = simulate_scan(two, Pose(0, 0, 0), fan(n=1))
        assert scan.columns[1, 0] == pytest.approx(5.0)

    def test_beam_misses_finite_segment(self):
        seg = np.array([[10.0, 2.0, 10.0, 5.0]])  # off-axis stub
        scan = simulate_scan(seg, Pose(0, 0, 0), fan(n=1))
        assert scan.columns[2, 0] == 0.0

    def test_beam_along_a_segment_a_subnormal_angle_off(self):
        # the denominator is subnormal and the quotients overflow to inf: no
        # hit, and no overflow warning
        heading = 2.225073858507e-311
        floor = np.array([[0.0, 0.0, 2.5, 0.0]])
        sensor = fan(n=1, fov=0.0, max_range=1.0)
        scan = simulate_scan(floor, Pose(1.25, 2.0, heading), sensor)
        assert scan.columns.tolist() == [[0.0], [1.0], [0.0]]
        assert scan == simulate_scan_oracle(floor, Pose(1.25, 2.0, heading), sensor)

    def test_deterministic_without_jitter(self):
        a = simulate_scan(WALL, Pose(0, 0, 0), fan())
        b = simulate_scan(WALL, Pose(0, 0, 0), fan())
        assert a == b

    def test_jitter_seeded(self):
        import random
        spec = SensorSpec(beam_count=5, fov=math.pi / 2, max_range=20.0,
                          range_jitter=0.1)
        a = simulate_scan(WALL, Pose(0, 0, 0), spec, random.Random(42))
        b = simulate_scan(WALL, Pose(0, 0, 0), spec, random.Random(42))
        c = simulate_scan(WALL, Pose(0, 0, 0), spec, random.Random(43))
        assert a == b
        assert a != c

    def test_bearings_cover_fov(self):
        spec = fan(n=5, fov=math.pi)
        b = spec.bearings
        assert b[0] == pytest.approx(-math.pi / 2)
        assert b[-1] == pytest.approx(math.pi / 2)
        assert len(b) == 5
        # made once with the spec and shared by its scans, so never written
        with pytest.raises(ValueError, match="read-only"):
            b[0] = 0.0
        assert len(dataclasses.replace(spec, beam_count=3).bearings) == 3
        assert spec == fan(n=5, fov=math.pi)


class TestWorldSegments:
    def test_roads_do_not_block(self):
        vmap = VectorMap(roads=[np.array([(0, 0), (4, 0), (4, 4), (0, 4)])])
        assert world_segments(walls_of(vmap), [], 0.0).shape == (0, 4)

    def test_building_and_object(self):
        vmap = VectorMap(buildings=[np.array([(0, 0), (4, 0), (4, 4), (0, 4)])])
        track = ObjectTrack(2.0, 1.0, pose=Pose(10, 10, 0), disappear_t=5.0)
        walls = walls_of(vmap)
        assert world_segments(walls, [track], 0.0).shape == (8, 4)
        assert world_segments(walls, [track], 6.0).shape == (4, 4)

    def test_polygon_segments_close_ring(self):
        segs = polygon_segments(np.array([(0, 0), (1, 0), (1, 1)]))
        assert segs.shape == (3, 4)
        assert tuple(segs[-1]) == (1, 1, 0, 0)


class TestScenarioConfig:
    def base_dict(self):
        return {
            "map": "m.geojson",
            "grid": {"origin_east": 0.0, "origin_north": 0.0,
                     "cell_size": 0.5, "width": 10, "height": 10},
            "trajectory": [{"t": 0.0, "x": 1.0, "y": 1.0, "heading": 0.0}],
            "epochs": 3,
        }

    def test_defaults(self):
        cfg = ScenarioConfig.from_dict(self.base_dict())
        assert cfg.sensor.beam_count == 181
        assert cfg.fusion.ageing_rate == 0.05
        assert cfg.decision_threshold == 0.5
        assert cfg.objects == []

    def test_relative_map_path(self, tmp_path):
        data = self.base_dict()
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        cfg = ScenarioConfig.from_file(path)
        assert cfg.map_path == tmp_path / "m.geojson"

    def test_bad_timestamps(self):
        data = self.base_dict()
        data["trajectory"] = [{"t": 1.0, "x": 0, "y": 0, "heading": 0},
                              {"t": 1.0, "x": 1, "y": 0, "heading": 0}]
        message = "trajectory 1: timestamps must be strictly increasing, got 1.0 after 1.0"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            ScenarioConfig.from_dict(data)

    def test_zero_epochs(self):
        data = self.base_dict()
        data["epochs"] = 0
        with pytest.raises(ScenarioError, match="epochs must be >= 1, got 0"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("path, value, message", [
        (("trajectory", 0, "t"), True, "trajectory 0 t True is not a number"),
        (("trajectory", 0, "heading"), "0", "trajectory 0 heading '0' is not a number"),
        (("objects", 0, "length"), "4", "object 0 length '4' is not a number"),
        (("objects", 0, "pose", "y"), None, "object 0 pose y None is not a number"),
        (("objects", 0, "appear_t"), False, "object 0 appear_t False is not a number"),
        (("objects", 0, "disappear_t"), "9", "object 0 disappear_t '9' is not a number"),
        (("objects", 1, "width"), True, "object 1 width True is not a number"),
        (("objects", 1, "waypoints", 1, "t"), "1", "object 1 waypoint 1 t '1' is not a number"),
        (("objects", 1, "waypoints", 1, "x"), "abc", "object 1 waypoint 1 x 'abc' is not a number"),
        (("objects", 1, "waypoints", 0, "y"), True, "object 1 waypoint 0 y True is not a number"),
        (("objects", 1, "waypoints", 1, "t"), math.nan,
         "object 1 waypoint 1 t must be finite, got nan"),
        (("objects", 1, "waypoints", 1, "t"), 0.0,
         "object 1 waypoint 1: timestamps must be strictly increasing, got 0.0 after 0.0"),
        (("objects", 0, "stop_t"), 2.0, "object 0: unknown key(s) 'stop_t'"),
        (("epochs",), True, "epochs must be an integer, got True"),
        (("epochs",), 2.5, "epochs must be an integer, got 2.5"),
        (("trajectory", 0, "x"), 10**400,
         "trajectory 0 x must be finite, got a number beyond the float range"),
        (("objects", 1, "appear_t"), 0.5, "object 1 appear_t applies to static objects only"),
        (("objects", 1, "disappear_t"), 0.5,
         "object 1 disappear_t applies to static objects only"),
        # the third scan would be at time inf
        (("sensor",), {"rate": 5e-309},
         "last scan time (epochs - 1) / sensor rate must be finite, got inf"),
    ])
    def test_rejects_bad_field(self, tmp_path, path, value, message):
        data = self.base_dict()
        data["objects"] = [
            {"length": 4.0, "width": 2.0, "pose": {"x": 5.0, "y": 5.0, "heading": 0.0},
             "appear_t": 0.0, "disappear_t": 9.0},
            {"length": 4.0, "width": 2.0, "waypoints": [
                {"t": 0.0, "x": 1.0, "y": 2.0, "heading": 0.0},
                {"t": 1.0, "x": 3.0, "y": 2.0, "heading": 0.0}]}]
        assert len(ScenarioConfig.from_dict(data).objects) == 2
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=re.escape(message)):
            ScenarioConfig.from_file(scenario)

    def test_settings_take_json_numbers_and_null(self):
        data = self.base_dict()
        data.update(decision_threshold=1, sensor_model={"free_weight": 0},
                    map_confidence={"road": 1}, fusion={"ageing_rate": 0,
                                                        "ageing_by_context": None})
        cfg = ScenarioConfig.from_dict(data)
        assert cfg.decision_threshold == 1.0 and cfg.sensor_model.free_weight == 0.0
        assert cfg.map_confidence.road == 1.0 and cfg.fusion.ageing_by_context is None
        data["fusion"]["ageing_by_context"] = {"road": 1, "building": 0.5}
        assert ScenarioConfig.from_dict(data).fusion.ageing_for("road") == 1.0

    def test_missing_key_wrapped(self, tmp_path):
        data = self.base_dict()
        del data["grid"]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError):
            ScenarioConfig.from_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioConfig.from_file(path)


def timed(*times):
    return tuple(TimedPose(t, Pose(t, 0.0, 0.0)) for t in times)


class StaticTrack(ObjectTrack):
    """An ObjectTrack at one pose, under a name of its own in test ids."""


# valid keyword arguments of each settings and scene class
GOOD_SETTINGS = {
    GridSpec: {"origin_east": 0.0, "origin_north": 0.0, "cell_size": 0.5, "width": 4,
               "height": 4},
    SensorSpec: {"beam_count": 31, "fov": 1.0, "max_range": 10.0, "rate": 10.0,
                 "range_jitter": 0.0},
    SensorGridParams: {"free_weight": 0.7, "occupied_weight": 0.8},
    MapConfidence: {"building": 0.9, "road": 0.8, "intermediate": 0.6},
    FusionParams: {"ageing_rate": 0.05, "counter_inc": 0.2, "counter_dec": 0.4,
                   "occupancy_threshold": 0.6, "conflict_threshold": 0.3,
                   "ageing_by_context": {"building": 0.01, "road": 0.1, "intermediate": 0.05}},
    Settings: {"grid": GridSpec(0.0, 0.0, 0.5, 4, 4), "decision_threshold": 0.5},
    ScenarioConfig: {"grid": GridSpec(0.0, 0.0, 0.5, 4, 4), "decision_threshold": 0.5,
                     "map_path": Path("m.geojson"), "trajectory": timed(0.0, 1.0),
                     "sensor": SensorSpec(), "epochs": 2},
    ObjectTrack: {"length": 4.0, "width": 2.0, "waypoints": timed(0.0, 1.0)},
    StaticTrack: {"length": 4.0, "width": 2.0, "pose": Pose(1.0, 2.0, 0.5), "appear_t": 0.0,
                  "disappear_t": 9.0},
    Pose: {"x": 1.0, "y": 2.0, "heading": 0.5},
    TimedPose: {"t": 0.0, "pose": Pose(1.0, 2.0, 0.5)},
    LidarScan: {"columns": np.array([[0.0], [5.0], [1.0]]), "max_range": 6.0},
}
NOT_A_NUMBER = [True, "0.5", None, math.nan, math.inf, 10**400]
# 2**63 is one more than the largest array size
NOT_A_COUNT = [False, "4", 2.5, 0, 10**400, 2**63]
NOT_UNIT = NOT_A_NUMBER + [-0.1, 1.5]
# each field by its class and its path in the keyword arguments, and values
# it must reject
BAD_SETTINGS = [
    *((GridSpec, (key,), NOT_A_NUMBER) for key in ("origin_east", "origin_north", "cell_size")),
    (GridSpec, ("cell_size",), [0.0, -0.5]),
    *((GridSpec, (key,), NOT_A_COUNT) for key in ("width", "height")),
    (SensorSpec, ("beam_count",), NOT_A_COUNT),
    *((SensorSpec, (key,), NOT_A_NUMBER) for key in ("fov", "max_range", "rate", "range_jitter")),
    (SensorSpec, ("fov",), [-0.5, 7.0]),
    *((SensorSpec, (key,), [0.0, -1.0]) for key in ("max_range", "rate")),
    (SensorSpec, ("range_jitter",), [-0.1]),
    *((SensorGridParams, (key,), NOT_UNIT) for key in ("free_weight", "occupied_weight")),
    *((MapConfidence, (key,), NOT_UNIT) for key in frames.MAP_CONTEXTS),
    *((FusionParams, (key,), NOT_UNIT) for key in ("ageing_rate", "counter_inc", "counter_dec",
                                                   "occupancy_threshold", "conflict_threshold")),
    *((FusionParams, ("ageing_by_context", key), NOT_UNIT) for key in frames.MAP_CONTEXTS),
    (FusionParams, ("ageing_by_context",), [[0.1], 0.1, {"river": 0.1}]),
    (Settings, ("decision_threshold",), NOT_UNIT),
    (ScenarioConfig, ("decision_threshold",), NOT_UNIT),
    (ScenarioConfig, ("epochs",), NOT_A_COUNT),
    (ScenarioConfig, ("trajectory",), [(), timed(1.0, 0.0), timed(0.0, 2.0, 2.0)]),
    (ObjectTrack, ("waypoints",), [timed(1.0, 0.0), timed(0.0, 2.0, 2.0)]),
    *((ObjectTrack, (key,), NOT_A_NUMBER + [0.0, -1.0]) for key in ("length", "width")),
    *((ObjectTrack, (key,), [3.0]) for key in ("appear_t", "disappear_t")),
    # None is a time not given
    *((StaticTrack, (key,), [v for v in NOT_A_NUMBER if v is not None])
      for key in ("appear_t", "disappear_t")),
    *((Pose, (key,), NOT_A_NUMBER) for key in ("x", "y", "heading")),
    (TimedPose, ("t",), NOT_A_NUMBER),
    (LidarScan, ("max_range",), NOT_A_NUMBER + [0.0, -1.0]),
]


@pytest.mark.parametrize("kind, path, value", [
    pytest.param(kind, path, value, id=f"{kind.__name__}-{'-'.join(path)}-{k}")
    for kind, path, values in BAD_SETTINGS for k, value in enumerate(values)])
def test_settings_built_in_code_reject_a_bad_field(kind, path, value):
    """The library twin of the command line's bad-field property: each
    settings and scene class built in code rejects one bad value with a
    ValueError that names the field and none of the fields beside it."""
    kwargs = copy.deepcopy(GOOD_SETTINGS[kind])
    kind(**kwargs)
    target = kwargs
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError) as error:
        kind(**kwargs)
    message = str(error.value)
    # an ObjectTrack's message names its waypoints in the singular
    field = "waypoint" if path[-1] == "waypoints" else path[-1]
    assert re.search(rf"\b{field}\b", message), message
    assert not any(re.search(rf"\b{key}\b", message) for key in target if key != path[-1]), \
        message


class TestRunScenario:
    def empty_map(self, tmp_path):
        path = tmp_path / "m.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        return path

    def small_cfg(self, tmp_path, epochs=1):
        return ScenarioConfig.from_dict({
            "map": self.empty_map(tmp_path).name,
            "grid": {"origin_east": 0.0, "origin_north": 0.0,
                     "cell_size": 0.5, "width": 20, "height": 20},
            "trajectory": [{"t": 0.0, "x": 5.0, "y": 5.0, "heading": 0.0}],
            "sensor": {"beam_count": 41, "fov": math.pi, "max_range": 4.0},
            "epochs": epochs,
        }, base_dir=tmp_path)

    def test_free_wedge_after_one_epoch(self, tmp_path):
        results = list(run_scenario(self.small_cfg(tmp_path)))
        assert len(results) == 1
        pg = results[0].pg
        # a cell straight ahead inside the range should lean free
        j, i = divmod(int(pg.spec.world_to_index(7.0, 5.0)), pg.spec.width)
        assert cell_mass(pg, i, j)["F"] > 0.5
        # behind the sensor only the open-area map context applies
        j, i = divmod(int(pg.spec.world_to_index(3.0, 5.0)), pg.spec.width)
        behind = cell_mass(pg, i, j)
        assert behind["F"] == 0.0
        assert behind["FUSM"] == pytest.approx(0.6)

    def test_stats_shape(self, tmp_path):
        results = list(run_scenario(self.small_cfg(tmp_path, epochs=2)))
        stats = results[-1].stats
        assert stats["t"] == 1
        total = (stats["cells_F"] + stats["cells_I"] + stats["cells_U"]
                 + stats["cells_S"] + stats["cells_M"] + stats["cells_unknown"])
        assert total == 20 * 20

    def test_deterministic(self, tmp_path):
        a = list(run_scenario(self.small_cfg(tmp_path, epochs=2)))
        b = list(run_scenario(self.small_cfg(tmp_path, epochs=2)))
        assert np.array_equal(a[-1].pg.masses, b[-1].pg.masses)


class TestShippedScenarios:
    def test_crossing_car_loads(self, scenario_dir):
        cfg = ScenarioConfig.from_file(scenario_dir / "crossing_car.json")
        assert cfg.epochs == 50
        assert cfg.objects[0].waypoints

    def test_parked_then_leaves_loads(self, scenario_dir):
        cfg = ScenarioConfig.from_file(scenario_dir / "parked_then_leaves.json")
        assert cfg.objects[0].pose is not None
        assert cfg.objects[0].disappear_t == 3.0

    def test_street_canyon_loads(self, scenario_dir):
        cfg = ScenarioConfig.from_file(scenario_dir / "street_canyon.json")
        assert len(cfg.trajectory) > 1

    def test_car_blocks_beam(self, scenario_dir):
        cfg = ScenarioConfig.from_file(scenario_dir / "crossing_car.json")
        from evigrid.map_ingest import load_map
        vmap = load_map(cfg.map_path)
        t = 1.5  # car is mid-crossing in front of the sensor
        segs = world_segments(walls_of(vmap), cfg.objects, t)
        pose = interpolate_pose(cfg.trajectory, t)
        scan = simulate_scan(segs, pose, cfg.sensor)
        bearing, rng, hit = scan.columns
        forward = np.abs(bearing).argmin()
        assert hit[forward] == 1.0
        assert rng[forward] < cfg.sensor.max_range / 2

    @pytest.mark.parametrize("name", ["crossing_car", "parked_then_leaves", "street_canyon"])
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_scans_match_per_beam_oracle(self, scenario_dir, name, jitter):
        cfg = ScenarioConfig.from_file(scenario_dir / f"{name}.json")
        sensor = dataclasses.replace(cfg.sensor, range_jitter=jitter)
        walls = walls_of(load_map(cfg.map_path))
        rng, rng_oracle = random.Random(5), random.Random(5)
        for epoch in range(cfg.epochs):
            t = epoch / sensor.rate
            segs = world_segments(walls, cfg.objects, t)
            pose = interpolate_pose(cfg.trajectory, t)
            scan = simulate_scan(segs, pose, sensor, rng)
            expect = simulate_scan_oracle(segs, pose, sensor, rng_oracle)
            assert scan == expect, epoch
            assert format_scan(t, pose, scan) == format_scan_oracle(t, pose, expect), epoch


class TestReadScanLog:
    def line(self, hit=True, **fields):
        return json.dumps({"t": 0.0, "pose": {"x": 0.0, "y": 0.0, "heading": 0.0},
                           "beams": [[0.0, 6.0, hit]], "max_range": 6.0, **fields})

    @pytest.mark.parametrize("hit", ["false", "true", 0, 1, None])
    def test_rejects_non_boolean_hit_flag(self, hit):
        # "false" is truthy: read as a hit it would put a phantom obstacle
        # at max range
        with pytest.raises(ValueError, match=r"line 2: .*hit flag"):
            list(read_scan_log(["", self.line(hit)]))

    @pytest.mark.parametrize("fields, message", [
        ({"t": True}, "t True is not a number"),
        ({"pose": {"x": "0.5", "y": False, "heading": 0.0}}, "pose x '0.5' is not a number"),
        ({"pose": {"x": 0.5, "y": False, "heading": 0.0}}, "pose y False is not a number"),
        ({"beams": [["0.0", 6.0, True]]}, "bearing '0.0' is not a number"),
        ({"beams": [[0.0, "6.0", True]]}, "range '6.0' is not a number"),
        ({"max_range": "6"}, "max_range '6' is not a number"),
        ({"t": 10**400}, "t must be finite, got a number beyond the float range"),
        ({"pose": {"x": 0.0, "y": 0.0, "heading": -10**400}},
         "pose heading must be finite, got a number beyond the float range"),
        ({"max_range": 10**400}, "max_range must be finite, got a number beyond the float range"),
        ({"beams": [[10**400, 6.0, True]]},
         "beam 0 bearing must be finite, got a number beyond the float range"),
        ({"beams": [[0.0, 6.0, False], [0.0, 10**400, True]]},
         "beam 1 range must be finite, got a number beyond the float range"),
        ({"beams": 5}, "beams 5 is not a list"),
        ({"beams": [[0.0, 5.0]]}, "beam 0 [0.0, 5.0] is not a [bearing, range, hit] list"),
        ({"beams": [5]}, "beam 0 5 is not a [bearing, range, hit] list"),
        ({"beams": ["abc"]}, "beam 0 'abc' is not a [bearing, range, hit] list"),
    ], ids=["bool_t", "string_x", "bool_y", "string_bearing", "string_range",
            "string_max_range", "huge_int_t", "huge_int_heading", "huge_int_max_range",
            "huge_int_bearing", "huge_int_range", "beams_number", "beam_pair", "beam_number",
            "beam_string"])
    def test_rejects_non_numbers(self, fields, message):
        # float() would read true as 1.0 and "6" as 6.0, and raise
        # OverflowError, not naming the line, on an integer beyond float range;
        # a string of three characters would unpack as a beam
        with pytest.raises(ValueError, match=f"line 2: .*{re.escape(message)}"):
            list(read_scan_log(["", self.line(**fields)]))

    @pytest.mark.parametrize("k", [0, 700])
    @pytest.mark.parametrize("bad, message", [
        ([0.5, 5.0, "true"], "hit flag 'true' is not true or false"),
        ([0.5, True, True], "range True is not a number"),
        (["0.5", 5.0, True], "bearing '0.5' is not a number"),
        ([0.5, 5.0], "beam K [0.5, 5.0] is not a [bearing, range, hit] list"),
        ([0.5, 5.0, True, 1], "beam K [0.5, 5.0, True, 1] is not a [bearing, range, hit] list"),
        (0.5, "beam K 0.5 is not a [bearing, range, hit] list"),
        ({"b": 0.5, "r": 5.0, "h": True},
         "beam K {'b': 0.5, 'r': 5.0, 'h': True} is not a [bearing, range, hit] list"),
        ([0.5, 7.0, True], "beam K: hit range 7.0 outside"),
        ([0.5, 5.0, False], "beam K: non-hit beams must carry range = max_range"),
        ([0.5, 10**400, True], "beam K range must be finite, got a number beyond the float range"),
        ("abc", "beam K 'abc' is not a [bearing, range, hit] list")])
    def test_names_the_bad_beam_among_many(self, k, bad, message):
        """Each column is checked at once; the per-beam checks name the value."""
        beams = [[0.001 * i, 5.0, True] if i % 2 else [0.001 * i, 6.0, False]
                 for i in range(1081)]
        beams[k] = bad
        with pytest.raises(ValueError, match=f"line 2: .*{re.escape(message.replace('K', str(k)))}"):
            list(read_scan_log(["", self.line(beams=beams)]))

    def test_json_integers_among_many_beams(self):
        beams = [[0.001 * i, 5.0, True] for i in range(1081)]
        (_, _, scan), = read_scan_log([self.line(beams=beams)])
        beams[3] = [0, 5, True]
        (_, _, again), = read_scan_log([self.line(beams=beams)])
        assert again.columns[:, 3].tolist() == [0.0, 5.0, 1.0] and again.columns.dtype == float
        assert again.columns[:, 4:].tolist() == scan.columns[:, 4:].tolist()

    def test_accepts_json_integers(self):
        line = self.line(t=1, pose={"x": 2, "y": -3, "heading": 0}, beams=[[0, 6, True]],
                         max_range=6)
        (t, pose, scan), = read_scan_log([line])
        values = (t, pose.x, pose.y, *scan.columns[:2, 0].tolist(), scan.max_range)
        assert values == (1.0, 2.0, -3.0, 0.0, 6.0, 6.0)
        assert all(isinstance(v, float) for v in values)


def _hand_made_scans():
    """Scans of 0, 1 and 1081 beams, with a ``-0.0`` bearing, a range of
    exactly 5.0 and hits next to misses."""
    many = [(0.001 * k - 0.54, 5.0 if k % 3 else 30.0, k % 3 != 0) for k in range(1081)]
    many[540] = (-0.0, 5.0, True)
    return {"one_hit": scan_of([(0.25, 5.0, True)], 30.0),
            "one_miss": scan_of([(-0.0, 30.0, False)], 30.0),
            "many": scan_of(many, 30.0),
            "none": scan_of([], 30.0)}


class TestScanLogRoundTrip:
    """``format_scan`` writes from the columns, byte for byte the line of
    the per-beam oracle, and ``read_scan_log`` reads the same scan back."""

    POSE = Pose(-12.5, 3.0, 0.3)

    def round_trip(self, t, scan, pose=POSE):
        line = format_scan(t, pose, scan)
        assert line == format_scan_oracle(t, pose, scan)
        (t_back, pose_back, back), = read_scan_log([line])
        assert (t_back, pose_back, back) == (t, pose, scan)
        # bit for bit, so a -0.0 bearing stays -0.0
        assert back.columns.tobytes() == scan.columns.tobytes()
        return line, back

    @pytest.mark.parametrize("name", ["one_hit", "one_miss", "many", "none"])
    def test_hand_made(self, name):
        scan = _hand_made_scans()[name]
        line, back = self.round_trip(0.1, scan)
        if name == "many":
            assert "[-0.0, 5.0, true]" in line
            assert math.copysign(1.0, back.columns[0, 540]) == -1.0
            assert back.columns.tolist() == scan.columns.tolist()

    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_simulated(self, scenario_dir, jitter):
        cfg = ScenarioConfig.from_file(scenario_dir / "street_canyon.json")
        sensor = dataclasses.replace(cfg.sensor, beam_count=1081, range_jitter=jitter)
        walls = walls_of(load_map(cfg.map_path))
        rng = random.Random(9)
        for epoch in range(0, cfg.epochs, 7):
            t = epoch / sensor.rate
            pose = interpolate_pose(cfg.trajectory, t)
            scan = simulate_scan(world_segments(walls, cfg.objects, t), pose, sensor, rng)
            assert scan.columns[2].any() and not scan.columns[2].all()
            self.round_trip(t, scan, pose)

    def test_integer_beams_written_as_floats(self):
        # the columns hold floats, so integer input is written as its float
        scan = scan_of(((0, 5, True), (1, 6, 0)), 6)
        assert format_scan(2, self.POSE, scan) == format_scan_oracle(2, self.POSE, scan)
        assert '"beams": [[0.0, 5.0, true], [1.0, 6.0, false]]' in format_scan(2, self.POSE, scan)
        (_, _, back), = read_scan_log([format_scan(2, self.POSE, scan)])
        assert back == scan

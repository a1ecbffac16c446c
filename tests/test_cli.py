"""End-to-end command-line behaviour: outputs, exit codes, record/replay."""

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evigrid import simulator
from evigrid.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

GRID = {"origin_east": 0.0, "origin_north": 0.0,
        "cell_size": 0.5, "width": 24, "height": 24}

BUILDING = [[8, 0], [12, 0], [12, 12], [8, 12], [8, 0]]


def write_map(path, features):
    path.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"kind": kind},
                      "geometry": {"type": "Polygon", "coordinates": [ring]}}
                     for kind, ring in features],
    }))


def replay(tmp_path, log, out, *extra):
    """Replay `log` over the small scenario's map and grid."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"grid": GRID}))
    return main(["replay", str(log), str(tmp_path / "m.geojson"),
                 "--out", str(out), "--params", str(params), *extra])


def record_line(t, pose=(0.0, 0.0, 0.0), beams=((0.0, 5.0, True),), max_range=10.0):
    return json.dumps({"t": t, "pose": dict(zip(("x", "y", "heading"), pose)),
                       "beams": [list(b) for b in beams], "max_range": max_range})


@pytest.fixture
def small_scenario(tmp_path):
    write_map(tmp_path / "m.geojson", [("building", BUILDING)])
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "map": "m.geojson",
        "grid": GRID,
        "trajectory": [{"t": 0.0, "x": 2.0, "y": 6.0, "heading": 0.0}],
        "sensor": {"beam_count": 31, "fov": math.pi / 2, "max_range": 10.0},
        "epochs": 3,
    }))
    return scn


def test_run_writes_outputs(small_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(small_scenario), "--out", str(out)])
    assert rc == 0
    assert (out / "stats.ndjson").exists()
    assert (out / "trace.ppm").exists()
    for epoch in range(3):
        assert (out / f"decision_{epoch:05d}.ppm").exists()
        assert (out / f"pignistic_{epoch:05d}.ppm").exists()
    lines = (out / "stats.ndjson").read_text().splitlines()
    assert len(lines) == 3
    stats = json.loads(lines[0])
    assert set(stats) >= {"t", "cells_F", "cells_unknown", "total_conflict_fo"}


def test_run_every_limits_renders(small_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(small_scenario), "--out", str(out),
               "--render", "decision", "--every", "2"])
    assert rc == 0
    assert (out / "decision_00000.ppm").exists()
    assert not (out / "decision_00001.ppm").exists()
    assert (out / "decision_00002.ppm").exists()
    assert not (out / "pignistic_00000.ppm").exists()


def test_run_dump_grid_columns(small_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(small_scenario), "--out", str(out), "--dump-grid", "1"])
    assert rc == 0
    header = (out / "grid_00001.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 4 + 32 + 1
    assert header[-1] == "zeta"


def test_run_missing_map_is_config_error(small_scenario, tmp_path, capsys):
    (small_scenario.parent / "m.geojson").unlink()
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_run_invalid_scenario_is_config_error(tmp_path, capsys):
    bad = tmp_path / "scn.json"
    bad.write_text("{broken")
    rc = main(["run", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_params_override(small_scenario, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"decision_threshold": 0.99,
                                  "fusion": {"ageing_rate": 0.2}}))
    out_hi = tmp_path / "hi"
    rc = main(["run", str(small_scenario), "--out", str(out_hi),
               "--params", str(params), "--render", "decision"])
    assert rc == 0
    out_lo = tmp_path / "lo"
    main(["run", str(small_scenario), "--out", str(out_lo), "--render", "decision"])
    hi = json.loads((out_hi / "stats.ndjson").read_text().splitlines()[-1])
    lo = json.loads((out_lo / "stats.ndjson").read_text().splitlines()[-1])
    assert hi["cells_unknown"] > lo["cells_unknown"]


def test_renders_reproducible(small_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(small_scenario), "--out", str(out_a)])
    main(["run", str(small_scenario), "--out", str(out_b)])
    for name in ("stats.ndjson", "decision_00002.ppm", "pignistic_00002.ppm",
                 "trace.ppm"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_params_override_grid_and_sensor_model(small_scenario, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"grid": {**GRID, "width": 12, "height": 10},
                                  "sensor_model": {"free_weight": 0.0,
                                                   "occupied_weight": 0.0}}))
    out = tmp_path / "out"
    rc = main(["run", str(small_scenario), "--out", str(out), "--params", str(params),
               "--render", "decision"])
    assert rc == 0
    stats = json.loads((out / "stats.ndjson").read_text().splitlines()[-1])
    cells = [stats[key] for key in ("cells_F", "cells_I", "cells_U", "cells_S",
                                    "cells_M", "cells_unknown")]
    assert sum(cells) == 12 * 10
    # a sensor that carries no evidence never shows free space
    assert stats["cells_F"] == 0


def test_params_unknown_key_is_config_error(small_scenario, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"fusion": {"ageing_rate": 0.2}, "decison_threshold": 0.9}))
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out"),
               "--params", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "decison_threshold" in err


def test_scenario_unknown_key_is_config_error(small_scenario, tmp_path, capsys):
    data = json.loads(small_scenario.read_text())
    small_scenario.write_text(json.dumps({**data, "fusoin": {"ageing_rate": 0.2}}))
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (f"evigrid: configuration error: scenario {small_scenario}:"
                                       " unknown key(s) 'fusoin'\n")


DELETE = object()


def with_field(document: dict, path, value) -> dict:
    """A deep copy of `document` with the field at `path` set to `value`,
    or deleted."""
    document = json.loads(json.dumps(document))
    target = document
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return document


@pytest.mark.parametrize("path, value, message", [
    (("epochs",), DELETE, "missing key(s) 'epochs'"),
    (("trajectory", 0, "x"), DELETE, "trajectory 0: missing key(s) 'x'"),
    (("objects",), [{"width": 2.0, "pose": {"x": 4.0, "y": 2.0, "heading": 0.0}}],
     "object 0: missing key(s) 'length'"),
    (("objects",), [{"length": 4.0, "width": 2.0}], "object 0 needs waypoints or a static pose"),
    (("grid", "size"), 12, "grid: unknown key(s) 'size'"),
    (("grid", "height"), DELETE, "grid: missing key(s) 'height'"),
    (("sensor", "beams"), 31, "sensor: unknown key(s) 'beams'"),
    (("fusion",), {"ageing": 0.1}, "fusion: unknown key(s) 'ageing'"),
    (("sensor",), [31], "sensor [31] is not an object"),
    (("trajectory",), 5, "trajectory 5 is not a list"),
    (("map",), 5, "map 5 is not a string"),
    (("objects",), [{"length": 4.0, "width": 2.0, "pose": {"x": 4.0, "y": 2.0, "heading": 0.0},
                     "waypoints": [{"t": 0.0, "x": 4.0, "y": 2.0, "heading": 0.0}]}],
     "object 0 pose applies to static objects only"),
    (("objects",), [{"length": 4.0, "width": 2.0,
                     "waypoints": [{"t": 5.0, "x": 4.0, "y": 2.0, "heading": 0.0},
                                   {"t": 0.0, "x": 8.0, "y": 2.0, "heading": 0.0}]}],
     "object 0 waypoint 1: timestamps must be strictly increasing, got 0.0 after 5.0"),
], ids=["no_epochs", "pose_without_x", "object_without_length", "object_without_pose",
        "grid_size", "grid_without_height", "sensor_beams", "fusion_ageing", "sensor_list",
        "trajectory_number", "map_number", "object_with_waypoints_and_pose",
        "object_waypoints_out_of_order"])
def test_missing_or_unknown_key_is_named(small_scenario, tmp_path, capsys, path, value,
                                         message):
    data = json.loads(small_scenario.read_text())
    small_scenario.write_text(json.dumps(with_field(data, path, value)))
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (f"evigrid: configuration error: scenario {small_scenario}:"
                                       f" {message}\n")


def test_params_without_grid_is_named(small_scenario, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"decision_threshold": 0.5}))
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(0.0) + "\n")
    rc = main(["replay", str(log), str(tmp_path / "m.geojson"), "--out", str(tmp_path / "out"),
               "--params", str(params)])
    assert rc == 1
    assert capsys.readouterr().err == (f"evigrid: configuration error: params {params}:"
                                       " missing key(s) 'grid'\n")


def test_record_without_max_range_is_named(small_scenario, tmp_path, capsys):
    log = tmp_path / "scans.ndjson"
    record = json.loads(record_line(0.1))
    del record["max_range"]
    log.write_text(record_line(0.0) + "\n" + json.dumps(record) + "\n")
    assert replay(tmp_path, log, tmp_path / "out") == 2
    assert "line 2: malformed record: missing key(s) 'max_range'\n" in capsys.readouterr().err


def _feature(properties, coordinates):
    return {"type": "Feature", "properties": properties,
            "geometry": {"type": "Polygon", "coordinates": coordinates}}


@pytest.mark.parametrize("name, text, message", [
    ("scn.json", "[1, 2]", "expected a JSON object, got list"),
    ("m.geojson", json.dumps({"type": "FeatureCollection", "features": "abc"}),
     "features must be a list"),
    ("m.geojson", json.dumps({"type": "FeatureCollection", "features": [5]}),
     "feature 0 is not an object"),
    ("m.geojson", json.dumps({"type": "FeatureCollection",
                              "features": [_feature(["kind"], [BUILDING])]}),
     "feature 0: properties must be an object"),
    ("m.geojson", json.dumps({"type": "FeatureCollection",
                              "features": [_feature({"kind": "road"}, [5])]}),
     "feature 0: polygon ring 5 is not a list of vertices"),
    ("params.json", "{nope", "is not valid JSON"),
    ("params.json", "[1, 2]", "expected a JSON object, got list"),
    ("scn.json", b"\xff{}", "is not valid JSON"),
    ("m.geojson", b"\xff{}", "is not valid JSON"),
    ("m.geojson", json.dumps({"type": "Feature", "features": []}),
     "type 'Feature' is not 'FeatureCollection'"),
    ("m.geojson", json.dumps({"type": "FeatureCollection", "features": [
        {"properties": {"kind": "road"}, "geometry": {"type": "Point", "coordinates": [1, 2]}}]}),
     "feature 0: geometry must be a Polygon"),
    ("m.geojson", json.dumps({"type": "FeatureCollection",
                              "features": [_feature({"kind": "road"}, [])]}),
     "feature 0: missing polygon coordinates"),
    ("m.geojson", json.dumps({"type": "FeatureCollection",
                              "features": [_feature({"kind": "road"}, [[[0, 0], [1, 0], [1]]])]}),
     "feature 0: vertices must be [x, y] pairs"),
    # deeper than the JSON decoder recurses, and an integer longer than
    # Python converts to text: neither is a JSONDecodeError
    ("scn.json", "[" * 10_000 + "]" * 10_000, "is not valid JSON: maximum recursion depth"),
    ("params.json", "[" * 10_000 + "]" * 10_000, "is not valid JSON: maximum recursion depth"),
    ("m.geojson", '{"type": ' + "[" * 10_000 + "]" * 10_000 + "}",
     "is not valid JSON: maximum recursion depth"),
    ("params.json", '{"decision_threshold": ' + "1" * 5000 + "}",
     "is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["scenario_array", "map_features_string", "map_feature_not_object",
        "map_properties_list", "map_ring_not_list", "params_invalid_json", "params_array",
        "scenario_not_utf8", "map_not_utf8", "map_type_feature", "map_geometry_point",
        "map_no_coordinates", "map_vertex_not_pair", "scenario_nested", "params_nested",
        "map_nested", "params_long_integer"])
def test_malformed_document_is_one_line_naming_the_file(small_scenario, tmp_path, capsys,
                                                         name, text, message):
    """A malformed scenario, map or params file exits 1 with one line that
    names the file, not with a traceback."""
    params = tmp_path / "params.json"
    params.write_text("{}")
    (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out"),
               "--params", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("evigrid: configuration error: ") and err.count("\n") == 1, err
    assert str(tmp_path / name) in err and message in err, err


@pytest.mark.parametrize("field, value", [
    ("cell_size", float("nan")), ("origin_east", float("inf")), ("width", 10.5)])
def test_bad_grid_value_is_config_error(small_scenario, tmp_path, capsys, field, value):
    data = json.loads(small_scenario.read_text())
    data["grid"][field] = value
    small_scenario.write_text(json.dumps(data))
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{field} must be" in err


@pytest.mark.parametrize("where", ["scenario", "params", "replay_params"])
@pytest.mark.parametrize("settings, message", [
    ({"decision_threshold": True}, "decision_threshold True is not a number"),
    ({"decision_threshold": "0.5"}, "decision_threshold '0.5' is not a number"),
    ({"fusion": {"ageing_rate": True}}, "fusion ageing_rate True is not a number"),
    ({"fusion": {"counter_inc": "0.2"}}, "fusion counter_inc '0.2' is not a number"),
    ({"fusion": {"ageing_by_context": {"road": True}}},
     "fusion ageing_by_context road True is not a number"),
    ({"fusion": {"ageing_by_context": [0.1]}},
     "fusion ageing_by_context [0.1] is not an object"),
    ({"sensor_model": {"free_weight": True}}, "sensor_model free_weight True is not a number"),
    ({"map_confidence": {"building": False}}, "map_confidence building False is not a number"),
    ({"map_confidence": [0.9]}, "map_confidence [0.9] is not an object"),
    ({"decision_threshold": 2.0}, "decision_threshold must be in [0, 1], got 2.0"),
    ({"decision_threshold": -1.0}, "decision_threshold must be in [0, 1], got -1.0"),
    ({"decision_threshold": math.nan}, "decision_threshold must be finite, got nan"),
    ({"fusion": {"ageing_rate": math.inf}}, "fusion ageing_rate must be finite, got inf"),
], ids=["threshold_bool", "threshold_string", "ageing_bool", "counter_string",
        "context_bool", "context_list", "free_weight_bool", "confidence_bool",
        "confidence_list", "threshold_above_one", "threshold_negative", "threshold_nan",
        "ageing_inf"])
def test_non_number_setting_is_config_error(small_scenario, tmp_path, capsys, where,
                                            settings, message):
    out = str(tmp_path / "out")
    if where == "scenario":
        data = json.loads(small_scenario.read_text())
        small_scenario.write_text(json.dumps({**data, **settings}))
        rc = main(["run", str(small_scenario), "--out", out])
    elif where == "params":
        params = tmp_path / "params.json"
        params.write_text(json.dumps(settings))
        rc = main(["run", str(small_scenario), "--out", out, "--params", str(params)])
    else:
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"grid": GRID, **settings}))
        log = tmp_path / "scans.ndjson"
        log.write_text(record_line(0.0) + "\n")
        rc = main(["replay", str(log), str(tmp_path / "m.geojson"), "--out", out,
                   "--params", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where, name", [
    ("object", "object 0 length"), ("trajectory", "trajectory 0 t"),
    ("waypoint", "object 0 waypoint 1 t")])
def test_non_finite_scenario_number_is_config_error(small_scenario, tmp_path, capsys, where,
                                                    name, value):
    """``json`` reads NaN and Infinity; a scenario number must be finite."""
    data = json.loads(small_scenario.read_text())
    car = {"length": 4.0, "width": 2.0,
           "waypoints": [{"t": 0.0, "x": 4.0, "y": 2.0, "heading": 0.0},
                         {"t": 1.0, "x": 6.0, "y": 2.0, "heading": 0.0}]}
    data["objects"] = [car]
    if where == "object":
        car["length"] = value
    elif where == "trajectory":
        data["trajectory"][0]["t"] = value
    else:
        car["waypoints"][1]["t"] = value
    small_scenario.write_text(json.dumps(data))
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{name} must be finite, got {value}" in err


@pytest.mark.parametrize("value", [2.5, True])
def test_non_integer_beam_count_is_config_error(small_scenario, tmp_path, capsys, value):
    data = json.loads(small_scenario.read_text())
    data["sensor"]["beam_count"] = value
    small_scenario.write_text(json.dumps(data))
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "beam_count must be an integer" in err


@pytest.mark.parametrize("section, field, value, message", [
    ("sensor", "max_range", math.inf, "sensor max_range must be finite, got inf"),
    ("sensor", "fov", math.nan, "sensor fov must be finite, got nan"),
    ("sensor", "rate", -math.inf, "sensor rate must be finite, got -inf"),
    ("sensor", "range_jitter", math.inf, "sensor range_jitter must be finite, got inf"),
    ("sensor", "max_range", True, "sensor max_range True is not a number"),
    ("sensor", "fov", True, "sensor fov True is not a number"),
    ("sensor", "rate", "10", "sensor rate '10' is not a number"),
    ("sensor", "range_jitter", False, "sensor range_jitter False is not a number"),
    ("sensor", "fov", 7.0, "sensor fov must be in [0, 2 pi], got 7.0"),
    ("sensor", "fov", -0.5, "sensor fov must be in [0, 2 pi], got -0.5"),
    ("grid", "origin_east", True, "grid origin_east True is not a number"),
    ("grid", "origin_north", False, "grid origin_north False is not a number"),
    ("grid", "cell_size", True, "grid cell_size True is not a number"),
])
def test_bad_sensor_or_grid_number_is_config_error(small_scenario, tmp_path, capsys, section,
                                                   field, value, message):
    data = json.loads(small_scenario.read_text())
    data[section][field] = value
    small_scenario.write_text(json.dumps(data))
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_bool_grid_number_in_params_is_config_error(small_scenario, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"grid": {**GRID, "cell_size": True}}))
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(0.0) + "\n")
    rc = main(["replay", str(log), str(tmp_path / "m.geojson"), "--out", str(tmp_path / "out"),
               "--params", str(params)])
    assert rc == 1
    assert "grid cell_size True is not a number" in capsys.readouterr().err


def test_overlapping_map_is_config_error(small_scenario, tmp_path, capsys):
    write_map(tmp_path / "m.geojson", [("building", BUILDING), ("road", BUILDING)])
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out_run")])
    assert rc == 1
    assert "configuration error: map overlap" in capsys.readouterr().err
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(0.0) + "\n")
    rc = replay(tmp_path, log, tmp_path / "out_replay")
    assert rc == 1
    assert "configuration error: map overlap" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, pytest.param(10**400, id="10**400"),
                                   "1.5", True])
def test_non_finite_map_vertex_is_config_error(small_scenario, tmp_path, capsys, value):
    """Also an integer beyond the float range, and a string or a boolean,
    which numpy would read as a number."""
    ring = [list(v) for v in BUILDING]
    ring[2][1] = value
    write_map(tmp_path / "m.geojson", [("road", [[0, 20], [4, 20], [4, 22], [0, 20]]),
                                       ("building", ring)])
    rc = main(["run", str(small_scenario), "--out", str(tmp_path / "out_run")])
    assert rc == 1
    message = f"configuration error: map file {tmp_path / 'm.geojson'}: feature 1: "
    assert message in capsys.readouterr().err
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(0.0) + "\n")
    rc = replay(tmp_path, log, tmp_path / "out_replay")
    assert rc == 1
    assert message in capsys.readouterr().err


def test_record_then_replay_matches(small_scenario, tmp_path):
    out_run = tmp_path / "run"
    log = tmp_path / "scans.ndjson"
    rc = main(["run", str(small_scenario), "--out", str(out_run),
               "--record", str(log), "--dump-grid", "0,2"])
    assert rc == 0
    assert len(log.read_text().splitlines()) == 3

    out_rep = tmp_path / "rep"
    assert replay(tmp_path, log, out_rep, "--dump-grid", "0,2") == 0
    names = sorted(path.name for path in out_run.iterdir())
    assert names == sorted(path.name for path in out_rep.iterdir())
    assert {"stats.ndjson", "trace.ppm", "grid_00000.csv", "grid_00002.csv"} <= set(names)
    for name in names:
        assert (out_rep / name).read_bytes() == (out_run / name).read_bytes(), name


def test_replay_malformed_line(small_scenario, tmp_path, capsys):
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(0.0) + "\nnot json\n")
    rc = replay(tmp_path, log, tmp_path / "out")
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_replay_streams_until_bad_line(small_scenario, tmp_path, capsys):
    log = tmp_path / "scans.ndjson"
    main(["run", str(small_scenario), "--out", str(tmp_path / "run"), "--record", str(log)])
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:2] + ['{"t": 0.3, "pose": {}}']) + "\n")
    out = tmp_path / "out"
    rc = replay(tmp_path, log, out)
    assert rc == 2
    assert "line 3" in capsys.readouterr().err
    # the epochs before the bad line were fused and written
    assert len((out / "stats.ndjson").read_text().splitlines()) == 2


def test_replay_names_line_that_is_not_utf8(small_scenario, tmp_path, capsys):
    log = tmp_path / "scans.ndjson"
    log.write_bytes((record_line(0.0) + "\n" + record_line(0.1) + "\n").encode() + b"\xff\xfe\n")
    out = tmp_path / "out"
    assert replay(tmp_path, log, out) == 2
    assert capsys.readouterr().err.startswith("evigrid: runtime error: line 3: malformed record: ")
    # the epochs before the bad line were fused and written
    assert len((out / "stats.ndjson").read_text().splitlines()) == 2


@pytest.mark.parametrize("bad_line, message", [
    (record_line(0.1, pose=(math.nan, 1.0, 0.0)), "finite"),
    (record_line(0.1, pose=(1.0, 1.0, math.inf)), "finite"),
    (record_line(0.1, beams=((math.nan, 5.0, True),)), "finite"),
    (record_line(0.1, beams=((0.0, 7.0, True),), max_range=6.0), "hit range 7.0"),
    (record_line(0.1, beams=((0.0, 5.0, False),), max_range=math.inf), "max_range"),
    (record_line(0.1, beams=((0.0, 10.0, "false"),)), "hit flag 'false'"),
    (record_line(True), "t True is not a number"),
    (record_line(0.1, pose=("0.5", False, 0.0)), "pose x '0.5' is not a number"),
    (record_line(0.1, beams=(("0.0", 6.0, True),)), "bearing '0.0' is not a number"),
    (record_line(0.1, max_range="6"), "max_range '6' is not a number"),
    # deeper than the JSON decoder recurses
    ("[" * 10_000 + "]" * 10_000, "malformed record: maximum recursion depth exceeded"),
], ids=["nan_x", "inf_heading", "nan_bearing", "hit_beyond_max_range", "inf_max_range",
        "string_hit_flag", "bool_t", "string_pose_x", "string_bearing", "string_max_range",
        "nested_line"])
def test_replay_names_line_of_bad_scan(small_scenario, tmp_path, capsys, bad_line, message):
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(0.0) + "\n" + bad_line + "\n")
    rc = replay(tmp_path, log, tmp_path / "out")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("evigrid: runtime error: line 2: ") and err.count("\n") == 1, err
    assert message in err


def _allocate_an_exbibyte(*args):
    return np.empty(2**60, dtype=np.uint8)


def _raise_memory_error(*args):
    raise MemoryError


@pytest.mark.parametrize("hook, failure, code, message", [
    ("rasterize_gg", _allocate_an_exbibyte, 1, "configuration error: Unable to allocate 1.00 EiB"),
    ("rasterize_gg", _raise_memory_error, 1, "configuration error: MemoryError"),
    ("build_sg", _raise_memory_error, 2, "runtime error: MemoryError"),
    # a scenario field: the sensor's beam fan, which numpy refuses before
    # it allocates anything
    ("sensor.beam_count", 10**18, 1,
     "configuration error: scenario {scenario}: Unable to allocate 6.94 EiB"),
], ids=["numpy_in_set_up", "bare_in_set_up", "bare_in_epoch", "beam_fan_in_set_up"])
def test_memory_error_is_one_line(small_scenario, tmp_path, capsys, monkeypatch, hook, failure,
                                  code, message):
    """Running out of memory, as the map prior of a grid too large for
    memory does, exits 1 in set-up, before any output is made, and 2 in an
    epoch, with one line and not a traceback; a MemoryError without text is
    named by its type."""
    section, _, key = hook.partition(".")
    if key:
        document = with_field(json.loads(small_scenario.read_text()), (section, key), failure)
        small_scenario.write_text(json.dumps(document))
    else:
        monkeypatch.setattr(simulator, hook, failure)
    out = tmp_path / "out"
    assert main(["run", str(small_scenario), "--out", str(out)]) == code
    err = capsys.readouterr().err
    message = message.format(scenario=small_scenario)
    assert err.startswith(f"evigrid: {message}") and err.count("\n") == 1, err
    assert out.exists() == (code == 2)


def test_replay_out_of_order_timestamps(small_scenario, tmp_path, capsys):
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(1.0) + "\n" + record_line(1.0) + "\n")
    rc = replay(tmp_path, log, tmp_path / "out")
    assert rc == 2
    assert "out-of-order" in capsys.readouterr().err


def test_replay_missing_params(small_scenario, tmp_path, capsys):
    rc = main(["replay", str(tmp_path / "none.ndjson"),
               str(small_scenario.parent / "m.geojson"),
               "--out", str(tmp_path / "out"),
               "--params", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_benchmark_trace_hooks(small_scenario, tmp_path):
    """The benchmark's traced runs find every name they wrap, the
    pignistic transform runs once per scan, and the scan and pixel counts
    match what the commands did."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    log = tmp_path / "scans.ndjson"
    commands = {
        "run": ["run", str(small_scenario), "--record", str(log), "--dump-grid", "2"],
        "replay": ["replay", str(log), str(tmp_path / "m.geojson"),
                   "--params", str(tmp_path / "params.json"), "--dump-grid", "2"],
    }
    (tmp_path / "params.json").write_text(json.dumps({"grid": GRID}))
    for name, args in commands.items():
        trace_path = tmp_path / f"{name}.trace.json"
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "perfbench" / "traced.py"), str(trace_path),
             *args, "--out", str(tmp_path / name)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(trace_path.read_text())
        assert trace["spans"] and trace["scans"] == 3
        for layer in ("map_ingest.load_map", "map_ingest.rasterize_gg", "sensor.build_sg",
                      "sensor.LidarScan", "fusion.step_with_conflicts",
                      "simulator.epoch_stats", "render.images", "render.write_ppm",
                      "grid.write_grid_csv"):
            assert trace["calls"].get(layer), (name, layer)
        assert trace["calls"]["fusion.pignistic_grid"] == 3, name
        # the counts perfbench/traced.py's per_layer reads without a default
        for key in ("map_ingest.cell_polygon_tests", "sensor.ray_cells",
                    "fusion.pignistic_grid_calls", "fusion.focal_sets_in_use",
                    "grid.csv_rows"):
            assert key in trace["counts"], (name, key)
        # replay builds each scan through the module-global simulator.LidarScan,
        # the name the trace wraps
        if name == "replay":
            assert trace["calls"]["sensor.LidarScan"] == trace["scans"]
        written = 0
        for image in (tmp_path / name).glob("*.ppm"):
            cols, rows = map(int, image.read_text().split("\n", 2)[1].split())
            written += cols * rows
        assert written and trace["counts"]["render.pixels_written"] == written, name


def test_shipped_scenario_runs(scenario_dir, tmp_path):
    rc = main(["run", str(scenario_dir / "parked_then_leaves.json"),
               "--out", str(tmp_path / "out"), "--render", "decision",
               "--every", "10"])
    assert rc == 0
    lines = (tmp_path / "out" / "stats.ndjson").read_text().splitlines()
    assert len(lines) == 50


def test_weights_of_one_run_to_completion(scenario_dir, tmp_path):
    # free and occupied beams meet in some cells: total conflict there
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"sensor_model": {"free_weight": 1.0,
                                                   "occupied_weight": 1.0}}))
    rc = main(["run", str(scenario_dir / "crossing_car.json"), "--params", str(params),
               "--out", str(tmp_path / "out"), "--render", "decision", "--every", "10"])
    assert rc == 0
    lines = (tmp_path / "out" / "stats.ndjson").read_text().splitlines()
    assert len(lines) == 50


def test_certain_building_against_certain_free_runs_to_completion(scenario_dir, tmp_path):
    # beams of weight 1 cross building cells whose prior is a certain
    # building: Dempster's rule with the prior is undefined there, and such
    # a cell takes the sensor mass without the prior (raster cell 662 from
    # the first epoch)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"sensor_model": {"free_weight": 1.0, "occupied_weight": 1.0},
                                  "map_confidence": {"building": 1.0}}))
    out = tmp_path / "out"
    rc = main(["run", str(scenario_dir / "street_canyon.json"), "--params", str(params),
               "--out", str(out), "--render", "decision", "--every", "10",
               "--dump-grid", "0,5,39"])
    assert rc == 0
    assert len((out / "stats.ndjson").read_text().splitlines()) == 40
    for epoch in (0, 5, 39):
        dump = np.loadtxt(out / f"grid_{epoch:05d}.csv", delimiter=",", skiprows=1)
        masses, counter = dump[:, 4:-1], dump[:, -1]
        assert masses.min() >= 0.0 and (masses[:, 0] == 0.0).all()
        assert np.abs(masses.sum(axis=1) - 1.0).max() <= 1e-12
        assert counter.min() >= 0.0 and counter.max() <= 1.0
        if epoch == 0:
            assert masses[662].tolist() == np.eye(32)[1].tolist()  # certain free


@pytest.mark.parametrize("option", [["--every", "0"], ["--every", "-1"],
                                    ["--dump-grid", "x"], ["--dump-grid", "2,-1"],
                                    ["--dump-grid", "1.5"]])
def test_bad_output_options_are_configuration_errors(small_scenario, tmp_path, capsys, option):
    """Found before any input is read: a run writes nothing, and a replay
    of a missing log names the option, not the log."""
    out = tmp_path / "out"
    assert main(["run", str(small_scenario), "--out", str(out), *option]) == 1
    assert not out.exists()
    assert replay(tmp_path, tmp_path / "missing.ndjson", out, *option) == 1
    err = capsys.readouterr().err
    assert err.count(f"configuration error: {option[0]} ") == 2, err


def test_out_that_is_a_file_is_configuration_error(small_scenario, tmp_path, capsys):
    """Found once the inputs are read, before any epoch: a run and a replay
    both exit 1 and name the path."""
    out = tmp_path / "out"
    out.write_text("")
    assert main(["run", str(small_scenario), "--out", str(out)]) == 1
    log = tmp_path / "scans.ndjson"
    log.write_text(record_line(0.0) + "\n")
    assert replay(tmp_path, log, out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2, err
    for line in err:
        assert line.startswith("evigrid: configuration error: ") and str(out) in line, line
    assert out.read_text() == ""


def test_record_in_missing_directory_is_configuration_error(small_scenario, tmp_path, capsys):
    """An unwritable --record fails before any epoch and leaves no stats behind."""
    out, record = tmp_path / "out", tmp_path / "missing" / "scans.ndjson"
    assert main(["run", str(small_scenario), "--out", str(out), "--record", str(record)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("evigrid: configuration error: ") and str(record) in err, err
    assert not (out / "stats.ndjson").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "SCENARIO", "--out", "OUT", "--every", "abc"],
     "argument --every: invalid int value: 'abc'"),
    (["run", "SCENARIO", "--out", "OUT", "--render", "colour"], "invalid choice: 'colour'"),
    (["run", "SCENARIO", "--out", "OUT", "--seed", "1.5"], "invalid int value: '1.5'"),
    (["run", "SCENARIO"], "the following arguments are required: --out"),
    (["replay", "log.ndjson", "map.geojson", "--out", "OUT"],
     "the following arguments are required: --params"),
    (["run", "SCENARIO", "--out", "OUT", "--colour"], "unrecognized arguments: --colour"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command")])
def test_usage_errors_are_configuration_errors(small_scenario, tmp_path, capsys, argv, message):
    """A command line that argparse rejects exits 1, as a configuration
    error, with argparse's usage line and message; nothing is written."""
    out = tmp_path / "out"
    argv = [{"SCENARIO": str(small_scenario), "OUT": str(out)}.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: evigrid") and "error: " in err and message in err, err
    assert not out.exists()


def test_usage_error_and_help_exit_codes_of_the_process(small_scenario, tmp_path):
    """The process exits 1 on a usage error and 0 for --help."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    for argv, code in ((["run", str(small_scenario), "--out", str(tmp_path), "--every", "abc"], 1),
                       (["bogus"], 1), (["--help"], 0), (["replay", "--help"], 0)):
        proc = subprocess.run([sys.executable, "-m", "evigrid.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "usage: evigrid" in (proc.stdout if code == 0 else proc.stderr)


# --- full-range sweep -----------------------------------------------------------

# a unit-interval setting: the closed range, its endpoints drawn often
UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def unit_settings(names):
    return st.fixed_dictionaries({name: UNIT for name in names})


@st.composite
def sweep_cases(draw):
    """Every setting over its documented closed range, on a grid from 1x1
    over a map with all three contexts; a moving ego and a crossing car."""
    cs = draw(st.sampled_from([0.25, 0.5, 1.0]))
    grid = {"origin_east": 0.0, "origin_north": 0.0, "cell_size": cs,
            "width": draw(st.integers(1, 16)), "height": draw(st.integers(1, 16))}
    fusion = draw(unit_settings(["ageing_rate", "counter_inc", "counter_dec",
                                 "occupancy_threshold", "conflict_threshold"]))
    contexts = draw(st.sets(st.sampled_from(["building", "road", "intermediate"])))
    fusion["ageing_by_context"] = draw(st.none() | unit_settings(sorted(contexts)))
    params = {
        "grid": grid,
        "sensor_model": draw(unit_settings(["free_weight", "occupied_weight"])),
        "map_confidence": draw(unit_settings(["building", "road", "intermediate"])),
        "fusion": fusion,
        "decision_threshold": draw(UNIT),
    }
    sensor = {"beam_count": draw(st.integers(1, 64)),
              "fov": draw(st.sampled_from([0.0, 2 * math.pi]) | st.floats(0.0, 2 * math.pi)),
              "max_range": draw(st.floats(0.5, 12.0)),
              # far from the shipped 10 Hz, every scan time finite over 5 epochs
              "rate": draw(st.floats(1e-300, 1e300)),
              "range_jitter": draw(st.sampled_from([0.0]) | st.floats(0.0, 0.5))}
    scenario = {
        "map": "m.geojson", **params, "sensor": sensor,
        "epochs": draw(st.integers(1, 5)),
        "trajectory": [{"t": 0.0, "x": 1.25, "y": 2.0, "heading": draw(st.floats(-4.0, 4.0))},
                       {"t": 0.3, "x": 2.0, "y": 3.5, "heading": 1.0}],
        "objects": [{"length": 1.0, "width": 0.5,
                     "waypoints": [{"t": 0.0, "x": 0.5, "y": 4.0, "heading": 0.0},
                                   {"t": 0.4, "x": 3.0, "y": 4.0, "heading": 0.0}]}],
    }
    return scenario, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(sweep_cases())
def test_full_range_run_and_replay_agree(case):
    """A run with every setting anywhere in its range records, renders and
    dumps every epoch and exits 0; its replay writes the same files, and
    every dumped cell holds a normal mass function and a counter in [0, 1]."""
    scenario, params, seed = case
    epochs = ",".join(map(str, range(scenario["epochs"])))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_map(tmp / "m.geojson", [("building", [[3, 0], [5, 0], [5, 1.5], [3, 1.5], [3, 0]]),
                                      ("road", [[0, 0], [2.5, 0], [2.5, 6], [0, 6], [0, 0]])])
        (tmp / "scn.json").write_text(json.dumps(scenario))
        (tmp / "params.json").write_text(json.dumps(params))
        log = tmp / "scans.ndjson"
        assert main(["run", str(tmp / "scn.json"), "--out", str(tmp / "run"), "--record",
                     str(log), "--dump-grid", epochs, "--seed", str(seed)]) == 0
        assert main(["replay", str(log), str(tmp / "m.geojson"), "--params",
                     str(tmp / "params.json"), "--out", str(tmp / "replay"),
                     "--dump-grid", epochs]) == 0
        names = sorted(path.name for path in (tmp / "run").iterdir())
        assert names == sorted(path.name for path in (tmp / "replay").iterdir())
        for name in names:
            assert (tmp / "run" / name).read_bytes() == (tmp / "replay" / name).read_bytes(), name
        for epoch in range(scenario["epochs"]):
            dump = np.loadtxt(tmp / "run" / f"grid_{epoch:05d}.csv", delimiter=",",
                              skiprows=1, ndmin=2)
            masses, zeta = dump[:, 4:-1], dump[:, -1]
            assert masses.min() >= 0.0, epoch
            assert np.abs(masses.sum(axis=1) - 1.0).max() <= 1e-9, epoch
            assert 0.0 <= zeta.min() and zeta.max() <= 1.0, epoch


def outside(low=None, high=None):
    """Finite numbers below `low` or above `high`."""
    finite = {"allow_nan": False, "allow_infinity": False}
    parts = []
    if low is not None:
        parts.append(st.floats(max_value=float(np.nextafter(low, -math.inf)), **finite))
    if high is not None:
        parts.append(st.floats(min_value=float(np.nextafter(high, math.inf)), **finite))
    return st.one_of(parts)


NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
NOT_A_COUNT = st.integers(max_value=0) | st.just(2.5)
NOT_UNIT = outside(0.0, 1.0)
# each field by its path in a scenario, and the numbers outside its
# documented range (None where every finite number is valid)
RANGED_FIELDS = [
    *((("sensor_model", key), NOT_UNIT) for key in ("free_weight", "occupied_weight")),
    *((("map_confidence", key), NOT_UNIT) for key in ("building", "road", "intermediate")),
    *((("fusion", key), NOT_UNIT) for key in ("ageing_rate", "counter_inc", "counter_dec",
                                             "occupancy_threshold", "conflict_threshold")),
    *((("fusion", "ageing_by_context", key), NOT_UNIT)
      for key in ("building", "road", "intermediate")),
    (("decision_threshold",), NOT_UNIT),
    (("sensor", "beam_count"), NOT_A_COUNT), (("sensor", "fov"), outside(0.0, 2 * math.pi)),
    (("sensor", "max_range"), NOT_POSITIVE), (("sensor", "rate"), NOT_POSITIVE),
    (("sensor", "range_jitter"), outside(0.0)),
    (("grid", "origin_east"), None), (("grid", "origin_north"), None),
    (("grid", "cell_size"), NOT_POSITIVE), (("grid", "width"), NOT_A_COUNT),
    (("grid", "height"), NOT_A_COUNT),
]
REQUIRED_KEYS = [("map",), ("grid",), ("trajectory",), ("epochs",),
                 *(("grid", key) for key in GRID)]
NOT_A_NUMBER = st.sampled_from([True, "0.5", None, math.nan, math.inf, -math.inf, 10**400])


@st.composite
def bad_fields(draw):
    """One field's path and a bad value for it, or DELETE for a deleted
    required key."""
    if draw(st.booleans()):
        return draw(st.sampled_from(REQUIRED_KEYS)), DELETE
    path, out_of_range = draw(st.sampled_from(RANGED_FIELDS))
    return path, draw(NOT_A_NUMBER if out_of_range is None else NOT_A_NUMBER | out_of_range)


@settings(max_examples=40, deadline=None)
@given(bad_fields())
# an integer beyond the float range, pinned: CI runs derandomized
@example((("grid", "origin_east"), 10**400))
@example((("grid", "width"), 10**400))
@example((("sensor", "max_range"), 10**400))
@example((("fusion", "ageing_by_context", "road"), 10**400))
# counts inside the float range that no array size holds
@example((("grid", "width"), 10**300))
@example((("sensor", "beam_count"), 10**300))
# a rate so small that the second scan's time overflows to inf
@example((("sensor", "rate"), 5e-309))
def test_bad_field_exits_1_naming_it(case):
    """A bad value in any field, or a deleted required key, exits 1 with one
    line naming the field and none of the fields beside it: in a scenario,
    in ``run --params`` and in ``replay --params``, wherever the field can
    be given."""
    path, value = case
    settings_doc = {"grid": GRID, "sensor_model": {"free_weight": 0.7, "occupied_weight": 0.8},
                    "map_confidence": {"building": 0.9, "road": 0.8, "intermediate": 0.6},
                    "fusion": {"ageing_rate": 0.05, "counter_inc": 0.2, "counter_dec": 0.4,
                               "occupancy_threshold": 0.6, "conflict_threshold": 0.3,
                               "ageing_by_context": {"building": 0.01, "road": 0.1,
                                                     "intermediate": 0.05}},
                    "decision_threshold": 0.5}
    scenario = {"map": "m.geojson", **settings_doc, "epochs": 2,
                "trajectory": [{"t": 0.0, "x": 2.0, "y": 6.0, "heading": 0.0}],
                "sensor": {"beam_count": 31, "fov": math.pi / 2, "max_range": 10.0,
                           "rate": 10.0, "range_jitter": 0.0}}
    siblings = scenario
    for key in path[:-1]:
        siblings = siblings[key]

    def names(message, key):
        return re.search(rf"\b{key}\b", message) is not None

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_map(tmp / "m.geojson", [("building", BUILDING)])
        (tmp / "good.json").write_text(json.dumps(scenario))
        (tmp / "bad.json").write_text(json.dumps(with_field(scenario, path, value)))
        (tmp / "scans.ndjson").write_text(record_line(0.0) + "\n")
        runs = [["run", str(tmp / "bad.json")]]
        if path[0] in settings_doc:
            (tmp / "params.json").write_text(json.dumps(with_field(settings_doc, path, value)))
            if path != ("grid",):
                # without a base, a params file must give the grid
                runs.append(["run", str(tmp / "good.json"), "--params", str(tmp / "params.json")])
            runs.append(["replay", str(tmp / "scans.ndjson"), str(tmp / "m.geojson"),
                         "--params", str(tmp / "params.json")])
        for argv in runs:
            with redirect_stderr(io.StringIO()) as err:
                rc = main(argv + ["--out", str(tmp / "out")])
            message = err.getvalue().replace(str(tmp), "")
            assert rc == 1 and message.count("\n") == 1, (argv[0], message)
            assert message.startswith("evigrid: configuration error: "), message
            assert names(message, path[-1]), (argv[0], message)
            assert not any(names(message, key) for key in siblings if key != path[-1]), \
                (argv[0], message)

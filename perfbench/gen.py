"""Seeded input generator for the evigrid benchmark.

Every workload is made from a seed alone; the program under test only ever
sees the files written here.  Inputs are cached under ``perfbench/.inputs``
(one directory per workload and seed) and rebuilt when missing.  Rebuild one
by hand with

    python3 perfbench/gen.py --workload intersection_live_240 --seed 1 --force

Geometry is snapped to 0.25 m and then shifted by 0.03 m, so no wall lies on
a cell boundary or a cell centre of either grid.  The seed moves roads,
buildings and cars, but never changes the number of polygons, vertices,
beams or scans, so the work per run does not depend on the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
INPUTS_DIR = BENCH_DIR / ".inputs"

OFF = 0.03
CAR_LENGTH = 4.4
CAR_WIDTH = 1.8

FUSION = {"ageing_rate": 0.05, "counter_inc": 0.2, "counter_dec": 0.4,
          "occupancy_threshold": 0.6, "conflict_threshold": 0.3}
MAP_CONFIDENCE = {"building": 0.9, "road": 0.8, "intermediate": 0.6}
SENSOR_MODEL = {"free_weight": 0.7, "occupied_weight": 0.8}
DECISION_THRESHOLD = 0.5

# scans of each workload's full command
SCANS = {"intersection_live_240": 30, "city_replay_dense_120": 60}

# how every process of the benchmark runs evigrid's command line
EVIGRID = [sys.executable, "-m", "evigrid.cli"]


def program_env() -> dict:
    """Environment for every evigrid process: the checkout's sources, one
    BLAS/OpenMP thread, so a command never uses more than one core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("EVIGRID_LOG", None)
    return env


def _snap(rng: random.Random, span: float) -> float:
    """A seeded offset in [-span, span], on the 0.25 m lattice."""
    return round(rng.uniform(-span, span) * 4.0) / 4.0


def _rect(x0: float, y0: float, x1: float, y1: float) -> list:
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


def _feature(kind: str, ring: list) -> dict:
    ring = [[round(x + OFF, 6), round(y + OFF, 6)] for x, y in ring]
    return {"type": "Feature", "properties": {"kind": kind},
            "geometry": {"type": "Polygon", "coordinates": [ring + [ring[0]]]}}


def _collection(features: list) -> dict:
    return {"type": "FeatureCollection", "features": features}


def _car_path(t0: float, t1: float, p0, p1, heading: float) -> dict:
    return {"length": CAR_LENGTH, "width": CAR_WIDTH, "waypoints": [
        {"t": t0, "x": p0[0] + OFF, "y": p0[1] + OFF, "heading": heading},
        {"t": t1, "x": p1[0] + OFF, "y": p1[1] + OFF, "heading": heading}]}


def _parked(x: float, y: float, **times) -> dict:
    return {"length": CAR_LENGTH, "width": CAR_WIDTH,
            "pose": {"x": x + OFF, "y": y + OFF, "heading": 0.0}, **times}


def intersection_scene(seed: int, scans: int) -> tuple[dict, dict, dict]:
    """A 30 m x 30 m four-way intersection on a 240x240 grid (0.125 m).

    Returns (scenario, map, truth): four corner buildings and three road
    polygons; a parked ego lidar in the south approach, facing north;
    two cars crossing east-west, one coming south, one car parked for the
    whole run and one that leaves at 40% of the run.
    """
    rng = random.Random(seed)
    xc, yc = 15.0 + _snap(rng, 1.0), 15.0 + _snap(rng, 1.0)
    inset = [1.0 + _snap(rng, 0.5) for _ in range(8)]
    roads = [_rect(-2.0, yc - 3.0, 32.0, yc + 3.0),
             _rect(xc - 3.0, -2.0, xc + 3.0, yc - 3.0),
             _rect(xc - 3.0, yc + 3.0, xc + 3.0, 32.0)]
    buildings = [_rect(inset[0], inset[1], xc - 4.0, yc - 4.0),
                 _rect(xc + 4.0, inset[2], 29.0 - inset[3] + 1.0, yc - 4.0),
                 _rect(inset[4], yc + 4.0, xc - 4.0, 29.0 - inset[5] + 1.0),
                 _rect(xc + 4.0, yc + 4.0, 29.0 - inset[6] + 1.0, 29.0 - inset[7] + 1.0)]
    vmap = _collection([_feature("road", r) for r in roads]
                       + [_feature("building", b) for b in buildings])

    duration = scans / 10.0
    leave_t = round(0.4 * scans) / 10.0
    ego = {"t": 0.0, "x": xc + 1.5 + OFF, "y": yc - 5.0 + OFF, "heading": math.pi / 2}
    moving = [
        _car_path(0.0, duration, (-4.0 + _snap(rng, 1.0), yc - 1.9),
                  (-4.0 + 36.0, yc - 1.9), 0.0),
        _car_path(0.0, duration, (34.0 + _snap(rng, 1.0), yc + 0.1),
                  (34.0 - 36.0, yc + 0.1), math.pi),
        _car_path(0.0, duration, (xc - 1.5, 34.0 + _snap(rng, 1.0)),
                  (xc - 1.5, yc + 1.0), -math.pi / 2),
    ]
    parked_always = _parked(xc - 9.0 + _snap(rng, 1.0), yc + 2.1)
    parked_leaving = _parked(xc + 8.0 + _snap(rng, 1.0), yc + 2.1,
                             appear_t=0.0, disappear_t=leave_t)
    scenario = {
        "map": "map.geojson",
        "grid": {"origin_east": 0.0, "origin_north": 0.0, "cell_size": 0.125,
                 "width": 240, "height": 240},
        "epochs": scans,
        "trajectory": [ego],
        "sensor": {"beam_count": 361, "fov": math.pi, "max_range": 30.0, "rate": 10.0},
        "sensor_model": SENSOR_MODEL,
        "map_confidence": MAP_CONFIDENCE,
        "fusion": FUSION,
        "decision_threshold": DECISION_THRESHOLD,
        "objects": moving + [parked_always, parked_leaving],
    }
    truth = {"moving": [0, 1, 2], "parked_always": 3, "parked_leaving": 4}
    return scenario, vmap, truth


def city_scene(seed: int, scans: int) -> tuple[dict, dict, dict]:
    """A 30 m x 30 m city block on a 120x120 grid (0.25 m).

    Returns (scenario, map, truth): two east-west and two north-south 6 m
    roads cut the block into nine lots of two buildings each (18 buildings
    and 8 road polygons).  The ego drives east along the middle of the lower
    road with a 1081-beam 270-degree lidar; one car comes south across that
    road further east and one is parked at the kerb ahead.

    Nothing comes within 4 m of the lidar, so at most about 20 beams end in
    or cross one cell.  With more, the program's beam-by-beam merge drifts
    and can abort the run (see the first FOUND line in CHANGES.md).
    """
    rng = random.Random(seed)
    ys = [9.0 + _snap(rng, 0.5), 20.0 + _snap(rng, 0.5)]
    xs = [9.0 + _snap(rng, 0.5), 20.0 + _snap(rng, 0.5)]
    half = 3.0
    roads = [_rect(-2.0, y - half, 32.0, y + half) for y in ys]
    bands_y = [(-2.0, ys[0] - half), (ys[0] + half, ys[1] - half), (ys[1] + half, 32.0)]
    bands_x = [(-2.0, xs[0] - half), (xs[0] + half, xs[1] - half), (xs[1] + half, 32.0)]
    for x in xs:
        roads += [_rect(x - half, y0, x + half, y1) for y0, y1 in bands_y]
    buildings = []
    for bx0, bx1 in bands_x:
        for by0, by1 in bands_y:
            # a lot with a 1 m pavement, split into two buildings by a
            # seeded 0.5 m passage
            lx0, lx1 = max(bx0, -0.5) + 1.0, min(bx1, 30.5) - 1.0
            ly0, ly1 = max(by0, -0.5) + 1.0, min(by1, 30.5) - 1.0
            mx = (lx0 + lx1) / 2.0 + _snap(rng, min(0.75, (lx1 - lx0) / 2.0 - 0.75))
            buildings += [_rect(lx0, ly0, mx - 0.25, ly1), _rect(mx + 0.25, ly0, lx1, ly1)]
    vmap = _collection([_feature("road", r) for r in roads]
                       + [_feature("building", b) for b in buildings])

    duration = scans / 10.0
    scenario = {
        "map": "map.geojson",
        "grid": {"origin_east": 0.0, "origin_north": 0.0, "cell_size": 0.25,
                 "width": 120, "height": 120},
        "epochs": scans,
        "trajectory": [{"t": 0.0, "x": 1.0 + OFF, "y": ys[0] + OFF, "heading": 0.0},
                       {"t": duration, "x": 10.0 + OFF, "y": ys[0] + OFF, "heading": 0.0}],
        "sensor": {"beam_count": 1081, "fov": 1.5 * math.pi, "max_range": 30.0,
                   "rate": 10.0, "range_jitter": 0.01},
        "sensor_model": SENSOR_MODEL,
        "map_confidence": MAP_CONFIDENCE,
        "fusion": dict(FUSION, ageing_by_context={"building": 0.02, "road": 0.1,
                                                  "intermediate": 0.05}),
        "decision_threshold": DECISION_THRESHOLD,
        "objects": [
            _car_path(0.0, duration, (xs[1] + 1.5, 34.0 + _snap(rng, 1.0)),
                      (xs[1] + 1.5, -4.0), -math.pi / 2),
            _parked(16.5 + _snap(rng, 0.25), ys[0] + 2.0),
        ],
    }
    truth = {"moving": [0], "parked_always": 1, "parked_leaving": None}
    return scenario, vmap, truth


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n")


def build(workload: str, seed: int, out: Path) -> None:
    """Write every input of one workload into ``out``."""
    scans = SCANS[workload]
    out.mkdir(parents=True)
    if workload == "intersection_live_240":
        scenario, vmap, truth = intersection_scene(seed, scans)
        _write_json(out / "map.geojson", vmap)
        _write_json(out / "scene.json", scenario)
        _write_json(out / "scene_1.json", dict(scenario, epochs=1))
        _write_json(out / "truth.json", truth)
        return
    scenario, vmap, truth = city_scene(seed, scans)
    _write_json(out / "map.geojson", vmap)
    _write_json(out / "scene.json", scenario)
    _write_json(out / "truth.json", truth)
    _write_json(out / "params.json", {key: scenario[key] for key in (
        "grid", "fusion", "map_confidence", "sensor_model", "decision_threshold")})
    # the log is recorded by the program itself, like a drive that is
    # replayed later; its stats are the reference the replay must match
    proc = subprocess.run(
        [*EVIGRID, "run", str(out / "scene.json"), "--out", str(out / "record"),
         "--render", "decision", "--every", str(10 * scans),
         "--record", str(out / "log.ndjson"), "--seed", str(seed)],
        env=program_env(), cwd=out, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"recording the replay log failed: {proc.stderr.strip()}")
    with open(out / "log.ndjson") as fh:
        first = fh.readline()
    (out / "log_1.ndjson").write_text(first)


def inputs_for(workload: str, seed: int, force: bool = False) -> Path:
    """The cached input directory of (workload, seed), built if missing.

    The directory name carries a digest of this file, so inputs made by an
    older generator are never reused.
    """
    digest = hashlib.sha1(Path(__file__).read_bytes()).hexdigest()[:10]
    out = INPUTS_DIR / f"{workload}-{seed}-{digest}"
    if force or not (out / "done").exists():
        shutil.rmtree(out, ignore_errors=True)
        tmp = INPUTS_DIR / f".tmp-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build(workload, seed, tmp)
        (tmp / "done").write_text("")
        tmp.rename(out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SCANS), action="append",
                        help="workload to build (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--force", action="store_true", help="rebuild even if cached")
    args = parser.parse_args(argv)
    for workload in args.workload or sorted(SCANS):
        print(inputs_for(workload, args.seed, force=args.force))
    return 0


if __name__ == "__main__":
    sys.exit(main())

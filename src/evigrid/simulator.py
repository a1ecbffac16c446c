"""The epoch pipeline and its two scan sources: synthetic worlds and scan logs.

Scenario files are JSON documents describing a map, a vehicle trajectory,
tracked objects and the sensor/fusion parameters; see the shipped files under
``scenarios/`` for the schema; unknown and missing keys are rejected by
name, and errors name the file.  Ray casting is exact and noise-free by
default; an optional uniform range jitter sits behind a seeded RNG.  Each
epoch decides once per palette state, and the readers of its (S,) codes
gather them by palette ids.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import random
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import frames, fusion
from .fusion import (ConflictPair, DECISION_LABELS, FusionParams, decide_pignistic,
                     step_with_conflicts)
from .grid import (EvidentialGrid, GridSpec, _check_fields, _count, _known, _number,
                   _parse_file, _positive, _section, _unit)
from .map_ingest import MapConfidence, load_map, rasterize_gg
from .sensor import LidarScan, Pose, SensorGridParams, beam_directions, build_sg, normalize_heading

# Ignore intersections closer than this along the ray: the emitter itself
# must not count as an obstacle when it sits exactly on a segment.
_RAY_EPS = 1e-9


class ScenarioError(ValueError):
    """A scenario or params file could not be parsed or is inconsistent."""


@dataclass(frozen=True)
class TimedPose:
    t: float
    pose: Pose

    def __post_init__(self):
        _check_fields(self, _number, ("t",))


def _check_increasing(poses: tuple[TimedPose, ...], what: str) -> None:
    """Name the first of `poses`, each a `what`, whose time is not after the one before."""
    for k, (a, b) in enumerate(zip(poses, poses[1:]), start=1):
        if b.t <= a.t:
            raise ScenarioError(f"{what} {k}: timestamps must be strictly increasing, "
                                f"got {b.t} after {a.t}")


def interpolate_pose(trajectory: tuple[TimedPose, ...], t: float) -> Pose:
    """Piecewise-linear pose at time t, clamped to the trajectory ends.

    Headings interpolate along the shorter arc.
    """
    if t <= trajectory[0].t:
        return trajectory[0].pose
    if t >= trajectory[-1].t:
        return trajectory[-1].pose
    # the segment that ends at the first pose not before t: t is inside the ends
    a, b = next((a, b) for a, b in zip(trajectory, trajectory[1:]) if t <= b.t)
    frac = (t - a.t) / (b.t - a.t)
    return Pose(
        a.pose.x + frac * (b.pose.x - a.pose.x),
        a.pose.y + frac * (b.pose.y - a.pose.y),
        a.pose.heading + frac * normalize_heading(b.pose.heading - a.pose.heading))


@dataclass(frozen=True)
class ObjectTrack:
    """A rectangular object, either waypoint-driven or parked.

    Waypoint tracks exist from their first to their last timestamp, and
    their timestamps increase strictly.  Static tracks exist in
    [appear_t, disappear_t), from the start or to the end where a time is
    not given.
    """

    length: float
    width: float
    waypoints: tuple[TimedPose, ...] = ()
    pose: Optional[Pose] = None
    appear_t: Optional[float] = None
    disappear_t: Optional[float] = None

    def __post_init__(self):
        _check_fields(self, _positive, ("length", "width"))
        if not self.waypoints and self.pose is None:
            raise ScenarioError("needs waypoints or a static pose")
        for name in ("pose", "appear_t", "disappear_t"):
            if self.waypoints and getattr(self, name) is not None:
                raise ScenarioError(f"{name} applies to static objects only")
        _check_fields(self, _number, [name for name in ("appear_t", "disappear_t")
                                      if getattr(self, name) is not None])
        _check_increasing(self.waypoints, "waypoint")

    def pose_at(self, t: float) -> Optional[Pose]:
        if self.waypoints:
            if not self.waypoints[0].t <= t <= self.waypoints[-1].t:
                return None
            return interpolate_pose(self.waypoints, t)
        after = self.appear_t is None or self.appear_t <= t
        before = self.disappear_t is None or t < self.disappear_t
        return self.pose if after and before else None

    def polygon_at(self, t: float) -> Optional[np.ndarray]:
        """Footprint corners at time t, or None when absent."""
        pose = self.pose_at(t)
        if pose is None:
            return None
        hl, hw = self.length / 2.0, self.width / 2.0
        c, s = math.cos(pose.heading), math.sin(pose.heading)
        corners = np.array([(-hl, -hw), (hl, -hw), (hl, hw), (-hl, hw)])
        rot = np.array([(c, -s), (s, c)])
        return corners @ rot.T + (pose.x, pose.y)


@dataclass(frozen=True)
class SensorSpec:
    """A lidar.  Its read-only (beam_count,) fan of ``bearings`` is made with
    the spec, so a fan that no memory holds fails here, and is not a field:
    files do not give it, and specs compare without it."""

    beam_count: int = 181
    fov: float = math.pi
    max_range: float = 30.0
    rate: float = 10.0
    range_jitter: float = 0.0

    def __post_init__(self):
        _check_fields(self, _count, ("beam_count",))
        _check_fields(self, _number, ("fov", "range_jitter"))
        _check_fields(self, _positive, ("max_range", "rate"))
        if not 0.0 <= self.fov <= 2.0 * math.pi:
            raise ValueError(f"fov must be in [0, 2 pi], got {self.fov}")
        if self.range_jitter < 0:
            raise ValueError(f"range_jitter must be >= 0, got {self.range_jitter}")
        bearings = (np.linspace(-self.fov / 2.0, self.fov / 2.0, self.beam_count)
                    if self.beam_count > 1 else np.zeros(1))
        bearings.flags.writeable = False
        object.__setattr__(self, "bearings", bearings)


@dataclass
class Settings:
    """The pipeline settings that scenario files and params files share."""

    grid: GridSpec
    sensor_model: SensorGridParams = field(default_factory=SensorGridParams)
    map_confidence: MapConfidence = field(default_factory=MapConfidence)
    fusion: FusionParams = field(default_factory=FusionParams)
    decision_threshold: float = 0.5

    def __post_init__(self):
        self.decision_threshold = _unit(self.decision_threshold, "decision_threshold")


def _parse_settings(data: dict) -> dict:
    """The settings present in a scenario or params document: each section
    made as its class, and the decision threshold as given.  Absent keys
    are left out, so that defaults or a base's values hold."""
    return {key: _section(value, _SECTIONS[key], key) if key in _SECTIONS else value
            for key, value in data.items() if key in _SETTINGS_KEYS}


_SETTINGS_KEYS = {f.name for f in dataclasses.fields(Settings)}
_SECTIONS = {"grid": GridSpec, "sensor_model": SensorGridParams,
             "map_confidence": MapConfidence, "fusion": FusionParams}
_SCENARIO_KEYS = _SETTINGS_KEYS | {"map", "trajectory", "sensor", "epochs", "objects"}
_POSE_KEYS = ("x", "y", "heading")
_RECORD_KEYS = ("t", "pose", "beams", "max_range")


def load_settings(path, base: Optional[Settings] = None) -> Settings:
    """Read a params file: any of the ``Settings`` keys, each replacing its
    value in `base`.  Without a base the file must give the grid.  Other keys
    are rejected."""
    def parse(data: dict) -> Settings:
        parsed = _parse_settings(_known(data, _SETTINGS_KEYS,
                                        required=("grid",) if base is None else ()))
        return Settings(**parsed) if base is None else dataclasses.replace(base, **parsed)
    return _parse_file(path, "params", parse, ScenarioError)


@dataclass
class ScenarioConfig(Settings):
    _: KW_ONLY
    map_path: Path
    trajectory: tuple[TimedPose, ...]
    sensor: SensorSpec
    epochs: int
    objects: list[ObjectTrack] = field(default_factory=list)

    def __post_init__(self):
        super().__post_init__()
        self.epochs = _count(self.epochs, "epochs")
        last_t = (self.epochs - 1) / self.sensor.rate
        if not math.isfinite(last_t):
            raise ScenarioError(f"last scan time (epochs - 1) / sensor rate must be finite, "
                                f"got {last_t}")
        if not self.trajectory:
            raise ScenarioError("trajectory must contain at least one pose")
        _check_increasing(self.trajectory, "trajectory")

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        path = Path(path)
        return _parse_file(path, "scenario", lambda data: cls.from_dict(data, path.parent),
                           ScenarioError)

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path = Path(".")) -> "ScenarioConfig":
        """A scenario from its JSON object; unknown and missing keys are
        named, in the document and in each of its objects, and a ValueError
        of any class it makes is raised as a ScenarioError."""
        def listed(entries, where) -> list:
            if not isinstance(entries, list):
                raise ScenarioError(f"{where} {entries!r} is not a list")
            return entries

        def timed_poses(entries, where):
            keys = ("t", *_POSE_KEYS)
            entries = [_known(e, keys, f"{where} {k}", keys)
                       for k, e in enumerate(listed(entries, where))]
            poses = [_section({key: e[key] for key in _POSE_KEYS}, Pose, f"{where} {k}")
                     for k, e in enumerate(entries)]
            return tuple(_section({"t": e["t"], "pose": pose}, TimedPose, f"{where} {k}")
                         for k, (e, pose) in enumerate(zip(entries, poses)))

        def track(k, entry) -> ObjectTrack:
            where = f"object {k}"
            return _section(entry, ObjectTrack, where,
                            waypoints=lambda value: timed_poses(value, f"{where} waypoint"),
                            pose=lambda value: _section(value, Pose, f"{where} pose"))

        try:
            _known(data, _SCENARIO_KEYS, required=("map", "grid", "trajectory", "epochs"))
            if not isinstance(data["map"], str):
                raise ScenarioError(f"map {data['map']!r} is not a string")
            return cls(
                map_path=base_dir / data["map"],
                trajectory=timed_poses(data["trajectory"], "trajectory"),
                sensor=_section(data.get("sensor", {}), SensorSpec, "sensor"),
                epochs=data["epochs"],
                objects=[track(k, entry) for k, entry
                         in enumerate(listed(data.get("objects", []), "objects"))],
                **_parse_settings(data),
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc


def polygon_segments(polygon: np.ndarray) -> np.ndarray:
    """Edges of a closed polygon as an (k, 4) array of x1,y1,x2,y2."""
    rolled = np.roll(polygon, -1, axis=0)
    return np.hstack([polygon, rolled])


def world_segments(walls: np.ndarray, objects: list[ObjectTrack], t: float) -> np.ndarray:
    """Opaque edges at time t: the (k, 4) building `walls`, made once per run,
    plus the footprints of the objects present."""
    polygons = (track.polygon_at(t) for track in objects)
    return np.vstack([walls, *(polygon_segments(p) for p in polygons if p is not None)])


def simulate_scan(segments: np.ndarray, pose: Pose, sensor: SensorSpec,
                  rng: Optional[random.Random] = None) -> LidarScan:
    """Cast one beam fan against a set of opaque segments.

    Ranges are exact geometric ray-segment intersections, every beam against
    every segment at once; the same ray against the same world always
    returns the identical range.
    """
    bearings = sensor.bearings
    a = segments[:, :2]
    v = segments[:, 2:] - a
    w = a - np.array([pose.x, pose.y])
    dx, dy = beam_directions(pose.heading, bearings)[:, :, None]
    denom = dx * v[:, 1] - dy * v[:, 0]
    # a subnormal denominator (a beam along a segment, its heading a
    # subnormal number of radians off) overflows the quotients to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_ray = (w[:, 0] * v[:, 1] - w[:, 1] * v[:, 0]) / denom
        u = (w[:, 0] * dy - w[:, 1] * dx) / denom
    valid = (denom != 0.0) & (t_ray > _RAY_EPS) & (u >= 0.0) & (u <= 1.0)
    # a world without segments leaves every beam at inf
    ranges = np.where(valid, t_ray, math.inf).min(axis=1, initial=math.inf)
    if rng is not None and sensor.range_jitter > 0.0:
        # one draw per beam with a finite range, in beam order
        finite = np.flatnonzero(np.isfinite(ranges))
        jitter = sensor.range_jitter
        draws = [rng.uniform(-jitter, jitter) for _ in range(len(finite))]
        ranges[finite] = np.maximum(ranges[finite] + draws, _RAY_EPS)
    hit = ranges <= sensor.max_range
    return LidarScan(np.array((bearings, np.where(hit, ranges, sensor.max_range), hit)),
                     sensor.max_range)


@dataclass
class EpochResult:
    epoch: int
    time: float
    pose: Pose
    scan: LidarScan
    pg: EvidentialGrid
    conflicts: ConflictPair
    codes: np.ndarray    # decision codes of pg.states, (S,), indices into DECISION_LABELS
    stats: dict
    state_bet: np.ndarray  # pignistic probabilities of pg.states, (5, S)


_COUNT_KEYS = ("cells_F", "cells_I", "cells_U", "cells_S", "cells_M", "cells_unknown")


def epoch_stats(epoch: int, codes: np.ndarray, ids: np.ndarray, conflicts: ConflictPair) -> dict:
    """A ``stats.ndjson`` line: the cells of each of the (S,) codes, by palette ids."""
    counts = np.bincount(np.take(codes, ids).ravel(), minlength=len(DECISION_LABELS))
    return {
        "t": epoch,
        **dict(zip(_COUNT_KEYS, counts.tolist())),
        "total_conflict_fo": conflicts.free_to_occupied,
        "total_conflict_of": conflicts.occupied_to_free,
        "total_residual": conflicts.residual,
    }


def _epochs(scans: Iterable[tuple[float, Pose, LidarScan]], gg: EvidentialGrid,
            settings: Settings) -> Iterator[EpochResult]:
    """Fuse each (t, pose, scan) with the map prior `gg`: one epoch per scan."""
    spec = settings.grid
    # every cell starts in the one vacuous state
    pg = EvidentialGrid(spec, frames.PERCEPTION_FRAME)
    for epoch, (t, pose, scan) in enumerate(scans):
        sg = build_sg(scan, pose, spec, settings.sensor_model)
        pg, conflicts = step_with_conflicts(pg, sg, gg, settings.fusion)
        # once per palette state; looked up on the module, where
        # perfbench/traced.py times it
        bet = fusion.pignistic_grid(pg)
        codes = decide_pignistic(bet, settings.decision_threshold)
        yield EpochResult(epoch, t, pose, scan, pg, conflicts, codes,
                          epoch_stats(epoch, codes, pg.ids, conflicts), bet)


def _simulated_scans(cfg: ScenarioConfig, walls: np.ndarray,
                     rng: Optional[random.Random]) -> Iterator[tuple[float, Pose, LidarScan]]:
    for epoch in range(cfg.epochs):
        t = epoch / cfg.sensor.rate
        pose = interpolate_pose(cfg.trajectory, t)
        segments = world_segments(walls, cfg.objects, t)
        yield t, pose, simulate_scan(segments, pose, cfg.sensor, rng)


def run_scenario(cfg: ScenarioConfig,
                 seed: Optional[int] = None) -> Iterator[EpochResult]:
    """Drive the full pipeline: the map prior at once, then one simulated
    and fused scan per step of the returned iterator."""
    vmap = load_map(cfg.map_path)
    gg = rasterize_gg(vmap, cfg.map_confidence, cfg.grid)
    # the static part of the world, once; roads do not block the lidar
    walls = np.vstack([np.empty((0, 4)), *map(polygon_segments, vmap.buildings)])
    rng = random.Random(seed) if seed is not None else None
    return _epochs(_simulated_scans(cfg, walls, rng), gg, cfg)


def format_scan(t: float, pose: Pose, scan: LidarScan) -> str:
    """One scan-log line (NDJSON), without its newline."""
    bearing, rng, hit = scan.columns.tolist()
    return json.dumps({
        "t": t,
        "pose": {"x": pose.x, "y": pose.y, "heading": pose.heading},
        "beams": list(map(list, zip(bearing, rng, map(bool, hit)))),
        "max_range": scan.max_range,
    })


def _beam(k: int, row) -> tuple[float, float, bool]:
    """Beam `k` of a log record: a list of two JSON numbers and a JSON boolean."""
    if not (isinstance(row, list) and len(row) == 3):
        raise ValueError(f"beam {k} {row!r} is not a [bearing, range, hit] list")
    bearing, rng, hit = row
    if not isinstance(hit, bool):
        raise ValueError(f"beam {k} hit flag {hit!r} is not true or false")
    return _number(bearing, f"beam {k} bearing"), _number(rng, f"beam {k} range"), hit


def _beams(rows) -> np.ndarray:
    """A log record's beams, each ``[bearing, range, hit]`` with JSON numbers
    and a JSON boolean, as (3, beams) float columns.  Each column is checked
    at once; the per-beam checks run only where a column holds another type
    or a number beyond the float range, and name the beam and the value."""
    if type(rows) is list and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}:
        bearings, ranges, hits = tuple(zip(*rows)) or ((), (), ())
        if set(map(type, bearings + ranges)) <= {float, int} and set(map(type, hits)) <= {bool}:
            with contextlib.suppress(OverflowError):
                return np.array((bearings, ranges, hits), dtype=float)
    if not isinstance(rows, list):
        raise ValueError(f"beams {rows!r} is not a list")
    return np.array([_beam(k, row) for k, row in enumerate(rows)], dtype=float).reshape(-1, 3).T


def read_scan_log(lines: Iterable[str | bytes]) -> Iterator[tuple[float, Pose, LidarScan]]:
    """Parse and check a scan log one line at a time.

    Lines are text or UTF-8 bytes; a line of bytes that does not decode is
    malformed like any other.  Blank lines are skipped and timestamps must
    increase strictly; errors name the line.
    """
    last_t = -math.inf
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = _known(json.loads(line), _RECORD_KEYS, required=_RECORD_KEYS)
            t = _number(rec["t"], "t")
            pose = _section(rec["pose"], Pose, "pose")
            scan = LidarScan(_beams(rec["beams"]), rec["max_range"])
        except Exception as exc:
            raise ValueError(f"line {lineno}: malformed record: "
                             f"{str(exc) or type(exc).__name__}") from exc
        if not t > last_t:
            raise ValueError(f"line {lineno}: out-of-order timestamp {t}")
        last_t = t
        yield t, pose, scan


def replay_scans(lines: Iterable[str | bytes], gg: EvidentialGrid,
                 settings: Settings) -> Iterator[EpochResult]:
    """Run the pipeline on the lines of a scan log, each read as it is fused."""
    return _epochs(read_scan_log(lines), gg, settings)

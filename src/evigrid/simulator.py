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

import dataclasses
import json
import math
import numbers
import random
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import frames, fusion
from .fusion import (ConflictPair, DECISION_LABELS, FusionParams, decide_pignistic,
                     step_with_conflicts)
from .grid import EvidentialGrid, GridSpec
from .map_ingest import MapConfidence, VectorMap, load_map, rasterize_gg
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


def interpolate_pose(trajectory: tuple[TimedPose, ...], t: float) -> Pose:
    """Piecewise-linear pose at time t, clamped to the trajectory ends.

    Headings interpolate along the shorter arc.
    """
    if t <= trajectory[0].t:
        return trajectory[0].pose
    if t >= trajectory[-1].t:
        return trajectory[-1].pose
    for a, b in zip(trajectory, trajectory[1:]):
        if t <= b.t:
            frac = (t - a.t) / (b.t - a.t)
            return Pose(
                a.pose.x + frac * (b.pose.x - a.pose.x),
                a.pose.y + frac * (b.pose.y - a.pose.y),
                a.pose.heading + frac * normalize_heading(b.pose.heading - a.pose.heading))
    return trajectory[-1].pose  # unreachable, timestamps are increasing


@dataclass(frozen=True)
class ObjectTrack:
    """A rectangular object, either waypoint-driven or parked.

    Waypoint tracks exist from their first to their last timestamp.  Static
    tracks exist in [appear_t, disappear_t).
    """

    length: float
    width: float
    waypoints: tuple[TimedPose, ...] = ()
    pose: Optional[Pose] = None
    appear_t: float = -math.inf
    disappear_t: float = math.inf

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise ScenarioError("object footprint dimensions must be positive")
        if bool(self.waypoints) == (self.pose is not None):
            raise ScenarioError("object needs either waypoints or a static pose")

    def pose_at(self, t: float) -> Optional[Pose]:
        if self.waypoints:
            if not self.waypoints[0].t <= t <= self.waypoints[-1].t:
                return None
            return interpolate_pose(self.waypoints, t)
        if self.appear_t <= t < self.disappear_t:
            return self.pose
        return None

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
    beam_count: int = 181
    fov: float = math.pi
    max_range: float = 30.0
    rate: float = 10.0
    range_jitter: float = 0.0

    def __post_init__(self):
        if isinstance(self.beam_count, bool) or not isinstance(self.beam_count, numbers.Integral):
            raise ScenarioError(f"beam_count must be an integer, got {self.beam_count!r}")
        if self.beam_count < 1:
            raise ScenarioError("beam_count must be >= 1")
        for name in ("fov", "max_range", "rate", "range_jitter"):
            object.__setattr__(self, name, _number(getattr(self, name), f"sensor {name}"))
        if not 0.0 <= self.fov <= 2.0 * math.pi:
            raise ScenarioError(f"sensor fov must be in [0, 2 pi], got {self.fov}")
        for name in ("max_range", "rate"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"sensor {name} must be > 0, got {getattr(self, name)}")
        if self.range_jitter < 0:
            raise ScenarioError("range_jitter must be >= 0")

    def bearings(self) -> np.ndarray:
        if self.beam_count == 1:
            return np.zeros(1)
        return np.linspace(-self.fov / 2.0, self.fov / 2.0, self.beam_count)


@dataclass
class Settings:
    """The pipeline settings that scenario files and params files share."""

    grid: GridSpec
    sensor_model: SensorGridParams = field(default_factory=SensorGridParams)
    map_confidence: MapConfidence = field(default_factory=MapConfidence)
    fusion: FusionParams = field(default_factory=FusionParams)
    decision_threshold: float = 0.5


def _section(value, kind, name: str) -> dict:
    """The object `value` of the section `name`, once its keys are fields of
    the dataclass `kind`, those without a default included."""
    fields = dataclasses.fields(kind)
    return _known(value, {f.name for f in fields}, name,
                  [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING])


def _parse_settings(data: dict) -> dict:
    """The settings keys present in a scenario or params document, parsed.

    Absent keys are left out, so that defaults or a base's values hold.
    The numbers of the other sections and the decision threshold must be
    finite JSON numbers, the threshold in [0, 1]; ``GridSpec`` checks the
    grid's.
    """
    parsed = {}
    kinds = {"grid": GridSpec, "sensor_model": SensorGridParams,
             "map_confidence": MapConfidence, "fusion": FusionParams}
    for key, kind in kinds.items():
        if key in data:
            values = _section(data[key], kind, key)
            if kind is not GridSpec:
                values = {name: _setting(value, f"{key} {name}") for name, value in values.items()}
            parsed[key] = kind(**values)
    if "decision_threshold" in data:
        threshold = _number(data["decision_threshold"], "decision_threshold")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"decision_threshold must be in [0, 1], got {threshold}")
        parsed["decision_threshold"] = threshold
    return parsed


def _setting(value, name: str):
    """One value of a settings section: a number, except that
    ``fusion ageing_by_context`` is null or an object of numbers."""
    if name != "fusion ageing_by_context":
        return _number(value, name)
    if value is None:
        return None
    return {key: _number(rate, f"{name} {key}")
            for key, rate in _known(value, set(fusion._CONTEXTS), name).items()}


def _known(data, keys, where: str = "", required=()) -> dict:
    """`data`, once it is an object whose keys are all in `keys` and include
    each of `required`; `where` names it in the error."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where} {data!r} is not an object".lstrip())
    lead = f"{where}: " if where else ""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ScenarioError(f"{lead}unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ScenarioError(f"{lead}missing key(s) {', '.join(map(repr, missing))}")
    return data


def _parse_file(path: Path, kind: str, parse):
    """`parse` of the JSON object in a scenario or params file.  Every error
    is a ScenarioError of one line that names the file."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {kind} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{kind} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{kind} {path}: expected a JSON object, got {type(data).__name__}")
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{kind} {path}: {exc}") from exc


_SETTINGS_KEYS = {f.name for f in dataclasses.fields(Settings)}
_SCENARIO_KEYS = _SETTINGS_KEYS | {"map", "trajectory", "sensor", "epochs", "objects"}
_OBJECT_KEYS = {"length", "width", "waypoints", "pose", "appear_t", "disappear_t"}
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
    return _parse_file(Path(path), "params", parse)


@dataclass
class ScenarioConfig(Settings):
    _: KW_ONLY
    map_path: Path
    trajectory: tuple[TimedPose, ...]
    sensor: SensorSpec
    epochs: int
    objects: list[ObjectTrack] = field(default_factory=list)

    def __post_init__(self):
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, numbers.Integral):
            raise ScenarioError(f"epochs must be an integer, got {self.epochs!r}")
        if self.epochs < 1:
            raise ScenarioError("epoch count must be >= 1")
        if not self.trajectory:
            raise ScenarioError("trajectory must contain at least one pose")
        times = [tp.t for tp in self.trajectory]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("trajectory timestamps must be strictly increasing")

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        path = Path(path)
        return _parse_file(path, "scenario", lambda data: cls.from_dict(data, path.parent))

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path = Path(".")) -> "ScenarioConfig":
        """A scenario from its JSON object; unknown and missing keys are
        named, in the document and in each of its objects."""
        _known(data, _SCENARIO_KEYS, required=("map", "grid", "trajectory", "epochs"))

        def listed(entries, where) -> list:
            if not isinstance(entries, list):
                raise ScenarioError(f"{where} {entries!r} is not a list")
            return entries

        def pose(entry, where):
            return Pose(*(_number(entry[key], f"{where} {key}") for key in _POSE_KEYS))

        def timed_poses(entries, where):
            keys = ("t", *_POSE_KEYS)
            entries = [_known(e, keys, f"{where} {k}", keys)
                       for k, e in enumerate(listed(entries, where))]
            return tuple(TimedPose(_number(e["t"], f"{where} t"), pose(e, where))
                         for e in entries)

        objects = []
        for k, entry in enumerate(listed(data.get("objects", []), "objects")):
            where = f"object {k}"
            _known(entry, _OBJECT_KEYS, where, ("length", "width"))
            kwargs = {key: _number(entry[key], f"{where} {key}") for key in ("length", "width")}
            if "waypoints" in entry:
                for key in ("appear_t", "disappear_t"):
                    if key in entry:
                        raise ScenarioError(f"{where}: {key!r} applies to static objects only")
                kwargs["waypoints"] = timed_poses(entry["waypoints"], f"{where} waypoint")
            elif "pose" not in entry:
                raise ScenarioError(f"{where}: needs 'waypoints' or a 'pose'")
            else:
                kwargs["pose"] = pose(_known(entry["pose"], _POSE_KEYS, f"{where} pose",
                                             _POSE_KEYS), f"{where} pose")
                for key in ("appear_t", "disappear_t"):
                    if key in entry:
                        kwargs[key] = _number(entry[key], f"{where} {key}")
            objects.append(ObjectTrack(**kwargs))

        return cls(
            map_path=base_dir / data["map"],
            trajectory=timed_poses(data["trajectory"], "trajectory"),
            sensor=SensorSpec(**_section(data.get("sensor", {}), SensorSpec, "sensor")),
            epochs=data["epochs"],
            objects=objects,
            **_parse_settings(data),
        )


def polygon_segments(polygon: np.ndarray) -> np.ndarray:
    """Edges of a closed polygon as an (k, 4) array of x1,y1,x2,y2."""
    rolled = np.roll(polygon, -1, axis=0)
    return np.hstack([polygon, rolled])


def world_segments(vmap: VectorMap, objects: list[ObjectTrack], t: float) -> np.ndarray:
    """Opaque edges at time t: building walls plus object footprints.

    Roads do not block lidar.
    """
    parts = [polygon_segments(p) for p in vmap.buildings]
    for track in objects:
        poly = track.polygon_at(t)
        if poly is not None:
            parts.append(polygon_segments(poly))
    if not parts:
        return np.empty((0, 4))
    return np.vstack(parts)


def simulate_scan(segments: np.ndarray, pose: Pose, sensor: SensorSpec,
                  rng: Optional[random.Random] = None) -> LidarScan:
    """Cast one beam fan against a set of opaque segments.

    Ranges are exact geometric ray-segment intersections, every beam against
    every segment at once; the same ray against the same world always
    returns the identical range.
    """
    bearings = sensor.bearings()
    ranges = np.full(len(bearings), math.inf)
    if segments.size:
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
        ranges = np.where(valid, t_ray, math.inf).min(axis=1)
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


def _simulated_scans(cfg: ScenarioConfig, vmap: VectorMap,
                     rng: Optional[random.Random]) -> Iterator[tuple[float, Pose, LidarScan]]:
    for epoch in range(cfg.epochs):
        t = epoch / cfg.sensor.rate
        pose = interpolate_pose(cfg.trajectory, t)
        segments = world_segments(vmap, cfg.objects, t)
        yield t, pose, simulate_scan(segments, pose, cfg.sensor, rng)


def run_scenario(cfg: ScenarioConfig,
                 seed: Optional[int] = None) -> Iterator[EpochResult]:
    """Drive the full pipeline: the map prior at once, then one simulated
    and fused scan per step of the returned iterator."""
    vmap = load_map(cfg.map_path)
    gg = rasterize_gg(vmap, cfg.map_confidence, cfg.grid)
    rng = random.Random(seed) if seed is not None else None
    return _epochs(_simulated_scans(cfg, vmap, rng), gg, cfg)


def format_scan(t: float, pose: Pose, scan: LidarScan) -> str:
    """One scan-log line (NDJSON), without its newline."""
    bearing, rng, hit = scan.columns.tolist()
    return json.dumps({
        "t": t,
        "pose": {"x": pose.x, "y": pose.y, "heading": pose.heading},
        "beams": list(map(list, zip(bearing, rng, map(bool, hit)))),
        "max_range": scan.max_range,
    })


def _number(value, name: str) -> float:
    """A number from a scenario file or a log record: a finite JSON number,
    not a boolean or a string, nor the NaN or Infinity that ``json`` takes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} {value!r} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _hit_flag(value) -> bool:
    """A beam's hit flag from a log record: a JSON boolean, nothing else."""
    if not isinstance(value, bool):
        raise ValueError(f"hit flag {value!r} is not true or false")
    return value


def _beams(rows) -> np.ndarray:
    """A log record's beams, each ``[bearing, range, hit]`` with JSON numbers
    and a JSON boolean, as (3, beams) float columns.  Each column is checked
    at once; the per-beam checks run only where a column holds another type,
    and name the bad value."""
    if type(rows) is list and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}:
        bearings, ranges, hits = tuple(zip(*rows)) or ((), (), ())
        if set(map(type, bearings + ranges)) <= {float, int} and set(map(type, hits)) <= {bool}:
            return np.array((bearings, ranges, hits), dtype=float)
    return np.array([(_number(b, "bearing"), _number(r, "range"), _hit_flag(h))
                     for b, r, h in rows], dtype=float).reshape(-1, 3).T


def read_scan_log(lines: Iterable[str]) -> Iterator[tuple[float, Pose, LidarScan]]:
    """Parse and check a scan log one line at a time.

    Blank lines are skipped and timestamps must increase strictly; errors
    name the line.
    """
    last_t = -math.inf
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = _known(json.loads(line), _RECORD_KEYS, required=_RECORD_KEYS)
            t = _number(rec["t"], "t")
            p = _known(rec["pose"], _POSE_KEYS, "pose", _POSE_KEYS)
            pose = Pose(*(_number(p[key], f"pose {key}") for key in _POSE_KEYS))
            scan = LidarScan(_beams(rec["beams"]), _number(rec["max_range"], "max_range"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: malformed record: {exc}") from exc
        if not t > last_t:
            raise ValueError(f"line {lineno}: out-of-order timestamp {t}")
        last_t = t
        yield t, pose, scan


def replay_scans(lines: Iterable[str], gg: EvidentialGrid,
                 settings: Settings) -> Iterator[EpochResult]:
    """Run the pipeline on the lines of a scan log, each read as it is fused."""
    return _epochs(read_scan_log(lines), gg, settings)

"""The epoch pipeline and its two scan sources: synthetic worlds and scan logs.

Scenario files are JSON documents describing a map, a vehicle trajectory,
tracked objects and the sensor/fusion parameters; see the shipped files under
``scenarios/`` for the schema.  Ray casting is exact and noise-free by
default; an optional uniform range jitter sits behind a seeded RNG.
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
from .grid import EvidentialGrid, GridSpec, PerceptionGrid
from .map_ingest import MapConfidence, VectorMap, load_map, rasterize_gg
from .sensor import LidarScan, Pose, SensorGridParams, build_sg, normalize_heading

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
        if self.max_range <= 0 or self.rate <= 0:
            raise ScenarioError("max_range and rate must be positive")
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


def _parse_settings(data: dict) -> dict:
    """The settings keys present in a scenario or params document, parsed.

    Absent keys are left out, so that defaults or a base's values hold.
    The numbers of the other sections and the decision threshold must be
    finite JSON numbers, the threshold in [0, 1]; ``GridSpec`` checks the
    grid's.
    """
    parsed = {"grid": GridSpec(**data["grid"])} if "grid" in data else {}
    kinds = {"sensor_model": SensorGridParams, "map_confidence": MapConfidence,
             "fusion": FusionParams}
    for key, kind in kinds.items():
        if key in data:
            parsed[key] = kind(**{name: _setting(value, f"{key} {name}")
                                  for name, value in _object(data[key], key).items()})
    if "decision_threshold" in data:
        threshold = _number(data["decision_threshold"], "decision_threshold")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"decision_threshold must be in [0, 1], got {threshold}")
        parsed["decision_threshold"] = threshold
    return parsed


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} {value!r} is not an object")
    return value


def _setting(value, name: str):
    """One value of a settings section: a number, except that
    ``fusion ageing_by_context`` is null or an object of numbers."""
    if name != "fusion ageing_by_context":
        return _number(value, name)
    if value is None:
        return None
    return {key: _number(rate, f"{name} {key}") for key, rate in _object(value, name).items()}


def load_settings(path, base: Optional[Settings] = None) -> Settings:
    """Read a params file: any of the ``Settings`` keys, each replacing its
    value in `base`.  Without a base the file must give the grid.  Other keys
    are rejected."""
    data = json.loads(Path(path).read_text())
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(Settings)})
    if unknown:
        raise ScenarioError(f"params {path}: unknown key(s) {', '.join(map(repr, unknown))}")
    parsed = _parse_settings(data)
    return Settings(**parsed) if base is None else dataclasses.replace(base, **parsed)


_OBJECT_KEYS = {"length", "width", "waypoints", "pose", "appear_t", "disappear_t"}


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
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
        try:
            return cls.from_dict(data, base_dir=path.parent)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"scenario {path}: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path = Path(".")) -> "ScenarioConfig":
        def pose(entry, where):
            return Pose(*(_number(entry[key], f"{where} {key}") for key in ("x", "y", "heading")))

        def timed_poses(entries, where):
            return tuple(TimedPose(_number(e["t"], f"{where} t"), pose(e, where))
                         for e in entries)

        objects = []
        for k, entry in enumerate(data.get("objects", [])):
            where = f"object {k}"
            unknown = sorted(set(entry) - _OBJECT_KEYS)
            if unknown:
                raise ScenarioError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
            kwargs = {key: _number(entry[key], f"{where} {key}") for key in ("length", "width")}
            if "waypoints" in entry:
                for key in ("appear_t", "disappear_t"):
                    if key in entry:
                        raise ScenarioError(f"{where}: {key!r} applies to static objects only")
                kwargs["waypoints"] = timed_poses(entry["waypoints"], f"{where} waypoint")
            else:
                kwargs["pose"] = pose(entry["pose"], f"{where} pose")
                for key in ("appear_t", "disappear_t"):
                    if key in entry:
                        kwargs[key] = _number(entry[key], f"{where} {key}")
            objects.append(ObjectTrack(**kwargs))

        return cls(
            map_path=base_dir / data["map"],
            trajectory=timed_poses(data["trajectory"], "trajectory"),
            sensor=SensorSpec(**data.get("sensor", {})),
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
        # math.cos/math.sin, not np.cos/np.sin, which can differ in the last bit
        angles = (pose.heading + bearings).tolist()
        dx = np.array([math.cos(angle) for angle in angles])[:, None]
        dy = np.array([math.sin(angle) for angle in angles])[:, None]
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
    pg: PerceptionGrid
    conflicts: ConflictPair
    codes: np.ndarray    # decision codes of pg, indices into DECISION_LABELS
    stats: dict
    state_bet: np.ndarray  # pignistic probabilities of pg.states, (5, S)


def epoch_stats(epoch: int, codes: np.ndarray, conflicts: ConflictPair) -> dict:
    counts = np.bincount(codes.ravel(), minlength=len(DECISION_LABELS))
    return {
        "t": epoch,
        "cells_F": int(counts[0]),
        "cells_I": int(counts[1]),
        "cells_U": int(counts[2]),
        "cells_S": int(counts[3]),
        "cells_M": int(counts[4]),
        "cells_unknown": int(counts[5]),
        "total_conflict_fo": conflicts.free_to_occupied,
        "total_conflict_of": conflicts.occupied_to_free,
        "total_residual": conflicts.residual,
    }


def _epochs(scans: Iterable[tuple[float, Pose, LidarScan]], gg: EvidentialGrid,
            settings: Settings) -> Iterator[EpochResult]:
    """Fuse each (t, pose, scan) with the map prior `gg`: one epoch per scan."""
    spec = settings.grid
    # every cell starts in the one vacuous state
    pg = PerceptionGrid(spec, frames.PERCEPTION_FRAME)
    for epoch, (t, pose, scan) in enumerate(scans):
        sg = build_sg(scan, pose, spec, settings.sensor_model)
        pg, conflicts = step_with_conflicts(pg, sg, gg, settings.fusion)
        # once per palette state; looked up on the module, where
        # perfbench/traced.py times it
        bet = fusion.pignistic_grid(pg)
        codes = decide_pignistic(bet, settings.decision_threshold)[pg.ids].T
        yield EpochResult(epoch, t, pose, scan, pg, conflicts, codes,
                          epoch_stats(epoch, codes, conflicts), bet)


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
            rec = json.loads(line)
            t = _number(rec["t"], "t")
            p = rec["pose"]
            pose = Pose(*(_number(p[key], f"pose {key}") for key in ("x", "y", "heading")))
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

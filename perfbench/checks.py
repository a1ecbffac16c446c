"""Independent checks of the outputs of one evigrid command.

Nothing here imports evigrid: the map, the scene and the recorded scans are
read from the generated files, and every expected value is recomputed with
code of its own.

- ``oracle_cells`` replays a seeded sample of cells scan by scan: its own
  beam-through-cell test, the closed-form merge of the beams in a cell, the
  refining, Dempster's rule with its own map prior, discounting, the
  modified conjunctive rule over all 32 x 32 subset pairs, the occupancy
  counter and its specialization.  Cells a beam crosses within 1e-9 of a
  corner, or whose beams in one scan are in near-total conflict, are
  skipped.  The final masses and counter must match the dump within 1e-9.
- ``grid_invariants``: every dumped cell is a normal mass function with a
  counter in [0, 1].
- ``stats_invariants``: class counts sum to the cell count, conflicts >= 0.
- ``probes``: ground truth from the scene (not from any output): facade
  cells end as I, the parked car as S, moving cars show in the moving trace
  and the wake of the car that left returns to F.
- The decisions of the dump agree with the last stats line and the
  rendered images, and a replay reproduces the stats of the run that
  recorded its log.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

LABELS = "FIUSM"
F, I, U, S, M = (1 << k for k in range(5))
OMEGA = 31
SIZE = 32
UNKNOWN = 5
TOL = 1e-9
EPS = 1e-9
# Colours of the decision image per decision code; I, U and S share blue.
COLOURS = {(0, 255, 0): {0}, (0, 0, 255): {1, 2, 3}, (255, 0, 0): {4}, (0, 0, 0): {5}}


class CheckError(AssertionError):
    pass


# --- inputs ------------------------------------------------------------------

class Scene:
    """Grid, map polygons, parameters and (for live runs) the objects."""

    def __init__(self, inputs: Path):
        scene = json.loads((inputs / "scene.json").read_text())
        self.truth = json.loads((inputs / "truth.json").read_text())
        g = scene["grid"]
        self.ox, self.oy = g["origin_east"], g["origin_north"]
        self.cs, self.w, self.h = g["cell_size"], g["width"], g["height"]
        self.scans = scene["epochs"]
        self.fusion = scene["fusion"]
        self.conf = scene["map_confidence"]
        self.wf = scene["sensor_model"]["free_weight"]
        self.wo = scene["sensor_model"]["occupied_weight"]
        self.threshold = scene["decision_threshold"]
        self.objects = scene["objects"]
        self.rate = scene["sensor"]["rate"]
        self.max_range = scene["sensor"]["max_range"]
        self.buildings, self.roads = [], []
        for feat in json.loads((inputs / "map.geojson").read_text())["features"]:
            ring = np.array(feat["geometry"]["coordinates"][0][:-1], dtype=float)
            (self.buildings if feat["properties"]["kind"] == "building"
             else self.roads).append(ring)

    def centre(self, i: int, j: int) -> tuple[float, float]:
        return self.ox + (i + 0.5) * self.cs, self.oy + (j + 0.5) * self.cs

    def cell_of(self, x: float, y: float):
        """Cell holding a point, or None when outside or within EPS of a
        cell boundary."""
        fi, fj = (x - self.ox) / self.cs, (y - self.oy) / self.cs
        i, j = math.floor(fi), math.floor(fj)
        if min(fi - i, i + 1 - fi, fj - j, j + 1 - fj) * self.cs < EPS:
            return None
        return (i, j) if 0 <= i < self.w and 0 <= j < self.h else None

    def context(self, i: int, j: int) -> str:
        p = self.centre(i, j)
        if any(inside(p, poly) for poly in self.buildings):
            return "building"
        if any(inside(p, poly) for poly in self.roads):
            return "road"
        return "intermediate"

    def prior(self, context: str) -> np.ndarray:
        sets = {"building": I, "road": F | S | M, "intermediate": F | U | S | M}
        m = np.zeros(SIZE)
        m[sets[context]] = self.conf[context]
        m[OMEGA] += 1.0 - self.conf[context]
        return m

    def ageing(self, context: str) -> float:
        by_context = self.fusion.get("ageing_by_context") or {}
        return by_context.get(context, self.fusion["ageing_rate"])

    def object_polygon(self, k: int, t: float):
        """Footprint corners of object k at time t, or None when absent."""
        obj = self.objects[k]
        if "waypoints" in obj:
            a, b = obj["waypoints"]
            if not a["t"] <= t <= b["t"]:
                return None
            f = (t - a["t"]) / (b["t"] - a["t"])
            x, y = a["x"] + f * (b["x"] - a["x"]), a["y"] + f * (b["y"] - a["y"])
            heading = a["heading"]
        else:
            if not obj.get("appear_t", -math.inf) <= t < obj.get("disappear_t", math.inf):
                return None
            x, y, heading = obj["pose"]["x"], obj["pose"]["y"], obj["pose"]["heading"]
        c, s = math.cos(heading), math.sin(heading)
        hl, hw = obj["length"] / 2, obj["width"] / 2
        return np.array([(x + c * u - s * v, y + s * u + c * v)
                         for u, v in ((-hl, -hw), (hl, -hw), (hl, hw), (-hl, hw))])


def inside(p, poly: np.ndarray) -> bool:
    """Even-odd point-in-polygon test (no point of a check lies on an edge)."""
    x, y = p
    result = False
    for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            result = not result
    return result


def read_ndjson(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def load_dump(path: Path, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Masses (w, h, 32) and counters (w, h) of a grid dump, header checked."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    names = ["m_" + ("".join(LABELS[k] for k in range(5) if a >> k & 1) or "empty")
             for a in range(SIZE)]
    if header != ["i", "j", "x_center", "y_center"] + names + ["zeta"]:
        raise CheckError(f"{path.name}: unexpected header")
    if data.shape != (scene.w * scene.h, 4 + SIZE + 1):
        raise CheckError(f"{path.name}: {data.shape[0]} rows, expected {scene.w * scene.h}")
    i, j = data[:, 0].astype(int), data[:, 1].astype(int)
    if not (np.array_equal(i, np.tile(np.arange(scene.w), scene.h))
            and np.array_equal(j, np.repeat(np.arange(scene.h), scene.w))):
        raise CheckError(f"{path.name}: cells out of raster order")
    if not (np.allclose(data[:, 2], scene.ox + (i + 0.5) * scene.cs, rtol=0, atol=TOL)
            and np.allclose(data[:, 3], scene.oy + (j + 0.5) * scene.cs, rtol=0, atol=TOL)):
        raise CheckError(f"{path.name}: wrong cell centres")
    masses = np.zeros((scene.w, scene.h, SIZE))
    masses[i, j] = data[:, 4:4 + SIZE]
    zeta = np.zeros((scene.w, scene.h))
    zeta[i, j] = data[:, -1]
    return masses, zeta


def read_ppm(path: Path) -> np.ndarray:
    tokens = path.read_text().split()
    if tokens[0] != "P3" or tokens[3] != "255":
        raise CheckError(f"{path.name}: not an 8-bit P3 image")
    cols, rows = int(tokens[1]), int(tokens[2])
    values = np.array(tokens[4:], dtype=int)
    if values.size != rows * cols * 3:
        raise CheckError(f"{path.name}: {values.size} samples, expected {rows * cols * 3}")
    return values.reshape(rows, cols, 3)


def image_to_cells(img: np.ndarray) -> np.ndarray:
    """Undo the north-up flip: (rows, cols, 3) to (i, j, 3)."""
    return img[::-1].swapaxes(0, 1)


# --- decisions ---------------------------------------------------------------

def decisions(masses: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Decision codes by maximum pignistic probability, and a mask of cells
    within 1e-12 of a tie or of the threshold, where a rounding difference
    could flip the decision.  Exact ties (the same masses shared equally,
    as on a vacuous road cell) go to the first label, as in the pipeline."""
    bet = np.zeros(masses.shape[:-1] + (5,))
    for a in range(1, SIZE):
        members = [k for k in range(5) if a >> k & 1]
        for k in members:
            bet[..., k] += masses[..., a] / len(members)
    top = bet.max(axis=-1)
    codes = np.where(top < threshold, UNKNOWN, bet.argmax(axis=-1))
    ranked = np.sort(bet, axis=-1)
    gap = ranked[..., -1] - ranked[..., -2]
    unsure = ((gap > 0.0) & (gap < 1e-12)) | (np.abs(top - threshold) < 1e-12)
    return codes, unsure


# --- invariants ----------------------------------------------------------------

def grid_invariants(masses: np.ndarray, zeta: np.ndarray) -> None:
    if masses.min() < 0.0:
        raise CheckError(f"negative mass {masses.min()}")
    if np.any(masses[..., 0] != 0.0):
        raise CheckError("mass on the empty set")
    worst = np.abs(masses.sum(axis=-1) - 1.0).max()
    if worst > TOL:
        raise CheckError(f"masses do not sum to 1 (off by {worst})")
    if zeta.min() < 0.0 or zeta.max() > 1.0:
        raise CheckError(f"counter outside [0, 1]: [{zeta.min()}, {zeta.max()}]")


STAT_COUNTS = ("cells_F", "cells_I", "cells_U", "cells_S", "cells_M", "cells_unknown")
STAT_CONFLICTS = ("total_conflict_fo", "total_conflict_of", "total_residual")


def stats_invariants(stats: list[dict], scene: Scene) -> None:
    if len(stats) != scene.scans:
        raise CheckError(f"{len(stats)} stats lines, expected {scene.scans}")
    for k, line in enumerate(stats):
        if line["t"] != k:
            raise CheckError(f"stats line {k} has t = {line['t']}")
        if sum(line[key] for key in STAT_COUNTS) != scene.w * scene.h:
            raise CheckError(f"stats line {k}: class counts do not sum to the cell count")
        if min(line[key] for key in STAT_CONFLICTS) < 0.0:
            raise CheckError(f"stats line {k}: negative conflict")


def stats_match(ours: list[dict], reference: list[dict]) -> None:
    if len(ours) != len(reference):
        raise CheckError(f"{len(ours)} stats lines, the recording run wrote {len(reference)}")
    for k, (a, b) in enumerate(zip(ours, reference)):
        for key in ("t",) + STAT_COUNTS:
            if a[key] != b[key]:
                raise CheckError(f"stats line {k}: {key} {a[key]} != recorded {b[key]}")
        for key in STAT_CONFLICTS:
            if abs(a[key] - b[key]) > TOL * max(1.0, abs(b[key])):
                raise CheckError(f"stats line {k}: {key} {a[key]} != recorded {b[key]}")


def decisions_agree(codes: np.ndarray, unsure: np.ndarray, last_stats: dict,
                    image=None) -> None:
    """The dump's decisions against the last stats line and an image."""
    for code, key in enumerate(STAT_COUNTS):
        sure = int(np.sum((codes == code) & ~unsure))
        if not sure <= last_stats[key] <= sure + int(unsure.sum()):
            raise CheckError(f"{key} = {last_stats[key]} but the dump gives {sure}"
                             f" (+{int(unsure.sum())} near ties)")
    if image is not None:
        cells = image_to_cells(image)
        for colour, allowed in COLOURS.items():
            painted = np.all(cells == colour, axis=-1)
            wrong = painted & ~np.isin(codes, list(allowed)) & ~unsure
            if wrong.any():
                i, j = np.argwhere(wrong)[0]
                raise CheckError(f"decision image: cell ({i}, {j}) has colour {colour}"
                                 f" but decision {LABELS[codes[i, j]] if codes[i, j] < 5 else '?'}")
        known = np.zeros(codes.shape, dtype=bool)
        for colour in COLOURS:
            known |= np.all(cells == colour, axis=-1)
        if not known.all():
            raise CheckError("decision image has colours outside the palette")


# --- beams ---------------------------------------------------------------------

class Beams:
    """The beams of one scan as arrays: origin, unit direction, range, hit
    flag and end point (computed as the pipeline defines them)."""

    def __init__(self, x: float, y: float, dx: np.ndarray, dy: np.ndarray,
                 ranges: np.ndarray, hit: np.ndarray):
        self.x, self.y, self.dx, self.dy, self.range, self.hit = x, y, dx, dy, ranges, hit
        self.ex, self.ey = x + ranges * dx, y + ranges * dy

    @classmethod
    def of_record(cls, rec: dict) -> "Beams":
        pose, beams = rec["pose"], rec["beams"]
        angle = np.array([float(pose["heading"]) + b[0] for b in beams])
        return cls(float(pose["x"]), float(pose["y"]), np.cos(angle), np.sin(angle),
                   np.array([b[1] for b in beams], dtype=float),
                   np.array([bool(b[2]) for b in beams]))

    def through(self, box) -> tuple[np.ndarray, np.ndarray]:
        """Per beam: does the segment pass through the box's interior, and is
        that within EPS of undecidable (corner grazes, ends on an edge)."""
        lo = np.full(self.range.shape, 0.0)
        hi = self.range.copy()
        edge = np.zeros(self.range.shape, dtype=bool)
        for p, d, b0, b1 in ((self.x, self.dx, box[0], box[2]),
                             (self.y, self.dy, box[1], box[3])):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1, t2 = (b0 - p) / d, (b1 - p) / d
            flat = d == 0.0
            if flat.any():
                # a beam along an axis: all or nothing, undecidable on an edge
                t1 = np.where(flat, -np.inf if b0 < p < b1 else np.inf, t1)
                t2 = np.where(flat, np.inf, t2)
                edge |= flat & (min(abs(p - b0), abs(p - b1)) < EPS)
            lo = np.maximum(lo, np.minimum(t1, t2))
            hi = np.minimum(hi, np.maximum(t1, t2))
        chord = hi - lo
        return (chord > EPS) & ~edge, (np.abs(chord) <= EPS) | edge


def sensor_counts(scene: Scene, beams: Beams, cell) -> tuple[int, int, bool]:
    """(free beams, occupied beams, undecidable) for one cell and one scan."""
    i, j = cell
    x0, y0 = scene.ox + i * scene.cs, scene.oy + j * scene.cs
    through, unsure = beams.through((x0, y0, x0 + scene.cs, y0 + scene.cs))
    fi, fj = (beams.ex - scene.ox) / scene.cs, (beams.ey - scene.oy) / scene.cs
    ends_here = beams.hit & (np.floor(fi) == i) & (np.floor(fj) == j)
    near_edge = beams.hit & (np.abs(fi - np.rint(fi)) * scene.cs < EPS) | \
        beams.hit & (np.abs(fj - np.rint(fj)) * scene.cs < EPS)
    near_here = near_edge & (np.abs(fi - (i + 0.5)) <= 0.5 + EPS) \
        & (np.abs(fj - (j + 0.5)) <= 0.5 + EPS)
    occupied = int(ends_here.sum())
    free = int((through & ~ends_here).sum())
    return free, occupied, bool(unsure.any() or near_here.any())


# --- the per-cell oracle ---------------------------------------------------------

def conflict_kind(b: int, c: int) -> int:
    """0 appearing object, 1 disappearing object, 2 residual."""
    if b & F and c and not c & F:
        return 0
    if c & F and b and not b & F:
        return 1
    return 2


def merged_beams(wf: float, wo: float, nf: int, no: int) -> tuple[float, float, float]:
    """(m(F), m(O), m(Omega)) of nf free and no occupied simple supports
    merged by Dempster's rule, in closed form.

    Written in the masses the two sides leave on the frame (a, b), so that
    1 - K does not cancel when both sides are strong.
    """
    a, b = (1.0 - wf) ** nf, (1.0 - wo) ** no
    norm = a + b - a * b
    return (1.0 - a) * b / norm, (1.0 - b) * a / norm, a * b / norm


def oracle_step(prev: np.ndarray, counter: float, nf: int, no: int, scene: Scene,
                context: str):
    """One epoch of one cell from first principles; None when a threshold
    comparison is too close to call."""
    sensor = np.zeros(SIZE)
    # the refining carries O onto {I, U, S, M}
    sensor[F], sensor[I | U | S | M], sensor[OMEGA] = merged_beams(scene.wf, scene.wo, nf, no)
    # Dempster's rule with the map prior
    prior_map = scene.prior(context)
    conj = np.zeros(SIZE)
    for b in range(SIZE):
        for c in range(SIZE):
            conj[b & c] += sensor[b] * prior_map[c]
    evidence = conj / (1.0 - conj[0])
    evidence[0] = 0.0
    # discounting (information ageing)
    alpha = scene.ageing(context)
    aged = prev * (1.0 - alpha)
    aged[OMEGA] += alpha
    # modified conjunctive rule
    fused = np.zeros(SIZE)
    parts = [0.0, 0.0, 0.0]
    for b in range(SIZE):
        for c in range(SIZE):
            term = aged[b] * evidence[c]
            if b & c:
                fused[b & c] += term
            else:
                parts[conflict_kind(b, c)] += term
    fused[M] += parts[0]
    fused[OMEGA] += parts[1] + parts[2]
    fused /= fused.sum()
    # occupancy counter
    fp = scene.fusion
    occupied = sum(fused[a] for a in range(1, SIZE) if not a & F)
    dynamic = parts[0] + parts[1]
    if (abs(dynamic - fp["conflict_threshold"]) < EPS
            or abs(occupied - fp["occupancy_threshold"]) < EPS):
        return None
    if dynamic > fp["conflict_threshold"]:
        counter = max(0.0, counter - fp["counter_dec"])
    elif occupied >= fp["occupancy_threshold"]:
        counter = min(1.0, counter + fp["counter_inc"])
    # counter specialization: moving-containing sets give up M
    for a in range(SIZE):
        if a & M and a != M:
            moved = counter * fused[a]
            fused[a] -= moved
            fused[a & ~M] += moved
    return fused, counter


def oracle_cells(scene: Scene, scans: list[dict], masses: np.ndarray, zeta: np.ndarray,
                 seed: int, count: int) -> int:
    """Replay ``count`` seeded cells (half of them hit by the last scan) and
    compare with the dump; returns the number of cells compared."""
    rng = random.Random(seed)
    all_beams = [Beams.of_record(rec) for rec in scans]
    last = all_beams[-1]
    touched = sorted({scene.cell_of(x, y) for x, y in zip(last.ex, last.ey)} - {None})
    cells = rng.sample(touched, min(count // 2, len(touched)))
    while len(cells) < count:
        cell = (rng.randrange(scene.w), rng.randrange(scene.h))
        if cell not in cells:
            cells.append(cell)
    compared = 0
    for cell in cells:
        context = scene.context(*cell)
        m = np.zeros(SIZE)
        m[OMEGA] = 1.0
        counter = 0.0
        for beams in all_beams:
            nf, no, unsure = sensor_counts(scene, beams, cell)
            if unsure or beams_conflict_totally(scene, nf, no):
                break
            step = oracle_step(m, counter, nf, no, scene, context)
            if step is None:
                break
            m, counter = step
        else:
            err = max(np.abs(m - masses[cell]).max(), abs(counter - zeta[cell]))
            if err > TOL:
                raise CheckError(f"oracle: cell {cell} ({context}) differs from the dump"
                                 f" by {err:.3g}")
            compared += 1
    if compared < count // 2:
        raise CheckError(f"oracle: only {compared} of {count} cells were decidable")
    return compared


def beams_conflict_totally(scene: Scene, nf: int, no: int) -> bool:
    """Are the free and occupied beams of one cell in near-total conflict
    (1 - K < 1e-6)?  There the pipeline's beam-by-beam merge drifts from
    Dempster's rule by more than the oracle's tolerance (up to the whole
    mass when both sides saturate), so the oracle does not judge the cell."""
    a, b = (1.0 - scene.wf) ** nf, (1.0 - scene.wo) ** no
    return a + b - a * b < 1e-6


# --- ground truth ---------------------------------------------------------------

def cast(scene: Scene, beams: Beams, t: float) -> tuple[Beams, list]:
    """Own ray cast of the scan's beams against walls and objects at time t.

    Returns the cast beams and, per beam, the owner of the first surface hit
    (("building", k), ("object", k) or None for no hit in range).
    """
    segs, owners = [], []
    for k, poly in enumerate(scene.buildings):
        for a, b in zip(poly, np.roll(poly, -1, axis=0)):
            segs.append((*a, *b))
            owners.append(("building", k))
    for k in range(len(scene.objects)):
        poly = scene.object_polygon(k, t)
        if poly is not None:
            for a, b in zip(poly, np.roll(poly, -1, axis=0)):
                segs.append((*a, *b))
                owners.append(("object", k))
    seg = np.array(segs)
    ax, ay = seg[:, 0][None], seg[:, 1][None]
    vx, vy = (seg[:, 2] - seg[:, 0])[None], (seg[:, 3] - seg[:, 1])[None]
    dx, dy = beams.dx[:, None], beams.dy[:, None]
    wx, wy = ax - beams.x, ay - beams.y
    denom = dx * vy - dy * vx
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ray = (wx * vy - wy * vx) / denom
        u = (wx * dy - wy * dx) / denom
    valid = (denom != 0) & (t_ray > 1e-9) & (u >= 0) & (u <= 1)
    t_ray = np.where(valid, t_ray, np.inf)
    first = t_ray.argmin(axis=1)
    dist = t_ray[np.arange(len(first)), first]
    owner = [owners[f] if d <= scene.max_range else None for f, d in zip(first, dist)]
    hit = np.array([o is not None for o in owner])
    return Beams(beams.x, beams.y, beams.dx, beams.dy, np.minimum(dist, scene.max_range),
                 hit), owner


def seen_cells(scene: Scene, beams: Beams, t: float, kind: str, index=None) -> set:
    """Cells the scan sees as ``kind`` (building or object) ``index``: the
    own ray cast ends on that surface in the cell, and fewer cast beams
    pass through the cell than end in it."""
    cast_beams, owner = cast(scene, beams, t)
    cells = set()
    for x, y, o in zip(cast_beams.ex, cast_beams.ey, owner):
        if o is not None and o[0] == kind and (index is None or o[1] == index):
            cell = scene.cell_of(x, y)
            if cell is not None:
                cells.add(cell)
    keep = set()
    for cell in cells:
        free, occupied, unsure = sensor_counts(scene, cast_beams, cell)
        if not unsure and free < occupied:
            keep.add(cell)
    return keep


def passed_cells(scene: Scene, beams: Beams, cells: set) -> set:
    """The cells that some beam of the scan passes through and none ends in."""
    out = set()
    for cell in cells:
        free, occupied, unsure = sensor_counts(scene, beams, cell)
        if free and not occupied and not unsure:
            out.add(cell)
    return out


def probes(scene: Scene, scans: list[dict], codes: np.ndarray, unsure: np.ndarray,
           trace: np.ndarray) -> dict:
    """Ground-truth probes; returns the number of cells each one checked.

    Probe cells come from an own ray cast against the scene's walls and
    cars (``seen_cells``), never from the program's outputs.
    """
    t_last = (len(scans) - 1) / scene.rate
    last = Beams.of_record(scans[-1])
    truth = scene.truth
    report = {}

    def expect(name: str, cells: set, code: int) -> None:
        wrong = sorted(c for c in cells if codes[c] != code)
        if not cells or wrong:
            raise CheckError(f"probe {name}: {len(wrong)} of {len(cells)} cells are not"
                             f" {LABELS[code]} (first: {wrong[:3]})")
        report[name] = len(cells)

    # a facade cell whose centre is in the building carries the mapped prior
    expect("facade", {c for k, poly in enumerate(scene.buildings)
                      for c in seen_cells(scene, last, t_last, "building", k)
                      if inside(scene.centre(*c), poly)}, 1)
    expect("parked", seen_cells(scene, last, t_last, "object", truth["parked_always"]), 3)

    red = np.all(image_to_cells(trace) == (255, 0, 0), axis=-1)
    if np.any((codes == 4) & ~unsure & ~red):
        raise CheckError("trace: a cell decided M at the end is missing from the trace")
    for k in truth["moving"]:
        seen = set()
        for e, rec in enumerate(scans):
            seen |= seen_cells(scene, Beams.of_record(rec), e / scene.rate, "object", k)
        shown = sum(bool(red[c]) for c in seen)
        if not seen or shown < len(seen) // 2:
            raise CheckError(f"probe moving car {k}: {shown} of {len(seen)} seen cells in"
                             " the moving trace")
        report[f"moving{k}"] = len(seen)

    k = truth.get("parked_leaving")
    if k is not None:
        before = set()
        for e, rec in enumerate(scans):
            if scene.object_polygon(k, e / scene.rate) is not None:
                before |= seen_cells(scene, Beams.of_record(rec), e / scene.rate, "object", k)
        expect("wake", passed_cells(scene, last, before), 0)
    return report


# --- one command -------------------------------------------------------------

def check_outputs(inputs: Path, out: Path, seed: int, replay: bool, oracle: int = 24) -> dict:
    """Every check on the outputs of one full command; raises CheckError."""
    scene = Scene(inputs)
    n = scene.scans
    stats = read_ndjson(out / "stats.ndjson")
    stats_invariants(stats, scene)
    masses, zeta = load_dump(out / f"grid_{n - 1:05d}.csv", scene)
    grid_invariants(masses, zeta)
    codes, unsure = decisions(masses, scene.threshold)
    image = out / f"decision_{n - 1:05d}.ppm"
    decisions_agree(codes, unsure, stats[-1], read_ppm(image) if image.exists() else None)
    if replay:
        scans = read_ndjson(inputs / "log.ndjson")
        stats_match(stats, read_ndjson(inputs / "record" / "stats.ndjson"))
    else:
        scans = read_ndjson(out / "scans.ndjson")
    if len(scans) != n:
        raise CheckError(f"{len(scans)} scans recorded, expected {n}")
    report = {"oracle_cells": oracle_cells(scene, scans, masses, zeta, seed, oracle)}
    report.update(probes(scene, scans, codes, unsure, read_ppm(out / "trace.ppm")))
    return report


def check_run(workload: str, inputs: Path, out: Path, seed: int) -> list[str]:
    """The problems found in one full command's outputs (empty when correct)."""
    try:
        check_outputs(inputs, out, seed, replay=workload.startswith("city_replay"))
    except (CheckError, OSError, ValueError, KeyError) as exc:
        return [str(exc)]
    return []

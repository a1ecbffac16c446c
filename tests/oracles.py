"""Independent brute-force oracles for the combination rules, the sensor
merge, the map prior and the lidar simulation.

The rule oracles iterate over *all* 2**n x 2**n subset pairs (not just focal
elements) and never share code with the implementation under test.  The
sensor-merge oracle applies Dempster's rule one beam at a time in exact
rational arithmetic.  The traversal oracle steps one ray through the grid
one cell at a time.  The map oracles classify one cell centre at a time
with the scalar even-odd test.  The scan oracle casts one beam at a time.
The dense fusion oracle runs one epoch on all 2**n subset rows of every
grid, zero rows included, with the fusion module's per-pair helpers.
The writer oracles format every cell, every pixel and every beam on its
own, and the image oracle colours every cell on its own.
Tests build their input grids with ``dense_grid``: one palette state per
cell, their map priors with ``prior_grid``: one state per map context, and
their scans from literal beams with ``scan_of``; ``cell_mass`` reads one
cell as a ``MassFunction``.  Every per-cell array here is
indexed ``[j, i]``, in the (height, width) layout of a grid's ``ids``.
"""

import json
import math
from fractions import Fraction

import numpy as np

from evigrid import frames
from evigrid.dst import FrameOfDiscernment, MassFunction, TOTAL_CONFLICT_TOLERANCE
from evigrid.fusion import (_MOVING_SUPERSETS, _OCCUPIED_SUBSETS, ConflictPair,
                            FusionParams, _conflict_kind)
from evigrid.grid import EvidentialGrid, GridSpec, mass_column_names
from evigrid.map_ingest import _EDGE_EPS, MapConfidence, MapOverlapError, VectorMap
from evigrid.sensor import LidarScan
from evigrid.simulator import _RAY_EPS


def dense_grid(spec: GridSpec, frame: FrameOfDiscernment, masses,
               counter=None) -> EvidentialGrid:
    """The grid whose cell (i, j) holds the 2**n masses ``masses[j, i]`` and
    the counter ``counter[j, i]`` (0 without `counter`): state k is cell k
    in (j, i) raster order, and ``ids = arange(N)``.  Both arrays must lead
    with (height, width), so a swapped array fails on a non-square grid."""
    shape = (spec.height, spec.width)
    masses = np.asarray(masses, dtype=float)
    if masses.shape != shape + (frame.size,):
        raise ValueError(f"expected masses of shape {shape + (frame.size,)}, got {masses.shape}")
    if counter is not None:
        counter = np.asarray(counter, dtype=float)
        if counter.shape != shape:
            raise ValueError(f"expected a counter of shape {shape}, got {counter.shape}")
        counter = counter.ravel()
    n = spec.width * spec.height
    return EvidentialGrid(spec, frame, np.ascontiguousarray(masses.reshape(n, frame.size).T),
                          np.arange(n).reshape(shape), counter)


def prior_grid(spec: GridSpec, contexts=None, **masses) -> EvidentialGrid:
    """A map-prior grid as ``rasterize_gg`` makes it: state k for the map
    context ``frames.MAP_CONTEXTS[k]``, and the (height, width) `contexts`,
    indices into it, as the ids (intermediate space without `contexts`).
    A context's state is its 2**n `masses` keyword, or vacuous without one."""
    assert set(masses) <= set(frames.MAP_CONTEXTS), masses
    vacuous = MassFunction.vacuous(frames.PERCEPTION_FRAME).masses
    states = np.stack([np.asarray(masses.get(context, vacuous), dtype=float)
                       for context in frames.MAP_CONTEXTS], axis=1)
    if contexts is None:
        contexts = np.full((spec.height, spec.width), frames.MAP_CONTEXTS.index("intermediate"))
    return EvidentialGrid(spec, frames.PERCEPTION_FRAME, states,
                          np.asarray(contexts, dtype=np.intp))


def scan_of(beams, max_range: float) -> LidarScan:
    """The scan of literal ``(bearing, range, hit)`` triples."""
    return LidarScan(np.array(beams, dtype=float).reshape(-1, 3).T, max_range)


def cell_mass(grid: EvidentialGrid, i: int, j: int) -> MassFunction:
    """Cell (i, j) of a grid as a mass function."""
    return MassFunction(grid.frame, grid.states[:, grid.ids[j, i]])


def _cell_rows(grid: EvidentialGrid, values: np.ndarray) -> np.ndarray:
    """Per-state `values` (the states or the state counters) gathered into
    one column per cell, in (j, i) raster order."""
    return np.take(values, grid.ids.ravel(), axis=-1)


def conjunctive_oracle(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    size = m1.frame.size
    out = np.zeros(size)
    for b in range(size):
        for c in range(size):
            out[b & c] += m1.masses[b] * m2.masses[c]
    return out


def disjunctive_oracle(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    size = m1.frame.size
    out = np.zeros(size)
    for b in range(size):
        for c in range(size):
            out[b | c] += m1.masses[b] * m2.masses[c]
    return out


def dempster_oracle(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    out = conjunctive_oracle(m1, m2)
    out[0] = 0.0
    return out / out.sum()


def sensor_merge_oracle(free_weight: float, occupied_weight: float,
                        n_free: int, n_occupied: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (m(F), m(O), m(FO)) of one sensor cell: Dempster's rule of
    ``n_free`` simple supports of F and ``n_occupied`` of O, merged one beam
    at a time in ``Fraction`` arithmetic, so the order cannot matter."""
    wf, wo = Fraction(free_weight), Fraction(occupied_weight)
    f, o, w = Fraction(0), Fraction(0), Fraction(1)
    for _ in range(n_free):
        norm = 1 - o * wf
        f, o, w = (f + w * wf) / norm, o * (1 - wf) / norm, w * (1 - wf) / norm
    for _ in range(n_occupied):
        norm = 1 - f * wo
        f, o, w = f * (1 - wo) / norm, (o + w * wo) / norm, w * (1 - wo) / norm
    return f, o, w


def traverse_ray_oracle(spec: GridSpec, x0: float, y0: float,
                        dx: float, dy: float, length: float) -> list[tuple[int, int]]:
    """In-bounds cells entered by one ray segment, in order along the ray:
    the scalar cell-stepping traversal, one cell per loop iteration.

    A cell is included when the ray enters it strictly before `length`; exact
    corner hits step diagonally so no zero-dwell cell is reported.
    """
    ox, oy, cs = spec.origin_east, spec.origin_north, spec.cell_size
    # a component whose boundary spacing cs / |d| overflows to inf does not
    # move the ray along its axis
    if dx and math.isinf(cs / abs(dx)):
        dx = 0.0
    if dy and math.isinf(cs / abs(dy)):
        dy = 0.0
    t_lo, t_hi = 0.0, length
    for p, d, lo, hi in ((x0, dx, ox, ox + spec.width * cs),
                         (y0, dy, oy, oy + spec.height * cs)):
        if d == 0.0:
            if not lo <= p <= hi:
                return []
        else:
            t1 = (lo - p) / d
            t2 = (hi - p) / d
            if t1 > t2:
                t1, t2 = t2, t1
            t_lo = max(t_lo, t1)
            t_hi = min(t_hi, t2)
    if t_lo >= t_hi:
        return []
    px, py = x0 + t_lo * dx, y0 + t_lo * dy
    fi = (px - ox) / cs
    fj = (py - oy) / cs
    i, j = math.floor(fi), math.floor(fj)
    # Entering exactly on a boundary while moving towards lower indices means
    # the ray is about to leave the floor() cell, not enter it.
    if dx < 0 and fi == i:
        i -= 1
    if dy < 0 and fj == j:
        j -= 1
    i = min(max(i, 0), spec.width - 1)
    j = min(max(j, 0), spec.height - 1)

    if dx > 0:
        si, tx, dtx = 1, (ox + (i + 1) * cs - x0) / dx, cs / dx
    elif dx < 0:
        si, tx, dtx = -1, (ox + i * cs - x0) / dx, -cs / dx
    else:
        si, tx, dtx = 0, math.inf, math.inf
    if dy > 0:
        sj, ty, dty = 1, (oy + (j + 1) * cs - y0) / dy, cs / dy
    elif dy < 0:
        sj, ty, dty = -1, (oy + j * cs - y0) / dy, -cs / dy
    else:
        sj, ty, dty = 0, math.inf, math.inf

    cells: list[tuple[int, int]] = []
    for _ in range(spec.width + spec.height + 2):
        if not (0 <= i < spec.width and 0 <= j < spec.height):
            break
        cells.append((i, j))
        t_next = min(tx, ty)
        if t_next >= t_hi:
            break
        if tx <= t_next:
            tx += dtx
            i += si
        if ty <= t_next:
            ty += dty
            j += sj
    return cells


def sensor_counts_oracle(scan: LidarScan, pose, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell counts of free and hit beams, as (height, width) arrays, one
    beam at a time: a beam's free cells are its scalar traversal less its
    hit cell, and the hit cell is the one ``world_to_index`` gives the hit
    point."""
    n_free = np.zeros((spec.height, spec.width), dtype=int)
    n_hit = np.zeros_like(n_free)
    for bearing, rng, is_hit in scan.columns.T.tolist():
        angle = pose.heading + bearing
        dx, dy = math.cos(angle), math.sin(angle)
        hit = None
        if is_hit:
            index = int(spec.world_to_index(pose.x + rng * dx, pose.y + rng * dy))
            hit = (index % spec.width, index // spec.width) if index >= 0 else None
        for i, j in traverse_ray_oracle(spec, pose.x, pose.y, dx, dy, rng):
            if (i, j) != hit:
                n_free[j, i] += 1
        if hit is not None:
            n_hit[hit[1], hit[0]] += 1
    return n_free, n_hit


def pignistic_oracle(m: MassFunction) -> np.ndarray:
    n = m.frame.n
    bet = np.zeros(n)
    for a in range(1, m.frame.size):
        card = bin(a).count("1")
        for k in range(n):
            if a >> k & 1:
                bet[k] += m.masses[a] / card
    return bet


def random_mass(rng: np.random.Generator, frame: FrameOfDiscernment,
                max_focal: int = 4) -> MassFunction:
    """A random normal mass function with up to max_focal focal elements."""
    n_focal = int(rng.integers(1, max_focal + 1))
    subsets = rng.choice(np.arange(1, frame.size), size=min(n_focal, frame.size - 1),
                         replace=False)
    weights = rng.random(len(subsets))
    weights /= weights.sum()
    arr = np.zeros(frame.size)
    arr[subsets] = weights
    return MassFunction(frame, arr)


def point_in_polygon_oracle(point, polygon: np.ndarray) -> bool:
    """The scalar even-odd test, one point at a time: boundary points (within
    ``_EDGE_EPS`` of an edge) are inside."""
    x, y = float(point[0]), float(point[1])
    inside = False
    n = len(polygon)
    for k in range(n):
        x1, y1 = polygon[k]
        x2, y2 = polygon[(k + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if (abs(cross) <= _EDGE_EPS
                and min(x1, x2) - _EDGE_EPS <= x <= max(x1, x2) + _EDGE_EPS
                and min(y1, y2) - _EDGE_EPS <= y <= max(y1, y2) + _EDGE_EPS):
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def rasterize_oracle(vmap: VectorMap, conf: MapConfidence, spec: GridSpec) -> np.ndarray:
    """The prior-grid masses, (height, width, 32), classified cell by cell
    with the scalar test."""
    masses = np.zeros((spec.height, spec.width, frames.PERCEPTION_FRAME.size))
    omega = frames.PG_OMEGA
    for j in range(spec.height):
        for i in range(spec.width):
            center = spec.cell_centers(i, j)
            in_building = any(point_in_polygon_oracle(center, p) for p in vmap.buildings)
            in_road = any(point_in_polygon_oracle(center, p) for p in vmap.roads)
            if in_building and in_road:
                raise MapOverlapError(f"map overlap at cell ({i}, {j})")
            cell = masses[j, i]
            if in_building:
                cell[frames.BUILDING_SET] = conf.building
                cell[omega] = 1.0 - conf.building
            elif in_road:
                cell[frames.ROAD_SET] = conf.road
                cell[omega] = 1.0 - conf.road
            else:
                cell[frames.INTERMEDIATE_SET] = conf.intermediate
                cell[omega] = 1.0 - conf.intermediate
    return masses


def context_of_cell(gg: EvidentialGrid, i: int, j: int) -> str:
    """Map context of a prior-grid cell, named by its palette id."""
    return frames.MAP_CONTEXTS[gg.ids[j, i]]


def simulate_scan_oracle(segments, pose, sensor, rng=None) -> LidarScan:
    """One beam at a time against every segment, with the arithmetic of
    ``simulate_scan``, so the scans must be equal float for float."""
    p = np.array([pose.x, pose.y])
    beams = []
    for bearing in sensor.bearings:
        angle = pose.heading + bearing
        d = np.array([math.cos(angle), math.sin(angle)])
        rng_t = math.inf
        if segments.size:
            a = segments[:, :2]
            v = segments[:, 2:] - a
            w = a - p
            denom = d[0] * v[:, 1] - d[1] * v[:, 0]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t_ray = (w[:, 0] * v[:, 1] - w[:, 1] * v[:, 0]) / denom
                u = (w[:, 0] * d[1] - w[:, 1] * d[0]) / denom
            valid = (denom != 0.0) & (t_ray > _RAY_EPS) & (u >= 0.0) & (u <= 1.0)
            if valid.any():
                rng_t = float(t_ray[valid].min())
        if rng is not None and sensor.range_jitter > 0.0 and math.isfinite(rng_t):
            rng_t += rng.uniform(-sensor.range_jitter, sensor.range_jitter)
            rng_t = max(rng_t, _RAY_EPS)
        if rng_t <= sensor.max_range:
            beams.append((float(bearing), rng_t, True))
        else:
            beams.append((float(bearing), sensor.max_range, False))
    return scan_of(beams, sensor.max_range)


def _sum_in_row_order(rows: np.ndarray) -> np.ndarray:
    """Column sums of (k, N) rows added strictly in row order: the order
    ``sum(axis=0)`` uses for N >= 2, while a single column is summed
    pairwise."""
    return np.cumsum(rows, axis=0)[-1]


def _conjunctive_rows_dense(m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conjunctive combination of two (2**n, N) mass arrays, cell by cell.

    Returns the non-empty products (row 0 stays zero) and the (3, N)
    empty-set mass partitioned by ``_conflict_kind``, with `m1` as the
    stored side.  Only the focal sets present in some cell are visited.
    """
    out = np.zeros_like(m1)
    parts = np.zeros((3, m1.shape[1]))
    term = np.empty(m1.shape[1])
    focal2 = [int(c) for c in np.flatnonzero(m2.any(axis=1))]
    for b in np.flatnonzero(m1.any(axis=1)):
        b = int(b)
        for c in focal2:
            np.multiply(m1[b], m2[c], out=term)
            if b & c:
                out[b & c] += term
            else:
                parts[_conflict_kind(b, c)] += term
    return out, parts


def step_with_conflicts_dense_oracle(pg: EvidentialGrid, sg: EvidentialGrid,
                                     gg: EvidentialGrid, params: FusionParams
                                     ) -> tuple[EvidentialGrid, ConflictPair]:
    """One fusion epoch over the whole grid on all 32 subset rows: refine
    the sensor grid into 32 rows, Dempster with the prior, age, the
    modified conjunctive rule, the counter and the specialization."""
    if not (pg.spec == sg.spec == gg.spec):
        raise ValueError("perception, sensor and map grids must share a GridSpec")
    if sg.frame != frames.SENSOR_FRAME:
        raise ValueError("sensor grid must be on the free/occupied frame")
    if pg.frame != frames.PERCEPTION_FRAME or gg.frame != frames.PERCEPTION_FRAME:
        raise ValueError("perception and map grids must be on the 5-class frame")

    spec = pg.spec
    # the grid conflict totals sum in (j, i) raster order
    sg_m, gg_m = _cell_rows(sg, sg.states), _cell_rows(gg, gg.states)
    counter_prev = _cell_rows(pg, pg.state_counter)

    refined = np.zeros((frames.PERCEPTION_FRAME.size, sg_m.shape[1]))
    refined[frames.PG_FREE] = sg_m[frames.SG_FREE]
    refined[frames.OCCUPIED_SET] = sg_m[frames.SG_OCCUPIED]
    refined[frames.PG_OMEGA] = sg_m[frames.SG_OMEGA]

    # Dempster's rule with the map prior: drop the conflict, renormalize by
    # the sum of the kept products; under total conflict, the refined sensor
    # mass without the prior
    prior = _conjunctive_rows_dense(refined, gg_m)[0]
    norm = _sum_in_row_order(prior)
    conflict = norm <= TOTAL_CONFLICT_TOLERANCE
    prior[:, conflict] = refined[:, conflict]
    norm[conflict] = 1.0
    prior /= norm

    alpha = _cell_rows(gg, np.array([params.ageing_for(context)
                                     for context in frames.MAP_CONTEXTS]))
    prev = _cell_rows(pg, pg.states) * (1.0 - alpha)
    prev[frames.PG_OMEGA] += alpha

    # the modified conjunctive rule: appearance conflict to M, the rest to
    # the full frame
    fused, (appear, disappear, residual) = _conjunctive_rows_dense(prev, prior)
    fused[frames.PG_MOVING] += appear
    fused[frames.PG_OMEGA] += disappear + residual
    fused /= _sum_in_row_order(fused)

    occupied = _sum_in_row_order(fused[list(_OCCUPIED_SUBSETS)])
    dynamic = appear + disappear
    counter = np.where(
        dynamic > params.conflict_threshold,
        np.maximum(0.0, counter_prev - params.counter_dec),
        np.where(occupied >= params.occupancy_threshold,
                 np.minimum(1.0, counter_prev + params.counter_inc),
                 counter_prev))

    for a in _MOVING_SUPERSETS:
        moved = counter * fused[a]
        fused[a] -= moved
        fused[a & ~frames.PG_MOVING] += moved

    out = EvidentialGrid(spec, frames.PERCEPTION_FRAME, fused,
                         np.arange(fused.shape[1]).reshape(spec.height, spec.width), counter)
    totals = ConflictPair(float(appear.sum()), float(disappear.sum()),
                          float(residual.sum()))
    return out, totals


def write_grid_csv_oracle(grid: EvidentialGrid, out) -> None:
    """``write_grid_csv`` formatting every value of every cell with ``repr``."""
    spec = grid.spec
    header = ["i", "j", "x_center", "y_center"] + mass_column_names(grid.frame) + ["zeta"]
    out.write(",".join(header) + "\n")
    xs, ys = spec.cell_centers(np.arange(spec.width), np.arange(spec.height))
    for j, y in enumerate(ys):
        rows = np.column_stack((xs, np.full(spec.width, y), grid.masses[j], grid.counter[j]))
        out.writelines(f"{i},{j},{','.join(map(repr, row))}\n"
                       for i, row in enumerate(rows.tolist()))


def write_ppm_oracle(pixels: np.ndarray, out) -> None:
    """``write_ppm`` formatting every sample of every pixel with ``str``."""
    rows, cols, _ = pixels.shape
    out.write(f"P3\n{cols} {rows}\n255\n")
    out.writelines(" ".join(map(str, row.ravel().tolist())) + "\n" for row in pixels)


# the colour of each decision, F, I, U, S, M and UNKNOWN; the first five
# are the colours of the classes of the perception frame
_DECISION_RGB = ((0, 255, 0), (0, 0, 255), (0, 0, 255), (0, 0, 255), (255, 0, 0), (0, 0, 0))
_CLASS_RGB = _DECISION_RGB[:5]
_MOVING = 4


def pignistic_image_oracle(state_bet: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``pignistic_image`` colouring each cell on its own: its state's
    probabilities as Python floats, the class colours added in class order
    and each sum rounded half to even, then placed north up."""
    height, width = ids.shape
    image = np.zeros((height, width, 3), dtype=np.uint8)
    for j in range(height):
        for i in range(width):
            rgb = [0.0, 0.0, 0.0]
            for color, share in zip(_CLASS_RGB, state_bet[:, ids[j, i]].tolist()):
                rgb = [total + c * share for total, c in zip(rgb, color)]
            image[height - 1 - j, i] = [min(max(round(total), 0), 255) for total in rgb]
    return image


def decision_image_oracle(codes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``decision_image`` colouring each cell on its own: the colour of its
    state's decision code, placed north up."""
    height, width = ids.shape
    image = np.zeros((height, width, 3), dtype=np.uint8)
    for j in range(height):
        for i in range(width):
            image[height - 1 - j, i] = _DECISION_RGB[codes[ids[j, i]]]
    return image


def moving_trace_oracle(epochs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The ``MovingTrace`` image after the (per-state codes, ids) of each of
    `epochs`, cell by cell: red where some epoch decides the cell's state as
    moving, black elsewhere, placed north up."""
    height, width = epochs[0][1].shape
    image = np.zeros((height, width, 3), dtype=np.uint8)
    for j in range(height):
        for i in range(width):
            if any(codes[ids[j, i]] == _MOVING for codes, ids in epochs):
                image[height - 1 - j, i] = _DECISION_RGB[_MOVING]
    return image


def format_scan_oracle(t: float, pose, scan: LidarScan) -> str:
    """``format_scan`` writing one ``[bearing, range, hit]`` list per beam,
    one column of ``scan.columns`` at a time."""
    return json.dumps({
        "t": t,
        "pose": {"x": pose.x, "y": pose.y, "heading": pose.heading},
        "beams": [[bearing, rng, hit == 1.0] for bearing, rng, hit in scan.columns.T.tolist()],
        "max_range": scan.max_range,
    })

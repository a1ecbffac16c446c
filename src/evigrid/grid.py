"""Georeferenced 2D lattices of evidential cells.

Cell (i, j) of a grid covers the box
``[origin_east + i*cell_size, origin_east + (i+1)*cell_size]`` east and the
analogous interval north; per-cell arrays hold it at ``[j, i]``, in the
(height, width) raster layout.  Grids are world-fixed; the vehicle pose
moves through them.  Tuples of palette ids are keyed here only, by
``_distinct_tuples``.  The checks that every settings and scene class
applies to its fields are here too: ``_number``, ``_count``, ``_positive``
and ``_unit`` of a value, and ``_known`` of an object's keys; and the one reader of scenario,
params and map files, ``_parse_file``, with ``_section``, which makes a
class from an object of such a file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO

import numpy as np

from .dst import FrameOfDiscernment


def _number(value, name: str) -> float:
    """`value` as a float, once it is a finite real number and not a bool:
    a string, a bool, and the NaN and Infinity that ``json`` reads are
    rejected, naming `name`, and so is an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} is not a number")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


# the largest array size and flat raster index
_MAX_COUNT = int(np.iinfo(np.intp).max)


def _count(value, name: str) -> int:
    """`value` as an int, once it is an integer in [1, ``_MAX_COUNT``], not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must be at most {_MAX_COUNT}, the largest array size")
    return int(value)


def _positive(value, name: str) -> float:
    """`value` as a float, once it is a ``_number`` above 0."""
    value = _number(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def _unit(value, name: str) -> float:
    """`value` as a float, once it is a ``_number`` in [0, 1]."""
    value = _number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def _check_fields(settings, check, names) -> None:
    """Replace each field in `names` of the dataclass `settings`, frozen or
    not, by `check` of its value; the error names the field."""
    for name in names:
        object.__setattr__(settings, name, check(getattr(settings, name), name))


def _known(data, keys, where: str = "", required=()) -> dict:
    """`data`, once it is an object whose keys are all in `keys` and include
    each of `required`; `where` names it in the error."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} {data!r} is not an object".lstrip())
    lead = f"{where}: " if where else ""
    unknown = sorted(map(repr, set(data) - set(keys)))
    if unknown:
        raise ValueError(f"{lead}unknown key(s) {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{lead}missing key(s) {', '.join(map(repr, missing))}")
    return data


def _section(value, kind, name: str, **parse):
    """The dataclass `kind` made from the object `value` named `name`, once its
    keys are its fields, those without a default included, each through the
    function of its name in `parse` if any.  `name` leads the error of `kind`."""
    fields = dataclasses.fields(kind)
    _known(value, {f.name for f in fields}, name,
           [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING])
    kwargs = {key: parse[key](item) if key in parse else item for key, item in value.items()}
    try:
        return kind(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from exc


def _parse_file(path, kind: str, parse, error: type[ValueError]):
    """`parse` of the JSON object in the `kind` file at `path`.  Every error
    is an `error` of one line that names the file."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {kind} {path}: {exc}") from exc
    except Exception as exc:
        raise error(f"{kind} {path} is not valid JSON: {str(exc) or type(exc).__name__}") from exc
    if not isinstance(data, dict):
        raise error(f"{kind} {path}: expected a JSON object, got {type(data).__name__}")
    try:
        return parse(data)
    except Exception as exc:
        raise error(f"{kind} {path}: {str(exc) or type(exc).__name__}") from exc


@dataclass(frozen=True)
class GridSpec:
    origin_east: float
    origin_north: float
    cell_size: float
    width: int
    height: int

    def __post_init__(self):
        _check_fields(self, _number, ("origin_east", "origin_north"))
        _check_fields(self, _positive, ("cell_size",))
        _check_fields(self, _count, ("width", "height"))
        _count(self.width * self.height, "width * height")
        for side, origin, count in (("east", "origin_east", "width"),
                                    ("north", "origin_north", "height")):
            edge = getattr(self, origin) + getattr(self, count) * self.cell_size
            if not math.isfinite(edge):
                raise ValueError(f"{side} edge {origin} + {count} * cell_size must be finite, "
                                 f"got {edge}")

    def world_to_index(self, x, y) -> np.ndarray:
        """Flat raster index ``j * width + i`` of the cell containing each world
        point, element-wise over arrays, -1 outside the grid.  Points exactly on
        an upper cell boundary belong to the higher-index cell, except on the
        grid's outer edge which belongs to the last cell."""
        fx = np.asarray(x, dtype=float) - self.origin_east
        fy = np.asarray(y, dtype=float) - self.origin_north
        i = np.floor(fx / self.cell_size)
        j = np.floor(fy / self.cell_size)
        i -= (i == self.width) & (fx == self.width * self.cell_size)
        j -= (j == self.height) & (fy == self.height * self.cell_size)
        inside = (0 <= i) & (i < self.width) & (0 <= j) & (j < self.height)
        # points far outside may overflow the index; np.where drops them
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(inside, j * self.width + i, -1).astype(np.intp)

    def cell_centers(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Centres of cells (i, j), element-wise over index arrays."""
        return (self.origin_east + (np.asarray(i) + 0.5) * self.cell_size,
                self.origin_north + (np.asarray(j) + 0.5) * self.cell_size)


def _distinct(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the non-negative integers `key`, all below
    `bound`, in ascending order, and the index of each key's value among
    them: ``np.unique(key, return_inverse=True)``.  Through a table of
    `bound` entries when that is not much longer than `key`: up to 4
    entries per key the table is 3-7 times faster than the sort (14,400 and
    57,600 keys, numpy 2.4), and it costs 9 bytes per entry."""
    if bound > 4 * len(key):
        return np.unique(key, return_inverse=True)
    present = np.zeros(bound, dtype=bool)
    present[key] = True
    values = np.flatnonzero(present)
    table = np.empty(bound, dtype=np.intp)
    table[values] = np.arange(len(values))
    return values, table[key]


def _distinct_tuples(columns, sizes) -> tuple[np.ndarray, np.ndarray]:
    """One element of each distinct tuple of the integer `columns`, and the
    index of each element's tuple among the tuples in ascending order.
    ``columns[g]`` holds every element's value in [0, ``sizes[g]``).

    The tuples so far are renumbered before each column joins the key, so
    no key exceeds the number of elements times one size."""
    inverse, count = 0, 1
    for column, size in zip(columns, sizes):
        values, inverse = _distinct(inverse * size + column, count * size)
        count = len(values)
    return _one_of_each(inverse), inverse


def _one_of_each(ids: np.ndarray) -> np.ndarray:
    """For each id 0 .. max(ids), the index of one element holding it."""
    first = np.empty(ids.max() + 1, dtype=np.intp)
    first[ids] = np.arange(len(ids))
    return first


def _gathered(values: np.ndarray) -> np.ndarray:
    """A gathered copy, read-only: writing to it would not reach the grid."""
    values.flags.writeable = False
    return values


class EvidentialGrid:
    """A lattice whose cells carry normal mass functions on a shared frame,
    and an occupancy counter.

    A grid is a palette of cell states plus one palette index per cell:
    ``states`` holds the (2**n, S) masses of the S states, one column per
    state, ``state_counter`` the (S,) counter of each state, and ``ids`` the
    (height, width) integer index, in [0, S), of each cell's state.  Cells
    that share a map context and have seen the same beams share one state,
    so the kernels compute each state once.  Without `states`, every cell
    holds the one vacuous state.  The counter starts at 0 (occupancy not yet
    confirmed), so the moving-object hypothesis is never suppressed at
    startup; only the perception grid's ever leaves 0.

    ``masses`` (height, width, 2**n) and ``counter`` (height, width) are
    read-only arrays gathered from the states, indexed ``[j, i]`` by cell
    like ``ids``.
    """

    def __init__(self, spec: GridSpec, frame: FrameOfDiscernment,
                 states: Optional[np.ndarray] = None, ids: Optional[np.ndarray] = None,
                 state_counter: Optional[np.ndarray] = None):
        if states is None:
            states = np.zeros((frame.size, 1))
            states[frame.omega] = 1.0
        if ids is None:
            ids = np.zeros((spec.height, spec.width), dtype=np.intp)
        if state_counter is None:
            state_counter = np.zeros(states.shape[1:])
        if states.shape[0] != frame.size or ids.shape != (spec.height, spec.width):
            raise ValueError(f"expected {frame.size} mass rows and ids of shape "
                             f"{(spec.height, spec.width)}, got {states.shape} and {ids.shape}")
        if state_counter.shape != states.shape[1:]:
            raise ValueError(f"expected {states.shape[1]} counters, "
                             f"got shape {state_counter.shape}")
        if ids.dtype.kind not in "iu":
            raise ValueError(f"ids must be integers, got dtype {ids.dtype}")
        for extreme in (ids.min(), ids.max()):
            if not 0 <= extreme < states.shape[1]:
                raise ValueError(f"palette id {extreme} is outside [0, {states.shape[1]})")
        self.spec = spec
        self.frame = frame
        self.states = states
        self.ids = ids
        self.state_counter = state_counter

    @property
    def masses(self) -> np.ndarray:
        return _gathered(self.states.T[self.ids])

    @property
    def counter(self) -> np.ndarray:
        return _gathered(self.state_counter[self.ids])


def mass_column_names(frame: FrameOfDiscernment) -> list[str]:
    return ["m_" + ("".join(frame.labels_of(mask)) or "empty")
            for mask in range(frame.size)]


# cells per block of raster rows: bounds the states whose texts are made at once
_BLOCK_CELLS = 2048


def _state_texts(values: np.ndarray) -> list[str]:
    """The ``repr`` texts of each row of (S, k) `values` joined by commas,
    plus a newline.

    Each distinct 64-bit pattern is formatted once: keyed by bits, so
    ``-0.0`` and ``0.0`` stay apart.  Each state's text is one join of its
    words.
    """
    patterns, index = np.unique(values.view(np.uint64), return_inverse=True)
    words = np.array(list(map(float.__repr__, patterns.view(np.float64).tolist())), dtype=object)
    return [",".join(row) + "\n" for row in words[index.reshape(values.shape)].tolist()]


def write_grid_csv(grid: EvidentialGrid, out: TextIO) -> None:
    """Dump a grid snapshot: one row per cell, one column per subset mass.

    The counter column of the sensor and prior grids is 0.  Every value is
    written as its ``repr``.  Each block of raster rows makes the texts of
    the palette states it uses, so a palette of many states never holds all
    their texts at once, and each raster row is one join of per-column,
    per-row and per-state pieces.
    """
    spec = grid.spec
    height, width = spec.height, spec.width
    zeta = grid.state_counter
    header = ["i", "j", "x_center", "y_center"] + mass_column_names(grid.frame) + ["zeta"]
    out.write(",".join(header) + "\n")
    xs, ys = spec.cell_centers(np.arange(width), np.arange(height))
    ys = ys.tolist()
    # cell i's line is pieces[5i:5i+5]: "i," "j," "x," "y," and its state's text
    pieces = [""] * (5 * width)
    pieces[0::5] = [f"{i}," for i in range(width)]
    pieces[2::5] = [f"{x!r}," for x in xs.tolist()]
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, height, step):
        stop = min(start + step, height)
        used, index = _distinct(grid.ids[start:stop].ravel(), len(zeta))
        texts = _state_texts(np.vstack((grid.states[:, used], zeta[used])).T)
        index = index.reshape(stop - start, width).tolist()
        for j in range(start, stop):
            pieces[1::5] = [f"{j},"] * width
            pieces[3::5] = [f"{ys[j]!r},"] * width
            pieces[4::5] = map(texts.__getitem__, index[j - start])
            out.write("".join(pieces))

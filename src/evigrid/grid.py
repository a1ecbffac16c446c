"""Georeferenced 2D lattices of evidential cells.

Cell (i, j) of a grid covers the box
``[origin_east + i*cell_size, origin_east + (i+1)*cell_size]`` east and the
analogous interval north.  Grids are world-fixed; the vehicle pose moves
through them.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .dst import FrameOfDiscernment, MassFunction


@dataclass(frozen=True)
class GridSpec:
    origin_east: float
    origin_north: float
    cell_size: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("origin_east", "origin_north", "cell_size"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("width", "height"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")

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

    def world_to_cell(self, x: float, y: float) -> Optional[tuple[int, int]]:
        """Cell (i, j) containing a world point, or None outside the grid."""
        index = int(self.world_to_index(x, y))
        return (index % self.width, index // self.width) if index >= 0 else None

    def cell_centers(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Centres of cells (i, j), element-wise over index arrays."""
        return (self.origin_east + (np.asarray(i) + 0.5) * self.cell_size,
                self.origin_north + (np.asarray(j) + 0.5) * self.cell_size)

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise IndexError(f"cell ({i}, {j}) out of bounds for {self.width}x{self.height} grid")
        return tuple(map(float, self.cell_centers(i, j)))


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


def _gathered(values: np.ndarray) -> np.ndarray:
    """A gathered copy, read-only: writing to it would not reach the grid."""
    values.flags.writeable = False
    return values


class EvidentialGrid:
    """A lattice whose cells carry normal mass functions on a shared frame.

    A grid is a palette of cell states plus one palette index per cell:
    ``states`` holds the (2**n, S) masses of the S states, one column per
    state, and ``ids`` the (height, width) intp index of each cell's state.
    Cells that share a map context and have seen the same beams share one
    state, so the kernels compute each state once.  Without `states`, every
    cell holds the one vacuous state.

    ``masses``, indexed ``masses[i, j]`` by cell, is a read-only (width,
    height, 2**n) array gathered from the states: the view of one
    C-contiguous (2**n, height, width) array, one plane per subset.
    """

    def __init__(self, spec: GridSpec, frame: FrameOfDiscernment,
                 states: Optional[np.ndarray] = None, ids: Optional[np.ndarray] = None):
        if states is None:
            states = np.zeros((frame.size, 1))
            states[frame.omega] = 1.0
        if ids is None:
            ids = np.zeros((spec.height, spec.width), dtype=np.intp)
        if states.shape[0] != frame.size or ids.shape != (spec.height, spec.width):
            raise ValueError(f"expected {frame.size} mass rows and ids of shape "
                             f"{(spec.height, spec.width)}, got {states.shape} and {ids.shape}")
        self.spec = spec
        self.frame = frame
        self.states = states
        self.ids = ids

    @property
    def palette(self) -> "EvidentialGrid":
        """The 1 x S grid whose cell k holds state k, sharing the states."""
        palette = copy.copy(self)
        palette.spec = GridSpec(0.0, 0.0, 1.0, self.states.shape[1], 1)
        palette.ids = np.arange(self.states.shape[1]).reshape(1, -1)
        return palette

    @property
    def masses(self) -> np.ndarray:
        return _gathered(np.take(self.states, self.ids, axis=1).T)

    def cell(self, i: int, j: int) -> MassFunction:
        return MassFunction(self.frame, self.states[:, self.ids[j, i]])


class PerceptionGrid(EvidentialGrid):
    """Evidential grid whose cells additionally carry an occupancy counter.

    The counter starts at 0 (occupancy not yet confirmed) so the moving-object
    hypothesis is never suppressed at startup.  It is stored like the
    masses: ``state_counter`` holds one (S,) entry per state, and
    ``counter`` is the read-only (width, height) array gathered from it.
    """

    def __init__(self, spec: GridSpec, frame: FrameOfDiscernment,
                 states: Optional[np.ndarray] = None, ids: Optional[np.ndarray] = None,
                 state_counter: Optional[np.ndarray] = None):
        super().__init__(spec, frame, states, ids)
        if state_counter is None:
            state_counter = np.zeros(self.states.shape[1])
        if state_counter.shape != self.states.shape[1:]:
            raise ValueError(f"expected {self.states.shape[1]} counters, "
                             f"got shape {state_counter.shape}")
        self.state_counter = state_counter

    @property
    def counter(self) -> np.ndarray:
        return _gathered(self.state_counter[self.ids].T)


def mass_column_names(frame: FrameOfDiscernment) -> list[str]:
    return ["m_" + ("".join(frame.labels_of(mask)) or "empty")
            for mask in range(frame.size)]


# cells per block of raster rows: bounds the states whose texts are made at once
_BLOCK_CELLS = 2048


def _state_texts(values: np.ndarray) -> list[str]:
    """The ``repr`` texts of each row of (S, k) `values` joined by commas,
    plus a newline.

    Each distinct 64-bit pattern is formatted once: keyed by bits, so
    ``-0.0`` and ``0.0`` stay apart.  The texts are gathered as NUL-padded
    words with their separators, and the NULs dropped.
    """
    bits = values.view(np.uint64)
    # a sort and a mask: np.unique took 20 times as long on 150k patterns
    # (numpy 2.4)
    ordered = np.sort(bits, axis=None)
    patterns = ordered[np.insert(ordered[1:] != ordered[:-1], 0, True)]
    index = np.searchsorted(patterns, bits)
    words = list(map(float.__repr__, patterns.view(np.float64).tolist()))
    cells = np.array([word + "," for word in words], dtype=bytes)[index]
    cells[:, -1] = np.array([word + "\n" for word in words], dtype=bytes)[index[:, -1]]
    return cells.tobytes().translate(None, b"\0").decode("ascii").splitlines(keepends=True)


def write_grid_csv(grid: EvidentialGrid, out: TextIO) -> None:
    """Dump a grid snapshot: one row per cell, one column per subset mass.

    The counter column is 0 for grids that do not carry one.  Every value is
    written as its ``repr``.  Each palette state's text is made once, with
    the block of rows that first uses it, and each raster row is one join of
    per-column, per-row and per-state pieces.
    """
    spec = grid.spec
    height, width = spec.height, spec.width
    zeta = getattr(grid, "state_counter", np.zeros(grid.states.shape[1]))
    # a state's text is dropped after the block of rows that last uses it,
    # so a palette of many states never holds all their texts at once
    first = np.full(len(zeta), height)
    last = np.full(len(zeta), -1)
    for j in range(height):
        last[grid.ids[j]] = j
    for j in reversed(range(height)):
        first[grid.ids[j]] = j
    header = ["i", "j", "x_center", "y_center"] + mass_column_names(grid.frame) + ["zeta"]
    out.write(",".join(header) + "\n")
    xs, ys = spec.cell_centers(np.arange(width), np.arange(height))
    ys = ys.tolist()
    # cell i's line is pieces[5i:5i+5]: "i," "j," "x," "y," and its state's text
    pieces = [""] * (5 * width)
    pieces[0::5] = [f"{i}," for i in range(width)]
    pieces[2::5] = [f"{x!r}," for x in xs.tolist()]
    texts: dict[int, str] = {}
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, height, step):
        stop = min(start + step, height)
        new = np.flatnonzero((start <= first) & (first < stop))
        if len(new):
            states = np.vstack((grid.states[:, new], zeta[new])).T
            texts.update(zip(new.tolist(), _state_texts(states)))
        for j in range(start, stop):
            pieces[1::5] = [f"{j},"] * width
            pieces[3::5] = [f"{ys[j]!r},"] * width
            pieces[4::5] = map(texts.__getitem__, grid.ids[j].tolist())
            out.write("".join(pieces))
        for k in np.flatnonzero((start <= last) & (last < stop)).tolist():
            del texts[k]

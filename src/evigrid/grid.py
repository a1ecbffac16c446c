"""Georeferenced 2D lattices of evidential cells.

Cell (i, j) of a grid covers the box
``[origin_east + i*cell_size, origin_east + (i+1)*cell_size]`` east and the
analogous interval north.  Grids are world-fixed; the vehicle pose moves
through them.
"""

from __future__ import annotations

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
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
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


class EvidentialGrid:
    """A lattice whose cells carry normal mass functions on a shared frame.

    Masses are stored as one C-contiguous (2**n, height, width) array: one
    plane per subset, each in (j, i) raster order, so ``masses.T.reshape(
    2**n, -1)`` gives the (subset, cell) rows the grid kernels work on
    without a copy.  ``masses`` is the (width, height, 2**n) view of that
    array, indexed ``masses[i, j]`` by cell.  Every cell starts vacuous.
    """

    def __init__(self, spec: GridSpec, frame: FrameOfDiscernment):
        self.spec = spec
        self.frame = frame
        self.masses = np.zeros((frame.size, spec.height, spec.width)).T
        self.masses[:, :, frame.omega] = 1.0

    def cell(self, i: int, j: int) -> MassFunction:
        return MassFunction(self.frame, self.masses[i, j])

    def set_cell(self, i: int, j: int, m: MassFunction) -> None:
        if m.frame != self.frame:
            raise ValueError("mass function frame does not match grid frame")
        if m.unnormalized:
            raise ValueError("grid cells must hold normal mass functions")
        self.masses[i, j] = m.masses


class PerceptionGrid(EvidentialGrid):
    """Evidential grid whose cells additionally carry an occupancy counter.

    The counter starts at 0 (occupancy not yet confirmed) so the moving-object
    hypothesis is never suppressed at startup.
    """

    def __init__(self, spec: GridSpec, frame: FrameOfDiscernment):
        super().__init__(spec, frame)
        self.counter = np.zeros((spec.height, spec.width)).T


def mass_column_names(frame: FrameOfDiscernment) -> list[str]:
    return ["m_" + ("".join(frame.labels_of(mask)) or "empty")
            for mask in range(frame.size)]


def write_grid_csv(grid: EvidentialGrid, out: TextIO) -> None:
    """Dump a grid snapshot: one row per cell, one column per subset mass.

    The counter column is 0 for grids that do not carry one.  Every value is
    written as its ``repr``.  Cells with the same history have the same row
    of masses and counter, and are mostly neighbours, so the text of each
    distinct row, keyed by its bytes (which keeps ``-0.0`` and ``0.0``
    apart), is formatted once for a raster row and the one after it.
    """
    spec = grid.spec
    zeta = getattr(grid, "counter", np.zeros((spec.width, spec.height)))
    header = ["i", "j", "x_center", "y_center"] + mass_column_names(grid.frame) + ["zeta"]
    out.write(",".join(header) + "\n")
    xs, ys = spec.cell_centers(np.arange(spec.width), np.arange(spec.height))
    columns = list(enumerate(map(repr, xs.tolist())))
    values = np.empty((spec.width, grid.frame.size + 1))
    keys = values.view(np.dtype((np.void, values[0].nbytes))).ravel()
    texts: dict[bytes, str] = {}
    # one raster row at a time: a whole-grid table of Python floats is large,
    # and so is a table of every distinct row's text (59 MiB for 240x240 cells
    # that all differ; 2.5 MB on a city replay, whose peak memory it raised)
    for j, y in enumerate(map(repr, ys.tolist())):
        values[:, :-1] = grid.masses[:, j]
        values[:, -1] = zeta[:, j]
        cells = keys.tolist()
        previous, texts = texts, {}
        for i, key in enumerate(cells):
            if key not in texts:
                texts[key] = previous.get(key) or ",".join(map(repr, values[i].tolist()))
        out.write("".join([f"{i},{j},{x},{y},{texts[key]}\n"
                           for (i, x), key in zip(columns, cells)]))

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

    def world_to_cell(self, x: float, y: float) -> Optional[tuple[int, int]]:
        """Cell containing a world point, or None outside the grid.

        Points exactly on an upper cell boundary belong to the higher-index
        cell, except on the grid's outer edge which belongs to the last cell.
        """
        i = math.floor((x - self.origin_east) / self.cell_size)
        j = math.floor((y - self.origin_north) / self.cell_size)
        if i == self.width and x - self.origin_east == self.width * self.cell_size:
            i -= 1
        if j == self.height and y - self.origin_north == self.height * self.cell_size:
            j -= 1
        if 0 <= i < self.width and 0 <= j < self.height:
            return i, j
        return None

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise IndexError(f"cell ({i}, {j}) out of bounds for {self.width}x{self.height} grid")
        return (self.origin_east + (i + 0.5) * self.cell_size,
                self.origin_north + (j + 0.5) * self.cell_size)


class EvidentialGrid:
    """A lattice whose cells carry normal mass functions on a shared frame.

    Masses are stored densely as a (width, height, 2**n) array; every cell
    starts vacuous.
    """

    def __init__(self, spec: GridSpec, frame: FrameOfDiscernment):
        self.spec = spec
        self.frame = frame
        self.masses = np.zeros((spec.width, spec.height, frame.size))
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
        self.counter = np.zeros((spec.width, spec.height))


def mass_column_names(frame: FrameOfDiscernment) -> list[str]:
    return ["m_" + ("".join(frame.labels_of(mask)) or "empty")
            for mask in range(frame.size)]


def write_grid_csv(grid: EvidentialGrid, out: TextIO) -> None:
    """Dump a grid snapshot: one row per cell, one column per subset mass.

    The counter column is 0 for grids that do not carry one.
    """
    spec = grid.spec
    counter = getattr(grid, "counter", None)
    header = ["i", "j", "x_center", "y_center"] + mass_column_names(grid.frame) + ["zeta"]
    out.write(",".join(header) + "\n")
    for j in range(spec.height):
        for i in range(spec.width):
            x, y = spec.cell_center(i, j)
            z = counter[i, j] if counter is not None else 0.0
            row = [repr(i), repr(j), repr(x), repr(y)]
            row += [repr(float(v)) for v in grid.masses[i, j]]
            row.append(repr(float(z)))
            out.write(",".join(row) + "\n")

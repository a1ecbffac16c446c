"""ASCII image renders of perception grids.

Two styles: per-cell decision colors and a pignistic mean color.  The palette
is fixed: free space green, moving objects red, static classes (mapped and
unmapped infrastructure, stopped objects) blue, unknown black.  Images are
written as ASCII PPM (P3), which is diffable text.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .fusion import DECISION_LABELS

# Row order: decision codes F, I, U, S, M, UNKNOWN.
DECISION_COLORS = np.array([
    (0, 255, 0),      # F: green
    (0, 0, 255),      # I: blue
    (0, 0, 255),      # U: blue
    (0, 0, 255),      # S: blue
    (255, 0, 0),      # M: red
    (0, 0, 0),        # UNKNOWN: black
], dtype=np.uint8)

# Per-class colors used for the pignistic mean (no unknown row: the mean is
# taken over the five classes weighted by their pignistic probability).
CLASS_COLORS = DECISION_COLORS[:5].astype(float)


def write_ppm(pixels: np.ndarray, out: TextIO) -> None:
    """Write an (rows, cols, 3) uint8 array as ASCII PPM (P3).

    Each distinct colour's "r g b" text is formatted once per image.
    """
    rows, cols, _ = pixels.shape
    out.write(f"P3\n{cols} {rows}\n255\n")
    # 24-bit colours built in place and read one row at a time: a uint32
    # copy of all three channels and a whole-image np.unique (0.7 MiB per
    # 120x120 image) raised the peak memory of the benchmark runs
    packed = pixels[..., 0].astype(np.uint32)
    for channel in (1, 2):
        packed <<= 8
        packed |= pixels[..., channel]
    texts: dict[int, str] = {}
    for row in packed:
        colours = row.tolist()
        for c in set(colours).difference(texts):
            texts[c] = f"{c >> 16} {c >> 8 & 255} {c & 255}"
        out.write(" ".join(map(texts.__getitem__, colours)) + "\n")


def _to_image(cellwise: np.ndarray) -> np.ndarray:
    """Flip (i, j, ...) cell-indexed data into image rows, north up."""
    return cellwise.swapaxes(0, 1)[::-1]


def decision_image(codes: np.ndarray) -> np.ndarray:
    """Image of per-cell decision codes (``fusion.decide_pignistic``)."""
    return _to_image(DECISION_COLORS[codes])


def pignistic_image(bet: np.ndarray) -> np.ndarray:
    """Image of per-cell pignistic probabilities (``fusion.pignistic_grid``)."""
    rgb = np.clip(np.rint(bet @ CLASS_COLORS), 0, 255).astype(np.uint8)
    return _to_image(rgb)


class MovingTrace:
    """Persistent overlay of every cell ever decided as a moving object."""

    def __init__(self, width: int, height: int):
        self.mask = np.zeros((width, height), dtype=bool)

    def update(self, codes: np.ndarray) -> None:
        """Add the cells whose decision code is moving."""
        self.mask |= codes == DECISION_LABELS.index("M")

    def image(self) -> np.ndarray:
        rgb = np.zeros(self.mask.shape + (3,), dtype=np.uint8)
        rgb[self.mask] = (255, 0, 0)
        return _to_image(rgb)

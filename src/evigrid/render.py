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


def _sample_words(end: str) -> np.ndarray:
    """Each sample value's decimal text and then `end`, NUL-padded to four
    bytes, as one uint32 word per value 0-255."""
    return np.frombuffer(b"".join(f"{v}{end}".encode().ljust(4, b"\0") for v in range(256)),
                         dtype=np.uint32)


_WORDS = _sample_words(" ")
_LAST_WORDS = _sample_words("\n")   # the last sample of a row
# samples per write: a block of whole rows, or one row when a row is longer
_BLOCK_SAMPLES = 1 << 15


def write_ppm(pixels: np.ndarray, out: TextIO) -> None:
    """Write an (rows, cols, 3) uint8 array as ASCII PPM (P3).

    Each block of rows is one gather of word-table entries and one write:
    the padding NULs are dropped from the words' bytes.
    """
    rows, cols, _ = pixels.shape
    out.write(f"P3\n{cols} {rows}\n255\n")
    step = max(1, _BLOCK_SAMPLES // (3 * cols))
    for start in range(0, rows, step):
        block = pixels[start:start + step]
        words = np.take(_WORDS, block)
        words[:, -1, -1] = np.take(_LAST_WORDS, block[:, -1, -1])
        out.write(words.tobytes().translate(None, b"\0").decode("ascii"))


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

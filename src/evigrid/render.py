"""ASCII image renders of perception grids.

Decision and pignistic mean colors are made once per palette state, and
every image, the moving-object trace too, is one gather of (3, S) uint8
color planes by (height, width) palette ids.  The colors are fixed: free
space green, moving objects red, static classes (mapped and unmapped
infrastructure, stopped objects) blue, unknown black.  Images are written
as ASCII PPM (P3), which is diffable text.
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

# Row order: never decided as moving (black), decided as moving (red).
TRACE_COLORS = DECISION_COLORS[[-1, DECISION_LABELS.index("M")]]

# each sample value's decimal text and then a space, or a newline for the
# last sample of a row, NUL-padded to four bytes
_WORDS = np.array([f"{v} " for v in range(256)], dtype="S4")
_LAST_WORDS = np.array([f"{v}\n" for v in range(256)], dtype="S4")
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


def _image(planes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Image of (3, S) uint8 color planes gathered by (height, width) ids, north up."""
    return np.take(planes.T, ids[::-1], axis=0)


def decision_image(codes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Image of a grid's (S,) per-state decision codes and its palette ``ids``."""
    return _image(np.take(DECISION_COLORS.T, codes, axis=1), ids)


def pignistic_image(state_bet: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Image of a grid's (5, S) per-state pignistic table, as
    ``EpochResult.state_bet``, and its (height, width) palette ``ids``.

    Each state is coloured once, its class colours added in class order so
    that its colour does not depend on S.
    """
    planes = np.zeros((3, state_bet.shape[1]))
    for color, share in zip(CLASS_COLORS, state_bet):
        planes += np.multiply.outer(color, share)
    return _image(np.clip(np.rint(planes), 0, 255).astype(np.uint8), ids)


class MovingTrace:
    """Persistent overlay of every cell ever decided as a moving object."""

    def __init__(self, height: int, width: int):
        self.mask = np.zeros((height, width), dtype=bool)

    def update(self, codes: np.ndarray, ids: np.ndarray) -> None:
        """Add the cells whose state's code, of the (S,) `codes`, is moving."""
        self.mask |= np.take(codes == DECISION_LABELS.index("M"), ids)

    def image(self) -> np.ndarray:
        # the mask is the ids of a palette of two states: never and ever moving
        return _image(TRACE_COLORS.T, self.mask.view(np.uint8))

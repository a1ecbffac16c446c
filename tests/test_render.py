"""The PPM writer and grid-to-image orientation."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evigrid import render
from evigrid.dst import MassFunction
from evigrid.frames import PERCEPTION_FRAME
from evigrid.fusion import decide_grid, pignistic_grid
from evigrid.grid import GridSpec, PerceptionGrid
from evigrid.render import (DECISION_COLORS, MovingTrace, decision_image, pignistic_image,
                            write_ppm)
from oracles import dense_grid, write_ppm_oracle

SPEC = GridSpec(0.0, 0.0, 0.5, 3, 2)


def grid_with(cells):
    masses = np.zeros((SPEC.width, SPEC.height, PERCEPTION_FRAME.size))
    masses[..., PERCEPTION_FRAME.omega] = 1.0
    for cell, mapping in cells.items():
        masses[cell] = MassFunction(PERCEPTION_FRAME, mapping).masses
    return dense_grid(PerceptionGrid, SPEC, PERCEPTION_FRAME, masses)


def test_write_ppm_format():
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    buf = io.StringIO()
    write_ppm(img, buf)
    lines = buf.getvalue().splitlines()
    assert lines[:3] == ["P3", "3 2", "255"]
    assert lines[3].startswith("255 0 0")
    assert len(lines) == 3 + 2


def test_write_ppm_matches_per_pixel_format():
    img = np.random.default_rng(4).integers(0, 256, (4, 5, 3), dtype=np.uint8)
    buf = io.StringIO()
    write_ppm(img, buf)
    rows = [" ".join(str(int(v)) for v in img[r].ravel()) for r in range(4)]
    assert buf.getvalue() == "P3\n5 4\n255\n" + "".join(row + "\n" for row in rows)


def _check_ppm(pixels):
    ours, oracle = io.StringIO(), io.StringIO()
    write_ppm(pixels, ours)
    write_ppm_oracle(pixels, oracle)
    assert ours.getvalue() == oracle.getvalue()


def _image_with(colours, picks) -> np.ndarray:
    return np.asarray(colours, dtype=np.uint8)[picks]


@pytest.mark.parametrize("pixels", [
    _image_with([(7, 200, 31)], np.zeros((3, 4), dtype=int)),
    _image_with(DECISION_COLORS, np.random.default_rng(5).integers(0, 6, (9, 8))),
    np.random.default_rng(6).integers(0, 256, (17, 23, 3), dtype=np.uint8),
    _image_with([(255, 0, 128)], np.zeros((1, 1), dtype=int)),
], ids=["one_colour", "decision_colours", "random", "one_pixel"])
def test_write_ppm_matches_oracle(pixels):
    _check_ppm(pixels)


def test_write_ppm_every_sample_value_inside_and_at_row_end():
    # row v holds only the value v, so every value 0-255 is written both
    # before a space and before the newline
    _check_ppm(np.broadcast_to(np.arange(256, dtype=np.uint8)[:, None, None], (256, 4, 3)))
    _check_ppm(np.arange(256 * 3, dtype=np.uint8).reshape(1, 256, 3))


@pytest.mark.parametrize("shape", [(100, 120, 3), (11000, 1, 3), (2, 11000, 3), (91, 120, 3)],
                         ids=["rows_not_a_multiple", "one_column", "row_wider_than_a_block",
                              "one_whole_block"])
def test_write_ppm_across_row_blocks(shape):
    """Images that cross the writer's own block of 32,768 samples (91 rows
    of 120 pixels), also written from a flipped view, as rendered."""
    assert render._BLOCK_SAMPLES == 1 << 15
    pixels = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
    _check_ppm(pixels)
    _check_ppm(pixels.swapaxes(0, 1)[::-1])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.data())
def test_write_ppm_matches_oracle_for_any_block(block, data):
    """With blocks of a few samples, small images have row counts that are
    no multiple of the rows per block, single columns and rows wider than
    a block; images are also written from flipped views, as rendered."""
    rows, cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 15))
    pixels = data.draw(arrays(np.uint8, (rows, cols, 3)))
    if data.draw(st.booleans()):
        pixels = pixels.swapaxes(0, 1)[::-1]
    with mock.patch.object(render, "_BLOCK_SAMPLES", block):
        _check_ppm(pixels)


def test_decision_image_north_up():
    # cell (0, 1) is the top-left pixel: j grows north, image rows go down
    pg = grid_with({(0, 1): {"M": 1.0}, (2, 0): {"F": 1.0}})
    img = decision_image(decide_grid(pg, 0.5))
    assert img.shape == (2, 3, 3)
    assert tuple(img[0, 0]) == (255, 0, 0)
    assert tuple(img[1, 2]) == (0, 255, 0)
    # vacuous cells fall below the threshold: black
    assert tuple(img[0, 1]) == (0, 0, 0)


def test_pignistic_image_blends():
    pg = grid_with({(0, 0): {"FIUSM": 1.0}})
    img = pignistic_image(pignistic_grid(pg))
    # equal weight on green, red and three blues
    assert tuple(img[1, 0]) == (51, 51, 153)


def test_moving_trace_accumulates():
    trace = MovingTrace(SPEC.width, SPEC.height)
    trace.update(decide_grid(grid_with({(1, 0): {"M": 1.0}}), 0.5))
    trace.update(decide_grid(grid_with({(2, 1): {"M": 1.0}}), 0.5))
    img = trace.image()
    assert tuple(img[1, 1]) == (255, 0, 0)
    assert tuple(img[0, 2]) == (255, 0, 0)
    assert tuple(img[0, 0]) == (0, 0, 0)


def test_images_deterministic():
    pg = grid_with({(0, 0): {"SM": 0.5, "FIUSM": 0.5}})
    a, b = io.StringIO(), io.StringIO()
    write_ppm(pignistic_image(pignistic_grid(pg)), a)
    write_ppm(pignistic_image(pignistic_grid(pg)), b)
    assert a.getvalue() == b.getvalue()

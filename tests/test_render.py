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
from oracles import dense_grid, pignistic_image_oracle, write_ppm_oracle

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
    img = pignistic_image(pignistic_grid(pg), pg.ids)
    # equal weight on green, red and three blues
    assert tuple(img[1, 0]) == (51, 51, 153)


# probabilities whose colour sums land on or next to a rounding midpoint
EDGE_SHARES = [0.0, 1.0, 0.2, 1 / 3, 0.5, 0.5 / 255, 1.5 / 255, 127.5 / 255, 254.5 / 255]


@st.composite
def palettes(draw):
    """A (5, S) table of S states, some repeated, and the (height, width)
    ids of a grid from 1x1 that uses them."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(st.sampled_from(EDGE_SHARES) | st.floats(0.0, 1.0),
                                  min_size=5, max_size=5), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    state_bet = np.array([pool[k] for k in picks]).T
    ids = draw(arrays(np.intp, (height, width), elements=st.integers(0, len(picks) - 1)))
    return state_bet, ids


@settings(max_examples=150, deadline=None)
@given(palettes())
def test_pignistic_image_matches_per_cell_oracle(palette):
    state_bet, ids = palette
    image = pignistic_image(state_bet, ids)
    assert image.dtype == np.uint8
    assert image.tobytes() == pignistic_image_oracle(state_bet, ids).tobytes()


@pytest.mark.parametrize("shares, blue", [
    ((0.09518585083675656, 0.21769169011838074, 0.042024419829176436), 90),
    ((0.10374160573120306, 0.09373238441867855, 0.05938875494815756), 66)])
def test_pignistic_image_adds_classes_in_order(shares, blue):
    """Blue sums of I, U and S that are a rounding midpoint only when added
    in class order, and then round half to even."""
    state_bet = np.array([[0.0, *shares, 0.0]]).T
    ids = np.zeros((1, 1), dtype=np.intp)
    assert pignistic_image(state_bet, ids).tolist() == [[[0, 0, blue]]]
    assert pignistic_image_oracle(state_bet, ids).tolist() == [[[0, 0, blue]]]


def test_pignistic_image_of_a_state_alone_and_among_5000():
    """A state's pixel does not depend on the size of the table around it."""
    state_bet = np.random.default_rng(11).dirichlet(np.ones(5), 5000).T
    alone = pignistic_image(state_bet[:, 1234:1235], np.zeros((1, 1), dtype=np.intp))
    among = pignistic_image(state_bet, np.array([[1234]]))
    assert alone.tobytes() == among.tobytes()
    assert among.tobytes() == pignistic_image_oracle(state_bet, np.array([[1234]])).tobytes()


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
    write_ppm(pignistic_image(pignistic_grid(pg), pg.ids), a)
    write_ppm(pignistic_image(pignistic_grid(pg), pg.ids), b)
    assert a.getvalue() == b.getvalue()

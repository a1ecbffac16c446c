"""Tests of the benchmark's output checks on a small live scene.

The scene is the benchmark's intersection at a quarter of the cell count and
half the beams, so a run takes about a second.  A clean run must pass every
check; each deliberately corrupted output must fail one.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402

SCANS = 20


@pytest.fixture(scope="module")
def live_run(tmp_path_factory):
    from evigrid.cli import main

    root = tmp_path_factory.mktemp("live")
    inputs, out = root / "inputs", root / "out"
    inputs.mkdir()
    scenario, vmap, truth = gen.intersection_scene(7, SCANS)
    scenario["grid"].update(cell_size=0.25, width=120, height=120)
    scenario["sensor"]["beam_count"] = 181
    (inputs / "map.geojson").write_text(json.dumps(vmap))
    (inputs / "scene.json").write_text(json.dumps(scenario))
    (inputs / "truth.json").write_text(json.dumps(truth))
    assert main(["run", str(inputs / "scene.json"), "--out", str(out),
                 "--record", str(out / "scans.ndjson"), "--dump-grid", str(SCANS - 1)]) == 0
    return inputs, out


def corrupted(live_run, tmp_path):
    """A private copy of the run's outputs."""
    inputs, out = live_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return inputs, copy


def edit_dump(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    edit(rows)
    body = [",".join([str(int(r[0])), str(int(r[1]))] + [repr(float(v)) for v in r[2:]])
            for r in rows]
    path.write_text("\n".join([lines[0]] + body) + "\n")


def test_clean_run_passes(live_run):
    inputs, out = live_run
    report = checks.check_outputs(inputs, out, seed=3, replay=False)
    assert report["oracle_cells"] >= 12
    for probe in ("facade", "parked", "moving0", "moving1", "moving2", "wake"):
        assert report[probe] > 0


def test_shifted_mass_fails_the_oracle(live_run, tmp_path):
    """Masses stay normal, so only the recomputation can tell."""
    inputs, out = corrupted(live_run, tmp_path)
    dump = out / f"grid_{SCANS - 1:05d}.csv"

    def shift(rows):
        movable = rows[:, 4 + 31] > 1e-6
        rows[movable, 4 + 1] += 1e-6
        rows[movable, 4 + 31] -= 1e-6
    edit_dump(dump, shift)
    with pytest.raises(checks.CheckError, match="oracle"):
        checks.check_outputs(inputs, out, seed=3, replay=False)


@pytest.mark.parametrize("column, value, message", [
    (4 + 1, -0.25, "negative mass"),
    (4 + 0, 0.125, "empty set"),
    (4 + 31, 2.0, "sum to 1"),
    (4 + 32, 1.5, "counter"),
])
def test_broken_cell_fails_the_invariants(live_run, tmp_path, column, value, message):
    inputs, out = corrupted(live_run, tmp_path)

    def set_value(rows):
        rows[len(rows) // 2, column] = value
    edit_dump(out / f"grid_{SCANS - 1:05d}.csv", set_value)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_outputs(inputs, out, seed=3, replay=False)


def test_wrong_stats_fail(live_run, tmp_path):
    inputs, out = corrupted(live_run, tmp_path)
    stats = out / "stats.ndjson"
    lines = [json.loads(line) for line in stats.read_text().splitlines()]
    lines[-1]["cells_F"] += 1
    lines[-1]["cells_M"] -= 1
    stats.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(checks.CheckError, match="cells_F"):
        checks.check_outputs(inputs, out, seed=3, replay=False)


def test_replay_must_reproduce_recorded_stats():
    line = {"t": 0, "cells_F": 1, "cells_I": 0, "cells_U": 0, "cells_S": 0, "cells_M": 0,
            "cells_unknown": 0, "total_conflict_fo": 0.5, "total_conflict_of": 0.0,
            "total_residual": 0.0}
    checks.stats_match([dict(line)], [line])
    with pytest.raises(checks.CheckError, match="total_conflict_fo"):
        checks.stats_match([dict(line, total_conflict_fo=0.5 + 1e-6)], [line])


def test_closed_form_merge_matches_beam_by_beam_dempster():
    """The oracle's closed form against Dempster's rule on {F, O} applied
    one beam at a time, free and occupied beams interleaved, on cells the
    oracle judges (1 - K >= 1e-6)."""
    wf, wo = 0.7, 0.8
    for nf, no in ((0, 0), (3, 0), (0, 2), (4, 3), (9, 7)):
        f, o, w = 0.0, 0.0, 1.0
        order = ["f"] * nf + ["o"] * no
        order[::2], order[1::2] = order[:len(order[::2])], order[len(order[::2]):]
        for kind in order:
            if kind == "f":
                k = o * wf
                f, o, w = (f + w * wf) / (1 - k), o * (1 - wf) / (1 - k), w * (1 - wf) / (1 - k)
            else:
                k = f * wo
                f, o, w = f * (1 - wo) / (1 - k), (o + w * wo) / (1 - k), w * (1 - wo) / (1 - k)
        assert checks.merged_beams(wf, wo, nf, no) == pytest.approx((f, o, w), abs=1e-9)


def test_beam_through_cell():
    rec = {"pose": {"x": 0.5, "y": 0.5, "heading": 0.0},
           "beams": [[0.0, 2.0, True], [math.pi / 4, 1.0, True], [math.pi / 2, 0.25, True]]}
    beams = checks.Beams.of_record(rec)
    # east of the sensor's cell: the first beam crosses it, the diagonal one
    # only touches its corner (1, 1), the third points north
    through, unsure = beams.through((1.0, 0.0, 2.0, 1.0))
    assert through.tolist() == [True, False, False]
    assert unsure.tolist() == [False, True, False]
    through, unsure = beams.through((0.0, 0.0, 1.0, 1.0))
    assert through.all() and not unsure.any()

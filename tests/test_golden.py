"""Golden digests of the command-line outputs of every shipped scenario.

Each scenario is run with ``run --render both --dump-grid 5,20 --record``,
then its recorded scan log is replayed with the scenario's settings.  So is
each case of ``VARIANTS``, a shipped scenario with some settings replaced
through ``--params``.  The
SHA-256 of every file the run writes (stats, every PPM, the trace image,
the grid CSVs and the scan log) must equal the digests in
``golden_digests.json``, and the replay must write the same files but the
scan log.  A change that moves any output must rewrite them
(``PYTHONPATH=src python tests/test_golden.py``) and say why.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from evigrid.cli import main
from evigrid.simulator import Settings

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"
DIGESTS = TESTS / "golden_digests.json"
SCAN_LOG = "scans.ndjson"

# Every shipped scenario's grid is square, so a swapped width and height
# would pass them all: a non-square grid tells the two apart.
VARIANTS = {
    "crossing_car_72x40": ("crossing_car", {"grid": {
        "origin_east": 0.0, "origin_north": 0.0, "cell_size": 0.5, "width": 72, "height": 40}}),
}
CASES = {**{path.stem: (path.stem, {}) for path in SCENARIOS.glob("*.json")}, **VARIANTS}


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def scenario_outputs(scenario: Path, work: Path, overrides: dict) -> tuple[dict, dict]:
    """Digests of the files written by the run of `scenario` with the
    settings `overrides` (its scan log included) and by the replay of that
    log."""
    log = work / SCAN_LOG
    overrides_path = work / "overrides.json"
    overrides_path.write_text(json.dumps(overrides))
    assert main(["run", str(scenario), "--out", str(work / "run"), "--render", "both",
                 "--dump-grid", "5,20", "--record", str(log),
                 "--params", str(overrides_path)]) == 0
    data = json.loads(scenario.read_text())
    params = work / "params.json"
    params.write_text(json.dumps({**{f.name: data[f.name] for f in dataclasses.fields(Settings)
                                     if f.name in data}, **overrides}))
    assert main(["replay", str(log), str(scenario.parent / data["map"]),
                 "--params", str(params), "--out", str(work / "replay"), "--render", "both",
                 "--dump-grid", "5,20"]) == 0
    run = _digests(work / "run")
    run[SCAN_LOG] = hashlib.sha256(log.read_bytes()).hexdigest()
    return run, _digests(work / "replay")


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    golden = json.loads(DIGESTS.read_text())[name]
    stem, overrides = CASES[name]
    run, replay = scenario_outputs(SCENARIOS / f"{stem}.json", tmp_path, overrides)
    assert sorted(run) == sorted(golden)
    assert [f for f in sorted(run) if run[f] != golden[f]] == []
    del golden[SCAN_LOG]
    assert replay == golden


if __name__ == "__main__":
    golden = {}
    for name, (stem, overrides) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as work:
            golden[name] = scenario_outputs(SCENARIOS / f"{stem}.json", Path(work), overrides)[0]
    DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)

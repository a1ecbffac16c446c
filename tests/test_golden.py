"""Golden digests of the command-line outputs of every shipped scenario.

Each scenario is run with ``run --render both --dump-grid 5,20 --record``,
then its recorded scan log is replayed with the scenario's settings.  The
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


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def scenario_outputs(scenario: Path, work: Path) -> tuple[dict, dict]:
    """Digests of the files written by the run of `scenario` (its scan log
    included) and by the replay of that log."""
    log = work / SCAN_LOG
    assert main(["run", str(scenario), "--out", str(work / "run"), "--render", "both",
                 "--dump-grid", "5,20", "--record", str(log)]) == 0
    data = json.loads(scenario.read_text())
    params = work / "params.json"
    params.write_text(json.dumps({f.name: data[f.name]
                                  for f in dataclasses.fields(Settings) if f.name in data}))
    assert main(["replay", str(log), str(scenario.parent / data["map"]),
                 "--params", str(params), "--out", str(work / "replay"), "--render", "both",
                 "--dump-grid", "5,20"]) == 0
    run = _digests(work / "run")
    run[SCAN_LOG] = hashlib.sha256(log.read_bytes()).hexdigest()
    return run, _digests(work / "replay")


@pytest.mark.parametrize("name", sorted(path.stem for path in SCENARIOS.glob("*.json")))
def test_outputs_match_golden_digests(name, tmp_path):
    golden = json.loads(DIGESTS.read_text())[name]
    run, replay = scenario_outputs(SCENARIOS / f"{name}.json", tmp_path)
    assert sorted(run) == sorted(golden)
    assert [f for f in sorted(run) if run[f] != golden[f]] == []
    del golden[SCAN_LOG]
    assert replay == golden


if __name__ == "__main__":
    golden = {}
    for scenario in sorted(SCENARIOS.glob("*.json")):
        with tempfile.TemporaryDirectory() as work:
            golden[scenario.stem] = scenario_outputs(scenario, Path(work))[0]
    DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)

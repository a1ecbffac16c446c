"""Benchmark of the `evigrid run` and `evigrid replay` commands.

    python3 perfbench/run.py --workload intersection_live_240 --seed 1 \
        --seconds 40 --trace 0

Each command runs in its own process, one at a time, with one BLAS thread.
A run repeats whole rounds of three commands (single-scan, full,
single-scan) until ``--seconds`` is used up; every output of the last full
command is then checked (see checks.py).  The last line of standard output
is a JSON object with the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of one more, traced, full command (see traced.py).  See
README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
import traced  # noqa: E402

WORK_DIR = BENCH_DIR / ".work"


@dataclass
class Sample:
    """One finished command."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    out: Path
    scans_done: int
    stderr: str


def run_command(argv: list[str], out: Path) -> Sample:
    """Run one evigrid command to its end and measure it from outside."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    with open(out.parent / (out.name + ".stderr"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=gen.program_env(), cwd=out,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    stats = out / "stats.ndjson"
    done = len(stats.read_text().splitlines()) if stats.exists() else 0
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, done, stderr)


def commands(workload: str, inputs: Path, python: list[str]) -> tuple[list, list]:
    """Argument lists of the single-scan and the full command, each starting
    with ``python``, the program that runs evigrid's command line."""
    scans = gen.SCANS[workload]
    if workload == "intersection_live_240":
        # only the first scan is rendered; the last scan is dumped and every
        # scan is recorded, which the output checks read
        common = ["--every", str(10 * scans), "--record", "scans.ndjson"]
        return ([*python, "run", str(inputs / "scene_1.json"), "--out", ".", *common],
                [*python, "run", str(inputs / "scene.json"), "--out", ".", *common,
                 "--dump-grid", str(scans - 1)])
    tail = [str(inputs / "map.geojson"), "--params", str(inputs / "params.json"), "--out", "."]
    return ([*python, "replay", str(inputs / "log_1.ndjson"), *tail],
            [*python, "replay", str(inputs / "log.ndjson"), *tail,
             "--dump-grid", str(scans - 1)])


def measure(workload: str, inputs: Path, seconds: float) -> list[tuple]:
    """Whole rounds of (single, full, single) until the time is used up.

    The two single-scan commands bracket the full one, so a machine that
    speeds up or slows down steadily during a round shifts both sides of
    full - single alike.
    """
    single_cmd, full_cmd = commands(workload, inputs, gen.EVIGRID)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append((run_command(single_cmd, WORK_DIR / "single"),
                       run_command(full_cmd, WORK_DIR / "full"),
                       run_command(single_cmd, WORK_DIR / "single")))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def full_minus_single(rnd: tuple) -> float:
    """Extra wall time of a round's full command over its single-scan ones."""
    before, full, after = rnd
    return full.wall_s - (before.wall_s + after.wall_s) / 2.0


def end_to_end(rounds: list[tuple], scans: int) -> dict:
    singles = [s for before, _, after in rounds for s in (before, after)]
    return {
        "setup_s": {"value": statistics.median(s.wall_s for s in singles), "unit": "s"},
        "scans_per_s": {"value": statistics.median((scans - 1) / full_minus_single(r)
                                                   for r in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(full.peak_rss_mb for _, full, _ in rounds),
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SCANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (gen.ROOT / "src" / "evigrid" / "cli.py").is_file():
        print("perfbench: evigrid sources not found under src/", file=sys.stderr)
        return 2

    inputs = gen.inputs_for(args.workload, args.seed)
    scans = gen.SCANS[args.workload]
    rounds = measure(args.workload, inputs, args.seconds)
    samples = [sample for rnd in rounds for sample in rnd]
    attempted = len(rounds) * (2 + scans)
    failed = attempted - sum(sample.scans_done for sample in samples)
    for sample in samples:
        if sample.returncode != 0:
            print(f"perfbench: command failed ({sample.returncode}): {sample.stderr.strip()}",
                  file=sys.stderr)
    last_full = rounds[-1][1]
    problems = checks.check_run(args.workload, inputs, last_full.out, args.seed) \
        if last_full.returncode == 0 else ["the last full command failed"]
    for before, full, after in rounds:
        print(f"# single {before.wall_s:.3f} s, full {full.wall_s:.3f} s,"
              f" single {after.wall_s:.3f} s, full peak RSS {full.peak_rss_mb:.1f} MB",
              file=sys.stderr)
    metrics = end_to_end(rounds, scans)
    if args.trace:
        untraced_scan_s = statistics.median(map(full_minus_single, rounds)) / (scans - 1)
        metrics, traced_full = traced.per_layer(args.workload, inputs, untraced_scan_s,
                                                run_command, commands, WORK_DIR)
        attempted += scans
        failed += scans - traced_full.scans_done
        # tracing must not change what the program computes
        if (traced_full.out / "stats.ndjson").read_text() != \
                (last_full.out / "stats.ndjson").read_text():
            problems.append("the traced command wrote other stats than the untraced one")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

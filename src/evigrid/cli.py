"""Command-line entry point: run scenarios or replay scan logs.

Exit codes: 0 success, 1 configuration error (a usage error on the command
line, or any failure before the first epoch: reading the scenario, map and
params files, opening the scan log, or creating the outputs), 2 runtime
error (any failure while stepping epochs, a malformed scan-log line
included).  An error prints one line on stderr, after the usage for a usage
error: one in an input file names the file, or the line of a scan log, one
in an output names its path, and one without text names its type.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .grid import write_grid_csv
from .map_ingest import load_map, rasterize_gg
from .render import MovingTrace, decision_image, pignistic_image, write_ppm
from .simulator import (EpochResult, ScenarioConfig, format_scan, load_settings,
                        replay_scans, run_scenario)


def _dump_epochs(args) -> set[int]:
    """The epochs of --dump-grid, once it and --every are checked: a bad
    value is a configuration error, raised before any input is read."""
    if args.every < 1:
        raise ValueError(f"--every must be at least 1, got {args.every}")
    try:
        epochs = {int(part) for part in args.dump_grid.split(",") if part}
    except ValueError:
        raise ValueError(f"--dump-grid must list epoch numbers, got {args.dump_grid!r}") from None
    if min(epochs, default=0) < 0:
        raise ValueError(f"--dump-grid epochs must be at least 0, got {args.dump_grid!r}")
    return epochs


def _emit(results: Iterable[EpochResult], out_dir: Path, render: str, every: int,
          dump_epochs: set[int], stats_out: TextIO, record: Optional[TextIO]) -> None:
    trace: Optional[MovingTrace] = None
    for result in results:
        stats_out.write(json.dumps(result.stats) + "\n")
        if record:
            record.write(format_scan(result.time, result.pose, result.scan) + "\n")
        if trace is None:
            trace = MovingTrace(*result.pg.ids.shape)
        trace.update(result.codes, result.pg.ids)
        if result.epoch % every == 0:
            if render in ("decision", "both"):
                with open(out_dir / f"decision_{result.epoch:05d}.ppm", "w") as fh:
                    write_ppm(decision_image(result.codes, result.pg.ids), fh)
            if render in ("pignistic", "both"):
                with open(out_dir / f"pignistic_{result.epoch:05d}.ppm", "w") as fh:
                    write_ppm(pignistic_image(result.state_bet, result.pg.ids), fh)
        if result.epoch in dump_epochs:
            with open(out_dir / f"grid_{result.epoch:05d}.csv", "w") as fh:
                write_grid_csv(result.pg, fh)
    if trace is not None:
        with open(out_dir / "trace.ppm", "w") as fh:
            write_ppm(trace.image(), fh)


def cmd_run(args, files: ExitStack) -> Iterator[EpochResult]:
    """The epochs of a simulated scenario, with the overrides of --params."""
    cfg = ScenarioConfig.from_file(args.scenario)
    if args.params:
        cfg = load_settings(args.params, base=cfg)
    return run_scenario(cfg, seed=args.seed)


def cmd_replay(args, files: ExitStack) -> Iterator[EpochResult]:
    """The epochs of a recorded scan log, read as they are fused."""
    settings = load_settings(args.params)
    gg = rasterize_gg(load_map(args.map), settings.map_confidence, settings.grid)
    # bytes, so that read_scan_log names a line that is not UTF-8
    return replay_scans(files.enter_context(open(args.log, "rb")), gg, settings)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as configuration errors: exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evigrid",
        description="Map-aided evidential occupancy-grid perception")
    sub = parser.add_subparsers(dest="command", required=True)
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", required=True, help="output directory")
    outputs.add_argument("--render", choices=("pignistic", "decision", "both"), default="both")
    outputs.add_argument("--every", type=int, default=1, metavar="N",
                         help="render every N epochs")
    outputs.add_argument("--dump-grid", default="", metavar="EPOCHS",
                         help="comma-separated epochs to dump as CSV")

    run = sub.add_parser("run", parents=[outputs], help="run a synthetic scenario")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--record", metavar="FILE", help="write the scan log as NDJSON")
    run.add_argument("--params", metavar="FILE",
                     help="JSON file overriding the scenario's settings")
    run.add_argument("--seed", type=int, default=None, help="RNG seed for sensor jitter")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", parents=[outputs], help="replay a recorded scan log")
    replay.add_argument("log", help="NDJSON scan log")
    replay.add_argument("map", help="map file (GeoJSON subset)")
    replay.add_argument("--params", required=True, metavar="FILE",
                        help="JSON file with the grid and the other settings")
    replay.set_defaults(func=cmd_replay, record=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Build the command's epochs, then fuse and write them; failures map to
    the exit codes above."""
    args = build_parser().parse_args(argv)
    with ExitStack() as files:
        try:
            dump_epochs = _dump_epochs(args)
            results = args.func(args, files)
            # a bad input writes nothing; an unusable output is a configuration error
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            record = files.enter_context(open(args.record, "w")) if args.record else None
            stats_out = files.enter_context(open(out_dir / "stats.ndjson", "w"))
        except Exception as exc:
            print("evigrid: configuration error:", str(exc) or type(exc).__name__, file=sys.stderr)
            return 1
        try:
            _emit(results, out_dir, args.render, args.every, dump_epochs, stats_out, record)
        except Exception as exc:
            print("evigrid: runtime error:", str(exc) or type(exc).__name__, file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced evigrid commands and the per-layer metrics made from them.

Run as a program, ``python3 perfbench/traced.py TRACE.json <evigrid args>``
replaces each module's public functions with timing wrappers at the place
where the calling module looks them up (``evigrid.cli.run_scenario``,
``evigrid.simulator.build_sg``, ...), runs ``evigrid.cli.main`` and writes
the spans and counts it kept in memory to TRACE.json.  The program itself
is not changed; the end-to-end runs are never traced.

A span is [layer, name, start, end, parent index].  A layer's self time is
the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Spans, counts and a few values, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict = {}
        self.marks: list[dict] = []     # counts at the start of each epoch step

    def begin(self, layer: str, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [layer, name, time.perf_counter(), None, parent]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer: str, name: str, fn, count=None):
        """``fn`` timed as one span per call; ``count(counts, args, result)``
        runs after the call, outside the span."""
        def traced(*args, **kwargs):
            span = self.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def count_only(self, key: str, fn, amount):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += amount(args, result)
            return result
        return counted

    def wrap_epochs(self, fn):
        """The epoch generator: each step is one ``simulator.epoch`` span, and
        the start of each step (plus the final, exhausted one) is a scan
        boundary."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.marks.append(dict(self.counts))
                span = self.begin("simulator", "epoch")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(span)
                yield item
        return traced

    def summary(self) -> dict:
        """Whole-run totals and per-scan figures over scans 1 .. n-1.

        Scan k runs from the start of epoch step k to the start of step
        k + 1; scan 0 is left out because it holds the set-up.  The root
        span's self time in that window is the command's own time.
        """
        self_s = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        run_inclusive, calls = Counter(), Counter()
        for layer, name, start, end, _ in self.spans:
            run_inclusive[f"{layer}.{name}"] += end - start
            calls[f"{layer}.{name}"] += 1
        bounds = [span[2] for span in self.spans if span[:2] == ["simulator", "epoch"]]
        out = {"run_inclusive_s": dict(run_inclusive), "calls": dict(calls),
               "counts": dict(self.counts), "values": dict(self.values), "scans": len(bounds) - 1}
        if len(bounds) < 3:
            return out
        lo, hi = bounds[1], bounds[-1]
        inclusive, self_time, layers = Counter(), Counter(), Counter()
        root_children = 0.0
        for k, (layer, name, start, end, parent) in enumerate(self.spans):
            if parent < 0 or not lo <= start < hi:
                continue
            inclusive[f"{layer}.{name}"] += end - start
            self_time[f"{layer}.{name}"] += self_s[k]
            layers[layer] += self_s[k]
            if parent == 0:
                root_children += end - start
        layers["cli"] += (hi - lo) - root_children
        first, last = self.marks[1], self.marks[-1]
        out.update({"window_s": hi - lo,
                    "scan_inclusive_s": dict(inclusive), "scan_self_s": dict(self_time),
                    "scan_layer_self_s": dict(layers),
                    "scan_counts": {key: last.get(key, 0) - first.get(key, 0) for key in last},
                    "setup_self_s": bounds[0] - self.spans[0][2] - sum(
                        end - start for _, _, start, end, parent in self.spans
                        if parent == 0 and start < bounds[0])})
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each module where their callers look
    them up."""
    from evigrid import cli, fusion, map_ingest, render, sensor, simulator

    def grid_cells(spec):
        return spec.width * spec.height

    # map_ingest, looked up by simulator.run_scenario and cli.cmd_replay
    for module in (simulator, cli):
        module.load_map = tracer.wrap("map_ingest", "load_map", module.load_map)
        module.rasterize_gg = tracer.wrap("map_ingest", "rasterize_gg", module.rasterize_gg)
    map_ingest.point_in_polygon = tracer.count_only(
        "map_ingest.cell_polygon_tests", map_ingest.point_in_polygon, lambda a, r: 1)

    # simulator, looked up by cli
    cli.run_scenario = tracer.wrap_epochs(cli.run_scenario)
    cli.replay_scans = tracer.wrap_epochs(cli.replay_scans)
    simulator.simulate_scan = tracer.wrap(
        "simulator", "simulate_scan", simulator.simulate_scan,
        lambda c, a, r: c.update({"simulator.beam_segment_tests":
                                  a[2].beam_count * len(a[0])}))
    # replay builds its scans from the log records
    simulator.LidarScan = tracer.wrap("sensor", "LidarScan", simulator.LidarScan)
    simulator.epoch_stats = tracer.wrap("simulator", "epoch_stats", simulator.epoch_stats)

    # sensor, looked up by simulator; the first call marks the first scan
    build_sg = tracer.wrap("sensor", "build_sg", simulator.build_sg)

    def build_sg_first(*args, **kwargs):
        tracer.values.setdefault("cli.rss_before_first_scan_mb",
                                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return build_sg(*args, **kwargs)
    simulator.build_sg = build_sg_first
    sensor.traverse_ray = tracer.count_only(
        "sensor.ray_cells", sensor.traverse_ray, lambda a, r: len(r))

    # fusion, looked up by simulator, render and fusion itself
    def keep_last(counts, args, result):
        counts["fusion.cells"] += grid_cells(args[0].spec)
        tracer.values["last_grid"] = result[0]
    simulator.step_with_conflicts = tracer.wrap(
        "fusion", "step_with_conflicts", simulator.step_with_conflicts, keep_last)
    pignistic = tracer.wrap("fusion", "pignistic_grid", fusion.pignistic_grid,
                            lambda c, a, r: c.update({"fusion.pignistic_grid_calls": 1}))
    fusion.pignistic_grid = render.pignistic_grid = pignistic
    decide = tracer.wrap("fusion", "decide_grid", fusion.decide_grid)
    simulator.decide_grid = render.decide_grid = decide

    # render and grid output, looked up by cli
    cli.decision_image = tracer.wrap("render", "images", cli.decision_image)
    cli.pignistic_image = tracer.wrap("render", "images", cli.pignistic_image)
    cli.write_ppm = tracer.wrap(
        "render", "write_ppm", cli.write_ppm,
        lambda c, a, r: c.update({"render.pixels_written": a[0].shape[0] * a[0].shape[1]}))

    class TracedMovingTrace(cli.MovingTrace):
        update = tracer.wrap("render", "images", cli.MovingTrace.update)
        image = tracer.wrap("render", "images", cli.MovingTrace.image)
    cli.MovingTrace = TracedMovingTrace
    cli.write_grid_csv = tracer.wrap(
        "grid", "write_grid_csv", cli.write_grid_csv,
        lambda c, a, r: c.update({"grid.csv_rows": grid_cells(a[0].spec)}))


def traced_main(argv: list[str]) -> int:
    trace_path, args = Path(argv[0]).resolve(), argv[1:]
    tracer = Tracer()
    install(tracer)
    from evigrid import cli
    span = tracer.begin("cli", "main")
    try:
        code = cli.main(args)
    finally:
        tracer.end(span)
        grid = tracer.values.pop("last_grid", None)
        if grid is not None:
            used = (grid.masses.reshape(-1, grid.masses.shape[-1]) != 0.0).any(axis=0)
            tracer.counts["fusion.focal_sets_in_use"] = int(used.sum())
        trace_path.write_text(json.dumps({**tracer.summary(), "spans": tracer.spans}))
    return code


# --- per-layer metrics (called by run.py) -----------------------------------

PER_SCAN_LAYERS = ("simulator", "sensor", "fusion", "render", "grid", "cli")


def per_layer(workload: str, inputs: Path, untraced_scan_s: float, run_command, commands,
              work: Path) -> tuple[dict, object]:
    """Trace one full command and make the per-layer metrics from it.

    Per-scan figures cover scans 1 .. n-1 (see ``Tracer.summary``), which is
    the work that full - single measures in the untraced runs; the tracing
    overhead is the traced time per scan minus ``untraced_scan_s``.  Returns
    the metrics and the traced command.
    """
    prefix = [sys.executable, str(Path(__file__).resolve()), str(work / "trace.json")]
    full = run_command(commands(workload, inputs, prefix)[1], work / "traced")
    if full.returncode != 0:
        raise RuntimeError(f"traced command failed: {full.stderr.strip()}")
    tr = json.loads((work / "trace.json").read_text())
    n = tr["scans"] - 1

    def per_scan_ms(key: str, section: str = "scan_inclusive_s") -> float:
        return 1000.0 * tr[section].get(key, 0.0) / n

    def per_call_ms(key: str) -> float:
        return 1000.0 * tr["run_inclusive_s"].get(key, 0.0) / max(tr["calls"].get(key, 0), 1)

    layer_self = {f"{layer}.self_ms": per_scan_ms(layer, "scan_layer_self_s")
                  for layer in PER_SCAN_LAYERS}
    # replay has no simulator: its scans are built from the log records
    source = "simulator.simulate_scan" if workload.startswith("intersection") \
        else "sensor.LidarScan"
    counts = {key: value / n for key, value in tr["scan_counts"].items()}
    values = {
        "map_ingest.load_map_ms": 1000.0 * tr["run_inclusive_s"]["map_ingest.load_map"],
        "map_ingest.rasterize_gg_ms": 1000.0 * tr["run_inclusive_s"]["map_ingest.rasterize_gg"],
        "map_ingest.cell_polygon_tests": tr["counts"]["map_ingest.cell_polygon_tests"],
        "simulator.simulate_scan_ms": per_scan_ms(source),
        "simulator.beam_segment_tests": counts.get("simulator.beam_segment_tests", 0),
        "simulator.replay_self_ms": per_scan_ms("simulator.epoch", "scan_self_s"),
        "simulator.epoch_stats_ms": per_scan_ms("simulator.epoch_stats"),
        "sensor.build_sg_ms": per_scan_ms("sensor.build_sg"),
        "sensor.ray_cells": counts["sensor.ray_cells"],
        "fusion.step_with_conflicts_ms": per_scan_ms("fusion.step_with_conflicts"),
        "fusion.cells": counts["fusion.cells"],
        "fusion.focal_sets_in_use": tr["counts"]["fusion.focal_sets_in_use"],
        "fusion.pignistic_grid_calls": counts["fusion.pignistic_grid_calls"],
        "fusion.pignistic_grid_ms": per_scan_ms("fusion.pignistic_grid"),
        "render.images_ms": per_scan_ms("render.images"),
        "render.write_ppm_ms": per_call_ms("render.write_ppm"),
        "render.pixels_written": counts.get("render.pixels_written", 0),
        "grid.write_grid_csv_ms": per_call_ms("grid.write_grid_csv"),
        "grid.csv_rows": tr["counts"]["grid.csv_rows"],
        **layer_self,
        "cli.setup_self_ms": 1000.0 * tr["setup_self_s"],
        "cli.rss_before_first_scan_mb": tr["values"]["cli.rss_before_first_scan_mb"],
        "trace.overhead_ms": 1000.0 * (tr["window_s"] / n - untraced_scan_s),
        "trace.untraced_scan_ms": 1000.0 * untraced_scan_s,
    }
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}, full


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))

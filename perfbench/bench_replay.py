"""Traced replay of the CLI operations, layer by layer, and the per-layer metrics.

The replay calls the public functions of each ``crossrisk`` module in the
order the CLI calls them and records a span around each call.  Its outputs
must equal the untraced CLI's, so a replay that has drifted from the CLI
fails the run instead of timing something else.  Spans live in memory and
are returned once, at the end.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bench_harness import COMMANDS, CONFIG, Ledger, Measurement, Op, SpeedClock, Workload
from crossrisk import io as crio
from crossrisk.danger import danger_series, decisions_from_series
from crossrisk.fusion import (
    CAMERA_AW,
    CAMERA_DRONE,
    RSU,
    SENSOR_IDS,
    TRACKER,
    SensorSet,
    fuse_all,
)
from crossrisk.kinematics import differentiate
from crossrisk.metrics import EVALUATION_SOURCES, InsufficientDataError, evaluate_source
from crossrisk.simulate import generate_run, load_scenario
from crossrisk.timeseries import align, smooth_trailing

# name -> unit of every per-layer metric, in the order they are printed
PER_LAYER_UNITS = {
    "io.read_sensor_csv.s": "s",
    "io.read_sensor_csv.us_per_row": "us",
    "io.read_sensor_csv.rows": "count",
    "io.write_fused_csv.s": "s",
    "io.write_fused_csv.us_per_row": "us",
    "io.write_fused_csv.bytes": "bytes",
    "io.write_fused_csv.rows": "count",
    "io.write_sensor_csv.s": "s",
    "io.read_csv_columns.s": "s",
    "io.write_plot_csv.s": "s",
    "io.write_plot_csv.rows": "count",
    "io.reports_to_json.s": "s",
    "timeseries.smooth_trailing.s": "s",
    "timeseries.align.s": "s",
    "timeseries.grid_points": "count",
    "kinematics.differentiate.s": "s",
    "fusion.SensorSet.s": "s",
    "fusion.fuse_all.s": "s",
    "danger.danger_series.s": "s",
    "danger.decisions_from_series.s": "s",
    "danger.unknown_share": "ratio",
    "metrics.evaluate_source.s": "s",
    "metrics.evaluate_source.calls": "count",
    "metrics.evaluated_share": "ratio",
    "simulate.generate_run.s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.span_coverage": "ratio",
}

SPAN_CALIBRATION_CALLS = 20000


class Tracer:
    """Collects spans (name, start, end, parent, op id, attributes) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        attrs: dict = {}
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "attrs": attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def span_cost_s() -> float:
    """Seconds one empty span costs, measured on a throwaway tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(SPAN_CALIBRATION_CALLS):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) / SPAN_CALIBRATION_CALLS


def _ingest(tr: Tracer, path: Path) -> SensorSet:
    """``cli._ingest``: read, then ``sensor_set_from_streams`` call by call."""
    with tr.span("io.read_sensor_csv") as a:
        streams = crio.read_sensor_csv(path)
        a["rows"] = len(streams[RSU])
    windows = {
        RSU: CONFIG.smooth_window_rsu,
        CAMERA_AW: CONFIG.smooth_window_camera,
        CAMERA_DRONE: CONFIG.smooth_window_camera,
        TRACKER: 1,
    }
    order = [s for s in (*SENSOR_IDS, TRACKER) if s in streams]
    smoothed = []
    for s in order:
        if windows[s] > 1:
            with tr.span("timeseries.smooth_trailing"):
                smoothed.append(smooth_trailing(streams[s], windows[s]))
        else:
            smoothed.append(streams[s])
    with tr.span("timeseries.align") as a:
        grid, aligned = align(smoothed, CONFIG.resample_hz, max_gap=CONFIG.max_gap_s)
        a["grid_points"] = grid.count
    tracks = {}
    for s, series in zip(order, aligned):
        with tr.span("kinematics.differentiate"):
            tracks[s] = differentiate(series, grid, smooth_window=CONFIG.smooth_window_derivative)
    with tr.span("fusion.SensorSet"):
        return SensorSet(grid, tracks)


def _fuse_all(tr: Tracer, sensors: SensorSet):
    with tr.span("fusion.fuse_all"):
        return fuse_all(
            sensors, CONFIG.danger, derivative_smooth_window=CONFIG.smooth_window_derivative
        )


def _danger_series(tr: Tracer, track):
    with tr.span("danger.danger_series"):
        return danger_series(track, CONFIG.danger)


def _decisions(tr: Tracer, g):
    with tr.span("danger.decisions_from_series"):
        return decisions_from_series(g, CONFIG.danger)


def replay_fuse(tr: Tracer, op: Op) -> None:
    """``cli.cmd_fuse`` with its one-worker pool: ``_fuse_one`` per input, in order."""
    for path, out in zip(op.inputs, op.outputs):
        sensors = _ingest(tr, path)
        trace = _fuse_all(tr, sensors)
        sensor_g = {sid: _danger_series(tr, track) for sid, track in sensors.tracks.items()}
        with tr.span("io.write_fused_csv") as a:
            crio.write_fused_csv(out, trace, sensor_g)
            a["rows"] = trace.grid.count
        a["bytes"] = out.stat().st_size
        fusable = [g.values for sid, g in sensor_g.items() if sid != TRACKER]
        a["unknown_share"] = float(np.isnan(np.vstack(fusable)).mean())


def _evaluate_one(tr: Tracer, path: Path) -> dict:
    sensors = _ingest(tr, path)
    trace = _fuse_all(tr, sensors)
    truth_g = _danger_series(tr, sensors.tracker())
    truth = _decisions(tr, truth_g)
    candidates = {}
    for sid, track in sensors.fusable().items():
        g = _danger_series(tr, track)
        candidates[sid] = (g, _decisions(tr, g))
    candidates["distance_fusion"] = (trace.g_distance_fusion, trace.decision_distance)
    candidates["danger_fusion"] = (trace.g_danger_fusion, trace.decision_danger)
    candidates["voting_fusion"] = (None, trace.decision_vote)
    reports = {}
    for source in EVALUATION_SOURCES:
        if source not in candidates:
            continue
        g, decisions = candidates[source]
        with tr.span("metrics.evaluate_source") as a:
            try:
                reports[source] = evaluate_source(
                    g, decisions, truth_g, truth, CONFIG.unknown_as_safe
                )
            except InsufficientDataError:
                reports[source] = None
        if reports[source] is not None:
            a["evaluated"] = reports[source].evaluated_points
            a["excluded"] = reports[source].excluded_points
    return reports


def replay_evaluate(tr: Tracer, op: Op) -> str:
    """``cli.cmd_evaluate --json``; returns what the CLI prints."""
    results = [_evaluate_one(tr, path) for path in op.inputs]
    with tr.span("io.reports_to_json"):
        if len(results) == 1:
            return crio.reports_to_json(results[0])
        payload = [
            {
                "input": str(path),
                "reports": [
                    crio.report_to_dict(source, reports[source])
                    for source in EVALUATION_SOURCES
                    if source in reports
                ],
            }
            for path, reports in zip(op.inputs, results)
        ]
        return json.dumps(payload, indent=2) + "\n"


def replay_ingest(tr: Tracer, op: Op) -> None:
    _ingest(tr, op.inputs[0])


def replay_simulate(tr: Tracer, op: Op) -> None:
    scenario_path, output = op.argv[1], op.argv[2]
    with tr.span("simulate.load_scenario"):
        scenario, models = load_scenario(scenario_path)
        scenario = dataclasses.replace(scenario, seed=int(op.argv[4]))
    with tr.span("simulate.generate_run"):
        run = generate_run(scenario, models, run_config=CONFIG)
    with tr.span("io.write_sensor_csv"):
        crio.write_sensor_csv(output, run.raw_streams)


def replay_plotdata(tr: Tracer, op: Op) -> None:
    with tr.span("io.read_csv_columns"):
        header, columns = crio.read_csv_columns(op.inputs[0])
    with tr.span("io.write_plot_csv") as a:
        crio.write_plot_csv(op.outputs[0], header, columns, threshold=CONFIG.danger.threshold)
    with open(op.outputs[0], "rb") as fh:
        a["rows"] = sum(1 for _ in fh) - 1


REPLAYS = {
    "fuse": replay_fuse,
    "evaluate": replay_evaluate,
    "ingest": replay_ingest,
    "simulate": replay_simulate,
    "plotdata": replay_plotdata,
}


@dataclasses.dataclass
class Replay:
    """What the traced phase recorded."""

    spans: list[dict]
    ops: list[dict]  # op id, command, reference and wall seconds
    rounds: int
    span_cost_s: float


def replay(workload: Workload, ledger: Ledger, seconds: float) -> Replay:
    """Replay whole repetitions, traced, for ``seconds`` (at least one)."""
    tracer = Tracer()
    clock = SpeedClock()
    ops: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in workload.round_ops(rounds):
            for path in op.outputs:
                path.unlink(missing_ok=True)
            tracer.op_id = len(ops)
            clock.ready()
            t0 = time.perf_counter()
            with tracer.span(f"cli.{op.command}"):
                stdout = REPLAYS[op.command](tracer, op)
            wall = time.perf_counter() - t0
            ops.append(
                {"op": tracer.op_id, "command": op.command, "s": clock.scale(wall), "wall": wall}
            )
            ledger.record(op, 0, stdout)
        rounds += 1
    return Replay(tracer.spans, ops, rounds, clock.now(span_cost_s()))


def per_layer(measured: Measurement, traced: Replay) -> dict[str, dict]:
    """Per-layer metrics: median per op of each layer's time, plus counts.

    Span times are scaled to reference seconds by their op's speed factor,
    like the end-to-end times.  Counts come from the first replayed op of
    each command, so they repeat exactly for a given seed.
    """
    commands = {o["op"]: o["command"] for o in traced.ops}
    factor = {o["op"]: o["s"] / o["wall"] for o in traced.ops}
    per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[str, list[dict]] = defaultdict(list)
    covered: dict[int, float] = defaultdict(float)
    span_count: dict[int, int] = defaultdict(int)
    for s in traced.spans:
        span_count[s["op"]] += 1
        if s["parent"] is None:
            continue
        duration = (s["end"] - s["start"]) * factor[s["op"]]
        per_op[s["name"]][s["op"]] += duration
        covered[s["op"]] += duration
        calls[s["name"]].append({**s["attrs"], "s": duration, "op": s["op"]})

    def first_op_calls(name: str) -> list[dict]:
        first = min(c["op"] for c in calls[name])
        return [c for c in calls[name] if c["op"] == first]

    def median_per_op(name: str) -> tuple[float, int]:
        values = list(per_op[name].values())
        return statistics.median(values), len(values)

    def by_command(values: dict[int, float], command: str) -> float:
        return statistics.median(v for op, v in values.items() if commands[op] == command)

    out: dict[str, dict] = {}
    for name in PER_LAYER_UNITS:
        layer = name[:-2]
        if name.endswith(".s") and layer in per_op:
            out[name] = dict(zip(("value", "n"), median_per_op(layer)))
    for layer in ("io.read_sensor_csv", "io.write_fused_csv"):
        per_row = [c["s"] / c["rows"] * 1e6 for c in calls[layer]]
        out[f"{layer}.us_per_row"] = {"value": statistics.median(per_row), "n": len(per_row)}
        out[f"{layer}.rows"] = {"value": first_op_calls(layer)[0]["rows"], "n": 1}
    fused = first_op_calls("io.write_fused_csv")
    out["io.write_fused_csv.bytes"] = {"value": sum(c["bytes"] for c in fused), "n": 1}
    out["danger.unknown_share"] = {
        "value": statistics.mean(c["unknown_share"] for c in fused), "n": 1,
    }
    plot = first_op_calls("io.write_plot_csv")[0]
    out["io.write_plot_csv.rows"] = {"value": plot["rows"], "n": 1}
    grid_points = first_op_calls("timeseries.align")[0]["grid_points"]
    out["timeseries.grid_points"] = {"value": grid_points, "n": 1}
    evaluations = first_op_calls("metrics.evaluate_source")
    out["metrics.evaluate_source.calls"] = {"value": len(evaluations), "n": 1}
    evaluated = sum(c.get("evaluated", 0) for c in evaluations)
    excluded = sum(c.get("excluded", 0) for c in evaluations)
    out["metrics.evaluated_share"] = {"value": evaluated / (evaluated + excluded), "n": 1}

    op_s = {o["op"]: o["s"] for o in traced.ops}
    overhead = {c: measured.median(c) - by_command(op_s, c) for c in COMMANDS}
    out["cli.overhead_s"] = {"value": overhead["fuse"], "n": len(measured.samples["fuse"]),
                             "by_command": overhead}
    untraced_total = sum(measured.median(c) for c in COMMANDS)
    spans_total = sum(by_command(span_count, c) for c in COMMANDS)
    out["trace.overhead_share"] = {
        "value": traced.span_cost_s * spans_total / untraced_total,
        "n": len(traced.ops), "span_cost_s": traced.span_cost_s,
    }
    out["trace.span_coverage"] = {
        "value": sum(by_command(covered, c) for c in COMMANDS) / untraced_total,
        "n": len(traced.ops),
    }
    for name, unit in PER_LAYER_UNITS.items():
        out[name]["unit"] = unit
    return {name: out[name] for name in PER_LAYER_UNITS}

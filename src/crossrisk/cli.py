"""Command-line surface: simulate, ingest, fuse, evaluate, plotdata.

Exit codes: 0 success, 1 usage error, 2 data/input error, 3 internal
error.  All commands are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import io as crio
from .config import RunConfig, load_run_config
from .fusion import fuse_all, sensor_set_from_streams
from .metrics import EVALUATION_SOURCES, evaluate_run
from .simulate import generate_run, load_scenario
from .timeseries import EmptyOverlapError

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrisk",
        description="Road-crossing risk assessment from multi-sensor distance recordings.",
    )
    parser.add_argument("--config", metavar="PATH", help="pipeline config JSON file")
    parser.add_argument(
        "--threshold", type=float, metavar="REAL", help="override the danger threshold"
    )
    parser.add_argument(
        "--resample-hz", type=float, metavar="REAL", help="override the resampling rate"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sensor recording")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("output", help="sensor CSV to write")
    p.add_argument("--seed", type=int, metavar="INT", help="override the scenario seed")

    p = sub.add_parser("ingest", help="validate a recording and summarize availability")
    p.add_argument("input", help="sensor CSV file")

    p = sub.add_parser("fuse", help="run the fusion pipeline, write a decision trace")
    p.add_argument("inputs", nargs="+", help="sensor CSV file(s)")
    p.add_argument("output", help="trace CSV to write (directory for multiple inputs)")

    p = sub.add_parser("evaluate", help="score sensors and fusions against the tracker")
    p.add_argument("inputs", nargs="+", help="sensor CSV file(s) with a tracker column")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p = sub.add_parser("plotdata", help="melt a trace into long-format plot rows")
    p.add_argument("input", help="fused-trace CSV or sensor CSV")
    p.add_argument("output", help="long-format CSV to write")

    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    if args.threshold is not None:
        config = dataclasses.replace(
            config, danger=dataclasses.replace(config.danger, threshold=args.threshold)
        )
    if args.resample_hz is not None:
        config = dataclasses.replace(config, resample_hz=args.resample_hz)
    return config


def _ingest(path: str, config: RunConfig):
    try:
        return sensor_set_from_streams(
            crio.read_sensor_csv(path),
            resample_hz=config.resample_hz,
            smooth_window_rsu=config.smooth_window_rsu,
            smooth_window_camera=config.smooth_window_camera,
            derivative_smooth_window=config.smooth_window_derivative,
            max_gap=config.max_gap_s,
        )
    except ValueError as exc:  # name the input: with several, it says which one failed
        raise ValueError(f"{path}: {exc}") from exc


def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    sensors = _ingest(args.input, config)
    grid = sensors.grid
    print(f"grid: start={grid.start:.6f} s, rate={grid.rate_hz:g} Hz, points={grid.count}")
    for sensor_id, track in sensors.tracks.items():
        present = np.count_nonzero(~np.isnan(track.distance))
        print(f"{sensor_id:<13} {present}/{grid.count} distance points present")
    if sensors.tracker() is None:
        print("tracker: absent (fuse-only recording)", file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace, config: RunConfig) -> int:
    scenario, models = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    run = generate_run(scenario, models, run_config=config)
    crio.write_sensor_csv(args.output, run.raw_streams)
    return 0


def _fuse_one(path: str, output: Path, config: RunConfig) -> None:
    sensors = _ingest(path, config)
    if sensors.tracker() is None:
        print(
            f"warning: {path}: no tracker column; evaluation disabled for this trace",
            file=sys.stderr,
        )
    trace = fuse_all(
        sensors, config.danger, derivative_smooth_window=config.smooth_window_derivative
    )
    crio.write_fused_csv(output, trace, trace.sensor_g)


def cmd_fuse(args: argparse.Namespace, config: RunConfig) -> int:
    out = Path(args.output)
    if len(args.inputs) > 1:
        stems = [Path(p).stem for p in args.inputs]
        clashing = [p for p, stem in zip(args.inputs, stems) if stems.count(stem) > 1]
        if clashing:
            print(
                f"error: inputs {', '.join(clashing)} share a file stem, so their "
                f"fused traces in {out} would overwrite each other",
                file=sys.stderr,
            )
            return USAGE_ERROR
        out.mkdir(parents=True, exist_ok=True)
        targets = [out / f"{stem}_fused.csv" for stem in stems]
    else:
        targets = [out]
    for path, target in zip(args.inputs, targets):
        _fuse_one(path, target, config)
    return 0


def _evaluate_one(path: str, config: RunConfig) -> dict:
    sensors = _ingest(path, config)
    if sensors.tracker() is None:
        raise crio.SensorCsvError(f"{path}: no tracker column, cannot evaluate")
    trace = fuse_all(
        sensors, config.danger, derivative_smooth_window=config.smooth_window_derivative
    )
    return evaluate_run(trace, config.unknown_as_safe)


def cmd_evaluate(args: argparse.Namespace, config: RunConfig) -> int:
    results = [_evaluate_one(path, config) for path in args.inputs]
    if args.json:
        if len(results) == 1:
            sys.stdout.write(crio.reports_to_json(results[0]))
        else:
            payload = [
                {
                    "input": path,
                    "reports": [
                        crio.report_to_dict(source, reports[source])
                        for source in EVALUATION_SOURCES
                        if source in reports
                    ],
                }
                for path, reports in zip(args.inputs, results)
            ]
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for i, (path, reports) in enumerate(zip(args.inputs, results)):
            if len(results) > 1:
                if i:
                    print()
                print(f"== {path} ==")
            sys.stdout.write(crio.reports_to_table(reports))
    return 0


def cmd_plotdata(args: argparse.Namespace, config: RunConfig) -> int:
    header, columns = crio.read_csv_columns(args.input)
    crio.write_plot_csv(args.output, header, columns, threshold=config.danger.threshold)
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "simulate": cmd_simulate,
    "fuse": cmd_fuse,
    "evaluate": cmd_evaluate,
    "plotdata": cmd_plotdata,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        config = _effective_config(args)
        return _HANDLERS[args.command](args, config)
    except (
        FileNotFoundError,
        IsADirectoryError,
        crio.SensorCsvError,
        EmptyOverlapError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

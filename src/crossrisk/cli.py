"""Command-line surface: simulate, ingest, fuse, evaluate, plotdata.

Exit codes: 0 success, 1 usage error, 2 data/input error, 3 internal
error.  All commands are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import io as crio
from .config import RunConfig, load_run_config
from .fusion import TRACKER, _sensor_set, _sensor_set_keywords, _smoothed_rows, fuse_all
from .fusion import sensor_set_from_streams
from .metrics import evaluate_run
from .simulate import load_scenario, simulate_recording
from .timeseries import _aligned, _placed, _spanning_grid

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3


@functools.cache  # built on the first call, then reused: no parse leaves state in it
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


_DEFAULT_CONFIG = RunConfig()  # frozen: an override below builds a new record


def _effective_config(args: argparse.Namespace) -> RunConfig:
    config = load_run_config(args.config) if args.config else _DEFAULT_CONFIG
    if args.threshold is not None:
        config = dataclasses.replace(
            config, danger=dataclasses.replace(config.danger, threshold=args.threshold)
        )
    if args.resample_hz is not None:
        config = dataclasses.replace(config, resample_hz=args.resample_hz)
    return config


def _named(name: str, step, *args, **kwargs):
    """``step(*args, **kwargs)``; a ValueError from it (an overflow, say) begins with ``name``."""
    try:
        return step(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _ingest(path: str, config: RunConfig):
    return sensor_set_from_streams(crio.read_sensor_csv(path), **_sensor_set_keywords(config))


def _ingest_counts(streams, config: RunConfig):
    """The grid, the ids and each sensor's count of present grid distances in ``_ingest``'s
    sensor set of ``streams``, raising its every data error in its order; while R, the largest
    present |smoothed reading|, is below a bound, with no reading put on the grid.  A grid
    distance is a reading or a convex combination of two, whose four roundings stay below a
    factor 2: |grid distance| ≤ D = 2R.  With r the rate and w the derivative window, a
    difference of distances is at most 2D, a speed 2Dr, a difference of speeds 4Dr, an
    acceleration 4Dr² and a trailing sum w times that; rounding, along at most
    ``MAX_GRID_POINTS`` + 4 steps and in the bound's divisions, adds less than a factor 2.  So
    nothing overflows while 16wR·max(1, r²) ≤ DBL_MAX, and each count is of the instants that
    a sensor's readings snap or bridge; past it the frame is built, differentiated and checked.
    """
    ids, rows = _smoothed_rows(streams, config.smooth_window_rsu, config.smooth_window_camera)
    window, rate, max_gap = config.smooth_window_derivative, config.resample_hz, config.max_gap_s
    largest = max((np.fmax.reduce(np.abs(values), initial=0.0) for _, values in rows), default=0)
    if largest <= sys.float_info.max / 16 / window / max(1.0, rate) / max(1.0, rate):
        grid = _spanning_grid(rows, rate, max_gap)
        return grid, ids, [_placed(times, values, grid, max_gap) for times, values in rows]
    sensors = _sensor_set(ids, *_aligned(rows, rate, max_gap), window)
    return sensors.grid, ids, np.count_nonzero(~np.isnan(sensors.distance), axis=1)


def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    streams = _named(args.input, crio.read_sensor_csv, args.input)
    grid, ids, counts = _named(args.input, _ingest_counts, streams, config)
    print(f"grid: start={grid.start:.6f} s, rate={grid.rate_hz:g} Hz, points={grid.count}")
    for sensor_id, count in zip(ids, counts):
        print(f"{sensor_id:<13} {count}/{grid.count} distance points present")
    if TRACKER not in ids:
        print("tracker: absent (fuse-only recording)", file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace, config: RunConfig) -> int:
    scenario, models = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    # a ValueError of the scenario's motion or sampling names the scenario file
    recording = _named(args.scenario, simulate_recording, scenario, models)
    _named(args.scenario, crio.write_sensor_csv, args.output, recording)
    return 0


def _workers(jobs: int) -> int:
    """Processes to run ``jobs`` on: one per usable CPU at most, and only this one for one
    job, with one usable CPU or where the platform cannot fork (Windows, for one)."""
    if jobs == 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # e.g. macOS: the CPUs of the machine, not those this process may use
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


def _run_inputs(work, jobs: list[tuple], commit) -> None:
    """Call ``commit(work(*job))`` for each job, in job order, on ``_workers(len(jobs))``.

    A job's ValueError begins with the job's first item, its input's path.
    One worker is this process: the jobs run one after another.  More are
    forked processes, and ``commit`` still sees their results in job order.
    The first exception in job order propagates once the queued jobs are
    cancelled and the running ones have finished, so no later job is committed.
    """
    named = [(job[0], work, *job) for job in jobs]
    workers = _workers(len(jobs))
    if workers == 1:
        for job in named:
            commit(_named(*job))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked child flushes the stdio buffers it inherited when it exits: empty them first
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        for result in pool.map(_named, *zip(*named)):
            commit(result)
    finally:
        pool.shutdown(cancel_futures=True)


def _fuse(sensors, config: RunConfig):
    """``fuse_all`` at the run's settings."""
    return fuse_all(
        sensors, config.danger, derivative_smooth_window=config.smooth_window_derivative
    )


def _fuse_one(path: str, output: Path, config: RunConfig) -> list[str]:
    """Write the trace of ``path`` to ``output``; returns the warnings about ``path``."""
    sensors = _ingest(path, config)
    warnings = []
    if TRACKER not in sensors.ids:
        warnings.append(f"warning: {path}: no tracker column; evaluation disabled for this trace")
    trace = _fuse(sensors, config)
    crio.write_fused_csv(output, trace, trace.sensor_g)
    return warnings


def cmd_fuse(args: argparse.Namespace, config: RunConfig) -> int:
    out = Path(args.output)
    targets, parts = [out], []  # one input writes its target directly
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
        targets = [out / f"{stem}_fused.csv" for stem in stems]
        clobbered = [
            (source, target, path)
            for source, target in zip(args.inputs, targets)
            for path in args.inputs
            if _same_file(path, target)
        ]
        if clobbered:  # checked before any input is read, as workers read them in no fixed order
            print(
                "error: the fused trace of %s, %s, would overwrite the input %s" % clobbered[0],
                file=sys.stderr,
            )
            return USAGE_ERROR
        out.mkdir(parents=True, exist_ok=True)
        # each trace goes to a part beside its target's real path, and the part is renamed over
        # the target in input order, whether a worker or this process wrote it
        parts = [
            Path(os.path.realpath(target)).with_name(f".{target.name}.{os.getpid()}.part")
            for target in targets
        ]
    uncommitted = zip(parts, targets)

    def commit(warnings: list[str]) -> None:
        for warning in warnings:
            print(warning, file=sys.stderr)
        if parts:
            crio._move_over(*next(uncommitted))

    jobs = [(path, output, config) for path, output in zip(args.inputs, parts or targets)]
    try:
        _run_inputs(_fuse_one, jobs, commit)
    except OSError as exc:  # a write names its part: name the part's target instead
        names = {str(part): str(target) for part, target in zip(parts, targets)}
        if str(exc.filename) not in names:
            raise
        raise type(exc)(exc.errno, exc.strerror, names[str(exc.filename)]) from None
    finally:  # the parts of the inputs after a failing one
        for part in parts:
            part.unlink(missing_ok=True)
    return 0


def _same_file(a: str | Path, b: str | Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return False


def _evaluate_one(path: str, config: RunConfig) -> dict:
    sensors = _ingest(path, config)
    if TRACKER not in sensors.ids:
        raise crio.SensorCsvError("no tracker column, cannot evaluate")
    return evaluate_run(_fuse(sensors, config), config.unknown_as_safe)


def cmd_evaluate(args: argparse.Namespace, config: RunConfig) -> int:
    """Print the reports of every input; on a failing input, those finished before it."""
    results = []
    jobs = [(path, config) for path in args.inputs]
    try:
        _run_inputs(_evaluate_one, jobs, results.append)
    finally:
        if results and args.json and len(args.inputs) == 1:
            sys.stdout.write(crio.reports_to_json(results[0]))
        elif results and args.json:
            inputs = zip(args.inputs, results)
            payload = [{"input": path, "reports": crio.report_rows(r)} for path, r in inputs]
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        else:
            for i, (path, reports) in enumerate(zip(args.inputs, results)):
                if len(args.inputs) > 1:
                    if i:
                        print()
                    print(f"== {path} ==")
                sys.stdout.write(crio.reports_to_table(reports))
    return 0


def cmd_plotdata(args: argparse.Namespace, config: RunConfig) -> int:
    _named(args.input, crio.plot_csv, args.input, args.output, threshold=config.danger.threshold)
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
        status = _HANDLERS[args.command](args, _effective_config(args))
        sys.stdout.flush()  # a reader that closed the pipe shows here, not in the flush at exit
        return status
    except BrokenPipeError:  # the reader stopped early; point stdout elsewhere for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:  # SensorCsvError among them
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

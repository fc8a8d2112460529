"""Workloads, timed CLI operations and output checks of the crossrisk benchmark.

Every operation is one in-process ``crossrisk.cli.main([...])`` call.  The
ledger counts each one as attempted and marks it failed when it exits
non-zero or when one of its output checks fails:

* every repetition of an operation must give the bytes of its first run;
* the first fused trace of each input must match ``fuse_all`` and
  ``danger_series`` from the library to 1e-6, with equal decisions;
* the first ``evaluate --json`` of each input must equal
  ``report_to_dict`` over ``evaluate_source``, and its truth must hold
  both Safe and Dangerous instants, so precision and recall are measured;
* ``simulate`` must reproduce the recording it generated during set-up;
* the golden scenario, run once per set-up, must give the bytes of
  ``tests/golden/fused.csv`` and ``tests/golden/report.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from crossrisk import cli  # noqa: E402
from crossrisk import io as crio  # noqa: E402
from crossrisk.config import RunConfig  # noqa: E402
from crossrisk.danger import Decision, danger_series, decisions_from_series  # noqa: E402
from crossrisk.fusion import (  # noqa: E402
    CAMERA_AW,
    CAMERA_DRONE,
    RSU,
    TRACKER,
    fuse_all,
    sensor_set_from_streams,
)
from crossrisk.metrics import (  # noqa: E402
    EVALUATION_SOURCES,
    InsufficientDataError,
    evaluate_source,
)

GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_SCENARIO = GOLDEN_DIR / "braking_scenario.json"
COMMANDS = ("fuse", "evaluate", "ingest", "simulate", "plotdata")
SETUP_REPETITIONS = 3
TOLERANCE = 1e-6
CONFIG = RunConfig()  # the CLI ops run without --config, so with these defaults

# Tail percentiles tried from the top; a percentile qualifies when at least
# ten samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

LONG_DURATION_S = {"full": 600.0, "tiny": 30.0}
POOL_SIZE = {"full": 16, "tiny": 2}
MULTI_FILES = 4
BURSTS = 15

# The speed probe's job and its time at the reference speed, about what it
# takes on an unloaded 2-vCPU Xeon VM (see SpeedClock).
REFERENCE_JOB_S = 0.0006
PROBE_FRESH_S = 0.05
_REFERENCE_VALUES = np.linspace(0.5, 9.5, 900)


@dataclass(frozen=True)
class Recording:
    """One input recording: written by ``simulate <scenario> --seed <seed>``."""

    stem: str
    scenario: Path
    seed: int


@dataclass(frozen=True)
class Op:
    """One CLI call.  Ops with equal ``key`` must give identical outputs."""

    command: str
    argv: tuple[str, ...]
    key: str
    inputs: tuple[Path, ...] = ()
    outputs: tuple[Path, ...] = ()


def burst_scenario(duration: float) -> dict:
    """Stop-and-go approach from 5 m to 0.2 m, cameras at unlimited range.

    Fifteen bursts (0.4 s at +2 m/s², 0.4 s at -2 m/s²) each cover 0.32 m;
    the last several happen inside the danger zone (< 2.1 m), so the truth
    has Dangerous instants, while the long stops between bursts are Safe.
    Unlimited camera range keeps every column dense.
    """
    cycle = duration / BURSTS
    segments = []
    for _ in range(BURSTS):
        segments += [[0.4, 2.0], [0.4, -2.0], [cycle - 0.8, 0.0]]
    segments[-1][0] += 1.0  # cover the duration despite rounding
    return {
        "duration": duration,
        "initial_distance": 5.0,
        "initial_speed": 0.0,
        "segments": segments,
        "sensors": {
            CAMERA_AW: {"detection_range": None},
            CAMERA_DRONE: {"detection_range": None},
        },
    }


class Workload:
    """A named set of recordings and the ops of one repetition over them."""

    def __init__(self, name: str, seed: int, size: str, work: Path):
        self.work = work
        self.inputs_dir = work / "inputs"
        self.out_dir = work / "out"
        long_scenario = work / "long_scenario.json"
        if name == "long-recording":
            self.scenarios = {long_scenario: burst_scenario(LONG_DURATION_S[size])}
            self.recordings = [Recording("long", long_scenario, seed)]
        elif name == "many-short":
            self.scenarios = {}
            self.recordings = [
                Recording(f"short-{i:02d}", GOLDEN_SCENARIO, seed * 1000 + i)
                for i in range(POOL_SIZE[size])
            ]
        elif name == "multi-file":
            self.scenarios = {long_scenario: burst_scenario(LONG_DURATION_S[size])}
            self.recordings = [
                Recording(f"run-{'abcd'[i]}", long_scenario, seed * 1000 + i)
                for i in range(MULTI_FILES)
            ]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.multi_input = name == "multi-file"

    def input_path(self, rec: Recording) -> Path:
        return self.inputs_dir / f"{rec.stem}.csv"

    def setup_ops(self) -> list[Op]:
        """Generate every recording, then warm each command up on the golden scenario."""
        ops = [
            Op(
                "simulate",
                ("simulate", str(rec.scenario), str(self.input_path(rec)), "--seed", str(rec.seed)),
                f"generate:{rec.stem}",
                outputs=(self.input_path(rec),),
            )
            for rec in self.recordings
        ]
        warm = self.work / "warmup"
        sensors, fused, plot = warm / "sensors.csv", warm / "fused.csv", warm / "plot.csv"
        ops += [
            Op("simulate", ("simulate", str(GOLDEN_SCENARIO), str(sensors)), "golden:simulate",
               outputs=(sensors,)),
            Op("fuse", ("fuse", str(sensors), str(fused)), "golden:fuse", (sensors,), (fused,)),
            Op("evaluate", ("evaluate", "--json", str(sensors)), "golden:evaluate", (sensors,)),
            Op("ingest", ("ingest", str(sensors)), "golden:ingest", (sensors,)),
            Op("plotdata", ("plotdata", str(fused), str(plot)), "golden:plotdata",
               (fused,), (plot,)),
        ]
        return ops

    def round_ops(self, r: int) -> list[Op]:
        """The five commands of repetition ``r``; single-input ops rotate over the recordings."""
        rec = self.recordings[r % len(self.recordings)]
        inp = self.input_path(rec)
        if self.multi_input:
            ins = tuple(self.input_path(x) for x in self.recordings)
            fused_dir = self.out_dir / "fused"
            fused_all = tuple(fused_dir / f"{x.stem}_fused.csv" for x in self.recordings)
            fuse = Op("fuse", ("fuse", *map(str, ins), str(fused_dir)), "fuse", ins, fused_all)
            evaluate = Op("evaluate", ("evaluate", "--json", *map(str, ins)), "evaluate", ins)
            fused = fused_all[r % len(self.recordings)]
        else:
            fused = self.out_dir / f"{rec.stem}_fused.csv"
            fuse = Op("fuse", ("fuse", str(inp), str(fused)), f"fuse:{rec.stem}", (inp,), (fused,))
            evaluate = Op(
                "evaluate", ("evaluate", "--json", str(inp)), f"evaluate:{rec.stem}", (inp,)
            )
        simulated = self.out_dir / f"{rec.stem}_simulated.csv"
        plot = self.out_dir / f"{rec.stem}_plot.csv"
        return [
            fuse,
            evaluate,
            Op("ingest", ("ingest", str(inp)), f"ingest:{rec.stem}", (inp,)),
            Op(
                "simulate",
                ("simulate", str(rec.scenario), str(simulated), "--seed", str(rec.seed)),
                f"simulate:{rec.stem}",
                (inp,),
                (simulated,),
            ),
            Op(
                "plotdata",
                ("plotdata", str(fused), str(plot)),
                f"plotdata:{rec.stem}",
                (fused,),
                (plot,),
            ),
        ]

    def prepare_dirs(self) -> None:
        for d in (self.inputs_dir, self.out_dir / "fused", self.work / "warmup"):
            d.mkdir(parents=True, exist_ok=True)
        for path, scenario in self.scenarios.items():
            path.write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")


def run_op(op: Op) -> tuple[int, float, str, str]:
    """Run one CLI call in-process; returns exit code, seconds, stdout, stderr."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(list(op.argv))
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def _files_digest(paths) -> str | None:
    h = hashlib.sha256()
    for path in paths:
        try:
            h.update(Path(path).read_bytes())
        except FileNotFoundError:
            return None
        h.update(b"\0")
    return h.hexdigest()


class Ledger:
    """Counts attempted and failed ops and runs the output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.truth_counts: dict[str, dict[str, int]] = {}
        self._first_files: dict[str, str] = {}
        self._first_stdout: dict[str, str] = {}
        self._library: dict[Path, tuple] = {}

    def record(self, op: Op, rc: int, stdout: str | None, stderr: str = "") -> None:
        """Count one op; ``stdout=None`` skips the stdout comparison (replayed ops)."""
        self.attempted += 1
        problems = self._check(op, rc, stdout, stderr)
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]

    def _check(self, op: Op, rc: int, stdout: str | None, stderr: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}: {stderr.strip()[-500:]}"]
        files = _files_digest(op.outputs)
        if files is None:
            return ["an output file is missing"]
        if op.key not in self._first_files:
            if stdout is None:
                return ["replayed before its first CLI run"]
            self._first_files[op.key] = files
            self._first_stdout[op.key] = stdout
            return self._first_run_checks(op, stdout)
        if files != self._first_files[op.key]:
            return ["output files differ from the first repetition"]
        if stdout is not None and stdout != self._first_stdout[op.key]:
            return ["stdout differs from the first repetition"]
        return []

    def _first_run_checks(self, op: Op, stdout: str) -> list[str]:
        if op.key == "golden:fuse":
            if op.outputs[0].read_bytes() != (GOLDEN_DIR / "fused.csv").read_bytes():
                return ["fused trace differs from tests/golden/fused.csv"]
        elif op.key == "golden:evaluate":
            if stdout.encode() != (GOLDEN_DIR / "report.json").read_bytes():
                return ["report differs from tests/golden/report.json"]
        elif op.key.startswith("golden:") or op.key.startswith("generate:"):
            return []
        elif op.command == "fuse":
            return [
                p for inp, out in zip(op.inputs, op.outputs) for p in self._check_fused(inp, out)
            ]
        elif op.command == "evaluate":
            return self._check_reports(op.inputs, stdout)
        elif op.command == "simulate":
            if op.outputs[0].read_bytes() != op.inputs[0].read_bytes():
                return ["simulate does not reproduce the set-up recording"]
        return []

    def _library_run(self, path: Path):
        if path not in self._library:
            sensors = sensor_set_from_streams(
                crio.read_sensor_csv(path),
                resample_hz=CONFIG.resample_hz,
                smooth_window_rsu=CONFIG.smooth_window_rsu,
                smooth_window_camera=CONFIG.smooth_window_camera,
                derivative_smooth_window=CONFIG.smooth_window_derivative,
                max_gap=CONFIG.max_gap_s,
            )
            trace = fuse_all(
                sensors, CONFIG.danger, derivative_smooth_window=CONFIG.smooth_window_derivative
            )
            self._library[path] = (sensors, trace)
        return self._library[path]

    def _check_fused(self, inp: Path, out: Path) -> list[str]:
        sensors, trace = self._library_run(inp)
        n = trace.grid.count
        missing = np.full(n, np.nan)
        g = {
            sid: danger_series(track, CONFIG.danger).values
            for sid, track in sensors.tracks.items()
        }
        numeric = {
            "timestamp": trace.grid.times(),
            "g_rsu": g.get(RSU, missing),
            "g_cam_aw": g.get(CAMERA_AW, missing),
            "g_cam_drone": g.get(CAMERA_DRONE, missing),
            "g_tracker": g.get(TRACKER, missing),
            "distance_fused": trace.distance_fused.values,
            "g_distance_fusion": trace.g_distance_fusion.values,
            "g_danger_fusion": trace.g_danger_fusion.values,
            "vote": np.where(trace.votes_cast == 0, np.nan, trace.dangerous_votes),
        }
        labels = {
            "decision_distance": trace.decision_distance,
            "decision_danger": trace.decision_danger,
            "decision_vote": trace.decision_vote,
        }
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header = list(numeric) + list(labels)
        if not rows or rows[0] != header:
            return [f"{out.name}: header is not {','.join(header)}"]
        if len(rows) - 1 != n:
            return [f"{out.name}: {len(rows) - 1} rows, the library gives {n}"]
        columns = list(zip(*rows[1:]))
        problems = []
        for i, (name, expected) in enumerate(numeric.items()):
            got = np.array([math.nan if c == "" else float(c) for c in columns[i]])
            same_missing = np.array_equal(np.isnan(got), np.isnan(expected))
            present = ~np.isnan(expected)
            if not same_missing or np.any(np.abs(got[present] - expected[present]) > TOLERANCE):
                problems.append(f"{out.name}: column {name} differs from the library")
        for i, (name, expected) in enumerate(labels.items(), start=len(numeric)):
            if list(columns[i]) != [str(d) for d in expected]:
                problems.append(f"{out.name}: column {name} differs from the library")
        return problems

    def _expected_reports(self, path: Path) -> tuple[list[dict], list[str]]:
        sensors, trace = self._library_run(path)
        truth_g = danger_series(sensors.tracker(), CONFIG.danger)
        truth = decisions_from_series(truth_g, CONFIG.danger)
        counts = {
            "dangerous": sum(d is Decision.DANGEROUS for d in truth),
            "safe": sum(d is Decision.SAFE for d in truth),
        }
        self.truth_counts[path.stem] = counts
        problems = [
            f"{path.name}: truth has no {label} instants, so precision or recall is defaulted"
            for label, count in counts.items()
            if count == 0
        ]
        candidates = {}
        for sid, track in sensors.fusable().items():
            g = danger_series(track, CONFIG.danger)
            candidates[sid] = (g, decisions_from_series(g, CONFIG.danger))
        candidates["distance_fusion"] = (trace.g_distance_fusion, trace.decision_distance)
        candidates["danger_fusion"] = (trace.g_danger_fusion, trace.decision_danger)
        candidates["voting_fusion"] = (None, trace.decision_vote)
        rows = []
        for source in EVALUATION_SOURCES:
            if source not in candidates:
                continue
            g, decisions = candidates[source]
            try:
                report = evaluate_source(g, decisions, truth_g, truth, CONFIG.unknown_as_safe)
            except InsufficientDataError:
                report = None
            rows.append(crio.report_to_dict(source, report))
        return rows, problems

    def _check_reports(self, inputs: tuple[Path, ...], stdout: str) -> list[str]:
        problems: list[str] = []
        per_input = []
        for path in inputs:
            rows, found = self._expected_reports(path)
            per_input.append(rows)
            problems += found
        if len(inputs) == 1:
            expected = per_input[0]
        else:
            expected = [{"input": str(p), "reports": r} for p, r in zip(inputs, per_input)]
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return problems + ["evaluate --json did not print JSON"]
        if got != expected:
            problems.append("evaluate --json differs from report_to_dict over evaluate_source")
        return problems


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, and its value.

    With fewer than twenty samples no percentile qualifies and the median
    is reported as the tail (percentile 50).
    """
    n = len(samples)
    q = next((q for q in TAIL_LADDER if round(n * (100.0 - q), 6) >= 1000.0), 50.0)
    return q, float(np.percentile(samples, q))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_job() -> float:
    """Format, join and split about 165 kB of CSV text, like the CLI's writers."""
    start = time.perf_counter()
    rows = [
        ",".join([f"{v:.6f}" for v in _REFERENCE_VALUES[i : i + 12]])
        for i in range(0, _REFERENCE_VALUES.size, 12)
    ]
    text = "\n".join(rows * 20)
    sum(len(line) for line in text.split("\n"))
    return time.perf_counter() - start


def speed_probe() -> float:
    """Seconds the reference job takes now: the median of three runs."""
    return statistics.median(_reference_job() for _ in range(3))


class SpeedClock:
    """Converts wall seconds into reference seconds.

    A shared VM's CPU speed drifts by up to 1.7x within seconds, as
    other tenants come and go, which moves every wall time with it.  So
    each timed call sits between two speed probes, runs of a fixed job that
    uses no crossrisk code, and its reference time is its wall time scaled
    by ``REFERENCE_JOB_S`` over the mean of the two probes: the seconds it
    takes on a machine where the job takes ``REFERENCE_JOB_S``.
    """

    def __init__(self) -> None:
        self._probe()

    def _probe(self) -> None:
        self._last = speed_probe()
        self._at = time.perf_counter()

    def ready(self) -> None:
        """Call before a timed call: probes again unless the last probe is fresh."""
        if time.perf_counter() - self._at > PROBE_FRESH_S:
            self._probe()

    def now(self, wall: float) -> float:
        """Reference seconds of ``wall`` at the speed of the last probe."""
        return wall * REFERENCE_JOB_S / self._last

    def scale(self, wall: float) -> float:
        """Reference seconds of a call that just ended, timed between two probes."""
        before = self._last
        self._probe()
        return wall * 2.0 * REFERENCE_JOB_S / (before + self._last)


@dataclass
class Measurement:
    """What the untraced phase measured, in reference and in wall seconds."""

    samples: dict[str, list[float]]
    wall: dict[str, list[float]]
    rounds: int
    setup_runs_s: list[float]
    setup_wall_s: list[float]
    import_s: float
    import_wall_s: float
    peak_rss_mb: float

    def median(self, command: str) -> float:
        return statistics.median(self.samples[command])

    def end_to_end(self) -> dict[str, dict]:
        """Every end-to-end metric: value, unit, sample count and the wall-clock figure."""
        out = {}
        for command in COMMANDS:
            values, wall = self.samples[command], self.wall[command]
            out[f"{command}_s.p50"] = {
                "value": self.median(command), "unit": "s", "n": len(values),
                "wall": statistics.median(wall),
            }
            if command in ("fuse", "evaluate"):
                q, value = tail(values)
                out[f"{command}_s.tail"] = {
                    "value": value, "unit": "s", "n": len(values), "percentile": q,
                    "wall": tail(wall)[1],
                }
        out["setup_s"] = {
            "value": self.import_s + statistics.median(self.setup_runs_s),
            "unit": "s", "n": len(self.setup_runs_s),
            "wall": self.import_wall_s + statistics.median(self.setup_wall_s),
            "import_s": self.import_s, "setup_runs_s": self.setup_runs_s,
        }
        out["peak_rss_mb"] = {"value": self.peak_rss_mb, "unit": "MiB", "n": 1}
        return out


def set_up(
    workload: Workload, ledger: Ledger, clock: SpeedClock
) -> tuple[list[float], list[float]]:
    """Generate the recordings and warm up, several times.

    Returns each run's reference and wall seconds.  Only the ops are timed;
    their outputs are checked after the clock stops.
    """
    workload.prepare_dirs()
    runs, walls = [], []
    for _ in range(SETUP_REPETITIONS):
        results = []
        clock.ready()
        start = time.perf_counter()
        for op in workload.setup_ops():
            rc, _, out, err = run_op(op)
            results.append((op, rc, out, err))
        walls.append(time.perf_counter() - start)
        runs.append(clock.scale(walls[-1]))
        for op, rc, out, err in results:
            ledger.record(op, rc, out, err)
    return runs, walls


def measure(workload: Workload, ledger: Ledger, seconds: float, import_s: float) -> Measurement:
    """Set up, then run whole repetitions of the five commands for ``seconds``."""
    clock = SpeedClock()
    import_ref = clock.now(import_s)
    setup_runs, setup_wall = set_up(workload, ledger, clock)
    samples: dict[str, list[float]] = {c: [] for c in COMMANDS}
    wall: dict[str, list[float]] = {c: [] for c in COMMANDS}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in workload.round_ops(rounds):
            clock.ready()
            rc, elapsed, out, err = run_op(op)
            samples[op.command].append(clock.scale(elapsed))
            wall[op.command].append(elapsed)
            ledger.record(op, rc, out, err)
        rounds += 1
    return Measurement(
        samples, wall, rounds, setup_runs, setup_wall, import_ref, import_s, peak_rss_mib()
    )

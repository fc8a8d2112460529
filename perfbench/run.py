"""End-to-end and per-layer benchmark of the crossrisk CLI.

Run from the root of a checkout (nothing needs building; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload long-recording --seed 1 --seconds 30 --trace 0

One process, no threads of its own.  It imports ``crossrisk.cli``, generates
the workload's recordings from ``--seed`` with ``crossrisk simulate``, warms
every command up on the golden scenario, then runs repetitions of the five
commands (fuse, evaluate, ingest, simulate, plotdata) through
``crossrisk.cli.main`` for ``--seconds``, checking every output.  Times
are in reference seconds, wall time scaled by speed probes taken around
each call (see ``SpeedClock`` and ``README.md``).  With
``--trace 1`` it then replays the same operations layer by layer under a
tracer and reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result (environment,
sample counts, tail percentiles, failures and, when traced, every span) is
written to ``.perfbench/results/``.  Scratch files live in ``.perfbench/``
and are removed at exit.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

WORKLOADS = ("long-recording", "many-short", "multi-file")
REQUIRED_FILES = (
    "src/crossrisk/cli.py",
    "tests/golden/braking_scenario.json",
    "tests/golden/fused.csv",
    "tests/golden/report.json",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured time per run")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def _git_commit(root: Path):
    """The checked-out commit read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(ROOT),
        "recording_seeds": {rec.stem: rec.seed for rec in workload.recordings},
    }


def run_workload(name, seed, seconds, trace, work, import_s=0.0, size="full") -> dict:
    """Measure one workload in ``work``; returns the full result."""
    import bench_harness as bh
    import bench_replay as br

    workload = bh.Workload(name, seed, size, Path(work))
    ledger = bh.Ledger()
    measured = bh.measure(workload, ledger, seconds, import_s)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "environment": environment(workload),
        "repetitions": measured.rounds,
        "end_to_end": measured.end_to_end(),
        "samples": {"reference_s": measured.samples, "wall_s": measured.wall},
    }
    if trace:
        traced = br.replay(workload, ledger, seconds / 2)
        result["per_layer"] = br.per_layer(measured, traced)
        result["replay"] = {"repetitions": traced.rounds, "ops": traced.ops}
        result["spans"] = traced.spans
    result["ops"] = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "ops_failed": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
    }
    result["truth_instants"] = ledger.truth_counts
    return result


def _describe(name: str, m: dict) -> str:
    extra = f"n={m['n']}"
    if "percentile" in m:
        extra = f"p{m['percentile']:g}, " + extra
    if "wall" in m:
        extra += f", wall {m['wall']:.6f} s"
    return f"{name:<32} {m['value']:>14.6f} {m['unit']:<6} ({extra})"


def report_lines(result: dict) -> list[str]:
    env = result["environment"]
    ops = result["ops"]
    lines = [
        f"workload {result['workload']}, seed {result['seed']}: "
        f"{result['repetitions']} repetitions of the five commands",
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu_model']}, commit {env['git_commit'] or 'unknown'}",
    ]
    lines += [_describe(n, m) for n, m in result["end_to_end"].items()]
    lines.append(
        f"{'ops_failed':<32} {ops['ops_failed']:>14.6f} ratio  "
        f"({ops['failed']} failed of {ops['attempted']} attempted)"
    )
    lines += [_describe(n, m) for n, m in result.get("per_layer", {}).items()]
    lines += [f"FAILED {p}" for p in ops["problems"][:20]]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED_FILES if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a crossrisk checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    import bench_harness  # noqa: F401  (imports crossrisk.cli; part of set-up time)

    import_s = time.perf_counter() - PROCESS_START
    scratch = ROOT / ".perfbench"
    (scratch / "results").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=scratch) as work:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, work, import_s=import_s
        )
    out = scratch / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for line in report_lines(result):
        print(line)
    print(f"full result: {out.relative_to(ROOT)}")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    ops = result["ops"]
    print(
        json.dumps(
            {
                "correct": ops["failed"] == 0,
                "attempted": ops["attempted"],
                "failed": ops["failed"],
                "metrics": {
                    n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

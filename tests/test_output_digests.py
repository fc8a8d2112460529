"""Byte identity of the CLI's outputs on simulated scenarios, pinned as sha256 digests.

``golden/output_digests.json`` holds the digests of the recording that
``simulate`` writes, the trace that ``fuse`` writes, the plot rows that
``plotdata`` melts that trace into and what ``evaluate --json`` prints,
for three scenarios at seeds 1-5, and of ``plotdata`` of the golden
trace ``golden/fused.csv``.  A change that means to alter these bytes
regenerates the file with ``PYTHONPATH=src python
tests/test_output_digests.py`` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from crossrisk.cli import main

DIGESTS = Path(__file__).parent / "golden" / "output_digests.json"
GOLDEN_TRACE = Path(__file__).parent / "golden" / "fused.csv"
GOLDEN = json.loads((Path(__file__).parent / "golden" / "braking_scenario.json").read_text())
UNLIMITED = {"detection_range": None}
SCENARIOS = {
    "golden": GOLDEN,
    "blind-aw-camera": {**GOLDEN, "sensors": {"camera_aw": {"detection_range": 0.01}}},
    "unlimited-range": {**GOLDEN, "sensors": {"camera_aw": UNLIMITED, "camera_drone": UNLIMITED}},
}
SEEDS = range(1, 6)


def output_digests() -> dict[str, str]:
    """``<scenario>/seed<k>/<command>`` -> sha256 of that command's output."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, scenario in SCENARIOS.items():
            for seed in SEEDS:
                files = [Path(tmp) / f"{name}_{seed}{suffix}" for suffix in
                         (".json", ".csv", "_fused.csv", "_plot.csv")]
                files[0].write_text(json.dumps({**scenario, "seed": seed}))
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert main(["simulate", str(files[0]), str(files[1])]) == 0
                    assert main(["fuse", str(files[1]), str(files[2])]) == 0
                    assert main(["plotdata", str(files[2]), str(files[3])]) == 0
                    assert main(["evaluate", "--json", str(files[1])]) == 0
                outputs = {
                    "simulate": files[1].read_bytes(),
                    "fuse": files[2].read_bytes(),
                    "plotdata": files[3].read_bytes(),
                    "evaluate --json": stdout.getvalue().encode(),
                }
                for command, data in outputs.items():
                    digests[f"{name}/seed{seed}/{command}"] = hashlib.sha256(data).hexdigest()
        plot = Path(tmp) / "golden_plot.csv"
        assert main(["plotdata", str(GOLDEN_TRACE), str(plot)]) == 0
        digests["golden-file/plotdata"] = hashlib.sha256(plot.read_bytes()).hexdigest()
    return digests


def test_outputs_match_their_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    got = output_digests()
    assert sorted(got) == sorted(pinned)
    assert [key for key in pinned if got[key] != pinned[key]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(output_digests(), indent=1) + "\n")
    sys.exit(0)

"""Smoke check of the benchmark itself at a tiny size.

One repetition per workload, traced, must report every metric named in
BENCHMARK.json with its unit and no failed operation.  The long-recording
truth must hold both Safe and Dangerous instants, so precision and recall
are measured rather than defaulted.
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_tiny_repetition_reports_every_metric(workload, tmp_path):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True, work=tmp_path, size="tiny")

    assert result["repetitions"] == 1
    assert result["ops"]["problems"] == []
    assert result["ops"]["failed"] == 0 and result["ops"]["attempted"] > 0
    for group in ("end_to_end", "per_layer"):
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {name: m["unit"] for name, m in result[group].items()} == expected

    for counts in result["truth_instants"].values():
        assert counts["dangerous"] > 0 and counts["safe"] > 0
    if workload == "long-recording":
        assert set(result["truth_instants"]) == {"long"}


def test_report_lines_name_every_end_to_end_metric(tmp_path):
    result = run.run_workload(
        "many-short", seed=4, seconds=0, trace=False, work=tmp_path, size="tiny"
    )
    text = "\n".join(run.report_lines(result))
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in text
    assert "ops_failed" in text

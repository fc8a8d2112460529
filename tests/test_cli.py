"""File formats, configuration and the command-line surface."""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import numbers
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossrisk.cli
import crossrisk.danger
import crossrisk.fusion
import crossrisk.io
import crossrisk.simulate
import crossrisk.timeseries
from crossrisk import DangerParams, ScenarioConfig, evaluate_run, fuse_all, sensor_set_from_streams
from crossrisk.cli import _ingest_counts, main
from crossrisk.config import RunConfig, run_config_from_dict
from crossrisk.danger import danger_series
from crossrisk.fusion import _sensor_set_keywords, _smoothed_rows
from crossrisk.kinematics import _derivatives
from crossrisk.io import SensorCsvError, read_sensor_csv, report_to_dict, write_sensor_csv
from crossrisk.metrics import EVALUATION_SOURCES
from crossrisk.timeseries import TimeSeries, _aligned
from crossrisk.simulate import (
    CameraSensorModel,
    RangeSensorModel,
    generate_run,
    load_scenario,
    scenario_from_dict,
)

SCENARIO = {
    "duration": 6.0,
    "initial_distance": 4.0,
    "initial_speed": 0.7,
    "segments": [[2.5, 0.2], [2.0, -0.6], [1.5, 0.0]],
    "seed": 20240517,
}
SCENARIO_TEXT = json.dumps(SCENARIO).encode()
GOLDEN_SCENARIO = Path(__file__).parent / "golden" / "braking_scenario.json"
SENSOR_HEADER = "timestamp,distance_range,distance_wheelchair,distance_drone,distance_tracker\n"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


@pytest.fixture
def sensors_csv(tmp_path, scenario_file):
    path = tmp_path / "sensors.csv"
    assert main(["simulate", str(scenario_file), str(path)]) == 0
    return path


class TestRunConfig:
    def test_defaults_match_reference_preprocessing(self):
        config = RunConfig()
        assert config.resample_hz == 100.0
        assert config.smooth_window_rsu == 2
        assert config.smooth_window_camera == 5
        assert config.max_gap_s == 0.5

    def test_nested_blocks(self):
        config = run_config_from_dict({"resample_hz": 50.0, "danger": {"threshold": 1.5}})
        assert config.resample_hz == 50.0
        assert config.danger.threshold == 1.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="resample_hz_typo"):
            run_config_from_dict({"resample_hz_typo": 10.0})
        with pytest.raises(ValueError, match="gstar"):
            run_config_from_dict({"danger": {"gstar": 2.0}})
        with pytest.raises(ValueError, match="crossing"):
            run_config_from_dict({"crossing": {"road_width": 4.0, "crossing_speed": 0.8}})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _json_fields(*records):
    """JSON objects holding a few of the records' keys, or a typo, with any JSON values."""
    keys = [f.name for record in records for f in dataclasses.fields(record)]
    plausible = st.integers(0, 10) | st.floats(0.0, 20.0) | st.booleans() | st.just(math.inf)
    return st.dictionaries(st.sampled_from(keys + ["typo"]), plausible | JSON_VALUES, max_size=3)


def assert_declared_kinds(record) -> None:
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.type == "float":
            assert isinstance(value, numbers.Real) and not isinstance(value, bool), f.name
            assert math.isfinite(value) or f.name == "detection_range", f.name
            assert not math.isnan(value), f.name
        elif f.type == "int":
            assert isinstance(value, numbers.Integral) and not isinstance(value, bool), f.name
        elif f.type == "bool":
            assert isinstance(value, bool), f.name
        elif f.name == "danger":
            assert isinstance(value, DangerParams)
            assert_declared_kinds(value)
        else:
            assert f.name == "segments"
            assert all(
                type(d) is float and type(a) is float and math.isfinite(d) and math.isfinite(a)
                for d, a in value
            )


class TestLoaderTotality:
    """Any JSON value put into a valid object gives records of the declared kinds or a ValueError."""

    @settings(deadline=None, max_examples=200)
    @given(top=_json_fields(RunConfig), danger=_json_fields(DangerParams))
    def test_run_config(self, top, danger):
        try:
            config = run_config_from_dict({"danger": danger, **top})
        except ValueError:
            return
        assert_declared_kinds(config)

    @settings(deadline=None, max_examples=200)
    @given(
        top=_json_fields(ScenarioConfig),
        sensors=st.dictionaries(
            st.sampled_from(["rsu", "camera_aw", "camera_drone", "typo"]),
            _json_fields(RangeSensorModel, CameraSensorModel) | JSON_VALUES,
            max_size=3,
        )
        | JSON_VALUES,
    )
    def test_scenario(self, top, sensors):
        try:
            config, models = scenario_from_dict({**SCENARIO, **top, "sensors": sensors})
        except ValueError:
            return
        assert_declared_kinds(config)
        for model in models.values():
            assert_declared_kinds(model)


class TestSensorCsv:
    def test_round_trip_within_csv_precision(self, tmp_path):
        run = generate_run(ScenarioConfig(**{**SCENARIO, "segments": tuple(map(tuple, SCENARIO["segments"]))}))
        path = tmp_path / "round.csv"
        write_sensor_csv(path, run.raw_streams)
        streams = read_sensor_csv(path)
        assert set(streams) == {"rsu", "camera_aw", "camera_drone", "tracker"}
        for sensor_id, original in run.raw_streams.items():
            out = streams[sensor_id]
            present = ~np.isnan(original.values)
            merged_present = ~np.isnan(out.values)
            assert merged_present.sum() == present.sum()
            got = out.values[merged_present]
            want = original.values[present]
            assert np.allclose(got, want, atol=1e-6)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,foo\n0,1\n")
        with pytest.raises(SensorCsvError, match="header"):
            read_sensor_csv(path)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,distance_range,distance_wheelchair,distance_drone,distance_tracker\n"
            "1.0,2.0,,,2.0\n0.5,2.0,,,2.0\n"
        )
        with pytest.raises(SensorCsvError, match="strictly increasing"):
            read_sensor_csv(path)

    def test_malformed_numeric_identifies_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,distance_range,distance_wheelchair,distance_drone,distance_tracker\n"
            "0.0,2.0,,,2.0\n0.1,oops,,,2.0\n"
        )
        with pytest.raises(SensorCsvError, match="row 3"):
            read_sensor_csv(path)

    def test_tracker_column_optional(self, tmp_path):
        path = tmp_path / "no_tracker.csv"
        path.write_text(
            "timestamp,distance_range,distance_wheelchair,distance_drone\n"
            "0.0,2.0,,\n0.1,1.9,,\n0.2,1.8,,\n"
        )
        streams = read_sensor_csv(path)
        assert "tracker" not in streams

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "timestamp,distance_range,distance_wheelchair,distance_drone,distance_tracker,danger_range\n"
            "0.0,2.0,,,2.0,0.5\n0.1,1.9,,,1.9,0.4\n"
        )
        streams = read_sensor_csv(path)
        assert set(streams) == {"rsu", "camera_aw", "camera_drone", "tracker"}


class TestCliCommands:
    def test_simulate_deterministic_bytes(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(scenario_file), str(a)]) == 0
        assert main(["simulate", str(scenario_file), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_output(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(scenario_file), str(a)]) == 0
        assert main(["simulate", str(scenario_file), str(b), "--seed", "7"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_ingest_summary(self, sensors_csv, capsys):
        assert main(["ingest", str(sensors_csv)]) == 0
        out = capsys.readouterr().out
        assert "grid:" in out and "rsu" in out and "tracker" in out

    def test_ingest_bridges_a_dropout_of_exactly_max_gap(self, tmp_path, capsys):
        # camera_aw reads at 1.000000 and 1.500000, max_gap_s (0.5) apart: the instants between
        # are interpolated.  camera_drone reads at 1.000000 and 1.510000: its 50 instants between
        # stay empty
        rows = [
            f"{k / 100:.6f},2.0,{'' if 100 < k < 150 else 2.0},{'' if 100 < k < 151 else 2.0},2.0"
            for k in range(201)
        ]
        recording = tmp_path / "dropout.csv"
        recording.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
        assert main(["ingest", str(recording)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "grid: start=0.000000 s, rate=100 Hz, points=201",
            "rsu           201/201 distance points present",
            "camera_aw     201/201 distance points present",
            "camera_drone  151/201 distance points present",
            "tracker       201/201 distance points present",
        ]

    def test_fuse_rerun_byte_identical(self, tmp_path, sensors_csv):
        a, b = tmp_path / "a_fused.csv", tmp_path / "b_fused.csv"
        assert main(["fuse", str(sensors_csv), str(a)]) == 0
        assert main(["fuse", str(sensors_csv), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == (
            "timestamp,g_rsu,g_cam_aw,g_cam_drone,g_tracker,distance_fused,"
            "g_distance_fusion,g_danger_fusion,vote,decision_distance,"
            "decision_danger,decision_vote"
        )

    def test_fuse_without_tracker_warns_but_succeeds(self, tmp_path, capsys):
        path = tmp_path / "no_tracker.csv"
        rows = ["timestamp,distance_range,distance_wheelchair,distance_drone"]
        for i in range(40):
            rows.append(f"{i * 0.1:.6f},{4.0 - i * 0.05:.6f},,")
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fused.csv"
        assert main(["fuse", str(path), str(out)]) == 0
        err = capsys.readouterr().err
        assert "no tracker" in err
        # tracker danger column stays empty
        body = out.read_text().splitlines()[1:]
        assert all(line.split(",")[4] == "" for line in body)

    def test_a_tracker_after_an_extra_column_is_read(self, tmp_path, sensors_csv, capsys):
        # the tracker used to be read only as the fifth column: here fuse wrote an empty
        # g_tracker column and evaluate exited 2 with "no tracker column"
        moved = tmp_path / "moved.csv"
        lines = sensors_csv.read_text().splitlines()
        header, *rows = [line.split(",") for line in lines]
        cells = [header[:4] + ["frame"] + header[4:]]
        cells += [row[:4] + [f"f{k}"] + row[4:] for k, row in enumerate(rows)]
        moved.write_text("".join(",".join(row) + "\n" for row in cells))
        outputs = []
        for path in (sensors_csv, moved):
            fused = tmp_path / f"{path.stem}_fused.csv"
            assert main(["fuse", str(path), str(fused)]) == 0
            assert main(["evaluate", "--json", str(path)]) == 0
            outputs.append((fused.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[1][1].err == ""
        # a bad tracker cell in column 6 names its row and the tracker column
        cells[3][5] = "x"
        moved.write_text("".join(",".join(row) + "\n" for row in cells))
        assert main(["ingest", str(moved)]) == 2
        message = f"error: {moved}: row 4: column 'distance_tracker': not a number: 'x'\n"
        assert capsys.readouterr().err == message

    def test_evaluate_table_and_json(self, sensors_csv, capsys):
        assert main(["evaluate", str(sensors_csv)]) == 0
        table = capsys.readouterr().out
        for label in (
            "Range sensors",
            "AW camera",
            "Drone camera",
            "Distance fusion",
            "Danger fusion",
            "Voting fusion",
        ):
            assert label in table

        assert main(["evaluate", "--json", str(sensors_csv)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["source"] for r in rows] == [
            "rsu",
            "camera_aw",
            "camera_drone",
            "distance_fusion",
            "danger_fusion",
            "voting_fusion",
        ]
        voting = rows[-1]
        assert voting["rmse"] is None
        for key in (
            "accuracy",
            "precision",
            "recall",
            "tp",
            "fp",
            "tn",
            "fn",
            "evaluated_points",
            "excluded_points",
        ):
            assert key in voting

    def test_evaluate_without_tracker_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "no_tracker.csv"
        rows = ["timestamp,distance_range,distance_wheelchair,distance_drone"]
        for i in range(40):
            rows.append(f"{i * 0.1:.6f},{4.0 - i * 0.05:.6f},,")
        path.write_text("\n".join(rows) + "\n")
        assert main(["evaluate", str(path)]) == 2
        assert "tracker" in capsys.readouterr().err

    def test_threshold_flag_overrides(self, tmp_path, sensors_csv, capsys):
        assert main(["--threshold", "1e9", "evaluate", "--json", str(sensors_csv)]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_source = {r["source"]: r for r in rows}
        assert by_source["rsu"]["fp"] == 0  # nothing exceeds an absurd threshold
        assert by_source["rsu"]["tp"] == 0

    def test_an_override_does_not_reach_the_next_call(self, tmp_path, capsys):
        """Calls without ``--config`` share one default config; an override copies it."""
        recording = tmp_path / "golden.csv"
        assert main(["simulate", str(GOLDEN_SCENARIO), str(recording)]) == 0
        assert main(["--threshold", "0.3", "evaluate", "--json", str(recording)]) == 0
        overridden = capsys.readouterr().out
        assert main(["evaluate", "--json", str(recording)]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_SCENARIO.parent / "report.json").read_text()
        assert overridden != out

    def test_plotdata_long_format(self, tmp_path, sensors_csv):
        fused = tmp_path / "fused.csv"
        assert main(["fuse", str(sensors_csv), str(fused)]) == 0
        plot = tmp_path / "plot.csv"
        assert main(["plotdata", str(fused), str(plot)]) == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "timestamp,series,value"
        series = {line.split(",")[1] for line in lines[1:]}
        assert "g_star" in series
        assert "g_danger_fusion" in series
        assert "decision_vote" not in series

    def test_plotdata_header_only_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,g_rsu\n")
        out = tmp_path / "plot.csv"
        assert main(["plotdata", str(empty), str(out)]) == 0
        assert out.read_text() == "timestamp,series,value\n"

    def test_plotdata_short_row_is_data_error(self, tmp_path, capsys):
        # a short row used to shift its cells onto later rows' timestamps
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,a,b\n0,1,2\n\n1,3\n2,5,6\n")
        out = tmp_path / "plot.csv"
        assert main(["plotdata", str(trace), str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 4: 2 fields, the header has 3" in err
        assert f"error: {trace}: " in err
        assert not out.exists()
        trace.write_bytes(b"timestamp,a\n\xff,1\n")  # not UTF-8
        assert main(["plotdata", str(trace), str(out)]) == 2
        assert f"error: {trace}: 'utf-8' codec" in capsys.readouterr().err
        trace.write_text("timestamp,a,b\n0,1,2\n\n1,3,4,extra\n")
        assert main(["plotdata", str(trace), str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["0,a,1", "1,a,3", "0,b,2", "1,b,4"]

    def test_plotdata_skips_blank_and_all_empty_rows(self, tmp_path):
        # an all-empty row used to give a g_star row with an empty timestamp
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,g_a,b\n0,1,2\n,,\n\n,\n1,,4\n")
        out = tmp_path / "plot.csv"
        assert main(["--threshold", "0.5", "plotdata", str(trace), str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            "0,g_a,1", "0,b,2", "1,b,4", "0,g_star,0.500000", "1,g_star,0.500000"
        ]

    def test_stray_quote_is_data_error(self, tmp_path, capsys):
        # the quoted field runs to the end of the file, past csv's field size limit
        rows = [f"{i / 100:.6f},2.0,," for i in range(20_000)]
        recording = tmp_path / "sensors.csv"
        recording.write_text("timestamp,distance_range,distance_wheelchair,distance_drone\n"
                             '"' + "\n".join(rows) + "\n")
        for command in (["ingest"], ["plotdata", str(tmp_path / "plot.csv")]):
            assert main([command[0], str(recording), *command[1:]]) == 2
            err = capsys.readouterr().err
            assert f"error: {recording}: line " in err and "field larger than field limit" in err
            assert "Traceback" not in err

    def test_negative_distance_is_data_error(self, tmp_path, sensors_csv, capsys):
        # fuse and evaluate used to stop in the scorer with a message naming no file or row
        lines = sensors_csv.read_text().splitlines()
        row = next(i for i, line in enumerate(lines[1:], 2) if line.split(",")[1])
        cells = lines[row - 1].split(",")
        lines[row - 1] = ",".join([cells[0], "-1"] + cells[2:])
        sensors_csv.write_text("\n".join(lines) + "\n")
        message = (
            f"error: {sensors_csv}: row {row}: column 'distance_range': negative distance '-1'"
        )
        out = tmp_path / "fused.csv"
        for command in (["ingest"], ["fuse"], ["evaluate"]):
            argv = [*command, str(sensors_csv)] + ([str(out)] if command == ["fuse"] else [])
            assert main(argv) == 2
            assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("warnings", [None, "error"])
    def test_overflowing_derivative_is_data_error(self, tmp_path, warnings):
        # a 1e308 m jump in one grid step: the speed leaves float64's range.  It used to print
        # numpy's RuntimeWarnings and a message naming no sensor, or a traceback (exit 3)
        rows = [f"{k / 100:.2f},2.0,{'1e308' if k == 20 else '2.0'},2.0,2.0" for k in range(40)]
        recording = tmp_path / "huge.csv"
        recording.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(crossrisk.simulate.__file__).parents[1])}
        env.pop("PYTHONWARNINGS", None)
        if warnings is not None:
            env["PYTHONWARNINGS"] = warnings
        out = tmp_path / "fused.csv"
        for command in ("ingest", "fuse", "evaluate"):
            argv = [command, str(recording)] + ([str(out)] if command == "fuse" else [])
            proc = subprocess.run(
                [sys.executable, "-m", "crossrisk", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stdout) == (2, ""), argv
            assert proc.stderr == f"error: {recording}: camera_aw: speed must not be infinite\n"
        assert not out.exists()
        # a distance falling steadily by 1.08e306 m per step: the speed, 1.08e308 m/s, stays
        # finite and the score saturates, with no warning (the scaled speed used to overflow)
        rows = [f"{k / 100:.2f},2.0,{3.5e307 - 1.08e306 * k!r},2.0,2.0" for k in range(30)]
        recording.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"smooth_window_camera": 1, "smooth_window_derivative": 1}))
        for command in ("fuse", "evaluate"):
            argv = ["--config", str(config), command, str(recording)]
            proc = subprocess.run(
                [sys.executable, "-m", "crossrisk", *argv] + [str(out)] * (command == "fuse"),
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, ""), argv
        saturated = 1 / np.log(3.5e307 - 1.08e306 * 2 + 0.6)  # speed term 1, acceleration 0
        assert out.read_text().splitlines()[3].split(",")[2] == f"{saturated:.6f}"

    def test_ingest_differentiates_only_distances_past_the_range_bound(
        self, tmp_path, capsys, monkeypatch
    ):
        # 1e305 m is past the bound at the default settings, 1e302 m and 2.0 m are not; the
        # derivatives of all three are 0, and the summaries are the same.  Below the bound no
        # reading is interpolated onto the grid
        calls = []
        kernels = ((crossrisk.fusion, "_derivatives"), (crossrisk.timeseries, "_interpolate"))
        for module, name in kernels:
            kernel = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a)
            )
        outputs = []
        for distance in ("1e305", "1e302", "2.0"):
            rows = [f"{k / 100:.2f}" + f",{distance}" * 4 for k in range(40)]
            recording = tmp_path / f"flat_{distance}.csv"
            recording.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
            assert main(["ingest", str(recording)]) == 0
            outputs.append(capsys.readouterr())
            outputs.append(sorted(calls))
            calls.clear()
        assert outputs[0] == outputs[2] == outputs[4]
        assert outputs[1::2] == [["_derivatives"] + ["_interpolate"] * 4, [], []]

    def test_ingest_snaps_a_reading_within_the_slack_of_an_instant(self, tmp_path, capsys):
        # on an epoch-time grid, camera_aw reads at every 60th instant plus four float64 spacings,
        # exactly the grid's slack: 0.6 s apart, more than max_gap_s, so none is bridged, and each
        # reading fills its own instant alone
        grid = crossrisk.timeseries.UniformGrid(1.729e9, 100.0, 301)
        assert grid.slack == 4 * np.spacing(grid.end)
        rows = []
        for k, t in enumerate(grid.times().tolist()):
            rows.append(f"{t!r},2.0,,,2.0")
            if k % 60 == 0:
                rows.append(f"{float(t + grid.slack)!r},,2.0,,")
        recording = tmp_path / "epoch.csv"
        recording.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
        assert main(["ingest", str(recording)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "grid: start=1729000000.000000 s, rate=100 Hz, points=301",
            "rsu           301/301 distance points present",
            "camera_aw     6/301 distance points present",
            "camera_drone  0/301 distance points present",
            "tracker       301/301 distance points present",
        ]

    @pytest.mark.parametrize(
        "field", ["smooth_window_rsu", "smooth_window_camera", "smooth_window_derivative"]
    )
    def test_a_window_past_float64s_range_is_a_data_error(
        self, tmp_path, sensors_csv, capsys, field
    ):
        # it used to end in an OverflowError traceback (exit 3) where a mean divides by it
        config = tmp_path / "window.json"
        config.write_text(f'{{"{field}": {10**400}}}')
        for argv in (["ingest"], ["fuse"], ["evaluate"]):
            argv += [str(sensors_csv)] + [str(tmp_path / "f.csv")] * (argv == ["fuse"])
            assert main(["--config", str(config), *argv]) == 2
            assert capsys.readouterr() == (
                "", f"error: {config}: config: {field} must be at most 1.79769e+308\n"
            )
        assert not (tmp_path / "f.csv").exists()

    def test_overflowing_fused_distance_is_data_error(self, tmp_path, capsys):
        # no sensor overflows alone, but where the camera drops out the fused distance jumps
        # from 4e307 to 8e307 m in one step; with no smoothing, 1.2e308 + 1.2e308 overflows
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"smooth_window_rsu": 1, "smooth_window_camera": 1}))
        cases = {
            "jump.csv": ("{:.2f},8e307,{},,2.0", "speed"),
            "sum.csv": ("{:.2f},1.2e308,2.0,1.2e308,2.0", "distance"),
        }
        for name, (row, series) in cases.items():
            rows = [row.format(k / 100, "" if 20 <= k <= 80 else "2.0") for k in range(100)]
            recording = tmp_path / name
            recording.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
            assert main(["--config", str(config), "ingest", str(recording)]) == 0
            capsys.readouterr()
            for command in ("fuse", "evaluate"):
                argv = [command, str(recording)] + ([str(tmp_path / "f.csv")] * (command == "fuse"))
                assert main(["--config", str(config), *argv]) == 2
                assert capsys.readouterr().err == (
                    f"error: {recording}: distance_fusion: {series} must not be infinite\n"
                )

    @pytest.mark.parametrize("column, sensor", [(1, "rsu"), (3, "camera_drone")])
    def test_overflowing_smoothed_distance_is_data_error(self, tmp_path, capsys, column, sensor):
        # readings of float64's largest value: at the default windows, 2 range and 5 camera
        # readings, their trailing sum leaves float64's range
        cells = ["2.0"] * 4
        cells[column - 1] = repr(sys.float_info.max)
        rows = [f"{k / 100:.2f}," + ",".join(cells) for k in range(40)]
        recording = tmp_path / "max.csv"
        recording.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
        for command in ("ingest", "fuse", "evaluate"):
            argv = [command, str(recording)] + ([str(tmp_path / "f.csv")] * (command == "fuse"))
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {recording}: {sensor}: distance must not be infinite\n"
            )
        assert not (tmp_path / "f.csv").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fuse", str(tmp_path / "nope.csv"), str(tmp_path / "out.csv")]) == 2

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        recording = tmp_path / "empty.csv"
        recording.write_bytes(b"")
        assert main(["ingest", str(recording)]) == 2
        assert capsys.readouterr().err == f"error: {recording}: empty file\n"

    def test_output_that_is_a_directory_is_data_error(self, tmp_path, sensors_csv, capsys):
        assert main(["fuse", str(sensors_csv), str(tmp_path)]) == 2
        assert main(["simulate", str(GOLDEN_SCENARIO), str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "sensors.csv"]

    def test_output_under_a_regular_file_is_data_error(self, sensors_csv, capsys):
        # NotADirectoryError used to end in a traceback (exit 3)
        assert main(["fuse", str(sensors_csv), str(sensors_csv / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"Not a directory: '{sensors_csv / 'x.csv'}'" in err
        assert "Traceback" not in err

    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    def test_repeated_calls_act_as_fresh_processes(self, sensors_csv, capsys, monkeypatch):
        """``main`` reuses one parser, which carries nothing from one call to the next."""
        monkeypatch.setenv("COLUMNS", "80")  # the width of --help
        env = {**os.environ, "PYTHONPATH": str(Path(crossrisk.simulate.__file__).parents[1])}
        calls = [
            ["--threshold", "2", "evaluate"],
            ["--help"],
            ["--threshold", "2", "evaluate", "--json", str(sensors_csv)],
            ["evaluate", "--json", str(sensors_csv)],
            ["--resample-hz", "50", "ingest", str(sensors_csv)],
            ["ingest", str(sensors_csv)],
        ]
        outputs = []
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "crossrisk", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert main(argv) == fresh.returncode
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr), argv
            outputs.append((fresh.returncode, fresh.stdout))
        assert [code for code, _ in outputs] == [1, 0, 0, 0, 0, 0]
        # the overrides show, so one left in the parser would change the next call's output
        assert outputs[2] != outputs[3] and outputs[4] != outputs[5]

    def test_fuse_multiple_inputs(self, tmp_path, scenario_file, capsys):
        a, b = tmp_path / "run_a.csv", tmp_path / "run_b.csv"
        assert main(["simulate", str(scenario_file), str(a)]) == 0
        assert main(["simulate", str(scenario_file), str(b), "--seed", "99"]) == 0
        out_dir = tmp_path / "fused"
        assert main(["fuse", str(a), str(b), str(out_dir)]) == 0
        assert (out_dir / "run_a_fused.csv").exists()
        assert (out_dir / "run_b_fused.csv").exists()

        # inputs run in order: a failing one is named and stops the later ones
        bad = tmp_path / "run_bad.csv"
        bad.write_text(SENSOR_HEADER + "0.0,2.0,,,2.0\n0.1,oops,,,2.0\n")
        capsys.readouterr()
        assert main(["fuse", str(bad), str(a), str(tmp_path / "after_bad")]) == 2
        assert f"error: {bad}: row 3" in capsys.readouterr().err
        assert not (tmp_path / "after_bad" / "run_a_fused.csv").exists()

    def test_evaluate_multiple_inputs(self, tmp_path, scenario_file, capsys):
        a, b = tmp_path / "run_a.csv", tmp_path / "run_b.csv"
        assert main(["simulate", str(scenario_file), str(a)]) == 0
        assert main(["simulate", str(scenario_file), str(b), "--seed", "99"]) == 0
        assert main(["evaluate", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert out.count("Range sensors") == 2

        bad = tmp_path / "run_bad.csv"
        bad.write_text(SENSOR_HEADER + "0.0,2.0,,,2.0\n0.1,oops,,,2.0\n")
        assert main(["evaluate", str(a), str(bad), str(b)]) == 2
        captured = capsys.readouterr()
        assert f"error: {bad}: row 3" in captured.err
        # the input finished before the failing one keeps its table
        assert f"== {a} ==" in captured.out and captured.out.count("Range sensors") == 1
        assert str(b) not in captured.out
        assert main(["evaluate", "--json", str(a), str(bad), str(b)]) == 2
        assert [entry["input"] for entry in json.loads(capsys.readouterr().out)] == [str(a)]
        assert main(["evaluate", "--json", str(bad), str(a)]) == 2
        assert capsys.readouterr().out == ""  # no input completed

    def test_grid_over_the_point_limit_is_data_error(self, sensors_csv, capsys):
        # rejected before the grid is allocated (it would take 44.7 GiB)
        assert main(["--resample-hz", "1e9", "ingest", str(sensors_csv)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"resample_hz 1e\+09 over [0-9.]+ s gives \d{10} grid points", err)
        assert str(sensors_csv) in err

    @pytest.mark.parametrize(
        "start, period, flags, message",
        [
            (1e17, 100.0, [], r"resample_hz 100 gives a 0\.01 s step, .* near 1e\+17 s"),
            (1.729e9, 0.01, ["--resample-hz", "1e7"], r"resample_hz 1e\+07 .* near 1\.729e\+09 s"),
            (1.729e9, 0.01, ["--resample-hz", "1e6"], r"resample_hz 1e\+06 .* near 1\.729e\+09 s"),
        ],
    )
    def test_grid_step_below_the_timestamp_resolution_is_data_error(
        self, tmp_path, capsys, start, period, flags, message
    ):
        # the file's timestamps increase; the grid's would repeat or be unevenly spaced
        path = tmp_path / "sensors.csv"
        rows = [f"{start + k * period:.6f},2.0,2.0,2.0" for k in range(29)]
        path.write_text(SENSOR_HEADER.replace(",distance_tracker", "") + "\n".join(rows) + "\n")
        assert main([*flags, "ingest", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.search(f"^error: {re.escape(str(path))}: {message}$", err, re.M)
        if start < 1e10:  # epoch timestamps at the default 100 Hz
            assert main(["ingest", str(path)]) == 0
            assert "start=1729000000.000000 s, rate=100 Hz" in capsys.readouterr().out

    def test_epoch_recording_keeps_its_last_grid_instant(self, tmp_path, capsys):
        # near 1.7e9 s the span of the timestamps falls short of 28 steps by their rounding
        header = SENSOR_HEADER.replace(",distance_tracker", "")
        outputs = []
        for start in (0.0, 1.729e9):
            path, fused = tmp_path / f"{start:.0f}.csv", tmp_path / f"fused-{start:.0f}.csv"
            rows = [f"{start + k * 0.01:.6f},{4 - k / 10},{3 - k / 20},2" for k in range(29)]
            path.write_text(header + "\n".join(rows) + "\n")
            assert main(["ingest", str(path)]) == 0
            grid, *present = capsys.readouterr().out.splitlines()
            assert main(["fuse", str(path), str(fused)]) == 0
            values = [line.split(",", 1)[1] for line in fused.read_text().splitlines()]
            outputs.append((grid.split("points=")[1], present, values))
        assert outputs[0][0] == "29"
        assert outputs[1] == outputs[0]

    def test_last_grid_instant_just_past_the_last_row_takes_it(self, tmp_path, capsys):
        # the grid's last instant 0.01 + 28 / 100 is one float64 spacing after the last row, 0.29
        path, fused = tmp_path / "late.csv", tmp_path / "fused.csv"
        rows = [f"{(1 + k) / 100:.6f},2.0,2.0,2.0,2.0" for k in range(29)]
        path.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
        assert main(["ingest", str(path)]) == 0
        assert capsys.readouterr().out.count("29/29 distance points present") == 4
        assert main(["fuse", str(path), str(fused)]) == 0
        assert "Unknown" not in fused.read_text().splitlines()[-1]

    def test_late_start_and_dropout_keep_every_present_row(self, tmp_path, capsys):
        # the wheelchair camera starts 10 rows late and drops out for a second; rounding puts
        # grid instant 10 a few float64 spacings before its first row, which it must still take
        path = tmp_path / "epoch_gap.csv"
        rows = [
            f"{1729000000.3 + 0.01 * k:.6f},2.0,{'' if k < 10 or 100 <= k < 200 else 2.0},2.0"
            for k in range(300)
        ]
        path.write_text(SENSOR_HEADER.replace(",distance_tracker", "") + "\n".join(rows) + "\n")
        assert main(["ingest", str(path)]) == 0
        assert "camera_aw     190/300 distance points present" in capsys.readouterr().out

    def test_closed_stdout_exits_quietly(self, tmp_path, sensors_csv):
        fused = tmp_path / "fused.csv"
        assert main(["fuse", str(sensors_csv), str(fused)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(crossrisk.simulate.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        # the plot rows fill more than a pipe's buffer, so plotdata meets the closed pipe while
        # it writes; ingest's few lines wait in the stdout buffer until it is flushed
        for command, read in [
            (["plotdata", str(fused), "/dev/stdout"], [b"timestamp,series,value\n"]),
            (["ingest", str(sensors_csv)], []),
        ]:
            with subprocess.Popen(
                [sys.executable, "-m", "crossrisk", *command],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            ) as proc:
                assert [proc.stdout.readline() for _ in read] == read
                proc.stdout.close()
                assert proc.stderr.read() == b""
                assert proc.wait(timeout=60) == 0

    def test_config_file_flag(self, tmp_path, sensors_csv, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"danger": {"threshold": 0.2}}))
        assert main(["--config", str(config), "evaluate", "--json", str(sensors_csv)]) == 0
        low = json.loads(capsys.readouterr().out)

        assert main(["evaluate", "--json", str(sensors_csv)]) == 0
        default = json.loads(capsys.readouterr().out)
        # a lower threshold flags at least as many dangerous instants
        low_rsu = next(r for r in low if r["source"] == "rsu")
        default_rsu = next(r for r in default if r["source"] == "rsu")
        assert low_rsu["tp"] + low_rsu["fp"] >= default_rsu["tp"] + default_rsu["fp"]

    def test_ingest_round_trip_of_simulate(self, tmp_path, sensors_csv):
        # format closure: simulate output parses and fuses cleanly
        fused = tmp_path / "fused.csv"
        assert main(["fuse", str(sensors_csv), str(fused)]) == 0
        assert fused.stat().st_size > 0

    @pytest.mark.parametrize(
        "kind, content, named",
        [
            # a string is not a bool: it used to be taken as true, silently
            ("config", {"unknown_as_safe": "false"}, "unknown_as_safe must be true or false"),
            ("config", {"danger": 5}, "config field danger: must be a JSON object"),
            ("config", {"danger": [1]}, "config field danger: must be a JSON object"),
            ("config", {"danger": {"threshold": True}}, "threshold must be a finite number"),
            ("scenario", {"seed": "7"}, "seed must be an integer"),
            ("scenario", {"seed": 1.5}, "seed must be an integer"),
            ("scenario", {"seed": True}, "seed must be an integer"),
            ("scenario", {"seed": -1}, "seed must be non-negative"),
            ("config", b'{"max_gap_s": -1, }', "invalid JSON at line 1"),
            ("config", {"max_gap_s": -1}, "max_gap_s must be positive"),
            ("config", b'{"max_gap_s": "\xff"}', "'utf-8' codec"),
            ("scenario", b'{"duration": "\xff"}', "'utf-8' codec"),
            ("scenario", {"segments": [[1, "a"]]}, "segments must hold finite numbers"),
            ("scenario", {"sensors": {"rsu": {"bogus": 1}}}, "sensors.rsu: unknown keys ['bogus']"),
            ("config", {"danger": {"bogus": 1}}, "danger: unknown keys ['bogus']"),
            # a repeated key used to keep its last value, silently
            ("config", b'{"max_gap_s": 0.5, "max_gap_s": 2.0}', "duplicate key 'max_gap_s'"),
            (
                "config",
                b'{"danger": {"threshold": 1, "threshold": 2}}',
                "duplicate key 'threshold'",
            ),
            ("scenario", SCENARIO_TEXT[:-1] + b', "seed": 3}', "duplicate key 'seed'"),
            (
                "scenario",
                SCENARIO_TEXT[:-1] + b', "sensors": {"rsu": {}, "rsu": {"relative_noise": 1}}}',
                "duplicate key 'rsu'",
            ),
            ("scenario", {"segments": [[0, 0.0], [6, 0.0]]}, "segment durations must be positive"),
            (
                "scenario",
                {"sensors": {"rsu": {"relative_noise": -0.1}}},
                "sensors.rsu: relative_noise must be non-negative",
            ),
            (
                "scenario",
                {"sensors": {"camera_aw": {"pixel_noise_sigma": -1}}},
                "sensors.camera_aw: pixel_noise_sigma must be non-negative",
            ),
            (
                "scenario",
                {"sensors": {"camera_drone": {"focal_px": 0}}},
                "sensors.camera_drone: focal_px and object_width_m must be positive",
            ),
            ("scenario", b"[1, 2]", "scenario: must be a JSON object"),
            # an integer too large for a float is no finite number
            ("config", {"resample_hz": 10**400}, "resample_hz must be a finite number"),
            # a score, or the square of two scores' difference, would overflow
            (
                "config",
                {"danger": {"accel_weight": 1e200}},
                "require (1 + accel_weight) / denominator_floor <= 1e150",
            ),
            (
                "config",
                {"danger": {"denominator_floor": 1e-310}},
                "require (1 + accel_weight) / denominator_floor <= 1e150",
            ),
        ],
        ids=[
            "unknown_as_safe-string", "danger-int", "danger-list", "threshold-bool",
            "seed-string", "seed-float", "seed-bool", "seed-negative", "config-bad-json",
            "max_gap_s-negative", "config-not-utf8", "scenario-not-utf8",
            "segments-string", "sensor-unknown-key", "danger-unknown-key",
            "config-duplicate", "danger-duplicate", "scenario-duplicate", "sensors-duplicate",
            "segment-zero", "relative_noise-negative", "pixel_noise_sigma-negative",
            "focal_px-zero", "scenario-array", "resample_hz-huge-integer",
            "accel_weight-huge", "denominator_floor-tiny",
        ],
    )
    def test_bad_config_or_scenario_names_file_and_field(
        self, tmp_path, sensors_csv, capsys, kind, content, named
    ):
        path = tmp_path / f"{kind}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps({**SCENARIO, **content} if kind == "scenario" else content))
        if kind == "config":
            argv = ["--config", str(path), "evaluate", "--json", str(sensors_csv)]
        else:
            argv = ["simulate", str(path), str(tmp_path / "out.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: " in captured.err and named in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, config, field",
        [
            (["--threshold", "nan"], None, "threshold"),
            (["--threshold", "inf"], None, "threshold"),
            (["--resample-hz", "inf"], None, "resample_hz"),
            (["--resample-hz", "nan"], None, "resample_hz"),
            ([], {"danger": {"accel_weight": math.nan}}, "accel_weight"),
            ([], {"danger": {"distance_offset": math.nan}}, "distance_offset"),
            ([], {"max_gap_s": math.nan}, "max_gap_s"),
        ],
    )
    def test_non_finite_config_is_data_error(
        self, tmp_path, sensors_csv, capsys, flags, config, field
    ):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))  # writes the JSON literal NaN
            flags = ["--config", str(path)]
        assert main([*flags, "evaluate", str(sensors_csv)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a finite number" in err

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"smooth_window_rsu": "2"}, "smooth_window_rsu"),
            ({"smooth_window_camera": 2.5}, "smooth_window_camera"),
            ({"smooth_window_derivative": True}, "smooth_window_derivative"),
        ],
    )
    def test_non_integer_window_is_data_error(self, tmp_path, sensors_csv, capsys, config, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "ingest", str(sensors_csv)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"rsu_rate_hz": math.inf}, "rsu_rate_hz must be a finite number"),
            ({"duration": math.nan}, "duration must be a finite number"),
            ({"segments": [[math.nan, 0.0]]}, "segments must hold finite numbers"),
            ({"sensors": {"rsu": {"relative_noise": math.nan}}}, "sensors.rsu"),
            ({"sensors": {"camera_aw": {"detection_range": math.nan}}}, "detection_range"),
        ],
    )
    def test_non_finite_scenario_is_data_error(self, tmp_path, capsys, override, field):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, **override}))
        assert main(["simulate", str(scenario), str(tmp_path / "out.csv")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"truth_rate_hz": 1e12}, "truth_rate_hz"),
            ({"rsu_rate_hz": 1e12}, "rsu_rate_hz"),
            ({"camera_rate_hz": 1e12}, "camera_rate_hz"),
            ({"duration": 1e12, "segments": []}, "duration 1e+12 s"),
        ],
    )
    def test_oversized_scenario_is_data_error(self, tmp_path, capsys, override, field):
        # refused before the samples are allocated (tens of TiB)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, **override}))
        assert main(["simulate", str(scenario), str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert field in err and "more than the limit of 10000000" in err
        assert "Traceback" not in err

    def test_simulate_runs_no_pipeline_stage(self, tmp_path, monkeypatch):
        config, models = load_scenario(GOLDEN_SCENARIO)
        expected = tmp_path / "expected.csv"
        write_sensor_csv(expected, generate_run(config, models).raw_streams)

        def stage(*args, **kwargs):
            raise AssertionError("simulate ran a pipeline stage")

        monkeypatch.setattr(crossrisk.simulate, "sensor_set_from_streams", stage)
        monkeypatch.setattr(crossrisk.danger, "_danger_values", stage)  # the one scoring kernel
        out = tmp_path / "out.csv"
        assert main(["simulate", str(GOLDEN_SCENARIO), str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_pipeline_settings_do_not_shape_simulate(self, tmp_path, capsys):
        default = tmp_path / "default.csv"
        assert main(["simulate", str(GOLDEN_SCENARIO), str(default)]) == 0
        # the grid rate is the pipeline's: the recording is the same bytes
        fine = tmp_path / "fine.csv"
        assert main(["--resample-hz", "1e9", "simulate", str(GOLDEN_SCENARIO), str(fine)]) == 0
        assert fine.read_bytes() == default.read_bytes()
        # but the settings are still parsed and validated
        assert main(["--resample-hz", "nan", "simulate", str(GOLDEN_SCENARIO), str(fine)]) == 2
        assert "resample_hz must be a finite number" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"smooth_window_rsu": 2.5}))
        assert main(["--config", str(config), "simulate", str(GOLDEN_SCENARIO), str(fine)]) == 2
        assert "smooth_window_rsu must be an integer" in capsys.readouterr().err

    def test_simulate_ingest_round_trip_with_colliding_rates(self, tmp_path):
        # k / 1000.3 and k / 1000 are distinct instants that print alike
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({**SCENARIO, "rsu_rate_hz": 1000.3, "camera_rate_hz": 1000.0})
        )
        recording = tmp_path / "sensors.csv"
        assert main(["simulate", str(scenario), str(recording)]) == 0
        assert main(["ingest", str(recording)]) == 0

        config, models = load_scenario(scenario)
        raw = generate_run(config, models).raw_streams
        read = read_sensor_csv(recording)
        for sensor_id, stream in raw.items():
            present = np.count_nonzero(~np.isnan(read[sensor_id].values))
            assert present == np.count_nonzero(~np.isnan(stream.values))
            # every sample sits on a row whose timestamp prints as its own
            t = read[sensor_id].times[~np.isnan(read[sensor_id].values)]
            np.testing.assert_allclose(t, stream.times[~np.isnan(stream.values)], atol=6e-7)

    def test_two_samples_of_one_sensor_on_one_timestamp_is_data_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {"duration": 0.002, "initial_distance": 4.0, "truth_rate_hz": 1000.0,
                 "rsu_rate_hz": 2e6}
            )
        )
        assert main(["simulate", str(scenario), str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenario}: sensor rsu: samples at 0.0 s and 5e-07 s")
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_obstacle_past_the_crossing_is_data_error_naming_the_scenario(
        self, tmp_path, capsys
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({"duration": 10.0, "initial_distance": 1.0, "initial_speed": 2.0})
        )
        assert main(["simulate", str(scenario), str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {scenario}: scenario drives the obstacle past the crossing point\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_fuse_output_name_clash_is_usage_error(self, tmp_path, sensors_csv, capsys):
        inputs = [tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"]
        for path in inputs:
            path.parent.mkdir()
            path.write_bytes(sensors_csv.read_bytes())
        out_dir = tmp_path / "out"
        assert main(["fuse", *map(str, inputs), str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert str(inputs[0]) in err and str(inputs[1]) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("link", [None, os.symlink, os.link])
    def test_fuse_output_that_is_an_input_is_usage_error(
        self, tmp_path, sensors_csv, capsys, link
    ):
        # x.csv's trace would be x_fused.csv, which is (or links to) the other input
        recording = tmp_path / "x_fused.csv"
        inputs = [tmp_path / "x.csv", recording]
        for path in inputs:
            path.write_bytes(sensors_csv.read_bytes())
        if link is not None:
            inputs[1] = tmp_path / "other.csv"
            link(recording, inputs[1])
        before = recording.read_bytes()
        assert main(["fuse", *map(str, inputs), str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{recording}, would overwrite the input {inputs[1]}" in err
        assert "Traceback" not in err
        assert recording.read_bytes() == before
        assert not (tmp_path / "other_fused.csv").exists()

    def test_source_that_never_detects_is_insufficient(self, tmp_path, capsys):
        scenario = tmp_path / "blind.json"
        scenario.write_text(
            json.dumps({**SCENARIO, "sensors": {"camera_aw": {"detection_range": 0.01}}})
        )
        recording = tmp_path / "blind.csv"
        assert main(["simulate", str(scenario), str(recording)]) == 0

        sensors = sensor_set_from_streams(read_sensor_csv(recording))
        trace = fuse_all(sensors)
        for sensor_id, track in sensors.tracks.items():
            np.testing.assert_array_equal(
                trace.sensor_g[sensor_id].values, danger_series(track).values
            )
        reports = evaluate_run(trace)
        assert reports["camera_aw"] is None
        assert all(reports[s] is not None for s in EVALUATION_SOURCES if s != "camera_aw")

        assert main(["evaluate", str(recording)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert "insufficient" in next(line for line in table if line.startswith("AW camera"))

        assert main(["evaluate", "--json", str(recording)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[1] == {"source": "camera_aw", "error": "insufficient data"}
        assert rows == [report_to_dict(s, reports[s]) for s in EVALUATION_SOURCES]

    @pytest.mark.parametrize("unknown_as_safe", [False, True])
    def test_unknown_as_safe_reports_a_sensor_with_no_scores(
        self, tmp_path, capsys, unknown_as_safe
    ):
        # the AW camera never detects; counted as Safe calls, its instants are classified
        scenario = tmp_path / "blind.json"
        sensors = {"camera_aw": {"detection_range": 0.1}}
        scenario.write_text(json.dumps({**SCENARIO, "seed": 3, "sensors": sensors}))
        recording, config = tmp_path / "blind.csv", tmp_path / "config.json"
        config.write_text(json.dumps({"unknown_as_safe": unknown_as_safe}))
        assert main(["simulate", str(scenario), str(recording)]) == 0
        assert main(["--config", str(config), "evaluate", "--json", str(recording)]) == 0
        row = json.loads(capsys.readouterr().out)[1]
        if not unknown_as_safe:
            assert row == {"source": "camera_aw", "error": "insufficient data"}
            return
        assert row["rmse"] is None and row["recall"] == 0.0
        assert (row["tp"], row["fp"], row["tn"], row["fn"]) == (0, 0, 365, 234)
        assert main(["--config", str(config), "evaluate", str(recording)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert next(line for line in table if line.startswith("AW camera")).split()[2:] == [
            "-", "0.61", "0.00", "1.00"
        ]

    def test_scenario_of_sub_picosecond_segments_simulates_one_row(self, tmp_path, capsys):
        scenario, recording = tmp_path / "tiny.json", tmp_path / "tiny.csv"
        scenario.write_text(
            json.dumps({"duration": 1e-10, "initial_distance": 4.0, "segments": [[1e-13, 0.0]]})
        )
        assert main(["simulate", str(scenario), str(recording)]) == 0
        rows = recording.read_text().splitlines()
        assert rows[0] == SENSOR_HEADER.strip() and len(rows) == 2
        assert rows[1].startswith("0.000000,") and rows[1].endswith(",4.000000")


def _pretend(monkeypatch, platform: str) -> None:
    """Make ``cli._workers`` see ``platform``: ``no-fork``, ``one-cpu`` or ``two-workers``."""
    if platform == "no-fork":  # e.g. Windows
        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    else:  # one CPU as under taskset -c 0, or two whatever this machine has
        cpus = {"one-cpu": {0}, "two-workers": {0, 1}}[platform]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _drop_tracker(path: Path) -> Path:
    """Delete the last column, the tracker's, of a simulated recording."""
    lines = path.read_text().splitlines()
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    return path


class TestMultipleInputs:
    """Several inputs run on worker processes, yet act as single runs made in input order."""

    @pytest.fixture
    def recordings(self, tmp_path, scenario_file):
        """Five recordings; the second and the fourth have no tracker column."""
        paths = []
        for i, name in enumerate("abcde"):
            path = tmp_path / f"{name}.csv"
            assert main(["simulate", str(scenario_file), str(path), "--seed", str(i)]) == 0
            paths.append(_drop_tracker(path) if name in "bd" else path)
        return paths

    @staticmethod
    def _bad(path: Path) -> Path:
        path.write_text(SENSOR_HEADER + "0.0,2.0,,,2.0\n0.1,oops,,,2.0\n")
        return path

    def test_outputs_are_those_of_single_runs(self, tmp_path, recordings, capsys):
        # five inputs on at most two workers: one worker runs several of them
        self._check_outputs_of_single_runs(tmp_path, recordings, capsys)

    @pytest.mark.parametrize("platform", ["no-sched_getaffinity", "no-fork", "one-cpu"])
    def test_platform_without_affinity_or_fork(
        self, tmp_path, recordings, capsys, monkeypatch, platform
    ):
        if platform == "no-sched_getaffinity":  # e.g. macOS: os.cpu_count() sizes the pool
            monkeypatch.delattr(os, "sched_getaffinity")
            self._check_outputs_of_single_runs(tmp_path, recordings, capsys)
            return
        _pretend(monkeypatch, platform)

        # the inputs run one after another in this process, each writing its target's part
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        outputs = []
        fuse_one = crossrisk.cli._fuse_one

        def recording_fuse_one(path, output, config):
            outputs.append(output)
            return fuse_one(path, output, config)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(crossrisk.cli, "_fuse_one", recording_fuse_one)
        self._check_outputs_of_single_runs(tmp_path, recordings, capsys)
        out = Path(os.path.realpath(tmp_path / "fused"))
        assert outputs[: len(recordings)] == [
            out / f".{p.stem}_fused.csv.{os.getpid()}.part" for p in recordings
        ]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("platform", ["two-workers", "no-fork", "one-cpu"])
    def test_a_target_that_is_no_regular_file_is_replaced(
        self, tmp_path, recordings, monkeypatch, platform
    ):
        # a trace is renamed over its target wherever it ran, so no input writes into a pipe
        _pretend(monkeypatch, platform)
        out = tmp_path / "fused"
        out.mkdir()
        fifo = out / "b_fused.csv"
        os.mkfifo(fifo)
        # a reader of the pipe: a trace written into it ends instead of waiting for one
        reader = subprocess.Popen(
            [sys.executable, "-c", "import sys; open(sys.argv[1], 'rb').read()", str(fifo)]
        )
        try:
            assert main(["fuse", *map(str, recordings[:3]), str(out)]) == 0
        finally:
            reader.kill()
            reader.wait()
        assert fifo.is_file()
        assert sorted(p.name for p in out.iterdir()) == [f"{c}_fused.csv" for c in "abc"]
        single = tmp_path / "b_single.csv"
        assert main(["fuse", str(recordings[1]), str(single)]) == 0
        assert fifo.read_bytes() == single.read_bytes()

    def test_worker_trace_is_moved_over_its_target(self, tmp_path, recordings, monkeypatch):
        # two usable CPUs, whatever this machine has: the traces come from forked workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        moved = []
        move_over = crossrisk.io._move_over

        def recording_move_over(source, path):
            moved.append(Path(source).parent)
            move_over(source, path)

        monkeypatch.setattr(crossrisk.io, "_move_over", recording_move_over)
        out, elsewhere = tmp_path / "fused", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        private = out / "a_fused.csv"
        private.write_bytes(b"old trace\n")
        private.chmod(0o600)
        pointed = elsewhere / "b_trace.csv"
        pointed.write_bytes(b"old trace\n")
        (out / "b_fused.csv").symlink_to(pointed)
        traces = [private, pointed, out / "c_fused.csv"]

        def clean(directory: Path) -> bool:  # no part or temporary file left behind
            return not [p for p in directory.iterdir() if p.name.startswith(".")]

        assert main(["fuse", *map(str, recordings[:3]), str(out)]) == 0
        # each part was written beside the file it replaces: the link's target, not the link
        assert moved == [out, elsewhere, out]
        assert private.stat().st_mode & 0o777 == 0o600
        assert (out / "b_fused.csv").is_symlink()
        assert clean(out) and clean(elsewhere)
        for path, trace in zip(recordings, traces):
            single = tmp_path / f"{path.stem}_single.csv"
            assert main(["fuse", str(path), str(single)]) == 0
            assert trace.read_bytes() == single.read_bytes()

        bad = str(self._bad(tmp_path / "bad.csv"))
        assert main(["fuse", str(recordings[0]), bad, *map(str, recordings[1:3]), str(out)]) == 2
        assert clean(out) and clean(elsewhere)
        assert sorted(p.name for p in out.iterdir()) == [f"{c}_fused.csv" for c in "abc"]

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-workers", "one-cpu"])
    def test_unwritable_link_target_is_named_as_the_target(
        self, tmp_path, recordings, capsys, monkeypatch, cpus
    ):
        # a worker writes a part beside the link's target: its error still names the target
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        out = tmp_path / "fused"
        out.mkdir()
        (out / "b_fused.csv").symlink_to(tmp_path / "missing" / "b_trace.csv")
        assert main(["fuse", *map(str, recordings[:2]), str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out / 'b_fused.csv'}'\n"
        )
        # the input before the failing one is written; no part or temporary file is left
        assert sorted(p.name for p in out.iterdir()) == ["a_fused.csv", "b_fused.csv"]
        assert not (tmp_path / "missing").exists()
        single = tmp_path / "a_single.csv"
        assert main(["fuse", str(recordings[0]), str(single)]) == 0
        assert (out / "a_fused.csv").read_bytes() == single.read_bytes()

    def test_directory_in_the_way_of_a_trace_is_named(
        self, tmp_path, recordings, capsys, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "fused"
        (out / "a_fused.csv").mkdir(parents=True)
        assert main(["fuse", *map(str, recordings[:2]), str(out)]) == 2
        assert capsys.readouterr().err.endswith(f"Is a directory: '{out / 'a_fused.csv'}'\n")
        assert [p.name for p in out.iterdir()] == ["a_fused.csv"]

    @staticmethod
    def _check_outputs_of_single_runs(tmp_path, recordings, capsys):
        out = tmp_path / "fused"
        assert main(["fuse", *map(str, recordings), str(out)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"warning: {path}: no tracker column; evaluation disabled for this trace"
            for path in recordings[1:4:2]
        ]
        for path in recordings:
            single = tmp_path / f"{path.stem}_single.csv"
            assert main(["fuse", str(path), str(single)]) == 0
            assert (out / f"{path.stem}_fused.csv").read_bytes() == single.read_bytes()
        assert sorted(p.name for p in out.iterdir()) == [f"{c}_fused.csv" for c in "abcde"]

        tracked = [str(p) for p in recordings[::2]]
        capsys.readouterr()
        singles = {}
        for path in tracked:
            assert main(["evaluate", path]) == 0
            table = capsys.readouterr().out
            assert main(["evaluate", "--json", path]) == 0
            singles[path] = (table, json.loads(capsys.readouterr().out))
        assert main(["evaluate", *tracked]) == 0
        assert capsys.readouterr().out == "\n".join(
            f"== {path} ==\n{singles[path][0]}" for path in tracked
        )
        assert main(["evaluate", "--json", *tracked]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"input": path, "reports": singles[path][1]} for path in tracked
        ]

    @pytest.mark.parametrize("command", ["fuse", "evaluate"])
    def test_no_worker_outlives_the_command(self, tmp_path, recordings, capsys, command):
        good = [str(p) for p in recordings[::2]]
        bad = str(self._bad(tmp_path / "bad.csv"))

        def run(*inputs: str, out: str):
            args = [command, *inputs] + ([str(tmp_path / out)] if command == "fuse" else [])
            status = main(args)
            assert multiprocessing.active_children() == []
            return status, capsys.readouterr()

        status, _ = run(*good, out="all")
        assert status == 0
        for inputs, out, finished in [
            ([bad, *good], "first_bad", []),
            ([*good, bad], "last_bad", good),
        ]:
            status, captured = run(*inputs, out=out)
            assert status == 2
            assert captured.err.splitlines() == [
                f"error: {bad}: row 3: column 'distance_range': not a number: 'oops'"
            ]
            if command == "fuse":  # the traces of the inputs before the failing one, no more
                written = sorted(p.name for p in (tmp_path / out).iterdir())
                assert written == sorted(f"{Path(p).stem}_fused.csv" for p in finished)
            else:
                assert re.findall("^== (.*) ==$", captured.out, re.M) == finished

    @pytest.mark.parametrize("command", ["fuse", "evaluate"])
    def test_first_failure_in_input_order_wins(self, tmp_path, capsys, command):
        # the first bad input fails after reading its 18 001 rows, the second at its third line
        scenario = tmp_path / "long.json"
        standing = {"duration": 600.0, "initial_distance": 4.0, "segments": [[600.0, 0.0]]}
        scenario.write_text(json.dumps(standing))
        slow = tmp_path / "slow.csv"
        assert main(["simulate", str(scenario), str(slow)]) == 0
        lines = slow.read_text().splitlines()
        slow.write_text("\n".join(lines[:-1] + [lines[-1].replace(",", ",oops,", 1)]) + "\n")
        fast = self._bad(tmp_path / "fast.csv")
        args = [command, str(slow), str(fast)]
        if command == "fuse":
            args.append(str(tmp_path / "out"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {slow}: row {len(lines)}") and str(fast) not in err

    @pytest.mark.parametrize("platform", ["two-workers", "one-cpu"])
    def test_a_failing_input_is_named_once(
        self, tmp_path, recordings, capsys, monkeypatch, platform
    ):
        # the fused speed overflows, as in test_overflowing_fused_distance_is_data_error, on a
        # worker or in this process
        _pretend(monkeypatch, platform)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"smooth_window_rsu": 1, "smooth_window_camera": 1}))
        jump = tmp_path / "jump.csv"
        rows = [f"{k / 100:.2f},8e307,{'' if 20 <= k <= 80 else '2.0'},,2.0" for k in range(100)]
        jump.write_text(SENSOR_HEADER + "\n".join(rows) + "\n")
        inputs = [str(recordings[0]), str(jump)]
        for argv in (["fuse", *inputs, str(tmp_path / "out")], ["evaluate", *inputs]):
            assert main(["--config", str(config), *argv]) == 2
            assert capsys.readouterr().err == (
                f"error: {jump}: distance_fusion: speed must not be infinite\n"
            )

    def test_pending_stdout_is_printed_once(self, recordings):
        # a forked worker flushes the stdio buffers it inherited when it exits
        tracked = [str(p) for p in recordings[::2]]
        script = (
            "import sys; from crossrisk.cli import main; "
            f"print('<buffered>'); sys.exit(main(['evaluate', *{tracked!r}]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(crossrisk.simulate.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("<buffered>") == 1
        assert proc.stdout.count("Range sensors") == len(tracked)

    def test_importing_the_cli_starts_no_process_machinery(self, tmp_path, recordings):
        # neither does a one-input fuse: it writes its trace in the command's own process
        fuse = ["fuse", str(recordings[0]), str(tmp_path / "a_fused.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(crossrisk.simulate.__file__).parents[1])}
        for call in ["", f"assert crossrisk.cli.main({fuse!r}) == 0; "]:
            script = (
                f"import sys, crossrisk.cli; {call}"
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
            )
            assert proc.stdout == "[]\n", proc.stderr
        assert (tmp_path / "a_fused.csv").stat().st_size > 0


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    camera_range=st.none() | st.floats(0.01, 10.0),  # None: unlimited range
)
def test_repeated_runs_give_identical_bytes(seed, camera_range):
    """simulate, fuse, evaluate --json and plotdata give the same bytes on a second run."""

    def run(directory: Path) -> list[bytes]:
        directory.mkdir()
        cameras = {"detection_range": camera_range}
        sensors = {"camera_aw": cameras, "camera_drone": cameras}
        scenario = {**SCENARIO, "seed": seed, "sensors": sensors}
        (directory / "scenario.json").write_text(json.dumps(scenario))
        names = ("scenario.json", "sensors.csv", "fused.csv", "plot.csv")
        files = [directory / name for name in names]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["simulate", *map(str, files[:2])]) == 0
            assert main(["fuse", *map(str, files[1:3])]) == 0
            assert main(["evaluate", "--json", str(files[1])]) == 0
            assert main(["plotdata", *map(str, files[2:])]) == 0
        return [path.read_bytes() for path in files[1:]] + [stdout.getvalue().encode()]

    with tempfile.TemporaryDirectory() as tmp:
        assert run(Path(tmp) / "first") == run(Path(tmp) / "second")


FLOAT_MAX = sys.float_info.max


@st.composite
def streams_and_configs(draw):
    """Streams of 1-4 sensors on 1-40 instants at the run's rate, on its ticks or off them, and
    the run's settings.  The largest |reading| R is anything up to 1e308, the bound
    MAX / (16 w max(1, r)²) of the derivative window w and the rate r, a float next to it or
    the bound times a power of 2.  The rows alternate 0 and R, alternate -R and R, step from 0
    to R or hold values of either sign up to R, and some have missing readings."""
    ids = ("rsu", "camera_aw", "camera_drone", "tracker")[: draw(st.integers(1, 4))]
    count = draw(st.integers(1, 40))
    rate = draw(st.floats(1e-3, 1e5) | st.sampled_from([1e-3, 0.1, 1.0, 100.0, 1e5]))
    window = draw(st.integers(1, 200) | st.just(1))
    config = RunConfig(
        resample_hz=rate,
        smooth_window_rsu=draw(st.sampled_from([1, 2])),
        smooth_window_camera=draw(st.sampled_from([1, 5])),
        smooth_window_derivative=window,
        max_gap_s=draw(st.sampled_from([0.5, 1.5 / rate, 1e300])),
    )
    limit = FLOAT_MAX / (16 * window * max(1.0, rate) ** 2)
    largest = draw(
        st.floats(0, 1e308)
        | st.sampled_from([limit, np.nextafter(limit, 0), np.nextafter(limit, np.inf)])
        | st.integers(-4, 40).map(lambda e: min(limit * 2.0**e, FLOAT_MAX))
    )
    cells = len(ids) * count
    k = np.arange(count)
    pattern = draw(st.sampled_from(["alternating", "signed", "step", "any"]))
    if pattern == "alternating":
        frame = np.tile(np.where(k % 2, largest, 0.0), (len(ids), 1))
    elif pattern == "signed":
        frame = np.tile(np.where(k % 2, largest, -largest), (len(ids), 1))
    elif pattern == "step":
        frame = np.tile(np.where(k >= draw(st.integers(0, count)), largest, 0.0), (len(ids), 1))
    else:
        scales = draw(st.lists(st.floats(-1.0, 1.0), min_size=cells, max_size=cells))
        frame = largest * np.reshape(scales, (len(ids), count))
    if draw(st.booleans()):
        missing = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
        frame[np.reshape(missing, frame.shape)] = np.nan
    offsets = st.lists(st.floats(0.0, 0.9), min_size=count, max_size=count)
    offsets = draw(offsets | st.just([0.0] * count))
    times = (k + np.array(offsets)) / rate
    return {s: TimeSeries(times, row) for s, row in zip(ids, frame)}, config


def _outcome(step, *args, **kwargs):
    """``step(*args, **kwargs)``, or the message of the ValueError it raises."""
    try:
        return step(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(streams_and_configs())
# a rate above 4w: a bound short of one factor of the rate would let this acceleration overflow
@example(
    ({"rsu": TimeSeries(np.arange(4) / 100, [-1e305, 1e305, -1e305, 1e305])},
     RunConfig(smooth_window_rsu=1, smooth_window_derivative=1))
)
def test_ingest_builds_the_frame_whenever_a_derivative_may_overflow(case):
    """``ingest``'s counts are the sensor set's, or it raises what the sensor set raises; and it
    skips building the distance frame only when neither the frame nor its derivatives hold an
    infinity."""
    streams, config = case
    expected = _outcome(sensor_set_from_streams, streams, **_sensor_set_keywords(config))
    with mock.patch.object(crossrisk.cli, "_aligned", wraps=_aligned) as built:
        got = _outcome(_ingest_counts, streams, config)
    if isinstance(expected, str):
        assert got == expected
    else:
        present = np.count_nonzero(~np.isnan(expected.distance), axis=1)
        assert got[:2] == (expected.grid, expected.ids)
        assert list(got[2]) == present.tolist()
    if not built.called and not isinstance(got, str):
        _, rows = _smoothed_rows(streams, config.smooth_window_rsu, config.smooth_window_camera)
        _, frame = _aligned(rows, config.resample_hz, config.max_gap_s)
        derivatives = _derivatives(frame, config.resample_hz, config.smooth_window_derivative)
        assert not any(np.isinf(values).any() for values in (frame, *derivatives))


def test_ingest_counts_keep_the_sensor_sets_errors():
    times = np.arange(5) / 100
    streams = {s: TimeSeries(times, np.full(5, np.nan)) for s in ("rsu", "tracker")}
    config = RunConfig(smooth_window_rsu=1)
    grid, ids, counts = _ingest_counts(streams, config)  # all missing: passes
    assert (grid.count, ids, list(counts)) == (5, ("rsu", "tracker"), [0, 0])
    streams["rsu"] = TimeSeries(times, [np.nan, 0.0, 1e308, np.nan, np.nan])
    with pytest.raises(ValueError, match="^rsu: speed must not be infinite$"):
        _ingest_counts(streams, config)
    with pytest.raises(ValueError, match="^nothing to align$"):
        _ingest_counts({"rsu": TimeSeries([], [])}, config)

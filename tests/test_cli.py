"""File formats, configuration and the command-line surface."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import numbers
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossrisk.simulate
from crossrisk import (
    CameraSensorModel,
    DangerParams,
    RangeSensorModel,
    RunConfig,
    ScenarioConfig,
    danger_series,
    evaluate_run,
    fuse_all,
    generate_run,
    load_scenario,
    run_config_from_dict,
    scenario_from_dict,
    sensor_set_from_streams,
)
from crossrisk.cli import main
from crossrisk.io import SensorCsvError, read_sensor_csv, report_to_dict, write_sensor_csv
from crossrisk.metrics import EVALUATION_SOURCES

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
            present = original.present
            merged_present = out.present
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

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fuse", str(tmp_path / "nope.csv"), str(tmp_path / "out.csv")]) == 2

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
        ],
        ids=[
            "unknown_as_safe-string", "danger-int", "danger-list", "threshold-bool",
            "seed-string", "seed-float", "seed-bool", "seed-negative", "config-bad-json",
            "max_gap_s-negative", "config-not-utf8", "scenario-not-utf8",
            "segments-string", "sensor-unknown-key", "danger-unknown-key",
            "config-duplicate", "danger-duplicate", "scenario-duplicate", "sensors-duplicate",
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
        monkeypatch.setattr(crossrisk.simulate, "danger_series", stage)
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
            present = np.count_nonzero(read[sensor_id].present)
            assert present == np.count_nonzero(stream.present)
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
        assert "sensor rsu: samples at 0.0 s and 5e-07 s" in capsys.readouterr().err

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

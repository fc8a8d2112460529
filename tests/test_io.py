"""CSV writers and the recording reader, each against a per-row oracle."""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossrisk.io
import crossrisk.kinematics
import crossrisk.timeseries
from crossrisk import ScenarioConfig, fuse_all, sensor_set_from_streams, simulate_recording
from crossrisk.cli import main
from crossrisk.fusion import CAMERA_AW, CAMERA_DRONE, RSU, TRACKER
from crossrisk.io import (
    FUSED_HEADER,
    SENSOR_COLUMNS,
    SensorCsvError,
    _float_words,
    _signed_ticks,
    plot_csv,
    read_csv_columns,
    read_sensor_csv,
    report_rows,
    reports_to_json,
    write_fused_csv,
    write_plot_csv,
    write_sensor_csv,
)
from crossrisk.metrics import EVALUATION_SOURCES, EvaluationReport
from crossrisk.simulate import CameraSensorModel, generate_run, scenario_from_dict
from crossrisk.timeseries import TimeSeries

GOLDEN_SCENARIO = json.loads(
    (Path(__file__).parent / "golden" / "braking_scenario.json").read_text()
)
EXACT_LIMIT = 2.0**53 / 1e6


def oracle_field(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.6f}"


def oracle_fused_csv(trace, sensor_g) -> str:
    """The fused trace formatted one row at a time with f-strings."""
    n = trace.grid.count
    columns = [trace.grid.times()]
    for sensor_id in (RSU, CAMERA_AW, CAMERA_DRONE, TRACKER):
        series = sensor_g.get(sensor_id)
        columns.append(np.full(n, np.nan) if series is None else series.values)
    columns += [
        trace.distance_fused.values,
        trace.g_distance_fusion.values,
        trace.g_danger_fusion.values,
    ]
    lines = [",".join(FUSED_HEADER)]
    for i in range(n):
        vote = "" if trace.votes_cast[i] == 0 else str(int(trace.dangerous_votes[i]))
        decisions = (trace.decision_distance[i], trace.decision_danger[i], trace.decision_vote[i])
        lines.append(
            ",".join([oracle_field(c[i]) for c in columns] + [vote] + [str(d) for d in decisions])
        )
    return "\n".join(lines) + "\n"


def oracle_sensor_csv(streams) -> str:
    """The sensor recording formatted one row at a time (valid when no instants collide)."""
    merged = np.unique(np.concatenate([s.times for s in streams.values()]))
    lines = [",".join(["timestamp"] + [c for c, _ in SENSOR_COLUMNS])]
    cells = []
    for _, sensor_id in SENSOR_COLUMNS:
        col = np.full(merged.size, np.nan)
        if sensor_id in streams:
            col[np.searchsorted(merged, streams[sensor_id].times)] = streams[sensor_id].values
        cells.append(col)
    for i, t in enumerate(merged):
        lines.append(",".join([oracle_field(t)] + [oracle_field(c[i]) for c in cells]))
    return "\n".join(lines) + "\n"


def oracle_plot_csv(header, columns, threshold) -> str:
    """The melted plot rows written through ``csv.writer`` one row at a time.

    The writer quotes the characters of its line terminator, so it writes
    each row ending in CR LF, which also quotes a cell holding a bare CR,
    and the row then ends in LF alone.
    """
    lines = []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")

    def write(row):
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
        buffer.seek(0)
        buffer.truncate()

    write(["timestamp", "series", "value"])
    numeric = []
    for name, column in zip(header[1:], columns[1:]):
        try:
            [float(cell) for cell in column if cell != ""]
        except ValueError:
            continue
        numeric.append(name)
        for t, cell in zip(columns[0], column):
            if cell != "":
                write([t, name, cell])
    if any(n.startswith(("g_", "danger")) for n in numeric):
        for t in columns[0]:
            write([t, "g_star", f"{threshold:.6f}"])
    return "".join(lines)


def formatted(values) -> list[str]:
    """``values`` as a one-column block, each cell ended by a newline word."""
    newline = np.frombuffer(b"\0\0\0\n", np.uint32)
    words = _float_words(np.asarray(values, dtype=float)[:, None], newline)
    return words.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


special_values = st.one_of(
    st.integers(-(2**20), 2**20).map(lambda k: k / 128),  # exact half-tick ties
    st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) / 1e6),  # nearest doubles to ties
    st.floats(0.999 * EXACT_LIMIT, 1.001 * EXACT_LIMIT),  # both sides of the exact range
    st.floats(-1e-5, 1e-5),
    st.sampled_from([0.0, -0.0, -1e-9, 5e-7, -5e-7, 9.9999995, 1e300, -math.inf]),
)


def _with_neighbours(values):
    """Each of ``values``, or the float just below or just above it."""
    return st.tuples(values, st.sampled_from([-math.inf, 0.0, math.inf])).map(
        lambda pair: float(np.nextafter(*pair)) if pair[1] else pair[0]
    )


tick_values = st.one_of(
    # exact half-tick products (odd multiples of 1/128) and the dyadics around them
    _with_neighbours(
        st.builds(lambda k, n: k / 2**n, st.integers(-(2**45), 2**45), st.integers(0, 60))
    ),
    _with_neighbours(st.integers(-(10**15), 10**15).map(lambda k: (k + 0.5) / 1e6)),
    st.floats(2.0**52 / 1e6, EXACT_LIMIT),  # ulp(a * 1e6) is 1: no half-tick is a float
    st.floats(-2.0**-1022, 2.0**-1022),  # signed zeros and subnormals
)


@st.composite
def float_blocks(draw) -> list[list[float]]:
    """1-5 equal columns of 1-13 values, each around its own magnitude.

    Sometimes one column is at 1e13, past the exact range, which sends the
    whole block to Python; the other columns stay within it.
    """
    rows = draw(st.integers(1, 13))
    in_range = special_values.filter(lambda v: abs(v) < EXACT_LIMIT)

    def column(scale):
        scaled = st.floats(-1.0, 1.0).map(lambda v: v * scale)
        return st.lists(scaled | in_range | st.just(math.nan), min_size=rows, max_size=rows)

    scales = st.sampled_from([1.0, 1e3, 1e6, 1e9])
    columns = draw(st.lists(scales.flatmap(column), min_size=1, max_size=4))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), draw(column(1e13)))
    return columns


class TestFixedPointFormatter:
    @settings(deadline=None)
    @given(st.lists(st.one_of(st.floats(), special_values), min_size=1, max_size=40))
    @example([0.0, -0.0, -1e-9, math.nan, 0.0078125, -0.0234375])
    @example([EXACT_LIMIT - 1e-3, 1.5])
    @example([EXACT_LIMIT, 1.5, -2.5e-7])  # past the limit: the whole column in Python
    def test_column_matches_fstring(self, values):
        assert formatted(values) == [oracle_field(v) for v in values]

    @settings(deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), special_values)
                    .filter(math.isfinite), min_size=1, max_size=40))
    @example([-1e-9, 0.0, 5e-7])
    @example([EXACT_LIMIT, -5e-7])
    def test_ticks_are_the_printed_number(self, values):
        ticks = _signed_ticks(np.array(values, dtype=float)).tolist()
        assert ticks == [int(f"{v:.6f}".replace(".", "")) for v in values]

    @settings(deadline=None, max_examples=500)
    @given(st.lists(tick_values, min_size=1, max_size=20))
    @example([0.0078125, -0.0234375, 2.0**-20])  # exact ties round half-even; a dyadic
    @example([2.5e-6, 3.5e-6, float(np.nextafter(2.5e-6, 0.0)), float(np.nextafter(3.5e-6, 1.0))])
    @example([4600000000.0078125, 2.0**52 / 1e6])  # a tie the product rounds itself
    @example([-0.0, 5e-324, -1e-310, 2.0**-1022])
    def test_ticks_round_half_ticks_as_printf(self, values):
        ticks = _signed_ticks(np.array(values, dtype=float)).tolist()
        assert ticks == [int(("%.6f" % v).replace(".", "")) for v in values]

    @settings(deadline=None, max_examples=200)
    @given(block_rows=st.sampled_from([1, 3, 4]), columns=float_blocks())
    @example(  # 1, 2 and 4 integer digit groups; signed zeros, NaN and ties; rows past 2 blocks
        block_rows=4,
        columns=[
            [0.5, -0.0, 1729000000.25, math.nan, -1e-9, 0.0078125, 12.5, 3.0, 1.0],
            [-1e-9, 1234.5, math.nan, -0.0, 5e-7, -5e-7, 999.9999995, 1000.0, -0.0234375],
            [math.nan] * 9,
        ],
    )
    @example(  # one column past the exact range: the block in Python
        block_rows=3, columns=[[1.5, -2.5e-7, math.nan, 0.1], [EXACT_LIMIT, -1e-9, 2.0, -math.inf]]
    )
    @example(  # a block with no NaN and no sign, then one of only NaN and negatives
        block_rows=2, columns=[[1.5, 0.0078125, math.nan, -2.5e-6], [2.5e-6, 0.0, -0.0, math.nan]]
    )
    @example(  # 4 integer digit groups just below the exact range
        block_rows=3,
        columns=[
            [EXACT_LIMIT - 1e-3, -9.0e9, 1e9],
            [float(np.nextafter(EXACT_LIMIT, 0)), 0.5, -1e-9],
        ],
    )
    @example(  # subnormals beside ties in range; 1e300 and the infinities by Python
        block_rows=2, columns=[[5e-324, 1e300, math.inf], [-1e-310, 0.0078125, -math.inf]]
    )
    def test_blocks_match_fstring(self, block_rows, columns):
        fh = io.BytesIO()
        with mock.patch.object(crossrisk.io, "_BLOCK_ROWS", block_rows), warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on either path
            crossrisk.io._write_rows(fh, [np.array(c, dtype=float) for c in columns])
        cells = [line.split(",") for line in fh.getvalue().decode().split("\n")[:-1]]
        assert cells == [[oracle_field(v) for v in row] for row in zip(*columns)]

    def test_long_column_crosses_blocks(self, tmp_path):
        times = np.arange(10_000) / 100.0 - 0.005
        values = np.where(np.arange(times.size) % 7 == 0, np.nan, np.cos(times) * 3)
        streams = {RSU: TimeSeries(times, values)}
        path = tmp_path / "long.csv"
        write_sensor_csv(path, streams)
        assert path.read_text() == oracle_sensor_csv(streams)


def _recordings():
    """Simulated runs with camera dropouts, a blind AW camera, and one without tracker."""
    blind = {**GOLDEN_SCENARIO, "sensors": {"camera_aw": {"detection_range": 0.01}}}
    runs = {}
    for name, scenario, seed in (("seed1", GOLDEN_SCENARIO, 1), ("seed2", GOLDEN_SCENARIO, 2),
                                 ("blind-aw", blind, 3)):
        config, models = scenario_from_dict({**scenario, "seed": seed})
        runs[name] = generate_run(config, models).raw_streams
    runs["no-tracker"] = {k: v for k, v in runs["seed1"].items() if k != TRACKER}
    return [pytest.param(streams, id=name) for name, streams in runs.items()]


@pytest.mark.parametrize("streams", _recordings())
def test_writers_match_row_oracles(tmp_path, streams):
    recording = tmp_path / "sensors.csv"
    write_sensor_csv(recording, streams)
    assert recording.read_text() == oracle_sensor_csv(streams)

    trace = fuse_all(sensor_set_from_streams(streams))
    fused = tmp_path / "fused.csv"
    write_fused_csv(fused, trace, trace.sensor_g)
    text = fused.read_text()
    assert text == oracle_fused_csv(trace, trace.sensor_g)
    assert ",," in text  # empty fields are exercised
    if TRACKER not in streams:
        assert all(line.split(",")[4] == "" for line in text.splitlines()[1:])

    header = text.splitlines()[0].split(",")
    columns = [list(c) for c in zip(*(line.split(",") for line in text.splitlines()[1:]))]
    plot = tmp_path / "plot.csv"
    write_plot_csv(plot, header, columns, threshold=1.0)
    assert plot.read_text() == oracle_plot_csv(header, columns, 1.0)


def test_plot_rows_quote_special_characters(tmp_path):
    header = ["timestamp", "g_a,b", 'g_"q"', "g_line\nbreak", "plain", "label"]
    columns = [
        ["0.0", "1,5", '"2"', "3\r"],
        ["1", "", "2", "3"],
        ["4", "5", "", "6"],
        ["7", "8", "9", ""],
        ["1.5", "2.5", "3.5", " 4.5\n"],
        ["Safe", "Dangerous", "", "Unknown"],
    ]
    path = tmp_path / "plot.csv"
    write_plot_csv(path, header, columns, threshold=0.5)
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    assert text == oracle_plot_csv(header, columns, 0.5)
    assert '"g_a,b"' in text and '"g_""q"""' in text and '"1,5"' in text and '"3\r"' in text
    # the plot reads back cell for cell, a bare CR included
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    melted = [
        [t, name, cell]
        for name, column in zip(header[1:5], columns[1:5])
        for t, cell in zip(columns[0], column)
        if cell
    ]
    g_star = [[t, "g_star", "0.500000"] for t in columns[0]]
    assert rows == [["timestamp", "series", "value"], *melted, *g_star]


RATES = st.floats(0.5, 3000.0)


@settings(deadline=None, max_examples=40)
@given(
    truth_rate_hz=RATES,
    rsu_rate_hz=RATES,
    camera_rate_hz=RATES,
    duration=st.floats(0.05, 3.0),
    initial_distance=st.floats(1.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
    unlimited_cameras=st.booleans(),
)
def test_simulate_write_read_round_trip(unlimited_cameras, **scenario):
    """Every present sample reads back as its six-decimal text, on its own row."""
    config = ScenarioConfig(initial_speed=0.2, **scenario)
    camera = CameraSensorModel(detection_range=math.inf if unlimited_cameras else 2.5)
    streams = simulate_recording(config, {CAMERA_AW: camera, CAMERA_DRONE: camera})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sensors.csv"
        try:
            write_sensor_csv(path, streams)
        except ValueError as exc:  # two samples of one sensor on one printed timestamp
            assert any(str(exc).startswith(f"sensor {s}: ") for s in streams), exc
            return
        read = read_sensor_csv(path)
    assert set(read) == set(streams)
    for sensor_id, stream in streams.items():
        got = read[sensor_id]
        want_t = [float(f"{t:.6f}") for t in stream.times[~np.isnan(stream.values)]]
        want_v = [float(f"{v:.6f}") for v in stream.values[~np.isnan(stream.values)]]
        assert got.times[~np.isnan(got.values)].tolist() == want_t, sensor_id
        assert got.values[~np.isnan(got.values)].tolist() == want_v, sensor_id


LONG_TRACE = fuse_all(
    sensor_set_from_streams(
        simulate_recording(ScenarioConfig(duration=50.0, initial_distance=4.0, initial_speed=0.05))
    )
)


@pytest.mark.parametrize("fail_at", [1, 2], ids=["first-block", "second-block"])
def test_failed_write_leaves_the_old_target(tmp_path, monkeypatch, fail_at):
    """A writer that fails part-way leaves the old bytes and no stray file behind."""
    assert LONG_TRACE.grid.count > 4096  # more than one block of rows
    target = tmp_path / "fused.csv"
    target.write_bytes(b"old trace\n")
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == fail_at:  # one call a block: call 2 opens the second block
            raise OSError("disk full")
        return _float_words(*args)

    monkeypatch.setattr(crossrisk.io, "_float_words", failing)
    with pytest.raises(OSError, match="disk full"):
        write_fused_csv(target, LONG_TRACE, LONG_TRACE.sensor_g)
    assert target.read_bytes() == b"old trace\n"
    assert [p.name for p in tmp_path.iterdir()] == ["fused.csv"]


def test_in_range_values_are_formatted_with_no_python_per_value(tmp_path, monkeypatch):
    """Only the label tables, once per write, take the per-value text path."""
    sizes = []

    def recording(texts):
        sizes.append(len(texts))
        return text_words(texts)

    text_words = crossrisk.io._text_words
    monkeypatch.setattr(crossrisk.io, "_text_words", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_fused_csv(tmp_path / "fused.csv", LONG_TRACE, LONG_TRACE.sensor_g)
    # the vote count (empty, or 0-4 dangerous votes) and the three decision columns
    assert len(sizes) == 4 and max(sizes) <= 6


def test_completed_write_replaces_the_target_with_the_mode_of_open(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"")
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_bytes(b"old trace\n")
    old.chmod(0o640)
    for target in (fresh, old):
        write_fused_csv(target, LONG_TRACE, LONG_TRACE.sensor_g)
    assert fresh.read_bytes() == old.read_bytes() != b"old trace\n"
    assert fresh.stat().st_mode == plain.stat().st_mode
    assert old.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "old.csv", "plain.csv"]
    with pytest.raises(IsADirectoryError):
        write_sensor_csv(tmp_path, simulate_recording(ScenarioConfig(1.0, 2.0)))


def seed_read_sensor_csv(path):
    """The row parser that ``read_sensor_csv`` replaced, kept as its oracle.

    It gained two rules since: a distance below zero is a fault, and a
    short row is the dialect's "line N" fault, still in file order.
    """

    def parse_float(text, row, column):
        if text == "":
            return math.nan
        try:
            value = float(text)
        except ValueError as exc:
            raise SensorCsvError(f"row {row}: column {column!r}: not a number: {text!r}") from exc
        if not math.isfinite(value):
            raise SensorCsvError(f"row {row}: column {column!r}: non-finite value {text!r}")
        if value < 0 and column != "timestamp":
            raise SensorCsvError(f"row {row}: column {column!r}: negative distance {text!r}")
        return value

    required = ["timestamp", "distance_range", "distance_wheelchair", "distance_drone"]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SensorCsvError("empty file") from None
        if [h.strip() for h in header[: len(required)]] != required:
            raise SensorCsvError(
                f"header must start with {','.join(required)!r}, got {','.join(header)!r}"
            )
        # the first tracker column after the required ones, wherever it stands
        names = [h.strip() for h in header]
        read = [1, 2, 3] + [k for k in range(4, len(names)) if names[k] == "distance_tracker"][:1]
        times = []
        columns = [[] for _ in read]
        for row_no, row in enumerate(reader, start=2):
            if not row or all(cell == "" for cell in row):
                continue
            if len(row) < len(header):
                raise SensorCsvError(
                    f"line {reader.line_num}: {len(row)} fields, the header has {len(header)}"
                )
            t = parse_float(row[0], row_no, "timestamp")
            if math.isnan(t):
                raise SensorCsvError(f"row {row_no}: timestamp must not be empty")
            if times and t <= times[-1]:
                raise SensorCsvError(f"row {row_no}: timestamps must be strictly increasing")
            times.append(t)
            for column, k in zip(columns, read):  # the cells read, left to right
                column.append(parse_float(row[k], row_no, names[k]))
    if not times:
        raise SensorCsvError("file contains no data rows")
    t_arr = np.array(times)
    return {
        sensor_id: TimeSeries(t_arr, np.array(values))
        for (_, sensor_id), values in zip(SENSOR_COLUMNS, columns)
    }


def read_outcome(reader, path):
    """The streams as exact bytes, or the error message."""
    try:
        streams = reader(path)
    except SensorCsvError as exc:
        return str(exc)
    return {k: (s.times.tobytes(), s.values.tobytes()) for k, s in streams.items()}


# cells that read as a number or as missing, and cells that are a fault in a distance column
ODD_CELLS = [" 1.5 ", "\t2", '"2.5"', '""', '"3\n"', "1_0", "-0.000000"]
BAD_CELLS = [
    " ", '" "', '"1,5"', '"a\r\nb"', "nan", "NaN", "-nan", "inf", "-Infinity", "1e400",
    "oops", "0x10", "--1", "-1", " -2.5e-3",
]
NUMBER_CELLS = st.floats(0.0, 500.0).map(lambda v: f"{v:.6f}")
CELLS = st.one_of(NUMBER_CELLS, NUMBER_CELLS, st.just(""), st.sampled_from(ODD_CELLS))
ROW_KINDS = ["data"] * 6 + ["blank", "all-empty", "long"]
FAULTS = ["header", "no data rows", "short", "bad cell", "bad time", "time order"]


@st.composite
def recordings(draw):
    """CSV text of a valid recording with blank, all-empty and long rows and odd cells, and
    about half of the time one fault at a drawn row: a misnamed required column, no data
    rows, a short row, a bad distance or time cell, or a timestamp out of order.
    """
    header = ["timestamp", "distance_range", "distance_wheelchair", "distance_drone"]
    extras = [f"extra{i}" for i in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):  # a tracker among them, or two
        extras.insert(draw(st.integers(0, len(extras))), "distance_tracker")
    header += extras
    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS)))
    if fault == "header":
        header[draw(st.integers(0, 3))] = draw(st.sampled_from(["time", "distance_rsu", ""]))
    if draw(st.booleans()):
        header = [f" {name} " if draw(st.booleans()) else name for name in header]
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), max_size=10))
    if fault == "no data rows":
        kinds = [kind for kind in kinds if kind not in ("data", "long")]
    elif "data" not in kinds:
        kinds.insert(draw(st.integers(0, len(kinds))), "data")
    rows = [k for k, kind in enumerate(kinds) if kind in ("data", "long")]
    at = draw(st.sampled_from(rows)) if rows else None
    lines = [",".join(header)]
    t = 0.0
    for k, kind in enumerate(kinds):
        if kind == "blank":
            lines.append("")
            continue
        if kind == "all-empty":
            lines.append("," * draw(st.integers(1, len(header) + 1)))
            continue
        step = draw(st.sampled_from([0.01, 0.01, 0.01, 0.5]))
        if k == at and fault == "time order":
            step = draw(st.sampled_from([0.0, -0.01]))
        t += step
        time_cell = draw(st.sampled_from(["{:.6f}", "{:.6f}", " {:.6f} ", '"{:.6f}"'])).format(t)
        cells = [time_cell] + [draw(CELLS) for _ in header[1:]]
        if k == at and fault == "bad time":
            cells[0] = draw(st.sampled_from(["", *BAD_CELLS]))
        elif k == at and fault == "bad cell":
            cells[draw(st.integers(1, len(header) - 1))] = draw(st.sampled_from(BAD_CELLS))
        if kind == "long":
            cells += draw(st.lists(CELLS, min_size=1, max_size=2))
        if k == at and fault == "short":
            cells = cells[: draw(st.integers(1, len(header) - 1))]
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


READ_ROWS = crossrisk.io._READ_ROWS
BLOCK_ROWS = st.sampled_from([1, 2, 3, 7, READ_ROWS])


def blocks_of(rows):
    """Tokenize and melt ``rows`` records at a time."""
    return mock.patch.multiple(crossrisk.io, _READ_ROWS=rows, _BLOCK_ROWS=rows)


@settings(deadline=None, max_examples=400)
@given(text=recordings(), block_rows=BLOCK_ROWS)
@example(
    text="timestamp,distance_range,distance_wheelchair,distance_drone\n\n,,,\n0,1,,\n0,2,,\n",
    block_rows=2,
)
@example(
    text="timestamp,distance_range,distance_wheelchair,distance_drone\n0,\"1\n\",,\n1,x,,\n",
    block_rows=1,
)
@example(  # the tracker after an extra column, a second one after it
    text="timestamp,distance_range,distance_wheelchair,distance_drone,frame,distance_tracker,"
    "distance_tracker\n0,1,,,x,2,y\n",
    block_rows=1,
)
def test_reader_matches_the_row_parser(text, block_rows):
    """Same arrays, or the same message with the same row or line, as the row parser.

    Small row blocks put block edges among the blank, short and bad rows.
    """
    with blocks_of(block_rows), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sensors.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = read_outcome(read_sensor_csv, path)
        want = read_outcome(seed_read_sensor_csv, path)
    assert got == want



def test_read_series_are_read_only_and_share_one_times_array(tmp_path):
    """The reader builds its series unchecked: they are what the checked constructor accepts."""
    path = tmp_path / "sensors.csv"
    write_sensor_csv(path, simulate_recording(ScenarioConfig(1.0, 2.0)))
    streams = read_sensor_csv(path)
    assert list(streams) == [sensor for _, sensor in SENSOR_COLUMNS]
    times = streams[RSU].times
    for series in streams.values():
        assert series.times is times
        assert not times.flags.writeable and not series.values.flags.writeable
        checked = TimeSeries(series.times, series.values)
        assert checked.times is series.times and checked.values is series.values
    assert any(np.isnan(series.values).any() for series in streams.values())  # empty cells read

def test_short_row_error_names_its_line(tmp_path):
    path = tmp_path / "sensors.csv"
    path.write_text(
        "timestamp,distance_range,distance_wheelchair,distance_drone,distance_tracker\n"
        '0.0,1.0,"2\n",,1.0\n0.1,1.0\n'  # a quoted line break: row 3 ends on line 4
    )
    for reader in (seed_read_sensor_csv, read_sensor_csv):
        with pytest.raises(SensorCsvError, match=r"^line 4: 2 fields, the header has 5$"):
            reader(path)


def test_row_missing_only_extra_fields_is_rejected(tmp_path):
    path = tmp_path / "sensors.csv"
    path.write_text(
        "timestamp,distance_range,distance_wheelchair,distance_drone,note\n"
        "0.0,1.0,,,start\n0.1,1.0,,\n"
    )
    for reader in (seed_read_sensor_csv, read_sensor_csv):
        with pytest.raises(SensorCsvError, match=r"^line 3: 4 fields, the header has 5$"):
            reader(path)


def test_pipeline_series_share_their_fresh_arrays(tmp_path, monkeypatch):
    """No series or track from reading, smoothing, resampling, scoring or fusion copies arrays."""
    path = tmp_path / "sensors.csv"
    write_sensor_csv(path, simulate_recording(ScenarioConfig(2.0, 2.0)))
    copied = []

    def readonly(a):
        out = readonly.original(a)
        if out is not a:
            copied.append(a)
        return out

    readonly.original = crossrisk.timeseries._readonly
    monkeypatch.setattr(crossrisk.timeseries, "_readonly", readonly)
    monkeypatch.setattr(crossrisk.kinematics, "_readonly", readonly)
    streams = read_sensor_csv(path)
    assert len({id(s.times) for s in streams.values()}) == 1  # one timestamp array
    trace = fuse_all(sensor_set_from_streams(streams))
    assert trace.g_danger_fusion.times is trace.grid.times()
    assert copied == []
    TimeSeries(np.arange(2.0), np.zeros(2))  # a caller's writable arrays are still copied
    assert len(copied) == 2


def test_negative_distance_is_a_recording_fault(tmp_path):
    path = tmp_path / "sensors.csv"
    header = "timestamp,distance_range,distance_wheelchair,distance_drone,distance_tracker\n"
    path.write_text(header + "0.0,1.0,-0.000000,,1.0\n0.1,-2,-1,,1.0\n0.2,x,,,1.0\n")
    # the first fault in the file wins; within a row, the leftmost column's
    message = "row 3: column 'distance_range': negative distance '-2'"
    with pytest.raises(SensorCsvError, match=f"^{message}$"):
        read_sensor_csv(path)
    path.write_text(header + "0.0,1.0,-0.000000,,1.0\n0.1,2,,,-inf\n")
    with pytest.raises(SensorCsvError, match="^row 3: column 'distance_tracker': non-finite"):
        read_sensor_csv(path)
    path.write_text(header + "-1.0,1.0,-0.000000,,1.0\n")  # a negative time is no distance
    assert read_sensor_csv(path)[CAMERA_AW].values.tolist() == [0.0]


def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path):
    """Spreadsheet exports start with a UTF-8 BOM; it changes no stream, plot or line number."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_sensor_csv(plain, simulate_recording(ScenarioConfig(2.0, 2.0)))
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert read_outcome(read_sensor_csv, marked) == read_outcome(read_sensor_csv, plain)
    plots = [tmp_path / "plain-plot.csv", tmp_path / "marked-plot.csv"]
    for source, plot in zip([plain, marked], plots):
        plot_csv(source, plot, 1.0)
    assert plots[1].read_bytes() == plots[0].read_bytes()
    header = "timestamp,distance_range,distance_wheelchair,distance_drone\n"
    marked.write_text("\ufeff" + header + "0.0,1.0,,\n0.1,1.0,,\n0.1,1.0\n", encoding="utf-8")
    with pytest.raises(SensorCsvError, match="^line 4: 2 fields, the header has 4$"):
        read_sensor_csv(marked)
    marked.write_text("\ufeff" + header + "0.0,1.0,,\n0.0,1.0,,\n", encoding="utf-8")
    with pytest.raises(SensorCsvError, match="^row 3: timestamps must be strictly increasing$"):
        read_sensor_csv(marked)


def oracle_plot_of(path, threshold):
    """The plot text of the trace at ``path`` read one row at a time, or the error message."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "timestamp":
            return "plot input must have a leading timestamp column"
        columns = [[] for _ in header]
        for row in reader:
            if not any(row):
                continue
            if len(row) < len(header):
                return f"line {reader.line_num}: {len(row)} fields, the header has {len(header)}"
            for column, cell in zip(columns, row):
                column.append(cell)
    return oracle_plot_csv(header, columns, threshold)


def plot_outcome(path, out, threshold):
    """The bytes ``plot_csv`` writes, decoded, or its error message."""
    try:
        plot_csv(path, out, threshold)
    except SensorCsvError as exc:
        return str(exc)
    return out.read_bytes().decode("utf-8")


PLOT_NAMES = st.sampled_from(
    ["g_a", "danger_b", "plain", "a,b", 'q"uote', "line\r\nbreak", "g_bare\rcr"]
)
PLOT_NUMBERS = st.one_of(
    NUMBER_CELLS, st.just(""), st.sampled_from([" 2.5\r\n", "1.5\r", "1_0", "-inf"])
)
PLOT_CELLS = st.one_of(PLOT_NUMBERS, st.sampled_from(["Safe", '3"', "1,5", "a\r\nb"]))


@st.composite
def wide_traces(draw):
    """CSV text of a wide trace: numeric, label and late-label columns, odd rows and cells."""
    names = draw(st.lists(PLOT_NAMES, min_size=0, max_size=4))
    header = [draw(st.sampled_from(["timestamp"] * 5 + ["time"]))] + names
    n = draw(st.integers(0, 16))
    kinds = [draw(st.sampled_from(["numbers", "late-label", "any"])) for _ in names]
    late = [draw(st.integers(0, max(n - 1, 0))) for _ in names]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for i in range(n):
        kind = draw(st.sampled_from(["data"] * 8 + ["blank", "all-empty", "short", "long"]))
        if kind == "blank":
            writer.writerow([])
            continue
        if kind == "all-empty":
            writer.writerow([""] * draw(st.integers(1, len(header) + 1)))
            continue
        row = [draw(st.one_of(st.just(f"{i / 100:.6f}"), PLOT_CELLS))]
        for column_kind, first_label in zip(kinds, late):
            if column_kind == "late-label" and i == first_label:
                row.append("Dangerous")
            else:
                row.append(draw(PLOT_CELLS if column_kind == "any" else PLOT_NUMBERS))
        if kind == "short":
            row = row[: draw(st.integers(0, len(header) - 1))] if len(header) > 1 else []
        elif kind == "long":
            row += draw(st.lists(PLOT_CELLS, min_size=1, max_size=2))
        writer.writerow(row)
    return buffer.getvalue()


@settings(deadline=None, max_examples=300)
@given(text=wide_traces(), block_rows=BLOCK_ROWS, threshold=st.sampled_from([0.5, 1.25]))
@example(text="timestamp,g_a\n0,1\n1,x\n", block_rows=1, threshold=0.5)
@example(text="time,g_a\n0,1\n1,2\n1\n", block_rows=1, threshold=0.5)
@example(text='timestamp,"g_\ra"\n0.0,1\n"1.0\r",2\n', block_rows=1, threshold=0.5)
@example(text="timestamp,g_a\n0,1\n,2\n1,3\n", block_rows=1, threshold=0.5)  # empty first cell
def test_plot_csv_matches_the_row_oracle(text, block_rows, threshold):
    """Same bytes or the same message as melting the whole trace one row at a time.

    Small row blocks put a column's first label, short rows and the edges
    of blank runs in later blocks.  The adapter over ``read_csv_columns``
    and a melt in place give the same bytes.
    """
    with blocks_of(block_rows), tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "trace.csv", Path(tmp) / "plot.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = oracle_plot_of(path, threshold)
        assert plot_outcome(path, out, threshold) == want
        if want.startswith("timestamp,series,value\n"):
            write_plot_csv(out, *read_csv_columns(path), threshold)
            assert out.read_bytes().decode("utf-8") == want
            assert plot_outcome(path, path, threshold) == want


def test_plotdata_in_place_at_the_real_block_size(tmp_path):
    trace, out = tmp_path / "fused.csv", tmp_path / "plot.csv"
    write_fused_csv(trace, LONG_TRACE, LONG_TRACE.sensor_g)
    assert LONG_TRACE.grid.count > crossrisk.io._BLOCK_ROWS > READ_ROWS
    copy = tmp_path / "copy.csv"
    shutil.copyfile(trace, copy)
    assert main(["plotdata", str(trace), str(out)]) == 0
    assert main(["plotdata", str(copy), str(copy)]) == 0
    assert copy.read_bytes() == out.read_bytes()
    assert out.read_text() == oracle_plot_of(trace, 1.0)


def test_label_after_the_first_block_is_not_plotted(tmp_path):
    late = 3 * READ_ROWS + 10
    rows = [f"{i / 100:.6f},{i % 7}.5,{i % 5}" for i in range(late + 100)]
    rows[late] = f"{late / 100:.6f},Safe,1"
    trace, out = tmp_path / "trace.csv", tmp_path / "plot.csv"
    trace.write_text("timestamp,g_late,g_number\n" + "\n".join(rows) + "\n")
    plot_csv(trace, out, 1.0)
    text = out.read_text()
    assert ",g_late," not in text and text.count(",g_number,") == len(rows)
    assert text == oracle_plot_of(trace, 1.0)


def test_short_row_after_the_first_block_names_its_line(tmp_path):
    header = "timestamp,distance_range,distance_wheelchair,distance_drone\n"
    short = 3 * READ_ROWS + 10
    rows = [f"{i / 100:.6f},2.0,," for i in range(short + 100)]
    rows[3] = '0.030000,2.0,"1\n",'  # a quoted line break: later records end one line lower
    rows[short] = f"{short / 100:.6f},2.0"
    path = tmp_path / "sensors.csv"
    path.write_text(header + "\n".join(rows) + "\n")
    message = f"line {short + 3}: 2 fields, the header has 4"
    assert read_outcome(seed_read_sensor_csv, path) == message
    with pytest.raises(SensorCsvError, match=f"^{message}$"):
        read_sensor_csv(path)
    assert plot_outcome(path, tmp_path / "plot.csv", 1.0) == message


def test_blank_rows_around_a_block_edge_keep_row_numbers(tmp_path):
    header = "timestamp,distance_range,distance_wheelchair,distance_drone\n"
    rows = [f"{i / 100:.6f},2.0,," for i in range(2 * READ_ROWS)]
    rows[READ_ROWS - 2 : READ_ROWS + 3] = ["", ",,,", "", ",", ""]  # both sides of the first edge
    path = tmp_path / "sensors.csv"
    path.write_text(header + "\n".join(rows) + "\n")
    assert read_outcome(read_sensor_csv, path) == read_outcome(seed_read_sensor_csv, path)
    rows[READ_ROWS + 50] = f"{(READ_ROWS + 50) / 100:.6f},oops,,"
    path.write_text(header + "\n".join(rows) + "\n")
    message = f"row {READ_ROWS + 52}: column 'distance_range': not a number: 'oops'"
    assert read_outcome(seed_read_sensor_csv, path) == message
    assert read_outcome(read_sensor_csv, path) == message


@pytest.mark.parametrize(
    "case", ["empty first cell", "blank and all-empty", "last cell of a block", "no header fields"]
)
def test_blocks_off_the_dense_path_at_the_real_block_size(tmp_path, case):
    """A block whose first column has an empty cell, or that lacks a header column, keeps the
    row rules after dense blocks: compared with the row oracles as a recording and a plot input.
    """
    rows = [f"{i / 1000:.6f},{i % 7}.5,{i % 5},{i % 3}" for i in range(3 * READ_ROWS)]
    late, fault, head = READ_ROWS + 20, None, ""
    if case == "empty first cell":  # a plot melts it with an empty timestamp; a recording fails
        rows[late] = ",1.5,2,3"
        fault = f"row {late + 2}: timestamp must not be empty"
    elif case == "blank and all-empty":  # in two blocks: the all-empty row is full width
        rows.insert(late, "")
        rows.insert(late + READ_ROWS, ",,,")
    elif case == "last cell of a block":  # the only empty cell of a dense column
        rows[2 * READ_ROWS - 1] = rows[2 * READ_ROWS - 1].rpartition(",")[0] + ","
    else:
        head, fault = "\n", "header must start with "
    recording, trace = tmp_path / "sensors.csv", tmp_path / "trace.csv"
    recording.write_text(head + ",".join(crossrisk.io._REQUIRED_HEADER) + "\n" + "\n".join(rows))
    trace.write_text(head + "timestamp,g_a,b,danger_c\n" + "\n".join(rows))
    got = read_outcome(read_sensor_csv, recording)
    assert got == read_outcome(seed_read_sensor_csv, recording)
    assert isinstance(got, dict) if fault is None else got.startswith(fault)
    if head:  # the row oracle indexes the header
        assert read_csv_columns(trace) == ([], [])
        message = "plot input must have a leading timestamp column"
        assert plot_outcome(trace, tmp_path / "plot.csv", 1.0) == message
    else:
        assert plot_outcome(trace, tmp_path / "plot.csv", 1.0) == oracle_plot_of(trace, 1.0)


def test_a_fault_before_a_short_row_in_a_later_block_is_reported_first(tmp_path):
    """Plain file order: a bad cell or header is not hidden by a later short row."""
    rows = [f"{i / 100:.6f},2.0,," for i in range(3 * READ_ROWS)]
    rows[2 * READ_ROWS + 5] = "9.0,2.0"
    rows[5] = "0.050000,abc,,"  # in the first block
    path, header = tmp_path / "sensors.csv", "timestamp,distance_range,distance_wheelchair,"
    for header_end, message in [
        ("distance_drone", "row 7: column 'distance_range': not a number: 'abc'"),
        ("drone", f"header must start with {','.join(crossrisk.io._REQUIRED_HEADER)!r}, got "),
    ]:
        path.write_text(header + header_end + "\n" + "\n".join(rows) + "\n")
        for reader in (seed_read_sensor_csv, read_sensor_csv):
            assert read_outcome(reader, path).startswith(message)
    path.write_text("time,g_a,g_b,g_c\n" + "\n".join(rows) + "\n")
    message = "plot input must have a leading timestamp column"
    assert oracle_plot_of(path, 1.0) == message
    assert plot_outcome(path, tmp_path / "plot.csv", 1.0) == message


REPORT_FLOATS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(),  # NaN, the infinities, subnormals, 1e308
    st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 0.5e-6, 1.5e-6, 1e16, 1.7976931348623157e308]),
)
REPORTS = st.builds(
    EvaluationReport,
    rmse=st.one_of(st.none(), REPORT_FLOATS),
    accuracy=REPORT_FLOATS,
    precision=REPORT_FLOATS,
    recall=REPORT_FLOATS,
    tp=st.integers(0, 2**70),
    fp=st.integers(0, 10**6),
    tn=st.integers(0, 10**6),
    fn=st.integers(0, 10**6),
    evaluated_points=st.integers(0, 10**6),
    excluded_points=st.integers(0, 10**6),
)


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(st.sampled_from(EVALUATION_SOURCES), st.one_of(st.none(), REPORTS)))
@example({})
@example({source: None for source in EVALUATION_SOURCES})  # all insufficient data
def test_reports_json_matches_the_indenting_encoder(reports):
    """The C encoder's rows, laid out by hand, read as ``json.dumps(rows, indent=2)``."""
    assert reports_to_json(reports) == json.dumps(report_rows(reports), indent=2) + "\n"

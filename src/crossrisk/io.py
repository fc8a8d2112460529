"""On-disk formats: sensor recordings, fused traces, reports, plot data.

All numeric fields are serialized with six fractional digits and plain
``\\n`` line endings so identical inputs always produce byte-identical
files.  Empty CSV fields mean "missing".
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .danger import _DECISIONS
from .fusion import CAMERA_AW, CAMERA_DRONE, RSU, TRACKER, FusionTrace
from .metrics import (
    DANGER_FUSION,
    DISTANCE_FUSION,
    EVALUATION_SOURCES,
    VOTING_FUSION,
    EvaluationReport,
)
from .timeseries import TimeSeries


class SensorCsvError(ValueError):
    """Malformed sensor recording: bad header, numerics or timestamps."""


SENSOR_COLUMNS = (
    ("distance_range", RSU),
    ("distance_wheelchair", CAMERA_AW),
    ("distance_drone", CAMERA_DRONE),
    ("distance_tracker", TRACKER),
)
_REQUIRED_HEADER = ["timestamp", "distance_range", "distance_wheelchair", "distance_drone"]

FUSED_HEADER = [
    "timestamp",
    "g_rsu",
    "g_cam_aw",
    "g_cam_drone",
    "g_tracker",
    "distance_fused",
    "g_distance_fusion",
    "g_danger_fusion",
    "vote",
    "decision_distance",
    "decision_danger",
    "decision_vote",
]

TABLE_LABELS = {
    RSU: "Range sensors",
    CAMERA_AW: "AW camera",
    CAMERA_DRONE: "Drone camera",
    DISTANCE_FUSION: "Distance fusion",
    DANGER_FUSION: "Danger fusion",
    VOTING_FUSION: "Voting fusion",
}


# Rows are formatted this many at a time, which bounds the writers'
# transient memory to a few MiB whatever the length of the trace.
_BLOCK_ROWS = 4096
# At and above this magnitude |x| * 1e6 is no longer an exact float64 integer.
_EXACT_LIMIT = 2.0**53 / 1e6


def _digit_words(pattern) -> np.ndarray:
    """Table of 4-byte words over 0..999; ``pattern(i)`` gives each word's bytes."""
    return np.frombuffer(b"".join(pattern(i) for i in range(1000)), np.uint32)


# A formatted row is a sequence of 4-byte words holding up to three digits
# plus a sign, point or separator byte; unused bytes are NUL and are deleted
# when the row is written.  Leading zeros of the integer part are NUL too.
_INT_FULL = _digit_words(lambda i: b"\0%03d" % i)
_INT_UNITS = _digit_words(lambda i: (b"%4d" % i).replace(b" ", b"\0"))
_INT_TOP = _digit_words(lambda i: (b"%4d" % i).replace(b" ", b"\0") if i else b"\0" * 4)
_FRAC_HIGH = _digit_words(lambda i: b".%03d" % i)
_FRAC_LOW = _digit_words(lambda i: b"%03d\0" % i)
_MINUS = np.frombuffer(b"-\0\0\0", np.uint32)[0]
_NUL = np.uint32(0)
_DECISION_LABELS = [str(d).encode() for d in _DECISIONS]


def _micro_ticks(a: np.ndarray) -> np.ndarray:
    """Non-negative ``a`` below ``_EXACT_LIMIT`` in integer micro-units, as ``%.6f`` rounds it.

    ``a * 1e6`` is off by at most half an ulp, which moves the rounding
    only of a value that close to a half-tick; those few values (exact
    ties such as ``k/128`` among them) are rounded by Python instead.
    """
    scaled = a * 1e6
    ticks = np.rint(scaled).astype(np.int64)
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= np.maximum(1e-7, scaled * 1e-15)
    for i in np.flatnonzero(near_half):
        ticks[i] = int(("%.6f" % a[i]).replace(".", ""))
    return ticks


def _signed_ticks(x: np.ndarray) -> np.ndarray:
    """Finite ``x`` as the signed integer micro-ticks its ``%.6f`` text reads as."""
    a = np.abs(x)
    if np.all(a < _EXACT_LIMIT):
        ticks = _micro_ticks(a)
        return np.where(np.signbit(x), -ticks, ticks)
    return np.array([int(("%.6f" % v).replace(".", "")) for v in x.tolist()], dtype=object)


def _text_words(texts: Sequence[bytes]) -> np.ndarray:
    """Byte strings as rows of NUL-padded words."""
    width = -(-max(len(t) for t in texts) // 4)
    return np.array(texts, dtype=f"S{4 * width}").view(np.uint32).reshape(len(texts), width)


def _float_words(x: np.ndarray, sep: bytes) -> list[np.ndarray]:
    """``f"{v:.6f}"`` of every value followed by ``sep`` (NaN: ``sep`` alone), as word columns.

    The sign comes from the sign bit, so ``-0.0`` and ``-1e-9`` print
    ``-0.000000``.  A column holding a value at or beyond ``_EXACT_LIMIT``
    (or an infinity) is formatted wholly by Python.
    """
    missing = np.isnan(x)
    a = np.abs(np.where(missing, 0.0, x))
    if not np.all(a < _EXACT_LIMIT):
        texts = [sep if m else b"%.6f%s" % (v, sep) for v, m in zip(x.tolist(), missing.tolist())]
        return list(_text_words(texts).T)
    whole, frac = np.divmod(_micro_ticks(a), 1_000_000)
    high, low = np.divmod(frac, 1000)
    sep_word = np.frombuffer(sep.rjust(4, b"\0"), np.uint32)[0]
    words = [_FRAC_HIGH.take(high), _FRAC_LOW.take(low) | sep_word]
    rest, group = np.divmod(whole, 1000)
    words.insert(0, np.where(rest > 0, _INT_FULL.take(group), _INT_UNITS.take(group)))
    while rest.any():
        rest, group = np.divmod(rest, 1000)
        words.insert(0, np.where(rest > 0, _INT_FULL.take(group), _INT_TOP.take(group)))
    words[0] = words[0] | np.where(np.signbit(x), _MINUS, _NUL)
    words[-1] = np.where(missing, sep_word, words[-1])
    return [np.where(missing, _NUL, w) for w in words[:-1]] + words[-1:]


def _write_rows(
    fh,
    floats: Sequence[np.ndarray],
    labels: Sequence[tuple[np.ndarray, Sequence[bytes]]] = (),
) -> None:
    """Write CSV rows of equal-length columns: ``floats`` as ``%.6f``, then labels.

    A label column is a ``(codes, texts)`` pair printing ``texts[code]``
    per row.  Each block of rows becomes one word matrix whose NUL bytes
    are deleted on the way out, so no Python code runs per row.
    """
    seps = [b","] * (len(floats) + len(labels) - 1) + [b"\n"]
    tables = [
        _text_words([text + sep for text in texts])
        for (_, texts), sep in zip(labels, seps[len(floats) :])
    ]
    for start in range(0, floats[0].size, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        words = []
        for column, sep in zip(floats, seps):
            words += _float_words(column[block], sep)
        for (codes, _), table in zip(labels, tables):
            words += list(table[codes[block]].T)
        fh.write(np.stack(words, axis=1).tobytes().translate(None, b"\0"))


def _parse_float(text: str, row: int, column: str) -> float:
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError as exc:
        raise SensorCsvError(f"row {row}: column {column!r}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise SensorCsvError(f"row {row}: column {column!r}: non-finite value {text!r}")
    return value


def read_sensor_csv(path: str | Path) -> dict[str, TimeSeries]:
    """Read a sensor recording into per-sensor distance streams.

    The header must start with ``timestamp,distance_range,
    distance_wheelchair,distance_drone``; the ``distance_tracker`` column
    is optional (recordings without ground truth can still be fused) and
    any further columns are ignored.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SensorCsvError("empty file") from None
        if [h.strip() for h in header[: len(_REQUIRED_HEADER)]] != _REQUIRED_HEADER:
            raise SensorCsvError(
                f"header must start with {','.join(_REQUIRED_HEADER)!r}, got {','.join(header)!r}"
            )
        has_tracker = len(header) > 4 and header[4].strip() == "distance_tracker"
        n_cols = 5 if has_tracker else 4

        times: list[float] = []
        columns: list[list[float]] = [[] for _ in range(n_cols - 1)]
        for row_no, row in enumerate(reader, start=2):
            if not row or all(cell == "" for cell in row):
                continue
            if len(row) < n_cols:
                raise SensorCsvError(f"row {row_no}: expected at least {n_cols} fields")
            t = _parse_float(row[0], row_no, "timestamp")
            if math.isnan(t):
                raise SensorCsvError(f"row {row_no}: timestamp must not be empty")
            if times and t <= times[-1]:
                raise SensorCsvError(
                    f"row {row_no}: timestamps must be strictly increasing"
                )
            times.append(t)
            for i in range(1, n_cols):
                columns[i - 1].append(_parse_float(row[i], row_no, header[i].strip()))
    if not times:
        raise SensorCsvError("file contains no data rows")

    t_arr = np.array(times)
    streams: dict[str, TimeSeries] = {}
    for (column, sensor_id), values in zip(SENSOR_COLUMNS, columns):
        streams[sensor_id] = TimeSeries(t_arr, np.array(values))
    return streams


def write_sensor_csv(path: str | Path, streams: Mapping[str, TimeSeries]) -> None:
    """Write per-sensor distance streams as one merged recording.

    Streams may be sampled at different rates; rows are the sorted union
    of all sample instants, with empty fields where a sensor has no
    sample (or a missing one) at that instant.  Instants that print as
    the same six-decimal timestamp share one row, so the file reads back
    with strictly increasing timestamps; a sensor with two samples on
    one such row is a ``ValueError`` naming the sensor.
    """
    times = np.concatenate([s.times for s in streams.values()])
    order = np.argsort(times, kind="stable")
    ticks = _signed_ticks(times)[order]
    new_row = np.r_[True, ticks[1:] != ticks[:-1]]
    row_of = np.empty(times.size, np.int64)
    row_of[order] = np.cumsum(new_row) - 1
    sizes = [s.times.size for s in streams.values()]
    rows_of = dict(zip(streams, np.split(row_of, np.cumsum(sizes)[:-1])))
    columns = [times[order][new_row]]
    for _, sensor_id in SENSOR_COLUMNS:
        column = np.full(columns[0].size, np.nan)
        if sensor_id in streams:
            rows = rows_of[sensor_id]
            shared = np.flatnonzero(np.diff(rows) == 0)
            if shared.size:
                t0, t1 = streams[sensor_id].times[shared[0] : shared[0] + 2].tolist()
                raise ValueError(
                    f"sensor {sensor_id}: samples at {t0!r} s and {t1!r} s would "
                    "share one six-decimal timestamp"
                )
            column[rows] = streams[sensor_id].values
        columns.append(column)
    with open(path, "wb") as fh:
        fh.write((",".join(["timestamp"] + [c for c, _ in SENSOR_COLUMNS]) + "\n").encode())
        _write_rows(fh, columns)


def write_fused_csv(
    path: str | Path,
    trace: FusionTrace,
    sensor_g: Mapping[str, TimeSeries | None],
) -> None:
    """Write the per-instant fusion trace.

    ``sensor_g`` maps sensor ids to their danger-score series (``None``
    for a sensor absent from the recording, e.g. no tracker).  The
    ``vote`` column carries the number of DANGEROUS votes among the
    sensors that voted, empty when none did.
    """
    times = trace.grid.times()
    floats = [times]
    for sensor_id in (RSU, CAMERA_AW, CAMERA_DRONE, TRACKER):
        series = sensor_g.get(sensor_id)
        floats.append(np.full(times.size, np.nan) if series is None else series.values)
    floats += [
        trace.distance_fused.values,
        trace.g_distance_fusion.values,
        trace.g_danger_fusion.values,
    ]
    # count code 0 prints empty (nobody voted), code k + 1 prints k
    count_codes = np.where(trace.votes_cast == 0, 0, trace.dangerous_votes + 1)
    count_labels = [b""] + [b"%d" % k for k in range(count_codes.max(initial=0))]
    labels = [(count_codes, count_labels)] + [
        (codes, _DECISION_LABELS)
        for codes in (trace.distance_codes, trace.danger_codes, trace.vote_codes)
    ]
    with open(path, "wb") as fh:
        fh.write((",".join(FUSED_HEADER) + "\n").encode())
        _write_rows(fh, floats, labels)


def read_csv_columns(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read any CSV as a header plus string columns (for melting).

    Blank lines are skipped; a row shorter than the header is an error.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SensorCsvError("empty file") from None
        columns: list[list[str]] = [[] for _ in header]
        for row in reader:
            if len(row) < len(columns):
                if not row:
                    continue
                raise SensorCsvError(
                    f"line {reader.line_num}: {len(row)} fields, the header has {len(header)}"
                )
            for column, cell in zip(columns, row):
                column.append(cell)
    return header, columns


def write_plot_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence[str]],
    threshold: float | None = None,
) -> None:
    """Melt a wide trace into long ``timestamp,series,value`` rows.

    Only numeric columns are emitted (decision labels are not plottable
    values); when ``threshold`` is given and the input carries danger
    scores, a constant ``g_star`` series is appended as the reference
    line.
    """
    if not header or header[0] != "timestamp":
        raise SensorCsvError("plot input must have a leading timestamp column")
    timestamps = _csv_fields(columns[0] if columns else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,series,value\n")
        numeric_series = []
        for name, column in zip(header[1:], columns[1:]):
            if all(_is_numeric_or_empty(cell) for cell in column):
                numeric_series.append(name)
                infix = f",{_csv_fields([name])[0]},"
                cells = _csv_fields(column)
                for start in range(0, min(len(timestamps), len(cells)), _BLOCK_ROWS):
                    block = slice(start, start + _BLOCK_ROWS)
                    rows = zip(timestamps[block], cells[block])
                    fh.write("".join([t + infix + c + "\n" for t, c in rows if c]))
        has_scores = any(name.startswith("g_") or name.startswith("danger") for name in numeric_series)
        if threshold is not None and has_scores:
            suffix = f",g_star,{threshold:.6f}\n"
            for start in range(0, len(timestamps), _BLOCK_ROWS):
                fh.write("".join([t + suffix for t in timestamps[start : start + _BLOCK_ROWS]]))


def _csv_fields(cells: Sequence[str]) -> Sequence[str]:
    """``cells`` as :mod:`csv` writes them, quoting any that holds a special character."""
    joined = "".join(cells)
    if not any(ch in joined for ch in ',"\r\n'):
        return cells
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quoted = []
    for cell in cells:
        if any(ch in cell for ch in ',"\r\n'):
            writer.writerow([cell])
            cell = buffer.getvalue()[:-1]
            buffer.seek(0)
            buffer.truncate()
        quoted.append(cell)
    return quoted


def _is_numeric_or_empty(cell: str) -> bool:
    if cell == "":
        return True
    try:
        float(cell)
    except ValueError:
        return False
    return True


def report_to_dict(source: str, report: EvaluationReport | None) -> dict:
    """JSON-ready representation of one evaluation row."""
    if report is None:
        return {"source": source, "error": "insufficient data"}
    return {
        "source": source,
        "rmse": None if report.rmse is None else round(report.rmse, 6),
        "accuracy": round(report.accuracy, 6),
        "precision": round(report.precision, 6),
        "recall": round(report.recall, 6),
        "tp": report.tp,
        "fp": report.fp,
        "tn": report.tn,
        "fn": report.fn,
        "evaluated_points": report.evaluated_points,
        "excluded_points": report.excluded_points,
    }


def reports_to_json(reports: Mapping[str, EvaluationReport | None]) -> str:
    """Serialize evaluation rows in canonical source order."""
    rows = [
        report_to_dict(source, reports[source])
        for source in EVALUATION_SOURCES
        if source in reports
    ]
    return json.dumps(rows, indent=2) + "\n"


def reports_to_table(reports: Mapping[str, EvaluationReport | None]) -> str:
    """Aligned text table with one row per sensor/fusion source."""
    rows = [("Source/Fusion", "RMSE", "Accuracy", "Recall", "Precision")]
    for source in EVALUATION_SOURCES:
        if source not in reports:
            continue
        report = reports[source]
        label = TABLE_LABELS[source]
        if report is None:
            rows.append((label, "-", "insufficient", "-", "-"))
            continue
        rows.append(
            (
                label,
                "-" if report.rmse is None else f"{report.rmse:.3f}",
                f"{report.accuracy:.2f}",
                f"{report.recall:.2f}",
                f"{report.precision:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            row[i].rjust(widths[i]) for i in range(1, 5)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"

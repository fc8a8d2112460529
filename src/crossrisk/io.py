"""On-disk formats: sensor recordings, fused traces, reports, plot data.

All numeric fields are serialized with six fractional digits and plain
``\\n`` line endings so identical inputs always produce byte-identical
files.  Empty CSV fields mean "missing".
"""

from __future__ import annotations

import collections
import contextlib
import csv
import json
import math
import os
import stat
from itertools import compress, islice
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

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
from .timeseries import TimeSeries, _frozen


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


# Rows are formatted this many at a time, which bounds the writers' transient
# memory to a few MiB whatever the length of the trace.
_BLOCK_ROWS = 4096
# Records are tokenized this many at a time: with 4096 row lists alive, the garbage
# collector swept the whole heap about once per plotdata of a 60 001-row trace.
_READ_ROWS = 512
# At and above this magnitude |x| * 1e6 is no longer an exact float64 integer.
_EXACT_LIMIT = 2.0**53 / 1e6


def _digit_words(pattern) -> np.ndarray:
    """Table of 4-byte words over 0..999; ``pattern(i)`` gives each word's bytes."""
    return np.frombuffer(b"".join(pattern(i) for i in range(1000)), np.uint32)


# A block of rows is formatted row-major as 4-byte words of up to three digits plus a sign,
# point or separator byte; unused bytes and leading zeros are NUL, deleted on writing.
_INT_FULL = _digit_words(lambda i: b"\0%03d" % i)
_INT_UNITS = _digit_words(lambda i: (b"%4d" % i).replace(b" ", b"\0"))
_INT_TOP = _digit_words(lambda i: (b"%4d" % i).replace(b" ", b"\0") if i else b"\0" * 4)
_FRAC_HIGH = _digit_words(lambda i: b".%03d" % i)
_FRAC_LOW = _digit_words(lambda i: b"%03d\0" % i)
_MINUS = np.frombuffer(b"-\0\0\0", np.uint32)[0]
_DECISION_LABELS = [str(d).encode() for d in _DECISIONS]


def _micro_ticks(a: np.ndarray) -> np.ndarray:
    """Non-negative ``a`` below ``_EXACT_LIMIT`` in integer micro-units, as ``%.6f`` rounds it.

    A half-tick ``p = a * 1e6`` rounds by the sign of the exact ``a * 1e6 - p`` (Dekker's
    product, ``a`` split at 2**27 + 1), half-even at zero; from 2**52 no half-tick is a float.
    """
    p = a * 1e6
    ticks = np.rint(p)
    tie = np.flatnonzero(np.abs(p - ticks) == 0.5)
    x, p = a.flat[tie], p.flat[tie]
    high = x * 134217729.0 - (x * 134217729.0 - x)
    e = (high * 1e6 - p) + (x - high) * 1e6
    ticks.flat[tie] = np.where(e == 0, ticks.flat[tie], p + np.copysign(0.5, e))
    return ticks.astype(np.int64)


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


def _float_words(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """``f"{v:.6f}"`` of every value followed by its column's separator (NaN: the separator alone).

    ``x`` is a ``(rows, columns)`` block, ``seps`` a ``(columns,)`` array of words ending in
    each separator; the ``(rows, columns, words)`` result is in written order.  The sign bit
    gives the sign (``-1e-9``: ``-0.000000``); a block reaching ``_EXACT_LIMIT`` goes to Python.
    """
    missing = np.isnan(x)
    a = np.abs(x)
    a[missing] = 0.0
    if not np.all(a < _EXACT_LIMIT):
        texts = [b"" if m else b"%.6f" % v for v, m in zip(x.ravel().tolist(), missing.flat)]
        numbers = _text_words(texts).reshape(*x.shape, -1)
        return np.concatenate([numbers, np.broadcast_to(seps[:, None], (*x.shape, 1))], axis=2)
    # q = x // k; x - q * k: int64 divmod takes no fast path for a scalar divisor
    ticks = _micro_ticks(a)
    whole = ticks // 1_000_000
    frac = ticks - whole * 1_000_000
    high = frac // 1000
    words = [_FRAC_HIGH.take(high), _FRAC_LOW.take(frac - high * 1000) | seps]
    units = _INT_UNITS
    while whole.max(initial=0) >= 1000:  # a group below the block's widest top group
        rest = whole // 1000
        group = whole - rest * 1000
        words.insert(0, np.where(rest > 0, _INT_FULL.take(group), units.take(group)))
        whole, units = rest, _INT_TOP
    words.insert(0, units.take(whole) | np.signbit(x) * _MINUS)  # unmasked: scores are often < 0
    if missing.any():
        words = [np.where(missing, 0, w) for w in words[:-1]] + [np.where(missing, seps, words[-1])]
    return np.stack(words, axis=2)


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
    float_seps = np.frombuffer(b"".join(s.rjust(4, b"\0") for s in seps[: len(floats)]), np.uint32)
    tables = [
        _text_words([text + sep for text in texts])
        for (_, texts), sep in zip(labels, seps[len(floats) :])
    ]
    for start in range(0, floats[0].size, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        words = _float_words(np.stack([column[block] for column in floats], axis=1), float_seps)
        rows = [words.reshape(words.shape[0], -1)]
        rows += [table.take(codes[block], axis=0) for (codes, _), table in zip(labels, tables)]
        fh.write(np.hstack(rows).tobytes().translate(None, b"\0"))


@contextlib.contextmanager
def _replacing(path: str | Path, mode: str = "wb", **open_kwargs):
    """Open a file beside ``path`` that replaces it once complete; on an exception, remove it.

    A target that is no regular file (``/dev/stdout``, a pipe) is opened in place.
    """
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    # realpath only for a link: it costs a system call for each part of the path
    directory, name = os.path.split(os.path.realpath(path) if os.path.islink(path) else path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, **open_kwargs)  # created as open() creates the target
    except OSError as exc:  # name the output, not its temporary file
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        _move_over(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _move_over(source: str | Path, path: str | Path) -> None:
    """Rename ``source`` over ``path``, a symlink's target rather than the link, keeping its mode."""
    target = os.path.realpath(path) if os.path.islink(path) else path
    with contextlib.suppress(FileNotFoundError):  # a new file keeps the mode open() gave it
        os.chmod(source, stat.S_IMODE(os.stat(target).st_mode))
    try:
        os.replace(source, target)
    except OSError as exc:  # a directory in the way, say: name the output, not the moved file
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None


def _parse_column(cells: Sequence[str]) -> np.ndarray:
    """CSV cells as floats, an empty cell as NaN; a ValueError on any cell ``float()`` rejects."""
    filled = map({"": "nan"}.get, cells, cells) if "" in cells else cells
    return np.fromiter(map(float, filled), float, len(cells))


def read_sensor_csv(path: str | Path) -> dict[str, TimeSeries]:
    """Read a sensor recording into per-sensor distance streams.

    The header must start with ``timestamp,distance_range,
    distance_wheelchair,distance_drone``; the ``distance_tracker`` column
    is optional (recordings without ground truth can still be fused) and
    any further columns are ignored.  Rows follow :func:`_blocks`; an
    error names the row (the CSV record, the header being row 1).
    Blocks of rows become floats as they arrive; each check then runs
    once over whole columns, and only a failed one re-reads the file.
    """
    blocks = _blocks(path)
    names = [name.strip() for name in next(blocks)]
    names = names[: 5 if names[4:5] == ["distance_tracker"] else 4]
    parts: list[list[np.ndarray]] = [[] for _ in names]
    empty = [0] * len(names)
    if names[:4] == _REQUIRED_HEADER:
        try:
            for block in blocks:
                for k, cells in enumerate(block[: len(names)]):
                    parts[k].append(_parse_column(cells))
                    empty[k] += cells.count("")
        except ValueError:  # a bad cell, a short row or a read error
            pass
        else:
            times, *distances = (np.concatenate(part or [np.empty(0)]) for part in parts)
            rising = times.size and np.isfinite(times).all() and (times[1:] > times[:-1]).all()
            if rising and all(  # the only NaN are the empty cells
                np.count_nonzero(~np.isfinite(d)) == n and not (d < 0).any()
                for d, n in zip(distances, empty[1:])
            ):
                times = _frozen(times)
                sensors = [s for _, s in SENSOR_COLUMNS]
                return {s: TimeSeries(times, _frozen(d)) for s, d in zip(sensors, distances)}
    blocks.close()
    _raise_first_fault(path, names)


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
    with _replacing(path) as fh:
        fh.write((",".join(["timestamp"] + [c for c, _ in SENSOR_COLUMNS]) + "\n").encode())
        _write_rows(fh, columns)


def write_fused_csv(
    path: str | Path,
    trace: FusionTrace,
    sensor_g: Mapping[str, TimeSeries | None],
) -> None:
    """Write the per-instant fusion trace.

    ``sensor_g`` maps sensor ids to their danger-score series (``None``
    for a sensor absent from the recording, e.g. no tracker); the CLI
    passes ``trace.sensor_g``.  The fused columns are the trace's last
    three rows.  The ``vote`` column carries the number of DANGEROUS
    votes among the sensors that voted, empty when none did.
    """
    times = trace.grid.times()
    floats = [times]
    for sensor_id in (RSU, CAMERA_AW, CAMERA_DRONE, TRACKER):
        series = sensor_g.get(sensor_id)
        floats.append(np.full(times.size, np.nan) if series is None else series.values)
    floats += [trace.distance_fused.values, *trace.scores[-3:-1]]
    # count code 0 prints empty (nobody voted), code k + 1 prints k
    count_codes = np.where(trace.votes_cast == 0, 0, trace.dangerous_votes + 1)
    count_labels = [b""] + [b"%d" % k for k in range(count_codes.max(initial=0))]
    labels = [(count_codes, count_labels)]
    labels += [(codes, _DECISION_LABELS) for codes in trace.codes[-3:]]
    with _replacing(path) as fh:
        fh.write((",".join(FUSED_HEADER) + "\n").encode())
        _write_rows(fh, floats, labels)


def read_csv_columns(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and string columns of any CSV; kept for ``perfbench/bench_replay.py``."""
    blocks = _blocks(path)
    header = next(blocks)
    columns: list[list[str]] = [[] for _ in header]
    for block in blocks:
        for column, cells in zip(columns, block):
            column += cells
    return header, columns


def _blocks(path: str | Path):
    """The one CSV tokenizer: the header, then the columns of each ``_READ_ROWS`` records.

    This is the one CSV dialect of the package: a row with no fields, or
    with only empty fields, is blank and skipped; a non-blank row shorter
    than the header is a :class:`SensorCsvError` naming its line; fields
    beyond the header are ignored.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SensorCsvError("empty file")
            yield header
            width = len(header)
            while rows := list(islice(reader, _READ_ROWS)):
                nonblank = list(map(any, rows))
                if not all(nonblank):
                    rows = list(compress(rows, nonblank))
                if rows and min(map(len, rows)) < width:
                    _raise_first_fault(path)
                yield list(zip(*rows))[:width] if rows else [()] * width
        except (csv.Error, UnicodeDecodeError):  # a short row read before it is reported first
            _raise_first_fault(path)


def _raise_first_fault(path: str | Path, names: list[str] | None = None) -> NoReturn:
    """Re-read ``path`` one record at a time and raise its first fault, in file order.

    In any CSV a fault is a read error or a non-blank row shorter than the
    header, each naming its line.  In a recording, whose header reads
    ``names``, the header comes first, and a row's cells are checked left
    to right (:func:`_cell_fault`), a fault naming the row.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if names is not None and names[:4] != _REQUIRED_HEADER:
                required, got = ",".join(_REQUIRED_HEADER), ",".join(header)
                raise SensorCsvError(f"header must start with {required!r}, got {got!r}")
            before = -math.inf  # the timestamp of the last data row; -inf before the first
            for row_no, row in enumerate(reader, 2):
                if not any(row):
                    continue
                if len(row) < len(header):
                    raise SensorCsvError(
                        f"line {reader.line_num}: {len(row)} fields, the header has {len(header)}"
                    )
                if names is not None:
                    for name, cell in zip(names, row):
                        if fault := _cell_fault(name, cell, before):
                            raise SensorCsvError(f"row {row_no}: {fault}")
                    before = float(row[0])
        except csv.Error as exc:
            raise SensorCsvError(f"line {reader.line_num}: {exc}") from None
    if names is not None and before == -math.inf:
        raise SensorCsvError("file contains no data rows")
    raise SensorCsvError("the file changed while it was read")


def _cell_fault(name: str, cell: str, before: float) -> str | None:
    """The fault of a recording's cell in column ``name``, or None.

    A cell that is not a number, a non-finite value, a negative distance,
    or an empty timestamp or one not above ``before``, the row before's.
    """
    try:
        value = float(cell or "nan")
    except ValueError:
        return f"column {name!r}: not a number: {cell!r}"
    if cell and not math.isfinite(value):
        return f"column {name!r}: non-finite value {cell!r}"
    if name != "timestamp":  # -0.0 is no negative distance
        return f"column {name!r}: negative distance {cell!r}" if value < 0 else None
    if not cell:
        return "timestamp must not be empty"
    return None if value > before else "timestamps must be strictly increasing"


def plot_csv(source: str | Path, output: str | Path, threshold: float) -> None:
    """Melt the CSV trace at ``source`` into plot rows at ``output``, which may be ``source``."""
    blocks = _blocks(source)
    _melt(output, next(blocks), blocks, threshold)


def write_plot_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence[str]],
    threshold: float,
) -> None:
    """:func:`plot_csv` of equal-length ``columns``; kept for ``perfbench/bench_replay.py``."""
    rows = max(map(len, columns), default=0)
    blocks = ([c[i : i + _BLOCK_ROWS] for c in columns] for i in range(0, rows, _BLOCK_ROWS))
    _melt(path, header[: max(len(columns), 1)], blocks, threshold)  # no cells, no series


def _melt(path: str | Path, header: Sequence[str], blocks: Iterable, threshold: float):
    """Melt a wide trace, a block of columns at a time, into ``timestamp,series,value`` rows.

    Only numeric columns are emitted (decision labels are not plottable
    values): a column is dropped at its first cell that is neither empty
    nor a ``float()``.  When the input carries danger scores, a constant
    ``g_star`` series at ``threshold`` is appended as the reference line.
    ``path`` is opened only once ``blocks`` is exhausted.
    """
    if not header or header[0] != "timestamp":
        raise SensorCsvError("plot input must have a leading timestamp column")
    infixes = {i: f",{_csv_fields([name])[0]}," for i, name in enumerate(header[1:], 1)}
    melted: dict[int, list[str]] = {i: [] for i in infixes}
    suffix = f",g_star,{threshold:.6f}\n"
    g_star = []
    for columns in blocks:
        ts = _csv_fields(columns[0])
        for i in list(melted):
            try:
                collections.deque(map(float, filter(None, columns[i])), maxlen=0)
            except ValueError:  # labels are not plottable values
                del melted[i]
                continue
            cells = _csv_fields(columns[i])
            values = list(filter(None, cells))
            rows = [None, infixes[i], None, "\n"] * len(values)
            rows[::4] = compress(ts, cells)
            rows[2::4] = values
            melted[i].append("".join(rows))
        if ts:
            g_star.append(suffix.join(ts) + suffix)
    with _replacing(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,series,value\n")
        fh.writelines(text for texts in melted.values() for text in texts)
        if any(header[i].startswith(("g_", "danger")) for i in melted):
            fh.writelines(g_star)


def _csv_fields(cells: Sequence[str]) -> Sequence[str]:
    """``cells`` as CSV fields: one holding ``,``, ``"``, CR or LF is quoted, its ``"`` doubled."""
    joined = "".join(cells)
    if not any(ch in joined for ch in ',"\r\n'):
        return cells
    return [
        '"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in ',"\r\n') else cell
        for cell in cells
    ]


def report_to_dict(source: str, report: EvaluationReport | None) -> dict:
    """JSON-ready representation of one evaluation row: the report's fields, floats rounded."""
    if report is None:
        return {"source": source, "error": "insufficient data"}
    row = {"source": source}
    for name, value in vars(report).items():  # dataclasses.asdict is several times slower
        row[name] = round(value, 6) if isinstance(value, float) else value
    return row


def report_rows(reports: Mapping[str, EvaluationReport | None]) -> list[dict]:
    """JSON-ready evaluation rows in canonical source order."""
    return [report_to_dict(s, reports[s]) for s in EVALUATION_SOURCES if s in reports]


def reports_to_json(reports: Mapping[str, EvaluationReport | None]) -> str:
    """Serialize evaluation rows in canonical source order."""
    return json.dumps(report_rows(reports), indent=2) + "\n"


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

"""On-disk formats: sensor recordings, fused traces, reports, plot data.

All numeric fields are serialized with six fractional digits and plain
``\\n`` line endings so identical inputs always produce byte-identical
files.  Empty CSV fields mean "missing".
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import json
import os
import stat
from itertools import accumulate, compress, islice
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


# Rows are formatted this many at a time, which bounds the writers'
# transient memory to a few MiB whatever the length of the trace.
_BLOCK_ROWS = 4096
# Records are tokenized this many at a time: with 4096 row lists alive, the garbage
# collector swept the whole heap about once per plotdata of a 60 001-row trace.
_READ_ROWS = 512
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
    # replace a symlink's target, not the link
    target = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, **open_kwargs)  # created as open() creates the target
    except OSError as exc:  # name the output, not its temporary file
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
            if old is not None and old.st_mode != os.fstat(fh.fileno()).st_mode:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))  # the mode open() would have kept
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_column(cells: Sequence[str]) -> np.ndarray:
    """CSV cells as floats, an empty cell as NaN; a ValueError on any cell ``float()`` rejects."""
    filled = map({"": "nan"}.get, cells, cells) if "" in cells else cells
    return np.fromiter(map(float, filled), float, len(cells))


def _column_faults(name: str, cells: list[str]) -> list[tuple[int, str]]:
    """A recording column's faults as ``(row index, message)`` pairs.

    A fault is a cell that is not a number (the floats end before it), a
    non-finite value, in a distance column a negative distance, and in the
    timestamp column an empty cell or a timestamp not above the one before.
    Cells are looked at one by one only to locate a fault.
    """
    faults = []
    try:
        values = _parse_column(cells)
    except ValueError:
        for end, cell in enumerate(cells):
            try:
                float(cell or "nan")
            except ValueError:
                break
        faults.append((end, f"column {name!r}: not a number: {cell!r}"))
        cells = cells[:end]
        values = _parse_column(cells)
    is_time = name == "timestamp"
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size > (0 if is_time else cells.count("")):  # an empty cell is NaN
        i = next(i for i in nonfinite.tolist() if is_time or cells[i])
        message = f"column {name!r}: non-finite value {cells[i]!r}"
        faults.append((i, message if cells[i] else "timestamp must not be empty"))
    if is_time:
        rising = values[1:] > values[:-1]
        if not rising.all():
            faults.append((int(rising.argmin()) + 1, "timestamps must be strictly increasing"))
    else:
        negative = np.flatnonzero(values < 0)  # -0.0 is not; -inf is reported as non-finite
        if negative.size:
            i = int(negative[0])
            faults.append((i, f"column {name!r}: negative distance {cells[i]!r}"))
    return faults


def read_sensor_csv(path: str | Path) -> dict[str, TimeSeries]:
    """Read a sensor recording into per-sensor distance streams.

    The header must start with ``timestamp,distance_range,
    distance_wheelchair,distance_drone``; the ``distance_tracker`` column
    is optional (recordings without ground truth can still be fused) and
    any further columns are ignored.  Rows follow :func:`read_csv_columns`;
    an error names the row (the CSV record, the header being row 1).
    Blocks of rows become floats as they arrive; each check then runs
    once over whole columns, and only a failed one re-reads the file.
    """
    blocks = _blocks(path)
    names = [name.strip() for name in next(blocks)]
    names = names[: 5 if names[4:5] == ["distance_tracker"] else 4]
    parts: list[list[np.ndarray]] = [[] for _ in names]
    empty = [0] * len(names)
    if names[:4] == _REQUIRED_HEADER:
        for block, _ in blocks:
            try:
                for k, cells in enumerate(block[: len(names)]):
                    parts[k].append(_parse_column(cells))
                    empty[k] += cells.count("")
            except ValueError:  # a cell that is not a number
                break
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
    _raise_recording_fault(path, names)


def _raise_recording_fault(path: str | Path, names: list[str]) -> NoReturn:
    """Re-read the recording at ``path``, whose header reads ``names``; raise its first fault."""
    header, columns, blanks = _read_columns(path)
    if names[:4] != _REQUIRED_HEADER:
        raise SensorCsvError(
            f"header must start with {','.join(_REQUIRED_HEADER)!r}, got {','.join(header)!r}"
        )
    if not columns[0]:
        raise SensorCsvError("file contains no data rows")
    faults = [f for name, cells in zip(names, columns) for f in _column_faults(name, cells)]
    if faults:  # the first in the file; within a row, the leftmost column's
        i, message = min(faults, key=lambda fault: fault[0])
        raise SensorCsvError(f"row {i + 2 + sum(b <= i for b in blanks)}: {message}")
    raise SensorCsvError("the file changed while it was read")


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
    with _replacing(path) as fh:
        fh.write((",".join(FUSED_HEADER) + "\n").encode())
        _write_rows(fh, floats, labels)


def read_csv_columns(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read any CSV as a header plus string columns, the dialect of :func:`_blocks`."""
    return _read_columns(path)[:2]


def _read_columns(path: str | Path) -> tuple[list[str], list[list[str]], list[int]]:
    """:func:`read_csv_columns`, plus for each blank row the number of rows kept before it."""
    blocks = _blocks(path)
    header = next(blocks)
    columns: list[list[str]] = [[] for _ in header]
    blanks: list[int] = []
    for block, block_blanks in blocks:
        for column, cells in zip(columns, block):
            column += cells
        blanks += block_blanks
    return header, columns, blanks


def _blocks(path: str | Path):
    """The one CSV tokenizer: the header, then ``(columns, blanks)`` per ``_READ_ROWS`` records.

    This is the one CSV dialect of the package: a row with no fields, or
    with only empty fields, is blank and skipped (``blanks`` gives, for
    each, the number of rows kept before it in the file); a non-blank row
    shorter than the header is a :class:`SensorCsvError` naming its line;
    fields beyond the header are ignored.
    """
    width = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SensorCsvError("empty file")
            width = len(header)
            yield header
            kept = 0
            while rows := list(islice(reader, _READ_ROWS)):
                nonblank = list(map(any, rows))
                blanks = []
                if not all(nonblank):
                    before = accumulate(nonblank, initial=kept)
                    blanks = [n for n, keep in zip(before, nonblank) if not keep]
                    rows = list(compress(rows, nonblank))
                if rows and min(map(len, rows)) < width:
                    _raise_first_fault(path, width)
                kept += len(rows)
                yield (list(zip(*rows))[:width] if rows else [()] * width), blanks
        except (csv.Error, UnicodeDecodeError):  # a short row read before it is reported first
            _raise_first_fault(path, width)


def _raise_first_fault(path: str | Path, width: int) -> NoReturn:
    """Re-read ``path`` one record at a time and raise its first short row or read error."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if any(row) and len(row) < width:
                    raise SensorCsvError(
                        f"line {reader.line_num}: {len(row)} fields, the header has {width}"
                    )
        except csv.Error as exc:
            raise SensorCsvError(f"line {reader.line_num}: {exc}") from None
    raise SensorCsvError("the file changed while it was read")


def plot_csv(source: str | Path, output: str | Path, threshold: float | None = None) -> None:
    """Melt the CSV trace at ``source`` into plot rows at ``output``, which may be ``source``."""
    blocks = _blocks(source)
    _melt(output, next(blocks), (columns for columns, _ in blocks), threshold)


def write_plot_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence[str]],
    threshold: float | None = None,
) -> None:
    """:func:`plot_csv` of a trace already read into ``header`` and equal-length ``columns``."""
    rows = max(map(len, columns), default=0)
    blocks = ([c[i : i + _BLOCK_ROWS] for c in columns] for i in range(0, rows, _BLOCK_ROWS))
    _melt(path, header[: max(len(columns), 1)], blocks, threshold)  # no cells, no series


def _melt(path: str | Path, header: Sequence[str], blocks: Iterable, threshold: float | None):
    """Melt a wide trace, a block of columns at a time, into ``timestamp,series,value`` rows.

    Only numeric columns are emitted (decision labels are not plottable
    values): a column is dropped at its first cell that is neither empty
    nor a ``float()``.  When ``threshold`` is given and the input carries
    danger scores, a constant ``g_star`` series is appended as the
    reference line.  ``path`` is opened only once ``blocks`` is exhausted.
    """
    if not header or header[0] != "timestamp":
        collections.deque(blocks, maxlen=0)  # a fault in the rows is reported first
        raise SensorCsvError("plot input must have a leading timestamp column")
    infixes = {i: f",{_csv_fields([name])[0]}," for i, name in enumerate(header[1:], 1)}
    melted: dict[int, list[str]] = {i: [] for i in infixes}
    suffix = None if threshold is None else f",g_star,{threshold:.6f}\n"
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
        if ts and suffix:
            g_star.append(suffix.join(ts) + suffix)
    with _replacing(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,series,value\n")
        fh.writelines(text for texts in melted.values() for text in texts)
        if any(header[i].startswith(("g_", "danger")) for i in melted):
            fh.writelines(g_star)


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

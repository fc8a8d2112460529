"""Timestamped scalar streams with first-class missing values.

A :class:`TimeSeries` carries one channel: strictly increasing
timestamps plus one value per timestamp, where NaN marks an instant at
which the sensor produced nothing.  Raw sensor streams and score series
use this type; smoothing and alignment consume and return it.  A
:class:`UniformGrid` owns the instants of the shared grid, and every
series aligned onto it shares the grid's one timestamp array.  The grid
rule, which instants a channel's readings fill, lives in one placement
step: interpolation computes values from it, and ``ingest`` counts it.

Operations are pure: they never mutate their inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np


# Holds a day at 100 Hz (8.64e6 points).  `fuse` peaks near 330 bytes per grid
# point (measured at 6e5 points), so a mistyped rate stops near 3 GiB, not 45.
# That is per worker: a multi-input command runs one input on each of up to one
# worker process per usable CPU, so its peak is that many times as high.
MAX_GRID_POINTS = 10_000_000
# A grid step spans at least this many float64 spacings of its timestamps, so
# grid instants stay distinct and evenly spaced to within 0.1% of the step.
MIN_STEP_SPACINGS = 1000


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as read-only float64, shared if it already is one and owns its data."""
    if isinstance(a, np.ndarray) and a.dtype == float and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, a fresh array that nobody else holds, made read-only so a TimeSeries shares it."""
    a.setflags(write=False)
    return a


def _unchecked(cls, **fields):
    """A frozen dataclass ``cls`` of ``fields`` that are already checked and read-only (a row
    of a checked frame on a grid's own instants, say), built without its ``__post_init__``."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


@dataclass(frozen=True)
class TimeSeries:
    """One channel of timestamped readings.

    Parameters
    ----------
    times : ndarray of float
        Sample instants in seconds, strictly increasing, all finite.
    values : ndarray of float
        One reading per instant; NaN marks a missing reading.  Infinite
        values are rejected.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = _readonly(np.atleast_1d(self.times))
        values = _readonly(np.atleast_1d(self.values))
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if times.size != values.size:
            raise ValueError("times and values must have equal length")
        if not np.isfinite(times).all():
            raise ValueError("timestamps must be finite")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("timestamps must be strictly increasing")
        if np.isinf(values).any():
            raise ValueError("values must not be infinite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)


def _is_finite_real(value) -> bool:
    """A finite real that is not a bool (an int too large for a float is not finite)."""
    try:
        return isinstance(value, numbers.Real) and type(value) is not bool and math.isfinite(value)
    except OverflowError:
        return False


# What a field whose annotation reads "float", "int" or "bool" takes; a bool is no number.
_KINDS = {
    "float": (_is_finite_real, "a finite number"),
    "int": (lambda v: isinstance(v, numbers.Integral) and type(v) is not bool, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}


def _check_field_kinds(record, may_be_infinite: str = "") -> None:
    """Reject a record's field that does not hold its declared kind, by name (one may be ±inf)."""
    for f in fields(record):
        if f.type in _KINDS:
            value = getattr(record, f.name)
            accepts, kind = _KINDS[f.type]
            infinite_ok = f.name == may_be_infinite and value in (math.inf, -math.inf)
            if not accepts(value) and not infinite_ok:
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")


def _slack(rate_hz: float, magnitude: float) -> float:
    """Seconds by which rounding may put a grid instant past a timestamp near ``magnitude``."""
    return max(1e-9 / rate_hz, 4 * np.spacing(magnitude))


def _grid_count(span: float, rate_hz: float, what: str, magnitude: float = 0.0) -> int:
    """Instants of a grid at ``rate_hz`` over ``span`` seconds, both ends included.

    ``span`` may be short of a whole step by the grid's slack (see
    :func:`_slack`) for timestamps near ``magnitude``.
    More than ``MAX_GRID_POINTS`` is a ValueError, raised before anything
    is allocated, whose message begins with ``what`` (the field and span).
    """
    count = np.floor((span + _slack(rate_hz, magnitude)) * rate_hz) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"{what} gives {count:.0f} grid points, more than the limit of {MAX_GRID_POINTS}"
        )
    return int(count)


@dataclass(frozen=True)
class UniformGrid:
    """Uniform sampling grid: ``count`` instants from ``start`` at ``rate_hz``.

    The grid owns its instants: :meth:`times` returns one read-only array,
    built once, which every series on the grid shares.
    """

    start: float
    rate_hz: float = 100.0
    count: int = 1
    _times: np.ndarray = field(init=False, compare=False, repr=False)
    _slack_s: numbers.Real = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_field_kinds(self)
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz!r}")
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count!r}")
        times = self.start + np.arange(self.count) / self.rate_hz
        times.setflags(write=False)
        object.__setattr__(self, "_times", times)
        slack = _slack(self.rate_hz, max(abs(self.start), abs(self.end)))
        object.__setattr__(self, "_slack_s", slack)

    @classmethod
    def spanning(cls, start: float, end: float, rate_hz: float, name: str) -> UniformGrid:
        """The grid at ``rate_hz`` from ``start`` through ``end``, give or take the :attr:`slack`.

        A rate that is not finite and positive, whose step is below ``MIN_STEP_SPACINGS`` float64
        spacings of the timestamps, or that gives more than ``MAX_GRID_POINTS`` instants (checked
        before anything is allocated) is a ValueError naming the setting ``name``.
        """
        if not (_is_finite_real(rate_hz) and rate_hz > 0):
            raise ValueError(f"{name} must be a finite positive number, got {rate_hz!r}")
        magnitude = max(abs(start), abs(end))
        if 1 / rate_hz < MIN_STEP_SPACINGS * np.spacing(magnitude):
            raise ValueError(
                f"{name} {rate_hz:g} gives a {1 / rate_hz:g} s step, below {MIN_STEP_SPACINGS} "
                f"times the float64 spacing ({np.spacing(magnitude):g} s) of timestamps near "
                f"{magnitude:g} s"
            )
        what = f"{name} {rate_hz:g} over {end - start:g} s"
        return cls(start, rate_hz, _grid_count(end - start, rate_hz, what, magnitude))

    @property
    def end(self) -> float:
        return self.start + (self.count - 1) / self.rate_hz

    @property
    def slack(self) -> float:
        """Seconds by which rounding may put an instant past the timestamp it stands for."""
        return self._slack_s

    def times(self) -> np.ndarray:
        return self._times


def smooth_trailing(series: TimeSeries, window: int) -> TimeSeries:
    """Causal moving average over the most recent present readings.

    The output at instant ``i`` is the arithmetic mean of the last
    ``window`` present readings up to and including ``i`` (fewer while the
    window is still filling).  Missing instants stay missing and do not
    consume window slots, so the filter keeps working across dropouts.

    Parameters
    ----------
    series : TimeSeries
        Input channel.
    window : int
        Number of readings averaged; ``window=1`` is the identity.
    """
    return TimeSeries(series.times, _frozen(_trailing_mean(series.values, window)))


def _trailing_mean(values: np.ndarray, window: int, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel of :func:`smooth_trailing` over a plain array (NaN = missing).

    The means go to ``out`` (a new array by default), whose missing instants must already be
    NaN; ``out=values`` smooths in place.  A sum past float64's range gives an infinite mean,
    for the caller's check to reject.  A window too large to be a float64 is a ValueError.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window!r}")
    if window > sys.float_info.max:
        raise ValueError(f"window must be at most {sys.float_info.max:g}")
    missing = np.isnan(values)
    gaps = missing.nonzero()[0]
    # with only a leading run missing (a derivative's first instants), the readings are a slice
    leading = not gaps.size or gaps[-1] == gaps.size - 1
    present = slice(gaps.size, None) if leading else ~missing
    pv = values[present]
    sums = pv.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, min(window, pv.size)):
            sums[k:] += pv[: pv.size - k]
        filling = min(window - 1, pv.size)  # the readings before the window first fills
        sums[filling:] /= window
        sums[:filling] /= np.arange(1.0, filling + 1)
    if out is None:
        out = np.full(values.size, np.nan)
    out[present] = sums
    return out


def _placement(times: np.ndarray, values: np.ndarray, grid: UniformGrid, max_gap: float):
    """Where the readings ``values`` at ``times`` fall on ``grid``, by the grid rule: an instant
    ``t`` snaps to the first present reading ``tp`` with ``tp >= fl(t - slack)`` when
    ``fl(tp - t) <= slack`` (``slack`` the grid's, ``fl`` rounding each difference once).  Any
    other instant is bridged when its two neighbouring present readings are at most ``max_gap``
    seconds apart, and is missing otherwise (so before the first and after the last reading).
    Returns the present-reading mask, then per instant its neighbours' indices ``lo`` and ``hi``
    among the present readings padded with a sentinel at each end, the left one's time, the gap
    between them, and the snap and bridge masks."""
    target = grid.times()
    present = ~np.isnan(values)
    # sentinel readings at -inf and +inf: every instant lies between two readings
    tp = np.concatenate(([-np.inf], times[present], [np.inf]))
    # tp[hi], the first reading at most the slack early: the instant's own, or its right neighbour.
    # hi counts the readings more than the slack early; each reading is placed on the grid once
    hi = np.bincount(
        np.searchsorted(target - grid.slack, tp, side="right"), minlength=grid.count + 1
    )[:-1].cumsum()
    lo = hi - 1
    t_lo, t_hi = tp[lo], tp[hi]
    gap = t_hi - t_lo
    return present, lo, hi, t_lo, gap, t_hi - target <= grid.slack, gap <= max_gap


def _placed(times: np.ndarray, values: np.ndarray, grid: UniformGrid, max_gap: float) -> int:
    """How many instants :func:`_placement` snaps or bridges: those :func:`_interpolate` fills."""
    *_, snapped, bridged = _placement(times, values, grid, max_gap)
    return np.count_nonzero(snapped | bridged)


def _interpolate(
    times: np.ndarray, values: np.ndarray, grid: UniformGrid, max_gap: float
) -> np.ndarray:
    """The readings ``values`` at ``times`` on ``grid``, a new array, by the grid rule, which
    lives in :func:`_placement`: a snapped instant takes its reading, a bridged one
    interpolates its neighbours linearly, and any other is missing.

    The result is allocated last, above the temporaries, so the allocator keeps their
    memory for the next call rather than handing it back to the system.
    """
    present, lo, hi, t_lo, gap, snapped, bridged = _placement(times, values, grid, max_gap)
    vp = np.concatenate(([np.nan], values[present], [np.nan]))
    v_hi = vp[hi]
    with np.errstate(invalid="ignore"):  # inf / inf next to the -inf sentinel: missing
        w = (grid.times() - t_lo) / gap
        val = vp[lo] * (1.0 - w) + v_hi * w
    return np.where(snapped, v_hi, np.where(bridged, val, np.nan))


def _spanning_grid(rows, rate_hz: float, max_gap: float) -> UniformGrid:
    """The grid at ``rate_hz`` (:meth:`UniformGrid.spanning`, naming it ``resample_hz``) over
    the ``(times, values)`` channels' time ranges; no timestamp, or ``max_gap <= 0``, raises."""
    spans = [(times[0], times[-1]) for times, _ in rows if times.size]
    if not spans:
        raise ValueError("nothing to align")
    starts, ends = zip(*spans)
    grid = UniformGrid.spanning(min(starts), max(ends), rate_hz, "resample_hz")
    if max_gap <= 0:
        raise ValueError("max_gap must be positive")
    return grid


def _aligned(
    rows: Sequence[tuple[np.ndarray, np.ndarray]], rate_hz: float, max_gap: float
) -> tuple[UniformGrid, np.ndarray]:
    """Channels given as ``(times, values)`` pairs on their :func:`_spanning_grid`: the grid and
    a read-only ``(len(rows), grid.count)`` frame whose row ``i`` is channel ``i`` placed by
    :func:`_interpolate` (an empty channel's is all missing).  An infinite value raises."""
    grid = _spanning_grid(rows, rate_hz, max_gap)
    # rows are stacked, not interpolated into a frame made first: a kernel's temporaries freed
    # at the top of the heap went back to the system after each row, 4 500 page faults
    # more per cold 60 001-point ingest
    frame = np.stack([_interpolate(times, values, grid, max_gap) for times, values in rows])
    if np.isinf(frame).any():
        raise ValueError("values must not be infinite")
    return grid, _frozen(frame)


def align(
    series_list: Sequence[TimeSeries], rate_hz: float, max_gap: float = 0.5
) -> tuple[UniformGrid, list[TimeSeries]]:
    """Put several channels on one grid spanning them all, as :func:`_aligned` places them.

    Every output series is a row of one read-only frame and shares the grid's timestamps.
    """
    grid, frame = _aligned([(s.times, s.values) for s in series_list], rate_hz, max_gap)
    times = grid.times()
    return grid, [_unchecked(TimeSeries, times=times, values=row) for row in frame]

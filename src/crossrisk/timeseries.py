"""Timestamped scalar streams with first-class missing values.

A :class:`TimeSeries` carries one channel: strictly increasing
timestamps plus one value per timestamp, where NaN marks an instant at
which the sensor produced nothing.  Raw sensor streams and score series
use this type; smoothing and resampling consume and return it.  A
:class:`UniformGrid` owns the instants of the shared grid, and every
series resampled onto it shares the grid's one timestamp array.

Operations are pure: they never mutate their inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np


class EmptyOverlapError(ValueError):
    """Raised when a resampling grid does not intersect the series span."""


# Holds a day at 100 Hz (8.64e6 points).  `fuse` peaks near 330 bytes per grid
# point (measured at 6e5 points), so a mistyped rate stops near 3 GiB, not 45.
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
        if times.size and not np.all(np.isfinite(times)):
            raise ValueError("timestamps must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(np.isinf(values)):
            raise ValueError("values must not be infinite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def present(self) -> np.ndarray:
        """Boolean mask of instants with an actual reading."""
        return ~np.isnan(self.values)

    @property
    def span(self) -> tuple[float, float]:
        """First and last timestamp of the series."""
        return float(self.times[0]), float(self.times[-1])


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


def _is_positive_rate(rate_hz) -> bool:
    return _is_finite_real(rate_hz) and rate_hz > 0


def _grid_count(span: float, rate_hz: float, what: str, magnitude: float = 0.0) -> int:
    """Instants of a grid at ``rate_hz`` over ``span`` seconds, both ends included.

    ``span`` may be short of a whole step by the rounding of timestamps
    near ``magnitude``; a few of their float64 spacings are forgiven.
    More than ``MAX_GRID_POINTS`` is a ValueError, raised before anything
    is allocated, whose message begins with ``what`` (the field and span).
    """
    count = np.floor(span * rate_hz + max(1e-9, 4 * np.spacing(magnitude) * rate_hz)) + 1
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

    def __post_init__(self) -> None:
        _check_field_kinds(self)
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz!r}")
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count!r}")
        times = self.start + np.arange(self.count) / self.rate_hz
        times.setflags(write=False)
        object.__setattr__(self, "_times", times)

    @property
    def end(self) -> float:
        return self.start + (self.count - 1) / self.rate_hz

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
    if window < 1:
        raise ValueError("window must be at least 1")
    return TimeSeries(series.times, _frozen(_trailing_mean(series.values, window)))


def _trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Kernel of :func:`smooth_trailing` over a plain array (NaN = missing)."""
    present = ~np.isnan(values)
    out = np.full(values.size, np.nan)
    pv = values[present]
    if pv.size:
        sums = pv.copy()
        for k in range(1, min(window, pv.size)):
            sums[k:] += pv[: pv.size - k]
        counts = np.minimum(np.arange(1, pv.size + 1), window)
        out[present] = sums / counts
    return out


def resample(series: TimeSeries, grid: UniformGrid, max_gap: float = 0.5) -> TimeSeries:
    """Linearly interpolate a series onto a uniform grid.

    Grid instants before the first present reading, after the last one,
    or falling inside a gap between present readings longer than
    ``max_gap`` seconds are left missing; long gaps are sensor outages
    and must not be bridged with fabricated values.

    Raises
    ------
    EmptyOverlapError
        If the grid does not intersect the series' time span at all.
    """
    if max_gap <= 0:
        raise ValueError("max_gap must be positive")
    t0, t1 = series.span
    if grid.end < t0 or grid.start > t1:
        raise EmptyOverlapError(
            f"grid [{grid.start}, {grid.end}] does not overlap series span [{t0}, {t1}]"
        )
    target = grid.times()
    present = series.present
    tp = series.times[present]
    vp = series.values[present]
    if tp.size == 0:
        return TimeSeries(target, _frozen(np.full(grid.count, np.nan)))

    idx = np.searchsorted(tp, target, side="left")
    lo = np.maximum(idx - 1, 0)
    hi = np.minimum(idx, tp.size - 1)
    t_lo, t_hi = tp[lo], tp[hi]
    gap = t_hi - t_lo
    inner = (idx > 0) & (idx < tp.size) & (gap <= max_gap)
    with np.errstate(divide="ignore", invalid="ignore"):  # gap 0 outside the span: dropped
        w = (target - t_lo) / gap
        val = vp[lo] * (1.0 - w) + vp[hi] * w
    out = np.where(t_hi == target, vp[hi], np.where(inner, val, np.nan))
    return TimeSeries(target, _frozen(out))


def align(
    series_list: Sequence[TimeSeries], rate_hz: float, max_gap: float = 0.5
) -> tuple[UniformGrid, list[TimeSeries]]:
    """Resample several channels onto one shared grid.

    The grid spans the union of the input time ranges at ``rate_hz``;
    every output series carries identical timestamps, with each channel
    missing outside its own coverage.  A grid of more than
    ``MAX_GRID_POINTS`` instants is rejected before anything is allocated,
    as is a step below ``MIN_STEP_SPACINGS`` float64 spacings of its times.
    """
    if not series_list:
        raise ValueError("series_list must not be empty")
    if not _is_positive_rate(rate_hz):
        raise ValueError(f"resample_hz must be a finite positive number, got {rate_hz!r}")
    start = min(s.span[0] for s in series_list)
    end = max(s.span[1] for s in series_list)
    magnitude = max(abs(start), abs(end))
    if 1 / rate_hz < MIN_STEP_SPACINGS * np.spacing(magnitude):
        raise ValueError(
            f"resample_hz {rate_hz:g} gives a {1 / rate_hz:g} s step, below {MIN_STEP_SPACINGS} "
            f"times the float64 spacing ({np.spacing(magnitude):g} s) of timestamps near "
            f"{magnitude:g} s"
        )
    what = f"resample_hz {rate_hz:g} over {end - start:g} s"
    count = _grid_count(end - start, rate_hz, what, magnitude)
    grid = UniformGrid(start=start, rate_hz=rate_hz, count=count)
    return grid, [resample(s, grid, max_gap=max_gap) for s in series_list]

"""Instantaneous danger scoring of an approaching obstacle.

The score combines a saturating speed contribution and a dead-banded,
saturating acceleration contribution, divided by a log-compressed
distance so that nearby obstacles dominate.  A fixed threshold turns the
score into a go/no-go decision; instants without data stay ``UNKNOWN``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .kinematics import KinematicTrack
from .timeseries import TimeSeries, _check_field_kinds, _frozen


class Decision(enum.Enum):
    """Per-instant classification of the crossing situation."""

    SAFE = "Safe"
    DANGEROUS = "Dangerous"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:  # CSV/report label
        return self.value


# The one int-code -> Decision table used by threshold decisions and votes.
_SAFE, _DANGEROUS, _UNKNOWN = 0, 1, 2
_DECISIONS = np.array([Decision.SAFE, Decision.DANGEROUS, Decision.UNKNOWN], dtype=object)


def _decision_codes(g: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold scores into int8 codes: strictly above is DANGEROUS, NaN is UNKNOWN.

    One byte per code: a trace keeps a code row for every source.
    """
    codes = np.asarray(g > threshold).view(np.int8)
    codes[np.isnan(g)] = _UNKNOWN
    return codes


def _as_decisions(codes: np.ndarray) -> tuple[Decision, ...]:
    return tuple(_DECISIONS[codes].tolist())


def _as_codes(decisions) -> np.ndarray:
    """Inverse of :func:`_as_decisions` for a sequence of :class:`Decision`.

    Kept for :func:`~crossrisk.metrics.evaluate_source` and so for the
    benchmark's independent check of ``evaluate --json`` (ROADMAP open item 4).
    """
    labels = np.fromiter(decisions, dtype=object, count=len(decisions))
    return np.where(labels == Decision.UNKNOWN, _UNKNOWN, labels == Decision.DANGEROUS)


@dataclass(frozen=True)
class DangerParams:
    """All constants of the danger score in one validated record.

    Defaults match the reference tuning: acceleration weighted at a tenth
    of the speed contribution, speed ramping over [0.05, 0.65] m/s,
    acceleration dead band of 1 m/s² saturating at 10 m/s², and a log
    offset of 0.6 m keeping the denominator finite at zero distance.
    """

    accel_weight: float = 0.1
    distance_offset: float = 0.6
    threshold: float = 1.0
    speed_deadband: float = 0.05
    speed_saturation: float = 0.65
    accel_deadband: float = 1.0
    accel_saturation: float = 10.0
    denominator_floor: float = 1e-3

    def __post_init__(self) -> None:
        _check_field_kinds(self)
        if self.accel_weight < 0:
            raise ValueError("accel_weight must be non-negative")
        if self.distance_offset <= 0:
            raise ValueError("distance_offset must be positive")
        if not 0 <= self.speed_deadband < self.speed_saturation:
            raise ValueError("require 0 <= speed_deadband < speed_saturation")
        if not 0 <= self.accel_deadband < self.accel_saturation:
            raise ValueError("require 0 <= accel_deadband < accel_saturation")
        if self.denominator_floor <= 0:
            raise ValueError("denominator_floor must be positive")


def speed_transform(closing_speed, params: DangerParams = DangerParams()):
    """Normalized speed contribution: 0 below the dead band, 1 above saturation.

    Piecewise linear and continuous; accepts scalars or arrays.
    """
    out = _speed_transform(closing_speed, params, np.empty(np.shape(closing_speed)))
    return float(out) if np.isscalar(closing_speed) else out


def accel_transform(acceleration, params: DangerParams = DangerParams()):
    """Normalized acceleration contribution in [-1, 1] with a symmetric dead band.

    Braking (negative) accelerations reduce the score, speeding-up ones
    increase it; magnitudes inside the dead band contribute nothing and
    magnitudes beyond saturation are capped.
    """
    shape = np.shape(acceleration)
    out = _accel_transform(acceleration, params, np.empty(shape), np.empty(shape))
    return float(out) if np.isscalar(acceleration) else out


def _speed_transform(closing_speed, params: DangerParams, out: np.ndarray) -> np.ndarray:
    """Kernel of :func:`speed_transform`, into ``out``."""
    np.subtract(closing_speed, params.speed_deadband, out=out)
    out /= params.speed_saturation - params.speed_deadband
    return np.clip(out, 0.0, 1.0, out=out)


def _accel_transform(
    acceleration, params: DangerParams, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Kernel of :func:`accel_transform`, into ``out``; ``scratch`` is overwritten."""
    span = params.accel_saturation - params.accel_deadband
    np.subtract(acceleration, params.accel_deadband, out=out)  # the speeding-up part
    out /= span
    np.clip(out, 0.0, 1.0, out=out)
    np.add(acceleration, params.accel_deadband, out=scratch)  # the braking part
    scratch /= span
    np.clip(scratch, -1.0, 0.0, out=scratch)
    out += scratch
    return out


def _danger_values(
    distance: np.ndarray,
    closing_speed: np.ndarray,
    acceleration: np.ndarray,
    params: DangerParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized score, into ``out`` if given; NaN inputs yield NaN, negative distances raise.

    The transforms run in place on the result and one scratch array, so a
    sensors × time frame is scored with two allocations, or one into ``out``.
    """
    d = np.asarray(distance, dtype=float)
    if (d < 0).any():  # NaN compares False
        raise ValueError("distance must be non-negative")
    shape = np.broadcast_shapes(d.shape, np.shape(closing_speed), np.shape(acceleration))
    g = np.empty(shape) if out is None else out
    scratch = np.empty(shape)
    # a finite speed or acceleration too large to scale saturates: clip takes the infinity
    with np.errstate(over="ignore", invalid="ignore"):
        _accel_transform(acceleration, params, scratch, g)
        np.multiply(params.accel_weight, scratch, out=scratch)
        _speed_transform(closing_speed, params, g)
        g += scratch  # the numerator
        np.add(d, params.distance_offset, out=scratch)
        np.log(scratch, out=scratch)
        np.maximum(scratch, params.denominator_floor, out=scratch)
        g /= scratch
    return g


def danger_value(
    distance: float,
    closing_speed: float,
    acceleration: float,
    params: DangerParams = DangerParams(),
) -> float:
    """Danger score of one instantaneous kinematic state.

    The denominator ``log(distance + offset)`` is floored at a small
    positive constant, so the score blows up (rather than flipping sign)
    when the obstacle is almost touching.
    """
    return float(_danger_values(distance, closing_speed, acceleration, params))


def decide(g: float | None, params: DangerParams = DangerParams()) -> Decision:
    """Threshold a score: strictly above the threshold is DANGEROUS."""
    return _DECISIONS[_decision_codes(np.float64(np.nan if g is None else g), params.threshold)]


def danger_series(track: KinematicTrack, params: DangerParams = DangerParams()) -> TimeSeries:
    """Danger score per grid point; missing wherever any kinematic input is missing."""
    values = _danger_values(track.distance, track.speed, track.acceleration, params)
    return TimeSeries(track.grid.times(), _frozen(values))


def decisions_from_series(
    series: TimeSeries, params: DangerParams = DangerParams()
) -> tuple[Decision, ...]:
    """Threshold a score series into a per-instant decision stream; kept for ``perfbench/``."""
    return _as_decisions(_decision_codes(series.values, params.threshold))

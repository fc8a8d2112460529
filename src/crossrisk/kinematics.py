"""Closing-speed kinematics and the idealized crossing safety condition.

Distance streams are differentiated into closing speed and acceleration
(positive speed = obstacle approaching, positive acceleration = approach
speeding up).  The crossing model treats the crossing agent as moving at
constant speed across a road of fixed width while the obstacle advances
with constant acceleration; its analytical safety margin is paired with
a brute-force numerical collision check used to validate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .timeseries import (
    TimeSeries,
    UniformGrid,
    _check_field_kinds,
    _frozen,
    _readonly,
    _trailing_mean,
)


@dataclass(frozen=True)
class KinematicTrack:
    """Distance, closing speed and acceleration on one uniform grid.

    Each field is a read-only float array holding one value per instant
    of ``grid.times()``; NaN marks a missing value.  Speed and
    acceleration are missing wherever their finite-difference stencil
    touches a missing distance sample.
    """

    grid: UniformGrid
    distance: np.ndarray
    speed: np.ndarray
    acceleration: np.ndarray

    def __post_init__(self) -> None:
        for name in ("distance", "speed", "acceleration"):
            values = _readonly(getattr(self, name))
            if values.shape != (self.grid.count,):
                raise ValueError(
                    f"{name} has shape {values.shape}, the track grid needs ({self.grid.count},)"
                )
            if np.isinf(values).any():
                raise ValueError(f"{name} must not be infinite")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class CrossingModel:
    """Geometry of the crossing: road width and constant crossing speed."""

    road_width: float
    crossing_speed: float

    def __post_init__(self) -> None:
        _check_field_kinds(self)
        for name in ("road_width", "crossing_speed"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


class SafetyCheck(NamedTuple):
    """Outcome of the analytical safety condition."""

    safe: bool
    margin: float


def differentiate(
    distance: TimeSeries, grid: UniformGrid, smooth_window: int = 5
) -> KinematicTrack:
    """Derive closing speed and acceleration from a gridded distance stream.

    This is the one way from a :class:`TimeSeries` onto a track: the
    series must lie on ``grid``, within ``grid.slack`` of its instants.

    Backward first differences: ``speed[i] = (d[i-1] - d[i]) * rate`` and
    ``accel[i] = (speed[i] - speed[i-1]) * rate``, so the first one (resp.
    two) grid points are missing and any missing distance poisons the
    samples whose stencil touches it.  Both derivative channels are then
    smoothed with a trailing window (``smooth_window=1`` disables this);
    the causal window keeps the estimate usable at run time.
    """
    if len(distance) != grid.count or not np.allclose(
        distance.times, grid.times(), rtol=0.0, atol=grid.slack
    ):
        raise ValueError("distance series does not lie on the track grid")
    speed, accel = _derivatives(distance.values, grid.rate_hz, smooth_window)
    return KinematicTrack(grid, distance.values, speed, accel)


def _derivatives(
    distance: np.ndarray, rate: float, smooth_window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of :func:`differentiate` over each row of ``distance``, one row or a frame.

    Returns read-only speed and acceleration of ``distance``'s shape.  A derivative past
    float64's range is infinite, for the caller's check to reject by name.
    """
    if smooth_window < 1:
        raise ValueError("smooth_window must be at least 1")
    speed = np.empty(distance.shape)
    accel = np.empty(distance.shape)
    speed[..., :1] = np.nan
    accel[..., :2] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(distance[..., :-1], distance[..., 1:], out=speed[..., 1:])
        speed[..., 1:] *= rate
        np.subtract(speed[..., 2:], speed[..., 1:-1], out=accel[..., 2:])
        accel[..., 2:] *= rate
    count = distance.shape[-1]  # row by row, in place: a window never reaches into another row
    for row in (*speed.reshape(-1, count), *accel.reshape(-1, count)):
        _trailing_mean(row, smooth_window, out=row)
    return _frozen(speed), _frozen(accel)


def _reject_infinite(ids, **frames) -> None:
    """Raise ``<id>: <name> must not be infinite`` for the first row, in ``ids`` order, of the
    ``frames`` that holds an infinity, as a track would.  Each frame holds one row per id: an
    array, checked whole before its rows are searched, or a list of rows of any lengths,
    checked row by row."""
    suspects = [(n, r) for n, r in frames.items() if isinstance(r, list) or np.isinf(r).any()]
    for i, row_id in enumerate(ids):
        for name, rows in suspects:
            if np.isinf(rows[i]).any():
                raise ValueError(f"{row_id}: {name} must not be infinite")


def time_to_cross(model: CrossingModel) -> float:
    """Seconds the crossing agent needs to traverse the road width."""
    return model.road_width / model.crossing_speed


def kinematic_safety_check(
    model: CrossingModel, distance: float, closing_speed: float, acceleration: float
) -> SafetyCheck:
    """Evaluate the analytical crossing safety condition.

    The margin is the obstacle's end-of-crossing displacement divided by
    its current distance; the situation is safe iff the margin is
    strictly below one.  The formula evaluates the crossing-end state as
    written, without clamping a braking obstacle's speed at zero; see
    :func:`numeric_collision_check` for the conservative variant.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    t_cross = time_to_cross(model)
    margin = (
        t_cross * closing_speed + 0.5 * t_cross * t_cross * acceleration
    ) / distance
    return SafetyCheck(safe=margin < 1.0, margin=margin)


def numeric_collision_check(
    model: CrossingModel,
    distance: float,
    closing_speed: float,
    acceleration: float,
    dt: float = 1e-3,
) -> bool:
    """Brute-force collision check over the whole crossing interval.

    Integrates the obstacle's motion on a ``dt`` time grid with speed
    clamped at zero from below (vehicles do not reverse) and reports
    ``True`` (safe) iff the obstacle never reaches the current distance
    at any step.  Serves as the independent validator for
    :func:`kinematic_safety_check`; the two can disagree only for
    braking obstacles, where the analytical endpoint formula lets the
    obstacle "back away" after stopping.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if distance <= 0:
        raise ValueError("distance must be positive")
    t_cross = time_to_cross(model)
    steps = max(int(np.ceil(t_cross / dt)), 1)
    times = np.linspace(0.0, t_cross, steps + 1)
    speeds = np.maximum(closing_speed + acceleration * times, 0.0)
    widths = np.diff(times)
    travelled = np.concatenate(
        ([0.0], np.cumsum(0.5 * (speeds[:-1] + speeds[1:]) * widths))
    )
    return bool(np.all(travelled < distance))

"""Closing-speed kinematics and the idealized crossing safety condition.

Distance streams are differentiated into closing speed and acceleration
(positive speed = obstacle approaching, positive acceleration = approach
speeding up).  The crossing model treats the crossing agent as moving at
constant speed across a road of fixed width while the obstacle advances
with constant acceleration; its analytical safety margin is paired with
a brute-force numerical collision check used to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .timeseries import TimeSeries, UniformGrid, _readonly, _trailing_mean


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
            if np.any(np.isinf(values)):
                raise ValueError(f"{name} must not be infinite")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class CrossingModel:
    """Geometry of the crossing: road width and constant crossing speed."""

    road_width: float
    crossing_speed: float

    def __post_init__(self) -> None:
        for name in ("road_width", "crossing_speed"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


class SafetyCheck(NamedTuple):
    """Outcome of the analytical safety condition."""

    safe: bool
    margin: float


def differentiate(
    distance: TimeSeries, grid: UniformGrid, smooth_window: int = 5
) -> KinematicTrack:
    """Derive closing speed and acceleration from a gridded distance stream.

    This is the one way from a :class:`TimeSeries` onto a track: the
    series must lie on ``grid``.

    Backward first differences: ``speed[i] = (d[i-1] - d[i]) * rate`` and
    ``accel[i] = (speed[i] - speed[i-1]) * rate``, so the first one (resp.
    two) grid points are missing and any missing distance poisons the
    samples whose stencil touches it.  Both derivative channels are then
    smoothed with a trailing window (``smooth_window=1`` disables this);
    the causal window keeps the estimate usable at run time.
    """
    if smooth_window < 1:
        raise ValueError("smooth_window must be at least 1")
    if len(distance) != grid.count or not np.allclose(
        distance.times, grid.times(), rtol=0.0, atol=1e-12
    ):
        raise ValueError("distance series does not lie on the track grid")
    d = distance.values
    rate = grid.rate_hz
    speed = np.full(d.size, np.nan)
    accel = np.full(d.size, np.nan)
    if d.size > 1:
        speed[1:] = (d[:-1] - d[1:]) * rate
    if d.size > 2:
        accel[2:] = (speed[2:] - speed[1:-1]) * rate
    if smooth_window > 1:
        speed = _trailing_mean(speed, smooth_window)
        accel = _trailing_mean(accel, smooth_window)
    return KinematicTrack(grid, d, speed, accel)


def time_to_cross(model: CrossingModel) -> float:
    """Seconds the crossing agent needs to traverse the road width."""
    return model.road_width / model.crossing_speed


def obstacle_displacement(closing_speed: float, acceleration: float, t: float) -> float:
    """Distance covered by the obstacle after ``t`` seconds of uniform acceleration."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return closing_speed * t + 0.5 * acceleration * t * t


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

"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from crossrisk import DangerParams, Decision, ScenarioConfig, decide
from crossrisk.danger import danger_series
from crossrisk.kinematics import KinematicTrack, differentiate
from crossrisk.simulate import _truth_state
from crossrisk.timeseries import TimeSeries, UniformGrid


def same_bits(got, expected) -> None:
    """Float arrays equal bit for bit, NaN included."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def series_on_grid(values, rate_hz: float = 100.0, start: float = 0.0) -> TimeSeries:
    """Series with the given values on a uniform grid (NaN = missing)."""
    values = np.asarray(values, dtype=float)
    times = start + np.arange(values.size) / rate_hz
    return TimeSeries(times, values)


def track_from_distances(
    values, rate_hz: float = 100.0, smooth_window: int = 1
) -> KinematicTrack:
    """Kinematic track differentiated from raw distance values."""
    values = np.asarray(values, dtype=float)
    grid = UniformGrid(start=0.0, rate_hz=rate_hz, count=values.size)
    return differentiate(series_on_grid(values, rate_hz), grid, smooth_window=smooth_window)


def closed_form_truth(
    scenario: ScenarioConfig, grid: UniformGrid, params: DangerParams
) -> tuple[KinematicTrack, tuple[Decision, ...]]:
    """The scenario's closed-form kinematics on ``grid`` and the decisions scored from them.

    The distance is clamped at zero, as the simulator clamps it; an oracle for the pipeline
    that no recording's noise, smoothing or derivative warm-up shapes.
    """
    distance, speed, accel = _truth_state(scenario, grid.times())
    track = KinematicTrack(grid, np.maximum(distance, 0.0), speed, accel)
    return track, tuple(decide(g, params) for g in danger_series(track, params).values)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(181181)

"""Danger scoring: transforms, threshold decisions, track scoring."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crossrisk import (
    DangerParams,
    Decision,
    accel_transform,
    danger_series,
    danger_value,
    decide,
    decisions_from_series,
    speed_transform,
)
from crossrisk.kinematics import KinematicTrack
from crossrisk.timeseries import UniformGrid

from conftest import track_from_distances

PARAMS = DangerParams()


class TestParams:
    def test_defaults(self):
        assert PARAMS.accel_weight == 0.1
        assert PARAMS.distance_offset == 0.6
        assert PARAMS.threshold == 1.0
        assert (PARAMS.speed_deadband, PARAMS.speed_saturation) == (0.05, 0.65)
        assert (PARAMS.accel_deadband, PARAMS.accel_saturation) == (1.0, 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(accel_weight=-0.1),
            dict(distance_offset=0.0),
            dict(speed_deadband=0.7),
            dict(accel_deadband=10.0),
            dict(denominator_floor=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DangerParams(**kwargs)


class TestSpeedTransform:
    @pytest.mark.parametrize(
        "speed,expected",
        [(0.05, 0.0), (0.65, 1.0), (0.35, 0.5), (-1.0, 0.0), (0.0, 0.0), (2.0, 1.0)],
    )
    def test_values(self, speed, expected):
        assert speed_transform(speed, PARAMS) == pytest.approx(expected, abs=1e-12)

    def test_monotone_continuous_clamped(self):
        v = np.linspace(-1.0, 2.0, 10_000)
        out = speed_transform(v, PARAMS)
        assert np.all(np.diff(out) >= 0)
        assert np.all((out >= 0) & (out <= 1))
        slope = 1.0 / (PARAMS.speed_saturation - PARAMS.speed_deadband)
        assert np.all(np.diff(out) <= slope * np.diff(v) + 1e-12)


class TestAccelTransform:
    @pytest.mark.parametrize(
        "accel,expected",
        [
            (0.5, 0.0),
            (10.0, 1.0),
            (-10.0, -1.0),
            (5.5, 0.5),
            (-5.5, -0.5),
            (1.0, 0.0),
            (-1.0, 0.0),
            (15.0, 1.0),
            (-15.0, -1.0),
        ],
    )
    def test_values(self, accel, expected):
        assert accel_transform(accel, PARAMS) == pytest.approx(expected, abs=1e-12)

    def test_monotone_continuous_clamped(self):
        a = np.linspace(-15.0, 15.0, 10_000)
        out = accel_transform(a, PARAMS)
        assert np.all(np.diff(out) >= 0)
        assert np.all((out >= -1) & (out <= 1))
        slope = 1.0 / (PARAMS.accel_saturation - PARAMS.accel_deadband)
        assert np.all(np.diff(out) <= slope * np.diff(a) + 1e-12)


class TestDangerValue:
    def test_reference_points(self):
        assert danger_value(1.0, 0.65, 0.0) == pytest.approx(1.0 / math.log(1.6), abs=1e-12)
        assert danger_value(2.0, 0.35, 0.0) == pytest.approx(0.5 / math.log(2.6), abs=1e-12)

    def test_zero_inside_dead_bands(self, rng):
        for _ in range(100):
            d = rng.uniform(0.0, 10.0)
            v = rng.uniform(-1.0, PARAMS.speed_deadband)
            a = rng.uniform(-PARAMS.accel_deadband, PARAMS.accel_deadband)
            assert danger_value(d, v, a) == 0.0

    def test_denominator_floor_engages_close_in(self):
        # log(d + 0.6) is zero at d = 0.4 and negative below; the floor
        # keeps the score positive and huge instead of flipping sign.
        assert danger_value(0.4, 0.65, 0.0) == pytest.approx(1000.0)
        assert danger_value(0.0, 0.65, 0.0) == pytest.approx(1000.0)
        assert danger_value(0.2, 0.65, 0.0) > 0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            danger_value(-0.1, 0.5, 0.0)

    def test_braking_can_push_score_negative(self):
        g = danger_value(2.0, 0.0, -10.0)
        assert g < 0
        assert decide(g) is Decision.SAFE

    def test_strictly_decreasing_in_distance(self, rng):
        for _ in range(200):
            v = rng.uniform(0.06, 2.0)
            a = rng.uniform(-1.0, 15.0)
            d = rng.uniform(1.0, 9.0)
            assert danger_value(d + 0.5, v, a) < danger_value(d, v, a)

    def test_nondecreasing_in_speed_and_accel(self, rng):
        for _ in range(200):
            d = rng.uniform(1.0, 10.0)
            v = rng.uniform(-0.5, 1.5)
            a = rng.uniform(-12.0, 12.0)
            g = danger_value(d, v, a)
            assert danger_value(d, v + 0.1, a) >= g
            assert danger_value(d, v, a + 0.5) >= g


class TestDecide:
    def test_above_threshold(self):
        assert decide(2.1) is Decision.DANGEROUS

    def test_boundary_is_safe(self):
        assert decide(1.0) is Decision.SAFE

    def test_missing_is_unknown(self):
        assert decide(None) is Decision.UNKNOWN
        assert decide(float("nan")) is Decision.UNKNOWN

    def test_threshold_override(self):
        assert decide(0.5, DangerParams(threshold=0.4)) is Decision.DANGEROUS


class TestDangerTrack:
    """Scoring and classifying every grid point of a kinematic track."""

    def test_stationary_obstacle_all_safe(self):
        track = track_from_distances(np.full(20, 3.0), smooth_window=1)
        g = danger_series(track)
        decisions = decisions_from_series(g)
        defined = ~np.isnan(g.values)
        assert defined.any() and np.all(g.values[defined] == 0.0)
        assert all(d is Decision.SAFE for d, ok in zip(decisions, defined) if ok)

    def test_missing_segment_unknown(self):
        values = np.linspace(3.0, 2.0, 30)
        values[10:20] = np.nan
        track = track_from_distances(values, smooth_window=1)
        decisions = decisions_from_series(danger_series(track))
        assert all(d is Decision.UNKNOWN for d in decisions[10:20])

    def test_matches_pointwise_evaluation(self):
        rate = 50.0
        t = np.arange(100) / rate
        track = track_from_distances(4.0 - 0.8 * t, rate, smooth_window=1)
        series = danger_series(track)
        g = series.values
        decisions = decisions_from_series(series)
        for i in range(track.grid.count):
            d = track.distance[i]
            v = track.speed[i]
            a = track.acceleration[i]
            if np.isnan(v) or np.isnan(a):
                assert np.isnan(g[i]) and decisions[i] is Decision.UNKNOWN
            else:
                expected = danger_value(d, v, a)
                assert g[i] == pytest.approx(expected, abs=1e-12)
                assert decisions[i] is decide(expected)

    def test_decisions_invariant_under_time_reparameterization(self):
        # scoring is memoryless in (d, v, a): carrying the same kinematic
        # values on a stretched/shifted grid yields identical decisions
        rate = 20.0
        values = 4.0 - 0.8 * np.arange(60) / rate
        track = track_from_distances(values, rate, smooth_window=1)
        baseline = decisions_from_series(danger_series(track))

        warped_grid = UniformGrid(start=5.0, rate_hz=3.0, count=60)
        warped = KinematicTrack(warped_grid, track.distance, track.speed, track.acceleration)
        assert decisions_from_series(danger_series(warped)) == baseline

"""Derivative estimation and the crossing safety condition."""

from __future__ import annotations

import numpy as np
import pytest

from crossrisk import CrossingModel, kinematic_safety_check, numeric_collision_check, time_to_cross
from crossrisk.kinematics import KinematicTrack, differentiate
from crossrisk.timeseries import TimeSeries, UniformGrid

from conftest import series_on_grid, track_from_distances


class TestDifferentiate:
    def test_constant_distance(self):
        track = track_from_distances(np.full(50, 2.0), smooth_window=5)
        assert np.allclose(track.speed[1:], 0.0)
        assert np.allclose(track.acceleration[2:], 0.0)
        assert np.isnan(track.speed[0])
        assert np.isnan(track.acceleration[:2]).all()

    def test_uniform_approach(self):
        rate = 100.0
        t = np.arange(100) / rate
        track = track_from_distances(2.0 - t, rate, smooth_window=5)
        assert np.allclose(track.speed[1:], 1.0, atol=1e-6)
        assert np.allclose(track.acceleration[2:], 0.0, atol=1e-6)

    def test_quadratic_approach(self):
        rate = 100.0
        t = np.arange(200) / rate
        track = track_from_distances(2.0 - t * t / 2.0, rate, smooth_window=1)
        defined = ~np.isnan(track.speed)
        assert np.all(np.abs(track.speed[defined] - t[defined]) <= 2.0 / rate)
        defined_a = ~np.isnan(track.acceleration)
        assert np.allclose(track.acceleration[defined_a], 1.0, atol=1e-9)

    def test_missing_distance_poisons_stencil(self):
        values = np.linspace(3.0, 2.0, 20)
        values[7] = np.nan
        track = track_from_distances(values, smooth_window=1)
        assert np.isnan(track.speed[7])
        assert np.isnan(track.speed[8])
        assert not np.isnan(track.speed[9])
        assert np.isnan(track.acceleration[7:10]).all()
        assert not np.isnan(track.acceleration[10])

    def test_too_few_present_points_all_missing(self):
        values = np.array([1.0, np.nan, 2.0, np.nan, 3.0])
        track = track_from_distances(values, smooth_window=1)
        assert np.isnan(track.speed).all()
        assert np.isnan(track.acceleration).all()

    def test_requires_grid_match(self):
        series = series_on_grid([1.0, 2.0, 3.0], rate_hz=10.0)
        for grid in (
            UniformGrid(start=0.0, rate_hz=100.0, count=3),  # other instants
            UniformGrid(start=0.0, rate_hz=10.0, count=4),  # other length
        ):
            with pytest.raises(ValueError, match="does not lie on the track grid"):
                differentiate(series, grid)

    @pytest.mark.parametrize("start", [0.0, 1.729e9])
    def test_on_grid_means_within_the_grid_slack(self, start):
        grid = UniformGrid(start=start, rate_hz=100.0, count=40)
        values = np.linspace(3.0, 2.0, 40)
        shared = differentiate(TimeSeries(grid.times(), values), grid)
        with pytest.raises(ValueError, match="does not lie on the track grid"):
            differentiate(TimeSeries(grid.times() + 2 * grid.slack, values), grid)
        # every other instant half the slack early, the rest half the slack late
        near = grid.times() + np.resize([-0.5, 0.5], 40) * grid.slack
        assert not np.array_equal(near, grid.times())
        track = differentiate(TimeSeries(near, values), grid)
        for name in ("distance", "speed", "acceleration"):
            assert np.array_equal(getattr(track, name), getattr(shared, name), equal_nan=True)

    def test_zero_smooth_window_rejected(self):
        with pytest.raises(ValueError, match="smooth_window"):
            track_from_distances(np.full(5, 2.0), smooth_window=0)


class TestKinematicTrack:
    @pytest.mark.parametrize("field", ["distance", "speed", "acceleration"])
    def test_field_of_wrong_shape_named(self, field):
        track = track_from_distances(np.linspace(3.0, 2.0, 5))
        fields = {name: getattr(track, name) for name in ("distance", "speed", "acceleration")}
        assert not any(values.flags.writeable for values in fields.values())
        for wrong in (np.zeros(4), np.zeros((1, 5))):
            with pytest.raises(ValueError, match=f"^{field} has shape"):
                KinematicTrack(track.grid, **{**fields, field: wrong})


class TestCrossingModel:
    @pytest.mark.parametrize(
        "width,speed,expected", [(3.0, 1.0, 3.0), (3.0, 1.5, 2.0), (0.9, 0.3, 3.0)]
    )
    def test_time_to_cross(self, width, speed, expected):
        assert time_to_cross(CrossingModel(width, speed)) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossingModel(road_width=0.0, crossing_speed=1.0)
        with pytest.raises(ValueError):
            CrossingModel(road_width=3.0, crossing_speed=0.0)

    @pytest.mark.parametrize("field", ["road_width", "crossing_speed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_non_finite_or_negative_field_named(self, field, value):
        kwargs = {"road_width": 3.0, "crossing_speed": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            CrossingModel(**kwargs)


class TestSafetyCheck:
    def test_safe_margin(self):
        check = kinematic_safety_check(CrossingModel(3.0, 1.0), 10.0, 2.0, 0.0)
        assert check.margin == pytest.approx(0.6)
        assert check.safe

    def test_unsafe_margin(self):
        check = kinematic_safety_check(CrossingModel(3.0, 1.0), 5.0, 2.0, 0.0)
        assert check.margin == pytest.approx(1.2)
        assert not check.safe

    def test_stationary_obstacle(self):
        check = kinematic_safety_check(CrossingModel(3.0, 1.0), 0.5, 0.0, 0.0)
        assert check.margin == 0.0
        assert check.safe

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            kinematic_safety_check(CrossingModel(3.0, 1.0), 0.0, 1.0, 0.0)

    def test_margin_monotonicity(self, rng):
        model = CrossingModel(3.0, 1.0)
        for _ in range(200):
            d, v, a = rng.uniform(0.5, 10.0), rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
            base = kinematic_safety_check(model, d, v, a).margin
            assert kinematic_safety_check(model, d + 0.1, v, a).margin < base or (v == 0 and a == 0)
            assert kinematic_safety_check(model, d, v + 0.1, a).margin > base
            assert kinematic_safety_check(model, d, v, a + 0.1).margin > base


class TestCollisionCheck:
    def test_stationary_is_safe(self):
        assert numeric_collision_check(CrossingModel(3.0, 1.0), 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "distance, dt, named", [(1.0, 0.0, "dt"), (0.0, 1e-3, "distance")], ids=["dt", "distance"]
    )
    def test_rejects_a_step_or_distance_of_zero(self, distance, dt, named):
        with pytest.raises(ValueError, match=f"^{named} must be positive$"):
            numeric_collision_check(CrossingModel(3.0, 1.0), distance, 0.0, 0.0, dt=dt)

    def test_agreement_with_analytical_check(self, rng):
        model = CrossingModel(3.0, 1.0)
        for _ in range(300):
            d = rng.uniform(0.5, 20.0)
            v = rng.uniform(0.0, 3.0)
            a = rng.uniform(0.0, 3.0)
            check = kinematic_safety_check(model, d, v, a)
            if abs(check.margin - 1.0) <= 1e-6:
                continue
            assert numeric_collision_check(model, d, v, a) == check.safe

    def test_braking_to_stop_before_obstacle_agrees(self):
        # stopping distance v^2 / (2|a|) = 0.9 < d, so both checks are safe
        model = CrossingModel(3.0, 1.0)
        v, a, d = 0.6, -0.2, 1.0
        assert v * v / (2 * abs(a)) < d
        assert numeric_collision_check(model, d, v, a)
        assert kinematic_safety_check(model, d, v, a).safe

    def test_braking_discrepancy_is_exposed(self):
        # The obstacle overshoots the distance while still moving, then the
        # unclamped endpoint formula lets it "back away": analytical check
        # reports safe, the clamped brute-force check reports unsafe.
        model = CrossingModel(3.0, 1.0)  # crossing takes 3 s
        v, a, d = 2.0, -1.2, 1.0
        assert v * v / (2 * abs(a)) >= d  # overshoots before stopping
        check = kinematic_safety_check(model, d, v, a)
        assert check.safe  # endpoint value 2*3 - 0.6*9 = 0.6 < 1.0
        assert not numeric_collision_check(model, d, v, a)

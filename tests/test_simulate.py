"""Synthetic scenario generation and sensor degradation models."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from crossrisk import (
    CameraSensorModel,
    Decision,
    RangeSensorModel,
    RunConfig,
    ScenarioConfig,
    generate_run,
    simulate_recording,
)
from crossrisk.simulate import (
    bbox_width_px,
    distance_from_bbox,
    generate_truth,
    sample_sensor,
    scenario_from_dict,
)
from crossrisk.timeseries import TimeSeries, UniformGrid, align

from conftest import closed_form_truth

NOISELESS = {
    "rsu": RangeSensorModel(relative_noise=0.0),
    "camera_aw": CameraSensorModel(detection_range=float("inf"), pixel_noise_sigma=0.0),
    "camera_drone": CameraSensorModel(detection_range=float("inf"), pixel_noise_sigma=0.0),
}
IDENTITY_PIPELINE = RunConfig(
    smooth_window_rsu=1, smooth_window_camera=1, smooth_window_derivative=1
)


class TestScenarioConfig:
    def test_segments_default_to_constant_speed(self):
        config = ScenarioConfig(duration=5.0, initial_distance=2.5, initial_speed=0.5)
        assert config.segments == ((5.0, 0.0),)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(duration=0.0),
            dict(initial_distance=0.0),
            dict(initial_speed=-0.1),
            dict(truth_rate_hz=0.0),
            dict(segments=((1.0, 0.0),)),  # does not cover duration
        ],
    )
    def test_validation(self, kwargs):
        base = dict(duration=5.0, initial_distance=2.5, initial_speed=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(**{**base, **kwargs})


class TestGenerateTruth:
    def test_uniform_motion_reaches_zero_exactly(self):
        config = ScenarioConfig(duration=5.0, initial_distance=2.5, initial_speed=0.5)
        truth = generate_truth(config)
        assert truth.distance[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(truth.speed, 0.5)
        assert np.allclose(truth.acceleration, 0.0)

    def test_pure_acceleration_profile(self):
        config = ScenarioConfig(
            duration=2.0, initial_distance=3.0, initial_speed=0.0, segments=((2.0, 1.0),)
        )
        truth = generate_truth(config)
        t = truth.grid.times()
        assert np.allclose(truth.distance, 3.0 - t * t / 2.0, atol=1e-12)
        assert np.allclose(truth.speed, t, atol=1e-12)

    def test_braking_holds_distance_after_stop(self):
        config = ScenarioConfig(
            duration=4.0,
            initial_distance=3.0,
            initial_speed=1.0,
            segments=((4.0, -0.5),),
        )
        truth = generate_truth(config)
        stop_time = 1.0 / 0.5  # closed-form v / |a|
        stop_distance = 3.0 - (1.0 * stop_time - 0.25 * stop_time**2)
        after = truth.grid.times() > stop_time
        assert np.allclose(truth.distance[after], stop_distance, atol=1e-12)
        assert np.allclose(truth.speed[after], 0.0)
        assert np.allclose(truth.acceleration[after], 0.0)

    def test_speed_never_negative(self):
        config = ScenarioConfig(
            duration=6.0,
            initial_distance=5.0,
            initial_speed=0.8,
            segments=((2.0, 0.3), (2.0, -1.0), (2.0, 0.5)),
        )
        truth = generate_truth(config)
        assert np.all(truth.speed >= 0.0)

    def test_distance_piecewise_smooth(self):
        config = ScenarioConfig(
            duration=6.0,
            initial_distance=5.0,
            initial_speed=0.8,
            segments=((2.0, 0.3), (2.0, -1.0), (2.0, 0.5)),
        )
        truth = generate_truth(config)
        d = truth.distance
        rate = config.truth_rate_hz
        numeric_v = (d[:-1] - d[1:]) * rate
        analytic_v = truth.speed
        mid = 0.5 * (analytic_v[:-1] + analytic_v[1:])
        assert np.max(np.abs(numeric_v - mid)) < 2.0 / rate

    def test_overshoot_rejected(self):
        config = ScenarioConfig(duration=10.0, initial_distance=1.0, initial_speed=1.0)
        with pytest.raises(ValueError, match="past the crossing point"):
            generate_truth(config)

    @pytest.mark.parametrize(
        "speed, accel, expected", [(0.0, 0.0, 0.0), (0.5, -1.0, -1.0), (0.0, -1.0, 0.0)]
    )
    def test_segments_under_the_phase_tolerance_give_the_state_at_zero(
        self, speed, accel, expected
    ):
        # segments far shorter than a truth step: the one instant, t = 0, is the initial state
        config = ScenarioConfig(1e-10, 4.0, speed, ((1e-13, accel), (1e-13, 2.0)))
        truth = generate_truth(config)
        assert truth.grid.count == 1
        assert (truth.distance[0], truth.speed[0], truth.acceleration[0]) == (4.0, speed, expected)
        recording = simulate_recording(config)
        assert [stream.times.tolist() for stream in recording.values()] == [[0.0]] * 4


class TestPinholeModel:
    MODEL = CameraSensorModel(focal_px=1000.0, object_width_m=0.32)

    def test_width_at_one_meter(self):
        assert bbox_width_px(1.0, self.MODEL) == pytest.approx(320.0)

    def test_width_inverse_proportional(self):
        assert bbox_width_px(2.0, self.MODEL) == pytest.approx(160.0)

    def test_distance_recovery(self):
        assert distance_from_bbox(320.0, self.MODEL) == pytest.approx(1.0)
        assert distance_from_bbox(160.0, self.MODEL) == pytest.approx(2.0)

    def test_round_trip_identity(self, rng):
        distances = rng.uniform(0.2, 10.0, 1000)
        widths = bbox_width_px(distances, self.MODEL)
        assert widths.shape == distances.shape
        assert np.allclose(distance_from_bbox(widths, self.MODEL), distances, rtol=0, atol=1e-9)
        for d, w in zip(distances[:20], widths[:20]):
            assert bbox_width_px(float(d), self.MODEL) == w

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bbox_width_px(0.0, self.MODEL)
        with pytest.raises(ValueError):
            distance_from_bbox(0.0, self.MODEL)
        with pytest.raises(ValueError):
            bbox_width_px(np.array([1.0, -1.0]), self.MODEL)


class TestSampleSensor:
    TRUTH = generate_truth(
        ScenarioConfig(duration=5.0, initial_distance=4.0, initial_speed=0.5)
    )

    @pytest.mark.parametrize(
        "rate_hz, message",
        [
            *(pytest.param(rate, "must be a finite positive number", id=str(rate))
              for rate in (0.0, -1.0, float("nan"), float("inf"))),
            pytest.param(1e12, r"1e\+12 over 5 s gives \d+ grid points, more than the limit",
                         id="over-the-point-limit"),
            pytest.param(1e13, r"1e\+13 gives a 1e-13 s step, below 1000 times the float64",
                         id="step-below-the-floor"),
        ],
    )
    def test_bad_rate_named(self, rate_hz, message):
        """Every grid is built by ``UniformGrid.spanning``, whose errors name the setting."""
        five_seconds = TimeSeries([0.0, 5.0], [1.0, 1.0])
        for name, build in [
            ("truth_rate_hz", lambda: UniformGrid.spanning(0.0, 5.0, rate_hz, "truth_rate_hz")),
            ("resample_hz", lambda: align([five_seconds], rate_hz)),
            ("rate_hz", lambda: sample_sensor(self.TRUTH, RangeSensorModel(), rate_hz)),
        ]:
            with pytest.raises(ValueError, match=f"^{name} {message}"):
                build()

    def test_rate_over_the_point_limit_named(self):
        # refused before the 5e12 sample instants are allocated
        with pytest.raises(ValueError, match=r"rate_hz 1e\+12 over 5 s gives .* the limit"):
            sample_sensor(self.TRUTH, RangeSensorModel(), 1e12)

    def test_zero_noise_range_sensor_exact(self):
        out = sample_sensor(self.TRUTH, RangeSensorModel(relative_noise=0.0), 10.0, seed=1)
        expected = np.interp(out.times, self.TRUTH.grid.times(), self.TRUTH.distance)
        assert np.array_equal(out.values, expected)
        assert not np.isnan(out.values).any()

    def test_zero_noise_camera_within_range(self):
        model = CameraSensorModel(detection_range=float("inf"), pixel_noise_sigma=0.0)
        out = sample_sensor(self.TRUTH, model, 30.0, seed=1)
        expected = np.interp(out.times, self.TRUTH.grid.times(), self.TRUTH.distance)
        assert np.allclose(out.values, expected, rtol=1e-12)

    def test_camera_dropout_beyond_detection_range(self):
        model = CameraSensorModel(detection_range=2.5, pixel_noise_sigma=0.0)
        out = sample_sensor(self.TRUTH, model, 30.0, seed=1)
        true_d = np.interp(out.times, self.TRUTH.grid.times(), self.TRUTH.distance)
        assert np.array_equal(~np.isnan(out.values), true_d <= 2.5)
        assert np.isnan(out.values[0])  # obstacle starts at 4 m
        assert not np.isnan(out.values[-1])

    def test_seed_determinism(self):
        model = RangeSensorModel(relative_noise=0.05)
        a = sample_sensor(self.TRUTH, model, 10.0, seed=42)
        b = sample_sensor(self.TRUTH, model, 10.0, seed=42)
        c = sample_sensor(self.TRUTH, model, 10.0, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


class TestGenerateRun:
    SCENARIO = ScenarioConfig(
        duration=6.0, initial_distance=4.0, initial_speed=0.5, seed=11
    )

    def test_zero_noise_decisions_match_truth(self):
        run = generate_run(self.SCENARIO, NOISELESS, run_config=IDENTITY_PIPELINE)
        from crossrisk import danger_series, decisions_from_series

        params = IDENTITY_PIPELINE.danger
        _, truth_decisions = closed_form_truth(self.SCENARIO, run.sensors.grid, params)
        for sensor_id, track in run.sensors.tracks.items():
            decisions = decisions_from_series(danger_series(track))
            for got, want in zip(decisions, truth_decisions):
                if got is not Decision.UNKNOWN:
                    assert got is want, sensor_id

    def test_bit_identical_outputs_for_same_seed(self):
        a = generate_run(self.SCENARIO)
        b = generate_run(self.SCENARIO)
        for sensor_id in a.raw_streams:
            assert np.array_equal(
                a.raw_streams[sensor_id].values,
                b.raw_streams[sensor_id].values,
                equal_nan=True,
            )

    def test_stopping_obstacle_ends_safe(self):
        scenario = ScenarioConfig(
            duration=6.0,
            initial_distance=4.0,
            initial_speed=0.7,
            segments=((2.5, 0.2), (2.0, -0.6), (1.5, 0.0)),
            seed=3,
        )
        run = generate_run(scenario, NOISELESS, run_config=IDENTITY_PIPELINE)
        _, truth_decisions = closed_form_truth(scenario, run.sensors.grid, IDENTITY_PIPELINE.danger)
        assert truth_decisions[-1] is Decision.SAFE
        assert Decision.DANGEROUS in truth_decisions

    def test_sensor_rates_respected(self):
        run = generate_run(self.SCENARIO)
        assert run.raw_streams["rsu"].times.size == 61
        assert run.raw_streams["camera_aw"].times.size == 181
        assert run.raw_streams["tracker"].times.size == 181


GOLDEN_SCENARIO = json.loads(
    (Path(__file__).parent / "golden" / "braking_scenario.json").read_text()
)


class TestSimulateRecording:
    @pytest.mark.parametrize(
        "sensors",
        [
            {},
            {"camera_aw": {"detection_range": 0.01}},
            {"camera_aw": {"detection_range": None}, "camera_drone": {"detection_range": None}},
        ],
        ids=["golden", "blind-aw", "unlimited-range"],
    )
    def test_is_the_recording_of_generate_run(self, sensors):
        config, models = scenario_from_dict({**GOLDEN_SCENARIO, "sensors": sensors})
        recording = simulate_recording(config, models)
        raw = generate_run(config, models).raw_streams
        assert list(recording) == list(raw)
        for sensor_id, stream in recording.items():
            assert np.array_equal(stream.times, raw[sensor_id].times)
            assert np.array_equal(stream.values, raw[sensor_id].values, equal_nan=True)


class TestScenarioParsing:
    def test_minimal(self):
        config, models = scenario_from_dict(
            {"duration": 3.0, "initial_distance": 2.0, "initial_speed": 0.4}
        )
        assert config.duration == 3.0
        assert isinstance(models["rsu"], RangeSensorModel)

    def test_null_detection_range_means_unlimited(self):
        _, models = scenario_from_dict(
            {
                "duration": 3.0,
                "initial_distance": 2.0,
                "sensors": {"camera_aw": {"detection_range": None}},
            }
        )
        assert models["camera_aw"].detection_range == float("inf")

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ValueError, match="typo_field"):
            scenario_from_dict(
                {"duration": 3.0, "initial_distance": 2.0, "typo_field": 1}
            )

    def test_bad_sensor_field_named_in_error(self):
        with pytest.raises(ValueError, match="sensors.rsu"):
            scenario_from_dict(
                {
                    "duration": 3.0,
                    "initial_distance": 2.0,
                    "sensors": {"rsu": {"bogus": 1}},
                }
            )

    def test_bad_segments_rejected(self):
        with pytest.raises(ValueError, match="segments"):
            scenario_from_dict(
                {"duration": 3.0, "initial_distance": 2.0, "segments": [[1.0]]}
            )

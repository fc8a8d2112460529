"""RMSE and confusion-based evaluation against ground truth."""

from __future__ import annotations

import numpy as np
import pytest

from crossrisk import (
    DangerParams,
    Decision,
    ScenarioConfig,
    danger_series,
    decisions_from_series,
    evaluate_run,
    evaluate_source,
    fuse_all,
    generate_run,
    rmse,
)
from crossrisk.metrics import (
    DANGER_FUSION,
    DISTANCE_FUSION,
    EVALUATION_SOURCES,
    VOTING_FUSION,
    InsufficientDataError,
)

from conftest import series_on_grid

D, S, U = Decision.DANGEROUS, Decision.SAFE, Decision.UNKNOWN


class TestRmse:
    def test_identical_series(self):
        a = series_on_grid([1.0, 2.0, 3.0])
        assert rmse(a, a) == 0.0

    def test_hand_value(self):
        a = series_on_grid([1.0, 2.0, 5.0])
        b = series_on_grid([1.0, 2.0, 3.0])
        assert rmse(a, b) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-12)

    def test_masked_recomputation(self, rng):
        values = rng.normal(size=50)
        truth = rng.normal(size=50)
        values[10:30] = np.nan  # e.g. camera dropout
        a, b = series_on_grid(values), series_on_grid(truth)
        both = ~np.isnan(values)
        expected = np.sqrt(np.mean((values[both] - truth[both]) ** 2))
        assert rmse(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_zero_iff_equal(self, rng):
        a = series_on_grid(rng.normal(size=20))
        b = series_on_grid(rng.normal(size=20))
        assert rmse(a, b) == rmse(b, a)
        assert rmse(a, b) > 0

    def test_no_overlap_raises(self):
        a = series_on_grid([np.nan, 1.0])
        b = series_on_grid([1.0, np.nan])
        with pytest.raises(InsufficientDataError):
            rmse(a, b)

    def test_grid_mismatch_rejected(self):
        a = series_on_grid([1.0, 2.0], rate_hz=10.0)
        b = series_on_grid([1.0, 2.0], rate_hz=20.0)
        with pytest.raises(ValueError):
            rmse(a, b)


class TestClassificationReport:
    """Confusion counts through `evaluate_source` with no scores (no RMSE)."""

    def test_hand_counts(self):
        report = evaluate_source(None, [D, D, S, S], None, [D, S, S, S])
        assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 2, 0)
        assert report.accuracy == pytest.approx(0.75)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(1.0)

    def test_perfect_agreement(self):
        report = evaluate_source(None, [D, S, D], None, [D, S, D])
        assert report.accuracy == report.precision == report.recall == 1.0

    def test_all_dangerous_prediction(self):
        truth = [D, D, S, S]
        report = evaluate_source(None, [D, D, D, D], None, truth)
        assert report.recall == 1.0
        assert report.precision == pytest.approx(0.5)
        assert report.accuracy == pytest.approx(0.5)

    def test_unknown_excluded(self):
        report = evaluate_source(None, [D, U, S], None, [D, S, U])
        assert report.evaluated_points == 1
        assert report.excluded_points == 2
        assert report.tp == 1

    def test_unknown_as_safe_switch(self):
        report = evaluate_source(None, [U, U], None, [D, S], unknown_as_safe=True)
        assert (report.fn, report.tn) == (1, 1)
        assert report.excluded_points == 0

    def test_degenerate_precision_flagged(self):
        report = evaluate_source(None, [S, S], None, [S, D])
        assert report.precision == 1.0

    def test_degenerate_recall_flagged(self):
        report = evaluate_source(None, [S, D], None, [S, S])
        assert report.recall == 1.0

    def test_no_evaluated_points_raises(self):
        with pytest.raises(InsufficientDataError):
            evaluate_source(None, [U, U], None, [D, S])

    def test_scores_never_present_with_unknown_as_safe(self):
        # a sensor with no score classifies only when Unknown counts as Safe: RMSE is None
        blind, truth_g = series_on_grid([np.nan, np.nan]), series_on_grid([2.0, 0.5])
        report = evaluate_source(blind, [U, U], truth_g, [D, S], unknown_as_safe=True)
        assert report.rmse is None
        assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 1, 1)
        with pytest.raises(InsufficientDataError):
            evaluate_source(blind, [U, U], truth_g, [D, S])

    def test_counts_sum_to_evaluated(self, rng):
        options = [D, S, U]
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pred = [options[i] for i in rng.integers(0, 3, n)]
            truth = [options[i] for i in rng.integers(0, 2, n)]
            try:
                report = evaluate_source(None, pred, None, truth)
            except InsufficientDataError:
                continue
            assert report.tp + report.fp + report.tn + report.fn == report.evaluated_points
            assert report.evaluated_points + report.excluded_points == n

    def test_naive_recount_oracle(self, rng):
        options = [D, S, U]
        for _ in range(100):
            n = int(rng.integers(2, 60))
            pred = [options[i] for i in rng.integers(0, 3, n)]
            truth = [options[i] for i in rng.integers(0, 3, n)]
            tp = fp = tn = fn = 0
            for p, t in zip(pred, truth):
                if p is U or t is U:
                    continue
                if t is D and p is D:
                    tp += 1
                elif t is S and p is D:
                    fp += 1
                elif t is D and p is S:
                    fn += 1
                else:
                    tn += 1
            if tp + fp + tn + fn == 0:
                with pytest.raises(InsufficientDataError):
                    evaluate_source(None, pred, None, truth)
                continue
            report = evaluate_source(None, pred, None, truth)
            assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn)

    def test_invariant_under_appending_unknowns(self):
        base = evaluate_source(None, [D, S, D], None, [D, D, S])
        extended = evaluate_source(None, [D, S, D, U, U], None, [D, D, S, D, S])
        assert base.precision == extended.precision
        assert base.recall == extended.recall


class TestEvaluateRun:
    def make_run(self, noiseless: bool):
        from crossrisk import CameraSensorModel, RangeSensorModel

        scenario = ScenarioConfig(
            duration=4.0, initial_distance=3.0, initial_speed=0.7, seed=5
        )
        models = None
        if noiseless:
            models = {
                "rsu": RangeSensorModel(relative_noise=0.0),
                "camera_aw": CameraSensorModel(
                    detection_range=float("inf"), pixel_noise_sigma=0.0
                ),
                "camera_drone": CameraSensorModel(
                    detection_range=float("inf"), pixel_noise_sigma=0.0
                ),
            }
        return generate_run(scenario, models)

    def test_report_keys_and_voting_has_no_rmse(self):
        run = self.make_run(noiseless=False)
        trace = fuse_all(run.sensors)
        reports = evaluate_run(trace)
        assert set(reports) == set(EVALUATION_SOURCES)
        assert reports[VOTING_FUSION].rmse is None
        for source in EVALUATION_SOURCES:
            if source != VOTING_FUSION:
                assert reports[source].rmse is not None

    @pytest.mark.parametrize("unknown_as_safe", [False, True])
    @pytest.mark.parametrize("params", [DangerParams(), DangerParams(threshold=0.3)])
    def test_matches_evaluate_source(self, params, unknown_as_safe):
        # the trace's own parameters threshold the scores, as the public path does
        run = self.make_run(noiseless=False)
        trace = fuse_all(run.sensors, params)
        truth_g = danger_series(run.sensors.tracker(), params)
        truth = decisions_from_series(truth_g, params)
        candidates = {s: danger_series(t, params) for s, t in run.sensors.fusable().items()}
        candidates[DISTANCE_FUSION] = trace.g_distance_fusion
        candidates[DANGER_FUSION] = trace.g_danger_fusion
        reports = evaluate_run(trace, unknown_as_safe)
        assert set(reports) == set(EVALUATION_SOURCES)
        for source, g in candidates.items():
            decisions = decisions_from_series(g, params)
            expected = evaluate_source(g, decisions, truth_g, truth, unknown_as_safe)
            assert reports[source] == expected, source
        expected = evaluate_source(None, trace.decision_vote, truth_g, truth, unknown_as_safe)
        assert reports[VOTING_FUSION] == expected

    def test_perfect_sensors_score_perfectly(self):
        from crossrisk import CameraSensorModel, RangeSensorModel, RunConfig

        scenario = ScenarioConfig(
            duration=4.0, initial_distance=3.0, initial_speed=0.7, seed=5
        )
        models = {
            "rsu": RangeSensorModel(relative_noise=0.0),
            "camera_aw": CameraSensorModel(
                detection_range=float("inf"), pixel_noise_sigma=0.0
            ),
            "camera_drone": CameraSensorModel(
                detection_range=float("inf"), pixel_noise_sigma=0.0
            ),
        }
        config = RunConfig(
            smooth_window_rsu=1, smooth_window_camera=1, smooth_window_derivative=1
        )
        run = generate_run(scenario, models, run_config=config)
        trace = fuse_all(run.sensors, derivative_smooth_window=1)
        reports = evaluate_run(trace)
        for source, report in reports.items():
            assert report.accuracy == 1.0, source
            if report.rmse is not None:
                assert report.rmse < 1e-9, source

    def test_missing_tracker_rejected(self):
        run = self.make_run(noiseless=False)
        from crossrisk import SensorSet

        tracks = {k: v for k, v in run.sensors.tracks.items() if k != "tracker"}
        sensors = SensorSet(run.sensors.grid, tracks)
        trace = fuse_all(sensors)
        with pytest.raises(ValueError, match="tracker"):
            evaluate_run(trace)

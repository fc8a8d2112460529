"""Distance / danger / voting fusion over aligned sensor tracks."""

from __future__ import annotations

import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrisk import (
    TRACKER,
    DangerParams,
    Decision,
    ScenarioConfig,
    fuse_all,
    sensor_set_from_streams,
    simulate_recording,
)
from crossrisk.danger import danger_series, decisions_from_series
from crossrisk.fusion import (
    CAMERA_AW,
    CAMERA_DRONE,
    DANGER_FUSION,
    DISTANCE_FUSION,
    RSU,
    VOTING_FUSION,
    SensorSet,
)
from crossrisk.io import write_fused_csv
from crossrisk.simulate import CameraSensorModel, generate_run
from crossrisk.timeseries import TimeSeries

from conftest import same_bits, track_from_distances

PARAMS = DangerParams()
FUSIONS = (DISTANCE_FUSION, DANGER_FUSION, VOTING_FUSION)
# the golden scenario's motion
BRAKING = dict(duration=6.0, initial_distance=4.0, initial_speed=0.7,
               segments=((2.5, 0.2), (2.0, -0.6), (1.5, 0.0)))


def sensor_set(per_sensor_distances: dict[str, np.ndarray], rate_hz: float = 10.0) -> SensorSet:
    tracks = {
        sensor_id: track_from_distances(values, rate_hz, smooth_window=1)
        for sensor_id, values in per_sensor_distances.items()
    }
    grid = next(iter(tracks.values())).grid
    return SensorSet(grid, tracks)


def approach(start: float, speed: float, n: int = 30, rate_hz: float = 10.0) -> np.ndarray:
    return start - speed * np.arange(n) / rate_hz


class TestSensorSet:
    def test_mismatched_grid_rejected(self):
        a = track_from_distances(np.full(10, 2.0))
        b = track_from_distances(np.full(12, 2.0))
        with pytest.raises(ValueError):
            SensorSet(a.grid, {RSU: a, CAMERA_AW: b})

    def test_tracker_excluded_from_fusion(self):
        sensors = sensor_set(
            {RSU: np.full(10, 2.0), TRACKER: np.full(10, 9.0)}
        )
        fused = fuse_all(sensors).distance_fused
        assert np.allclose(fused.values, 2.0)

    def test_tracks_stack_into_a_frame_with_the_tracker_row_last(self):
        tracks = {
            TRACKER: track_from_distances(np.full(10, 9.0)),
            RSU: track_from_distances(approach(3.0, 0.5, n=10)),
        }
        sensors = SensorSet(tracks[RSU].grid, tracks)
        assert sensors.ids == (RSU, TRACKER)
        assert sensors.distance.shape == (2, 10) and not sensors.distance.flags.writeable
        assert list(sensors.fusable()) == [RSU]
        for sensor_id, track in sensors.tracks.items():
            for field in ("distance", "speed", "acceleration"):
                np.testing.assert_array_equal(
                    getattr(track, field), getattr(tracks[sensor_id], field)
                )
        np.testing.assert_array_equal(fuse_all(sensors).distance_fused.values, tracks[RSU].distance)

    def test_rows_follow_the_sensor_ids_whatever_the_mapping_order(self):
        camera = CameraSensorModel(detection_range=np.inf)
        streams = simulate_recording(
            ScenarioConfig(**BRAKING, seed=3), {CAMERA_AW: camera, CAMERA_DRONE: camera}
        )
        tracks = sensor_set_from_streams(streams).tracks
        grid = next(iter(tracks.values())).grid
        canonical = SensorSet(grid, tracks)
        expected = fuse_all(canonical)
        assert canonical.ids == (RSU, CAMERA_AW, CAMERA_DRONE, TRACKER)
        for order in permutations(tracks):
            sensors = SensorSet(grid, {s: tracks[s] for s in order})
            assert sensors.ids == canonical.ids, order
            for field in ("distance", "speed", "acceleration"):
                same_bits(getattr(sensors, field), getattr(canonical, field))
            trace = fuse_all(sensors)
            assert trace.sources == expected.sources
            same_bits(trace.scores, expected.scores)
            same_bits(trace.distance_fused.values, expected.distance_fused.values)
            np.testing.assert_array_equal(trace.codes, expected.codes)

    def test_an_unknown_sensor_id_is_rejected_by_both_constructors(self):
        track = track_from_distances(np.full(10, 2.0))
        with pytest.raises(ValueError, match=r"^unknown sensor ids: \['lidar'\]$"):
            SensorSet(track.grid, {RSU: track, "lidar": track})
        series = TimeSeries(np.arange(10) / 100, np.full(10, 2.0))
        with pytest.raises(ValueError, match=r"^unknown sensor ids: \['lidar'\]$"):
            sensor_set_from_streams({RSU: series, "lidar": series})

    def test_an_empty_stream_is_a_sensor_with_no_reading(self):
        ok, empty = TimeSeries(np.arange(10) / 100, np.full(10, 2.0)), TimeSeries([], [])
        sensors = sensor_set_from_streams({RSU: ok, CAMERA_AW: empty})
        assert sensors.ids == (RSU, CAMERA_AW)
        assert sensors.grid == sensor_set_from_streams({RSU: ok}).grid
        assert not np.isnan(sensors.distance[0]).any() and np.isnan(sensors.distance[1]).all()
        with pytest.raises(ValueError, match="^nothing to align$"):
            sensor_set_from_streams({RSU: empty})
        with pytest.raises(ValueError, match="^nothing to align$"):
            sensor_set_from_streams({RSU: empty, TRACKER: empty})

    def test_tracker_only_set_has_nothing_to_fuse(self):
        sensors = sensor_set({TRACKER: np.full(10, 9.0)})
        with pytest.raises(ValueError, match="no fusable sensors"):
            fuse_all(sensors)


class TestDistanceFusion:
    def test_mean_of_three(self):
        sensors = sensor_set(
            {RSU: np.full(5, 2.0), CAMERA_AW: np.full(5, 2.2), CAMERA_DRONE: np.full(5, 2.4)}
        )
        assert np.allclose(fuse_all(sensors).distance_fused.values, 2.2)

    def test_single_available_sensor(self):
        cam = np.full(5, np.nan)
        sensors = sensor_set(
            {RSU: np.full(5, 2.0), CAMERA_AW: cam, CAMERA_DRONE: cam.copy()}
        )
        assert np.allclose(fuse_all(sensors).distance_fused.values, 2.0)

    def test_all_missing_is_missing(self):
        gap = np.full(5, np.nan)
        gap_a = gap.copy()
        gap_a[0] = 1.0  # keep the series constructible
        sensors = sensor_set({RSU: gap_a, CAMERA_AW: gap.copy(), CAMERA_DRONE: gap.copy()})
        fused = fuse_all(sensors).distance_fused
        assert np.isnan(fused.values[1:]).all()

    def test_within_min_max_of_available(self, rng):
        n = 40
        data = {}
        for sensor_id in (RSU, CAMERA_AW, CAMERA_DRONE):
            values = rng.uniform(1.0, 5.0, n)
            values[rng.random(n) < 0.3] = np.nan
            data[sensor_id] = values
        sensors = sensor_set(data)
        fused = fuse_all(sensors).distance_fused.values
        stacked = np.vstack([data[s] for s in (RSU, CAMERA_AW, CAMERA_DRONE)])
        for i in range(n):
            col = stacked[:, i]
            col = col[~np.isnan(col)]
            if col.size == 0:
                assert np.isnan(fused[i])
            else:
                assert col.min() - 1e-12 <= fused[i] <= col.max() + 1e-12


class TestDangerFusion:
    def test_availability_aware_mean(self, rng):
        n = 40
        data = {}
        for sensor_id in (RSU, CAMERA_AW, CAMERA_DRONE):
            values = approach(rng.uniform(3.0, 5.0), rng.uniform(0.2, 0.6), n)
            values[rng.random(n) < 0.3] = np.nan
            data[sensor_id] = values
        sensors = sensor_set(data)
        fused = fuse_all(sensors, PARAMS).g_danger_fusion.values

        per_sensor = [
            danger_series(track, PARAMS).values for track in sensors.fusable().values()
        ]
        for i in range(n):
            scores = [g[i] for g in per_sensor if not np.isnan(g[i])]
            if not scores:
                assert np.isnan(fused[i])
            else:
                assert fused[i] == pytest.approx(float(np.mean(scores)), abs=1e-12)

    def test_all_stationary_zero(self):
        sensors = sensor_set(
            {k: np.full(10, 3.0) for k in (RSU, CAMERA_AW, CAMERA_DRONE)}
        )
        fused = fuse_all(sensors, PARAMS).g_danger_fusion
        defined = ~np.isnan(fused.values)
        assert np.allclose(fused.values[defined], 0.0)


class TestVotingFusion:
    # fast approach => danger above threshold at the last point (DANGEROUS),
    # slow approach => vote SAFE; distances stay within ~1.4-4 m
    FAST = 0.9
    SLOW = 0.1

    def votes_for(self, speeds: dict[str, float | None]) -> Decision:
        data = {}
        for sensor_id, speed in speeds.items():
            if speed is None:
                values = np.full(30, np.nan)
                values[0] = 4.0  # constructible, all later points missing
            else:
                values = approach(4.0, speed)
            data[sensor_id] = values
        sensors = sensor_set(data)
        return fuse_all(sensors, PARAMS).decision_vote[-1]

    def test_majority_dangerous(self):
        assert (
            self.votes_for({RSU: self.FAST, CAMERA_AW: self.FAST, CAMERA_DRONE: self.SLOW})
            is Decision.DANGEROUS
        )

    def test_majority_safe(self):
        assert (
            self.votes_for({RSU: self.SLOW, CAMERA_AW: self.SLOW, CAMERA_DRONE: self.FAST})
            is Decision.SAFE
        )

    def test_two_sensor_tie_breaks_dangerous(self):
        assert (
            self.votes_for({RSU: self.FAST, CAMERA_AW: self.SLOW, CAMERA_DRONE: None})
            is Decision.DANGEROUS
        )

    def test_no_votes_is_unknown(self):
        assert (
            self.votes_for({RSU: None, CAMERA_AW: None, CAMERA_DRONE: None})
            is Decision.UNKNOWN
        )

    def test_two_sensor_patterns_exhaustive(self):
        # every 2-available-sensor vote pattern against the documented rule
        for a in (self.FAST, self.SLOW):
            for b in (self.FAST, self.SLOW):
                got = self.votes_for({RSU: a, CAMERA_AW: b, CAMERA_DRONE: None})
                expected = (
                    Decision.SAFE if (a, b) == (self.SLOW, self.SLOW) else Decision.DANGEROUS
                )
                assert got is expected

    def test_permutation_invariance(self):
        ids = (RSU, CAMERA_AW, CAMERA_DRONE)
        speeds = (self.FAST, self.SLOW, self.SLOW)
        reference = None
        import itertools

        for perm in itertools.permutations(speeds):
            vote = self.votes_for(dict(zip(ids, perm)))
            if reference is None:
                reference = vote
            assert vote is reference


class TestFuseAll:
    def test_identical_sensors_collapse(self):
        values = approach(4.0, 0.9, n=30)
        sensors = sensor_set({k: values.copy() for k in (RSU, CAMERA_AW, CAMERA_DRONE)})
        trace = fuse_all(sensors, PARAMS, derivative_smooth_window=1)

        single = danger_series(sensors.tracks[RSU], PARAMS)
        defined = ~np.isnan(single.values)
        assert np.allclose(
            trace.g_distance_fusion.values[defined], single.values[defined], atol=1e-12
        )
        assert np.allclose(
            trace.g_danger_fusion.values[defined], single.values[defined], atol=1e-12
        )
        assert trace.decision_distance == trace.decision_danger == trace.decision_vote

    def test_single_sensor_equals_its_pipeline(self):
        missing = np.full(30, np.nan)
        missing[0] = 4.0
        values = approach(4.0, 0.9, n=30)
        sensors = sensor_set(
            {RSU: values, CAMERA_AW: missing, CAMERA_DRONE: missing.copy()}
        )
        trace = fuse_all(sensors, PARAMS, derivative_smooth_window=1)
        assert np.allclose(
            trace.distance_fused.values[1:], values[1:], atol=1e-12
        )

    def test_fused_distance_averages_the_available_sensors(self):
        rsu, camera_aw, drone = (approach(start, 0.5, n=20) for start in (4.0, 3.0, 2.0))
        camera_aw[5:] = np.nan
        sensors = sensor_set({RSU: rsu, CAMERA_AW: camera_aw, CAMERA_DRONE: drone})
        fused = fuse_all(sensors, PARAMS).distance_fused.values
        np.testing.assert_allclose(fused[:5], (rsu[:5] + camera_aw[:5] + drone[:5]) / 3)
        np.testing.assert_allclose(fused[5:], (rsu[5:] + drone[5:]) / 2)

    @pytest.mark.parametrize("params", [PARAMS, DangerParams(threshold=0.3)])
    def test_decision_streams_decode_the_fused_scores(self, params):
        run = generate_run(
            ScenarioConfig(
                duration=6.0,
                initial_distance=4.0,
                initial_speed=0.7,
                segments=((2.5, 0.2), (2.0, -0.6), (1.5, 0.0)),
                seed=5,
            )
        )
        trace = fuse_all(run.sensors, params)
        # every series of the trace shares the grid's one timestamp array
        times = trace.grid.times()
        on_grid = [*trace.sensor_g.values(), trace.distance_fused, trace.g_distance_fusion,
                   trace.g_danger_fusion]
        assert all(series.times is times for series in on_grid)
        streams = (trace.decision_distance, trace.decision_danger, trace.decision_vote)
        for stream in streams:
            assert type(stream) is tuple
            assert all(type(d) is Decision for d in stream)
        assert trace.decision_distance == decisions_from_series(trace.g_distance_fusion, params)
        assert trace.decision_danger == decisions_from_series(trace.g_danger_fusion, params)
        # absent sensors abstain, ties break toward DANGEROUS
        assert trace.decision_vote == tuple(
            Decision.UNKNOWN if cast == 0
            else Decision.DANGEROUS if 2 * dangerous >= cast
            else Decision.SAFE
            for dangerous, cast in zip(trace.dangerous_votes, trace.votes_cast)
        )
        assert set(trace.decision_vote) == {Decision.SAFE, Decision.DANGEROUS, Decision.UNKNOWN}


def _fused_bytes(trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fused.csv"
        write_fused_csv(path, trace, trace.sensor_g)
        return path.read_bytes()


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    detection_range=st.sampled_from([2.5, 0.01, np.inf]),
    with_tracker=st.booleans(),
    data=st.data(),
)
def test_outputs_do_not_depend_on_stream_order(seed, detection_range, with_tracker, data):
    config = ScenarioConfig(**BRAKING, seed=seed)
    camera = CameraSensorModel(detection_range=detection_range)
    streams = simulate_recording(config, {CAMERA_AW: camera, CAMERA_DRONE: camera})
    if not with_tracker:
        del streams[TRACKER]
    order = data.draw(st.permutations(list(streams)), label="order")
    canonical = fuse_all(sensor_set_from_streams(streams))
    shuffled = fuse_all(sensor_set_from_streams({s: streams[s] for s in order}))

    assert shuffled.grid == canonical.grid
    sensor_ids = [s for s in (RSU, CAMERA_AW, CAMERA_DRONE, TRACKER) if s in streams]
    assert shuffled.sources == canonical.sources == (*sensor_ids, *FUSIONS)
    for name in ("scores", "codes"):
        np.testing.assert_array_equal(getattr(shuffled, name), getattr(canonical, name))
    np.testing.assert_array_equal(shuffled.distance_fused.values, canonical.distance_fused.values)
    for name in ("dangerous_votes", "votes_cast"):
        np.testing.assert_array_equal(getattr(shuffled, name), getattr(canonical, name))
    assert _fused_bytes(shuffled) == _fused_bytes(canonical)

"""The sensors × time frame against the per-sensor pipeline, and the pipeline's causality.

``sensor_set_from_streams`` and ``fuse_all`` run each kernel once over a
frame of sensor rows.  The reference runs the same recording one sensor
at a time through ``smooth_trailing``, ``align``, ``differentiate``,
``danger_series`` and ``decisions_from_series``; every output must match
it bit for bit, NaN included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrisk import (
    TRACKER,
    DangerParams,
    Decision,
    danger_series,
    decisions_from_series,
    evaluate_run,
    evaluate_source,
    fuse_all,
    sensor_set_from_streams,
)
from crossrisk.fusion import CAMERA_AW, CAMERA_DRONE, RSU
from crossrisk.kinematics import differentiate
from crossrisk.metrics import DANGER_FUSION, DISTANCE_FUSION, VOTING_FUSION, InsufficientDataError
from crossrisk.timeseries import TimeSeries, align, smooth_trailing

from conftest import same_bits

FUSABLE = (RSU, CAMERA_AW, CAMERA_DRONE)
CODES = {Decision.SAFE: 0, Decision.DANGEROUS: 1, Decision.UNKNOWN: 2}
DECISIONS = {code: decision for decision, code in CODES.items()}
# epoch starts, two of them with a grid that crosses 2**31 s
STARTS = [0.0, 0.37, 1.729e9 + 0.3, 2.0**31 - 0.25, 2.0**31 - 1.5, 2.0**30 - 0.2]


@st.composite
def recordings(draw) -> dict[str, TimeSeries]:
    """Rows at one rate, as a CSV holds them: each column dense, with dropouts, starting late
    or never detecting; the tracker column may be absent."""
    rows = draw(st.integers(3, 70))
    step = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1]))
    times = draw(st.sampled_from(STARTS)) + np.arange(rows) * step
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = times - times[0]
    streams = {}
    for sensor in (*FUSABLE, TRACKER):
        if sensor == TRACKER and not draw(st.booleans()):
            continue
        approach = rng.uniform(0.2, 5.0) - rng.uniform(-1.0, 2.0) * t + rng.normal(0, 0.05, rows)
        values = np.abs(approach)
        kind = draw(st.sampled_from(["dense", "dropouts", "late", "never"]))
        if kind == "dropouts":
            values[rng.random(rows) < 0.3] = np.nan
        elif kind == "late":
            values[: rng.integers(1, rows)] = np.nan
            values[rng.random(rows) < 0.1] = np.nan
        elif kind == "never":
            values[:] = np.nan
        streams[sensor] = TimeSeries(times, values)
    return streams


pipeline_settings = st.fixed_dictionaries({
    "smooth_window_rsu": st.integers(1, 6),
    "smooth_window_camera": st.integers(1, 6),
    "derivative_smooth_window": st.integers(1, 6),
    # below the grid step, the bound of the causality property is tight
    "max_gap": st.sampled_from([0.005, 0.05, 0.15, 0.5]),
})


def per_sensor_reference(streams, windows, params):
    """Every sensor one at a time: its aligned distance, track, scores and decisions."""
    smoothing = {RSU: windows["smooth_window_rsu"], CAMERA_AW: windows["smooth_window_camera"],
                 CAMERA_DRONE: windows["smooth_window_camera"], TRACKER: 1}
    order = [s for s in (*FUSABLE, TRACKER) if s in streams]
    smoothed = [
        smooth_trailing(streams[s], smoothing[s]) if smoothing[s] > 1 else streams[s]
        for s in order
    ]
    grid, aligned = align(smoothed, 100.0, max_gap=windows["max_gap"])
    window = windows["derivative_smooth_window"]
    tracks = {
        s: differentiate(series, grid, smooth_window=window) for s, series in zip(order, aligned)
    }
    scores = {s: danger_series(track, params) for s, track in tracks.items()}
    decisions = {s: decisions_from_series(g, params) for s, g in scores.items()}
    return grid, tracks, scores, decisions


def available_mean(rows: list[np.ndarray]) -> np.ndarray:
    """Mean over the present entries, summed one sensor after another (NaN where none)."""
    total = np.where(np.isnan(rows[0]), 0.0, rows[0])
    count = (~np.isnan(rows[0])).astype(int)
    for row in rows[1:]:
        total = total + np.where(np.isnan(row), 0.0, row)
        count = count + ~np.isnan(row)
    with np.errstate(invalid="ignore"):
        return np.where(count > 0, total / np.maximum(count, 1), np.nan)


@settings(deadline=None, max_examples=150)
@given(streams=recordings(), windows=pipeline_settings, threshold=st.sampled_from([0.3, 1.0]))
def test_frame_equals_the_per_sensor_pipeline(streams, windows, threshold):
    params = DangerParams(threshold=threshold)
    sensors = sensor_set_from_streams(streams, **windows)
    trace = fuse_all(sensors, params, derivative_smooth_window=windows["derivative_smooth_window"])
    grid, tracks, scores, decisions = per_sensor_reference(streams, windows, params)

    assert sensors.grid == grid and list(sensors.ids) == list(tracks)
    assert trace.sources == (*tracks, DISTANCE_FUSION, DANGER_FUSION, VOTING_FUSION)
    assert trace.scores.shape == trace.codes.shape == (len(trace.sources), grid.count)
    assert trace.codes.dtype == np.int8
    assert not trace.scores.flags.writeable and not trace.codes.flags.writeable
    for i, (sensor, track) in enumerate(tracks.items()):
        for field in ("distance", "speed", "acceleration"):
            same_bits(getattr(sensors, field)[i], getattr(track, field))
            same_bits(getattr(sensors.tracks[sensor], field), getattr(track, field))
        same_bits(trace.scores[i], scores[sensor].values)
        np.testing.assert_array_equal(trace.codes[i], [CODES[d] for d in decisions[sensor]])

    fusable = [s for s in FUSABLE if s in tracks]
    fused = available_mean([tracks[s].distance for s in fusable])
    same_bits(trace.distance_fused.values, fused)
    fused_track = differentiate(TimeSeries(grid.times(), fused), grid,
                                smooth_window=windows["derivative_smooth_window"])
    fused_g = danger_series(fused_track, params)
    danger_g = TimeSeries(grid.times(), available_mean([scores[s].values for s in fusable]))
    distance_decisions = decisions_from_series(fused_g, params)
    danger_decisions = decisions_from_series(danger_g, params)
    # each sensor votes its decision; Unknown abstains, a tie goes Dangerous
    votes = np.array([[CODES[d] for d in decisions[s]] for s in fusable])
    dangerous, cast = (votes == 1).sum(axis=0), (votes != 2).sum(axis=0)
    np.testing.assert_array_equal(trace.dangerous_votes, dangerous)
    np.testing.assert_array_equal(trace.votes_cast, cast)
    vote_codes = np.where(cast == 0, 2, np.where(2 * dangerous >= cast, 1, 0))
    vote_decisions = tuple(DECISIONS[code] for code in vote_codes)

    distance_row, danger_row, vote_row = range(len(tracks), len(tracks) + 3)
    same_bits(trace.scores[distance_row], fused_g.values)
    same_bits(trace.scores[danger_row], danger_g.values)
    assert np.isnan(trace.scores[vote_row]).all()  # the vote has no score
    np.testing.assert_array_equal(trace.codes[distance_row],
                                  [CODES[d] for d in distance_decisions])
    np.testing.assert_array_equal(trace.codes[danger_row], [CODES[d] for d in danger_decisions])
    np.testing.assert_array_equal(trace.codes[vote_row], vote_codes)

    # the row views kept for perfbench/ read the same rows
    assert list(trace.sensor_g) == list(tracks)
    for sensor, series in trace.sensor_g.items():
        same_bits(series.values, scores[sensor].values)
        assert series.times is sensors.grid.times()
    same_bits(trace.g_distance_fusion.values, fused_g.values)
    same_bits(trace.g_danger_fusion.values, danger_g.values)
    assert trace.decision_distance == distance_decisions
    assert trace.decision_danger == danger_decisions
    assert trace.decision_vote == vote_decisions

    if TRACKER not in tracks:
        with pytest.raises(ValueError, match="tracker"):
            evaluate_run(trace)
        return
    candidates = {s: (scores[s], decisions[s]) for s in fusable}
    candidates[DISTANCE_FUSION] = (fused_g, distance_decisions)
    candidates[DANGER_FUSION] = (danger_g, danger_decisions)
    candidates[VOTING_FUSION] = (None, vote_decisions)
    for unknown_as_safe in (False, True):
        reports = evaluate_run(trace, unknown_as_safe)
        assert list(reports) == list(candidates)
        for source, (g, source_decisions) in candidates.items():
            try:
                expected = evaluate_source(g, source_decisions, scores[TRACKER],
                                           decisions[TRACKER], unknown_as_safe)
            except InsufficientDataError:
                expected = None
            assert reports[source] == expected, source


def jump(rows: int = 40, at: int = 20, height: float = 1e308) -> np.ndarray:
    values = np.full(rows, 2.0)
    values[at] = height
    return values


OVERFLOWS = {
    # a 1e308 m jump in one step: the speed leaves float64's range
    **{(sensor, "speed"): {s: jump() if s == sensor else np.full(40, 2.0)
                           for s in (*FUSABLE, TRACKER)} for sensor in (*FUSABLE, TRACKER)},
    # 1e306 m in one step is a finite speed; the step after it doubles it into the acceleration
    (CAMERA_DRONE, "acceleration"): {RSU: np.full(40, 2.0), CAMERA_AW: np.full(40, 2.0),
                                     CAMERA_DRONE: jump(height=1e306)},
    # no sensor overflows, but where the camera drops out the fused distance jumps by 4e307 m
    (DISTANCE_FUSION, "speed"): {RSU: np.full(100, 8e307),
                                 CAMERA_AW: np.where(abs(np.arange(100) - 50) <= 30, np.nan, 2.0),
                                 CAMERA_DRONE: np.full(100, np.nan)},
}


@pytest.mark.parametrize("window", [1, 5], ids=["unsmoothed", "smoothed"])
@pytest.mark.parametrize("row, derivative", OVERFLOWS, ids=lambda v: str(v))
def test_an_overflowing_row_is_named(row, derivative, window):
    columns = OVERFLOWS[row, derivative]
    times = np.arange(len(next(iter(columns.values())))) / 100
    streams = {s: TimeSeries(times, values) for s, values in columns.items()}
    windows = {"smooth_window_rsu": min(window, 2), "smooth_window_camera": window,
               "derivative_smooth_window": window}
    message = f"^{row}: {derivative} must not be infinite$"
    with pytest.raises(ValueError, match=message):
        fuse_all(sensor_set_from_streams(streams, **windows), derivative_smooth_window=window)
    if row != DISTANCE_FUSION:  # the per-sensor reference rejects the same derivative
        grid, aligned = align([streams[row]], 100.0)
        with pytest.raises(ValueError, match=f"^{derivative} must not be infinite$"):
            differentiate(aligned[0], grid, smooth_window=1)


STEADY = {s: TimeSeries(np.arange(40) / 100, np.full(40, 2.0)) for s in (*FUSABLE, TRACKER)}


WINDOW_ERRORS = {
    "smooth_window_rsu": "window must be at least 1, got {}",
    "smooth_window_camera": "window must be at least 1, got {}",
    "derivative_smooth_window": "smooth_window must be at least 1",
}


@pytest.mark.parametrize("value", [0, -4])
@pytest.mark.parametrize("window", WINDOW_ERRORS)
def test_a_window_below_one_is_rejected_naming_no_sensor(window, value):
    with pytest.raises(ValueError, match=f"^{WINDOW_ERRORS[window].format(value)}$"):
        sensor_set_from_streams(STEADY, **{window: value})


@pytest.mark.parametrize("value", [0, -4])
def test_a_fused_derivative_window_below_one_is_rejected_naming_no_fusion(value):
    sensors = sensor_set_from_streams(STEADY)
    with pytest.raises(ValueError, match="^smooth_window must be at least 1$"):
        fuse_all(sensors, derivative_smooth_window=value)


def _outputs(sensors, trace) -> dict[str, np.ndarray]:
    """Every per-instant output of the pipeline, as float arrays."""
    out = {f"{field}:{s}": getattr(sensors, field)[i] for i, s in enumerate(sensors.ids)
           for field in ("distance", "speed", "acceleration")}
    out.update({f"scores:{s}": row for s, row in zip(trace.sources, trace.scores)})
    out.update({f"codes:{s}": row for s, row in zip(trace.sources, trace.codes)})
    out["distance_fused"] = trace.distance_fused.values
    for name in ("dangerous_votes", "votes_cast"):
        out[name] = getattr(trace, name)
    return {name: np.asarray(values, dtype=float) for name, values in out.items()}


@settings(deadline=None, max_examples=200)
@given(
    streams=recordings(),
    windows=pipeline_settings,
    position=st.floats(0.0, 1.0),
    after=st.sampled_from([0.0, 0.8]),
)
@example(  # the full grid ends past 2**31 s, the cut one before it: their slacks differ
    streams={s: TimeSeries(2.0**31 - 3.0 + np.arange(400) / 100, np.linspace(4.0, 1.0, 400))
             for s in (*FUSABLE, TRACKER)},
    windows={"smooth_window_rsu": 2, "smooth_window_camera": 5, "derivative_smooth_window": 5,
             "max_gap": 0.5},
    position=250 / 399,
    after=0.0,
)
@example(  # a cut between two rows at a gap below the grid step, where the bound is tight
    streams={s: TimeSeries(0.37 + np.arange(50) / 100, np.linspace(4.0, 3.0, 50))
             for s in (*FUSABLE, TRACKER)},
    windows={"smooth_window_rsu": 2, "smooth_window_camera": 5, "derivative_smooth_window": 5,
             "max_gap": 0.005},
    position=30 / 49,
    after=0.8,
)
def test_outputs_before_a_cut_do_not_depend_on_what_follows_it(streams, windows, position, after):
    """Cut the raw streams at ``T``, at a row or ``after`` steps past it: every output at an
    instant up to ``T - max_gap - slack`` is the full run's, bit for bit.  A backward-difference
    pipeline looks at no later reading."""
    times = next(iter(streams.values())).times
    cut = times[round(position * (times.size - 1))] + after * (times[1] - times[0])
    fuse_settings = {"derivative_smooth_window": windows["derivative_smooth_window"]}
    full_sensors = sensor_set_from_streams(streams, **windows)
    full = _outputs(full_sensors, fuse_all(full_sensors, **fuse_settings))
    kept = times <= cut
    cut_streams = {s: TimeSeries(series.times[kept], series.values[kept])
                   for s, series in streams.items()}
    cut_sensors = sensor_set_from_streams(cut_streams, **windows)
    prefix = _outputs(cut_sensors, fuse_all(cut_sensors, **fuse_settings))

    grid = cut_sensors.grid
    assert grid.start == full_sensors.grid.start
    final = grid.times() <= cut - windows["max_gap"] - grid.slack
    assert list(prefix) == list(full)
    for name, values in prefix.items():
        same_bits(values[final], full[name][: grid.count][final])

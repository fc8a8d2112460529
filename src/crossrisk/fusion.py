"""Fusing aligned per-sensor streams into one decision stream.

Three architectures over whatever sensors are available at each instant:

* distance fusion — average the raw distances first, then run the
  derivative + danger pipeline once on the fused distance;
* danger fusion — score each sensor separately, then average scores;
* voting fusion — threshold each sensor separately, then majority-vote
  the decisions (ties break toward DANGEROUS, absent sensors abstain).

The motion-tracker channel is ground truth and is never fused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .danger import (
    _DANGEROUS,
    _UNKNOWN,
    DangerParams,
    _as_decisions,
    _danger_values,
    _decision_codes,
)
from .kinematics import KinematicTrack, _derivatives, _reject_infinite
from .timeseries import TimeSeries, UniformGrid, _frozen, _interpolate, _trailing_mean, _unchecked

RSU = "rsu"
CAMERA_AW = "camera_aw"
CAMERA_DRONE = "camera_drone"
TRACKER = "tracker"
SENSOR_IDS = (RSU, CAMERA_AW, CAMERA_DRONE)
DISTANCE_FUSION = "distance_fusion"


@dataclass(frozen=True, init=False, eq=False)
class SensorSet:
    """Each sensor's distance, closing speed and acceleration on one grid: a sensors × time frame.

    Row ``i`` of the read-only ``(len(ids), grid.count)`` arrays ``distance``, ``speed`` and
    ``acceleration`` is sensor ``ids[i]``'s.  The tracker, when present, is the last row, so
    the rows before it are the fusable sensors.
    """

    grid: UniformGrid
    ids: tuple[str, ...]
    distance: np.ndarray
    speed: np.ndarray
    acceleration: np.ndarray

    def __init__(self, grid: UniformGrid, tracks: Mapping[str, KinematicTrack]) -> None:
        """Stack per-sensor tracks into a frame, the tracker's row last; for ``perfbench/``."""
        for sensor_id, track in tracks.items():
            if track.grid != grid:
                raise ValueError(f"track {sensor_id!r} is not on the shared grid")
        ids = tuple(sorted(tracks, key=lambda s: s == TRACKER))  # stable: only the tracker moves
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "ids", ids)
        for name in ("distance", "speed", "acceleration"):
            rows = [getattr(tracks[s], name) for s in ids]
            object.__setattr__(self, name, _frozen(np.array(rows).reshape(len(ids), grid.count)))

    @property
    def tracks(self) -> dict[str, KinematicTrack]:
        """Each sensor's row as a read-only track view, in row order; for ``perfbench/``."""
        rows = zip(self.ids, self.distance, self.speed, self.acceleration)
        return {
            s: _unchecked(KinematicTrack, grid=self.grid, distance=d, speed=v, acceleration=a)
            for s, d, v, a in rows
        }

    def fusable(self) -> dict[str, KinematicTrack]:
        """The sensor tracks that participate in fusion (tracker excluded)."""
        return {k: v for k, v in self.tracks.items() if k != TRACKER}

    def tracker(self) -> KinematicTrack | None:
        return self.tracks.get(TRACKER)


@dataclass(frozen=True)
class FusionTrace:
    """Per-grid-point outputs of all three fusion architectures.

    ``params`` are the danger parameters the trace was fused with.
    ``sensor_g`` holds the danger-score series of every sensor in the
    sensor set, tracker included, as scored once by :func:`fuse_all`,
    and ``sensor_codes`` their decision codes, in the same order: rows of
    one scores frame and one codes frame.
    The decision streams are int codes (0 SAFE, 1 DANGEROUS,
    2 UNKNOWN); the read-only ``decision_distance``, ``decision_danger``
    and ``decision_vote`` decode them to ``tuple[Decision, ...]``.
    """

    grid: UniformGrid
    params: DangerParams
    available_count: np.ndarray
    distance_fused: TimeSeries
    g_distance_fusion: TimeSeries
    g_danger_fusion: TimeSeries
    distance_codes: np.ndarray
    danger_codes: np.ndarray
    vote_codes: np.ndarray
    dangerous_votes: np.ndarray
    votes_cast: np.ndarray
    sensor_g: Mapping[str, TimeSeries]
    sensor_codes: Mapping[str, np.ndarray]

    decision_distance = property(lambda self: _as_decisions(self.distance_codes))
    decision_danger = property(lambda self: _as_decisions(self.danger_codes))
    decision_vote = property(lambda self: _as_decisions(self.vote_codes))


def sensor_set_from_streams(
    streams: Mapping[str, TimeSeries],
    resample_hz: float = 100.0,
    smooth_window_rsu: int = 2,
    smooth_window_camera: int = 5,
    derivative_smooth_window: int = 5,
    max_gap: float = 0.5,
) -> SensorSet:
    """Turn raw per-sensor distance streams into an aligned sensor set.

    Each stream is smoothed with its sensor-specific trailing window (the
    tracker is left untouched) and resampled onto a grid spanning all
    streams, as :func:`~crossrisk.timeseries.align` places them; the rows
    make one frame, and one kernel call differentiates every row.
    """
    if not streams:
        raise ValueError("streams must not be empty")
    windows = {
        RSU: smooth_window_rsu,
        CAMERA_AW: smooth_window_camera,
        CAMERA_DRONE: smooth_window_camera,
        TRACKER: 1,
    }
    order = [s for s in (*SENSOR_IDS, TRACKER) if s in streams]
    unknown = set(streams) - set(windows)
    if unknown:
        raise ValueError(f"unknown sensor ids: {sorted(unknown)}")
    smoothed = []
    for s in order:
        values = streams[s].values
        if windows[s] > 1:
            values = _trailing_mean(values, windows[s])
            if np.isinf(values).any():  # as the smoothed series would reject it
                raise ValueError(f"{s} distance: values must not be infinite")
        smoothed.append((streams[s].times, values))
    start = min(times[0] for times, _ in smoothed)
    end = max(times[-1] for times, _ in smoothed)
    grid = UniformGrid.spanning(start, end, resample_hz, "resample_hz")
    if max_gap <= 0:
        raise ValueError("max_gap must be positive")
    # rows are stacked, not resampled into a frame made first: a kernel's temporaries freed
    # at the top of the heap went back to the system after each row, 4 500 page faults
    # more per cold 60 001-point ingest
    distance = np.stack([_interpolate(times, values, grid, max_gap) for times, values in smoothed])
    if np.isinf(distance).any():  # as a resampled series would reject it
        raise ValueError("values must not be infinite")
    speed, acceleration = _named(
        order[0], _derivatives, distance, grid.rate_hz, derivative_smooth_window
    )
    _reject_infinite(order, speed=speed, acceleration=acceleration)
    return _unchecked(
        SensorSet, grid=grid, ids=tuple(order), distance=_frozen(distance),
        speed=speed, acceleration=acceleration,
    )


def _named(name: str, step, *args, **kwargs):
    """``step(*args, **kwargs)``; a ValueError from it (an overflow, say) begins with ``name``."""
    try:
        return step(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _available_mean(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise mean over non-missing entries (NaN where none) and their count.

    A sum past float64's range gives an infinite mean, for the caller's check to reject.
    """
    present = ~np.isnan(stacked)
    counts = present.sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.where(present, stacked, 0.0).sum(axis=0)
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan), counts


def fuse_all(
    sensors: SensorSet,
    params: DangerParams = DangerParams(),
    derivative_smooth_window: int = 5,
) -> FusionTrace:
    """Run all three fusion architectures over one sensor set.

    The available sensors' mean distance goes through the same
    differentiation and scoring kernels as the sensor frame, so the
    distance-fusion decision stream is produced by one ordinary pipeline
    run on averaged input.  The frame itself is scored and thresholded once.
    """
    grid = sensors.grid
    fusable = len(sensors.ids) - (TRACKER in sensors.ids)  # the rows before the tracker's
    if not fusable:
        raise ValueError("no fusable sensors")
    fused_d, available_count = _available_mean(sensors.distance[:fusable])
    if np.isinf(fused_d).any():  # as a series of the fused distance would reject it
        raise ValueError(f"{DISTANCE_FUSION}: values must not be infinite")
    fused_speed, fused_accel = _named(
        DISTANCE_FUSION, _derivatives, fused_d, grid.rate_hz, derivative_smooth_window
    )
    _reject_infinite(
        (DISTANCE_FUSION,), speed=fused_speed[None], acceleration=fused_accel[None]
    )
    g_distance = _frozen(_danger_values(fused_d, fused_speed, fused_accel, params))
    g = _frozen(_danger_values(sensors.distance, sensors.speed, sensors.acceleration, params))
    codes = _frozen(_decision_codes(g, params.threshold))
    g_danger = _frozen(_available_mean(g[:fusable])[0])

    # each sensor votes its threshold decision; UNKNOWN abstains, ties go DANGEROUS
    dangerous = (codes[:fusable] == _DANGEROUS).sum(axis=0)
    cast = (codes[:fusable] != _UNKNOWN).sum(axis=0)
    vote = np.where(cast == 0, _UNKNOWN, 2 * dangerous >= cast)
    times = grid.times()
    return FusionTrace(
        grid=grid,
        params=params,
        available_count=available_count,
        distance_fused=_unchecked(TimeSeries, times=times, values=_frozen(fused_d)),
        g_distance_fusion=_unchecked(TimeSeries, times=times, values=g_distance),
        g_danger_fusion=_unchecked(TimeSeries, times=times, values=g_danger),
        distance_codes=_decision_codes(g_distance, params.threshold),
        danger_codes=_decision_codes(g_danger, params.threshold),
        vote_codes=vote,
        dangerous_votes=dangerous,
        votes_cast=cast,
        sensor_g={
            s: _unchecked(TimeSeries, times=times, values=row) for s, row in zip(sensors.ids, g)
        },
        sensor_codes=dict(zip(sensors.ids, codes)),
    )

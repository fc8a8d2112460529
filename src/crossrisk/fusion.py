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
    _decision_codes,
    danger_series,
)
from .kinematics import KinematicTrack, differentiate
from .timeseries import TimeSeries, UniformGrid, _frozen, align, smooth_trailing

RSU = "rsu"
CAMERA_AW = "camera_aw"
CAMERA_DRONE = "camera_drone"
TRACKER = "tracker"
SENSOR_IDS = (RSU, CAMERA_AW, CAMERA_DRONE)


@dataclass(frozen=True)
class SensorSet:
    """Per-sensor kinematic tracks sharing one grid; may include the tracker."""

    grid: UniformGrid
    tracks: Mapping[str, KinematicTrack]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", dict(self.tracks))
        for sensor_id, track in self.tracks.items():
            if track.grid != self.grid:
                raise ValueError(f"track {sensor_id!r} is not on the shared grid")

    def fusable(self) -> dict[str, KinematicTrack]:
        """The sensor tracks that participate in fusion (tracker excluded)."""
        return {k: v for k, v in self.tracks.items() if k != TRACKER}

    def tracker(self) -> KinematicTrack | None:
        return self.tracks.get(TRACKER)


@dataclass(frozen=True)
class FusionTrace:
    """Per-grid-point outputs of all three fusion architectures.

    ``params`` are the danger parameters the trace was fused with.
    ``sensor_g`` holds the danger-score series of every track in the
    sensor set, tracker included, as scored once by :func:`fuse_all`.
    The three decision streams are int codes (0 SAFE, 1 DANGEROUS,
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
    tracker is left untouched), all streams are resampled onto one shared
    grid, and each is differentiated into a kinematic track.
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
    smoothed = [
        _named(f"{s} distance", smooth_trailing, streams[s], windows[s])
        if windows[s] > 1
        else streams[s]
        for s in order
    ]
    grid, aligned = align(smoothed, resample_hz, max_gap=max_gap)
    tracks = {
        s: _named(s, differentiate, series, grid, smooth_window=derivative_smooth_window)
        for s, series in zip(order, aligned)
    }
    return SensorSet(grid, tracks)


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
    differentiation used for the single sensors before being scored, so
    the distance-fusion decision stream is produced by one ordinary
    pipeline run on averaged input.
    """
    grid = sensors.grid
    fusable = sensors.fusable()
    if not fusable:
        raise ValueError("no fusable sensors")
    fused_d, available_count = _available_mean(np.vstack([t.distance for t in fusable.values()]))
    distance_fused = _named("distance_fusion", TimeSeries, grid.times(), _frozen(fused_d))
    fused_track = _named(
        "distance_fusion", differentiate, distance_fused, grid,
        smooth_window=derivative_smooth_window,
    )
    g_distance = danger_series(fused_track, params)
    sensor_g = {s: danger_series(t, params) for s, t in sensors.tracks.items()}
    stacked_g = np.vstack([sensor_g[s].values for s in fusable])
    g_danger = TimeSeries(grid.times(), _frozen(_available_mean(stacked_g)[0]))

    # each sensor votes its threshold decision; UNKNOWN abstains, ties go DANGEROUS
    codes = _decision_codes(stacked_g, params.threshold)
    dangerous = (codes == _DANGEROUS).sum(axis=0)
    cast = (codes != _UNKNOWN).sum(axis=0)
    vote = np.where(cast == 0, _UNKNOWN, 2 * dangerous >= cast)
    return FusionTrace(
        grid=grid,
        params=params,
        available_count=available_count,
        distance_fused=distance_fused,
        g_distance_fusion=g_distance,
        g_danger_fusion=g_danger,
        distance_codes=_decision_codes(g_distance.values, params.threshold),
        danger_codes=_decision_codes(g_danger.values, params.threshold),
        vote_codes=vote,
        dangerous_votes=dangerous,
        votes_cast=cast,
        sensor_g=sensor_g,
    )

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

from .config import RunConfig
from .danger import (
    _DANGEROUS,
    _UNKNOWN,
    DangerParams,
    _as_decisions,
    _danger_values,
    _decision_codes,
)
from .kinematics import KinematicTrack, _derivatives, _reject_infinite
from .timeseries import TimeSeries, UniformGrid, _aligned, _frozen, _trailing_mean, _unchecked

RSU = "rsu"
CAMERA_AW = "camera_aw"
CAMERA_DRONE = "camera_drone"
TRACKER = "tracker"
SENSOR_IDS = (RSU, CAMERA_AW, CAMERA_DRONE)
DISTANCE_FUSION = "distance_fusion"
DANGER_FUSION = "danger_fusion"
VOTING_FUSION = "voting_fusion"


def _row_order(ids) -> tuple[str, ...]:
    """``ids`` as the rows of a sensor set: in ``SENSOR_IDS`` order, the tracker last."""
    if unknown := set(ids) - {*SENSOR_IDS, TRACKER}:
        raise ValueError(f"unknown sensor ids: {sorted(unknown)}")
    return tuple(s for s in (*SENSOR_IDS, TRACKER) if s in ids)


@dataclass(frozen=True, init=False, eq=False)
class SensorSet:
    """Each sensor's distance, closing speed and acceleration on one grid: a sensors × time frame.

    Row ``i`` of the read-only ``(len(ids), grid.count)`` arrays ``distance``, ``speed`` and
    ``acceleration`` is sensor ``ids[i]``'s, in ``SENSOR_IDS`` order whatever the order given,
    the tracker (when present) last, so the rows before it are the fusable sensors.
    """

    grid: UniformGrid
    ids: tuple[str, ...]
    distance: np.ndarray
    speed: np.ndarray
    acceleration: np.ndarray

    def __init__(self, grid: UniformGrid, tracks: Mapping[str, KinematicTrack]) -> None:
        """Stack per-sensor tracks into a frame in row order; for ``perfbench/``."""
        ids = _row_order(tracks)
        for sensor_id, track in tracks.items():
            if track.grid != grid:
                raise ValueError(f"track {sensor_id!r} is not on the shared grid")
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
    """Every sensor's and fusion's scores and decisions per grid point: a sources × time frame.

    ``sources`` is the sensor set's ids (tracker included), then the three fusions.  Row ``i``
    of the read-only ``(len(sources), grid.count)`` frames ``scores`` and ``codes`` (int8:
    0 SAFE, 1 DANGEROUS, 2 UNKNOWN) is ``sources[i]``'s; the vote's score row is all missing.
    ``distance_fused`` is the fusable sensors' mean distance, ``dangerous_votes`` and
    ``votes_cast`` the vote's counts per instant.  ``sensor_g`` maps each sensor to its score
    row as a series, which the CLI passes to the trace writer.  The other names are read-only
    row views for ``perfbench/``: ``g_distance_fusion`` and ``g_danger_fusion`` as series,
    ``decision_*`` as ``tuple[Decision, ...]``.
    """

    grid: UniformGrid
    sources: tuple[str, ...]
    scores: np.ndarray
    codes: np.ndarray
    distance_fused: TimeSeries
    dangerous_votes: np.ndarray
    votes_cast: np.ndarray

    def _series(self, row: np.ndarray) -> TimeSeries:
        return _unchecked(TimeSeries, times=self.grid.times(), values=row)

    sensor_g = property(lambda self: dict(zip(self.sources[:-3], map(self._series, self.scores))))
    g_distance_fusion = property(lambda self: self._series(self.scores[-3]))
    g_danger_fusion = property(lambda self: self._series(self.scores[-2]))
    decision_distance = property(lambda self: _as_decisions(self.codes[-3]))
    decision_danger = property(lambda self: _as_decisions(self.codes[-2]))
    decision_vote = property(lambda self: _as_decisions(self.codes[-1]))


def _smoothed_rows(streams, smooth_window_rsu, smooth_window_camera):
    """Each stream smoothed with its sensor's trailing window (the tracker's, of 1, leaves it
    unchanged): the ids in row order and one ``(times, smoothed values)`` pair per id.  A
    smoothed reading past float64's range is a ValueError naming its sensor."""
    camera = smooth_window_camera
    windows = {RSU: smooth_window_rsu, CAMERA_AW: camera, CAMERA_DRONE: camera, TRACKER: 1}
    order = _row_order(streams)
    smoothed = [_trailing_mean(streams[s].values, windows[s]) for s in order]
    _reject_infinite(order, distance=smoothed)
    return order, [(streams[s].times, values) for s, values in zip(order, smoothed)]


def _sensor_set(order, grid, distance, derivative_smooth_window) -> SensorSet:
    """The sensors ``order``'s distance frame on ``grid`` as a sensor set: one kernel call
    differentiates every row, and an infinite derivative is a ValueError naming its sensor."""
    speed, acceleration = _derivatives(distance, grid.rate_hz, derivative_smooth_window)
    _reject_infinite(order, speed=speed, acceleration=acceleration)
    return _unchecked(
        SensorSet, grid=grid, ids=order, distance=distance,
        speed=speed, acceleration=acceleration,
    )


def sensor_set_from_streams(
    streams: Mapping[str, TimeSeries],
    resample_hz: float = 100.0,
    smooth_window_rsu: int = 2,
    smooth_window_camera: int = 5,
    derivative_smooth_window: int = 5,
    max_gap: float = 0.5,
) -> SensorSet:
    """Raw per-sensor distance streams as an aligned sensor set: their :func:`_smoothed_rows`
    on one grid (:func:`~crossrisk.timeseries._aligned`), differentiated by :func:`_sensor_set`."""
    order, rows = _smoothed_rows(streams, smooth_window_rsu, smooth_window_camera)
    return _sensor_set(order, *_aligned(rows, resample_hz, max_gap), derivative_smooth_window)


def _sensor_set_keywords(config: RunConfig) -> dict:
    """The keywords of :func:`sensor_set_from_streams` at a run's settings."""
    return dict(
        resample_hz=config.resample_hz,
        smooth_window_rsu=config.smooth_window_rsu,
        smooth_window_camera=config.smooth_window_camera,
        derivative_smooth_window=config.smooth_window_derivative,
        max_gap=config.max_gap_s,
    )


def _available_mean(stacked: np.ndarray) -> np.ndarray:
    """Per instant (column), the mean of ``stacked``'s non-missing entries; NaN where none.

    A sum past float64's range gives an infinite mean, for the caller's check to reject.
    """
    present = ~np.isnan(stacked)
    counts = present.sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.where(present, stacked, 0.0).sum(axis=0)
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def fuse_all(
    sensors: SensorSet,
    params: DangerParams = DangerParams(),
    derivative_smooth_window: int = 5,
) -> FusionTrace:
    """Run all three fusion architectures over one sensor set into one sources × time frame.

    The available sensors' mean distance goes through the same
    differentiation and scoring kernels as the sensor frame, so the
    distance-fusion decision stream is produced by one ordinary pipeline
    run on averaged input.  Every score row is written into one frame,
    and one threshold call gives every row's codes but the vote's.
    """
    grid = sensors.grid
    fusable = len(sensors.ids) - (TRACKER in sensors.ids)  # the rows before the tracker's
    if not fusable:
        raise ValueError("no fusable sensors")
    fused_d = _available_mean(sensors.distance[:fusable])
    fused_speed, fused_accel = _derivatives(fused_d, grid.rate_hz, derivative_smooth_window)
    _reject_infinite(
        (DISTANCE_FUSION,),
        distance=fused_d[None], speed=fused_speed[None], acceleration=fused_accel[None],
    )
    scores = np.empty((len(sensors.ids) + 3, grid.count))  # the sensors', then the fusions' rows
    _danger_values(fused_d, fused_speed, fused_accel, params, out=scores[-3])
    _danger_values(sensors.distance, sensors.speed, sensors.acceleration, params, out=scores[:-3])
    scores[-2] = _available_mean(scores[:fusable])
    scores[-1] = np.nan  # the vote has no score
    codes = _decision_codes(scores, params.threshold)

    # each sensor votes its threshold decision; UNKNOWN abstains, ties go DANGEROUS
    dangerous = (codes[:fusable] == _DANGEROUS).sum(axis=0)
    cast = (codes[:fusable] != _UNKNOWN).sum(axis=0)
    codes[-1] = np.where(cast == 0, _UNKNOWN, 2 * dangerous >= cast)
    return FusionTrace(
        grid=grid,
        sources=(*sensors.ids, DISTANCE_FUSION, DANGER_FUSION, VOTING_FUSION),
        scores=_frozen(scores),
        codes=_frozen(codes),
        distance_fused=_unchecked(TimeSeries, times=grid.times(), values=_frozen(fused_d)),
        dangerous_votes=dangerous,
        votes_cast=cast,
    )

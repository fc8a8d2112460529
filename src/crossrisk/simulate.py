"""Synthetic crossing scenarios for desk-scale verification.

An obstacle approaches along piecewise-constant-acceleration segments
(speed clamped at zero from below: it may stop but never reverses).
Ground truth is evaluated in closed form, then degraded into per-sensor
streams: a range unit with multiplicative noise that is always
available, and pinhole cameras that only detect the obstacle within a
hard range and measure distance through the apparent width of its
bounding box.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, read_json_file, record_from_dict
from .fusion import (
    CAMERA_AW,
    CAMERA_DRONE,
    RSU,
    TRACKER,
    SensorSet,
    _sensor_set_keywords,
    sensor_set_from_streams,
)
from .kinematics import KinematicTrack
from .timeseries import TimeSeries, UniformGrid, _check_field_kinds, _grid_count, _is_finite_real

# Pinhole focal length in pixels for a 1280 px wide image with a 120 degree
# horizontal field of view: (1280 / 2) / tan(60 deg).
DEFAULT_FOCAL_PX = 640.0 / math.tan(math.radians(60.0))

# Which scenario rate drives each simulated sensor.
SENSOR_RATE_KEYS = (
    (RSU, "rsu_rate_hz"),
    (CAMERA_AW, "camera_rate_hz"),
    (CAMERA_DRONE, "camera_rate_hz"),
)


@dataclass(frozen=True)
class RangeSensorModel:
    """Always-available distance sensor with multiplicative Gaussian noise.

    ``relative_noise`` is the datasheet-style relative accuracy, read as
    a two-sigma band (sigma = relative_noise / 2).
    """

    relative_noise: float = 0.05

    def __post_init__(self) -> None:
        _check_field_kinds(self)
        if self.relative_noise < 0:
            raise ValueError("relative_noise must be non-negative")


@dataclass(frozen=True)
class CameraSensorModel:
    """Monocular camera measuring distance via bounding-box width.

    The detector only fires within ``detection_range`` meters; beyond it
    the channel is missing.  Pixel noise perturbs the measured box width
    before the distance is recovered through the pinhole relation.
    """

    detection_range: float = 2.5
    pixel_noise_sigma: float = 2.0
    focal_px: float = DEFAULT_FOCAL_PX
    object_width_m: float = 0.32

    def __post_init__(self) -> None:
        _check_field_kinds(self, may_be_infinite="detection_range")  # unlimited range
        if self.detection_range <= 0:
            raise ValueError(f"detection_range must be positive, got {self.detection_range!r}")
        if self.pixel_noise_sigma < 0:
            raise ValueError("pixel_noise_sigma must be non-negative")
        if self.focal_px <= 0 or self.object_width_m <= 0:
            raise ValueError("focal_px and object_width_m must be positive")


SensorModel = RangeSensorModel | CameraSensorModel


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic run: initial state, motion segments, rates, seed."""

    duration: float
    initial_distance: float
    initial_speed: float = 0.0
    segments: tuple[tuple[float, float], ...] = ()
    truth_rate_hz: float = 30.0
    rsu_rate_hz: float = 10.0
    camera_rate_hz: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_field_kinds(self)
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.initial_distance <= 0:
            raise ValueError("initial_distance must be positive")
        if self.initial_speed < 0:
            raise ValueError("initial_speed must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("truth_rate_hz", "rsu_rate_hz", "camera_rate_hz"):
            rate = getattr(self, name)
            if rate <= 0:
                raise ValueError(f"{name} must be positive")
            _grid_count(self.duration, rate, f"{name} {rate:g} over duration {self.duration:g} s")
        try:
            pairs = [(d, a) for d, a in self.segments]
        except (TypeError, ValueError):
            pairs = [(None, None)]
        if not all(_is_finite_real(d) and _is_finite_real(a) for d, a in pairs):
            raise ValueError("segments must hold finite numbers, in [duration, accel] pairs")
        segments = tuple((float(d), float(a)) for d, a in pairs) or ((float(self.duration), 0.0),)
        if any(d <= 0 for d, _ in segments):
            raise ValueError("segment durations must be positive")
        if sum(d for d, _ in segments) + 1e-9 < self.duration:
            raise ValueError("segments must cover the whole duration")
        object.__setattr__(self, "segments", segments)


def _build_phases(config: ScenarioConfig) -> list[tuple[float, float, float, float, float]]:
    """The motion as closed-form ``(start, distance, speed, accel, stop)`` rows, one a segment.

    ``stop`` is the time after ``start`` at which a braking segment comes to rest, infinite
    for one that does not brake: the obstacle stays where it stopped.
    """
    phases = []
    t = 0.0
    d = config.initial_distance
    v = config.initial_speed
    for span, accel in config.segments:
        stop = v / -accel if accel < 0.0 else np.inf
        tau = min(span, stop)
        phases.append((t, d, v, accel, stop))
        d -= v * tau + 0.5 * accel * tau * tau
        v = v + accel * span if span < stop else 0.0
        t += span
        if t >= config.duration:
            break
    return phases


def _truth_state(
    config: ScenarioConfig, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form distance, closing speed and acceleration at ``times``."""
    starts, d0, v0, a, stop = np.array(_build_phases(config)).T
    idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, starts.size - 1)
    d0, v0, a, stop = d0[idx], v0[idx], a[idx], stop[idx]
    elapsed = times - starts[idx]
    tau = np.minimum(elapsed, stop)
    distance = d0 - (v0 * tau + 0.5 * a * tau * tau)
    moving = elapsed < stop
    return distance, np.where(moving, v0 + a * elapsed, 0.0), np.where(moving, a, 0.0)


def generate_truth(config: ScenarioConfig) -> KinematicTrack:
    """Ground-truth kinematics at the truth rate, filled analytically.

    Raises if the configured motion drives the obstacle past the
    crossing point (negative distance) within the duration.
    """
    grid = UniformGrid.spanning(0.0, config.duration, config.truth_rate_hz, "truth_rate_hz")
    distance, speed, accel = _truth_state(config, grid.times())
    if np.any(distance < -1e-9):
        raise ValueError("scenario drives the obstacle past the crossing point")
    return KinematicTrack(grid, np.maximum(distance, 0.0), speed, accel)


def bbox_width_px(distance, model: CameraSensorModel):
    """Apparent bounding-box width of the obstacle at a given distance.

    Pinhole relation ``width = focal * object_width / distance``; accepts
    scalars or arrays.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    width = model.focal_px * model.object_width_m / d
    return float(width) if np.isscalar(distance) else width


def distance_from_bbox(width_px, model: CameraSensorModel):
    """Distance recovered from a bounding-box width; inverse of :func:`bbox_width_px`."""
    w = np.asarray(width_px, dtype=float)
    if np.any(w <= 0):
        raise ValueError("width_px must be positive")
    distance = model.focal_px * model.object_width_m / w
    return float(distance) if np.isscalar(width_px) else distance


def sample_sensor(
    truth: KinematicTrack,
    model: SensorModel,
    rate_hz: float,
    seed: int | np.random.SeedSequence = 0,
) -> TimeSeries:
    """Degrade the true distance into one sensor's measurement stream.

    The sensor samples the truth span at its own rate.  A range sensor
    always reports; a camera reports only while the obstacle is within
    its detection range, measuring through a noisy bounding-box width.
    """
    times = UniformGrid.spanning(truth.grid.start, truth.grid.end, rate_hz, "rate_hz").times()
    true_d = np.interp(times, truth.grid.times(), truth.distance)
    rng = np.random.default_rng(seed)

    if isinstance(model, RangeSensorModel):
        noise = rng.normal(0.0, model.relative_noise / 2.0, times.size)
        return TimeSeries(times, true_d * (1.0 + noise))

    detected = (true_d > 0.0) & (true_d <= model.detection_range)
    widths = np.full(times.size, np.nan)
    widths[detected] = bbox_width_px(true_d[detected], model)
    widths += rng.normal(0.0, model.pixel_noise_sigma, times.size)
    values = np.full(times.size, np.nan)
    with np.errstate(invalid="ignore"):
        measurable = detected & (widths > 0.0)
    values[measurable] = distance_from_bbox(widths[measurable], model)
    return TimeSeries(times, values)


def default_sensor_models() -> dict[str, SensorModel]:
    return {
        RSU: RangeSensorModel(),
        CAMERA_AW: CameraSensorModel(),
        CAMERA_DRONE: CameraSensorModel(),
    }


@dataclass(frozen=True)
class SimulatedRun:
    """A synthetic recording and its ingest.

    ``raw_streams`` are the per-sensor measurement series before any
    processing (what a recording would contain); ``sensors`` is the
    processed sensor set on the shared grid.
    """

    raw_streams: dict[str, TimeSeries]
    sensors: SensorSet


def simulate_recording(
    config: ScenarioConfig, models: dict[str, SensorModel] | None = None
) -> dict[str, TimeSeries]:
    """Simulate one recording: every sensor's raw stream plus the tracker.

    This is what ``crossrisk simulate`` writes.  Per-sensor seeds are
    spawned deterministically from the scenario seed, so identical
    inputs give bit-identical streams.
    """
    models = {**default_sensor_models(), **(models or {})}
    truth = generate_truth(config)
    children = np.random.SeedSequence(config.seed).spawn(len(SENSOR_RATE_KEYS))
    raw = {
        sensor_id: sample_sensor(truth, models[sensor_id], getattr(config, rate_attr), child)
        for (sensor_id, rate_attr), child in zip(SENSOR_RATE_KEYS, children)
    }
    raw[TRACKER] = TimeSeries(truth.grid.times(), truth.distance)
    return raw


def generate_run(
    config: ScenarioConfig,
    models: dict[str, SensorModel] | None = None,
    run_config: RunConfig | None = None,
) -> SimulatedRun:
    """The recording of :func:`simulate_recording`, ingested as ``ingest`` ingests it.

    Kept for ``perfbench/bench_replay.py``.
    """
    cfg = RunConfig() if run_config is None else run_config
    raw = simulate_recording(config, models)
    return SimulatedRun(raw, sensor_set_from_streams(raw, **_sensor_set_keywords(cfg)))


def scenario_from_dict(data: dict) -> tuple[ScenarioConfig, dict[str, SensorModel]]:
    """Parse a scenario JSON object into a config plus sensor models.

    Errors identify the offending field.  The optional ``sensors`` block
    overrides per-sensor model parameters; a camera ``detection_range``
    of ``null`` means unlimited range.
    """
    if not isinstance(data, dict):
        raise ValueError(f"scenario: must be a JSON object, got {data!r:.40}")
    fields = dict(data)
    sensors = fields.pop("sensors", {})
    config = record_from_dict(ScenarioConfig, fields, "scenario")
    if not isinstance(sensors, dict):
        raise ValueError(f"scenario field sensors: must be a JSON object, got {sensors!r:.40}")
    models = default_sensor_models()
    for sensor_id, params in sensors.items():
        where = f"scenario field sensors.{sensor_id}"
        if sensor_id not in models:
            raise ValueError(f"{where}: unknown sensor id")
        unlimited = {"detection_range": lambda v: math.inf if v is None else v}
        models[sensor_id] = record_from_dict(type(models[sensor_id]), params, where, **unlimited)
    return config, models


def load_scenario(path) -> tuple[ScenarioConfig, dict[str, SensorModel]]:
    """Read a scenario description from a JSON file."""
    return read_json_file(path, scenario_from_dict)

"""Pipeline configuration and its JSON file format.

Defaults encode the reference processing chain: trailing windows of 2
(range unit) and 5 (cameras) samples, resampling at 100 Hz, and a
half-second bridging limit for sensor gaps.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .danger import DangerParams, _require_finite


@dataclass(frozen=True)
class RunConfig:
    """Everything the ingestion/fusion/evaluation pipeline is tuned by."""

    resample_hz: float = 100.0
    smooth_window_rsu: int = 2
    smooth_window_camera: int = 5
    smooth_window_derivative: int = 5
    max_gap_s: float = 0.5
    unknown_as_safe: bool = False
    danger: DangerParams = field(default_factory=DangerParams)

    def __post_init__(self) -> None:
        _require_finite(self, ("resample_hz", "max_gap_s"))
        if self.resample_hz <= 0:
            raise ValueError("resample_hz must be positive")
        for name in ("smooth_window_rsu", "smooth_window_camera", "smooth_window_derivative"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.max_gap_s <= 0:
            raise ValueError("max_gap_s must be positive")


def _build_dataclass(cls, data: dict[str, Any], where: str):
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    return cls(**data)


def run_config_from_dict(data: dict[str, Any]) -> RunConfig:
    """Build a RunConfig from a plain dict (e.g. parsed JSON).

    Unknown keys are rejected so typos do not silently fall back to
    defaults; the ``danger`` block is a nested object.
    """
    data = dict(data)
    danger = data.pop("danger", None)
    kwargs: dict[str, Any] = dict(data)
    if danger is not None:
        kwargs["danger"] = _build_dataclass(DangerParams, danger, "danger")
    return _build_dataclass(RunConfig, kwargs, "config")


def load_run_config(path: str | Path) -> RunConfig:
    """Read a RunConfig from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must contain a JSON object")
    return run_config_from_dict(data)


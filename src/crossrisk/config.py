"""Pipeline configuration and its JSON file format.

Defaults encode the reference processing chain: trailing windows of 2
(range unit) and 5 (cameras) samples, resampling at 100 Hz, and a
half-second bridging limit for sensor gaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .danger import DangerParams
from .timeseries import _check_field_kinds


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
        _check_field_kinds(self)
        if self.resample_hz <= 0:
            raise ValueError("resample_hz must be positive")
        for name in ("smooth_window_rsu", "smooth_window_camera", "smooth_window_derivative"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.max_gap_s <= 0:
            raise ValueError("max_gap_s must be positive")


def record_from_dict(cls: type, data: Any, where: str, **convert: Callable[[Any], Any]):
    """Build the record ``cls`` from a JSON object; every error is a ValueError naming ``where``.

    Unknown keys are rejected, so a typo does not fall back to a default.
    ``convert`` maps a field to a function run on its JSON value first.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: must be a JSON object, got {data!r:.40}")
    unknown = data.keys() - cls.__dataclass_fields__
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(map(str, unknown))}")
    kwargs = {key: convert[key](v) if key in convert else v for key, v in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _object_without_repeats(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a key given twice is an error, not a silent choice."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def read_json_file(path: str | Path, parse: Callable[[Any], Any]):
    """Read the JSON file at ``path`` and build it with ``parse``; every error names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh, object_pairs_hook=_object_without_repeats))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, RecursionError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def run_config_from_dict(data: dict[str, Any]) -> RunConfig:
    """Build a RunConfig from a plain dict (e.g. parsed JSON); ``danger`` is a nested object."""
    def danger(block: Any) -> DangerParams:
        return record_from_dict(DangerParams, block, "config field danger")

    return record_from_dict(RunConfig, data, "config", danger=danger)


def load_run_config(path: str | Path) -> RunConfig:
    """Read a RunConfig from a JSON file."""
    return read_json_file(path, run_config_from_dict)

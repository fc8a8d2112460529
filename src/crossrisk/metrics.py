"""Evaluation of prediction streams against the tracker ground truth.

Continuous danger scores are compared by RMSE over the instants where
both streams carry a value; decision streams are compared by confusion
counts with DANGEROUS as the positive class, excluding instants where
either side is UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .danger import (
    _DANGEROUS,
    _SAFE,
    _UNKNOWN,
    Decision,
    _as_codes,
    _decision_codes,
)
from .fusion import CAMERA_AW, CAMERA_DRONE, RSU, TRACKER, FusionTrace
from .timeseries import TimeSeries

DISTANCE_FUSION = "distance_fusion"
DANGER_FUSION = "danger_fusion"
VOTING_FUSION = "voting_fusion"
EVALUATION_SOURCES = (
    RSU,
    CAMERA_AW,
    CAMERA_DRONE,
    DISTANCE_FUSION,
    DANGER_FUSION,
    VOTING_FUSION,
)


class InsufficientDataError(ValueError):
    """Raised when a comparison has no jointly defined points."""


@dataclass(frozen=True)
class EvaluationReport:
    """Error and classification metrics of one prediction stream.

    ``rmse`` is None for binary-only sources (voting), which produce no
    continuous score.  ``precision_defaulted`` / ``recall_defaulted``
    flag the degenerate denominators reported as 1.0 (no dangerous
    predictions made, resp. no dangerous truth present).
    """

    rmse: float | None
    accuracy: float
    precision: float
    recall: float
    tp: int
    fp: int
    tn: int
    fn: int
    evaluated_points: int
    excluded_points: int
    precision_defaulted: bool = False
    recall_defaulted: bool = False


def rmse(predicted: TimeSeries, truth: TimeSeries) -> float:
    """Root mean square difference over jointly present instants."""
    if len(predicted) != len(truth) or not np.array_equal(predicted.times, truth.times):
        raise ValueError("series must share the same grid")
    both = predicted.present & truth.present
    if not np.any(both):
        raise InsufficientDataError("no jointly present points")
    diff = predicted.values[both] - truth.values[both]
    return float(np.sqrt(np.mean(diff * diff)))


def _report(
    predicted: np.ndarray,
    truth: np.ndarray,
    unknown_as_safe: bool,
    predicted_g: TimeSeries | None = None,
    truth_g: TimeSeries | None = None,
) -> EvaluationReport:
    """Report over int decision codes; RMSE only when ``predicted_g`` is given."""
    if len(predicted) != len(truth):
        raise ValueError("decision streams must have equal length")
    # counts[t, p]: instants with truth code t and predicted code p
    counts = np.bincount(3 * truth + predicted, minlength=9).reshape(3, 3)
    if unknown_as_safe:
        counts[:, _SAFE] += counts[:, _UNKNOWN]
        counts[:, _UNKNOWN] = 0
    tp, fn = int(counts[_DANGEROUS, _DANGEROUS]), int(counts[_DANGEROUS, _SAFE])
    fp, tn = int(counts[_SAFE, _DANGEROUS]), int(counts[_SAFE, _SAFE])
    evaluated = tp + fp + tn + fn
    excluded = len(truth) - evaluated
    if evaluated == 0:
        raise InsufficientDataError("no jointly classified points")
    precision_defaulted = (tp + fp) == 0
    recall_defaulted = (tp + fn) == 0
    return EvaluationReport(
        rmse=None if predicted_g is None else rmse(predicted_g, truth_g),
        accuracy=(tp + tn) / evaluated,
        precision=1.0 if precision_defaulted else tp / (tp + fp),
        recall=1.0 if recall_defaulted else tp / (tp + fn),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        evaluated_points=evaluated,
        excluded_points=excluded,
        precision_defaulted=precision_defaulted,
        recall_defaulted=recall_defaulted,
    )


def evaluate_source(
    predicted_g: TimeSeries | None,
    predicted_decisions: Sequence[Decision],
    truth_g: TimeSeries,
    truth_decisions: Sequence[Decision],
    unknown_as_safe: bool = False,
) -> EvaluationReport:
    """Full report for one prediction source; ``predicted_g=None`` skips RMSE.

    With ``unknown_as_safe`` an UNKNOWN prediction counts as a SAFE call.
    """
    predicted, truth = _as_codes(predicted_decisions), _as_codes(truth_decisions)
    return _report(predicted, truth, unknown_as_safe, predicted_g, truth_g)


def evaluate_run(
    trace: FusionTrace, unknown_as_safe: bool = False
) -> dict[str, EvaluationReport | None]:
    """Evaluate every sensor and fusion architecture against the tracker.

    Reads the per-sensor scores :func:`fuse_all` stored in the trace and
    thresholds them with the parameters the trace was fused with.  A
    source with no jointly classified instant (e.g. a camera that never
    detected the obstacle) maps to ``None`` instead of a report.

    Raises
    ------
    ValueError
        If the trace carries no tracker scores.
    """
    truth_g = trace.sensor_g.get(TRACKER)
    if truth_g is None:
        raise ValueError("trace has no tracker scores to evaluate against")
    threshold = trace.params.threshold
    truth = _decision_codes(truth_g.values, threshold)
    candidates = {
        source: (g, _decision_codes(g.values, threshold))
        for source, g in trace.sensor_g.items()
        if source != TRACKER
    }
    candidates[DISTANCE_FUSION] = (trace.g_distance_fusion, trace.distance_codes)
    candidates[DANGER_FUSION] = (trace.g_danger_fusion, trace.danger_codes)
    candidates[VOTING_FUSION] = (None, trace.vote_codes)

    reports: dict[str, EvaluationReport | None] = {}
    for source, (g, codes) in candidates.items():
        try:
            reports[source] = _report(codes, truth, unknown_as_safe, g, truth_g)
        except InsufficientDataError:
            reports[source] = None
    return reports

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
)
from .fusion import DANGER_FUSION, DISTANCE_FUSION, SENSOR_IDS, TRACKER, VOTING_FUSION, FusionTrace
from .timeseries import TimeSeries

EVALUATION_SOURCES = (*SENSOR_IDS, DISTANCE_FUSION, DANGER_FUSION, VOTING_FUSION)


class InsufficientDataError(ValueError):
    """Raised when a comparison has no jointly defined points."""


@dataclass(frozen=True)
class EvaluationReport:
    """Error and classification metrics of one prediction stream.

    ``rmse`` is None for binary-only sources (voting), which produce no
    continuous score, and for a source whose scores share no present
    instant with the truth's.  A precision or recall with a zero
    denominator (no dangerous prediction, resp. no dangerous truth) is 1.0.
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


def rmse(predicted: TimeSeries, truth: TimeSeries) -> float:
    """Root mean square difference over jointly present instants."""
    if len(predicted) != len(truth) or not np.array_equal(predicted.times, truth.times):
        raise ValueError("series must share the same grid")
    error = _rmse(predicted.values, truth.values)
    if error is None:
        raise InsufficientDataError("no jointly present points")
    return error


def _rmse(predicted: np.ndarray, truth: np.ndarray) -> float | None:
    """Kernel of :func:`rmse` over two score rows; None where no instant has both."""
    both = ~np.isnan(predicted) & ~np.isnan(truth)
    if not both.any():
        return None
    diff = predicted[both] - truth[both]
    return float(np.sqrt(np.mean(diff * diff)))


def _report(
    predicted: np.ndarray,
    truth: np.ndarray,
    unknown_as_safe: bool,
    error: float | None = None,
) -> EvaluationReport:
    """Report over int decision codes, with the source's RMSE ``error``."""
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
    return EvaluationReport(
        rmse=error,
        accuracy=(tp + tn) / evaluated,
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / (tp + fn) if tp + fn else 1.0,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        evaluated_points=evaluated,
        excluded_points=excluded,
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
    Kept for ``perfbench/bench_harness.py``, whose independent check of
    ``evaluate --json`` builds its reports here (ROADMAP open item 4).
    """
    try:
        error = None if predicted_g is None else rmse(predicted_g, truth_g)
    except InsufficientDataError:  # no shared score; classified by unknown_as_safe
        error = None
    predicted, truth = _as_codes(predicted_decisions), _as_codes(truth_decisions)
    return _report(predicted, truth, unknown_as_safe, error)


def evaluate_run(
    trace: FusionTrace, unknown_as_safe: bool = False
) -> dict[str, EvaluationReport | None]:
    """Evaluate every sensor and fusion architecture against the tracker.

    Reads the trace's frames row by row: each source but the tracker is
    compared with the tracker's row, its RMSE over the plain score rows (so
    the vote, whose score row is all missing, gets ``rmse=None``).  A source
    with no jointly classified instant (e.g. a camera that never detected
    the obstacle) maps to ``None`` instead of a report.

    Raises
    ------
    ValueError
        If the trace carries no tracker scores.
    """
    if TRACKER not in trace.sources:
        raise ValueError("trace has no tracker scores to evaluate against")
    row = trace.sources.index(TRACKER)
    truth_g, truth = trace.scores[row], trace.codes[row]
    reports: dict[str, EvaluationReport | None] = {}
    for source, g, codes in zip(trace.sources, trace.scores, trace.codes):
        if source == TRACKER:
            continue
        try:
            reports[source] = _report(codes, truth, unknown_as_safe, _rmse(g, truth_g))
        except InsufficientDataError:
            reports[source] = None
    return reports

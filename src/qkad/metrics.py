"""Evaluation metrics for imbalanced anomaly detection.

Anomalies are the positive class.  Average precision expects scores where
HIGHER means MORE anomalous; one-class SVM decision scores must therefore
be negated before ranking (high decision score means normal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionCounts",
    "confusion",
    "precision_recall",
    "f1",
    "average_precision",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(labels: np.ndarray, predictions: np.ndarray) -> ConfusionCounts:
    """Count outcomes with anomaly (label 1) as the positive class."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError(f"length mismatch: {labels.shape} vs {predictions.shape}")
    pos = labels == 1
    pred_pos = predictions == 1
    return ConfusionCounts(
        tp=int(np.sum(pos & pred_pos)),
        fp=int(np.sum(~pos & pred_pos)),
        tn=int(np.sum(~pos & ~pred_pos)),
        fn=int(np.sum(pos & ~pred_pos)),
    )


def precision_recall(counts: ConfusionCounts) -> tuple[float, float]:
    """Precision and recall from counts; empty denominators give 0."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return precision, recall


def f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if not 0 <= precision <= 1 or not 0 <= recall <= 1:
        raise ValueError("precision and recall must lie in [0, 1]")
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve as a step sum over the ranking.

    Points are sorted by descending score with ties broken by original index
    (stable sort); each positive at rank k contributes precision@k times the
    recall increment 1/P.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"need matching 1-d arrays, got {scores.shape} and {labels.shape}")
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise ValueError("average precision is undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    hits = (labels[order] == 1).astype(float)
    precision_at = np.cumsum(hits) / np.arange(1, scores.size + 1)
    return float(np.sum(precision_at * hits) / n_pos)

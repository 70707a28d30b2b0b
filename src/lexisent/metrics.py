"""Confusion matrices, precision/recall/F1 reports, ROC curves and AUC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifact import check_distinct
from .lexicon import float_sum


@dataclass(frozen=True)
class ConfusionMatrix:
    classes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]  # counts[i][j]: true class i predicted as j

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def to_json_dict(self) -> dict:
        return {"classes": list(self.classes), "counts": [list(r) for r in self.counts]}


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    classes: tuple[str, ...]
    per_class: tuple[ClassMetrics, ...]
    accuracy: float
    macro_avg: tuple[float, float, float]
    weighted_avg: tuple[float, float, float]

    @property
    def total_support(self) -> int:
        return sum(c.support for c in self.per_class)

    @property
    def majority_accuracy(self) -> float:
        """The accuracy of always predicting the class with the most support:
        the floor that a useful classifier exceeds."""
        return max(c.support for c in self.per_class) / self.total_support

    def to_json_dict(self) -> dict:
        return {
            "per_class": {
                name: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for name, m in zip(self.classes, self.per_class)
            },
            "accuracy": self.accuracy,
            "majority_accuracy": self.majority_accuracy,
            "macro_avg": {
                "precision": self.macro_avg[0],
                "recall": self.macro_avg[1],
                "f1": self.macro_avg[2],
            },
            "weighted_avg": {
                "precision": self.weighted_avg[0],
                "recall": self.weighted_avg[1],
                "f1": self.weighted_avg[2],
            },
            "total_support": self.total_support,
        }


def confusion(
    y_true: Sequence, y_pred: Sequence, classes: Sequence[str]
) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    classes = tuple(classes)
    check_distinct(classes, "class names")
    position = {c: i for i, c in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for t, p in zip(y_true, y_pred):
        if t not in position:
            raise ValueError(f"unknown true label {t!r}")
        if p not in position:
            raise ValueError(f"unknown predicted label {p!r}")
        counts[position[t]][position[p]] += 1
    return ConfusionMatrix(classes, tuple(tuple(row) for row in counts))


def _safe_div(num: float, den: float) -> float:
    # Zero-division convention: undefined precision/recall/F1 report as 0.0.
    return num / den if den > 0 else 0.0


def f1_score(precision: float, recall: float) -> float:
    return _safe_div(2.0 * precision * recall, precision + recall)


def aggregate_per_class(
    per_class: Sequence[tuple[float, float, float, int]],
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Macro (unweighted) and support-weighted means of per-class (P, R, F1)."""
    k = len(per_class)
    total = sum(support for _, _, _, support in per_class)
    macro = tuple(
        _safe_div(float_sum(row[i] for row in per_class), k) for i in range(3)
    )
    weighted = tuple(
        _safe_div(float_sum(row[i] * row[3] for row in per_class), total) for i in range(3)
    )
    return macro, weighted


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F1/support plus accuracy and the two averages."""
    if cm.total == 0:
        raise ValueError("cannot compute metrics for an empty confusion matrix")
    k = len(cm.classes)
    per_class = []
    for i in range(k):
        support = sum(cm.counts[i])
        predicted = sum(cm.counts[j][i] for j in range(k))
        precision = _safe_div(cm.counts[i][i], predicted)
        recall = _safe_div(cm.counts[i][i], support)
        per_class.append(ClassMetrics(precision, recall, f1_score(precision, recall), support))
    accuracy = sum(cm.counts[i][i] for i in range(k)) / cm.total
    macro, weighted = aggregate_per_class(
        [(m.precision, m.recall, m.f1, m.support) for m in per_class]
    )
    return MetricsReport(cm.classes, tuple(per_class), accuracy, macro, weighted)


def display_round(value: float) -> str:
    """2-decimal display used in text tables ('0.8', '1', '0.98')."""
    return f"{round(value, 2):g}"


def metrics_table(report: MetricsReport) -> str:
    """Aligned text table in the familiar per-class report layout."""
    rows = [["", "Precision", "Recall", "F1-score", "Support"]]
    for name, m in zip(report.classes, report.per_class):
        rows.append(
            [name, display_round(m.precision), display_round(m.recall),
             display_round(m.f1), str(m.support)]
        )
    rows.append(["accuracy", "", "", display_round(report.accuracy),
                 str(report.total_support)])
    rows.append(["macro avg"] + [display_round(v) for v in report.macro_avg]
                + [str(report.total_support)])
    rows.append(["weighted avg"] + [display_round(v) for v in report.weighted_avg]
                + [str(report.total_support)])
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            row[i].rjust(widths[i]) for i in range(1, 5)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RocCurve:
    positive_class: str
    points: tuple[tuple[float, float], ...]  # (false positive rate, true positive rate)
    auc: float


def roc(
    y_true: Sequence[int], scores: Sequence[float], positive_class: str = "positive"
) -> RocCurve:
    """ROC curve by sweeping thresholds over distinct scores, descending.

    ``y_true`` holds 1 for positives and 0 for negatives; AUC is the
    trapezoidal area, which on tie-free scores equals the concordant-pair
    (Mann-Whitney) statistic exactly.
    """
    if len(y_true) != len(scores):
        raise ValueError("length mismatch between labels and scores")
    y = np.asarray(y_true, dtype=int)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative instance")
    if np.isnan(s).any():
        raise ValueError("ROC scores must not be NaN")

    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    # One point per group of equal scores, at the group's last index.
    last = np.append(np.flatnonzero(s_sorted[1:] != s_sorted[:-1]), len(s) - 1)
    fpr = np.concatenate(([0.0], np.cumsum(y_sorted == 0)[last] / n_neg))
    tpr = np.concatenate(([0.0], np.cumsum(y_sorted == 1)[last] / n_pos))
    points = tuple(zip(fpr.tolist(), tpr.tolist()))
    auc = float(np.sum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0))
    return RocCurve(positive_class, points, auc)


def roc_one_vs_rest(
    y_true: Sequence[int], proba: np.ndarray, classes: Sequence[str]
) -> dict[str, RocCurve]:
    """One ROC curve per class, that class against all others.

    Classes missing either positives or negatives in ``y_true`` are skipped
    (their AUC is undefined).
    """
    check_distinct(classes, "class names")
    proba = np.asarray(proba, dtype=float)
    y = np.asarray(y_true)
    curves: dict[str, RocCurve] = {}
    for k, name in enumerate(classes):
        binary = (y == k).astype(int)
        if 0 < np.count_nonzero(binary) < len(binary):
            curves[name] = roc(binary, proba[:, k], positive_class=name)
    return curves

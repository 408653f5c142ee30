"""Confusion-matrix accounting and precision/recall/accuracy/F1.

Zero-denominator cases (a class never predicted, or absent from the
truth) score 0 and bump a warning counter instead of crashing. Both
macro and weighted averages are computed; weighted is the headline
number in formatted reports.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import LABELS


class EvaluationError(ValueError):
    """Label lists unusable (empty, mismatched lengths or not class indices)."""


@dataclass
class MetricsReport:
    confusion: np.ndarray            # rows = true class, cols = predicted
    precision: list
    recall: list
    f1: list
    support: list                    # true-class counts
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    zero_division_warnings: int = 0
    class_names: tuple = LABELS

    def to_dict(self):
        d = {"accuracy": self.accuracy,
             "macro_precision": self.macro_precision,
             "macro_recall": self.macro_recall,
             "macro_f1": self.macro_f1,
             "weighted_precision": self.weighted_precision,
             "weighted_recall": self.weighted_recall,
             "weighted_f1": self.weighted_f1,
             "headline_f1_average": "weighted",
             "zero_division_warnings": self.zero_division_warnings}
        for i, name in enumerate(self.class_names):
            d[f"{name}_precision"] = self.precision[i]
            d[f"{name}_recall"] = self.recall[i]
            d[f"{name}_f1"] = self.f1[i]
            d[f"{name}_support"] = self.support[i]
        return d


def score(true_labels, pred_labels, n_classes=3):
    true_labels = list(true_labels)
    pred_labels = list(pred_labels)
    if not true_labels:
        raise EvaluationError("empty label lists")
    if len(true_labels) != len(pred_labels):
        raise EvaluationError(
            f"length mismatch: {len(true_labels)} true vs {len(pred_labels)} predicted")
    labels = np.asarray([true_labels, pred_labels])
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= n_classes:
        raise EvaluationError(f"labels must be class indices in [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, tuple(labels), 1)
    total = cm.sum()
    warnings = 0
    precision, recall, f1, support = [], [], [], []
    for c in range(n_classes):
        tp = cm[c, c]
        pred_c = cm[:, c].sum()
        true_c = cm[c, :].sum()
        p = tp / pred_c if pred_c else 0.0
        r = tp / true_c if true_c else 0.0
        warnings += int(pred_c == 0) + int(true_c == 0) + int(p + r == 0)
        precision.append(float(p))
        recall.append(float(r))
        f1.append(float(2 * p * r / (p + r)) if p + r else 0.0)
        support.append(int(true_c))
    sup = np.asarray(support, dtype=np.float64)
    weights = sup / sup.sum() if sup.sum() else np.zeros(n_classes)
    return MetricsReport(
        confusion=cm,
        precision=precision, recall=recall, f1=f1, support=support,
        accuracy=float(np.trace(cm) / total),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        weighted_precision=float(np.dot(weights, precision)),
        weighted_recall=float(np.dot(weights, recall)),
        weighted_f1=float(np.dot(weights, f1)),
        zero_division_warnings=warnings,
        class_names=LABELS[:n_classes],
    )


def format_report(report: MetricsReport):
    """Aligned text table, one row per class plus the aggregate rows."""
    lines = [f"{'class':<12}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>9}"]
    for i, name in enumerate(report.class_names):
        lines.append(f"{name:<12}{report.precision[i]:>10.4f}"
                     f"{report.recall[i]:>10.4f}{report.f1[i]:>10.4f}"
                     f"{report.support[i]:>9d}")
    lines.append(f"{'macro':<12}{report.macro_precision:>10.4f}"
                 f"{report.macro_recall:>10.4f}{report.macro_f1:>10.4f}"
                 f"{sum(report.support):>9d}")
    lines.append(f"{'weighted':<12}{report.weighted_precision:>10.4f}"
                 f"{report.weighted_recall:>10.4f}{report.weighted_f1:>10.4f}"
                 f"{sum(report.support):>9d}")
    lines.append(f"accuracy = {report.accuracy:.4f}")
    lines.append("headline F1 average = weighted")
    return "\n".join(lines)


def format_report_kv(report: MetricsReport):
    """Machine-readable key = value document."""
    return "\n".join(f"{k} = {v}" for k, v in sorted(report.to_dict().items()))

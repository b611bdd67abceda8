"""Classification metrics: confusion matrix, per-class report, ROC and
precision-recall curves with trapezoidal / step-wise areas."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabelVector
from .errors import LengthMismatch, NonBinary, SingleClass


@dataclass(frozen=True)
class ConfusionMatrix:
    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


@dataclass(frozen=True)
class ClassStats:
    precision: float
    recall: float
    f1: float
    support: int
    # which of the three metrics hit a 0/0 and were defined to 0
    zero_division_flags: tuple = ()


@dataclass(frozen=True)
class ClassificationReport:
    class0: ClassStats
    class1: ClassStats
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total_support: int


@dataclass(frozen=True)
class RocCurve:
    points: tuple  # (fpr, tpr, threshold), threshold descending
    auc: float


@dataclass(frozen=True)
class PrCurve:
    points: tuple  # (recall, precision, threshold), threshold descending
    average_precision: float


def _as_binary(values, name):
    arr = values.values if isinstance(values, LabelVector) else np.asarray(values)
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise NonBinary(f"{name} must contain only 0/1")
    return arr.astype(int)


def confusion(y_true, y_pred) -> ConfusionMatrix:
    t = _as_binary(y_true, "y_true")
    p = _as_binary(y_pred, "y_pred")
    if t.shape[0] != p.shape[0]:
        raise LengthMismatch("y_true and y_pred differ in length")
    return ConfusionMatrix(
        tn=int(np.sum((t == 0) & (p == 0))),
        fp=int(np.sum((t == 0) & (p == 1))),
        fn=int(np.sum((t == 1) & (p == 0))),
        tp=int(np.sum((t == 1) & (p == 1))),
    )


def _class_stats(tp, fp, fn, support) -> ClassStats:
    flags = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, flags = 0.0, flags + ["precision"]
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, flags = 0.0, flags + ["recall"]
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1"]
    return ClassStats(precision, recall, f1, support, tuple(flags))


def classification_report(y_true, y_pred) -> ClassificationReport:
    cm = confusion(y_true, y_pred)
    # class 1 viewed as positive; class 0 computed symmetrically
    c1 = _class_stats(cm.tp, cm.fp, cm.fn, cm.tp + cm.fn)
    c0 = _class_stats(cm.tn, cm.fn, cm.fp, cm.tn + cm.fp)
    total = cm.total
    accuracy = (cm.tp + cm.tn) / total if total else 0.0
    w0 = c0.support / total if total else 0.0
    w1 = c1.support / total if total else 0.0
    return ClassificationReport(
        class0=c0,
        class1=c1,
        accuracy=accuracy,
        macro_precision=(c0.precision + c1.precision) / 2,
        macro_recall=(c0.recall + c1.recall) / 2,
        macro_f1=(c0.f1 + c1.f1) / 2,
        weighted_precision=w0 * c0.precision + w1 * c1.precision,
        weighted_recall=w0 * c0.recall + w1 * c1.recall,
        weighted_f1=w0 * c0.f1 + w1 * c1.f1,
        total_support=total,
    )


def _threshold_counts(y_true, scores):
    """Cumulative tp/fp at each distinct score, descending; ties grouped."""
    t = _as_binary(y_true, "y_true")
    s = np.asarray(scores, dtype=float)
    if t.shape[0] != s.shape[0]:
        raise LengthMismatch("y_true and scores differ in length")
    n_pos = int(t.sum())
    n_neg = t.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both classes are required for a curve")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    distinct = np.nonzero(np.diff(s_sorted))[0]
    last = np.concatenate([distinct, [s.shape[0] - 1]])
    tp = np.cumsum(t_sorted)[last]
    fp = (last + 1) - tp
    return s_sorted[last], tp, fp, n_pos, n_neg


def roc_curve(y_true, scores) -> RocCurve:
    """One point per distinct threshold (score >= threshold predicts 1),
    plus the (0,0) and (1,1) endpoints; AUC by the trapezoidal rule."""
    thresholds, tp, fp, n_pos, n_neg = _threshold_counts(y_true, scores)
    tpr = tp / n_pos
    fpr = fp / n_neg
    points = [(0.0, 0.0, float("inf"))]
    points += [(float(f), float(t), float(th))
               for f, t, th in zip(fpr, tpr, thresholds)]
    if points[-1][:2] != (1.0, 1.0):
        points.append((1.0, 1.0, float("-inf")))
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    auc = float(np.trapezoid(ys, xs))
    return RocCurve(tuple(points), auc)


def pr_curve(y_true, scores) -> PrCurve:
    """Step-wise average precision: AP = sum (R_n - R_{n-1}) * P_n."""
    thresholds, tp, fp, n_pos, _ = _threshold_counts(y_true, scores)
    recall = tp / n_pos
    precision = tp / (tp + fp)
    points = tuple(
        (float(r), float(p), float(th))
        for r, p, th in zip(recall, precision, thresholds)
    )
    prev_r = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev_r) * precision))
    return PrCurve(points, ap)


def report_to_text(report: dict, title: str,
                   auc: float | None = None, auc_label: str = "AUC Score") -> str:
    """Fixed-width rendering of a ``report_to_dict`` report with 2-decimal
    metrics; AUC at full precision."""
    def row(label, stats, support):
        return (f"{label:>12}  {stats['precision']:>9.2f} {stats['recall']:>9.2f} "
                f"{stats['f1']:>9.2f} {support:>9d}")

    total = report["total_support"]
    lines = [
        f"{title}:",
        f"{'':>12}  {'precision':>9} {'recall':>9} {'f1-score':>9} {'support':>9}",
        "",
        row("0", report["class0"], report["class0"]["support"]),
        row("1", report["class1"], report["class1"]["support"]),
        "",
        f"{'accuracy':>12}  {'':>9} {'':>9} {report['accuracy']:>9.2f} "
        f"{total:>9d}",
        row("macro avg", report["macro"], total),
        row("weighted avg", report["weighted"], total),
    ]
    if auc is not None:
        lines += ["", f"{title.replace(' Report', '')} {auc_label}: {auc!r}"]
    return "\n".join(lines) + "\n"


def report_to_dict(report: ClassificationReport) -> dict:
    def cls(stats: ClassStats) -> dict:
        return {
            "precision": stats.precision,
            "recall": stats.recall,
            "f1": stats.f1,
            "support": stats.support,
            "zero_division_flags": list(stats.zero_division_flags),
        }

    return {
        "class0": cls(report.class0),
        "class1": cls(report.class1),
        "accuracy": report.accuracy,
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "weighted": {
            "precision": report.weighted_precision,
            "recall": report.weighted_recall,
            "f1": report.weighted_f1,
        },
        "total_support": report.total_support,
    }

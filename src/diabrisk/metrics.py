"""Classification metrics: confusion matrix, per-class report, ROC and
precision-recall curves with trapezoidal / step-wise areas."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import as_counts, as_labels, as_matrix
from .errors import SingleClass


@dataclass(frozen=True)
class ClassStats:
    precision: float
    recall: float
    f1: float
    support: int
    # which of the three metrics hit a 0/0 and were defined to 0
    zero_division_flags: tuple = ()


@dataclass(frozen=True)
class AverageStats:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassificationReport:
    """Laid out as ``report.json``'s ``classification_report`` object."""
    class0: ClassStats
    class1: ClassStats
    accuracy: float
    macro: AverageStats
    weighted: AverageStats
    total_support: int


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Parallel arrays, one entry per threshold, threshold descending."""
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


@dataclass(frozen=True, eq=False)
class PrCurve:
    """Parallel arrays, one entry per threshold, threshold descending."""
    recall: np.ndarray
    precision: np.ndarray
    thresholds: np.ndarray
    average_precision: float


def confusion(y_true, y_pred) -> dict:
    """Counts keyed "tn", "fp", "fn", "tp", with class 1 as positive."""
    t = as_labels(y_true, "y_true")
    p = as_labels(y_pred, "y_pred", n_rows=t.shape[0])
    return {
        "tn": int(np.sum((t == 0) & (p == 0))),
        "fp": int(np.sum((t == 0) & (p == 1))),
        "fn": int(np.sum((t == 1) & (p == 0))),
        "tp": int(np.sum((t == 1) & (p == 1))),
    }


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
    tn, fp, fn, tp = cm["tn"], cm["fp"], cm["fn"], cm["tp"]
    c1 = _class_stats(tp, fp, fn, tp + fn)
    c0 = _class_stats(tn, fn, fp, tn + fp)
    total = tn + fp + fn + tp
    accuracy = (tp + tn) / total if total else 0.0
    w0 = c0.support / total if total else 0.0
    w1 = c1.support / total if total else 0.0
    return ClassificationReport(
        class0=c0,
        class1=c1,
        accuracy=accuracy,
        macro=AverageStats((c0.precision + c1.precision) / 2,
                           (c0.recall + c1.recall) / 2, (c0.f1 + c1.f1) / 2),
        weighted=AverageStats(w0 * c0.precision + w1 * c1.precision,
                              w0 * c0.recall + w1 * c1.recall,
                              w0 * c0.f1 + w1 * c1.f1),
        total_support=total,
    )


def _threshold_counts(y_true, scores, counts=None):
    """Cumulative tp/fp at each distinct score, descending; ties grouped.
    ``counts`` weighs each row as that many rows (one each when None)."""
    # one column, so that as_matrix rejects a NaN, which would otherwise
    # sort as the lowest threshold
    s = as_matrix(np.reshape(scores, (-1, 1)), 1, "scores")[:, 0]
    t = as_labels(y_true, "y_true", n_rows=s.shape[0])
    c = as_counts(counts, t.shape[0])
    n_pos = int((c * t).sum())
    n_neg = int(c.sum()) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both classes are required for a curve")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    c_sorted = c[order]
    distinct = np.nonzero(np.diff(s_sorted))[0]
    last = np.concatenate([distinct, [s.shape[0] - 1]])
    tp = np.cumsum(c_sorted * t[order])[last]
    fp = np.cumsum(c_sorted)[last] - tp
    return s_sorted[last], tp, fp, n_pos, n_neg


def roc_curve(y_true, scores, counts=None) -> RocCurve:
    """One point per distinct threshold (score >= threshold predicts 1),
    after a (0, 0) point at +inf; the lowest threshold takes every row, so
    the last point is (1, 1). AUC by the trapezoidal rule. ``counts`` (one
    integer >= 1 per row) gives the curve of the rows repeated that many
    times, bit for bit."""
    thresholds, tp, fp, n_pos, n_neg = _threshold_counts(y_true, scores, counts)
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    thresholds = np.concatenate([[np.inf], thresholds])
    return RocCurve(fpr, tpr, thresholds, float(np.trapezoid(tpr, fpr)))


def pr_curve(y_true, scores) -> PrCurve:
    """Step-wise average precision: AP = sum (R_n - R_{n-1}) * P_n."""
    thresholds, tp, fp, n_pos, _ = _threshold_counts(y_true, scores)
    recall = tp / n_pos
    precision = tp / (tp + fp)
    prev_r = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev_r) * precision))
    return PrCurve(recall, precision, thresholds, ap)


def report_to_text(report: dict, title: str,
                   auc: float | None = None) -> str:
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
        lines += ["", f"{title.replace(' Report', '')} AUC Score: {auc!r}"]
    return "\n".join(lines) + "\n"


def report_to_dict(report: ClassificationReport) -> dict:
    """The report as plain dicts; ``json.dumps`` writes its
    ``zero_division_flags`` tuples as lists."""
    return asdict(report)

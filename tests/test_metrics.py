import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diabrisk.errors import LengthMismatch, NonBinary, SingleClass
from diabrisk.metrics import (
    classification_report,
    confusion,
    pr_curve,
    report_to_dict,
    report_to_text,
    roc_curve,
)


def concordance_auc(y_true, scores):
    """Mann-Whitney oracle: P(score_pos > score_neg) + 0.5 P(tie)."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def brute_force_ap(y_true, scores):
    """AP from first principles: walk distinct thresholds descending."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    prev_recall, ap = 0.0, 0.0
    for th in sorted(set(s), reverse=True):
        pred = s >= th
        tp = int(np.sum(pred & (y == 1)))
        fp = int(np.sum(pred & (y == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestConfusion:
    def test_hand_example(self):
        cm = confusion([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == (1, 1, 1, 2)
        assert cm.total == 5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0])

    def test_non_binary(self):
        with pytest.raises(NonBinary):
            confusion([0, 2], [0, 1])


class TestClassificationReport:
    def test_perfect_prediction(self):
        r = classification_report([0, 1, 1], [0, 1, 1])
        assert r.accuracy == 1.0
        assert r.class0.precision == 1.0 and r.class1.recall == 1.0
        assert r.macro_f1 == 1.0

    def test_exhaustive_four_element_arithmetic(self):
        # every 0/1 pair of length-4 vectors with both classes predicted
        # somewhere; recompute everything with plain arithmetic
        for yt in itertools.product([0, 1], repeat=4):
            for yp in itertools.product([0, 1], repeat=4):
                r = classification_report(list(yt), list(yp))
                tp = sum(t and p for t, p in zip(yt, yp))
                tn = sum(not t and not p for t, p in zip(yt, yp))
                fp = sum(not t and p for t, p in zip(yt, yp))
                fn = sum(t and not p for t, p in zip(yt, yp))
                assert r.accuracy == pytest.approx((tp + tn) / 4)
                p1 = tp / (tp + fp) if tp + fp else 0.0
                r1 = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * p1 * r1 / (p1 + r1) if p1 + r1 else 0.0
                assert r.class1.precision == pytest.approx(p1)
                assert r.class1.recall == pytest.approx(r1)
                assert r.class1.f1 == pytest.approx(f1)
                p0 = tn / (tn + fn) if tn + fn else 0.0
                r0 = tn / (tn + fp) if tn + fp else 0.0
                assert r.class0.precision == pytest.approx(p0)
                assert r.class0.recall == pytest.approx(r0)
                assert r.macro_precision == pytest.approx((p0 + p1) / 2)
                w0, w1 = (tn + fp) / 4, (tp + fn) / 4
                assert r.weighted_recall == pytest.approx(w0 * r0 + w1 * r1)
                assert r.total_support == 4

    def test_zero_division_flags(self):
        # nothing predicted positive and no positives in truth
        r = classification_report([0, 0, 0], [0, 0, 0])
        assert set(r.class1.zero_division_flags) == {"precision", "recall", "f1"}
        assert r.class1.precision == 0.0
        assert r.class0.zero_division_flags == ()

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(0)
        yt = rng.integers(0, 2, size=50)
        yp = rng.integers(0, 2, size=50)
        a = classification_report(yt, yp)
        b = classification_report(1 - yt, 1 - yp)
        assert a.class1.precision == pytest.approx(b.class0.precision)
        assert a.class1.recall == pytest.approx(b.class0.recall)
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.macro_f1 == pytest.approx(b.macro_f1)


class TestRocCurve:
    def test_textbook_example(self):
        roc = roc_curve([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        assert roc.auc == pytest.approx(0.75)
        assert roc.points[0] == (0.0, 0.0, float("inf"))
        assert roc.points[-1][:2] == (1.0, 1.0)

    def test_perfect_and_inverted(self):
        assert roc_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]).auc == 1.0
        assert roc_curve([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]).auc == 0.0

    def test_all_ties_gives_half(self):
        assert roc_curve([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]).auc == pytest.approx(0.5)

    def test_matches_concordance_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)
            auc = roc_curve(y, scores).auc
            assert auc == pytest.approx(concordance_auc(y, scores), abs=1e-12)

    @given(
        st.lists(st.integers(0, 1), min_size=4, max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_endpoints_property(self, y, rnd):
        if 0 not in y or 1 not in y:
            return
        scores = [rnd.random() for _ in y]
        roc = roc_curve(y, scores)
        xs = [p[0] for p in roc.points]
        ys = [p[1] for p in roc.points]
        assert xs == sorted(xs) and ys == sorted(ys)
        assert (xs[0], ys[0]) == (0.0, 0.0)
        assert (xs[-1], ys[-1]) == (1.0, 1.0)
        ths = [p[2] for p in roc.points]
        assert all(a > b for a, b in zip(ths, ths[1:]))
        assert 0.0 <= roc.auc <= 1.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        s = rng.random(60)
        a = roc_curve(y, s)
        b = roc_curve(y, np.exp(3 * s))
        assert a.auc == pytest.approx(b.auc, abs=1e-12)
        assert [p[:2] for p in a.points] == [p[:2] for p in b.points]

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc_curve([1, 1, 1], [0.1, 0.2, 0.3])


class TestPrCurve:
    def test_hand_example(self):
        pr = pr_curve([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        # thresholds 0.8, 0.4, 0.35, 0.1 -> AP = .5*1 + 0 + .5*(2/3)
        assert pr.average_precision == pytest.approx(0.5 + 0.5 * 2 / 3)

    def test_perfect_ranking(self):
        pr = pr_curve([0, 1, 0, 1], [0.2, 0.9, 0.1, 0.8])
        assert pr.average_precision == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            s = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)
            assert pr_curve(y, s).average_precision == pytest.approx(
                brute_force_ap(y, s), abs=1e-12
            )

    def test_recall_reaches_one(self):
        pr = pr_curve([1, 0, 1, 0, 1], np.random.default_rng(4).random(5))
        assert pr.points[-1][0] == 1.0
        recalls = [p[0] for p in pr.points]
        assert recalls == sorted(recalls)


class TestRendering:
    def test_text_contains_rows_and_auc(self):
        r = classification_report([0, 0, 1, 1], [0, 1, 1, 1])
        text = report_to_text(report_to_dict(r), "Example Report", auc=0.875)
        assert "precision" in text and "weighted avg" in text
        assert "Example AUC Score: 0.875" in text
        assert f"{r.accuracy:.2f}" in text

    def test_dict_round_numbers(self):
        r = classification_report([0, 1, 1, 0], [0, 1, 0, 0])
        d = report_to_dict(r)
        assert d["accuracy"] == r.accuracy
        assert d["class1"]["support"] == 2
        assert d["macro"]["f1"] == r.macro_f1
        assert math.isfinite(d["weighted"]["precision"])

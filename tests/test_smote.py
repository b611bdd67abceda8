import numpy as np
import pytest

from diabrisk.errors import SingleClass, TooFewMinority
from diabrisk.smote import SmoteParams, smote_balance


def _segment_membership(point, a, b, tol=1e-9):
    """Is `point` on the segment [a, b]?"""
    ab = b - a
    ap = point - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.allclose(point, a, atol=tol)
    t = float(ap @ ab) / denom
    if not -tol <= t <= 1.0 + tol:
        return False
    return np.allclose(a + t * ab, point, atol=tol)


def test_already_balanced_returns_input_unchanged():
    X = np.arange(8, dtype=float).reshape(4, 2)
    y = np.array([0, 1, 0, 1])
    X2, y2 = smote_balance(X, y, SmoteParams(seed=0))
    assert np.array_equal(X2, X)
    assert np.array_equal(y2, y)


def test_two_point_minority_synthetics_on_diagonal():
    X = np.array([[0.0, 0.0], [1.0, 1.0]] + [[5.0, -3.0]] * 10)
    y = np.array([1, 1] + [0] * 10)
    X2, y2 = smote_balance(X, y, SmoteParams(k_neighbors=1, seed=4))
    synthetic = X2[12:]
    assert len(synthetic) == 8
    for s in synthetic:
        assert s[0] == s[1]  # on the segment (t, t)
        assert 0.0 <= s[0] < 1.0


def test_synthetics_lie_on_minority_pair_segments():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    y = np.array([1] * 12 + [0] * 28)
    X2, y2 = smote_balance(X, y, SmoteParams(k_neighbors=3, seed=1))
    minority = X[:12]
    for s in X2[40:]:
        on_some_segment = any(
            _segment_membership(s, minority[i], minority[j])
            for i in range(12)
            for j in range(12)
            if i != j
        )
        assert on_some_segment


@pytest.mark.parametrize("ratio", [0.25, 0.5, 0.8, 1.0])
def test_balance_counts(ratio):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 4))
    y = np.array([1] * 15 + [0] * 85)
    _, y2 = smote_balance(X, y, SmoteParams(seed=0, target_ratio=ratio))
    assert abs(int(y2.sum()) - int((y2 == 0).sum()) * ratio) <= 1


def test_originals_preserved_in_order():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    y = (rng.random(30) < 0.3).astype(int)
    X2, y2 = smote_balance(X, y, SmoteParams(seed=5))
    assert np.array_equal(X2[:30], X)
    assert np.array_equal(y2[:30], y)
    assert np.all(y2[30:] == 1)  # only minority rows appended


def test_bitwise_determinism():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 5))
    y = (rng.random(60) < 0.2).astype(int)
    a = smote_balance(X, y, SmoteParams(seed=11))
    b = smote_balance(X, y, SmoteParams(seed=11))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    c = smote_balance(X, y, SmoteParams(seed=12))
    assert not np.array_equal(a[0], c[0])


def test_single_class_rejected():
    X = np.ones((5, 2))
    with pytest.raises(SingleClass):
        smote_balance(X, np.zeros(5, dtype=int), SmoteParams())


def test_too_few_minority_rejected():
    X = np.arange(10, dtype=float).reshape(5, 2)
    y = np.array([1, 0, 0, 0, 0])
    with pytest.raises(TooFewMinority):
        smote_balance(X, y, SmoteParams())


def test_k_clamped_with_warning():
    X = np.vstack([np.eye(3), np.full((7, 3), 9.0)])
    y = np.array([1, 1, 1] + [0] * 7)
    with pytest.warns(UserWarning, match="clamped"):
        X2, y2 = smote_balance(X, y, SmoteParams(k_neighbors=10, seed=0))
    assert int(y2.sum()) == int((y2 == 0).sum())


def test_majority_can_be_class_one():
    # minority is class 0 here; it must be the oversampled one
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 2))
    y = np.array([0] * 10 + [1] * 40)
    X2, y2 = smote_balance(X, y, SmoteParams(seed=0))
    assert int((y2 == 0).sum()) == int(y2.sum()) == 40
    assert np.all(y2[50:] == 0)

"""The input contract. Every entry point that takes labels reads them through
``as_labels``, so each accepts a 1-D vector of 0/1 (list, bool or int array)
and rejects anything else with ``NonBinary``. Every entry point that takes a
matrix reads it through ``as_matrix``: X that is not 2-D, has the wrong width
or another row count than its labels raises ``DimensionMismatch``, as do
feature names of another count than its columns, and a NaN or infinity
raises ``DataError`` naming its row and column. Counts go through
``as_counts``: one integer >= 1 per row, else ``DimensionMismatch`` for the
shape and ``BadParams`` for the values."""
import numpy as np
import pytest

from diabrisk.dataset import DataTable, as_labels, as_matrix
from diabrisk.errors import BadParams, DataError, DimensionMismatch, NonBinary
from diabrisk.feature_selection import rfe
from diabrisk.gridsearch import CvConfig, grid_search
from diabrisk.logistic import (
    LogRegParams,
    fit_logreg,
    lasso_coefficients,
    loss_and_gradient,
    predict_proba,
)
from diabrisk.metrics import classification_report, pr_curve, roc_curve
from diabrisk.smote import SmoteParams, smote_balance
from diabrisk.tree import ForestParams, fit_forest, fit_tree, predict_tree

N = 40
X = np.random.default_rng(3).normal(size=(N, 2))
Y = np.array([1, 0, 0, 0] * (N // 4))  # 10 positives: SMOTE has work to do

ENTRY_POINTS = {
    "fit_tree": lambda y: fit_tree(X, y),
    "fit_forest": lambda y: fit_forest(X, y, ForestParams(n_trees=2)),
    "fit_logreg": lambda y: fit_logreg(X, y),
    "loss_and_gradient": lambda y: loss_and_gradient(
        np.zeros(2), 0.0, X, y, LogRegParams()),
    "grid_search": lambda y: grid_search(
        X, y, "tree", {"max_depth": [2]}, CvConfig(folds=2)),
    "smote_balance": lambda y: smote_balance(X, y, SmoteParams(k_neighbors=2)),
    "roc_curve": lambda y: roc_curve(y, X[:, 0]),
    "classification_report": lambda y: classification_report(y, Y),
}

BAD = {
    "zero_two": np.where(Y == 1, 2, 0),
    "fraction": np.where(Y == 1, 0.5, 0.0),
    "column": Y.reshape(-1, 1),
}

GOOD = {"list": Y.tolist(), "bool": Y.astype(bool), "int": Y}


@pytest.mark.parametrize("labels", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_non_binary_labels_rejected(entry, labels):
    with pytest.raises(NonBinary):
        entry(labels)


@pytest.mark.parametrize("labels", GOOD.values(), ids=GOOD.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_binary_labels_accepted(entry, labels):
    entry(labels)


@pytest.mark.parametrize("labels", GOOD.values(), ids=GOOD.keys())
def test_as_labels_returns_int64(labels):
    out = as_labels(labels)
    assert out.dtype == np.int64
    assert np.array_equal(out, Y)


def with_value(value):
    """X with ``value`` at row 5, column 1."""
    bad = X.copy()
    bad[5, 1] = value
    return bad


NON_FINITE = "non-finite value at row 5, column 1$"

# entry points that read X together with its labels
MATRIX_ENTRY_POINTS = {
    "fit_tree": lambda X, y: fit_tree(X, y),
    "fit_forest": lambda X, y: fit_forest(X, y, ForestParams(n_trees=2)),
    "fit_logreg": lambda X, y: fit_logreg(X, y),
    "lasso_coefficients": lambda X, y: lasso_coefficients(X, y, 0.1),
    "loss_and_gradient": lambda X, y: loss_and_gradient(
        np.zeros(2), 0.0, X, y, LogRegParams()),
    "grid_search_tree": lambda X, y: grid_search(
        X, y, "tree", {"max_depth": [2]}, CvConfig(folds=2)),
    "grid_search_logistic": lambda X, y: grid_search(
        X, y, "logistic", {"C": [1.0]}, CvConfig(folds=2)),
    "rfe": lambda X, y: rfe(X, y, 1),
    "smote_balance": lambda X, y: smote_balance(X, y, SmoteParams(k_neighbors=2)),
}

BAD_MATRIX = {
    "one_d": (X[:, 0], Y, DimensionMismatch, "2-D"),
    "fewer_rows": (X[:30], Y, DimensionMismatch, "40 entries for 30 rows"),
    "more_rows": (X, Y[:30], DimensionMismatch, "30 entries for 40 rows"),
    "nan": (with_value(np.nan), Y, DataError, NON_FINITE),
    "inf": (with_value(-np.inf), Y, DataError, NON_FINITE),
}


@pytest.mark.parametrize("X_bad, y, error, match", BAD_MATRIX.values(),
                         ids=BAD_MATRIX.keys())
@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS.values(),
                         ids=MATRIX_ENTRY_POINTS.keys())
def test_bad_matrix_rejected(entry, X_bad, y, error, match):
    with pytest.raises(error, match=match):
        entry(X_bad, y)


LOGREG = fit_logreg(X, Y)
TREE = fit_tree(X, Y)

# entry points that read X against a known width of 2 columns
WIDTH_ENTRY_POINTS = {
    "predict_proba": lambda X: predict_proba(LOGREG, X),
    "predict_tree": lambda X: predict_tree(TREE, X),
    "loss_and_gradient": lambda X: loss_and_gradient(
        np.zeros(2), 0.0, X, Y, LogRegParams()),
    "DataTable": lambda X: DataTable(("a", "b"), X),
}

BAD_WIDTH = {
    "one_d": (X[:, 0], DimensionMismatch, "2-D"),
    "wide": (np.hstack([X, X]), DimensionMismatch, "4 columns, expected 2"),
    "nan": (with_value(np.nan), DataError, NON_FINITE),
    "inf": (with_value(np.inf), DataError, NON_FINITE),
}


@pytest.mark.parametrize("X_bad, error, match", BAD_WIDTH.values(),
                         ids=BAD_WIDTH.keys())
@pytest.mark.parametrize("entry", WIDTH_ENTRY_POINTS.values(),
                         ids=WIDTH_ENTRY_POINTS.keys())
def test_bad_width_rejected(entry, X_bad, error, match):
    with pytest.raises(error, match=match):
        entry(X_bad)


BAD_SCORES = {
    "nan": ([0.1, np.nan, 0.3, 0.8], DataError, "row 1, column 0$"),
    "inf": ([0.1, 0.2, np.inf, 0.8], DataError, "row 2, column 0$"),
    "short": ([0.1, 0.2, 0.3], DimensionMismatch, "4 entries for 3 rows"),
}


@pytest.mark.parametrize("scores, error, match", BAD_SCORES.values(),
                         ids=BAD_SCORES.keys())
@pytest.mark.parametrize("curve", [roc_curve, pr_curve],
                         ids=["roc_curve", "pr_curve"])
def test_bad_scores_rejected(curve, scores, error, match):
    with pytest.raises(error, match=match):
        curve([0, 1, 0, 1], scores)


# entry points that name the 2 columns of X
NAMES_ENTRY_POINTS = {
    "fit_tree": lambda names: fit_tree(X, Y, feature_names=names),
    "fit_logreg": lambda names: fit_logreg(X, Y, feature_names=names),
}

BAD_NAMES = {
    "empty": ([], "0 feature names for 2 columns"),
    "short": (["a"], "1 feature names for 2 columns"),
    "long": (["a", "b", "c"], "3 feature names for 2 columns"),
}


@pytest.mark.parametrize("names, match", BAD_NAMES.values(), ids=BAD_NAMES.keys())
@pytest.mark.parametrize("entry", NAMES_ENTRY_POINTS.values(),
                         ids=NAMES_ENTRY_POINTS.keys())
def test_bad_feature_names_rejected(entry, names, match):
    with pytest.raises(DimensionMismatch, match=match):
        entry(names)


@pytest.mark.parametrize("entry", NAMES_ENTRY_POINTS.values(),
                         ids=NAMES_ENTRY_POINTS.keys())
def test_feature_names_kept(entry):
    assert entry(["a", "b"]).feature_names == ("a", "b")
    assert entry(None).feature_names is None


@pytest.mark.parametrize("order", ["C", "F"])
def test_as_matrix_neither_copies_nor_reorders(order):
    matrix = np.asarray(X, order=order)
    assert as_matrix(matrix) is matrix


# entry points that take one count per row of X
COUNTS_ENTRY_POINTS = {
    "fit_tree": lambda counts: fit_tree(X, Y, counts=counts),
    "fit_logreg": lambda counts: fit_logreg(X, Y, counts=counts),
    "loss_and_gradient": lambda counts: loss_and_gradient(
        np.zeros(2), 0.0, X, Y, LogRegParams(), counts=counts),
}

ONES = np.ones(N, dtype=np.int64)

BAD_COUNTS = {
    "short": (ONES[:30], DimensionMismatch, "one count per row"),
    "column": (ONES.reshape(-1, 1), DimensionMismatch, "one count per row"),
    "float": (ONES.astype(float), BadParams, "integers"),
    "bool": (ONES.astype(bool), BadParams, "integers"),
    "zero": (np.where(np.arange(N) == 5, 0, ONES), BadParams, "at least 1"),
}


@pytest.mark.parametrize("counts, error, match", BAD_COUNTS.values(),
                         ids=BAD_COUNTS.keys())
@pytest.mark.parametrize("entry", COUNTS_ENTRY_POINTS.values(),
                         ids=COUNTS_ENTRY_POINTS.keys())
def test_bad_counts_rejected(entry, counts, error, match):
    with pytest.raises(error, match=match):
        entry(counts)


@pytest.mark.parametrize("counts", [ONES.tolist(), ONES.astype(np.int32),
                                    np.arange(1, N + 1)],
                         ids=["list", "int32", "int64"])
@pytest.mark.parametrize("entry", COUNTS_ENTRY_POINTS.values(),
                         ids=COUNTS_ENTRY_POINTS.keys())
def test_integer_counts_accepted(entry, counts):
    entry(counts)

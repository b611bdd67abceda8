"""The label contract: every entry point that takes labels reads them through
``as_labels``, so each accepts a 1-D vector of 0/1 (list, bool or int array)
and rejects anything else with ``NonBinary``."""
import numpy as np
import pytest

from diabrisk.dataset import as_labels
from diabrisk.errors import NonBinary
from diabrisk.gridsearch import CvConfig, grid_search
from diabrisk.logistic import LogRegParams, fit_logreg, loss_and_gradient
from diabrisk.metrics import classification_report, roc_curve
from diabrisk.smote import SmoteParams, smote_balance
from diabrisk.tree import ForestParams, fit_forest, fit_tree

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

"""Recursive feature elimination over the logistic model, and a consensus
ranking fusing Lasso coefficients, forest importance and RFE.

RFE repeatedly fits the default logistic model on the surviving features
(z-scored, so coefficient magnitudes are comparable) and drops the feature
with the smallest absolute coefficient. Survivors get rank 1; eliminated
features get distinct ranks 2..(p - n_select + 1), the last one dropped
ranked 2 and the first one dropped ranked highest.
"""
from __future__ import annotations

import numpy as np

from .dataset import as_labels, as_matrix
from .errors import BadParams, DimensionMismatch
from .logistic import LogRegParams, fit_logreg


def rfe(X, y, n_select: int) -> np.ndarray:
    """Int rank per column of ``X``: 1 for the ``n_select`` survivors."""
    X = as_matrix(X)
    y = as_labels(y, n_rows=X.shape[0])
    p = X.shape[1]
    if not 1 <= n_select <= p:
        raise BadParams(f"n_select must be in [1, {p}], got {n_select}")

    ranks = np.ones(p, dtype=int)
    surviving = list(range(p))
    while len(surviving) > n_select:
        model = fit_logreg(X[:, surviving], y, LogRegParams())
        # smallest |coefficient| dropped, the first one on exact ties; argsort
        # sorts a NaN last, where argmin would pick it
        drop = np.argsort(np.abs(model.weights_standardized), kind="stable")[0]
        ranks[surviving[drop]] = len(surviving) - n_select + 1
        del surviving[drop]
    return ranks


def _rank_with_ties(values_desc: np.ndarray) -> np.ndarray:
    """Rank 1 = largest value; exact ties share the average rank. A value
    with ``left`` values above it and ``right - left`` equal to it (itself
    included) takes the mean of ranks left + 1 .. right."""
    keys = -np.asarray(values_desc, dtype=float)
    ordered = np.sort(keys)
    left = np.searchsorted(ordered, keys, side="left")
    right = np.searchsorted(ordered, keys, side="right")
    return (left + right + 1) / 2


def consensus_rank(lasso_coeffs, importance, rfe_ranks) -> dict:
    """The ``lasso_rank``, ``forest_rank``, ``rfe_rank`` and ``mean_rank``
    float columns, one entry per feature; each input has one entry per
    feature too."""
    lasso, importance, rfe_ranks = (
        np.asarray(a, dtype=float) for a in (lasso_coeffs, importance, rfe_ranks))
    if not len(lasso) == len(importance) == len(rfe_ranks):
        raise DimensionMismatch("inputs cover different feature counts")

    lasso_rank = _rank_with_ties(np.abs(lasso))
    forest_rank = _rank_with_ties(importance)
    # RFE ranks have ties at 1 (all selected); average them so the column is
    # a tied permutation of 1..p like the other two
    rfe_rank = _rank_with_ties(-rfe_ranks)
    return {
        "lasso_rank": lasso_rank, "forest_rank": forest_rank,
        "rfe_rank": rfe_rank,
        "mean_rank": (lasso_rank + forest_rank + rfe_rank) / 3.0,
    }

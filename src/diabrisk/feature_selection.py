"""Recursive feature elimination over the logistic model, and a consensus
ranking fusing Lasso coefficients, forest importance and RFE.

RFE repeatedly fits the base logistic model on the surviving features
(z-scored, so coefficient magnitudes are comparable) and drops the features
with the smallest absolute coefficient. Survivors get rank 1; eliminated
features get distinct ranks 2..(p - n_select + 1), the last one dropped
ranked 2 and the first one dropped ranked highest.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, FeatureMismatch
from .logistic import LogRegParams, fit_logreg
from .tree import ImportanceVector


@dataclass(frozen=True)
class RfeParams:
    n_select: int = 10
    step: int = 1
    base: LogRegParams = field(default_factory=LogRegParams)

    def __post_init__(self):
        if self.n_select < 1 or self.step < 1:
            raise BadParams("require n_select >= 1 and step >= 1")


@dataclass(frozen=True)
class RfeResult:
    feature_names: tuple
    selected: tuple          # bool per feature
    ranks: tuple             # int per feature, 1 = selected
    elimination_order: tuple  # feature names, first eliminated first

    def selected_names(self):
        return [n for n, s in zip(self.feature_names, self.selected) if s]


@dataclass(frozen=True, eq=False)
class ConsensusRanking:
    feature_names: tuple
    lasso_rank: np.ndarray
    forest_rank: np.ndarray
    rfe_rank: np.ndarray
    mean_rank: np.ndarray

    def ordered_names(self):
        order = np.argsort(self.mean_rank, kind="stable")
        return [self.feature_names[i] for i in order]


def rfe(X, y, feature_names, params: RfeParams = RfeParams()) -> RfeResult:
    X = np.asarray(X, dtype=float)
    names = list(feature_names)
    p = X.shape[1]
    if len(names) != p:
        raise FeatureMismatch("feature_names length does not match X")
    if params.n_select > p:
        raise BadParams("n_select exceeds the feature count")

    surviving = list(range(p))
    eliminated: list[int] = []
    while len(surviving) > params.n_select:
        model = fit_logreg(X[:, surviving], y, params.base)
        magnitudes = np.abs(model.weights_standardized)
        n_drop = min(params.step, len(surviving) - params.n_select)
        # smallest |coefficient| dropped first; stable order on exact ties
        drop_local = np.argsort(magnitudes, kind="stable")[:n_drop]
        for local in sorted(drop_local, key=lambda i: magnitudes[i]):
            eliminated.append(surviving[local])
        surviving = [
            idx for pos, idx in enumerate(surviving) if pos not in set(drop_local)
        ]

    ranks = [1] * p
    m = len(eliminated)
    for order_pos, idx in enumerate(eliminated):
        ranks[idx] = m - order_pos + 1
    selected = [idx not in eliminated for idx in range(p)]
    return RfeResult(
        feature_names=tuple(names),
        selected=tuple(selected),
        ranks=tuple(ranks),
        elimination_order=tuple(names[i] for i in eliminated),
    )


def _rank_with_ties(values_desc: np.ndarray) -> np.ndarray:
    """Rank 1 = largest value; exact ties share the average rank. A value
    with ``left`` values above it and ``right - left`` equal to it (itself
    included) takes the mean of ranks left + 1 .. right."""
    keys = -np.asarray(values_desc, dtype=float)
    ordered = np.sort(keys)
    left = np.searchsorted(ordered, keys, side="left")
    right = np.searchsorted(ordered, keys, side="right")
    return (left + right + 1) / 2


def consensus_rank(lasso_coeffs, importance: ImportanceVector,
                   rfe_result: RfeResult, feature_names) -> ConsensusRanking:
    names = list(feature_names)
    p = len(names)
    lasso = np.asarray(lasso_coeffs, dtype=float)
    if lasso.shape[0] != p or importance.values.shape[0] != p:
        raise FeatureMismatch("inputs cover different feature counts")
    if tuple(names) != rfe_result.feature_names:
        raise FeatureMismatch("RFE feature list does not match")

    lasso_rank = _rank_with_ties(np.abs(lasso))
    forest_rank = _rank_with_ties(importance.values)
    # RFE ranks have ties at 1 (all selected); average them so the column is
    # a tied permutation of 1..p like the other two
    rfe_rank = _rank_with_ties(-np.asarray(rfe_result.ranks, dtype=float))
    mean = (lasso_rank + forest_rank + rfe_rank) / 3.0
    return ConsensusRanking(tuple(names), lasso_rank, forest_rank, rfe_rank, mean)

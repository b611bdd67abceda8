"""Synthetic minority oversampling (SMOTE).

Synthetic rows are convex interpolants between a minority row and one of its
k nearest minority neighbours (Euclidean distance on raw feature values).
Originals are kept first, in their input order; synthetics are appended.

A row with k or more other copies has k of them, at distance 0, as its
nearest neighbours. SMOTE reads only a neighbour's values, so such a row lists
itself k times instead. Only the rows with fewer copies need a k-d tree
search, and scipy is imported only when there is one.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import as_labels, as_matrix, distinct_rows
from .errors import BadParams, SingleClass, TooFewMinority


@dataclass(frozen=True)
class SmoteParams:
    k_neighbors: int = 5
    seed: int = 0
    target_ratio: float = 1.0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise BadParams("k_neighbors must be >= 1")
        if self.seed < 0:
            raise BadParams("seed must be >= 0")
        if not 0.0 < self.target_ratio <= 1.0:
            raise BadParams("target_ratio must be in (0, 1]")


def _minority_neighbors(minority: np.ndarray, k: int) -> np.ndarray:
    """Index matrix of the k nearest minority neighbours of each minority row,
    self excluded, or a row's own index k times when it has k or more other
    copies.

    Such a row's k nearest neighbours are copies at distance 0, and any copy
    gives the same synthetic row as the row itself, bit for bit. Every other
    row is queried against a k-d tree of all minority rows, so it gets the
    neighbours a query of every row would give it."""
    n = minority.shape[0]
    _, inverse = distinct_rows(minority)
    neighbors = np.repeat(np.arange(n)[:, None], k, axis=1)
    queried = np.flatnonzero(np.bincount(inverse)[inverse] <= k)
    if queried.size:
        from scipy.spatial import cKDTree

        _, idx = cKDTree(minority).query(minority[queried], k=k + 1)
        # drop self, or the last column when more than k + 1 rows sit at
        # distance 0 and self is not among them (squares that underflow)
        drop = idx == queried[:, None]
        drop[~drop.any(axis=1), -1] = True
        neighbors[queried] = idx[~drop].reshape(-1, k)
    return neighbors


def smote_balance(X, y, params: SmoteParams):
    """Oversample the minority class until minority = majority * target_ratio.

    Returns ``(X_out, y_out)`` with all input rows preserved in order and the
    synthetics appended. Deterministic under ``params.seed``.
    """
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    pos = int(labels.sum())
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise SingleClass("both classes are required for SMOTE")
    minority_label = 1 if pos < neg else 0
    minority_count = min(pos, neg)
    majority_count = max(pos, neg)
    if minority_count < 2:
        raise TooFewMinority("need at least 2 minority rows")

    n_synthetic = int(round(majority_count * params.target_ratio)) - minority_count
    if n_synthetic <= 0:
        return X, labels

    k = params.k_neighbors
    if k > minority_count - 1:
        warnings.warn(
            f"k_neighbors={k} clamped to {minority_count - 1} "
            "(minority class too small)",
            stacklevel=2,
        )
        k = minority_count - 1

    minority_rows = X[labels == minority_label]
    neighbors = _minority_neighbors(minority_rows, k)

    rng = np.random.default_rng(params.seed)
    base = rng.integers(0, minority_count, size=n_synthetic)
    pick = rng.integers(0, k, size=n_synthetic)
    gap = rng.random(n_synthetic)

    xi = minority_rows[base]
    xj = minority_rows[neighbors[base, pick]]
    synthetic = xi + gap[:, None] * (xj - xi)

    X_out = np.vstack([X, synthetic])
    y_out = np.concatenate([labels, np.full(n_synthetic, minority_label, dtype=int)])
    return X_out, y_out

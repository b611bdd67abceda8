"""Synthetic minority oversampling (SMOTE).

Synthetic rows are convex interpolants between a minority row and one of its
k nearest minority neighbours. Originals are kept first, in their input
order; synthetics are appended.

Neighbours follow one stated rule. A row's neighbours are the k other
minority rows with the smallest squared distance, the float64 sum of squared
column differences added in column order; ties go to the lower row index.
On integer codes these squared distances are exact integers, and most
queries have ties at the k-th distance.

Copies of a row have its distances, so each distinct minority row is ranked
once: its k + 1 nearest member rows by the rule, its own copies among them.
A member row's neighbours are that list less itself, or less its last row
when it is not on the list. Every distinct row holds a member row, so a
query's k + 1 nearest member rows lie within the distance of its (k + 1)-th
nearest distinct row: a search keeps the distinct rows within that bound.
A small search (at most ``_SCREEN_PAIRS`` pairs of distinct rows: 5,792
distinct minority rows) screens every distinct row in numpy; a larger one
asks a k-d tree, and only then is scipy imported. At full scale that is
``features`` alone. Either way the candidates are rescored and ranked by
the rule, so the neighbours do not depend on the tree's layout.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import as_labels, as_matrix, distinct_rows, ranges
from .errors import BadParams, DataError, SingleClass, TooFewMinority

# Above this many (distinct row, distinct row) pairs the k-d tree searches
# instead of the numpy screen. Measured on one core of a 2-vCPU VM with one
# BLAS thread, on 21-column rows: at 16M pairs the screen took 0.26 s and
# the tree 0.10 s, at 36M pairs 0.53 s and 0.17 s, and importing scipy for
# the tree takes 0.3-0.4 s, so the two break even near 2**25.
_SCREEN_PAIRS = 2 ** 25
# scores per block of the screen: 8 MB of float64
_BLOCK_CELLS = 2 ** 20


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
    """Index matrix of the k neighbours of each minority row under the rule
    of the module docstring, self excluded."""
    distinct, inverse = distinct_rows(minority)
    counts = np.bincount(inverse)
    # every d², Gram score and partial sum stays below 8 p top²
    top = np.sqrt(np.finfo(float).max / (8 * distinct.shape[1]))
    largest = np.abs(distinct).max()
    if largest > top:
        raise DataError(
            f"SMOTE compares squared distances, so minority values must "
            f"lie within +-{top:.3g}; got {largest:.3g}")
    search = (_screen if distinct.shape[0] ** 2 <= _SCREEN_PAIRS
              else _tree_search)
    group, candidate = search(distinct, k)
    # the k + 1 lowest member rows of each candidate: the others tie with
    # them and rank after them
    taken = np.minimum(counts[candidate], k + 1)
    members = np.argsort(inverse, kind="stable")
    row = members[ranges((np.cumsum(counts) - counts)[candidate], taken)]
    ranked = _nearest(distinct, minority, np.repeat(group, taken), row, k)
    ranked = ranked[inverse]  # each row gets its distinct row's list
    keep = ranked != np.arange(inverse.size)[:, None]
    keep[keep.all(axis=1), k] = False  # self is not on its list
    return ranked[keep].reshape(-1, k)


def _screen(distinct, k):
    """Pairs (queried distinct row, distinct row) that hold every distinct
    row within each query's bound, for every distinct row as the query.
    numpy scores all distinct rows x of a query q by the Gram form
    |x|² - 2 q·x, that is d² less |q|², one BLAS call a block, and keeps
    those within the (k + 1)-th least score plus a slack above the form's
    rounding error. On integer codes the form is exact and the slack below
    1."""
    d, p = distinct.shape
    sq = np.einsum("ij,ij->i", distinct, distinct)
    reach = np.sqrt(sq.max())
    twice = -2.0 * distinct.T
    step = max(1, _BLOCK_CELLS // d)
    kth = min(k, d - 1)
    found = []
    for start in range(0, d, step):
        block = np.arange(start, min(start + step, d))
        scores = distinct[block] @ twice
        scores += sq
        limit = np.partition(scores, kth, axis=1)[:, kth]
        # a score is off by at most (p + 2) units of rounding of
        # (|q| + |x|)², plus underflow: twice that covers the error of both
        # a score and the limit
        bound = (np.sqrt(sq[block]) + reach) ** 2
        slack = 4 * (p + 2) * (np.finfo(float).eps * bound
                               + np.finfo(float).smallest_subnormal)
        pair, candidate = np.nonzero(scores <= (limit + slack)[:, None])
        found.append((block[pair], candidate))
    return tuple(np.concatenate(column) for column in zip(*found))


def _tree_search(distinct, k):
    """The pairs of ``_screen`` from a k-d tree of the distinct rows, within
    each query's (k + 1)-th least distance. Each query asks for 4(k + 1)
    neighbours; a query whose last one is not past that bound may have
    missed a tie, and asks again for twice as many. The tree's distances are
    square roots of its own sums, so the comparison is padded: by a relative
    1e-12 for rounding and by 1e-150 for squares that underflow."""
    from scipy.spatial import cKDTree

    tree = cKDTree(distinct)
    d = distinct.shape[0]
    groups = np.arange(d)
    ask = min(4 * (k + 1), d)
    found = []
    while groups.size:
        # a range of k gives one row per query, also when ask is 1
        dist, idx = tree.query(distinct[groups], k=range(1, ask + 1))
        limit = dist[:, min(k, ask - 1)] * (1 + 1e-12) + 1e-150
        done = dist[:, -1] > limit if ask < d else np.ones(groups.size, bool)
        pair, column = np.nonzero(dist[done] <= limit[done, None])
        found.append((groups[done][pair], idx[done][pair, column]))
        groups = groups[~done]
        ask = min(2 * ask, d)
    return tuple(np.concatenate(column) for column in zip(*found))


def _nearest(distinct, rows, group, row, k):
    """The rule, once per distinct row: rescore each (distinct row, member
    row) pair by its exact squared distance, sort by (distinct row, d²,
    row) and keep the first k + 1 of each distinct row. Each distinct row's
    pairs must hold k + 1 rows and every row that ties the (k + 1)-th
    distance. Returns k + 1 member rows per distinct row, in order."""
    d2 = np.zeros(group.size)
    for value, column in zip(distinct.T, rows.T):  # added in column order
        d2 += (value[group] - column[row]) ** 2
    order = np.lexsort((row, d2, group))
    width = np.bincount(group)
    rank = ranges(np.zeros_like(width), width)
    return row[order][rank <= k].reshape(-1, k + 1)


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

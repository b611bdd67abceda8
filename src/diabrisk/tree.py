"""CART-style binary decision trees and a bootstrap forest with
impurity-based feature importance.

Splits are greedy: candidate thresholds are midpoints between consecutive
distinct sorted values; the accepted split maximizes the weighted Gini
decrease. Ties resolve to the lowest feature index, then the lowest
threshold, so repeated fits are identical. Rows with x[feature] <= threshold
go left.

A fitted tree is a set of parallel arrays indexed by node id (the layout of
scikit-learn's ``Tree``): ``feature`` (-1 at a leaf), ``threshold``,
``left``, ``right``, ``n_samples``, ``n_pos``, ``impurity`` and
``decrease``. Nodes are stored in preorder: node 0 is the root, a split's
left child is the node right after it, and its right child follows the
left subtree. ``fit_tree`` and ``tree_from_text`` both build the arrays from
a preorder list of node rows through ``_from_preorder``.

``fit_tree`` also fits a count table: distinct rows, each with an integer
count >= 1. The split search reads only the rows and positives on each side
of a cut, so the tree equals the fit on the rows repeated that many times,
array for array and float for float. Tree tuning (``grid_search``) fits and
scores each fold's count table; without counts the kernel does no count
arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import as_counts, as_labels, as_matrix
from .errors import DimensionMismatch, EmptyNode, SingleClass


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise ValueError("require min_samples_split >= 2, min_samples_leaf >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")


@dataclass(frozen=True, eq=False)
class DecisionTreeModel:
    """A fitted tree as parallel arrays indexed by node id, in preorder."""
    feature: np.ndarray      # split feature; -1 at a leaf
    threshold: np.ndarray    # NaN at a leaf
    left: np.ndarray         # child node ids; -1 at a leaf
    right: np.ndarray
    n_samples: np.ndarray
    n_pos: np.ndarray
    impurity: np.ndarray     # Gini impurity of the node's training rows
    decrease: np.ndarray     # weighted impurity decrease; 0 at a leaf
    params: TreeParams
    n_features: int
    feature_names: tuple = None


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: int | None = None  # None -> ceil(sqrt(p))
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1")


def gini_impurity(class_counts) -> float:
    n_neg, n_pos = class_counts
    if n_neg < 0 or n_pos < 0:
        raise ValueError("counts must be nonnegative")
    total = n_neg + n_pos
    if total == 0:
        raise EmptyNode("gini of an empty node is undefined")
    f0 = n_neg / total
    f1 = n_pos / total
    return 1.0 - (f0 * f0 + f1 * f1)


def _best_split(X, pos, counts, feature_indices, min_leaf):
    """Best ``(feature, threshold, decrease, parent impurity)`` over the
    candidate features, or None when no valid split exists. ``pos`` holds
    each row's positives (its label, times its count on a count table);
    ``counts`` is None when every row counts once."""
    n = pos.shape[0] if counts is None else int(counts.sum())
    n_pos = int(pos.sum())
    parent = gini_impurity((n - n_pos, n_pos))
    best = None
    best_decrease = -1.0
    for j in feature_indices:
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cum_pos = np.cumsum(pos[order])
        cuts = np.nonzero(xs[:-1] != xs[1:])[0]
        if cuts.size == 0:
            continue
        # rows at or below each cut
        n_left = cuts + 1 if counts is None else np.cumsum(counts[order])[cuts]
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        cuts = cuts[valid]
        n_left = n_left[valid]
        n_right = n_right[valid]
        pos_left = cum_pos[cuts]
        pos_right = n_pos - pos_left
        gini_left = 1.0 - ((pos_left / n_left) ** 2 + ((n_left - pos_left) / n_left) ** 2)
        gini_right = 1.0 - ((pos_right / n_right) ** 2 + ((n_right - pos_right) / n_right) ** 2)
        decrease = parent - (n_left * gini_left + n_right * gini_right) / n
        k = int(np.argmax(decrease))  # first max -> lowest threshold
        if decrease[k] > best_decrease + 1e-15:
            threshold = (xs[cuts[k]] + xs[cuts[k] + 1]) / 2.0
            best_decrease = float(decrease[k])
            best = (j, threshold, best_decrease, parent)
    return best


def fit_tree(X, y, params: TreeParams = TreeParams(), feature_names=None,
             counts=None, _rng=None, _max_features=None) -> DecisionTreeModel:
    """Grow a CART tree. Degenerate inputs yield a single leaf. ``counts``
    (one integer >= 1 per row) fits a count table: the tree is the one
    grown on the rows repeated that many times."""
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    if counts is None:
        pos = labels
        n_total = X.shape[0]
    else:
        counts = as_counts(counts, X.shape[0])
        pos = counts * labels
        n_total = int(counts.sum())
    p = X.shape[1]

    def candidate_features():
        if _max_features is None or _max_features >= p:
            return range(p)
        return sorted(_rng.choice(p, size=_max_features, replace=False))

    rows = []
    # stack of (row indices, depth); processed LIFO with left pushed last, so
    # nodes are appended (and any features sampled) in preorder
    stack = [(np.arange(X.shape[0]), 0)]
    while stack:
        idx, depth = stack.pop()
        size = idx.size if counts is None else int(counts[idx].sum())
        n_pos = int(pos[idx].sum())
        found = None
        pure = n_pos == 0 or n_pos == size
        depth_capped = params.max_depth is not None and depth >= params.max_depth
        if not (pure or depth_capped or size < params.min_samples_split):
            found = _best_split(
                X[idx], pos[idx], None if counts is None else counts[idx],
                candidate_features(), params.min_samples_leaf,
            )
        if found is None:
            rows.append(_leaf_row(size - n_pos, n_pos))
            continue
        j, threshold, decrease, impurity = found
        rows.append((j, threshold, size, n_pos, impurity,
                     (size / n_total) * decrease))
        goes_left = X[idx, j] <= threshold
        stack.append((idx[~goes_left], depth + 1))
        stack.append((idx[goes_left], depth + 1))
    return _from_preorder(rows, params, p, feature_names)


def _leaf_row(n_neg, n_pos):
    return (-1, math.nan, n_neg + n_pos, n_pos, gini_impurity((n_neg, n_pos)), 0.0)


def _from_preorder(rows, params, n_features, feature_names) -> DecisionTreeModel:
    """Model from preorder node rows ``(feature, threshold, n_samples, n_pos,
    impurity, decrease)``. A split's left child is the next row; its right
    child is the row after the left subtree ends."""
    left = np.full(len(rows), -1)
    right = np.full(len(rows), -1)
    waiting = []  # splits whose right child is still to come, innermost last
    for k in range(1, len(rows)):
        if rows[k - 1][0] >= 0:
            left[k - 1] = k
            waiting.append(k - 1)
        else:
            right[waiting.pop()] = k
    feature, threshold, n_samples, n_pos, impurity, decrease = (
        np.array(column) for column in zip(*rows))
    return DecisionTreeModel(
        feature=feature, threshold=threshold, left=left, right=right,
        n_samples=n_samples, n_pos=n_pos, impurity=impurity, decrease=decrease,
        params=params, n_features=n_features,
        feature_names=tuple(feature_names) if feature_names else None,
    )


def predict_tree(model: DecisionTreeModel, X):
    """Route rows to leaves; returns (labels, leaf positive fractions).
    A leaf with as many positives as negatives predicts class 1."""
    X = as_matrix(X, model.n_features)
    leaf = np.zeros(X.shape[0], dtype=int)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        j = model.feature[node]
        if j < 0:
            leaf[idx] = node
        else:
            goes_left = X[idx, j] <= model.threshold[node]
            stack.append((model.left[node], idx[goes_left]))
            stack.append((model.right[node], idx[~goes_left]))
    pos = model.n_pos[leaf]
    neg = model.n_samples[leaf] - pos
    return (pos >= neg).astype(int), pos / (neg + pos)


def fit_forest(X, y, params: ForestParams = ForestParams()) -> tuple:
    """The fitted trees, each grown on its own bootstrap sample of the rows
    with the default (unbounded) ``TreeParams``, each split chosen among
    ``max_features`` randomly drawn columns."""
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    if X.shape[0] < 2:
        raise DimensionMismatch("need at least 2 rows")
    if len(np.unique(labels)) < 2:
        raise SingleClass("both classes are required to fit a forest")
    p = X.shape[1]
    max_features = params.max_features
    if max_features is None:
        max_features = math.ceil(math.sqrt(p))
    max_features = min(max_features, p)
    trees = []
    for t in range(params.n_trees):
        # per-tree stream keyed on (seed, index): scheduling-independent
        rng = np.random.default_rng([params.seed, t])
        sample = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(
            fit_tree(
                X[sample], labels[sample], TreeParams(), _rng=rng,
                _max_features=max_features,
            )
        )
    return tuple(trees)


def predict_forest(trees, X):
    """Mean of per-tree leaf positive fractions; label by 0.5 threshold
    (ties to class 1)."""
    scores = np.mean([predict_tree(t, X)[1] for t in trees], axis=0)
    return (scores >= 0.5).astype(int), scores


def _tree_raw_importance(tree: DecisionTreeModel) -> np.ndarray:
    split = tree.feature >= 0
    return np.bincount(tree.feature[split], weights=tree.decrease[split],
                       minlength=tree.n_features)


def impurity_importance(trees):
    """(values, degenerate): the mean impurity decrease per feature,
    normalized to sum 1, and whether no split occurred anywhere."""
    raw = np.mean([_tree_raw_importance(t) for t in trees], axis=0)
    total = raw.sum()
    if total <= 0.0:
        # forests of bare leaves carry no signal; report uniform, flagged
        n_features = trees[0].n_features
        return np.full(n_features, 1.0 / n_features), True
    return raw / total, False


def tree_to_text(model: DecisionTreeModel) -> str:
    """Preorder dump, one node per line, two-space indent per depth."""
    lines = [
        f"tree max_depth={model.params.max_depth} "
        f"min_samples_split={model.params.min_samples_split} "
        f"min_samples_leaf={model.params.min_samples_leaf} "
        f"n_features={model.n_features}"
    ]
    if model.feature_names:
        lines.append("features " + ",".join(model.feature_names))

    # as Python ints and floats, whose str and repr the format uses
    feature, threshold, left, right, n_samples, n_pos, impurity, decrease = (
        a.tolist() for a in (model.feature, model.threshold, model.left, model.right,
                             model.n_samples, model.n_pos, model.impurity, model.decrease))
    depth = [0] * len(feature)
    for k, j in enumerate(feature):
        pad = "  " * depth[k]
        if j < 0:
            lines.append(f"{pad}leaf neg={n_samples[k] - n_pos[k]} pos={n_pos[k]}")
            continue
        depth[left[k]] = depth[right[k]] = depth[k] + 1
        lines.append(
            f"{pad}split feature={j} threshold={threshold[k]!r} "
            f"impurity={impurity[k]!r} n={n_samples[k]} decrease={decrease[k]!r}"
        )
    return "\n".join(lines) + "\n"


def tree_from_text(text: str) -> DecisionTreeModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = dict(kv.split("=") for kv in lines[0].split()[1:])
    feature_names = None
    body_start = 1
    if len(lines) > 1 and lines[1].startswith("features "):
        feature_names = tuple(lines[1][len("features "):].split(","))
        body_start = 2
    params = TreeParams(
        max_depth=None if head["max_depth"] == "None" else int(head["max_depth"]),
        min_samples_split=int(head["min_samples_split"]),
        min_samples_leaf=int(head["min_samples_leaf"]),
    )

    rows = []
    for line in lines[body_start:]:
        fields = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
        if line.lstrip().startswith("leaf"):
            rows.append(_leaf_row(int(fields["neg"]), int(fields["pos"])))
        else:
            rows.append((int(fields["feature"]), float(fields["threshold"]),
                         int(fields["n"]), 0, float(fields["impurity"]),
                         float(fields["decrease"])))
    model = _from_preorder(rows, params, int(head["n_features"]), feature_names)
    # a split line has no class counts: sum them up from its children, which
    # follow it in preorder
    n_pos = model.n_pos
    for k in np.flatnonzero(model.feature >= 0)[::-1]:
        n_pos[k] = n_pos[model.left[k]] + n_pos[model.right[k]]
    return model

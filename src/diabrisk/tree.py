"""CART-style binary decision trees and a bootstrap forest with
impurity-based feature importance.

Splits are greedy: candidate thresholds are midpoints between consecutive
distinct sorted values; the accepted split maximizes the weighted Gini
decrease. Ties resolve to the lowest feature index, then the lowest
threshold, so repeated fits are identical. Rows with x[feature] <= threshold
go left.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabelVector
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


class Leaf:
    __slots__ = ("class_counts", "predicted_class", "positive_fraction")

    def __init__(self, n_neg: int, n_pos: int):
        self.class_counts = (n_neg, n_pos)
        self.predicted_class = 1 if n_pos >= n_neg else 0  # tie -> class 1
        self.positive_fraction = n_pos / (n_neg + n_pos)


class Internal:
    __slots__ = (
        "feature_index", "threshold", "left", "right",
        "impurity", "n_samples", "weighted_impurity_decrease",
    )

    def __init__(self, feature_index, threshold, impurity, n_samples, decrease):
        self.feature_index = feature_index
        self.threshold = threshold
        self.impurity = impurity
        self.n_samples = n_samples
        self.weighted_impurity_decrease = decrease
        self.left = None
        self.right = None


@dataclass(frozen=True)
class DecisionTreeModel:
    root: object
    params: TreeParams
    n_features: int
    feature_names: tuple = None


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: int | None = None  # None -> ceil(sqrt(p))
    bootstrap: bool = True
    seed: int = 0
    tree: TreeParams = field(default_factory=TreeParams)

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    params: ForestParams
    n_features: int
    feature_names: tuple = None


@dataclass(frozen=True)
class ImportanceVector:
    values: np.ndarray
    degenerate: bool = False  # True when no split occurred anywhere


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


def _best_split(X, y, feature_indices, min_leaf):
    """Best (feature, threshold, decrease, left_mask) over the candidates,
    or None when no valid split exists."""
    n = y.shape[0]
    n_pos = int(y.sum())
    parent = gini_impurity((n - n_pos, n_pos))
    best = None
    best_decrease = -1.0
    for j in feature_indices:
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cum_pos = np.cumsum(y[order])
        cuts = np.nonzero(xs[:-1] != xs[1:])[0]
        if cuts.size == 0:
            continue
        n_left = cuts + 1
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


def fit_tree(X, y, params: TreeParams = TreeParams(),
             feature_names=None, _rng=None, _max_features=None) -> DecisionTreeModel:
    """Grow a CART tree. Degenerate inputs yield a single leaf."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-D")
    labels = y.values if isinstance(y, LabelVector) else np.asarray(y, dtype=int)
    if labels.shape[0] != X.shape[0]:
        raise DimensionMismatch("X and y disagree on row count")
    n_total = X.shape[0]
    p = X.shape[1]

    def make_leaf(idx):
        pos = int(labels[idx].sum())
        return Leaf(idx.size - pos, pos)

    def candidate_features():
        if _max_features is None or _max_features >= p:
            return range(p)
        return sorted(_rng.choice(p, size=_max_features, replace=False))

    root_holder = [None]
    # stack of (row indices, depth, parent node, is_left); processed LIFO with
    # left pushed last so splits (and any feature sampling) happen in DFS order
    stack = [(np.arange(n_total), 0, root_holder, 0)]
    while stack:
        idx, depth, parent, side = stack.pop()
        pos = int(labels[idx].sum())
        node = None
        pure = pos == 0 or pos == idx.size
        depth_capped = params.max_depth is not None and depth >= params.max_depth
        if pure or depth_capped or idx.size < params.min_samples_split:
            node = make_leaf(idx)
        else:
            found = _best_split(
                X[idx], labels[idx], candidate_features(), params.min_samples_leaf
            )
            if found is None:
                node = make_leaf(idx)
            else:
                j, threshold, decrease, impurity = found
                node = Internal(
                    j, threshold, impurity, idx.size,
                    (idx.size / n_total) * decrease,
                )
                left_idx = idx[X[idx, j] <= threshold]
                right_idx = idx[X[idx, j] > threshold]
                stack.append((right_idx, depth + 1, node, 1))
                stack.append((left_idx, depth + 1, node, 0))
        if isinstance(parent, list):
            parent[0] = node
        elif side == 0:
            parent.left = node
        else:
            parent.right = node

    return DecisionTreeModel(
        root=root_holder[0], params=params, n_features=p,
        feature_names=tuple(feature_names) if feature_names else None,
    )


def predict_tree(model: DecisionTreeModel, X):
    """Route rows to leaves; returns (labels, leaf positive fractions)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch("X column count does not match the tree")
    n = X.shape[0]
    labels = np.zeros(n, dtype=int)
    scores = np.zeros(n)
    stack = [(model.root, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(node, Leaf):
            labels[idx] = node.predicted_class
            scores[idx] = node.positive_fraction
        else:
            left = X[idx, node.feature_index] <= node.threshold
            stack.append((node.left, idx[left]))
            stack.append((node.right, idx[~left]))
    return LabelVector(labels), scores


def fit_forest(X, y, params: ForestParams = ForestParams(),
               feature_names=None) -> ForestModel:
    X = np.asarray(X, dtype=float)
    labels = y.values if isinstance(y, LabelVector) else np.asarray(y, dtype=int)
    if X.shape[0] < 2:
        raise DimensionMismatch("need at least 2 rows")
    if len(np.unique(labels)) < 2:
        raise SingleClass("both classes are required to fit a forest")
    p = X.shape[1]
    max_features = params.max_features or math.ceil(math.sqrt(p))
    max_features = min(max_features, p)
    trees = []
    for t in range(params.n_trees):
        # per-tree stream keyed on (seed, index): scheduling-independent
        rng = np.random.default_rng([params.seed, t])
        if params.bootstrap:
            sample = rng.integers(0, X.shape[0], size=X.shape[0])
            Xt, yt = X[sample], labels[sample]
        else:
            Xt, yt = X, labels
        trees.append(
            fit_tree(
                Xt, yt, params.tree, feature_names=feature_names,
                _rng=rng, _max_features=max_features,
            )
        )
    return ForestModel(
        trees=tuple(trees), params=params, n_features=p,
        feature_names=tuple(feature_names) if feature_names else None,
    )


def predict_forest(model: ForestModel, X):
    """Mean of per-tree leaf positive fractions; label by 0.5 threshold
    (ties to class 1)."""
    scores = np.mean(
        [predict_tree(t, X)[1] for t in model.trees], axis=0
    )
    return LabelVector((scores >= 0.5).astype(int)), scores


def _tree_raw_importance(tree: DecisionTreeModel) -> np.ndarray:
    raw = np.zeros(tree.n_features)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            raw[node.feature_index] += node.weighted_impurity_decrease
            stack.append(node.left)
            stack.append(node.right)
    return raw


def impurity_importance(forest: ForestModel) -> ImportanceVector:
    raw = np.mean([_tree_raw_importance(t) for t in forest.trees], axis=0)
    total = raw.sum()
    if total <= 0.0:
        # forests of bare leaves carry no signal; report uniform, flagged
        return ImportanceVector(np.full(forest.n_features, 1.0 / forest.n_features),
                                degenerate=True)
    return ImportanceVector(raw / total)


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

    # explicit stack so very deep trees do not hit the recursion limit
    out = []
    stack = [(model.root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node, Leaf):
            neg, pos = node.class_counts
            out.append(f"{pad}leaf neg={neg} pos={pos}")
        else:
            out.append(
                f"{pad}split feature={node.feature_index} "
                f"threshold={float(node.threshold)!r} "
                f"impurity={float(node.impurity)!r} "
                f"n={node.n_samples} "
                f"decrease={float(node.weighted_impurity_decrease)!r}"
            )
            stack.append((node.right, depth + 1))
            stack.append((node.left, depth + 1))
    return "\n".join(lines + out) + "\n"


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

    # preorder, as tree_to_text writes it: a stack of the child slots still
    # to fill, the next one on top
    root = None
    slots = []
    for line in lines[body_start:]:
        fields = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
        if line.lstrip().startswith("leaf"):
            node = Leaf(int(fields["neg"]), int(fields["pos"]))
        else:
            node = Internal(
                int(fields["feature"]), float(fields["threshold"]),
                float(fields["impurity"]), int(fields["n"]),
                float(fields["decrease"]),
            )
        if root is None:
            root = node
        else:
            parent, side = slots.pop()
            setattr(parent, side, node)
        if isinstance(node, Internal):
            slots.append((node, "right"))
            slots.append((node, "left"))
    return DecisionTreeModel(
        root=root, params=params, n_features=int(head["n_features"]),
        feature_names=feature_names,
    )

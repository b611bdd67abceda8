"""CART-style binary decision trees and a bootstrap forest with
impurity-based feature importance.

Splits are greedy: candidate thresholds are midpoints between consecutive
distinct sorted values; the accepted split maximizes the weighted Gini
decrease. Ties resolve to the lowest feature index, then the lowest
threshold, so repeated fits are identical. Rows with x[feature] <= threshold
go left.

The grower sorts each column once per tree (after SPRINT, Shafer, Agrawal &
Mehta 1996). Every node holds its rows in each feature's sorted order, as a
(features, rows) matrix of int32 row ids; a split partitions every row of
that matrix stably, so the children's rows stay sorted. A node reads its
candidate features' sorted values, cumulative positives (and counts) and
evaluates the Gini decrease only at real cuts, where the sorted value
changes. Nodes are grown depth first in preorder, so a forest tree draws its
nodes' ``max_features`` candidates from its stream in the same order as a
per-node search would.

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

``fit_forest`` fits its trees independently (Breiman 2001), in a pool of
forked processes: one per CPU this process may run on
(``os.sched_getaffinity``), at most one per tree. With one worker, or where
``fork`` is unavailable, it fits them one after another in the calling
process. Each tree has its own random stream, so the forest is the same
either way. On Linux the workers are killed with their parent.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dataset import as_counts, as_labels, as_matrix, as_names
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


def _best_split(Xt, pos, counts, features, sub, min_leaf, n, n_pos):
    """Best split of a node, or None when no valid split exists:
    ``(feature, threshold, decrease, parent impurity, left rows, left
    count, left positives)``. ``features`` is a column of candidate feature
    indices, ascending, and ``sub`` the node's row ids in each candidate's
    sorted order. ``pos`` holds each row's positives (its label, times its
    count on a count table); ``counts`` is None when every row counts once.
    The decrease is evaluated only at real cuts, where the sorted value
    changes, with the arithmetic of a per-feature scan."""
    parent = gini_impurity((n - n_pos, n_pos))
    xs = Xt[features, sub]
    cum_pos = pos[sub].cumsum(axis=1)
    cut = xs[:, :-1] != xs[:, 1:]
    if counts is None:
        if min_leaf > 1:
            # c + 1 rows at or below cut c, so min_leaf bounds c to a range
            cut[:, :min_leaf - 1] = False
            cut[:, max(n - min_leaf, 0):] = False
    else:
        cum_n = counts[sub].cumsum(axis=1)
        if min_leaf > 1:
            below = cum_n[:, :-1]
            cut &= (below >= min_leaf) & (below <= n - min_leaf)
    at_f, at_c = cut.nonzero()
    if at_c.size == 0:
        return None
    n_left = at_c + 1 if counts is None else cum_n[at_f, at_c]
    n_right = n - n_left
    pos_left = cum_pos[at_f, at_c]
    pos_right = n_pos - pos_left
    gini_left = 1.0 - ((pos_left / n_left) ** 2 + ((n_left - pos_left) / n_left) ** 2)
    gini_right = 1.0 - ((pos_right / n_right) ** 2 + ((n_right - pos_right) / n_right) ** 2)
    decrease = parent - (n_left * gini_left + n_right * gini_right) / n
    # each feature's cuts are one run of decrease; the runs are scanned in
    # feature order: a later feature must beat the best so far by the
    # margin, and within the chosen one the first max (lowest threshold) wins
    k = features.shape[0]
    bounds = [0, at_c.size] if k == 1 else at_f.searchsorted(np.arange(k + 1)).tolist()
    runs = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    tops = np.maximum.reduceat(decrease, [a for a, _ in runs]).tolist()
    best = None
    best_decrease = -1.0
    for run, top in zip(runs, tops):
        if top > best_decrease + 1e-15:
            best, best_decrease = run, top
    if best is None:
        return None
    a, b = best
    i = a + int(decrease[a:b].argmax())
    f, c = int(at_f[i]), int(at_c[i])
    lower, upper = xs[f, c], xs[f, c + 1]
    threshold = (lower + upper) / 2.0
    if not threshold < upper:
        # the midpoint of two adjacent floats can round up to the upper one,
        # which would send the whole node left
        threshold = lower
    return (features[f, 0], threshold, best_decrease, parent, c + 1,
            c + 1 if counts is None else int(cum_n[f, c]), int(cum_pos[f, c]))


def fit_tree(X, y, params: TreeParams = TreeParams(), feature_names=None,
             counts=None, _rng=None, _max_features=None) -> DecisionTreeModel:
    """Grow a CART tree. Degenerate inputs yield a single leaf. ``counts``
    (one integer >= 1 per row) fits a count table: the tree is the one
    grown on the rows repeated that many times."""
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    feature_names = as_names(feature_names, X.shape[1])
    if counts is not None:
        counts = as_counts(counts, X.shape[0])
    return _grow(np.ascontiguousarray(X.T), labels, counts, params,
                 feature_names, _rng, _max_features)


def _grow(Xt, labels, counts, params, feature_names=None, rng=None,
          max_features=None) -> DecisionTreeModel:
    """The tree of ``fit_tree`` on the transposed matrix ``Xt`` (one row per
    feature), grown depth first in preorder."""
    p, n_rows = Xt.shape
    pos = labels if counts is None else counts * labels
    n_total = n_rows if counts is None else int(counts.sum())
    draw = max_features is not None and max_features < p

    # each feature's row ids in its sorted order, ties by row id; a node keeps
    # the (p, rows) slice of these lists that holds its own rows
    ids = np.empty((p, n_rows), dtype=np.int32)
    for j in range(p):
        ids[j] = np.argsort(Xt[j], kind="stable")
    every = np.arange(p)[:, None]
    goes_left = np.zeros(n_rows, dtype=bool)

    rows = []
    # stack of (sorted row ids, rows counted, positives, depth); processed
    # LIFO with left pushed last, so nodes are appended (and any features
    # drawn) in preorder
    stack = [(ids, n_total, int(pos.sum()), 0)]
    while stack:
        ids, size, n_pos, depth = stack.pop()
        found = None
        pure = n_pos == 0 or n_pos == size
        depth_capped = params.max_depth is not None and depth >= params.max_depth
        if not (pure or depth_capped or size < params.min_samples_split):
            if draw:
                features = np.sort(rng.choice(p, size=max_features, replace=False))
                features, sub = features[:, None], ids[features]
            else:
                features, sub = every, ids
            found = _best_split(Xt, pos, counts, features, sub,
                                params.min_samples_leaf, size, n_pos)
        if found is None:
            rows.append(_leaf_row(size - n_pos, n_pos))
            continue
        j, threshold, decrease, impurity, m_left, n_left, pos_left = found
        rows.append((j, threshold, size, n_pos, impurity,
                     (size / n_total) * decrease))
        if p == 1:
            left, right = ids[:, :m_left], ids[:, m_left:]
        else:
            # one stable partition of every feature's list
            going = ids[j, :m_left]
            goes_left[going] = True
            keep = goes_left[ids]
            goes_left[going] = False
            left = ids[keep].reshape(p, m_left)
            right = ids[~keep].reshape(p, -1)
        stack.append((right, size - n_left, n_pos - pos_left, depth + 1))
        stack.append((left, n_left, pos_left, depth + 1))
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
    ``max_features`` randomly drawn columns. They are fitted in forked
    processes, one per available CPU, or in this process when there is one
    CPU, one tree or no ``fork``; the trees are the same either way."""
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
    forest = (X, labels, params.seed, min(max_features, p))
    workers = _forest_workers(params.n_trees)
    if workers == 1:
        return tuple(_fit_forest_tree(t, forest) for t in range(params.n_trees))
    # imported here, so that importing the package does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # forked workers inherit the forest through the initializer's arguments,
    # unpickled; only tree indices and fitted trees cross between processes.
    # With fork, the pool forks all its workers before it starts a thread.
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_forest_worker,
            initargs=(os.getpid(), forest)) as pool:
        return tuple(pool.map(_fit_forest_tree, range(params.n_trees)))


def _forest_workers(n_trees: int) -> int:
    """Processes to fit ``n_trees`` trees in: one per CPU this process may run
    on, at most one per tree, and 1 (the calling process) without ``fork``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_trees)


# (X, labels, seed, max_features) of the forest a pool worker fits; set
# only in worker processes
_worker_forest = None


def _start_forest_worker(parent, forest):
    global _worker_forest
    _worker_forest = forest
    # a worker waits on its task queue while the queue's pipe is open, and
    # every worker holds it open: a parent killed mid-forest would leave its
    # workers waiting forever. On Linux they are killed with it.
    try:
        import ctypes
        import signal
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent:  # the parent died before the prctl
        os._exit(1)


def _fit_forest_tree(t, forest=None):
    """Tree ``t`` of a forest (in a pool worker, of the worker's forest). Its
    stream ``default_rng([seed, t])`` draws the bootstrap rows and then each
    node's candidate features in preorder, so the tree does not depend on
    the process or the order it is fitted in."""
    X, labels, seed, max_features = _worker_forest if forest is None else forest
    rng = np.random.default_rng([seed, t])
    sample = rng.integers(0, X.shape[0], size=X.shape[0])
    # the bootstrap rows go straight into the grower's transposed layout
    return _grow(np.take(X.T, sample, axis=1), labels[sample], None,
                 TreeParams(), rng=rng, max_features=max_features)


def predict_forest(trees, X):
    """Mean of per-tree leaf positive fractions; label by 0.5 threshold
    (ties to class 1)."""
    _require_trees(trees)
    scores = np.mean([predict_tree(t, X)[1] for t in trees], axis=0)
    return (scores >= 0.5).astype(int), scores


def _require_trees(trees):
    if len(trees) == 0:
        raise DimensionMismatch("a forest needs at least one tree")


def _tree_raw_importance(tree: DecisionTreeModel) -> np.ndarray:
    split = tree.feature >= 0
    return np.bincount(tree.feature[split], weights=tree.decrease[split],
                       minlength=tree.n_features)


def impurity_importance(trees):
    """(values, degenerate): the mean impurity decrease per feature,
    normalized to sum 1, and whether no split occurred anywhere."""
    _require_trees(trees)
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

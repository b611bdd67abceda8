"""CART-style binary decision trees and a bootstrap forest with
impurity-based feature importance.

Splits are greedy: candidate thresholds are midpoints between consecutive
distinct sorted values; the accepted split maximizes the weighted Gini
decrease. Ties resolve to the lowest feature index, then the lowest
threshold, so repeated fits are identical. Rows with x[feature] <= threshold
go left.

A tree fits a count table: distinct rows, each with an integer count >= 1
(one each when ``fit_tree`` is given no counts). The split search reads
only the rows and positives on each side of a cut, so the tree equals the
fit on the rows repeated that many times, array for array and float for
float. Tree tuning (``grid_search``) fits and scores each fold's count
table, and each forest tree grows on the count table of its bootstrap
sample.

``max_depth`` and ``min_samples_split`` only decide which nodes are
searched (``size >= min_samples_split`` and depth < ``max_depth``), not
what a searched node finds, so the trees they give are nested subtrees of
one grown tree (Breiman, Friedman, Olshen & Stone, *CART*, 1984, ch. 3);
``min_samples_leaf`` changes the splits themselves. ``stop_early`` derives
the tree of tighter stopping rules from a tree grown with looser ones,
equal to its own fit array for array, and tree tuning grows one tree per
fold and ``min_samples_leaf``.

Each column is sorted once per tree (after SPRINT, Shafer, Agrawal & Mehta
1996), and the tree grows a level at a time (``_grow_levels``), the
depth-wise order of presorted growers. The nodes of a depth hold their
rows in each feature's sorted order as int32 row ids, and a fixed number
of numpy calls per depth, whatever its number of nodes, searches them all
and partitions every feature's lists stably into the next depth's, so the
children's rows stay sorted. A node reads its candidate features' sorted
values, cumulative positives and counts and evaluates the Gini decrease
only at real cuts, where the sorted value changes. ``fit_tree`` (the
income tree and tuning) searches every feature of every node. A forest
tree chooses each split among ``max_features`` drawn features: a level's
nodes draw from the tree's stream together, in level order (the left
children of the level above, then its right children).

A fitted tree is a set of parallel arrays indexed by node id (the layout of
scikit-learn's ``Tree``): ``feature`` (-1 at a leaf), ``threshold``,
``left``, ``right``, ``n_samples``, ``n_pos``, ``impurity`` and
``decrease``. Nodes are stored in preorder: node 0 is the root, a split's
left child is the node right after it, and its right child follows the
left subtree. The grower renumbers its levels into preorder
(``_from_levels``).

``fit_forest`` fits its trees independently (Breiman 2001), each tree one
job of a ``FitPool``: the caller's, or one of its own with one forked
process per CPU this process may run on, at most one per tree, or the
calling process with one worker or no ``fork``. Each tree has its own
random stream, so the forest is the same either way. Only a tree's
importance row leaves the process that grew it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import as_counts, as_labels, as_matrix, as_names
from .errors import BadParams, DimensionMismatch, EmptyNode, SingleClass
from .pool import FitPool


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise BadParams("require min_samples_split >= 2, min_samples_leaf >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise BadParams("max_depth must be >= 1 when set")


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
            raise BadParams("n_trees must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise BadParams("max_features must be >= 1")


def gini_impurity(class_counts) -> float:
    n_neg, n_pos = class_counts
    if n_neg < 0 or n_pos < 0:
        raise BadParams("counts must be nonnegative")
    total = n_neg + n_pos
    if total == 0:
        raise EmptyNode("gini of an empty node is undefined")
    f0 = n_neg / total
    f1 = n_pos / total
    return 1.0 - (f0 * f0 + f1 * f1)


def fit_tree(X, y, params: TreeParams = TreeParams(), feature_names=None,
             counts=None) -> DecisionTreeModel:
    """Grow a CART tree. Degenerate inputs yield a single leaf. ``counts``
    (one integer >= 1 per row, default 1) fits a count table: the tree is
    the one grown on the rows repeated that many times."""
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    feature_names = as_names(feature_names, X.shape[1])
    counts = as_counts(counts, X.shape[0])
    if X.shape[0] == 0:
        raise EmptyNode("a tree needs at least one row")
    return _grow_levels(np.ascontiguousarray(X.T), labels, counts, params,
                        None, X.shape[1], feature_names)


def _grow_levels(Xt, labels, counts, params, rng, max_features,
                 feature_names=None) -> DecisionTreeModel:
    """The tree on the transposed matrix ``Xt`` (one row per feature) and
    the rows' ``counts``, each split chosen among ``max_features`` features
    drawn from ``rng`` (every feature, with no draw, when ``max_features``
    is p), grown a level at a time. The nodes of a level hold contiguous
    segments of every feature's sorted list of row ids, in level order: the
    left children of the level above, then its right children. Each level
    draws the candidates of all its searched nodes at once, in level order:
    the ascending first ``max_features`` of each row of the argsort of
    ``rng.random``. Then one pass searches them (``_level_splits``),
    partitions every feature's list into [left children | right children]
    and drops the rows of the nodes that became leaves."""
    p = Xt.shape[0]
    pos = counts * labels
    n_total = int(counts.sum())
    # each feature's row ids in its sorted order, ties by row id
    ids = np.empty(Xt.shape, dtype=np.int32)
    for row, out in zip(Xt, ids):
        out[:] = np.argsort(row, kind="stable")
    side = np.empty(Xt.shape[1], dtype=np.int8)  # 0 left, 1 right, 2 dropped
    # the level's nodes: first column in ids, distinct rows, counted rows and
    # positives
    start = np.zeros(1, dtype=np.int64)
    width = np.array([Xt.shape[1]])
    size = np.array([n_total])
    n_pos = np.array([int(pos.sum())])
    levels = []
    while True:
        f0 = (size - n_pos) / size
        f1 = n_pos / size
        impurity = 1.0 - (f0 * f0 + f1 * f1)
        searched = ((n_pos > 0) & (n_pos < size)
                    & (size >= params.min_samples_split)).nonzero()[0]
        if params.max_depth is not None and len(levels) >= params.max_depth:
            searched = searched[:0]
        if max_features < p:
            candidates = np.sort(np.argsort(rng.random((searched.size, p)), axis=1)
                                 [:, :max_features], axis=1)
        else:
            candidates = np.arange(p)[None].repeat(searched.size, axis=0)
        splits = _level_splits(
            Xt, pos, counts, ids, start[searched], width[searched],
            size[searched], n_pos[searched], impurity[searched], candidates,
            params.min_samples_leaf)
        found = splits[0] >= 0
        split = searched[found]
        j, cut, best, m_left, n_left, pos_left = (a[found] for a in splits)
        feature = np.full(size.size, -1)
        feature[split] = j
        threshold = np.full(size.size, np.nan)
        threshold[split] = cut
        decrease = np.zeros(size.size)
        decrease[split] = (size[split] / n_total) * best
        levels.append((feature, threshold, size, n_pos, impurity, decrease, split))
        if split.size == 0:
            return _from_levels(levels, params, p, feature_names)

        side[ids[0]] = np.where(feature >= 0, 1, 2).astype(np.int8).repeat(width)
        side[ids[j.repeat(m_left), _ranges(start[split], m_left)]] = 0
        width = np.concatenate((m_left, width[split] - m_left))
        ids = _partition(ids, side, int(m_left.sum()), int(width.sum()))
        start = width.cumsum() - width
        size = np.concatenate((n_left, size[split] - n_left))
        n_pos = np.concatenate((pos_left, n_pos[split] - pos_left))


def _partition(ids, side, n_left, n_kept):
    """Every feature's list of ``ids``, stably partitioned into its
    ``n_left`` rows of side 0, then its rows of side 1, ``n_kept`` rows in
    all; rows of side 2 are dropped. It goes one feature at a time, so that
    it holds no temporary of the matrix's size. Take and compress on each
    list run about three times faster than fancy and boolean indexing of the
    matrix (1.7-2.1 against 6.2 ms on 21 lists of 13,500 rows)."""
    parted = np.empty((ids.shape[0], n_kept), dtype=ids.dtype)
    for row, out in zip(ids, parted):
        key = side.take(row)
        row.compress(key == 0, out=out[:n_left])
        row.compress(key == 1, out=out[n_left:])
    return parted


def _ranges(starts, lengths):
    """``starts[k] + arange(lengths[k])`` for every k, concatenated."""
    first = lengths.cumsum() - lengths
    return np.arange(int(lengths.sum())) + (starts - first).repeat(lengths)


def _level_splits(Xt, pos, counts, ids, start, width, size, n_pos, parent,
                  candidates, min_leaf):
    """The best split of each of K nodes of a level, over the node's row of
    ``candidates`` (ascending feature indices): ``(feature, threshold,
    decrease, left rows, left count, left positives)``, with feature -1 where
    a node has no valid split. Node k holds columns ``start[k]:start[k] +
    width[k]`` of ``ids``, ``size[k]`` counted rows, ``n_pos[k]`` positives
    and impurity ``parent[k]``. Each candidate slot is one pass over the
    nodes' rows in that slot's features, evaluating the decrease only at
    real cuts, with the arithmetic of a per-feature scan."""
    K = width.size
    feature = np.full(K, -1)
    best = np.full(K, -1.0)
    lower = np.zeros(K)
    upper = np.zeros(K)
    m_left = np.zeros(K, dtype=np.int64)
    n_left = np.zeros(K, dtype=np.int64)
    pos_left = np.zeros(K, dtype=np.int64)
    first = width.cumsum() - width  # each node's first position in a pass
    node = np.arange(K).repeat(width)
    column = _ranges(start, width)
    inside = node[:-1] == node[1:]  # a cut lies inside one node
    for slot in range(candidates.shape[1]):
        f = candidates[:, slot].repeat(width)
        rid = ids.take(f * ids.shape[1] + column)
        xs = Xt.take(f * Xt.shape[1] + rid)
        n_at = counts.take(rid)
        pos_at = pos.take(rid)
        cum_n = n_at.cumsum()
        cum_pos = pos_at.cumsum()
        # the running sums before each node's first row
        n_before = cum_n[first] - n_at[first]
        pos_before = cum_pos[first] - pos_at[first]
        cut = inside & (xs[:-1] != xs[1:])
        if min_leaf > 1:
            below = cum_n[:-1] - n_before.repeat(width)[:-1]
            cut &= (below >= min_leaf) & (below <= size[node[:-1]] - min_leaf)
        at = cut.nonzero()[0]
        if at.size == 0:
            continue
        k = node[at]
        n = size[k]
        nl = cum_n[at] - n_before[k]
        nr = n - nl
        pl = cum_pos[at] - pos_before[k]
        pr = n_pos[k] - pl
        gini_left = 1.0 - ((pl / nl) ** 2 + ((nl - pl) / nl) ** 2)
        gini_right = 1.0 - ((pr / nr) ** 2 + ((nr - pr) / nr) ** 2)
        decrease = parent[k] - (nl * gini_left + nr * gini_right) / n
        # each node's cuts are one run; its first max wins within the slot
        new = np.empty(at.size, dtype=bool)
        new[0] = True
        np.not_equal(k[1:], k[:-1], out=new[1:])
        runs = new.nonzero()[0]
        top = np.maximum.reduceat(decrease, runs)
        tops = (decrease == top[new.cumsum() - 1]).nonzero()[0]
        i = tops[tops.searchsorted(runs)]
        # slots run in feature order: a later feature must beat the best so
        # far by the margin
        nodes = k[runs]
        wins = top > best[nodes] + 1e-15
        won, i = nodes[wins], i[wins]
        c = at[i]
        feature[won] = candidates[won, slot]
        best[won] = top[wins]
        lower[won] = xs[c]
        upper[won] = xs[c + 1]
        m_left[won] = c - first[won] + 1
        n_left[won] = nl[i]
        pos_left[won] = pl[i]
    threshold = (lower + upper) / 2.0
    # the midpoint of two adjacent floats can round up to the upper one,
    # which would send the whole node left
    threshold = np.where(threshold < upper, threshold, lower)
    return feature, threshold, best, m_left, n_left, pos_left


def _from_levels(levels, params, n_features, feature_names) -> DecisionTreeModel:
    """Model from per-level node arrays ``(feature, threshold, n_samples,
    n_pos, impurity, decrease, split)``, renumbered into preorder. ``split``
    lists a level's split nodes in order: the left child of the i-th is node
    i of the next level, its right child node ``len(split) + i``."""
    subtree = [None] * len(levels)  # each node's number of nodes under it
    for d in reversed(range(len(levels))):
        *_, split = levels[d]
        subtree[d] = np.ones(levels[d][0].size, dtype=np.int64)
        if split.size:
            below = subtree[d + 1]
            subtree[d][split] += below[:split.size] + below[split.size:]
    n_nodes = int(subtree[0][0])
    columns = [np.empty(n_nodes, dtype=a.dtype) for a in levels[0][:-1]]
    left = np.full(n_nodes, -1)
    right = np.full(n_nodes, -1)
    at = np.zeros(1, dtype=np.int64)  # the preorder ids of a level's nodes
    for d, (*arrays, split) in enumerate(levels):
        for column, values in zip(columns, arrays):
            column[at] = values
        if split.size:
            parents = at[split]
            left[parents] = parents + 1
            right[parents] = parents + 1 + subtree[d + 1][:split.size]
            at = np.concatenate((left[parents], right[parents]))
    feature, threshold, n_samples, n_pos, impurity, decrease = columns
    return DecisionTreeModel(
        feature=feature, threshold=threshold, left=left, right=right,
        n_samples=n_samples, n_pos=n_pos, impurity=impurity, decrease=decrease,
        params=params, n_features=n_features,
        feature_names=tuple(feature_names) if feature_names else None)


def stop_early(model: DecisionTreeModel, params: TreeParams) -> DecisionTreeModel:
    """The tree ``fit_tree`` grows with ``params``, derived from ``model``:
    a tree grown on the same table with the same ``min_samples_leaf`` and
    stopping rules no stricter than ``params``' (no or a deeper
    ``max_depth``, a ``min_samples_split`` no larger). Every split of
    ``model`` at depth ``max_depth`` or below, or on fewer than
    ``min_samples_split`` counted rows, becomes a leaf that keeps its counts
    and impurity, and its subtree is dropped; the nodes left keep their
    preorder."""
    grows = (model.feature >= 0) & (model.n_samples >= params.min_samples_split)
    kept = np.zeros(model.feature.size, dtype=bool)
    level = np.zeros(1, dtype=np.int64)  # a depth's kept nodes
    depth = 0
    while level.size:
        kept[level] = True
        if depth == params.max_depth:
            break
        level = level[grows[level]]
        level = np.concatenate((model.left[level], model.right[level]))
        depth += 1
    split = grows & kept
    split[split] = kept[model.left[split]]  # not at depth max_depth
    ids = kept.cumsum() - 1  # the kept nodes' new ids
    return DecisionTreeModel(
        feature=np.where(split, model.feature, -1)[kept],
        threshold=np.where(split, model.threshold, np.nan)[kept],
        left=np.where(split, ids[model.left], -1)[kept],
        right=np.where(split, ids[model.right], -1)[kept],
        n_samples=model.n_samples[kept], n_pos=model.n_pos[kept],
        impurity=model.impurity[kept],
        decrease=np.where(split, model.decrease, 0.0)[kept],
        params=params, n_features=model.n_features,
        feature_names=model.feature_names)


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


def fit_forest(X, y, params: ForestParams = ForestParams(),
               pool: FitPool | None = None) -> np.ndarray:
    """Each tree's raw impurity importance, an ``(n_trees, p)`` float array.
    Each tree grows on its own bootstrap sample of the rows with the default
    (unbounded) ``TreeParams``, each split chosen among ``max_features``
    randomly drawn columns. The trees are jobs of ``pool``, a ``FitPool``
    opened on this X and y, or else of a pool of their own: in one forked
    process per available CPU, or in this process with one CPU, one tree or
    no ``fork``; the same either way."""
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    if X.shape[0] < 2:
        raise DimensionMismatch("need at least 2 rows")
    if not 0 < labels.sum() < labels.size:
        raise SingleClass("both classes are required to fit a forest")
    if pool is None:
        with FitPool(X, labels, params.n_trees) as own:
            return fit_forest(X, labels, params, own)
    if pool.X is not X or not np.array_equal(pool.labels, labels):
        raise BadParams("the pool holds another table than the forest's")
    p = X.shape[1]
    max_features = min(params.max_features or math.ceil(math.sqrt(p)), p)
    jobs = [pool.submit(_forest_tree_importance, t, params.seed, max_features)
            for t in range(params.n_trees)]
    return np.array([job.result() for job in jobs])


def _fit_forest_tree(t, forest):
    """Tree ``t`` of the forest ``(X, labels, seed, max_features)``. Its
    stream ``default_rng([seed, t])`` draws the bootstrap rows and then, a
    level at a time, the candidate features of the level's nodes, so the
    tree does not depend on the process or the order it is fitted in. The
    tree grows on the bootstrap's count table (each drawn row once, with its
    number of draws) by the level-wise grower, which takes its deep levels
    of many small nodes in a few numpy calls each."""
    X, labels, seed, max_features = forest
    rng = np.random.default_rng([seed, t])
    n = X.shape[0]
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
    held = np.flatnonzero(counts)
    # the drawn rows go straight into the grower's transposed layout
    return _grow_levels(np.take(X.T, held, axis=1), labels[held], counts[held],
                        TreeParams(), rng, max_features)


def _forest_tree_importance(X, labels, t, seed, max_features) -> np.ndarray:
    """The raw importance of tree ``t`` of a forest (``_fit_forest_tree``);
    a ``FitPool`` job."""
    return _tree_raw_importance(
        _fit_forest_tree(t, (X, labels, seed, max_features)))


def _tree_raw_importance(tree: DecisionTreeModel) -> np.ndarray:
    split = tree.feature >= 0
    return np.bincount(tree.feature[split], weights=tree.decrease[split],
                       minlength=tree.n_features)


def impurity_importance(rows):
    """(values, degenerate): the mean of ``fit_forest``'s importance rows,
    normalized to sum 1, and whether no split occurred anywhere."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or len(rows) == 0:
        raise DimensionMismatch(f"need at least one tree, one row each: {rows.shape}")
    raw = rows.mean(axis=0)
    total = raw.sum()
    if total <= 0.0:
        # forests of bare leaves carry no signal; report uniform, flagged
        return np.full(rows.shape[1], 1.0 / rows.shape[1]), True
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

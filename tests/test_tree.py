import faulthandler
import hashlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import REPO_ROOT
from diabrisk import tree
from diabrisk.dataset import as_counts, as_labels, as_matrix
from diabrisk.errors import (
    BadParams, DataError, DimensionMismatch, EmptyNode, SingleClass,
)
from diabrisk.gridsearch import DEFAULT_TREE_GRID
from diabrisk.tree import (
    DecisionTreeModel,
    ForestParams,
    TreeParams,
    fit_forest,
    fit_tree,
    gini_impurity,
    impurity_importance,
    predict_forest,
    predict_tree,
    tree_from_text,
    tree_to_text,
    _from_preorder,
    _leaf_row,
    _tree_raw_importance,
)


def brute_force_best_threshold(x, y, min_leaf=1):
    """Exhaustive scan over all midpoint thresholds on a single feature;
    returns (best weighted-gini decrease, best threshold)."""
    n = len(y)
    parent = gini_impurity((n - y.sum(), y.sum()))
    values = np.unique(x)
    best = (0.0, None)
    for a, b in zip(values, values[1:]):
        thr = (a + b) / 2
        left = y[x <= thr]
        right = y[x > thr]
        if len(left) < min_leaf or len(right) < min_leaf:
            continue
        child = (
            len(left) * gini_impurity((len(left) - left.sum(), left.sum()))
            + len(right) * gini_impurity((len(right) - right.sum(), right.sum()))
        ) / n
        decrease = parent - child
        if best[1] is None or decrease > best[0] + 1e-15:
            best = (decrease, thr)
    return best


def walk(model):
    """(node id, depth) of every node reachable from the root through the
    child links, depth first."""
    stack = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if model.feature[node] >= 0:
            stack.append((model.right[node], depth + 1))
            stack.append((model.left[node], depth + 1))


def naive_predict(model, X):
    """Per-row descent from the root: (labels, leaf positive fractions)."""
    labels, scores = [], []
    for row in X:
        node = 0
        while model.feature[node] >= 0:
            if row[model.feature[node]] <= model.threshold[node]:
                node = model.left[node]
            else:
                node = model.right[node]
        pos, n = int(model.n_pos[node]), int(model.n_samples[node])
        labels.append(1 if pos >= n - pos else 0)
        scores.append(pos / n)
    return np.array(labels, dtype=int), np.array(scores, dtype=float)


def oracle_trees():
    """Fitted trees of every shape: name -> (model, query rows)."""
    rng = np.random.default_rng(12)
    X = rng.integers(0, 6, size=(200, 4)).astype(float)
    y = (X[:, 0] + rng.normal(scale=1.5, size=200) > 2.5).astype(int)
    Xq = rng.integers(-1, 7, size=(150, 4)).astype(float)
    forest = fit_forest(X, y, ForestParams(n_trees=2, max_features=2, seed=4))
    return {
        "bounded": (fit_tree(X, y, TreeParams(max_depth=4, min_samples_leaf=5)), Xq),
        "unbounded": (fit_tree(X, y, feature_names=list("abcd")), Xq),
        "forest": (forest[1], Xq),
        "root_leaf": (fit_tree(X, y, TreeParams(min_samples_split=500)), Xq),
        "no_rows": (fit_tree(X, y), np.empty((0, 4))),
    }


FITTED = ("bounded", "unbounded", "forest", "root_leaf")
ARRAYS = ("feature", "threshold", "left", "right",
          "n_samples", "n_pos", "impurity", "decrease")


class TestGini:
    def test_symmetric_half(self):
        assert gini_impurity((5, 5)) == 0.5

    def test_pure(self):
        assert gini_impurity((10, 0)) == 0.0

    def test_hand_arithmetic(self):
        assert gini_impurity((3, 1)) == pytest.approx(0.375)

    def test_empty_node(self):
        with pytest.raises(EmptyNode):
            gini_impurity((0, 0))


class TestFitTree:
    def test_pure_input_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(5, 2)
        model = fit_tree(X, np.ones(5, dtype=int))
        assert model.feature.tolist() == [-1]
        assert (model.n_samples[0], model.n_pos[0]) == (5, 5)

    def test_memorizes_distinct_rows(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        model = fit_tree(X, y)
        labels, _ = predict_tree(model, X)
        assert np.array_equal(labels, y)

    def test_memorizes_xor(self):
        X = np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.]])
        y = np.array([0, 1, 1, 0])
        model = fit_tree(X, y)
        labels, _ = predict_tree(model, X)
        assert np.array_equal(labels, y)

    def test_income_style_threshold_bound(self):
        rng = np.random.default_rng(1)
        x = rng.integers(1, 9, size=500).astype(float)
        y = (x + rng.normal(scale=2.0, size=500) < 4).astype(int)
        model = fit_tree(x.reshape(-1, 1), y)
        thresholds = {
            model.threshold[k] for k, _ in walk(model) if model.feature[k] >= 0
        }
        assert len(thresholds) <= 7  # 8 ordinal values

    def test_root_split_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            n = int(rng.integers(5, 60))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            decrease, thr = brute_force_best_threshold(x, y)
            model = fit_tree(x.reshape(-1, 1), y, TreeParams(max_depth=1))
            if thr is None:
                assert model.feature.tolist() == [-1]
                continue
            assert model.feature[0] == 0
            # the chosen threshold must achieve the brute-force optimum
            # (equal-gain ties may legitimately pick a different cut)
            assert model.decrease[0] == pytest.approx(decrease)
            left = y[x <= model.threshold[0]]
            right = y[x > model.threshold[0]]
            child = (
                len(left) * gini_impurity(
                    (len(left) - left.sum(), left.sum()))
                + len(right) * gini_impurity(
                    (len(right) - right.sum(), right.sum()))
            ) / n
            parent = gini_impurity((n - y.sum(), y.sum()))
            assert parent - child == pytest.approx(decrease)

    def test_structural_invariants(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        params = TreeParams(max_depth=6, min_samples_split=10, min_samples_leaf=4)
        model = fit_tree(X, y, params)

        for node, depth in walk(model):
            if model.feature[node] < 0:
                assert depth <= 6
                assert model.n_samples[node] >= 4
                continue
            assert model.decrease[node] >= 0
            assert 0.0 <= model.impurity[node] <= 0.5

    def test_repeat_fits_identical(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 3, size=(100, 3)).astype(float)
        y = rng.integers(0, 2, size=100)
        a = fit_tree(X, y)
        b = fit_tree(X, y)
        assert tree_to_text(a) == tree_to_text(b)

    def test_ordinal_score_piecewise_constant(self):
        rng = np.random.default_rng(5)
        x = rng.integers(1, 9, size=400).astype(float)
        y = (x + rng.normal(scale=1.5, size=400) > 4).astype(int)
        model = fit_tree(x.reshape(-1, 1), y)
        grid = np.linspace(0.5, 8.5, 200).reshape(-1, 1)
        _, scores = predict_tree(model, grid)
        assert len(np.unique(scores)) <= 8

    def test_non_finite_x_is_data_error(self):
        X = np.zeros((10, 3))
        X[4, 2] = np.inf
        y = np.arange(10) % 2
        with pytest.raises(DataError, match="non-finite value at row 4, column 2"):
            fit_tree(X, y)
        with pytest.raises(DataError, match="non-finite value at row 4, column 2"):
            fit_forest(X, y, ForestParams(n_trees=2))


class TestPredictTree:
    def test_single_leaf_scores(self):
        model = fit_tree(np.ones((10, 2)), np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 1]))
        assert model.feature.tolist() == [-1]
        labels, scores = predict_tree(model, np.zeros((4, 2)))
        assert np.all(scores == 0.8)
        assert np.all(labels == 1)

    def test_leaf_tie_predicts_class_one(self):
        model = fit_tree(np.ones((4, 1)), np.array([0, 0, 1, 1]))
        labels, _ = predict_tree(model, np.ones((2, 1)))
        assert np.all(labels == 1)

    def test_dimension_mismatch(self):
        model = fit_tree(np.ones((4, 2)), np.array([0, 1, 0, 1]))
        with pytest.raises(DimensionMismatch):
            predict_tree(model, np.ones((3, 5)))


class TestForest:
    def test_degenerate_forest_equals_single_tree(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 4))
        y = (X[:, 2] > 0).astype(int)
        forest = fit_forest(
            X, y, ForestParams(n_trees=1, max_features=4, seed=3)
        )
        # the forest's one tree is a plain fit on its bootstrap rows
        sample = np.random.default_rng([3, 0]).integers(0, 80, size=80)
        single = fit_tree(X[sample], y[sample])
        assert tree_to_text(forest[0]) == tree_to_text(single)

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] > 0.2).astype(int)
        a = fit_forest(X, y, ForestParams(n_trees=5, seed=9))
        b = fit_forest(X, y, ForestParams(n_trees=5, seed=9))
        assert all(
            tree_to_text(ta) == tree_to_text(tb)
            for ta, tb in zip(a, b)
        )

    def test_informative_feature_dominates_importance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 5))
        y = (X[:, 0] > np.median(X[:, 0])).astype(int)
        flip = rng.random(300) < 0.05
        y[flip] = 1 - y[flip]
        forest = fit_forest(X, y, ForestParams(n_trees=30, seed=1))
        values, degenerate = impurity_importance(forest)
        assert int(np.argmax(values)) == 0
        assert values.sum() == pytest.approx(1.0, abs=1e-9)
        assert degenerate is False

    def test_all_leaf_forest_uniform_flagged(self):
        # constant columns offer no threshold, so every tree is a bare leaf
        rng = np.random.default_rng(9)
        X = np.ones((20, 3))
        y = rng.integers(0, 2, size=20)
        forest = fit_forest(X, y, ForestParams(n_trees=3))
        values, degenerate = impurity_importance(forest)
        assert degenerate is True
        assert np.allclose(values, 1.0 / 3)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit_forest(np.ones((5, 2)), np.zeros(5, dtype=int))

    def test_predict_forest_scores(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(100, 3))
        y = (X[:, 1] > 0).astype(int)
        forest = fit_forest(X, y, ForestParams(n_trees=10, seed=2))
        labels, scores = predict_forest(forest, X)
        assert np.all((scores >= 0) & (scores <= 1))
        assert np.mean(labels == y) > 0.9


class TestSerialization:
    def test_round_trip_predicts_identically(self):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 5, size=(120, 3)).astype(float)
        y = rng.integers(0, 2, size=120)
        model = fit_tree(X, y, TreeParams(max_depth=8),
                         feature_names=["a", "b", "c"])
        restored = tree_from_text(tree_to_text(model))
        Xq = rng.integers(0, 5, size=(40, 3)).astype(float)
        la, sa = predict_tree(model, Xq)
        lb, sb = predict_tree(restored, Xq)
        assert np.array_equal(la, lb)
        assert np.array_equal(sa, sb)
        assert restored.feature_names == ("a", "b", "c")
        assert restored.params.max_depth == 8

    def test_round_trip_deeper_than_recursion_limit(self):
        # a chain: split i (node 2i) sends x <= i + 0.5 to a one-row leaf of
        # class i % 2 (node 2i + 1), the rest deeper; the last leaf holds one
        # row of each class
        depth = 3000
        ids = np.arange(2 * depth + 1)
        is_split = (ids % 2 == 0) & (ids < 2 * depth)
        last = ids == 2 * depth
        leaf_n = np.where(is_split, 0, np.where(last, 2, 1))
        leaf_pos = np.where(is_split, 0, np.where(last, 1, (ids // 2) % 2))
        n_samples = np.where(is_split, np.cumsum(leaf_n[::-1])[::-1], leaf_n)
        n_pos = np.where(is_split, np.cumsum(leaf_pos[::-1])[::-1], leaf_pos)
        frac = n_pos / n_samples
        model = DecisionTreeModel(
            feature=np.where(is_split, 0, -1),
            threshold=np.where(is_split, ids / 2 + 0.5, np.nan),
            left=np.where(is_split, ids + 1, -1),
            right=np.where(is_split, ids + 2, -1),
            n_samples=n_samples, n_pos=n_pos,
            impurity=np.where(is_split, 0.5, 2 * frac * (1 - frac)),
            decrease=np.zeros(ids.size),
            params=TreeParams(), n_features=1,
        )
        text = tree_to_text(model)
        restored = tree_from_text(text)
        assert tree_to_text(restored) == text
        Xq = np.arange(-1.0, depth + 2.0).reshape(-1, 1)
        la, sa = predict_tree(model, Xq)
        lb, sb = predict_tree(restored, Xq)
        assert np.array_equal(la, lb)
        assert np.array_equal(sa, sb)


class TestArrayOracles:
    @pytest.mark.parametrize("name", FITTED + ("no_rows",))
    def test_predict_matches_naive_walk(self, name):
        model, Xq = oracle_trees()[name]
        labels, scores = predict_tree(model, Xq)
        want_labels, want_scores = naive_predict(model, Xq)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(scores, want_scores)

    @pytest.mark.parametrize("name", FITTED)
    def test_importance_matches_per_node_sum(self, name):
        model, _ = oracle_trees()[name]
        want = np.zeros(model.n_features)
        for node, _ in walk(model):
            if model.feature[node] >= 0:
                want[model.feature[node]] += model.decrease[node]
        got = _tree_raw_importance(model)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", FITTED)
    def test_text_round_trip_keeps_every_array(self, name):
        model, _ = oracle_trees()[name]
        restored = tree_from_text(tree_to_text(model))
        for array in ARRAYS:
            want, got = getattr(model, array), getattr(restored, array)
            assert got.dtype == want.dtype, array
            np.testing.assert_array_equal(got, want, err_msg=array)
        assert restored.n_features == model.n_features
        assert restored.feature_names == model.feature_names
        assert restored.params == model.params


class TestPinnedText:
    """``tree_to_text`` of fixed seeded fits, pinned by hash: a change to
    the split search, the tie rule, the ``max_features`` draw order or the
    text format shows up here."""

    PINNED = {
        "unbounded": "1b19f62a6f5312806ddb9a03d48c49f8e0f18d3e665b31403e6dbc6d96412d49",
        "bounded": "ab9a176100e6781679124506400850ecb712b864769d9fd2666f70816c53ed02",
        "forest0": "a14d3bc81e2c7440f24607310d66ee8a066cc1e734ad583b006b7e48fa96fd2d",
        "forest1": "49148faee034c4c7978a207f17d0b7b4458591e3bb526a8e27c8aa1856b0c626",
    }

    @staticmethod
    def fits():
        rng = np.random.default_rng(2024)
        X = np.column_stack([
            rng.integers(1, 9, size=600),
            rng.integers(12, 60, size=600),
            rng.normal(size=600),
        ]).astype(float)
        y = ((9 - X[:, 0]) * 0.3 + (X[:, 1] - 30) * 0.05 + X[:, 2]
             + rng.logistic(size=600) > 1.0).astype(int)
        forest = fit_forest(X, y, ForestParams(n_trees=2, max_features=2, seed=3))
        return {
            "unbounded": fit_tree(X, y, feature_names=["Income", "BMI", "noise"]),
            "bounded": fit_tree(X, y, TreeParams(max_depth=5, min_samples_leaf=20)),
            "forest0": forest[0],
            "forest1": forest[1],
        }

    def test_text_bytes_unchanged(self):
        digests = {
            name: hashlib.sha256(tree_to_text(model).encode()).hexdigest()
            for name, model in self.fits().items()
        }
        assert digests == self.PINNED


def duplicated_rows(seed, n_cols):
    """Raw rows drawn from a few codes per column, and their count table:
    (X, y, distinct X, distinct y, counts)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 400))
    X = rng.integers(0, int(rng.integers(2, 6)), size=(n, n_cols)).astype(float)
    y = (X.sum(axis=1) + rng.normal(scale=1.5, size=n) > n_cols).astype(int)
    table, counts = np.unique(np.column_stack([X, y]), axis=0, return_counts=True)
    return X, y, table[:, :-1], table[:, -1].astype(int), counts


COUNTED_PARAMS = {
    "default": TreeParams(),
    "depth2": TreeParams(max_depth=2),
    # minimums that a node's counted rows meet where its distinct rows
    # often do not
    "leaf25": TreeParams(min_samples_leaf=25),
    "split40": TreeParams(min_samples_split=40),
    "all": TreeParams(max_depth=4, min_samples_split=30, min_samples_leaf=9),
}


class TestCountTable:
    """A fit on a count table equals the fit on its rows, bit for bit."""

    @staticmethod
    def assert_same_tree(got, want):
        assert tree_to_text(got) == tree_to_text(want)
        for array in ARRAYS:
            a, b = getattr(got, array), getattr(want, array)
            assert a.dtype == b.dtype, array
            assert a.tobytes() == b.tobytes(), array

    @pytest.mark.parametrize("name", sorted(COUNTED_PARAMS))
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_fit_on_rows(self, name, seed):
        X, y, Xd, yd, counts = duplicated_rows(seed, n_cols=1 + seed % 3)
        params = COUNTED_PARAMS[name]
        self.assert_same_tree(fit_tree(Xd, yd, params, counts=counts),
                              fit_tree(X, y, params))

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_repeated_rows(self, seed):
        _, _, Xd, yd, counts = duplicated_rows(seed, n_cols=2)
        order = np.random.default_rng(seed).permutation(counts.sum())
        X = np.repeat(Xd, counts, axis=0)[order]
        y = np.repeat(yd, counts)[order]
        params = TreeParams(min_samples_leaf=5)
        self.assert_same_tree(fit_tree(Xd, yd, params, counts=counts),
                              fit_tree(X, y, params))

    def test_counted_rows_pass_min_samples_leaf(self):
        _, _, Xd, yd, counts = duplicated_rows(3, n_cols=2)
        params = COUNTED_PARAMS["leaf25"]
        assert Xd.shape[0] < 2 * params.min_samples_leaf < counts.sum()
        model = fit_tree(Xd, yd, params, counts=counts)
        assert (model.feature >= 0).any()
        assert model.n_samples[0] == counts.sum()

    @pytest.mark.parametrize("seed", range(4))
    def test_max_features_draws_unchanged(self, seed):
        X, y, Xd, yd, counts = duplicated_rows(seed, n_cols=3)
        got = fit_tree(Xd, yd, counts=counts,
                       _rng=np.random.default_rng([seed, 9]), _max_features=1)
        want = fit_tree(X, y, _rng=np.random.default_rng([seed, 9]),
                        _max_features=1)
        self.assert_same_tree(got, want)

    def test_unit_counts_equal_no_counts(self):
        X, y, *_ = duplicated_rows(5, n_cols=3)
        self.assert_same_tree(
            fit_tree(X, y, counts=np.ones(len(y), dtype=int)), fit_tree(X, y))

    @pytest.mark.parametrize("counts, error", [
        (np.ones((4, 1), dtype=int), DimensionMismatch),
        (np.ones(3, dtype=int), DimensionMismatch),
        (np.ones(4), BadParams),
        (np.ones(4, dtype=bool), BadParams),
        (np.array([1, 2, 0, 1]), BadParams),
        (np.array([1, -1, 2, 1]), BadParams),
    ], ids=["2d", "short", "float", "bool", "zero", "negative"])
    def test_bad_counts_rejected(self, counts, error):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(error):
            fit_tree(X, [0, 1, 0, 1], counts=counts)


# ---------------------------------------------------------------- oracle
# A frozen copy of the per-node grower that the presorted one replaced: one
# stable argsort per node per candidate feature. The presorted grower must
# equal it array for array, dtype included.

def reference_best_split(X, pos, counts, feature_indices, min_leaf):
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
        k = int(np.argmax(decrease))
        if decrease[k] > best_decrease + 1e-15:
            threshold = (xs[cuts[k]] + xs[cuts[k] + 1]) / 2.0
            best_decrease = float(decrease[k])
            best = (j, threshold, best_decrease, parent)
    return best


def reference_fit_tree(X, y, params=TreeParams(), feature_names=None,
                       counts=None, _rng=None, _max_features=None):
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
    stack = [(np.arange(X.shape[0]), 0)]
    while stack:
        idx, depth = stack.pop()
        size = idx.size if counts is None else int(counts[idx].sum())
        n_pos = int(pos[idx].sum())
        found = None
        pure = n_pos == 0 or n_pos == size
        depth_capped = params.max_depth is not None and depth >= params.max_depth
        if not (pure or depth_capped or size < params.min_samples_split):
            found = reference_best_split(
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


def reference_forest(X, y, params):
    """The per-tree recipe: tree t is grown on the bootstrap rows that
    ``default_rng([seed, t])`` draws, and draws its candidates from it."""
    p = X.shape[1]
    max_features = min(params.max_features or math.ceil(math.sqrt(p)), p)
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng([params.seed, t])
        sample = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(reference_fit_tree(X[sample], y[sample], _rng=rng,
                                        _max_features=max_features))
    return trees


def assert_same_tree(got, want):
    TestCountTable.assert_same_tree(got, want)
    assert got.n_features == want.n_features
    assert got.feature_names == want.feature_names
    assert got.params == want.params


def tied_table(seed):
    """A table of few distinct values per column (0.0 and -0.0 among them)
    and labels with some signal: (X, y)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 250))
    p = int(rng.integers(1, 6))
    X = rng.integers(-1, int(rng.integers(1, 4)), size=(n, p)) * 1.5
    X[rng.random((n, p)) < 0.2] = -0.0
    y = (X.sum(axis=1) + rng.normal(scale=2.0, size=n) > 0).astype(int)
    return X, y


def income_table(seed, n):
    """One Income-like column of eight codes: raw rows and their count
    table, (X, y, distinct X, distinct y, counts)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(1, 9, size=n).astype(float)
    y = (x + rng.normal(scale=2.0, size=n) < 4).astype(int)
    table, counts = np.unique(np.column_stack([x, y]), axis=0, return_counts=True)
    return x[:, None], y, table[:, :1], table[:, 1].astype(int), counts


GRID_CELLS = [
    TreeParams(max_depth=d, min_samples_split=s, min_samples_leaf=leaf)
    for d in DEFAULT_TREE_GRID["max_depth"]
    for s in DEFAULT_TREE_GRID["min_samples_split"]
    for leaf in DEFAULT_TREE_GRID["min_samples_leaf"]
]


class TestPresortedOracle:
    """The presorted grower equals the per-node grower it replaced."""

    @pytest.mark.parametrize("seed", range(40))
    def test_tied_tables(self, seed):
        X, y = tied_table(seed)
        params = TreeParams(min_samples_leaf=1 + seed % 4,
                            max_depth=None if seed % 3 else 4)
        for args in [(), (params,)]:
            assert_same_tree(fit_tree(X, y, *args), reference_fit_tree(X, y, *args))

    @pytest.mark.parametrize("seed", range(12))
    def test_tied_count_tables(self, seed):
        X, y = tied_table(seed)
        table, counts = np.unique(np.column_stack([X, y]), axis=0, return_counts=True)
        Xd, yd = table[:, :-1], table[:, -1].astype(int)
        params = TreeParams(min_samples_leaf=1 + seed % 5)
        assert_same_tree(fit_tree(Xd, yd, params, counts=counts),
                         reference_fit_tree(Xd, yd, params, counts=counts))

    @pytest.mark.parametrize("n", [2, 17, 300, 3000])
    def test_income_tables(self, n):
        X, y, Xd, yd, counts = income_table(n, n)
        for params in [TreeParams(), TreeParams(max_depth=3, min_samples_leaf=20)]:
            assert_same_tree(fit_tree(X, y, params, feature_names=["Income"]),
                             reference_fit_tree(X, y, params, feature_names=["Income"]))
            assert_same_tree(fit_tree(Xd, yd, params, counts=counts),
                             reference_fit_tree(Xd, yd, params, counts=counts))

    @pytest.mark.parametrize("params", GRID_CELLS, ids=[
        f"d{c.max_depth}-s{c.min_samples_split}-l{c.min_samples_leaf}"
        for c in GRID_CELLS])
    def test_grid_cells(self, params):
        X, y, Xd, yd, counts = income_table(7, 2000)
        rng = np.random.default_rng(8)
        Xw = np.column_stack([rng.integers(12, 60, size=600),
                              rng.normal(size=600).round(1)]).astype(float)
        yw = (Xw[:, 0] / 10 + Xw[:, 1] + rng.logistic(size=600) > 4).astype(int)
        assert_same_tree(fit_tree(Xd, yd, params, counts=counts),
                         reference_fit_tree(Xd, yd, params, counts=counts))
        assert_same_tree(fit_tree(Xw, yw, params), reference_fit_tree(Xw, yw, params))

    @pytest.mark.parametrize("seed", range(8))
    def test_max_features_draws(self, seed):
        X, y = tied_table(100 + seed)
        X = np.column_stack([X, np.random.default_rng(seed).normal(size=(len(y), 3))])
        for max_features in (1, 2, X.shape[1] - 1):
            got = fit_tree(X, y, _rng=np.random.default_rng([seed, 1]),
                           _max_features=max_features)
            want = reference_fit_tree(X, y, _rng=np.random.default_rng([seed, 1]),
                                      _max_features=max_features)
            assert_same_tree(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_forests(self, seed):
        X, y = tied_table(200 + seed)
        if len(np.unique(y)) < 2 or len(y) < 2:
            y = np.arange(len(X)) % 2
        X = np.column_stack([X, np.random.default_rng(seed).normal(size=(len(y), 4))])
        params = ForestParams(n_trees=3, max_features=1 + seed % 3, seed=seed)
        for got, want in zip(fit_forest(X, y, params), reference_forest(X, y, params),
                             strict=True):
            assert_same_tree(got, want)

    def test_midpoint_rounding_to_the_upper_value(self):
        # the midpoint of these two adjacent floats rounds to the upper one;
        # the per-node grower cut there, sent every row of the node left and
        # regrew it forever unless max_depth stopped it
        a = 1.0 + 2.0 ** -52
        b = 1.0 + 2.0 ** -51
        assert (a + b) / 2.0 == b
        X = np.array([[a], [a], [b], [b], [b], [2.0], [2.0]])
        y = np.array([1, 1, 0, 0, 0, 0, 1])
        old = reference_fit_tree(X, y, TreeParams(max_depth=1))
        assert old.threshold[0] == b and old.n_samples.tolist() == [7, 5, 2]
        model = fit_tree(X, y)
        assert model.threshold[0] == a
        assert model.n_samples[:3].tolist() == [7, 2, 5]
        labels, _ = predict_tree(model, X)
        assert np.array_equal(labels, [1, 1, 0, 0, 0, 1, 1])


# ---------------------------------------------------------------- pool

def visible_cpus(monkeypatch, n):
    monkeypatch.setattr(tree.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def forest_data():
    rng = np.random.default_rng(31)
    X = rng.integers(0, 5, size=(160, 6)).astype(float)
    y = (X[:, 0] + X[:, 3] + rng.normal(size=160) > 4).astype(int)
    return X, y


def child_env():
    """This environment with the checkout's sources first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.fixture
def no_hang():
    """End the test run with a traceback if a pool hangs."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forest pool needs fork")
@pytest.mark.usefixtures("no_hang")
class TestForestPool:
    @pytest.fixture
    def grown_here(self, monkeypatch):
        """A list that gets one entry per tree grown in this process."""
        grown = []
        grow = tree._grow

        def counted(*args, **kwargs):
            grown.append(1)
            return grow(*args, **kwargs)

        monkeypatch.setattr(tree, "_grow", counted)
        return grown

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_equals_serial_recipe(self, monkeypatch, grown_here, cpus):
        visible_cpus(monkeypatch, cpus)
        X, y = forest_data()
        params = ForestParams(n_trees=5, max_features=2, seed=6)
        trees = fit_forest(X, y, params)
        for got, want in zip(trees, reference_forest(X, y, params), strict=True):
            assert_same_tree(got, want)
        # with two CPUs every tree is grown in a worker process
        assert len(grown_here) == (5 if cpus == 1 else 0)
        assert multiprocessing.active_children() == []

    def test_one_tree_fits_in_process(self, monkeypatch, grown_here):
        visible_cpus(monkeypatch, 2)
        X, y = forest_data()
        fit_forest(X, y, ForestParams(n_trees=1))
        assert grown_here == [1]

    FAILING = """
import multiprocessing, os, sys
import numpy as np
from diabrisk import tree
os.sched_getaffinity = lambda pid: {{0, 1}}
def fail(*args, **kwargs):
    {fail}
tree._grow = fail
X = np.arange(40.0).reshape(20, 2)
try:
    tree.fit_forest(X, np.arange(20) % 2, tree.ForestParams(n_trees=4))
except Exception as error:
    print(type(error).__name__, error)
print("children", len(multiprocessing.active_children()))
"""

    @pytest.mark.parametrize("fail, raised", [
        ("raise ValueError('no tree today')", "ValueError no tree today"),
        ("os._exit(3)", "BrokenProcessPool"),
    ], ids=["raises", "dies"])
    def test_failing_worker_surfaces(self, fail, raised):
        out = subprocess.run(
            [sys.executable, "-c", self.FAILING.format(fail=fail)], env=child_env(),
            capture_output=True, text=True, timeout=120, check=True)
        lines = out.stdout.splitlines()
        assert lines[0].startswith(raised)
        assert lines[-1] == "children 0"

    STALLED = """
import os, sys, time
import numpy as np
from diabrisk import tree
os.sched_getaffinity = lambda pid: {0, 1}
def stall(*args, **kwargs):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(300)
tree._grow = stall
tree.fit_forest(np.arange(40.0).reshape(20, 2), np.arange(20) % 2,
                tree.ForestParams(n_trees=4))
"""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process states from /proc")
    def test_workers_die_with_a_killed_parent(self, tmp_path):
        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        def wait_until(condition):
            deadline = time.monotonic() + 60
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.05)
            return condition()

        proc = subprocess.Popen([sys.executable, "-c", self.STALLED, str(tmp_path)],
                                env=child_env())
        try:
            assert wait_until(lambda: len(os.listdir(tmp_path)) == 2)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        workers = [int(name) for name in os.listdir(tmp_path)]
        try:
            assert wait_until(lambda: not any(alive(pid) for pid in workers))
        finally:
            for pid in workers:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)


def test_cli_import_loads_no_process_pool():
    script = ("import sys, diabrisk.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", script], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestEmptyForest:
    def test_predict_forest(self):
        with pytest.raises(DimensionMismatch, match="at least one tree"):
            predict_forest((), np.ones((3, 2)))

    def test_impurity_importance(self):
        with pytest.raises(DimensionMismatch, match="at least one tree"):
            impurity_importance(())

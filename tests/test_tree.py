import faulthandler
import functools
import hashlib
import math
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import REPO_ROOT, synthetic_rows, write_rows
from diabrisk import feature_selection, pipeline, tree
from diabrisk.config import ExperimentConfig
from diabrisk.dataset import as_counts, as_labels, as_matrix
from diabrisk.errors import (
    BadParams, DataError, DimensionMismatch, EmptyNode, SingleClass,
)
from diabrisk.gridsearch import DEFAULT_TREE_GRID
from diabrisk.pool import FitPool
from diabrisk.tree import (
    DecisionTreeModel,
    ForestParams,
    TreeParams,
    fit_forest,
    fit_tree,
    impurity_importance,
    predict_tree,
    tree_to_text,
    _tree_raw_importance,
)


def gini_impurity(class_counts) -> float:
    """Gini impurity of a node with ``(negatives, positives)`` rows: the
    references' oracle for the grower's inline impurity."""
    n_neg, n_pos = class_counts
    total = n_neg + n_pos
    f0 = n_neg / total
    f1 = n_pos / total
    return 1.0 - (f0 * f0 + f1 * f1)


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


def forest_trees(X, y, params):
    """The trees of the forest that ``fit_forest(X, y, params)`` grows, each
    by the recipe its workers run, ``_fit_forest_tree``; ``fit_forest``
    itself returns only their importance rows."""
    p = X.shape[1]
    max_features = min(params.max_features or math.ceil(math.sqrt(p)), p)
    forest = (as_matrix(X), as_labels(y, n_rows=X.shape[0]), params.seed, max_features)
    return [tree._fit_forest_tree(t, forest) for t in range(params.n_trees)]


def assert_same_rows(rows, trees):
    """``fit_forest``'s rows are the raw importance of ``trees``, bit for
    bit."""
    want = np.array([_tree_raw_importance(t) for t in trees])
    assert rows.dtype == want.dtype and rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()


def oracle_trees():
    """Fitted trees of every shape: name -> (model, query rows)."""
    rng = np.random.default_rng(12)
    X = rng.integers(0, 6, size=(200, 4)).astype(float)
    y = (X[:, 0] + rng.normal(scale=1.5, size=200) > 2.5).astype(int)
    Xq = rng.integers(-1, 7, size=(150, 4)).astype(float)
    forest = forest_trees(X, y, ForestParams(n_trees=2, max_features=2, seed=4))
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

    @pytest.mark.parametrize("leaf", [2**63, 10**23])
    def test_huge_min_samples_leaf_is_one_leaf(self, leaf):
        X, y, Xd, yd, counts = income_table(3, 200)
        params = TreeParams(min_samples_leaf=leaf)
        for model in (fit_tree(X, y, params),
                      fit_tree(Xd, yd, params, counts=counts)):
            assert model.feature.tolist() == [-1]
            assert model.n_samples.tolist() == [200]
            assert model.params == params

    def test_no_rows_is_empty_node(self):
        with pytest.raises(EmptyNode, match="at least one row"):
            fit_tree(np.empty((0, 2)), np.empty(0, dtype=int))

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
        params = ForestParams(n_trees=1, max_features=4, seed=3)
        forest = forest_trees(X, y, params)
        # the forest's one tree is a plain fit on its bootstrap rows
        sample = np.random.default_rng([3, 0]).integers(0, 80, size=80)
        single = fit_tree(X[sample], y[sample])
        assert tree_to_text(forest[0]) == tree_to_text(single)
        assert_same_rows(fit_forest(X, y, params), [single])

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] > 0.2).astype(int)
        params = ForestParams(n_trees=5, seed=9)
        a = forest_trees(X, y, params)
        b = forest_trees(X, y, params)
        assert all(
            tree_to_text(ta) == tree_to_text(tb)
            for ta, tb in zip(a, b)
        )
        assert fit_forest(X, y, params).tobytes() == fit_forest(X, y, params).tobytes()

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

    def test_pool_on_another_table_rejected(self):
        X, y = forest_data()
        for other in ((X.copy(), y), (X, 1 - y)):
            with FitPool(*other, 1) as pool, pytest.raises(BadParams, match="pool"):
                fit_forest(X, y, ForestParams(n_trees=2), pool)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit_forest(np.ones((5, 2)), np.zeros(5, dtype=int))


class TestSerialization:
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
        lines = tree_to_text(model).splitlines()
        assert len(lines) == 1 + ids.size  # the header, then one per node
        assert lines[-1] == "  " * depth + "leaf neg=1 pos=1"
        # x <= i + 0.5 first holds at split i = max(x, 0) while x < depth;
        # the rest reach the last leaf, a tie that predicts class 1
        Xq = np.arange(-1.0, depth + 2.0).reshape(-1, 1)
        labels, scores = predict_tree(model, Xq)
        want = np.append(np.maximum(Xq[:-2, 0], 0) % 2, [0.5, 0.5])
        assert np.array_equal(scores, want)
        assert np.array_equal(labels, (want >= 0.5).astype(int))


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


class TestPinnedText:
    """``tree_to_text`` of fixed seeded fits, pinned by hash: a change to
    the split search, the tie rule, the ``max_features`` draw order or the
    text format shows up here."""

    PINNED = {
        "unbounded": "1b19f62a6f5312806ddb9a03d48c49f8e0f18d3e665b31403e6dbc6d96412d49",
        "bounded": "ab9a176100e6781679124506400850ecb712b864769d9fd2666f70816c53ed02",
        "forest0": "8784e1fa1541b5887d37f7251a178d9c11822324b580b8f35d6b6a30d6244376",
        "forest1": "3b41ef5ba83ace1b53cb2d9d1027347e9ebe219c5d814591ba6d953c7934d3f3",
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
        forest = forest_trees(X, y, ForestParams(n_trees=2, max_features=2, seed=3))
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
        got = grow_levels(Xd, yd, np.random.default_rng([seed, 9]), 1, counts=counts)
        want = grow_levels(X, y, np.random.default_rng([seed, 9]), 1)
        self.assert_same_tree(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_bootstrap_counts_equal_gathered_rows(self, seed):
        # a bootstrap's count table holds equal rows under different row
        # ids; under draws it grows the tree of its gathered rows
        X, y = tied_table(300 + seed)
        n = len(y)
        X = np.column_stack([X, np.random.default_rng(seed).normal(size=(n, 3)).round(1)])
        sample = np.random.default_rng(seed).integers(0, n, size=n)
        counts = np.bincount(sample, minlength=n)
        held = np.flatnonzero(counts)
        got = grow_levels(X[held], y[held], np.random.default_rng([seed, 2]), 2,
                          counts=counts[held])
        want = grow_levels(X[sample], y[sample], np.random.default_rng([seed, 2]), 2)
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
# stable argsort per node per candidate feature, nodes grown depth first in
# preorder. The level-wise grower must equal it array for array, dtype
# included.

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


def grow_levels(X, y, rng, max_features, counts=None):
    """The grower on a table with forest trees' params, each node choosing
    among ``max_features`` features drawn from ``rng``."""
    X = as_matrix(X)
    return tree._grow_levels(
        np.ascontiguousarray(X.T), as_labels(y, n_rows=X.shape[0]),
        as_counts(counts, X.shape[0]), 1, rng, max_features)


# A frozen per-node reference of the level-wise grower's draws: nodes are
# searched one by one with reference_best_split, a level at a time, in level
# order (the left children of the level above, then its right children).
# Each level draws its searched nodes' candidates at once: the ascending
# first max_features of each row of the argsort of rng.random.

def reference_level_tree(X, y, rng, max_features):
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    n_total, p = X.shape
    root = {}
    level = [(np.arange(n_total), root)]
    while level:
        # a forest tree's default params search every impure node
        searched = [0 < labels[idx].sum() < idx.size for idx, _ in level]
        draws = iter(np.sort(np.argsort(rng.random((sum(searched), p)), axis=1)
                             [:, :max_features], axis=1))
        lefts, rights = [], []
        for (idx, node), search in zip(level, searched):
            size, n_pos = idx.size, int(labels[idx].sum())
            found = None
            if search:
                found = reference_best_split(X[idx], labels[idx], None, next(draws), 1)
            if found is None:
                node["row"] = _leaf_row(size - n_pos, n_pos)
                continue
            j, threshold, decrease, impurity = found
            node["row"] = (j, threshold, size, n_pos, impurity,
                           (size / n_total) * decrease)
            node["children"] = ({}, {})
            goes_left = X[idx, j] <= threshold
            lefts.append((idx[goes_left], node["children"][0]))
            rights.append((idx[~goes_left], node["children"][1]))
        level = lefts + rights
    rows = []
    stack = [root]
    while stack:
        node = stack.pop()
        rows.append(node["row"])
        stack.extend(reversed(node.get("children", ())))
    return _from_preorder(rows, TreeParams(), p, None)


def reference_level_forest(X, y, params):
    """Tree t is grown on the bootstrap rows that ``default_rng([seed, t])``
    draws, and draws its candidates from it a level at a time."""
    p = X.shape[1]
    max_features = min(params.max_features or math.ceil(math.sqrt(p)), p)
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng([params.seed, t])
        sample = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(reference_level_tree(X[sample], y[sample], rng, max_features))
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
            got = grow_levels(X, y, np.random.default_rng([seed, 1]), max_features)
            want = reference_level_tree(X, y, np.random.default_rng([seed, 1]),
                                        max_features)
            assert_same_tree(got, want)

    # (seed, max_features, repeated rows); "p" is every feature, so that no
    # node draws, and the forest equals the preorder recipe. Repeated rows
    # are each row three times, a third of the copies with the other label:
    # a bootstrap then holds equal rows under different row ids, some of
    # them with both labels.
    FOREST_CASES = [
        *(pytest.param(seed, 1 + seed % 3, False, id=str(seed)) for seed in range(4)),
        pytest.param(4, "p", False, id="every-feature"),
        pytest.param(5, 2, True, id="repeated-rows"),
    ]

    @pytest.mark.parametrize("seed, max_features, repeated", FOREST_CASES)
    @pytest.mark.usefixtures("no_hang")
    def test_forests(self, monkeypatch, seed, max_features, repeated):
        X, y = tied_table(200 + seed)
        if len(np.unique(y)) < 2 or len(y) < 2:
            y = np.arange(len(X)) % 2
        X = np.column_stack([X, np.random.default_rng(seed).normal(size=(len(y), 4))])
        if repeated:
            X, y = np.repeat(X, 3, axis=0), np.repeat(y, 3)
            flip = np.random.default_rng(seed).random(len(y)) < 1 / 3
            y[flip] = 1 - y[flip]
        reference = reference_level_forest
        if max_features == "p":
            max_features, reference = X.shape[1], reference_forest
        params = ForestParams(n_trees=3, max_features=max_features, seed=seed)
        trees = reference(X, y, params)
        for got, want in zip(forest_trees(X, y, params), trees, strict=True):
            assert_same_tree(got, want)
        # the rows are the same in this process and in a pool
        for cpus in (1, 2):
            visible_cpus(monkeypatch, cpus)
            assert_same_rows(fit_forest(X, y, params), trees)

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


def assert_derived_equal_fits(X, y, cells, counts=None):
    """``stop_early`` gives every cell the per-node reference's tree,
    derived from one tree per ``min_samples_leaf`` grown with no other
    stopping rule, as the tree grid search grows them; the grown trees."""
    grown = {leaf: fit_tree(X, y, TreeParams(min_samples_leaf=leaf), counts=counts)
             for leaf in {cell.min_samples_leaf for cell in cells}}
    for cell in cells:
        assert_same_tree(tree.stop_early(grown[cell.min_samples_leaf], cell),
                         reference_fit_tree(X, y, cell, counts=counts))
    return grown


class TestStopEarly:
    """A tree derived from a grown tree by tighter stopping rules equals
    the tree grown with those rules, array for array."""

    @pytest.mark.parametrize("n", [2, 17, 300, 3000])
    def test_default_grid_on_income_tables(self, n):
        X, y, Xd, yd, counts = income_table(n, n)
        assert_derived_equal_fits(Xd, yd, GRID_CELLS, counts)
        assert_derived_equal_fits(X, y, GRID_CELLS)

    CELLS = [TreeParams(max_depth=d, min_samples_split=s, min_samples_leaf=leaf)
             for d in (None, 1, 2, 4) for s in (2, 7, 40) for leaf in (1, 3)]

    @pytest.mark.parametrize("seed", range(12))
    def test_tied_tables(self, seed):
        X, y = tied_table(seed)
        assert_derived_equal_fits(X, y, self.CELLS)
        table, counts = np.unique(np.column_stack([X, y]), axis=0, return_counts=True)
        assert_derived_equal_fits(table[:, :-1], table[:, -1].astype(int),
                                  self.CELLS, counts)

    def test_max_depth_deeper_than_the_tree(self):
        X, y, Xd, yd, counts = income_table(7, 2000)
        grown = fit_tree(Xd, yd, counts=counts)
        depth = max(d for _, d in walk(grown))
        assert 0 < depth < 40
        assert_derived_equal_fits(Xd, yd, [TreeParams(max_depth=40),
                                           TreeParams(max_depth=depth)], counts)

    def test_split_minimum_above_the_root_is_one_leaf(self):
        X, y, Xd, yd, counts = income_table(7, 2000)
        cell = TreeParams(min_samples_split=2001)
        assert_derived_equal_fits(Xd, yd, [cell, TreeParams()], counts)
        derived = tree.stop_early(fit_tree(Xd, yd, counts=counts), cell)
        assert derived.feature.tolist() == [-1]
        assert derived.n_samples.tolist() == [2000]

    def test_pure_table(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.ones(6, dtype=int)
        grown = assert_derived_equal_fits(X, y, [TreeParams(max_depth=2),
                                                 TreeParams(min_samples_split=3)])
        assert grown[1].feature.tolist() == [-1]

    @pytest.mark.parametrize("seed", range(3))
    def test_cells_in_shuffled_order(self, seed):
        X, y, Xd, yd, counts = income_table(seed, 1000)
        order = np.random.default_rng(seed).permutation(len(GRID_CELLS))
        assert_derived_equal_fits(Xd, yd, [GRID_CELLS[i] for i in order], counts)


@st.composite
def drawn_tables(draw, counted=st.booleans()):
    """(X, y, counts) of 2-60 rows whose columns take few distinct values;
    counts of 1-4 per row, or None when ``counted`` draws False."""
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, p),
                    elements=st.sampled_from([-1.5, -0.0, 0.0, 1.5, 3.0])))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    counts = None
    if draw(counted):
        counts = draw(arrays(np.int64, n, elements=st.integers(1, 4)))
    return X, y, counts


drawn_params = st.builds(
    TreeParams, max_depth=st.none() | st.integers(1, 6),
    min_samples_split=st.integers(2, 40),
    min_samples_leaf=st.integers(1, 5) | st.just(2**63))


class TestTreeProperties:
    """The exactness claims of ``fit_tree``, over drawn tables with heavy
    ties and drawn stopping rules. 300 examples each: about 4 s of tier-1
    on a 2-vCPU VM."""

    @given(table=drawn_tables(), params=drawn_params)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_per_node_reference(self, table, params):
        X, y, counts = table
        assert_same_tree(fit_tree(X, y, params, counts=counts),
                         reference_fit_tree(X, y, params, counts=counts))

    @given(table=drawn_tables(counted=st.just(True)), params=drawn_params,
           data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_count_table_equals_repeated_rows(self, table, params, data):
        X, y, counts = table
        order = data.draw(st.permutations(range(int(counts.sum()))))
        assert_same_tree(fit_tree(X, y, params, counts=counts),
                         fit_tree(np.repeat(X, counts, axis=0)[order],
                                  np.repeat(y, counts)[order], params))


# ---------------------------------------------------------------- pool

def visible_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
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
        grow = tree._grow_levels

        def counted(*args, **kwargs):
            grown.append(1)
            return grow(*args, **kwargs)

        monkeypatch.setattr(tree, "_grow_levels", counted)
        return grown

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_equals_serial_recipe(self, monkeypatch, grown_here, cpus):
        visible_cpus(monkeypatch, cpus)
        X, y = forest_data()
        params = ForestParams(n_trees=5, max_features=2, seed=6)
        rows = fit_forest(X, y, params)
        # with two CPUs every tree is grown in a worker process
        assert len(grown_here) == (5 if cpus == 1 else 0)
        assert multiprocessing.active_children() == []
        trees = reference_level_forest(X, y, params)
        for got, want in zip(forest_trees(X, y, params), trees, strict=True):
            assert_same_tree(got, want)
        assert_same_rows(rows, trees)

    def test_one_tree_fits_in_process(self, monkeypatch, grown_here):
        visible_cpus(monkeypatch, 2)
        X, y = forest_data()
        fit_forest(X, y, ForestParams(n_trees=1))
        assert grown_here == [1]

    # 60 examples, 29 of them with 2-4 trees on 2 forked workers: about 1 s
    # of tier-1 on a 2-vCPU VM
    @given(table=drawn_tables(counted=st.just(False)), n_trees=st.integers(1, 4),
           data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_forked_rows_equal_in_process_rows(self, table, n_trees, data):
        X, y, _ = table
        assume(0 < y.sum() < y.size)
        params = ForestParams(
            n_trees=n_trees, max_features=data.draw(st.integers(1, X.shape[1])),
            seed=data.draw(st.integers(0, 2**32 - 1)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("diabrisk.pool._n_workers", lambda n_jobs: 1)
            here = fit_forest(X, y, params)
        with pytest.MonkeyPatch.context() as patch:
            visible_cpus(patch, 2)
            forked = fit_forest(X, y, params)
        assert multiprocessing.active_children() == []
        assert (forked.shape, forked.tobytes()) == (here.shape, here.tobytes())

    FAILING = """
import multiprocessing, os, sys
import numpy as np
from diabrisk import tree
os.sched_getaffinity = lambda pid: {{0, 1}}
def fail(*args, **kwargs):
    {fail}
tree._grow_levels = fail
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
tree._grow_levels = stall
tree.fit_forest(np.arange(40.0).reshape(20, 2), np.arange(20) % 2,
                tree.ForestParams(n_trees=4))
"""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process states from /proc")
    def test_workers_die_with_a_killed_parent(self, tmp_path):
        assert_workers_die_with_parent(
            [sys.executable, "-c", self.STALLED, str(tmp_path)], tmp_path)


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


def assert_workers_die_with_parent(argv, pids):
    """Run ``argv``, whose two pool workers each create a file named by
    their pid in the directory ``pids`` before one of them stalls; kill it
    once both files exist, and check that both workers die with it."""
    proc = subprocess.Popen(argv, env=child_env())
    try:
        assert wait_until(lambda: len(os.listdir(pids)) == 2)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    workers = [int(name) for name in os.listdir(pids)]
    try:
        assert wait_until(lambda: not any(alive(pid) for pid in workers))
    finally:
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)


# ------------------------------------------------------- the features pool

FEATURES_TREES = 4


@pytest.fixture
def survey_csv(tmp_path):
    return write_rows(tmp_path / "survey.csv", synthetic_rows(300, seed=5))


def features_cfg(survey_csv, out):
    return ExperimentConfig(data_path=survey_csv, output_dir=str(out),
                            forest=ForestParams(n_trees=FEATURES_TREES))


def take_artifacts(out):
    """Every file a run wrote into ``out``, by name, but ``manifest.json``
    (it holds a timestamp); ``out`` is removed, so that the next run writes
    under the same path, which ``report.json`` echoes."""
    files = {p.name: p.read_bytes() for p in out.iterdir()
             if p.name != "manifest.json"}
    shutil.rmtree(out)
    return files


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs fork")
@pytest.mark.usefixtures("no_hang")
class TestFeaturesPool:
    @pytest.fixture
    def fits_here(self, monkeypatch):
        """Counts of the lasso fits, RFE fits and trees run in this process."""
        here = dict.fromkeys(("lasso", "rfe", "tree"), 0)
        for module, name, key in ((pipeline, "lasso_coefficients", "lasso"),
                                  (feature_selection, "fit_logreg", "rfe"),
                                  (tree, "_grow_levels", "tree")):
            def counted(*args, _f=getattr(module, name), _key=key, **kwargs):
                here[_key] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return here

    def test_one_and_two_cpus_write_the_same_files(
            self, monkeypatch, tmp_path, survey_csv, fits_here):
        out = tmp_path / "out"
        written = {}
        for cpus in (1, 2):
            visible_cpus(monkeypatch, cpus)
            fits_here.update(dict.fromkeys(fits_here, 0))
            pipeline.run_features(features_cfg(survey_csv, out))
            # 10 path lambdas (0.01 among them), 21 - 10 RFE rounds
            assert fits_here == (
                {"lasso": 10, "rfe": 11, "tree": FEATURES_TREES} if cpus == 1
                else {"lasso": 0, "rfe": 0, "tree": 0})
            assert multiprocessing.active_children() == []
            written[cpus] = take_artifacts(out)
        assert sorted(written[1]) == [
            "consensus.csv", "forest_importance.csv", "lasso_coefs.csv",
            "lasso_path.csv", "report.json", "rfe.csv"]
        assert written[1] == written[2]

    def test_wrapped_selectors_stay_in_this_process(
            self, monkeypatch, tmp_path, survey_csv):
        # perfbench/tracer.py wraps these pipeline globals with functools.wraps;
        # pickle resolves such a wrapper to the function it wraps and refuses it,
        # so the pool must only ever send its own job functions
        visible_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        pipeline.run_features(features_cfg(survey_csv, out))
        plain = take_artifacts(out)
        calls = []
        for name in ("rfe", "lasso_coefficients", "fit_forest"):
            @functools.wraps(getattr(pipeline, name))
            def wrapped(*args, _f=getattr(pipeline, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, wrapped)
            with pytest.raises(pickle.PicklingError):
                pickle.dumps(getattr(pipeline, name))
        pipeline.run_features(features_cfg(survey_csv, out))
        assert calls == ["fit_forest"]  # the others ran in the workers
        assert multiprocessing.active_children() == []
        assert take_artifacts(out) == plain

    FAILING = """
import multiprocessing, os, sys
from diabrisk import cli, pipeline
from diabrisk.errors import SingleClass
os.sched_getaffinity = lambda pid: {{0, 1}}
def fail(*args, **kwargs):
    {fail}
pipeline.{site} = fail
data, out, config = sys.argv[1:]
try:
    print("exit", cli.main(["features", "--data", data, "--out", out,
                            "--config", config]))
except Exception as error:
    print(type(error).__name__, error)
print("children", len(multiprocessing.active_children()))
"""

    @pytest.mark.parametrize("site", ["rfe", "lasso_coefficients"])
    @pytest.mark.parametrize("fail, printed", [
        # a training error exits 3, as when the selectors ran in this process
        ("raise SingleClass('no fit today')", "exit 3"),
        ("raise ValueError('no fit today')", "ValueError no fit today"),
        ("os._exit(3)", "BrokenProcessPool"),
    ], ids=["training-error", "raises", "dies"])
    def test_failing_job_surfaces(self, tmp_path, survey_csv, site, fail, printed):
        out = tmp_path / "out"
        config = tmp_path / "features.cfg"
        config.write_text(f"forest.n_trees = {FEATURES_TREES}\n")
        proc = subprocess.run(
            [sys.executable, "-c", self.FAILING.format(site=site, fail=fail),
             survey_csv, str(out), str(config)],
            env=child_env(), capture_output=True, text=True, timeout=120,
            check=True)
        lines = proc.stdout.splitlines()
        assert lines[0].startswith(printed)
        assert lines[-1] == "children 0"
        if printed == "exit 3":
            assert proc.stderr == "training error: no fit today\n"
        # every result is in before the first selector file is written
        assert os.listdir(out) == []

    STALLED = """
import os, sys, time
from diabrisk import cli, pipeline
os.sched_getaffinity = lambda pid: {{0, 1}}
def visit(*args, _f, stalls):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    if stalls:
        time.sleep(300)
    return _f(*args)
for name in ("rfe", "lasso_coefficients"):
    setattr(pipeline, name, lambda *args, _f=getattr(pipeline, name),
            _stalls=name == "{site}": visit(*args, _f=_f, stalls=_stalls))
cli.main(["features", "--data", sys.argv[2], "--out", sys.argv[3]])
"""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process states from /proc")
    @pytest.mark.parametrize("site", ["rfe", "lasso_coefficients"])
    def test_workers_die_with_a_killed_parent(self, tmp_path, survey_csv, site):
        # the RFE job goes to one worker and the first lambda to the other:
        # each marks its worker's pid before the stalled one stops
        pids = tmp_path / "pids"
        pids.mkdir()
        assert_workers_die_with_parent(
            [sys.executable, "-c", self.STALLED.format(site=site), str(pids),
             survey_csv, str(tmp_path / "out")], pids)


def test_cli_import_loads_no_process_pool():
    script = ("import sys, diabrisk.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", script], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestEmptyForest:
    def test_impurity_importance(self):
        with pytest.raises(DimensionMismatch, match="at least one tree"):
            impurity_importance(())

    # importance rows are an (n_trees, p) matrix; the mean of a lone tree's
    # row would be a scalar
    @pytest.mark.parametrize("rows", [
        np.empty((0, 3)), np.array([0.25, 0.75]), np.float64(1.0), np.ones((2, 3, 1)),
    ], ids=["no-rows", "one-tree-row", "scalar", "three-d"])
    def test_rows_not_a_matrix(self, rows):
        with pytest.raises(DimensionMismatch, match="at least one tree"):
            impurity_importance(rows)

import hashlib

import numpy as np
import pytest

from diabrisk.errors import (
    BadParams, DataError, DimensionMismatch, EmptyNode, SingleClass,
)
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

import numpy as np
import pytest

from diabrisk.dataset import LabelVector
from diabrisk.errors import DimensionMismatch, EmptyNode, SingleClass
from diabrisk.tree import (
    DecisionTreeModel,
    ForestParams,
    Internal,
    Leaf,
    TreeParams,
    fit_forest,
    fit_tree,
    gini_impurity,
    impurity_importance,
    predict_forest,
    predict_tree,
    tree_from_text,
    tree_to_text,
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


def walk(node):
    yield node
    if isinstance(node, Internal):
        yield from walk(node.left)
        yield from walk(node.right)


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
        assert isinstance(model.root, Leaf)
        assert model.root.predicted_class == 1

    def test_memorizes_distinct_rows(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        model = fit_tree(X, y)
        labels, _ = predict_tree(model, X)
        assert np.array_equal(labels.values, y)

    def test_memorizes_xor(self):
        X = np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.]])
        y = np.array([0, 1, 1, 0])
        model = fit_tree(X, y)
        labels, _ = predict_tree(model, X)
        assert np.array_equal(labels.values, y)

    def test_income_style_threshold_bound(self):
        rng = np.random.default_rng(1)
        x = rng.integers(1, 9, size=500).astype(float)
        y = (x + rng.normal(scale=2.0, size=500) < 4).astype(int)
        model = fit_tree(x.reshape(-1, 1), y)
        thresholds = {
            n.threshold for n in walk(model.root) if isinstance(n, Internal)
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
                assert isinstance(model.root, Leaf)
                continue
            root = model.root
            assert isinstance(root, Internal)
            # the chosen threshold must achieve the brute-force optimum
            # (equal-gain ties may legitimately pick a different cut)
            assert root.weighted_impurity_decrease == pytest.approx(decrease)
            left = y[x <= root.threshold]
            right = y[x > root.threshold]
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

        def check(node, depth):
            if isinstance(node, Leaf):
                assert depth <= 6
                assert sum(node.class_counts) >= 4
                return
            assert node.weighted_impurity_decrease >= 0
            assert 0.0 <= node.impurity <= 0.5
            check(node.left, depth + 1)
            check(node.right, depth + 1)

        check(model.root, 0)

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


class TestPredictTree:
    def test_single_leaf_scores(self):
        model = fit_tree(np.ones((10, 2)), np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 1]))
        assert isinstance(model.root, Leaf)
        labels, scores = predict_tree(model, np.zeros((4, 2)))
        assert np.all(scores == 0.8)
        assert np.all(labels.values == 1)

    def test_leaf_tie_predicts_class_one(self):
        model = fit_tree(np.ones((4, 1)), np.array([0, 0, 1, 1]))
        labels, _ = predict_tree(model, np.ones((2, 1)))
        assert np.all(labels.values == 1)

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
            X, y, ForestParams(n_trees=1, bootstrap=False, max_features=4)
        )
        single = fit_tree(X, y)
        assert tree_to_text(forest.trees[0]) == tree_to_text(single)

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] > 0.2).astype(int)
        a = fit_forest(X, y, ForestParams(n_trees=5, seed=9))
        b = fit_forest(X, y, ForestParams(n_trees=5, seed=9))
        assert all(
            tree_to_text(ta) == tree_to_text(tb)
            for ta, tb in zip(a.trees, b.trees)
        )

    def test_informative_feature_dominates_importance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 5))
        y = (X[:, 0] > np.median(X[:, 0])).astype(int)
        flip = rng.random(300) < 0.05
        y[flip] = 1 - y[flip]
        forest = fit_forest(X, y, ForestParams(n_trees=30, seed=1))
        importance = impurity_importance(forest)
        assert int(np.argmax(importance.values)) == 0
        assert importance.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_leaf_forest_uniform_flagged(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        forest = fit_forest(
            X, y,
            ForestParams(n_trees=3, tree=TreeParams(min_samples_split=100)),
        )
        importance = impurity_importance(forest)
        assert importance.degenerate
        assert np.allclose(importance.values, 1.0 / 3)

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
        assert np.mean(labels.values == y) > 0.9


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
        assert np.array_equal(la.values, lb.values)
        assert np.array_equal(sa, sb)
        assert restored.feature_names == ("a", "b", "c")
        assert restored.params.max_depth == 8

    def test_round_trip_deeper_than_recursion_limit(self):
        # a chain: each split sends x <= i + 0.5 to a leaf, the rest deeper
        depth = 3000
        root = node = Internal(0, 0.5, 0.5, depth + 1, 0.0)
        for i in range(depth):
            node.left = Leaf(0, 1) if i % 2 else Leaf(1, 0)
            if i == depth - 1:
                node.right = Leaf(1, 1)
            else:
                node.right = Internal(0, i + 1.5, 0.5, depth - i, 0.0)
                node = node.right
        model = DecisionTreeModel(root=root, params=TreeParams(), n_features=1)
        text = tree_to_text(model)
        restored = tree_from_text(text)
        assert tree_to_text(restored) == text
        Xq = np.arange(-1.0, depth + 2.0).reshape(-1, 1)
        la, sa = predict_tree(model, Xq)
        lb, sb = predict_tree(restored, Xq)
        assert np.array_equal(la.values, lb.values)
        assert np.array_equal(sa, sb)

import statistics
from dataclasses import replace

import numpy as np
import pytest

from diabrisk import gridsearch
from diabrisk.dataset import count_tables
from diabrisk.errors import BadParams, DataError, FoldDegenerate, SingleClass
from diabrisk.gridsearch import (
    CvConfig,
    grid_search,
    k_fold_indices,
)
from diabrisk.logistic import LogRegParams, fit_logreg, predict_proba
from diabrisk.metrics import roc_curve
from diabrisk.tree import TreeParams, fit_tree, predict_tree, tree_to_text


def small_problem(seed=0, n=120, p=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = (X[:, 0] - 0.5 * X[:, 1] + rng.normal(scale=0.7, size=n) > 0).astype(int)
    return X, y


class TestKFoldIndices:
    def test_sizes_differ_by_at_most_one(self):
        folds = k_fold_indices(11, 5, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [2, 2, 2, 2, 3]

    def test_partition(self):
        folds = k_fold_indices(23, 4, seed=1)
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(23))

    def test_deterministic(self):
        a = k_fold_indices(30, 5, seed=7)
        b = k_fold_indices(30, 5, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_assignment(self):
        a = k_fold_indices(30, 5, seed=1)
        b = k_fold_indices(30, 5, seed=2)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_bad_k(self):
        with pytest.raises(BadParams, match="cannot split 3 rows into 5 folds"):
            k_fold_indices(3, 5, seed=0)
        with pytest.raises(BadParams, match="cannot split 3 rows into 0 folds"):
            k_fold_indices(3, 0, seed=0)


class TestDrawFolds:
    # 3 positives among 12 rows in 3 folds: most draws leave a fold without
    # one, and only seed 1's first draw holds
    Y = np.array([1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0])
    PINNED = {
        0: [[11, 1, 3, 9], [8, 2, 7, 6], [10, 0, 4, 5]],
        1: [[8, 11, 4, 7], [5, 0, 1, 9], [2, 10, 6, 3]],
        2: [[1, 8, 5, 11], [7, 4, 3, 10], [0, 2, 6, 9]],
        3: [[8, 6, 7, 4], [9, 1, 5, 0], [3, 10, 11, 2]],
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_folds(self, seed):
        pairs = gridsearch._draw_folds(self.Y, 12, CvConfig(folds=3, seed=seed))
        assert [valid.tolist() for _, valid in pairs] == self.PINNED[seed]
        first_draw = [f.tolist() for f in k_fold_indices(12, 3, seed)]
        assert (first_draw == self.PINNED[seed]) == (seed == 1)
        for train, valid in pairs:
            assert train.tolist() == sorted(set(range(12)) - set(valid.tolist()))

    def test_no_draw_has_both_classes(self):
        # four folds cannot each hold one of three positives
        with pytest.raises(FoldDegenerate):
            gridsearch._draw_folds(self.Y, 12, CvConfig(folds=4, seed=0))


class TestGridSearch:
    def test_fit_count_five_by_two_grid(self):
        X, y = small_problem()
        grid = {"C": [0.1, 0.3, 1.0, 3.0, 10.0],
                "optimizer": ["gradient", "coordinate"]}
        result = grid_search(X, y, "logistic", grid, CvConfig(folds=5))
        assert result.n_fits == 50
        assert len(result.combos) == 10
        assert result.scores.shape == (10, 5)

    def test_single_combo(self):
        X, y = small_problem(seed=1)
        result = grid_search(X, y, "logistic", {"C": [1.0]}, CvConfig(folds=3))
        assert result.n_fits == 3
        assert result.best_params == {"C": 1.0}

    def test_best_is_maximal(self):
        X, y = small_problem(seed=2)
        result = grid_search(X, y, "tree",
                             {"max_depth": [1, 3, None]}, CvConfig(folds=3))
        assert all(result.best_mean_score >= m
                   for m in result.scores.mean(axis=1))

    def test_mean_and_std_recomputed(self):
        X, y = small_problem(seed=3)
        result = grid_search(X, y, "logistic", {"C": [0.5, 2.0]},
                             CvConfig(folds=4))
        for i, fold_scores in enumerate(result.scores.tolist()):
            assert result.scores.mean(axis=1)[i] == pytest.approx(
                sum(fold_scores) / len(fold_scores))
            assert result.scores.std(axis=1)[i] == pytest.approx(
                statistics.pstdev(fold_scores))
            assert all(0.0 <= s <= 1.0 for s in fold_scores)

    def test_tie_prefers_grid_order(self):
        X, y = small_problem(seed=4, n=60)
        # duplicate combo guarantees an exact tie; first must win
        result = grid_search(X, y, "logistic", {"C": [1.0, 1.0]},
                             CvConfig(folds=3))
        assert np.array_equal(result.scores[0], result.scores[1])
        assert result.best_params == result.combos[0]

    def test_deterministic_under_seed(self):
        X, y = small_problem(seed=5)
        a = grid_search(X, y, "logistic", {"C": [0.1, 1.0]}, CvConfig(seed=11))
        b = grid_search(X, y, "logistic", {"C": [0.1, 1.0]}, CvConfig(seed=11))
        assert a.combos == b.combos and a.best == b.best
        assert np.array_equal(a.scores, b.scores)

    def test_appending_best_again_keeps_winner(self):
        X, y = small_problem(seed=6)
        base = {"max_depth": [1, 2, 4]}
        first = grid_search(X, y, "tree", base, CvConfig(folds=3))
        extended = {"max_depth": base["max_depth"]
                    + [first.best_params["max_depth"]]}
        second = grid_search(X, y, "tree", extended, CvConfig(folds=3))
        assert second.best_params == first.best_params
        assert second.best_mean_score == first.best_mean_score

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(SingleClass):
            grid_search(X, np.zeros(20, dtype=int), "logistic", {"C": [1.0]})

    def test_degenerate_folds_redrawn_or_raised(self):
        # 2 positives among 12 rows with 6 folds: most draws isolate them
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 2))
        y = np.zeros(12, dtype=int)
        y[:2] = 1
        try:
            result = grid_search(X, y, "logistic", {"C": [1.0]},
                                 CvConfig(folds=6, seed=0))
            assert result.n_fits == 6
        except FoldDegenerate:
            pass  # acceptable after 10 failed re-draws

    def test_unknown_family(self):
        X, y = small_problem()
        with pytest.raises(BadParams):
            grid_search(X, y, "svm", {"C": [1.0]})

    def test_cells_start_from_base(self):
        X, y = small_problem(seed=7)
        result = grid_search(X, y, "tree", {"max_depth": [2, 3]},
                             CvConfig(folds=3),
                             base=TreeParams(min_samples_leaf=80))
        # leaves of 80 rows out of 80 training rows: no split is possible
        assert np.all(result.scores == 0.5)

    @pytest.mark.parametrize("grid", [
        {"C": [1.0], "penalty_typo": ["l1"]},
        {"C": [0.0, 1.0]},
        {"optimizer": ["newton"]},
    ])
    def test_bad_grid_rejected(self, grid):
        X, y = small_problem()
        with pytest.raises(BadParams):
            grid_search(X, y, "logistic", grid)

    def test_empty_grid_dimension(self):
        X, y = small_problem()
        with pytest.raises(BadParams):
            grid_search(X, y, "logistic", {"C": []})


class TestTreeCountTables:
    """The tree family fits and scores count tables; its scores equal
    fitting and scoring each fold's rows."""

    GRID = {"max_depth": [None, 2], "min_samples_leaf": [1, 12],
            "min_samples_split": [2, 40]}
    CV = CvConfig(folds=4, seed=3)

    @staticmethod
    def duplicated_problem():
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.integers(1, 9, size=400),
                             rng.integers(0, 2, size=400),
                             rng.integers(0, 4, size=400)]).astype(float)
        y = ((9 - X[:, 0]) * 0.3 + X[:, 1] + rng.logistic(size=400) > 2.0)
        return X, y.astype(int)

    def test_scores_equal_fits_on_rows(self):
        X, y = self.duplicated_problem()
        assert np.unique(X, axis=0).shape[0] < 70  # heavily duplicated
        result = grid_search(X, y, "tree", self.GRID, self.CV)
        folds = gridsearch._draw_folds(y, X.shape[0], self.CV)
        want = np.array([
            [roc_curve(y[valid], predict_tree(
                fit_tree(X[train], y[train], TreeParams(**cell)), X[valid])[1]).auc
             for train, valid in folds]
            for cell in result.combos
        ])
        assert result.scores.dtype == want.dtype
        assert result.scores.tobytes() == want.tobytes()
        assert len(np.unique(want)) > 4  # the cells do differ

    def test_non_finite_x_is_data_error(self):
        # a NaN once gave a cut with a NaN threshold and an unrelated EmptyNode
        X, y = small_problem(n=200, p=2)
        X[::7, 1] = np.nan
        with pytest.raises(DataError, match="non-finite value at row 0, column 1"):
            grid_search(X, y, "tree", {"max_depth": [None, 2]}, CvConfig(folds=3))

    def test_every_fit_goes_through_module_globals(self, monkeypatch):
        X, y = self.duplicated_problem()
        calls, result = _global_calls(
            monkeypatch, ("fit_tree", "predict_tree"),
            lambda: grid_search(X, y, "tree", self.GRID, self.CV))
        assert result.n_fits == 8 * 4
        # one fit per fold and min_samples_leaf; one prediction and curve
        # per distinct tree (its text less the params line) of a fold and
        # min_samples_leaf
        folds = gridsearch._draw_folds(y, X.shape[0], self.CV)
        distinct = sum(
            len({tree_to_text(fit_tree(X[train], y[train], TreeParams(**cell)))
                 .partition("\n")[2]
                 for cell in result.combos if cell["min_samples_leaf"] == leaf})
            for train, _ in folds for leaf in self.GRID["min_samples_leaf"])
        assert 4 <= distinct < result.n_fits
        assert calls == {"fit_tree": 4 * 2, "predict_tree": distinct,
                         "roc_curve": distinct}

    def test_cells_in_shuffled_order(self):
        X, y = self.duplicated_problem()
        grid = {"min_samples_split": [40, 2, 7], "max_depth": [2, None, 1],
                "min_samples_leaf": [12, 1]}
        result = grid_search(X, y, "tree", grid, self.CV)
        assert result.scores.tobytes() == _tree_scores_on_rows(
            X, y, result.combos, self.CV).tobytes()

    def test_trees_of_one_size_scored_apart(self):
        rng = np.random.default_rng(2)
        x = rng.integers(1, 9, size=200).astype(float)
        y = (x + rng.normal(scale=2.0, size=200) < 4).astype(int)
        X = x[:, None]
        cells = [TreeParams(max_depth=2),
                 TreeParams(max_depth=3, min_samples_split=80)]
        trees = [fit_tree(X, y, cell) for cell in cells]
        # seven nodes each, cut in different places
        assert trees[0].right.size == trees[1].right.size == 7
        assert trees[0].right.tolist() != trees[1].right.tolist()
        want = [roc_curve(y, predict_tree(model, X)[1]).auc for model in trees]
        assert want[0] != want[1]
        table = count_tables(X, y)()
        assert gridsearch._score_tree(cells, (table, table)) == want

    def test_bounded_cells_grow_one_unbounded_tree(self, monkeypatch):
        X, y = self.duplicated_problem()
        grown = []
        fit = gridsearch.fit_tree

        def recording(X, y, params, **kw):
            grown.append(params)
            return fit(X, y, params, **kw)

        monkeypatch.setattr(gridsearch, "fit_tree", recording)
        result = grid_search(X, y, "tree", {"max_depth": [2, 3]}, self.CV,
                             base=TreeParams(min_samples_split=9))
        # stop_early alone applies max_depth and min_samples_split
        assert grown == [TreeParams(min_samples_leaf=1)] * 4
        assert result.scores.tobytes() == _tree_scores_on_rows(
            X, y, result.combos, self.CV,
            TreeParams(min_samples_split=9)).tobytes()


def _tree_scores_on_rows(X, y, combos, cv, base=TreeParams()):
    """The tree family's scores of fits per cell on each fold's rows."""
    folds = gridsearch._draw_folds(y, X.shape[0], cv)
    return np.array([
        [roc_curve(y[valid], predict_tree(
            fit_tree(X[train], y[train], replace(base, **cell)), X[valid])[1]).auc
         for train, valid in folds]
        for cell in combos
    ])


def _global_calls(monkeypatch, names, search):
    """Calls of ``names`` and ``roc_curve`` through gridsearch's module
    globals, where the benchmark's tracer wraps them, while ``search``
    runs; and the search's result."""
    names = (*names, "roc_curve")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        func = getattr(gridsearch, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(gridsearch, name, counted(name))
    result = search()
    return calls, result


def _sliced_scores(X, y, combos, cv):
    """The logistic family's scores as they were computed before it fitted
    count tables: each cell fitted on and scored against each fold's rows."""
    folds = gridsearch._draw_folds(y, X.shape[0], cv)
    return np.array([
        [roc_curve(y[valid], predict_proba(
            fit_logreg(X[train], y[train], LogRegParams(**cell)),
            X[valid])).auc
         for train, valid in folds]
        for cell in combos
    ])


class TestLogisticCountTables:
    """The logistic family fits and scores count tables; its scores equal
    fitting and scoring each fold's rows, up to rounding."""

    GRID = {"C": [0.001, 0.1, 10.0, 1000.0],
            "optimizer": ["gradient", "coordinate"]}

    @pytest.mark.parametrize("problem", ["duplicated", "distinct"])
    def test_scores_equal_fits_on_rows(self, problem):
        if problem == "duplicated":
            X, y = TestTreeCountTables.duplicated_problem()
        else:
            X, y = small_problem(n=300, p=4)
        cv = TestTreeCountTables.CV
        result = grid_search(X, y, "logistic", self.GRID, cv)
        want = _sliced_scores(X, y, result.combos, cv)
        np.testing.assert_allclose(result.scores, want, rtol=0, atol=1e-12)
        assert len(np.unique(want)) > 4  # the cells do differ

    def test_every_fit_goes_through_module_globals(self, monkeypatch):
        X, y = TestTreeCountTables.duplicated_problem()
        calls, result = _global_calls(
            monkeypatch, ("fit_logreg", "predict_proba"),
            lambda: grid_search(X, y, "logistic", self.GRID,
                                TestTreeCountTables.CV))
        assert result.n_fits == 8 * 4
        assert calls == {name: result.n_fits for name in calls}

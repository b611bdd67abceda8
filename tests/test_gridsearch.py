import numpy as np
import pytest

from diabrisk.errors import BadParams, FoldDegenerate, SingleClass
from diabrisk.gridsearch import (
    CvConfig,
    grid_search,
    k_fold_indices,
)
from diabrisk.tree import TreeParams


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
        with pytest.raises(BadParams):
            k_fold_indices(3, 5, seed=0)
        with pytest.raises(BadParams):
            k_fold_indices(3, 0, seed=0)


class TestGridSearch:
    def test_fit_count_five_by_two_grid(self):
        X, y = small_problem()
        grid = {"C": [0.1, 0.3, 1.0, 3.0, 10.0],
                "optimizer": ["gradient", "coordinate"]}
        result = grid_search(X, y, "logistic", grid, CvConfig(folds=5))
        assert result.n_fits == 50
        assert len(result.cells) == 10
        assert all(len(c.fold_scores) == 5 for c in result.cells)

    def test_single_combo(self):
        X, y = small_problem(seed=1)
        result = grid_search(X, y, "logistic", {"C": [1.0]}, CvConfig(folds=3))
        assert result.n_fits == 3
        assert result.best_params == {"C": 1.0}

    def test_best_is_maximal(self):
        X, y = small_problem(seed=2)
        result = grid_search(X, y, "tree",
                             {"max_depth": [1, 3, None]}, CvConfig(folds=3))
        assert all(result.best_mean_score >= c.mean_score
                   for c in result.cells)

    def test_mean_and_std_recomputed(self):
        X, y = small_problem(seed=3)
        result = grid_search(X, y, "logistic", {"C": [0.5, 2.0]},
                             CvConfig(folds=4))
        for cell in result.cells:
            assert cell.mean_score == pytest.approx(np.mean(cell.fold_scores))
            assert cell.std_score == pytest.approx(np.std(cell.fold_scores))
            assert all(0.0 <= s <= 1.0 for s in cell.fold_scores)

    def test_tie_prefers_grid_order(self):
        X, y = small_problem(seed=4, n=60)
        # duplicate combo guarantees an exact tie; first must win
        result = grid_search(X, y, "logistic", {"C": [1.0, 1.0]},
                             CvConfig(folds=3))
        assert result.cells[0].fold_scores == result.cells[1].fold_scores
        assert result.best_params == result.cells[0].params

    def test_deterministic_under_seed(self):
        X, y = small_problem(seed=5)
        a = grid_search(X, y, "logistic", {"C": [0.1, 1.0]}, CvConfig(seed=11))
        b = grid_search(X, y, "logistic", {"C": [0.1, 1.0]}, CvConfig(seed=11))
        assert a == b

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
        assert all(s == 0.5 for c in result.cells for s in c.fold_scores)

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

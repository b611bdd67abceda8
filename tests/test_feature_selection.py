import numpy as np
import pytest

from diabrisk.errors import BadParams, DimensionMismatch
from diabrisk.feature_selection import _rank_with_ties, consensus_rank, rfe
from diabrisk.logistic import LogRegParams, fit_logreg
from diabrisk.tree import ForestParams, fit_forest, impurity_importance


def loop_rank_with_ties(values):
    """Reference: walk the values largest first and give each run of exact
    ties the average of the positions it covers."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    return ranks


def informative_problem(seed=0, n=300, strong=(0, 1), p=6):
    """Labels driven by two columns; the rest are pure noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    logits = 3.0 * X[:, strong[0]] + 3.0 * X[:, strong[1]]
    y = (logits + rng.normal(scale=0.5, size=n) > 0).astype(int)
    names = [f"f{i}" for i in range(p)]
    return X, y, names


class TestRfe:
    def test_select_all_gives_rank_one_everywhere(self):
        X, y, _ = informative_problem()
        ranks = rfe(X, y, 6)
        assert ranks.tolist() == [1] * 6

    def test_keeps_informative_pair(self):
        X, y, _ = informative_problem(seed=1)
        assert np.flatnonzero(rfe(X, y, 2) == 1).tolist() == [0, 1]

    def test_ranks_form_expected_multiset(self):
        X, y, _ = informative_problem(seed=2)
        ranks = rfe(X, y, 3)
        # 3 survivors at rank 1, eliminated at distinct ranks 2..4
        assert ranks.dtype.kind == "i"
        assert sorted(ranks.tolist()) == [1, 1, 1, 2, 3, 4]

    def test_deterministic(self):
        X, y, _ = informative_problem(seed=3)
        assert np.array_equal(rfe(X, y, 2), rfe(X, y, 2))

    def test_drops_first_smallest_standardized_weight(self):
        """Oracle: the feature ranked r was dropped from the columns ranked
        1 or <= r, as the first smallest |standardized weight| of a refit."""
        rng = np.random.default_rng(11)
        for trial in range(5):
            X = rng.normal(size=(200, 7))
            w = rng.normal(size=7)
            y = (X @ w + rng.normal(size=200) > 0).astype(int)
            ranks = rfe(X, y, 2)
            for r in range(2, ranks.max() + 1):
                columns = np.flatnonzero(ranks <= r)
                model = fit_logreg(X[:, columns], y, LogRegParams())
                magnitudes = np.abs(model.weights_standardized)
                dropped = columns[np.flatnonzero(magnitudes == magnitudes.min())[0]]
                assert ranks[dropped] == r, (trial, r)

    def test_n_select_too_large(self):
        X, y, _ = informative_problem()
        with pytest.raises(BadParams):
            rfe(X, y, 7)

    def test_n_select_zero(self):
        X, y, _ = informative_problem()
        with pytest.raises(BadParams):
            rfe(X, y, 0)


class TestConsensus:
    def _inputs(self, seed=0):
        X, y, names = informative_problem(seed=seed)
        forest = fit_forest(X, y, ForestParams(n_trees=15, seed=seed))
        importance, _ = impurity_importance(forest)
        lasso = np.zeros(6)
        lasso[0], lasso[1] = 2.0, -1.5
        return lasso, importance, rfe(X, y, 2)

    def test_unanimous_features_lead(self):
        ranking = consensus_rank(*self._inputs())
        assert set(np.argsort(ranking["mean_rank"], kind="stable")[:2]) == {0, 1}

    def test_each_column_is_tied_permutation(self):
        ranking = consensus_rank(*self._inputs(seed=1))
        p = 6
        assert list(ranking) == ["lasso_rank", "forest_rank", "rfe_rank",
                                 "mean_rank"]
        for column in (ranking["lasso_rank"], ranking["forest_rank"],
                       ranking["rfe_rank"]):
            assert sum(column) == pytest.approx(p * (p + 1) / 2)
            assert min(column) >= 1 and max(column) <= p

    def test_lasso_ties_averaged(self):
        ranking = consensus_rank(*self._inputs())
        # four exact zeros share ranks 3..6 -> average 4.5
        zero_ranks = [ranking["lasso_rank"][i] for i in range(2, 6)]
        assert zero_ranks == [4.5] * 4

    def test_tie_ranks_match_loop_reference(self):
        rng = np.random.default_rng(0)
        for trial in range(2000):
            n = int(rng.integers(1, 30))
            if trial % 2:  # many exact ties, signed zeros among them
                values = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=n)
            else:
                values = rng.normal(size=n)
            assert np.array_equal(_rank_with_ties(values),
                                  loop_rank_with_ties(values))

    def test_mean_is_column_average(self):
        ranking = consensus_rank(*self._inputs(seed=2))
        for i in range(6):
            expected = (
                ranking["lasso_rank"][i]
                + ranking["forest_rank"][i]
                + ranking["rfe_rank"][i]
            ) / 3.0
            assert ranking["mean_rank"][i] == pytest.approx(expected)

    def test_name_mismatch_rejected(self):
        lasso, importance, ranks = self._inputs()
        with pytest.raises(DimensionMismatch):
            consensus_rank(lasso[:-1], importance, ranks)

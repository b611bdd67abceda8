import numpy as np
import pytest

from diabrisk.errors import BadParams, FeatureMismatch
from diabrisk.feature_selection import (
    RfeParams,
    _rank_with_ties,
    consensus_rank,
    rfe,
)
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
        X, y, names = informative_problem()
        result = rfe(X, y, names, RfeParams(n_select=6))
        assert result.ranks == (1,) * 6
        assert result.selected == (True,) * 6
        assert result.elimination_order == ()

    def test_keeps_informative_pair(self):
        X, y, names = informative_problem(seed=1)
        result = rfe(X, y, names, RfeParams(n_select=2))
        assert set(result.selected_names()) == {"f0", "f1"}

    def test_ranks_form_expected_multiset(self):
        X, y, names = informative_problem(seed=2)
        result = rfe(X, y, names, RfeParams(n_select=3))
        # 3 survivors at rank 1, eliminated at distinct ranks 2..4
        assert sorted(result.ranks) == [1, 1, 1, 2, 3, 4]
        last_dropped = result.elimination_order[-1]
        assert result.ranks[names.index(last_dropped)] == 2
        first_dropped = result.elimination_order[0]
        assert result.ranks[names.index(first_dropped)] == 4

    def test_deterministic(self):
        X, y, names = informative_problem(seed=3)
        a = rfe(X, y, names, RfeParams(n_select=2))
        b = rfe(X, y, names, RfeParams(n_select=2))
        assert a == b

    def test_step_larger_than_one(self):
        X, y, names = informative_problem(seed=5)
        result = rfe(X, y, names, RfeParams(n_select=2, step=2))
        assert len(result.selected_names()) == 2
        assert len(result.elimination_order) == 4

    def test_feature_name_mismatch(self):
        X, y, names = informative_problem()
        with pytest.raises(FeatureMismatch):
            rfe(X, y, names[:-1])

    def test_n_select_too_large(self):
        X, y, names = informative_problem()
        with pytest.raises(BadParams):
            rfe(X, y, names, RfeParams(n_select=7))


class TestConsensus:
    def _inputs(self, seed=0):
        X, y, names = informative_problem(seed=seed)
        forest = fit_forest(X, y, ForestParams(n_trees=15, seed=seed))
        importance = impurity_importance(forest)
        rfe_result = rfe(X, y, names, RfeParams(n_select=2))
        lasso = np.zeros(6)
        lasso[0], lasso[1] = 2.0, -1.5
        return lasso, importance, rfe_result, names

    def test_unanimous_features_lead(self):
        lasso, importance, rfe_result, names = self._inputs()
        ranking = consensus_rank(lasso, importance, rfe_result, names)
        assert set(ranking.ordered_names()[:2]) == {"f0", "f1"}

    def test_each_column_is_tied_permutation(self):
        lasso, importance, rfe_result, names = self._inputs(seed=1)
        ranking = consensus_rank(lasso, importance, rfe_result, names)
        p = len(names)
        for column in (ranking.lasso_rank, ranking.forest_rank,
                       ranking.rfe_rank):
            assert sum(column) == pytest.approx(p * (p + 1) / 2)
            assert min(column) >= 1 and max(column) <= p

    def test_lasso_ties_averaged(self):
        lasso, importance, rfe_result, names = self._inputs()
        ranking = consensus_rank(lasso, importance, rfe_result, names)
        # four exact zeros share ranks 3..6 -> average 4.5
        zero_ranks = [ranking.lasso_rank[i] for i in range(2, 6)]
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
        lasso, importance, rfe_result, names = self._inputs(seed=2)
        ranking = consensus_rank(lasso, importance, rfe_result, names)
        for i in range(len(names)):
            expected = (
                ranking.lasso_rank[i]
                + ranking.forest_rank[i]
                + ranking.rfe_rank[i]
            ) / 3.0
            assert ranking.mean_rank[i] == pytest.approx(expected)

    def test_name_mismatch_rejected(self):
        lasso, importance, rfe_result, names = self._inputs()
        with pytest.raises(FeatureMismatch):
            consensus_rank(lasso, importance, rfe_result, list(reversed(names)))
        with pytest.raises(FeatureMismatch):
            consensus_rank(lasso[:-1], importance, rfe_result, names[:-1])

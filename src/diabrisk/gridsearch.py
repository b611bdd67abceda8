"""Exhaustive grid search scored by k-fold cross-validated ROC AUC.

The search runs fold by fold: it builds one fold's data once, scores every
grid cell on it and drops it before the next fold. Both families fit and
score count tables over the fold's distinct (row, label) pairs
(``dataset.count_tables``); a tree's scores equal those of fits on the
fold's rows (see ``tree``), and a logistic fit minimizes the same objective
as one on the fold's rows (see ``logistic``). The tables pay off when rows
repeat, as in the six-column health and one-column income tables; on a
wide table of nearly distinct rows they save no rows and cost a sort.

A family scores all cells of a fold at once, ``score(cells, fold)``: the
logistic family fits every cell, the tree family one tree per
``min_samples_leaf`` (``_score_tree``). ``n_fits`` counts cells x folds."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .dataset import as_labels, as_matrix, count_tables
from .errors import BadParams, FoldDegenerate, SingleClass
from .logistic import LogRegParams, fit_logreg, predict_proba
from .metrics import roc_curve
from .tree import TreeParams, fit_tree, predict_tree, stop_early

DEFAULT_LOGISTIC_GRID = {
    "C": [0.01, 0.1, 1.0, 10.0, 100.0],
    "optimizer": ["gradient", "coordinate"],
}

DEFAULT_TREE_GRID = {
    "max_depth": [None, 3, 5, 10],
    "min_samples_split": [2, 10, 50],
    "min_samples_leaf": [1, 5, 20],
}


@dataclass(frozen=True)
class CvConfig:
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise BadParams("folds must be >= 2")


@dataclass(frozen=True, eq=False)
class GridResult:
    family: str
    combos: tuple        # each cell's grid values, in grid order
    scores: np.ndarray   # cells x folds CV AUC

    @property
    def best(self) -> int:
        """Index of the best mean score; the first cell on exact ties, so
        grid order wins."""
        return int(np.argmax(self.scores.mean(axis=1)))

    @property
    def n_fits(self) -> int:
        return self.scores.size

    @property
    def best_params(self) -> dict:
        return dict(self.combos[self.best])

    @property
    def best_mean_score(self) -> float:
        return float(self.scores[self.best].mean())


def k_fold_indices(n: int, k: int, seed: int):
    """Shuffled partition into k validation folds; sizes differ by at most 1,
    earlier folds take the remainder."""
    if k > n or k < 1:
        raise BadParams(f"cannot split {n} rows into {k} folds: "
                        "need 1 <= k <= n")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


def _combinations(grid: dict):
    names = list(grid.keys())
    for values in itertools.product(*(grid[n] for n in names)):
        yield dict(zip(names, values))


# fit, predict and roc_curve are read as module globals at each call, so a
# wrapper set on those attributes (perfbench/tracer.py) sees every fit,
# prediction and curve of the search
def _score_logistic(cells, fold):
    """Each cell's AUC on ``fold``: one fit per cell, in grid order."""
    (X_train, y_train, n_train), (X_valid, y_valid, n_valid) = fold
    scores = []
    for params in cells:
        model = fit_logreg(X_train, y_train, params, counts=n_train)
        scores.append(roc_curve(y_valid, predict_proba(model, X_valid),
                                counts=n_valid).auc)
    return scores


def _score_tree(cells, fold):
    """Each cell's AUC on ``fold``: one fit per ``min_samples_leaf``, with
    the loosest stopping rules among its cells, from which ``stop_early``
    derives each cell's tree. Cells whose trees have the same shape share
    them, and each distinct tree is scored once."""
    (X_train, y_train, n_train), (X_valid, y_valid, n_valid) = fold
    scores = [None] * len(cells)
    groups = {}
    for i, params in enumerate(cells):
        groups.setdefault(params.min_samples_leaf, []).append(i)
    for group in groups.values():
        depths = [cells[i].max_depth for i in group]
        loosest = replace(
            cells[group[0]],
            max_depth=None if None in depths else max(depths),
            min_samples_split=min(cells[i].min_samples_split for i in group))
        grown = fit_tree(X_train, y_train, loosest, counts=n_train)
        scored = {}  # tree shape -> AUC
        for i in group:
            model = stop_early(grown, cells[i])
            # a derived tree's shape, its right children (a left child is
            # the next node in preorder), says which grown nodes it kept
            shape = model.right.tobytes()
            if shape not in scored:
                scored[shape] = roc_curve(
                    y_valid, predict_tree(model, X_valid)[1], counts=n_valid).auc
            scores[i] = scored[shape]
        del grown  # one grown tree is held at a time
    return scores


# family -> (params type, per-fold scorer of a list of cells, default grid)
FAMILIES = {
    "logistic": (LogRegParams, _score_logistic, DEFAULT_LOGISTIC_GRID),
    "tree": (TreeParams, _score_tree, DEFAULT_TREE_GRID),
}


def _draw_folds(y, n, cv: CvConfig):
    """(train, valid) index pairs whose sides all contain both classes of
    the 0/1 labels ``y``; re-drawn from a derived seed when violated, at
    most 10 attempts."""
    for attempt in range(10):
        seed = cv.seed if attempt == 0 else hash((cv.seed, attempt)) % (2**31)
        pairs = []
        for fold in k_fold_indices(n, cv.folds, seed):
            # a fold has both classes when its positives are neither none nor
            # all of it; a training side, the other folds, then has both too
            if not 0 < y[fold].sum() < fold.size:
                break
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            pairs.append((np.flatnonzero(mask), fold))
        else:
            return pairs
    raise FoldDegenerate("could not draw folds with both classes present")


def grid_search(X, y, family: str, grid: dict = None,
                cv: CvConfig = CvConfig(), base=None) -> GridResult:
    """Score every grid cell by CV AUC. Each cell's params are ``base`` (the
    family's defaults when None) with the cell's grid values replaced."""
    if family not in FAMILIES:
        raise BadParams(f"unknown model family: {family}")
    params_type, score, default_grid = FAMILIES[family]
    X = as_matrix(X)
    labels = as_labels(y, n_rows=X.shape[0])
    if not 0 < labels.sum() < labels.size:
        raise SingleClass("both classes are required for tuning")
    grid = default_grid if grid is None else grid
    if any(not values for values in grid.values()):
        raise BadParams("every grid dimension needs at least one value")
    combos = list(_combinations(grid))
    try:
        cell_params = [replace(base or params_type(), **c) for c in combos]
    except (TypeError, ValueError) as exc:
        raise BadParams(f"invalid {family} grid: {exc}") from None

    folds = _draw_folds(labels, X.shape[0], cv)
    scores = np.empty((len(cell_params), len(folds)))
    table = count_tables(X, labels)
    for f, (train, valid) in enumerate(folds):
        fold = (table(train), table(valid))
        scores[:, f] = score(cell_params, fold)
        del fold  # dropped before the next fold's data is built
    return GridResult(family=family, combos=tuple(combos), scores=scores)

"""Acceptance suite: end-to-end checks against published reference values plus a
dataset-independent property suite. Each numbered check prints one PASS/FAIL
line; dataset-backed checks print SKIP when the CSV is not available."""
import itertools

import numpy as np
import pytest

from diabrisk.dataset import (
    HEALTH_MODEL_FEATURES,
    INCOME_CODES,
    binarize_target,
    income_histogram,
    pearson_correlation,
    select_columns,
    train_test_split,
)
from diabrisk.feature_selection import rfe
from diabrisk.gridsearch import (
    DEFAULT_LOGISTIC_GRID,
    DEFAULT_TREE_GRID,
    CvConfig,
    grid_search,
)
from diabrisk.logistic import (
    LogRegParams,
    fit_logreg,
    lasso_coefficients,
    loss_and_gradient,
    predict_label,
    predict_proba,
)
from diabrisk.metrics import classification_report, roc_curve
from diabrisk.smote import SmoteParams, smote_balance
from diabrisk.tree import (
    ForestParams,
    TreeParams,
    fit_forest,
    fit_tree,
    impurity_importance,
    predict_tree,
)

from conftest import brfss_path

SEED = 42

# selected set published for RFE with 10 survivors
PUBLISHED_RFE_SELECTED = {
    "HighBP", "HighChol", "CholCheck", "Stroke", "HeartDiseaseorAttack",
    "HvyAlcoholConsump", "AnyHealthcare", "NoDocbcCost", "GenHlth", "Sex",
}


@pytest.fixture(scope="session")
def emit(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def write(text):
        if reporter is not None:
            reporter.write_line(text)
        else:
            print(text)

    return write


def check(emit, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    emit(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label} failed{suffix}"


def require_dataset(emit, label):
    path = brfss_path()
    if path is None:
        emit(f"{label}: SKIP (BRFSS-2015 CSV not available in this environment)")
        pytest.skip("dataset not available")
    return path


@pytest.fixture(scope="session")
def dataset():
    # returns None (rather than skipping) so each check can print its own
    # SKIP line before bailing out
    path = brfss_path()
    if path is None:
        return None
    from diabrisk.dataset import load_csv

    table = load_csv(path)
    features, labels = binarize_target(table)
    return table, features, labels


@pytest.fixture(scope="session")
def balanced_health(dataset):
    """SMOTE on the full table, then the 0.2 split, health features only."""
    if dataset is None:
        return None
    _, features, labels = dataset
    X = select_columns(features, HEALTH_MODEL_FEATURES).rows
    Xb, yb = smote_balance(X, labels, SmoteParams(seed=SEED))
    train, test = train_test_split(len(yb), 0.2, SEED)
    return Xb[train], yb[train], Xb[test], yb[test]


@pytest.fixture(scope="session")
def balanced_full(dataset):
    if dataset is None:
        return None
    _, features, labels = dataset
    Xb, yb = smote_balance(features.rows, labels, SmoteParams(seed=SEED))
    return list(features.names), Xb, yb


def test_1_unbalanced_baseline(emit):
    label = "[1] unbalanced baseline: accuracy 0.848 +/- 0.01, minority recall < 0.2"
    path = require_dataset(emit, label)
    from diabrisk.dataset import load_csv

    features, labels = binarize_target(load_csv(path))
    X = select_columns(features, HEALTH_MODEL_FEATURES).rows
    train, test = train_test_split(len(labels), 0.2, SEED)
    model = fit_logreg(X[train], labels[train], LogRegParams())
    y_test = labels[test]
    y_pred = predict_label(model, X[test])
    report = classification_report(y_test, y_pred)
    ok = abs(report.accuracy - 0.848) <= 0.01 and report.class1.recall < 0.2
    check(emit, label, ok,
          f"accuracy={report.accuracy:.4f}, minority recall="
          f"{report.class1.recall:.4f}")


def test_2_balanced_health_model(emit, balanced_health):
    label = ("[2] balanced health model: AUC 0.705 +/- 0.02, per-class "
             "precision/recall +/- 0.02, support 85482 +/- 2")
    require_dataset(emit, label)
    X_train, y_train, X_test, y_test = balanced_health
    model = fit_logreg(X_train, y_train, LogRegParams())
    scores = predict_proba(model, X_test)
    report = classification_report(y_test, predict_label(model, X_test))
    auc = roc_curve(y_test, scores).auc
    ok = (
        abs(auc - 0.705) <= 0.02
        and abs(report.class0.precision - 0.71) <= 0.02
        and abs(report.class0.recall - 0.69) <= 0.02
        and abs(report.class1.precision - 0.70) <= 0.02
        and abs(report.class1.recall - 0.72) <= 0.02
        and abs(report.total_support - 85482) <= 2
    )
    check(emit, label, ok,
          f"auc={auc:.4f}, p0={report.class0.precision:.3f}, "
          f"r0={report.class0.recall:.3f}, p1={report.class1.precision:.3f}, "
          f"r1={report.class1.recall:.3f}, support={report.total_support}")


def test_3_income_model(emit, dataset):
    label = "[3] income-only tree: AUC 0.601 +/- 0.02, per-class +/- 0.02"
    require_dataset(emit, label)
    _, features, labels = dataset
    X = select_columns(features, ["Income"]).rows
    Xb, yb = smote_balance(X, labels, SmoteParams(seed=SEED))
    train, test = train_test_split(len(yb), 0.2, SEED)
    model = fit_tree(Xb[train], yb[train])
    y_test = yb[test]
    y_pred, scores = predict_tree(model, Xb[test])
    report = classification_report(y_test, y_pred)
    auc = roc_curve(y_test, scores).auc
    ok = (
        abs(auc - 0.601) <= 0.02
        and abs(report.class0.precision - 0.61) <= 0.02
        and abs(report.class0.recall - 0.56) <= 0.02
        and abs(report.class1.precision - 0.59) <= 0.02
        and abs(report.class1.recall - 0.64) <= 0.02
    )
    check(emit, label, ok,
          f"auc={auc:.4f}, p0={report.class0.precision:.3f}, "
          f"r0={report.class0.recall:.3f}, p1={report.class1.precision:.3f}, "
          f"r1={report.class1.recall:.3f}")


def test_4_tuning(emit, balanced_health, dataset):
    label = ("[4] tuning: logistic grid = 50 fits selecting C=1; tree grid "
             "selects defaults; tuned CV mean >= default-cell CV mean")
    require_dataset(emit, label)
    X_train, y_train, _, _ = balanced_health
    cv = CvConfig(folds=5, seed=SEED)
    logistic = grid_search(
        X_train, y_train, "logistic", DEFAULT_LOGISTIC_GRID, cv
    )
    default_logistic = logistic.scores[
        logistic.combos.index({"C": 1.0, "optimizer": "gradient"})].mean()

    _, features, labels = dataset
    X = select_columns(features, ["Income"]).rows
    Xb, yb = smote_balance(X, labels, SmoteParams(seed=SEED))
    train, _ = train_test_split(len(yb), 0.2, SEED)
    tree = grid_search(Xb[train], yb[train], "tree", DEFAULT_TREE_GRID, cv)
    default_tree = tree.scores[tree.combos.index(
        {"max_depth": None, "min_samples_split": 2, "min_samples_leaf": 1})].mean()
    ok = (
        logistic.n_fits == 50
        and logistic.best_params["C"] == 1.0
        and tree.best_params["max_depth"] is None
        and tree.best_params["min_samples_split"] == 2
        and tree.best_params["min_samples_leaf"] == 1
        and logistic.best_mean_score >= default_logistic
        and tree.best_mean_score >= default_tree
    )
    check(emit, label, ok,
          f"n_fits={logistic.n_fits}, best C={logistic.best_params.get('C')}, "
          f"tree best={tree.best_params}, "
          f"tuned/default AUC={logistic.best_mean_score:.4f}/"
          f"{default_logistic:.4f}")


def test_5_feature_selection(emit, balanced_full):
    label = ("[5] feature selection: RFE keeps HighBP/HighChol/CholCheck with "
             ">= 6/10 overlap; forest and lasso place them in their top 10")
    require_dataset(emit, label)
    names, Xb, yb = balanced_full
    core = {"HighBP", "HighChol", "CholCheck"}

    ranks = rfe(Xb, yb, 10)
    selected = {n for n, r in zip(names, ranks) if r == 1}

    forest = fit_forest(Xb, yb, ForestParams(n_trees=25, seed=SEED))
    importance, _ = impurity_importance(forest)
    forest_top10 = {
        names[i] for i in np.argsort(-importance)[:10]
    }

    coefs = lasso_coefficients(Xb, yb, 0.01)
    lasso_top10 = {
        names[i] for i in np.argsort(-np.abs(coefs))[:10] if coefs[i] != 0.0
    }
    ok = (
        core <= selected
        and len(selected & PUBLISHED_RFE_SELECTED) >= 6
        and core <= forest_top10
        and core <= lasso_top10
    )
    check(emit, label, ok,
          f"rfe={sorted(selected)}, overlap="
          f"{len(selected & PUBLISHED_RFE_SELECTED)}/10")


def test_7_eda(emit, dataset):
    label = ("[7] EDA: corr(GenHlth, PhysHlth) > 0.3, corr(GenHlth, Income) "
             "< -0.2, income mode = 8")
    require_dataset(emit, label)
    table, _, _ = dataset
    corr, _ = pearson_correlation(table)
    i = table.index("GenHlth")
    j = table.index("PhysHlth")
    k = table.index("Income")
    # cross-check our Pearson against an independent implementation
    reference = np.corrcoef(table.rows, rowvar=False)
    assert abs(corr[i, j] - reference[i, j]) < 1e-10
    assert abs(corr[i, k] - reference[i, k]) < 1e-10
    counts = income_histogram(table)
    mode = INCOME_CODES[int(np.argmax(counts))]
    ok = corr[i, j] > 0.3 and corr[i, k] < -0.2 and mode == 8
    check(emit, label, ok,
          f"corr(GenHlth,PhysHlth)={corr[i, j]:.4f}, "
          f"corr(GenHlth,Income)={corr[i, k]:.4f}, mode={mode}")


def test_8_reproducibility(emit, tmp_path):
    label = "[8] reproducibility: two identical runs, byte-identical report.json"
    path = require_dataset(emit, label)
    from diabrisk.config import ExperimentConfig
    from diabrisk.pipeline import run_train

    cfg = ExperimentConfig(
        data_path=path, seed=SEED, output_dir=str(tmp_path / "run")
    )
    run_train(cfg, "health", tuned=False)
    first = (tmp_path / "run" / "report.json").read_bytes()
    run_train(cfg, "health", tuned=False)
    second = (tmp_path / "run" / "report.json").read_bytes()
    ok = first == second
    check(emit, label, ok, f"{len(first)} bytes")


def test_6_oracle_property_suite(emit):
    """Dataset-independent equivalence checks against independent oracles."""
    label = "[6] oracle property suite"
    failures = []

    # AUC trapezoid vs pairwise concordance, 1000 random instances
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(4, 25))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        s = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
        pos, neg = s[y == 1], s[y == 0]
        oracle = sum(
            (p > q) + 0.5 * (p == q) for p in pos for q in neg
        ) / (len(pos) * len(neg))
        if abs(roc_curve(y, s).auc - oracle) > 1e-12:
            failures.append("auc-concordance")
            break

    # single-feature tree root split vs brute force, 500 random instances;
    # the oracle scores candidates in exact rational arithmetic so equal-gain
    # thresholds are recognized as exact ties
    from fractions import Fraction

    def exact_decrease(x, y, thr):
        n = len(y)
        left, right = y[x <= thr], y[x > thr]

        def weighted_gini(labels):
            m = len(labels)
            pos = int(labels.sum())
            return Fraction(m) - Fraction(pos * pos + (m - pos) ** 2, m)

        parent = weighted_gini(y)
        return (parent - weighted_gini(left) - weighted_gini(right)) / n

    for _ in range(500):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        values = np.unique(x)
        candidates = {
            float((a + b) / 2): exact_decrease(x, y, (a + b) / 2)
            for a, b in zip(values, values[1:])
        }
        model = fit_tree(x.reshape(-1, 1), y, TreeParams(max_depth=1))
        if not candidates:
            if model.feature.tolist() != [-1]:
                failures.append("tree-root-split")
                break
            continue
        best = max(candidates.values())
        if (model.feature[0] != 0
                or candidates.get(float(model.threshold[0])) != best
                or abs(model.decrease[0] - float(best)) > 1e-12):
            failures.append("tree-root-split")
            break

    # analytic gradient vs central finite differences, 100 random instances
    step = 1e-5
    for _ in range(100):
        n, p = int(rng.integers(5, 25)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n)
        params = LogRegParams(penalty="l2", C=float(rng.uniform(0.5, 2.0)))
        w, b = rng.normal(size=p), float(rng.normal())
        _, grad = loss_and_gradient(w, b, X, y, params)
        theta = np.append(w, b)
        bad = False
        for j in range(p + 1):
            plus, minus = theta.copy(), theta.copy()
            plus[j] += step
            minus[j] -= step
            fp = loss_and_gradient(plus[:p], plus[p], X, y, params)[0]
            fm = loss_and_gradient(minus[:p], minus[p], X, y, params)[0]
            fd = (fp - fm) / (2 * step)
            if abs(grad[j] - fd) > 1e-6 * max(1.0, abs(fd)):
                bad = True
        if bad:
            failures.append("logistic-gradient")
            break

    # SMOTE: segment membership, balanced counts, determinism
    X = rng.normal(size=(40, 3))
    y = np.array([1] * 8 + [0] * 32)
    Xa, ya = smote_balance(X, y, SmoteParams(k_neighbors=3, seed=5))
    Xb2, _ = smote_balance(X, y, SmoteParams(k_neighbors=3, seed=5))
    minority = X[:8]
    on_segment = True
    for row in Xa[40:]:
        found = False
        for i, j in itertools.permutations(range(8), 2):
            d = minority[j] - minority[i]
            denom = float(d @ d)
            if denom == 0.0:
                if np.allclose(row, minority[i], atol=1e-9):
                    found = True
                    break
                continue
            t = float((row - minority[i]) @ d) / denom
            if -1e-9 <= t <= 1 + 1e-9 and np.allclose(
                minority[i] + t * d, row, atol=1e-9
            ):
                found = True
                break
        if not found:
            on_segment = False
            break
    if not (on_segment and int(ya.sum()) == int((ya == 0).sum())
            and np.array_equal(Xa, Xb2)):
        failures.append("smote")

    # classification-report arithmetic, exhaustive 4-element vectors
    for yt in itertools.product([0, 1], repeat=4):
        for yp in itertools.product([0, 1], repeat=4):
            r = classification_report(list(yt), list(yp))
            tp = sum(t and p for t, p in zip(yt, yp))
            tn = sum(not t and not p for t, p in zip(yt, yp))
            fp = sum(not t and p for t, p in zip(yt, yp))
            fn = sum(t and not p for t, p in zip(yt, yp))
            p1 = tp / (tp + fp) if tp + fp else 0.0
            r1 = tp / (tp + fn) if tp + fn else 0.0
            p0 = tn / (tn + fn) if tn + fn else 0.0
            r0 = tn / (tn + fp) if tn + fp else 0.0
            if not (
                r.accuracy == (tp + tn) / 4
                and r.class1.precision == p1 and r.class1.recall == r1
                and r.class0.precision == p0 and r.class0.recall == r0
            ):
                failures.append("report-arithmetic")
                break
        if "report-arithmetic" in failures:
            break

    # lasso: exact zeros at large lambda, nonincreasing sparsity on a path
    Xl = rng.normal(size=(60, 6))
    yl = (Xl[:, 0] - Xl[:, 1] + rng.normal(scale=0.5, size=60) > 0).astype(int)
    if np.any(lasso_coefficients(Xl, yl, 1e6) != 0.0):
        failures.append("lasso-zeros")
    nonzeros = [
        int(np.count_nonzero(lasso_coefficients(Xl, yl, float(lam))))
        for lam in np.logspace(-4, 2, 10)
    ]
    if not all(a >= b for a, b in zip(nonzeros, nonzeros[1:])):
        failures.append("lasso-path")

    check(emit, label, not failures,
          "all oracles agree" if not failures else f"failed: {failures}")

"""Checks on what each benchmarked diabrisk command wrote.

Every check compares an output with a computation made here from the
generated table (numpy / scipy, not diabrisk), or with a property the method
must have. None compares with a stored copy of an earlier output. A check
returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize, stats

import synth

HEALTH = ["HighBP", "HighChol", "CholCheck", "Smoker", "HvyAlcoholConsump", "BMI"]
TOL = 1e-9
# the program's L2 objective may exceed an independent optimum by this share
OBJECTIVE_RTOL = 1e-6
# consensus places that must go to planted features
LEADERS = 3


@dataclass(frozen=True)
class Inputs:
    """What a check knows: the generated table, the seed the program was
    given and the config file it read (as key -> text)."""

    table: np.ndarray
    seed: int
    config: dict

    def column(self, name):
        return self.table[:, synth.NAMES.index(name)]

    @property
    def labels(self):
        return (self.column("Diabetes_012") > 0).astype(int)

    @property
    def counts(self):
        return tuple(int(c) for c in np.bincount(self.column("Diabetes_012"),
                                                  minlength=3))

    def values(self, key):
        return [v.strip() for v in self.config[key].split(",")]

    def split(self):
        """Train and test row indices of the documented seeded permutation."""
        n = self.table.shape[0]
        perm = np.random.default_rng(self.seed).permutation(n)
        n_test = int(round(n * float(self.config["test_fraction"])))
        return perm[n_test:], perm[:n_test]


def read_config(path) -> dict:
    """``key = value`` lines with ``#`` comments, as the program reads them."""
    config = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def _json(path):
    return json.loads(Path(path).read_text())


def _csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, tol=TOL):
    return abs(float(a) - float(b)) <= tol


def mann_whitney_auc(y, scores) -> float:
    """Probability that a positive outscores a negative, ties counting half."""
    y = np.asarray(y)
    ranks = stats.rankdata(scores)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _manifest(out, doc):
    return [f"{name} listed in the manifest is missing"
            for name in doc.get("manifest", []) if not (out / name).is_file()]


# ------------------------------------------------------------------- eda

def eda(inputs: Inputs, out: Path, stderr: str):
    doc = _json(out / "report.json")
    problems = _manifest(out, doc)
    n = inputs.table.shape[0]
    if doc["dataset"]["n_rows"] != n:
        problems.append(f"n_rows {doc['dataset']['n_rows']} != {n} generated")

    header, rows = _csv(out / "correlation.csv")
    if header[1:] != synth.NAMES or [r[0] for r in rows] != synth.NAMES:
        problems.append("correlation.csv labels differ from the table's columns")
    else:
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        want = np.corrcoef(inputs.table.T.astype(float))
        err = float(np.max(np.abs(got - want)))
        if err > TOL:
            problems.append(f"correlation.csv differs from np.corrcoef by {err:.3g}")

    want_hist = np.bincount(inputs.column("Income"), minlength=9)[1:].tolist()
    _, rows = _csv(out / "income_hist.csv")
    got_hist = [int(r[1]) for r in rows]
    if [r[0] for r in rows] != [str(c) for c in range(1, 9)] or got_hist != want_hist:
        problems.append(f"income_hist.csv {got_hist} != np.bincount {want_hist}")
    if doc["income_histogram"] != {str(c): k for c, k in zip(range(1, 9), want_hist)}:
        problems.append("report.json income_histogram differs from np.bincount")
    return problems


def data_error(inputs: Inputs, out: Path, stderr: str):
    """A malformed table ends in one ``data error:`` line, not a traceback."""
    if "Traceback" in stderr or not any(
            line.startswith("data error:") for line in stderr.splitlines()):
        return ["malformed input did not end in a 'data error:' line"]
    return []


# -------------------------------------------------- shared by train commands

def _report_arithmetic(doc):
    """Accuracy and per-class / macro figures follow from the confusion counts."""
    cm = doc["metrics"]["confusion"]
    rep = doc["metrics"]["classification_report"]
    tn, fp, fn, tp = cm["tn"], cm["fp"], cm["fn"], cm["tp"]
    total = tn + fp + fn + tp
    problems = []
    if total != doc["dataset"]["test_support"] or total != rep["total_support"]:
        problems.append(f"confusion total {total} != test_support")

    def stats_of(tp_, fp_, fn_):
        p = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        r = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    c1 = stats_of(tp, fp, fn)
    c0 = stats_of(tn, fn, fp)
    expected = {
        "accuracy": (tp + tn) / total,
        "class1": c1, "class0": c0,
        "macro": tuple((a + b) / 2 for a, b in zip(c0, c1)),
    }
    if not _close(rep["accuracy"], expected["accuracy"]):
        problems.append("accuracy disagrees with the confusion counts")
    for key in ("class0", "class1", "macro"):
        got = (rep[key]["precision"], rep[key]["recall"], rep[key]["f1"])
        if not all(_close(g, w) for g, w in zip(got, expected[key])):
            problems.append(f"{key} precision/recall/f1 disagree with the confusion counts")
    if rep["class1"]["support"] != tp + fn or rep["class0"]["support"] != tn + fp:
        problems.append("class supports disagree with the confusion counts")
    return problems


def _class_counts(inputs, doc, split_first, balanced=True):
    """Counts before/after SMOTE and the row split implied by the generator's
    class counts and the test fraction."""
    c0, c1, c2 = inputs.counts
    neg, pos = c0, c1 + c2
    d = doc["dataset"]
    problems = []
    if d["class_counts_before"] != {"0": neg, "1": pos}:
        problems.append(f"class_counts_before {d['class_counts_before']} != {neg}/{pos}")
    train, test = inputs.split()
    if not balanced:
        after, train_rows, test_rows = {"0": neg, "1": pos}, len(train), len(test)
    elif split_first:
        y = inputs.labels
        train_neg = int((y[train] == 0).sum())
        after = {"0": neg, "1": train_neg + int(y[test].sum())}
        train_rows, test_rows = 2 * train_neg, len(test)
    else:
        after = {"0": neg, "1": neg}
        test_rows = int(round(2 * neg * float(inputs.config["test_fraction"])))
        train_rows = 2 * neg - test_rows
    if d["class_counts_after"] != after:
        problems.append(f"class_counts_after {d['class_counts_after']} != {after}")
    if (d["train_rows"], d["test_support"]) != (train_rows, test_rows):
        problems.append(f"train_rows/test_support {d['train_rows']}/{d['test_support']}"
                        f" != {train_rows}/{test_rows}")
    return problems


def read_tree(text):
    """Arrays (feature, threshold, left, right, neg, pos) of a ``tree.txt``
    preorder dump; feature is -1 at leaves."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    body = [ln for ln in lines[1:] if not ln.startswith("features ")]
    feature, threshold, left, right, neg, pos = ([] for _ in range(6))
    waiting = []  # split nodes still missing a child
    for line in body:
        kind, *pairs = line.split()
        fields = dict(p.split("=", 1) for p in pairs)
        k = len(feature)
        if waiting:
            parent = waiting[-1]
            if left[parent] < 0:
                left[parent] = k
            else:
                right[parent] = k
                waiting.pop()
        left.append(-1)
        right.append(-1)
        if kind == "split":
            feature.append(int(fields["feature"]))
            threshold.append(float(fields["threshold"]))
            neg.append(0)
            pos.append(0)
            waiting.append(k)
        else:
            feature.append(-1)
            threshold.append(0.0)
            neg.append(int(fields["neg"]))
            pos.append(int(fields["pos"]))
    return tuple(np.array(a) for a in (feature, threshold, left, right, neg, pos))


def apply_tree(tree, X):
    """Leaf index of each row (x <= threshold goes left)."""
    feature, threshold, left, right, _, _ = tree
    node = np.zeros(X.shape[0], dtype=int)
    while True:
        inner = feature[node] >= 0
        if not inner.any():
            return node
        rows = np.nonzero(inner)[0]
        at = node[rows]
        go_left = X[rows, feature[at]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])


def _tree_leaves(out, prefix, doc):
    tree = read_tree((out / f"{prefix}tree.txt").read_text())
    leaves = tree[0] < 0
    total = int(tree[4][leaves].sum() + tree[5][leaves].sum())
    if total != doc["dataset"]["train_rows"]:
        return tree, [f"tree.txt leaf counts sum to {total}, "
                      f"not train_rows {doc['dataset']['train_rows']}"]
    return tree, []


def _grid(inputs, out, prefix, doc, dims):
    """cells x folds fold scores in (0.5, 1], mean = mean of folds, and the
    chosen cell the first with the maximal mean."""
    folds = int(inputs.config["cv.folds"])
    cells = int(np.prod([len(inputs.values(d)) for d in dims]))
    header, rows = _csv(out / f"{prefix}grid.csv")
    fold_cols = [i for i, h in enumerate(header) if h.startswith("fold_")]
    problems = []
    if len(rows) != cells or len(fold_cols) != folds:
        return [f"grid.csv has {len(rows)} cells x {len(fold_cols)} folds, "
                f"not {cells} x {folds}"]
    scores = np.array([[float(r[i]) for i in fold_cols] for r in rows])
    if not np.all((scores > 0.5) & (scores <= 1.0)):
        problems.append(f"fold AUC outside (0.5, 1]: min {scores.min():.6f}")
    means = np.array([float(r[header.index("mean")]) for r in rows])
    if np.max(np.abs(means - scores.mean(axis=1))) > 1e-12:
        problems.append("grid.csv mean is not the mean of its folds")
    best = int(np.argmax(means))  # argmax returns the first maximum
    g = doc["grid"]
    want = {h: rows[best][header.index(h)] for h in header[:fold_cols[0]]}
    got = {k: "" if v is None else str(v) for k, v in g["best_params"].items()}
    if got != want:
        problems.append(f"chosen cell {got} is not the first best {want}")
    if (g["n_fits"], g["n_combinations"], g["folds"]) != (cells * folds, cells, folds):
        problems.append(f"grid summary {g['n_fits']} fits != {cells} x {folds}")
    return problems


# ----------------------------------------------------------- train commands

def _logistic_objective(w, b, X, y, scale, C):
    """L2 objective of the program's documented formula: log-loss sum over
    rows plus ||w * scale||^2 / (2C), for weights in raw units."""
    margins = X @ w + b
    s = 2.0 * y - 1.0
    ws = w * scale
    return float(np.logaddexp(0.0, -s * margins).sum() + ws @ ws / (2.0 * C))


def _scipy_l2_fit(Z, y, C):
    """Independent optimum of the L2 objective on z-scored rows."""
    s = 2.0 * y - 1.0
    p = Z.shape[1]

    def f(theta):
        m = Z @ theta[:p] + theta[p]
        loss = np.logaddexp(0.0, -s * m).sum() + theta[:p] @ theta[:p] / (2.0 * C)
        r = -s * np.exp(-np.logaddexp(0.0, s * m))  # d loss / d margin
        grad = np.append(Z.T @ r + theta[:p] / C, r.sum())
        return loss, grad

    res = optimize.minimize(f, np.zeros(p + 1), jac=True, method="L-BFGS-B",
                            options={"maxiter": 1000, "ftol": 1e-15, "gtol": 1e-9})
    return float(res.fun)


def read_model(text):
    fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    weights = np.array([float(v) for v in fields["weights"].split(",")])
    return weights, float(fields["intercept"]), fields


def _confusion(y, pred):
    return {"tn": int(((y == 0) & (pred == 0)).sum()), "fp": int(((y == 0) & (pred == 1)).sum()),
            "fn": int(((y == 1) & (pred == 0)).sum()), "tp": int(((y == 1) & (pred == 1)).sum())}


def _sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def baseline(inputs: Inputs, out: Path, stderr: str):
    """Health model without SMOTE: split rebuilt here, model checked against
    a scipy fit, AUC and confusion recomputed from model.txt."""
    doc = _json(out / "report.json")
    problems = _manifest(out, doc) + _class_counts(inputs, doc, False, balanced=False)
    problems += _report_arithmetic(doc)
    train, test = inputs.split()
    X = np.column_stack([inputs.column(n) for n in HEALTH]).astype(float)
    y = inputs.labels
    weights, intercept, fields = read_model((out / "model.txt").read_text())
    if fields.get("feature_names") != ",".join(HEALTH):
        return problems + ["model.txt features are not the health features"]

    C = float(inputs.config["logreg.c"])
    Xtr, ytr = X[train], y[train]
    mean, std = Xtr.mean(axis=0), Xtr.std(axis=0)
    reference = _scipy_l2_fit((Xtr - mean) / std, ytr, C)
    program = _logistic_objective(weights, intercept, Xtr, ytr, std, C)
    if program > reference * (1 + OBJECTIVE_RTOL):
        problems.append(f"L2 objective {program:.10g} above the scipy optimum "
                        f"{reference:.10g}")

    scores = _sigmoid(X[test] @ weights + intercept)
    auc = mann_whitney_auc(y[test], scores)
    if not _close(auc, doc["metrics"]["auc"]):
        problems.append(f"AUC {doc['metrics']['auc']!r} != Mann-Whitney {auc!r}")
    cm = _confusion(y[test], (scores >= 0.5).astype(int))
    if cm != doc["metrics"]["confusion"]:
        problems.append(f"confusion {doc['metrics']['confusion']} != thresholded {cm}")
    return problems


def train_income(inputs: Inputs, out: Path, stderr: str):
    doc = _json(out / "report.json")
    _, leaf_problems = _tree_leaves(out, "", doc)
    return (_manifest(out, doc) + _class_counts(inputs, doc, False)
            + _report_arithmetic(doc) + leaf_problems)


def health_tuned(inputs: Inputs, out: Path, stderr: str):
    doc = _json(out / "report.json")
    return (_manifest(out, doc) + _class_counts(inputs, doc, False)
            + _report_arithmetic(doc)
            + _grid(inputs, out, "", doc, ["grid.logistic.c", "grid.logistic.optimizer"]))


def income_tuned(inputs: Inputs, out: Path, stderr: str):
    """Split-first tuned income tree: tree.txt read here and applied to the
    raw test rows; its AUC and confusion must match the report."""
    prefix = "splitfirst_"
    doc = _json(out / f"{prefix}report.json")
    problems = (_manifest(out, doc) + _class_counts(inputs, doc, True)
                + _report_arithmetic(doc)
                + _grid(inputs, out, prefix, doc, [
                    "grid.tree.max_depth", "grid.tree.min_samples_split",
                    "grid.tree.min_samples_leaf"]))
    tree, leaf_problems = _tree_leaves(out, prefix, doc)
    problems += leaf_problems
    _, test = inputs.split()
    X = inputs.column("Income")[test].astype(float)[:, None]
    y = inputs.labels[test]
    leaf = apply_tree(tree, X)
    neg, pos = tree[4][leaf], tree[5][leaf]
    auc = mann_whitney_auc(y, pos / (neg + pos))
    if not _close(auc, doc["metrics"]["auc"]):
        problems.append(f"AUC {doc['metrics']['auc']!r} != tree.txt on test rows {auc!r}")
    cm = _confusion(y, (pos >= neg).astype(int))
    if cm != doc["metrics"]["confusion"]:
        problems.append(f"confusion {doc['metrics']['confusion']} != tree.txt {cm}")
    return problems


# ----------------------------------------------------------------- features

def features(inputs: Inputs, out: Path, stderr: str):
    doc = _json(out / "report.json")
    problems = _manifest(out, doc)
    neg = inputs.counts[0]
    pos = inputs.counts[1] + inputs.counts[2]
    d = doc["dataset"]
    if (d["n_rows"], d["class_counts_before"], d["class_counts_after"]) != (
            neg + pos, {"0": neg, "1": pos}, {"0": neg, "1": neg}):
        problems.append("features row / class counts differ from the generated table")

    _, rows = _csv(out / "forest_importance.csv")
    imp = np.array([float(r[1]) for r in rows])
    if [r[0] for r in rows] != synth.FEATURES:
        problems.append("forest_importance.csv does not list the 21 features")
    if np.any(imp < 0) or not _close(imp.sum(), 1.0):
        problems.append(f"importances not non-negative summing to 1 (sum {imp.sum()!r})")

    n_select = int(inputs.config["rfe.n_select"])
    _, rows = _csv(out / "rfe.csv")
    ranks = [int(r[2]) for r in rows]
    dropped = sorted(r for r in ranks if r != 1)
    if ranks.count(1) != n_select or dropped != list(range(2, len(ranks) - n_select + 2)):
        problems.append(f"rfe ranks {ranks}: not {n_select} ones and distinct others")
    if any((r[1] == "True") != (int(r[2]) == 1) for r in rows):
        problems.append("rfe.csv selected flags disagree with rank 1")

    _, rows = _csv(out / "consensus.csv")
    cols = np.array([[float(v) for v in r[1:]] for r in rows])
    if np.max(np.abs(cols[:, :3].mean(axis=1) - cols[:, 3])) > 1e-12:
        problems.append("consensus mean_rank is not the mean of the three ranks")
    # On a 12k-row table with a four-tree forest the weaker planted features
    # (Income, HighChol, and CholCheck, which is 96% ones) trade places with
    # noise features from seed to seed; the first three places must be planted
    lead = doc["consensus_order"][:LEADERS]
    if not set(lead) <= set(synth.PLANTED):
        problems.append(f"consensus order starts {lead}, not with planted features")
    return problems

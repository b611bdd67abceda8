"""End-to-end experiment runner: wires ingestion, balancing, models, tuning
and evaluation together and writes every artifact of a run (text + JSON
reports, curve CSVs, SVG plots, serialized models, file manifest)."""
from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, replace

import numpy as np

from . import plots
from .config import ExperimentConfig, config_to_dict
from .errors import PipelineError
from .dataset import (
    LabelVector,
    binarize_target,
    income_histogram,
    load_csv,
    pearson_correlation,
    select_columns,
    train_test_split,
)
from .feature_selection import RfeParams, consensus_rank, rfe
from .gridsearch import CvConfig, GridResult, grid_search
from .logistic import (
    fit_logreg,
    lasso_coefficients,
    model_to_text,
    predict_label,
    predict_proba,
)
from .metrics import (
    classification_report,
    confusion,
    pr_curve,
    report_to_dict,
    report_to_text,
    roc_curve,
)
from .smote import smote_balance
from .tree import fit_forest, fit_tree, impurity_importance, predict_tree, \
    tree_to_text

LEAKAGE_WARNING = (
    "SMOTE was applied to the full table before the train/test split; "
    "synthetic rows therefore appear in the test set. This matches the "
    "study being reproduced but leaks information. Use --split-first for "
    "the methodologically clean order."
)

# published values this pipeline tracks; reported for comparison, never gated on
REFERENCE_TUNED_AUC = {"health": 0.7743, "income": 0.633}
INCOME_FEATURE = ["Income"]
TITLES = {"health": "Health Indicators Model", "income": "Income Model"}


class _Run:
    """Collects files written during one command for the manifest."""

    def __init__(self, out_dir: str, prefix: str = ""):
        self.out_dir = out_dir
        self.prefix = prefix
        self.files = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, self.prefix + name)
        self.files.append(self.prefix + name)
        return full

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(text)

    def write_csv(self, name: str, header, rows) -> None:
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def finalize(self, report: dict) -> dict:
        """Write report.json and manifest.json; the manifest carries the
        timestamps so report.json stays byte-identical across reruns."""
        report["manifest"] = sorted(
            self.files + [self.prefix + "report.json", self.prefix + "manifest.json"]
        )
        with open(os.path.join(self.out_dir, self.prefix + "report.json"), "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        manifest = {
            "files": report["manifest"],
            "created_unix_time": time.time(),
        }
        with open(os.path.join(self.out_dir, self.prefix + "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return report


def _curve_csv(run: _Run, name: str, points):
    # points are (x, y, threshold) for ROC, (recall, precision, thr) for PR
    rows = [(p[2], p[0], p[1]) for p in points]
    run.write_csv(name, ["threshold", "x", "y"], rows)


def run_eda(cfg: ExperimentConfig) -> dict:
    table = load_csv(cfg.data_path)
    run = _Run(cfg.output_dir)

    corr = pearson_correlation(table)
    header = [""] + list(corr.labels)
    rows = [
        [label] + [repr(float(v)) for v in corr.values[i]]
        for i, label in enumerate(corr.labels)
    ]
    run.write_csv("correlation.csv", header, rows)
    run.write_text(
        "correlation.svg",
        plots.heatmap_svg(
            corr.labels, corr.values, corr.undefined_mask, "Correlation Heatmap"
        ),
    )

    hist = income_histogram(table)
    run.write_csv(
        "income_hist.csv", ["category", "count"],
        list(zip(hist.categories, hist.counts)),
    )
    run.write_text(
        "income_hist.svg",
        plots.bar_svg(
            hist.categories, hist.counts,
            "Distribution of Income", "Income category", "Respondents",
        ),
    )
    report = {
        "command": "eda",
        "config": config_to_dict(cfg),
        "dataset": {"n_rows": table.n_rows},
        "income_histogram": {
            str(c): n for c, n in zip(hist.categories, hist.counts)
        },
        "warnings": [],
    }
    return run.finalize(report)


def _balanced_full_features(cfg: ExperimentConfig):
    table = load_csv(cfg.data_path)
    features, labels = binarize_target(table)
    X, y = smote_balance(features.rows, labels, cfg.smote)
    return list(features.schema.names), X, y, labels


def run_features(cfg: ExperimentConfig) -> dict:
    names, X, y, raw_labels = _balanced_full_features(cfg)
    run = _Run(cfg.output_dir)

    coefs = lasso_coefficients(X, y, cfg.lasso_lambda)
    run.write_csv(
        "lasso_coefs.csv", ["name", "coefficient"],
        [(n, repr(float(c))) for n, c in zip(names, coefs)],
    )

    lambdas = np.logspace(-4, 2, 10)
    path_rows = []
    for lam in lambdas:
        path_coefs = lasso_coefficients(X, y, float(lam))
        path_rows.append(
            [repr(float(lam)), int(np.count_nonzero(path_coefs))]
            + [repr(float(c)) for c in path_coefs]
        )
    run.write_csv("lasso_path.csv", ["lambda", "nonzero_count"] + names, path_rows)

    forest = fit_forest(X, y, cfg.forest, feature_names=names)
    importance = impurity_importance(forest)
    run.write_csv(
        "forest_importance.csv", ["name", "importance"],
        [(n, repr(float(v))) for n, v in zip(names, importance.values)],
    )

    rfe_result = rfe(X, y, names, RfeParams(n_select=cfg.rfe_n_select))
    run.write_csv(
        "rfe.csv", ["name", "selected", "rank"],
        list(zip(rfe_result.feature_names, rfe_result.selected, rfe_result.ranks)),
    )

    consensus = consensus_rank(coefs, importance, rfe_result, names)
    run.write_csv(
        "consensus.csv",
        ["name", "lasso_rank", "forest_rank", "rfe_rank", "mean_rank"],
        [
            (n, lr, fr, rr, repr(float(mr)))
            for n, lr, fr, rr, mr in zip(
                consensus.feature_names, consensus.lasso_rank,
                consensus.forest_rank, consensus.rfe_rank, consensus.mean_rank,
            )
        ],
    )

    report = {
        "command": "features",
        "config": config_to_dict(cfg),
        "dataset": {
            "n_rows": len(raw_labels),
            "class_counts_before": {
                "0": raw_labels.negative_count, "1": raw_labels.positive_count,
            },
            "class_counts_after": {
                "0": y.negative_count, "1": y.positive_count,
            },
        },
        "rfe_selected": rfe_result.selected_names(),
        "consensus_order": consensus.ordered_names(),
        "lasso_nonzero": [n for n, c in zip(names, coefs) if c != 0.0],
        "forest_importance_degenerate": importance.degenerate,
        "warnings": [LEAKAGE_WARNING],
    }
    return run.finalize(report)


def _experiment_data(cfg: ExperimentConfig, experiment: str, balanced: bool):
    """load -> binarize -> select -> (SMOTE) -> split, per the configured
    order. Returns train/test matrices plus bookkeeping counts."""
    table = load_csv(cfg.data_path)
    features, labels = binarize_target(table)
    names = (
        list(cfg.health_features) if experiment == "health" else INCOME_FEATURE
    )
    X = select_columns(features, names).rows
    before = {"0": labels.negative_count, "1": labels.positive_count}

    if balanced and not cfg.split_first:
        X, y = smote_balance(X, labels, cfg.smote)
    else:
        y = labels
    split = train_test_split(len(y), cfg.test_fraction, cfg.seed)
    X_train, y_train = X[split.train_indices], y.values[split.train_indices]
    X_test, y_test = X[split.test_indices], y.values[split.test_indices]
    if balanced and cfg.split_first:
        X_train, y_train_lv = smote_balance(
            X_train, LabelVector(y_train), cfg.smote
        )
        y_train = y_train_lv.values
    after = {
        "0": int(np.sum(y_train == 0) + np.sum(y_test == 0)),
        "1": int(np.sum(y_train == 1) + np.sum(y_test == 1)),
    }
    return names, X_train, y_train, X_test, y_test, before, after


def _grid_cells_csv(run: _Run, name: str, result: GridResult):
    param_names = list(result.cells[0].params.keys())
    k = len(result.cells[0].fold_scores)
    header = param_names + [f"fold_{i}" for i in range(k)] + ["mean", "std"]
    rows = []
    for cell in result.cells:
        rows.append(
            [cell.params[p] for p in param_names]
            + [repr(float(s)) for s in cell.fold_scores]
            + [repr(cell.mean_score), repr(cell.std_score)]
        )
    run.write_csv(name, header, rows)


def _grid_summary(result: GridResult) -> dict:
    return {
        "family": result.family,
        "n_fits": result.n_fits,
        "n_combinations": len(result.cells),
        "folds": result.cv.folds,
        "best_params": {
            k: (v if v is None or isinstance(v, (int, float, str)) else str(v))
            for k, v in result.best_params.items()
        },
        "best_mean_score": result.best_mean_score,
        "baseline_mean_score": result.cells[0].mean_score
        if result.cells else None,
    }


def _model_params(cfg: ExperimentConfig, experiment: str):
    """The configured params of an experiment's model; tuning starts here."""
    return cfg.logreg if experiment == "health" else cfg.tree


def _tune(cfg: ExperimentConfig, experiment: str, X_train, y_train):
    family, grid = (
        ("logistic", cfg.logistic_grid) if experiment == "health"
        else ("tree", cfg.tree_grid)
    )
    return grid_search(
        X_train, LabelVector(y_train), family, grid,
        CvConfig(folds=cfg.cv_folds, seed=cfg.seed),
        base=_model_params(cfg, experiment),
    )


def _evaluate_and_write(run, title, y_test, y_pred, scores):
    report = classification_report(y_test, y_pred)
    roc = roc_curve(y_test, scores)
    pr = pr_curve(y_test, scores)
    cm = confusion(y_test, y_pred)

    _curve_csv(run, "roc.csv", roc.points)
    run.write_text(
        "roc.svg",
        plots.curve_svg(
            [p[0] for p in roc.points], [p[1] for p in roc.points],
            f"{title} ROC Curve", "False positive rate", "True positive rate",
            annotation=f"AUC = {roc.auc:.4f}", diagonal=True,
        ),
    )
    _curve_csv(run, "pr.csv", pr.points)
    run.write_text(
        "pr.svg",
        plots.curve_svg(
            [p[0] for p in pr.points], [p[1] for p in pr.points],
            f"{title} Precision-Recall Curve", "Recall", "Precision",
            annotation=f"AP = {pr.average_precision:.4f}",
        ),
    )
    run.write_csv(
        "confusion.csv",
        ["", "pred_0", "pred_1"],
        [["true_0", cm.tn, cm.fp], ["true_1", cm.fn, cm.tp]],
    )
    return report, roc, pr, cm


def run_train(cfg: ExperimentConfig, experiment: str, tuned: bool,
              balanced: bool = True) -> dict:
    if experiment not in ("health", "income"):
        raise ValueError("experiment must be health or income")
    prefix = "splitfirst_" if cfg.split_first else ""
    run = _Run(cfg.output_dir, prefix=prefix)
    names, X_train, y_train, X_test, y_test, before, after = _experiment_data(
        cfg, experiment, balanced
    )

    warnings = []
    if balanced and not cfg.split_first:
        warnings.append(LEAKAGE_WARNING)

    params = _model_params(cfg, experiment)
    grid_result = None
    if tuned:
        grid_result = _tune(cfg, experiment, X_train, y_train)
        _grid_cells_csv(run, "grid.csv", grid_result)
        params = replace(params, **grid_result.best_params)

    if experiment == "health":
        model = fit_logreg(X_train, LabelVector(y_train), params,
                           feature_names=names)
        scores = predict_proba(model, X_test)
        y_pred = predict_label(model, X_test).values
        run.write_text("model.txt", model_to_text(model))
        if not model.converged:
            warnings.append(
                f"logistic fit stopped after {model.n_iter} iterations "
                "without meeting the convergence tolerance"
            )
        model_info = {
            "type": "logistic",
            "converged": model.converged,
            "n_iter": model.n_iter,
            "weights": {n: w for n, w in zip(names, model.weights)},
            "intercept": model.intercept,
        }
    else:
        model = fit_tree(X_train, LabelVector(y_train), params,
                         feature_names=names)
        y_pred_lv, scores = predict_tree(model, X_test)
        y_pred = y_pred_lv.values
        run.write_text("tree.txt", tree_to_text(model))
        model_info = {"type": "tree", "params": asdict(params)}

    report, roc, pr, cm = _evaluate_and_write(
        run, TITLES[experiment], y_test, y_pred, scores
    )

    minority_recall = report.class1.recall
    if minority_recall < 0.2:
        warnings.append(
            f"degenerate minority recall {minority_recall:.3f}: the model is "
            "effectively not predicting the positive class"
        )

    doc = {
        "command": "train" if balanced else "baseline",
        "experiment": experiment,
        "tuned": tuned,
        "balanced": balanced,
        "config": config_to_dict(cfg),
        "dataset": {
            "class_counts_before": before,
            "class_counts_after": after,
            "train_rows": int(len(y_train)),
            "test_support": int(len(y_test)),
        },
        "model": model_info,
        "metrics": {
            "classification_report": report_to_dict(report),
            "auc": roc.auc,
            "average_precision": pr.average_precision,
            "confusion": {"tn": cm.tn, "fp": cm.fp, "fn": cm.fn, "tp": cm.tp},
        },
        "warnings": warnings,
    }
    if tuned:
        doc["grid"] = _grid_summary(grid_result)
        doc["reference_tuned_auc"] = REFERENCE_TUNED_AUC[experiment]
    run.write_text("report.txt", _render_report(doc))
    return run.finalize(doc)


def run_baseline(cfg: ExperimentConfig) -> dict:
    """Health pipeline without SMOTE; exposes the class-imbalance failure."""
    return run_train(cfg, "health", tuned=False, balanced=False)


def run_tune_only(cfg: ExperimentConfig, experiment: str) -> dict:
    run = _Run(cfg.output_dir)
    _, X_train, y_train, _, _, before, after = _experiment_data(
        cfg, experiment, balanced=True
    )
    grid_result = _tune(cfg, experiment, X_train, y_train)
    _grid_cells_csv(run, "grid.csv", grid_result)
    doc = {
        "command": "tune-only",
        "experiment": experiment,
        "config": config_to_dict(cfg),
        "dataset": {
            "class_counts_before": before, "class_counts_after": after,
        },
        "grid": _grid_summary(grid_result),
        "reference_tuned_auc": REFERENCE_TUNED_AUC[experiment],
        "warnings": [] if cfg.split_first else [LEAKAGE_WARNING],
    }
    return run.finalize(doc)


def _render_report(doc: dict) -> str:
    """report.txt of a train/baseline run, from its report.json dict."""
    title = TITLES[doc["experiment"]]
    metrics = doc["metrics"]
    text = report_to_text(
        metrics["classification_report"], f"{title} Report", auc=metrics["auc"]
    )
    if doc["warnings"]:
        text += "\nWarnings:\n" + "\n".join(
            f"- {w}" for w in doc["warnings"]
        ) + "\n"
    return text


def rerender_report(out_dir: str, prefix: str = "") -> str:
    """Rebuild report.txt from an existing report.json (report subcommand)."""
    with open(os.path.join(out_dir, prefix + "report.json")) as fh:
        doc = json.load(fh)
    if "metrics" not in doc or "experiment" not in doc:
        raise PipelineError(
            "report.json was not produced by a train/baseline run; "
            "nothing to re-render"
        )
    text = _render_report(doc)
    with open(os.path.join(out_dir, prefix + "report.txt"), "w") as fh:
        fh.write(text)
    return text

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
from .config import ExperimentConfig
from .errors import BadParams, ConfigError, PipelineError, SingleClass
from .dataset import (
    INCOME_CODES,
    binarize_target,
    count_tables,
    income_histogram,
    load_csv,
    pearson_correlation,
    select_columns,
    train_test_split,
)
from .feature_selection import consensus_rank, rfe
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
# the file-name prefix of every artifact of a split-first train or tune-only run
SPLIT_FIRST_PREFIX = "splitfirst_"
TITLES = {"health": "Health Indicators Model", "income": "Income Model"}


class _Run:
    """Collects files written during one command for the manifest."""

    def __init__(self, out_dir: str, prefix: str = ""):
        self.out_dir = out_dir
        self.prefix = prefix
        self.files = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("output_dir", f"cannot create the directory: {exc}") from None

    def _write(self, name: str, fill, newline=None) -> None:
        """Open the file for writing and pass it to ``fill``. A file that
        cannot be written is a fault of the output directory (exit 4)."""
        self.files.append(self.prefix + name)
        try:
            with open(os.path.join(self.out_dir, self.prefix + name), "w",
                      newline=newline) as fh:
                fill(fh)
        except OSError as exc:
            raise ConfigError("output_dir", f"cannot write {name}: {exc}") from None

    def write_text(self, name: str, text: str) -> None:
        self._write(name, lambda fh: fh.write(text))

    def write_csv(self, name: str, columns: dict) -> None:
        """Header -> equal-length column, written one row per index. A float
        cell is written as ``repr(float(v))``; any other cell as csv.writer
        writes it (``None`` as an empty cell)."""
        cells = [
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v
             for v in column]
            for column in columns.values()
        ]

        def fill(fh):
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(zip(*cells, strict=True))
        self._write(name, fill, newline="")

    def finalize(self, report: dict) -> dict:
        """Write report.json and manifest.json; the manifest carries the
        timestamps so report.json stays byte-identical across reruns."""
        report["manifest"] = sorted(
            self.files + [self.prefix + "report.json", self.prefix + "manifest.json"]
        )
        manifest = {"files": report["manifest"], "created_unix_time": time.time()}
        for name, doc in (("report.json", report), ("manifest.json", manifest)):
            self.write_text(name, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return report


def run_eda(cfg: ExperimentConfig) -> dict:
    table = load_csv(cfg.data_path)
    run = _Run(cfg.output_dir)

    names = table.names
    corr, undefined = pearson_correlation(table)
    run.write_csv("correlation.csv", {"": names, **dict(zip(names, corr.T))})
    run.write_text(
        "correlation.svg",
        plots.heatmap_svg(names, corr, undefined, "Correlation Heatmap"),
    )

    counts = income_histogram(table)
    run.write_csv("income_hist.csv", {"category": INCOME_CODES, "count": counts})
    run.write_text(
        "income_hist.svg",
        plots.bar_svg(
            INCOME_CODES, counts,
            "Distribution of Income", "Income category", "Respondents",
        ),
    )
    report = {
        "command": "eda",
        "config": asdict(cfg),
        "dataset": {"n_rows": table.n_rows},
        "income_histogram": {str(c): n for c, n in zip(INCOME_CODES, counts)},
        "warnings": [],
    }
    return run.finalize(report)


def _class_counts(y) -> dict:
    n_pos = int(np.sum(y))
    return {"0": len(y) - n_pos, "1": n_pos}


def _balanced_full_features(cfg: ExperimentConfig):
    table = load_csv(cfg.data_path)
    features, labels = binarize_target(table)
    X, y = smote_balance(features.rows, labels, cfg.smote)
    return list(features.names), X, y, labels


def run_features(cfg: ExperimentConfig) -> dict:
    names, X, y, raw_labels = _balanced_full_features(cfg)
    run = _Run(cfg.output_dir)

    # the configured lambda may lie on the path; each distinct one is fit once
    lambdas = np.logspace(-4, 2, 10).tolist()
    fits = {lam: lasso_coefficients(X, y, lam)
            for lam in dict.fromkeys([cfg.lasso_lambda, *lambdas])}
    coefs = fits[cfg.lasso_lambda]
    run.write_csv("lasso_coefs.csv", {"name": names, "coefficient": coefs})

    path = np.array([fits[lam] for lam in lambdas])
    run.write_csv("lasso_path.csv", {
        "lambda": lambdas, "nonzero_count": np.count_nonzero(path, axis=1),
        **dict(zip(names, path.T)),
    })

    importance, degenerate = impurity_importance(fit_forest(X, y, cfg.forest))
    run.write_csv("forest_importance.csv",
                  {"name": names, "importance": importance})

    ranks = rfe(X, y, cfg.rfe_n_select)
    selected = ranks == 1
    run.write_csv("rfe.csv", {"name": names, "selected": selected, "rank": ranks})

    consensus = consensus_rank(coefs, importance, ranks)
    run.write_csv("consensus.csv", {"name": names, **consensus})

    report = {
        "command": "features",
        "config": asdict(cfg),
        "dataset": {
            "n_rows": len(raw_labels),
            "class_counts_before": _class_counts(raw_labels),
            "class_counts_after": _class_counts(y),
        },
        "rfe_selected": [n for n, s in zip(names, selected) if s],
        "consensus_order": [
            names[i] for i in np.argsort(consensus["mean_rank"], kind="stable")
        ],
        "lasso_nonzero": [n for n, c in zip(names, coefs) if c != 0.0],
        "forest_importance_degenerate": degenerate,
        "warnings": [],
    }
    return run.finalize(report)


def _experiment_data(cfg: ExperimentConfig, experiment: str, balanced: bool):
    """load -> binarize -> select -> (SMOTE) -> split, per the configured
    order. Returns train/test matrices plus bookkeeping counts."""
    if experiment not in TITLES:
        raise BadParams(
            f"experiment must be health or income, got {experiment!r}")
    table = load_csv(cfg.data_path)
    features, y = binarize_target(table)
    names = (
        list(cfg.health_features) if experiment == "health" else INCOME_FEATURE
    )
    X = select_columns(features, names).rows
    before = _class_counts(y)

    if balanced and not cfg.split_first:
        X, y = smote_balance(X, y, cfg.smote)
    train, test = train_test_split(len(y), cfg.test_fraction, cfg.seed)
    X_train, y_train = X[train], y[train]
    X_test, y_test = X[test], y[test]
    if balanced and cfg.split_first:
        X_train, y_train = smote_balance(X_train, y_train, cfg.smote)
    after = _class_counts(np.concatenate([y_train, y_test]))
    return names, X_train, y_train, X_test, y_test, before, after


def _grid_cells_csv(run: _Run, name: str, result: GridResult):
    run.write_csv(name, {
        **{p: [combo[p] for combo in result.combos] for p in result.combos[0]},
        **{f"fold_{i}": fold for i, fold in enumerate(result.scores.T)},
        "mean": result.scores.mean(axis=1),
        "std": result.scores.std(axis=1),
    })


def _grid_summary(result: GridResult) -> dict:
    return {
        "family": result.family,
        "n_fits": result.n_fits,
        "n_combinations": len(result.combos),
        "folds": result.scores.shape[1],
        "best_params": result.best_params,
        "best_mean_score": result.best_mean_score,
        "baseline_mean_score": float(result.scores[0].mean()),
    }


def _experiment_run(cfg: ExperimentConfig) -> _Run:
    """The run of a train or tune-only command; a split-first run's artifacts
    carry ``SPLIT_FIRST_PREFIX``."""
    return _Run(cfg.output_dir, SPLIT_FIRST_PREFIX if cfg.split_first else "")


def _model_params(cfg: ExperimentConfig, experiment: str):
    """The configured params of an experiment's model; tuning starts here."""
    return cfg.logreg if experiment == "health" else cfg.tree


def _tune(cfg: ExperimentConfig, experiment: str, X_train, y_train):
    family, grid = (
        ("logistic", cfg.logistic_grid) if experiment == "health"
        else ("tree", cfg.tree_grid)
    )
    return grid_search(
        X_train, y_train, family, grid,
        CvConfig(folds=cfg.cv_folds, seed=cfg.seed),
        base=_model_params(cfg, experiment),
    )


def _evaluate_and_write(run, title, y_test, y_pred, scores):
    report = classification_report(y_test, y_pred)
    roc = roc_curve(y_test, scores)
    pr = pr_curve(y_test, scores)
    cm = confusion(y_test, y_pred)

    run.write_csv("roc.csv",
                  {"threshold": roc.thresholds, "x": roc.fpr, "y": roc.tpr})
    run.write_text(
        "roc.svg",
        plots.curve_svg(
            roc.fpr, roc.tpr,
            f"{title} ROC Curve", "False positive rate", "True positive rate",
            annotation=f"AUC = {roc.auc:.4f}", diagonal=True,
        ),
    )
    run.write_csv("pr.csv",
                  {"threshold": pr.thresholds, "x": pr.recall, "y": pr.precision})
    run.write_text(
        "pr.svg",
        plots.curve_svg(
            pr.recall, pr.precision,
            f"{title} Precision-Recall Curve", "Recall", "Precision",
            annotation=f"AP = {pr.average_precision:.4f}",
        ),
    )
    run.write_csv("confusion.csv", {
        "": ["true_0", "true_1"],
        "pred_0": [cm["tn"], cm["fn"]],
        "pred_1": [cm["fp"], cm["tp"]],
    })
    return report, roc, pr, cm


def run_train(cfg: ExperimentConfig, experiment: str, tuned: bool,
              balanced: bool = True) -> dict:
    names, X_train, y_train, X_test, y_test, before, after = _experiment_data(
        cfg, experiment, balanced
    )
    if len(np.unique(y_test)) < 2:  # checked before any fit: scoring needs both
        raise SingleClass(f"the {len(y_test)}-row test split (test_fraction = "
                          f"{cfg.test_fraction!r}) does not hold both classes")
    run = _experiment_run(cfg)

    warnings = []
    if balanced and not cfg.split_first:
        warnings.append(LEAKAGE_WARNING)

    params = _model_params(cfg, experiment)
    grid_result = None
    if tuned:
        grid_result = _tune(cfg, experiment, X_train, y_train)
        _grid_cells_csv(run, "grid.csv", grid_result)
        params = replace(params, **grid_result.best_params)

    # both models fit the training rows' count table: the same fit as on the
    # rows, from one entry per distinct (row, label) pair
    X_fit, y_fit, n_fit = count_tables(X_train, y_train)()
    if experiment == "health":
        model = fit_logreg(X_fit, y_fit, params, feature_names=names,
                           counts=n_fit)
        scores = predict_proba(model, X_test)
        y_pred = predict_label(model, X_test)
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
        model = fit_tree(X_fit, y_fit, params, feature_names=names,
                         counts=n_fit)
        y_pred, scores = predict_tree(model, X_test)
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
        "config": asdict(cfg),
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
            "confusion": cm,
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
    _, X_train, y_train, _, _, before, after = _experiment_data(
        cfg, experiment, balanced=True
    )
    run = _experiment_run(cfg)
    grid_result = _tune(cfg, experiment, X_train, y_train)
    _grid_cells_csv(run, "grid.csv", grid_result)
    doc = {
        "command": "tune-only",
        "experiment": experiment,
        "config": asdict(cfg),
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


def rerender_report(out_dir: str) -> None:
    """Rebuild report.txt from report.json and splitfirst_report.txt from
    splitfirst_report.json, each where its JSON exists (report subcommand).
    With neither present, reading report.json fails."""
    prefixes = [p for p in ("", SPLIT_FIRST_PREFIX)
                if os.path.exists(os.path.join(out_dir, p + "report.json"))]
    for prefix in prefixes or [""]:
        path = os.path.join(out_dir, prefix + "report.json")
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            text = _render_report(doc)
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: not JSON
            raise PipelineError(
                f"{path} is not the report.json of a train/baseline run; "
                f"nothing to re-render ({type(exc).__name__}: {exc})"
            ) from None
        _Run(out_dir).write_text(prefix + "report.txt", text)

"""Traced run of one diabrisk command, and the per-layer figures of a round.

Run as a script, this file is the traced stand-in for the ``diabrisk``
console script::

    python3 perfbench/tracer.py SPANS.json -- train --experiment health ...

It times ``import diabrisk.cli``, wraps each public layer function at the
module attribute its callers look it up by (``pipeline.load_csv``,
``gridsearch.fit_tree``, ``tree.fit_tree`` for the calls inside
``fit_forest``, ...), calls ``diabrisk.cli.main`` in process and exits with its
code. Spans (name, call site, parent, start, end, counts) stay in memory and
are written to SPANS.json once, when the command ends, even when it raises.

``layer_metrics`` folds the span files of one round into the per-layer
metrics that ``run.py --trace 1`` reports.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import sys
import time

# span name -> (modules whose attribute is wrapped, count hook name or None)
WRAPPED = {
    "dataset.load_csv": (["pipeline"], "rows"),
    "dataset.pearson_correlation": (["pipeline"], None),
    "dataset.income_histogram": (["pipeline"], None),
    "smote.smote_balance": (["pipeline"], "synthetic"),
    "logistic.fit_logreg": (
        ["pipeline", "gridsearch", "feature_selection", "logistic"], "logreg"),
    "logistic.lasso_coefficients": (["pipeline"], None),
    "logistic.predict_proba": (["pipeline", "gridsearch"], None),
    "logistic.predict_label": (["pipeline"], None),
    "logistic.model_to_text": (["pipeline"], None),
    "tree.fit_tree": (["pipeline", "gridsearch", "tree"], "tree"),
    "tree.fit_forest": (["pipeline"], None),
    "tree.predict_tree": (["pipeline", "gridsearch"], None),
    "tree.impurity_importance": (["pipeline"], None),
    "tree.tree_to_text": (["pipeline"], None),
    "feature_selection.rfe": (["pipeline"], None),
    "feature_selection.consensus_rank": (["pipeline"], None),
    "gridsearch.grid_search": (["pipeline"], "grid"),
    "metrics.roc_curve": (["pipeline", "gridsearch"], None),
    "metrics.pr_curve": (["pipeline"], None),
    "metrics.classification_report": (["pipeline"], None),
    "metrics.confusion": (["pipeline"], None),
    "metrics.report_to_dict": (["pipeline"], None),
    "metrics.report_to_text": (["pipeline"], None),
    "plots.curve_svg": (["plots"], "svg"),
    "plots.bar_svg": (["plots"], "svg"),
    "plots.heatmap_svg": (["plots"], "svg"),
}


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.open = []
        self.trees = []  # (span index, fitted tree), counted after the command

    def begin(self, name, site):
        span = {"name": name, "site": site,
                "parent": self.open[-1] if self.open else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self.open.append(len(self.spans) - 1)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self.open.pop()


def _count(hook, span, args, result):
    counts = span["counts"]
    if hook == "rows":
        counts["rows"] = int(result.n_rows)
        counts["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif hook == "synthetic":
        counts["synthetic"] = int(len(result[1]) - len(args[1]))
    elif hook == "logreg":
        counts["n_iter"] = int(result.n_iter)
        counts["converged"] = int(bool(result.converged))
    elif hook == "grid":
        counts["n_fits"] = int(result.n_fits)
    elif hook == "svg":
        counts["bytes"] = len(result.encode("utf-8"))


def _wrap(func, name, site, hook, recorder):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = recorder.begin(name, site)
        index = len(recorder.spans) - 1
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(span)
        if hook == "tree":
            recorder.trees.append((index, result))
        elif hook is not None:
            _count(hook, span, args, result)
        return result
    return traced


def install(recorder):
    """Wrap every function of ``WRAPPED`` that the program still has."""
    originals = {}
    for name, (sites, hook) in WRAPPED.items():
        for site in sites:
            module = importlib.import_module(f"diabrisk.{site}")
            attr = name.split(".", 1)[1]
            func = getattr(module, attr, None)
            if func is None:
                print(f"tracer: diabrisk.{site}.{attr} not found", file=sys.stderr)
                continue
            originals.setdefault(name, func)
            setattr(module, attr, _wrap(func, name, site, hook, recorder))
    return originals


def _count_tree_nodes(recorder, originals):
    """Internal nodes of each fitted tree, read from its text dump."""
    to_text = originals.get("tree.tree_to_text")
    for index, model in recorder.trees:
        text = to_text(model) if to_text else ""
        recorder.spans[index]["counts"]["nodes"] = sum(
            1 for line in text.splitlines() if line.lstrip().startswith("split ")
        )


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <diabrisk arguments>")
    t0 = time.perf_counter()
    import diabrisk.cli
    import_s = time.perf_counter() - t0

    recorder = Recorder()
    originals = install(recorder)
    root = recorder.begin("cli.main", "cli")
    try:
        code = diabrisk.cli.main(cli_args)
    finally:
        recorder.end(root)
        _count_tree_nodes(recorder, originals)
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return code


# ---------------------------------------------------------------- aggregation

def _duration(span):
    return span["end"] - span["start"]


def _self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)
    return [_duration(s) - c for s, c in zip(spans, child_time)]


def _has_ancestor(spans, span, name):
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(traces, untraced_ops, artifact_bytes):
    """Per-layer metrics of one traced round.

    ``traces`` holds the span files of the round's commands, ``untraced_ops``
    the same commands' untraced results (for CPU time) and ``artifact_bytes``
    the size of everything the traced commands wrote.
    """
    total = {}
    counts = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    def count(key, value):
        counts[key] = counts.get(key, 0) + value

    load_rss = 0.0
    for trace in traces:
        spans = trace["spans"]
        self_times = _self_times(spans)
        for span, self_s in zip(spans, self_times):
            name, c = span["name"], span["counts"]
            add(name, _duration(span))
            count(name + "#calls", 1)
            for key, value in c.items():
                if key == "peak_rss_mb":
                    load_rss = max(load_rss, value)
                else:
                    count(f"{name}#{key}", value)
            if name == "cli.main":
                add("pipeline.self", self_s)
            elif name == "gridsearch.grid_search":
                add("gridsearch.self", self_s)
            elif name == "logistic.fit_logreg" and _has_ancestor(
                    spans, span, "feature_selection.rfe"):
                count("rfe_fits", 1)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def n(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    load_s = t("dataset.load_csv")
    fit_s = t("logistic.fit_logreg")
    tree_s = t("tree.fit_tree")
    search_s = t("gridsearch.grid_search")
    return {
        "cli.import_s": ("s", statistics.median(tr["import_s"] for tr in traces)),
        "cli.cpu_s": ("s", sum(op.cpu_s for op in untraced_ops)),
        "dataset.load_s": ("s", load_s),
        "dataset.rows_per_s": ("rows/s", ratio(n("dataset.load_csv#rows"), load_s)),
        "dataset.peak_rss_mb": ("MB", load_rss),
        "dataset.eda_s": ("s", t("dataset.pearson_correlation",
                                 "dataset.income_histogram")),
        "smote.balance_s": ("s", t("smote.smote_balance")),
        "smote.synthetic_rows": ("rows", n("smote.smote_balance#synthetic")),
        "logistic.fit_s": ("s", fit_s),
        "logistic.fits": ("count", n("logistic.fit_logreg#calls")),
        "logistic.iters": ("count", n("logistic.fit_logreg#n_iter")),
        "logistic.converged_ratio": ("ratio", ratio(
            n("logistic.fit_logreg#converged"), n("logistic.fit_logreg#calls"))),
        "logistic.lasso_s": ("s", t("logistic.lasso_coefficients")),
        "tree.fit_s": ("s", tree_s),
        "tree.fits": ("count", n("tree.fit_tree#calls")),
        "tree.nodes": ("count", n("tree.fit_tree#nodes")),
        "tree.nodes_per_s": ("nodes/s", ratio(n("tree.fit_tree#nodes"), tree_s)),
        "tree.forest_s": ("s", t("tree.fit_forest")),
        "tree.predict_s": ("s", t("tree.predict_tree")),
        "tree.serialize_s": ("s", t("tree.tree_to_text")),
        "feature_selection.rfe_s": ("s", t("feature_selection.rfe")),
        "feature_selection.rfe_fits": ("count", n("rfe_fits")),
        "gridsearch.search_s": ("s", search_s),
        "gridsearch.self_s": ("s", t("gridsearch.self")),
        "gridsearch.fits_per_s": ("fits/s", ratio(
            n("gridsearch.grid_search#n_fits"), search_s)),
        "metrics.curves_s": ("s", t("metrics.roc_curve", "metrics.pr_curve")),
        "metrics.report_s": ("s", t("metrics.classification_report",
                                    "metrics.confusion", "metrics.report_to_dict",
                                    "metrics.report_to_text")),
        "plots.svg_s": ("s", t("plots.curve_svg", "plots.bar_svg",
                               "plots.heatmap_svg")),
        "plots.svg_bytes": ("bytes", sum(
            n(f"plots.{k}#bytes") for k in ("curve_svg", "bar_svg", "heatmap_svg"))),
        "pipeline.self_s": ("s", t("pipeline.self")),
        "pipeline.artifact_bytes": ("bytes", artifact_bytes),
    }


if __name__ == "__main__":
    sys.exit(main())

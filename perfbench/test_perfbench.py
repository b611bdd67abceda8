"""Tests of the benchmark itself: the generator's table is one the program
accepts, and every output check passes on real output and fails on a
deliberately corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import synth  # noqa: E402
from diabrisk import cli  # noqa: E402
from diabrisk.dataset import load_csv  # noqa: E402

SEED = 5
SCALE = 0.03


def test_full_scale_table_loads_with_the_real_class_counts(tmp_path):
    path = tmp_path / "full.csv"
    synth.write_csv(synth.generate(SEED), path)
    table = load_csv(path)  # validates every cell against the column specs
    assert table.n_rows == 253_680
    codes = np.bincount(table.column("Diabetes_012").astype(int))
    assert codes.tolist() == [213_703, 4_631, 35_346]
    assert table.column("BMI").min() >= 12 and table.column("BMI").max() <= 98
    assert len(np.unique(table.column("BMI"))) > 60
    assert len(np.unique(table.column("MentHlth"))) == 31
    assert path.read_text().splitlines()[1].split(",")[0].endswith(".0")


def test_same_seed_same_table_and_planted_income_effect():
    a, b = synth.generate(3, 0.1), synth.generate(3, 0.1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, synth.generate(4, 0.1))
    income = a[:, synth.NAMES.index("Income")]
    positive = a[:, 0] > 0
    rates = [positive[income == k].mean() for k in (1, 8)]
    assert rates[0] > rates[1]  # lower income, higher risk


def _run(tmp_path, name, config, *args, seed=SEED, scale=SCALE, table=None):
    """Run one CLI command in process on a fresh table; returns Inputs and
    the output directory."""
    table = synth.generate(seed, scale) if table is None else table
    data = tmp_path / "table.csv"
    synth.write_csv(table, data)
    cfg = HERE / "configs" / config
    out = tmp_path / name
    code = cli.main(list(args) + ["--data", str(data), "--config", str(cfg),
                                  "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return checks.Inputs(table, seed, checks.read_config(cfg)), out


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_text(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _fails_after(check, inputs, out, corrupt, tmp_path):
    bad = tmp_path / "corrupted"
    shutil.copytree(out, bad)
    corrupt(bad)
    return check(inputs, bad, "")


def _csv_cell(path, row, col, value):
    header, rows = checks._csv(path)
    rows[row][col] = value
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


@pytest.fixture(scope="module")
def eda_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("eda"), "out", "survey.cfg", "eda")


@pytest.mark.parametrize("corrupt", [
    lambda d: _csv_cell(d / "correlation.csv", 3, 5, "0.5"),
    lambda d: _csv_cell(d / "income_hist.csv", 2, 1, "7"),
    lambda d: _edit_json(d / "report.json",
                         lambda r: r["dataset"].update(n_rows=r["dataset"]["n_rows"] - 1)),
])
def test_eda_check(eda_run, corrupt, tmp_path):
    inputs, out = eda_run
    assert checks.eda(inputs, out, "") == []
    assert _fails_after(checks.eda, inputs, out, corrupt, tmp_path)


def test_data_error_check():
    assert checks.data_error(None, None, "data error: bad cell at row 1\n") == []
    assert checks.data_error(None, None, "Traceback (most recent call last):\n")
    assert checks.data_error(None, None, "")


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("baseline"), "out", "survey.cfg", "baseline")


def _scale_weights(d):
    text = (d / "model.txt").read_text()
    line = next(ln for ln in text.splitlines() if ln.startswith("weights = "))
    scaled = ",".join(repr(1.5 * float(v)) for v in line[10:].split(","))
    (d / "model.txt").write_text(text.replace(line, "weights = " + scaled))


@pytest.mark.parametrize("corrupt", [
    _scale_weights,
    lambda d: _edit_json(d / "report.json", lambda r: r["metrics"].update(auc=r["metrics"]["auc"] + 1e-6)),
    lambda d: _edit_json(d / "report.json", lambda r: r["metrics"]["confusion"].update(
        tp=r["metrics"]["confusion"]["tp"] + 1, fn=r["metrics"]["confusion"]["fn"] - 1)),
    lambda d: _edit_json(d / "report.json", lambda r: r["dataset"].update(train_rows=1)),
])
def test_baseline_check(baseline_run, corrupt, tmp_path):
    inputs, out = baseline_run
    assert checks.baseline(inputs, out, "") == []
    assert _fails_after(checks.baseline, inputs, out, corrupt, tmp_path)


@pytest.fixture(scope="module")
def income_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("income"), "out", "survey.cfg",
                "train", "--experiment", "income")


@pytest.mark.parametrize("corrupt", [
    lambda d: _edit_text(d / "tree.txt", "leaf neg=", "leaf neg=1"),
    lambda d: _edit_json(d / "report.json", lambda r: r["dataset"]["class_counts_after"].update({"1": 0})),
    lambda d: _edit_json(d / "report.json", lambda r: r["metrics"]["classification_report"].update(accuracy=0.5)),
])
def test_train_income_check(income_run, corrupt, tmp_path):
    inputs, out = income_run
    assert checks.train_income(inputs, out, "") == []
    assert _fails_after(checks.train_income, inputs, out, corrupt, tmp_path)


@pytest.fixture(scope="module")
def health_tuned_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("health"), "out", "health-tuned.cfg",
                "train", "--experiment", "health", "--tuned")


@pytest.mark.parametrize("corrupt", [
    lambda d: _csv_cell(d / "grid.csv", 4, 3, "0.45"),
    lambda d: _edit_json(d / "report.json", lambda r: r["grid"]["best_params"].update(optimizer="other")),
    lambda d: _edit_json(d / "report.json", lambda r: r["grid"].update(n_fits=49)),
])
def test_health_tuned_check(health_tuned_run, corrupt, tmp_path):
    inputs, out = health_tuned_run
    assert checks.health_tuned(inputs, out, "") == []
    assert _fails_after(checks.health_tuned, inputs, out, corrupt, tmp_path)


@pytest.fixture(scope="module")
def income_tuned_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("income_tuned"), "out", "income-tuned.cfg",
                "train", "--experiment", "income", "--tuned", "--split-first")


def _swap_first_leaf(d):
    path = d / "splitfirst_tree.txt"
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.lstrip().startswith("leaf "))
    head, _, counts = lines[i].partition("leaf ")
    fields = dict(kv.split("=") for kv in counts.split())
    lines[i] = f"{head}leaf neg={fields['pos']} pos={fields['neg']}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", [
    _swap_first_leaf,
    lambda d: _edit_json(d / "splitfirst_report.json", lambda r: r["metrics"].update(auc=0.6)),
    lambda d: _csv_cell(d / "splitfirst_grid.csv", 0, 4, "1.5"),
])
def test_income_tuned_check(income_tuned_run, corrupt, tmp_path):
    inputs, out = income_tuned_run
    assert checks.income_tuned(inputs, out, "") == []
    assert _fails_after(checks.income_tuned, inputs, out, corrupt, tmp_path)


def test_read_and_apply_tree():
    text = ("tree max_depth=None min_samples_split=2 min_samples_leaf=1 n_features=1\n"
            "features Income\n"
            "split feature=0 threshold=3.5 impurity=0.5 n=10 decrease=0.1\n"
            "  leaf neg=1 pos=3\n"
            "  split feature=0 threshold=6.5 impurity=0.4 n=6 decrease=0.1\n"
            "    leaf neg=2 pos=1\n"
            "    leaf neg=3 pos=0\n")
    tree = checks.read_tree(text)
    leaf = checks.apply_tree(tree, np.array([[1.0], [3.5], [5.0], [8.0]]))
    assert [tree[4][k] for k in leaf] == [1, 1, 2, 3]


@pytest.fixture(scope="module")
def features_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("features"), "out", "features.cfg", "features",
                scale=0.06)


@pytest.mark.parametrize("corrupt", [
    lambda d: _csv_cell(d / "forest_importance.csv", 0, 1, "-0.01"),
    lambda d: _csv_cell(d / "rfe.csv", 0, 2, "1" if checks._csv(d / "rfe.csv")[1][0][2] != "1" else "2"),
    lambda d: _csv_cell(d / "consensus.csv", 0, 4, "20.0"),
    lambda d: _edit_json(d / "report.json", lambda r: r.update(consensus_order=r["consensus_order"][::-1])),
])
def test_features_check(features_run, corrupt, tmp_path):
    inputs, out = features_run
    assert checks.features(inputs, out, "") == []
    assert _fails_after(checks.features, inputs, out, corrupt, tmp_path)

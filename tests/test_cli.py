import json
import os

import numpy as np
import pytest

from diabrisk import gridsearch, pipeline
from diabrisk.cli import main
from diabrisk.logistic import model_from_text
from diabrisk.tree import tree_from_text

from conftest import synthetic_rows, write_rows


def run_cli(*args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestEda:
    def test_writes_artifacts_and_manifest(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        assert run_cli("eda", "--data", synthetic_csv, "--out", str(out)) == 0
        report = read_json(out / "report.json")
        manifest = read_json(out / "manifest.json")
        listing = sorted(os.listdir(out))
        assert manifest["files"] == listing
        assert report["manifest"] == listing
        assert {"correlation.csv", "correlation.svg", "income_hist.csv",
                "income_hist.svg"} <= set(listing)
        assert report["dataset"]["n_rows"] == 600
        assert sum(report["income_histogram"].values()) == 600

    def test_correlation_csv_square(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        run_cli("eda", "--data", synthetic_csv, "--out", str(out))
        lines = (out / "correlation.csv").read_text().splitlines()
        assert len(lines) == 23  # header + 22 variables
        assert all(len(line.split(",")) == 23 for line in lines)


class TestTrain:
    def test_health_end_to_end(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("train", "--experiment", "health",
                       "--data", synthetic_csv, "--out", str(out))
        assert code == 0
        report = read_json(out / "report.json")
        assert report["experiment"] == "health"
        assert report["model"]["type"] == "logistic"
        auc = report["metrics"]["auc"]
        assert 0.5 < auc <= 1.0  # the synthetic signal must be learnable
        # balancing happened before the split
        after = report["dataset"]["class_counts_after"]
        assert after["0"] == after["1"]
        assert any("before the train/test split" in w
                   for w in report["warnings"])
        model = model_from_text((out / "model.txt").read_text())
        assert model.weights.shape == (6,)

    def test_income_tree_end_to_end(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("train", "--experiment", "income",
                       "--data", synthetic_csv, "--out", str(out))
        assert code == 0
        report = read_json(out / "report.json")
        assert report["model"]["type"] == "tree"
        tree = tree_from_text((out / "tree.txt").read_text())
        assert tree.feature_names == ("Income",)
        cm = report["metrics"]["confusion"]
        assert (cm["tn"] + cm["fp"] + cm["fn"] + cm["tp"]
                == report["dataset"]["test_support"])

    def test_report_json_byte_identical_across_reruns(
        self, synthetic_csv, tmp_path
    ):
        out = tmp_path / "out"
        run_cli("train", "--experiment", "health",
                "--data", synthetic_csv, "--out", str(out))
        first = (out / "report.json").read_bytes()
        run_cli("train", "--experiment", "health",
                "--data", synthetic_csv, "--out", str(out))
        assert (out / "report.json").read_bytes() == first

    def test_seed_override_changes_split(self, synthetic_csv, tmp_path):
        reports = []
        for seed, sub in (("42", "a"), ("7", "b")):
            out = tmp_path / sub
            run_cli("train", "--experiment", "health", "--seed", seed,
                    "--data", synthetic_csv, "--out", str(out))
            reports.append(read_json(out / "report.json"))
        assert reports[0]["config"]["seed"] == 42
        assert reports[1]["config"]["seed"] == 7
        assert reports[0]["metrics"] != reports[1]["metrics"]

    def test_split_first_prefix_and_no_leakage_warning(
        self, synthetic_csv, tmp_path
    ):
        out = tmp_path / "out"
        code = run_cli("train", "--experiment", "health", "--split-first",
                       "--data", synthetic_csv, "--out", str(out))
        assert code == 0
        report = read_json(out / "splitfirst_report.json")
        assert not any("before the train/test split" in w
                       for w in report["warnings"])
        # test set keeps the natural imbalance; only training is balanced
        assert report["dataset"]["class_counts_after"]["0"] \
            != report["dataset"]["class_counts_after"]["1"]

    def test_tuned_writes_grid(self, tmp_path):
        data = write_rows(tmp_path / "d.csv", synthetic_rows(300, seed=3))
        out = tmp_path / "out"
        code = run_cli(
            "train", "--experiment", "income", "--tuned",
            "--data", data, "--out", str(out),
            "--config", str(write_config(
                tmp_path, "grid.tree.max_depth = 2, 4\ncv.folds = 3\n"
            )),
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert report["grid"]["n_fits"] == 6
        assert (out / "grid.csv").exists()

    def test_tuning_starts_from_configured_logreg(
        self, synthetic_csv, tmp_path, monkeypatch
    ):
        seen = {"grid": [], "refit": []}
        for module, key in ((gridsearch, "grid"), (pipeline, "refit")):
            def recording(X, y, params, *a, _fit=module.fit_logreg, _key=key,
                          **kw):
                seen[_key].append(params)
                return _fit(X, y, params, *a, **kw)
            monkeypatch.setattr(module, "fit_logreg", recording)
        conf = write_config(tmp_path, (
            "logreg.penalty = l1\nlogreg.max_iter = 50\nlogreg.tol = 1e-5\n"
            "grid.logistic.c = 0.1, 1\ncv.folds = 3\n"
        ))
        code = run_cli("train", "--experiment", "health", "--tuned",
                       "--data", synthetic_csv, "--out", str(tmp_path / "out"),
                       "--config", str(conf))
        assert code == 0
        assert len(seen["grid"]) == 6 and len(seen["refit"]) == 1
        for params in seen["grid"] + seen["refit"]:
            assert (params.penalty, params.max_iter, params.tol) \
                == ("l1", 50, 1e-5)

    def test_tuning_starts_from_configured_tree(
        self, synthetic_csv, tmp_path, monkeypatch
    ):
        seen = []
        for module in (gridsearch, pipeline):
            def recording(X, y, params, *a, _fit=module.fit_tree, **kw):
                seen.append(params)
                return _fit(X, y, params, *a, **kw)
            monkeypatch.setattr(module, "fit_tree", recording)
        out = tmp_path / "out"
        conf = write_config(tmp_path, (
            "tree.min_samples_leaf = 20\ngrid.tree.max_depth = 2, 4\n"
            "cv.folds = 3\n"
        ))
        code = run_cli("train", "--experiment", "income", "--tuned",
                       "--data", synthetic_csv, "--out", str(out),
                       "--config", str(conf))
        assert code == 0
        assert len(seen) == 7  # 2 cells x 3 folds + the refit
        assert all(p.min_samples_leaf == 20 for p in seen)
        report = read_json(out / "report.json")
        assert report["model"]["params"]["min_samples_leaf"] == 20

    def test_baseline_runs_without_smote(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        assert run_cli("baseline", "--data", synthetic_csv,
                       "--out", str(out)) == 0
        report = read_json(out / "report.json")
        assert report["command"] == "baseline"
        assert report["balanced"] is False
        assert (report["dataset"]["class_counts_before"]
                == report["dataset"]["class_counts_after"])


def write_config(tmp_path, text):
    path = tmp_path / "exp.conf"
    path.write_text(text)
    return path


class TestFeatures:
    def test_feature_selection_artifacts(self, tmp_path):
        data = write_rows(tmp_path / "d.csv", synthetic_rows(400, seed=5))
        out = tmp_path / "out"
        code = run_cli("features", "--data", data, "--out", str(out),
                       "--config", str(write_config(tmp_path,
                                                    "forest.n_trees = 10\n")))
        assert code == 0
        report = read_json(out / "report.json")
        assert len(report["rfe_selected"]) == 10
        assert len(report["consensus_order"]) == 21
        for name in ("lasso_coefs.csv", "lasso_path.csv",
                     "forest_importance.csv", "rfe.csv", "consensus.csv"):
            assert (out / name).exists()


class TestTuneOnly:
    def test_grid_only_run(self, tmp_path):
        data = write_rows(tmp_path / "d.csv", synthetic_rows(250, seed=9))
        out = tmp_path / "out"
        code = run_cli(
            "tune-only", "--experiment", "health", "--data", data,
            "--out", str(out),
            "--config", str(write_config(
                tmp_path, "grid.logistic.c = 0.1, 1\ncv.folds = 3\n"
            )),
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert report["grid"]["n_fits"] == 6
        assert not (out / "model.txt").exists()


class TestReportSubcommand:
    @pytest.mark.parametrize("command", [
        ("train", "--experiment", "health"),
        ("train", "--experiment", "income", "--tuned"),
        ("baseline",),
    ], ids=["health", "income-tuned", "baseline"])
    def test_rerender_matches_original(self, synthetic_csv, tmp_path, command):
        out = tmp_path / "out"
        assert run_cli(*command, "--data", synthetic_csv, "--out", str(out)) == 0
        original = (out / "report.txt").read_text()
        (out / "report.txt").unlink()
        assert run_cli("report", "--out", str(out)) == 0
        assert (out / "report.txt").read_text() == original

    def test_non_train_report_rejected(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        run_cli("eda", "--data", synthetic_csv, "--out", str(out))
        assert run_cli("report", "--out", str(out)) == 3


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        assert run_cli("train", "--experiment", "health",
                       "--data", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "out")) == 2

    def test_invalid_cell_is_data_error(self, tmp_path):
        rows = synthetic_rows(30, seed=1)
        rows[4][3] = "banana"
        data = write_rows(tmp_path / "bad.csv", rows)
        assert run_cli("eda", "--data", data,
                       "--out", str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("defect", ["short_row", "bad_byte"])
    def test_malformed_csv_is_data_error(self, tmp_path, capsys, defect):
        rows = synthetic_rows(30, seed=1)
        if defect == "short_row":
            rows[4] = rows[4][:-2]
        data = write_rows(tmp_path / "bad.csv", rows)
        if defect == "bad_byte":
            raw = (tmp_path / "bad.csv").read_bytes().split(b"\n")
            raw[5] = b"\xff" + raw[5]
            (tmp_path / "bad.csv").write_bytes(b"\n".join(raw))
        assert run_cli("eda", "--data", data,
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "row 5" in err

    def test_single_class_is_training_error(self, tmp_path):
        rows = synthetic_rows(50, seed=2, diabetes_rate=0.0)
        data = write_rows(tmp_path / "one.csv", rows)
        assert run_cli("train", "--experiment", "health", "--data", data,
                       "--out", str(tmp_path / "out")) == 3

    def test_unknown_config_key_is_config_error(self, synthetic_csv, tmp_path):
        conf = write_config(tmp_path, "smotee.k = 5\n")
        assert run_cli("eda", "--data", synthetic_csv,
                       "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 4

    @pytest.mark.parametrize("grid", [
        "grid.logistic.c = 0, 1", "grid.tree.min_samples_leaf = 0",
    ])
    def test_bad_grid_value_is_config_error(
        self, synthetic_csv, tmp_path, capsys, grid
    ):
        experiment = "health" if "logistic" in grid else "income"
        conf = write_config(tmp_path, grid + "\n")
        assert run_cli("train", "--experiment", experiment, "--tuned",
                       "--data", synthetic_csv, "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 4
        assert capsys.readouterr().err.startswith("config error:")

    def test_no_data_given(self, tmp_path):
        assert run_cli("eda", "--out", str(tmp_path / "out")) == 4

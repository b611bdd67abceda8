import csv
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest

from diabrisk import gridsearch, pipeline
from diabrisk.cli import main
from diabrisk.config import ExperimentConfig
from diabrisk.dataset import CANONICAL_COLUMNS
from diabrisk.errors import BadParams

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
        # model.txt writes each float as its repr, which reads back exactly
        fields = dict(line.split(" = ", 1) for line in
                      (out / "model.txt").read_text().splitlines())
        weights = [float(v) for v in fields["weights"].split(",")]
        names = fields["feature_names"].split(",")
        assert len(weights) == len(names) == 6
        assert dict(zip(names, weights)) == report["model"]["weights"]
        assert float(fields["intercept"]) == report["model"]["intercept"]

    def test_income_tree_end_to_end(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("train", "--experiment", "income",
                       "--data", synthetic_csv, "--out", str(out))
        assert code == 0
        report = read_json(out / "report.json")
        assert report["model"]["type"] == "tree"
        text = (out / "tree.txt").read_text()
        assert "features Income" in text.splitlines()
        leaves = re.findall(r"leaf neg=(\d+) pos=(\d+)", text)
        assert (sum(int(neg) + int(pos) for neg, pos in leaves)
                == report["dataset"]["train_rows"])
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

    def test_directly_built_config_runs(self, synthetic_csv, tmp_path):
        cfg = ExperimentConfig(data_path=synthetic_csv,
                               output_dir=str(tmp_path / "out"))
        report = pipeline.run_train(cfg, "health", tuned=False)
        assert report["config"]["smote"]["seed"] == 42

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

    def test_tuned_writes_grid(self, tmp_path, monkeypatch):
        results = {}
        for name in ("roc_curve", "grid_search"):
            def recording(*a, _f=getattr(pipeline, name), _name=name, **kw):
                results[_name] = _f(*a, **kw)
                return results[_name]
            monkeypatch.setattr(pipeline, name, recording)
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
        # every float cell reads back as the value it was written from
        roc, grid = results["roc_curve"], results["grid_search"]
        expected = {
            "roc.csv": {"threshold": roc.thresholds, "x": roc.fpr, "y": roc.tpr},
            "grid.csv": {**{f"fold_{i}": f for i, f in enumerate(grid.scores.T)},
                         "mean": grid.scores.mean(axis=1),
                         "std": grid.scores.std(axis=1)},
        }
        for name, columns in expected.items():
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for header, values in columns.items():
                assert [float(row[header]) for row in rows] == values.tolist()

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
        # 3 folds x 1 min_samples_leaf group (grown with no max_depth, which
        # stop_early applies to each cell) + the refit
        assert len(seen) == 4
        assert [p.max_depth for p in seen[:3]] == [None, None, None]
        assert all(p.min_samples_leaf == 20 for p in seen)
        report = read_json(out / "report.json")
        assert report["model"]["params"]["min_samples_leaf"] == 20

    @pytest.mark.parametrize("config, args, leaf", [
        ("tree.min_samples_leaf = 9223372036854775808\n", (), 2**63),
        ("grid.tree.min_samples_leaf = 1, 100000000000000000000000\n",
         ("--tuned",), 1),
    ], ids=["leaf-2**63", "grid-leaf-10**23"])
    def test_huge_min_samples_leaf_runs(self, synthetic_csv, tmp_path,
                                        config, args, leaf):
        # a leaf bound above the row count gives one leaf; the report and
        # tree.txt keep the value asked for
        out = tmp_path / "out"
        code = run_cli("train", "--experiment", "income", *args,
                       "--data", synthetic_csv, "--out", str(out),
                       "--config", str(write_config(tmp_path, config)))
        assert code == 0
        report = read_json(out / "report.json")
        assert report["model"]["params"]["min_samples_leaf"] == leaf
        assert f"min_samples_leaf={leaf} " in (out / "tree.txt").read_text()

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

    def test_no_leakage_warning(self, tmp_path):
        # features has no test set for synthetic rows to leak into, and no
        # --split-first flag for a warning to point to
        data = write_rows(tmp_path / "d.csv", synthetic_rows(200, seed=5))
        out = tmp_path / "out"
        code = run_cli("features", "--data", data, "--out", str(out),
                       "--config", str(write_config(tmp_path,
                                                    "forest.n_trees = 2\n")))
        assert code == 0
        assert read_json(out / "report.json")["warnings"] == []

    @pytest.mark.parametrize("lam, n_fits", [(0.01, 10), (0.03, 11)])
    def test_each_lasso_lambda_fit_once(self, tmp_path, monkeypatch, lam, n_fits):
        # 0.01 lies on the 10-point path, 0.03 does not. A fit may run in a
        # pool worker, so each one saves its lambda and coefficients to a
        # file of its own.
        saved = tmp_path / "fits"
        saved.mkdir()
        lasso = pipeline.lasso_coefficients

        def recording(X, y, value):
            coefs = lasso(X, y, value)
            fd, name = tempfile.mkstemp(dir=saved)
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, np.concatenate(([value], coefs)))
            return coefs
        monkeypatch.setattr(pipeline, "lasso_coefficients", recording)
        data = write_rows(tmp_path / "d.csv", synthetic_rows(200, seed=5))
        out = tmp_path / "out"
        code = run_cli("features", "--data", data, "--out", str(out),
                       "--config", str(write_config(
                           tmp_path, f"forest.n_trees = 2\nlasso.lambda = {lam}\n")))
        assert code == 0
        fits = [(fit[0], fit[1:]) for fit in map(np.load, saved.iterdir())]
        lams = [fit_lam for fit_lam, _ in fits]
        assert len(lams) == n_fits == len(set(lams))
        assert lam in lams
        with open(out / "lasso_coefs.csv") as fh:
            written = [float(row["coefficient"]) for row in csv.DictReader(fh)]
        assert written == dict(fits)[lam].tolist()


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

    def test_split_first_prefix_and_no_leakage_warning(self, tmp_path):
        data = write_rows(tmp_path / "d.csv", synthetic_rows(250, seed=9))
        out = tmp_path / "out"
        code = run_cli(
            "tune-only", "--experiment", "income", "--split-first",
            "--data", data, "--out", str(out),
            "--config", str(write_config(
                tmp_path, "grid.tree.max_depth = 2, 4\ncv.folds = 3\n"
            )),
        )
        assert code == 0
        listing = sorted(os.listdir(out))
        assert listing == ["splitfirst_grid.csv", "splitfirst_manifest.json",
                           "splitfirst_report.json"]
        report = read_json(out / "splitfirst_report.json")
        assert report["manifest"] == listing
        assert report["grid"]["n_fits"] == 6
        assert not any("before the train/test split" in w
                       for w in report["warnings"])

    @pytest.mark.parametrize("run", [
        lambda cfg: pipeline.run_tune_only(cfg, "foo"),
        lambda cfg: pipeline.run_train(cfg, "foo", tuned=True),
    ], ids=["tune-only", "train"])
    def test_unknown_experiment_rejected_before_any_work(
        self, synthetic_csv, tmp_path, run
    ):
        out = tmp_path / "out"
        cfg = ExperimentConfig(data_path=synthetic_csv, output_dir=str(out))
        with pytest.raises(BadParams, match="got 'foo'"):
            run(cfg)
        assert not out.exists()


class TestWarnings:
    """Each warning of a train/baseline run is in report.json and in the
    Warnings block of report.txt."""

    @staticmethod
    def assert_warned(out, start):
        warned = [w for w in read_json(out / "report.json")["warnings"]
                  if w.startswith(start)]
        assert len(warned) == 1
        text = (out / "report.txt").read_text()
        assert "\nWarnings:\n" in text and f"\n- {warned[0]}\n" in text

    def test_degenerate_minority_recall(self, tmp_path):
        data = write_rows(tmp_path / "d.csv",
                          synthetic_rows(600, seed=7, diabetes_rate=0.1))
        out = tmp_path / "out"
        assert run_cli("baseline", "--data", data, "--out", str(out)) == 0
        report = read_json(out / "report.json")
        assert report["metrics"]["classification_report"]["class1"]["recall"] == 0.0
        self.assert_warned(out, "degenerate minority recall 0.000: ")

    def test_stopped_before_convergence(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli("train", "--experiment", "health",
                       "--data", synthetic_csv, "--out", str(out),
                       "--config", str(write_config(tmp_path,
                                                    "logreg.max_iter = 1\n")))
        assert code == 0
        assert read_json(out / "report.json")["model"]["converged"] is False
        self.assert_warned(out, "logistic fit stopped after 1 iterations ")

    def test_unstandardized_l1_fit_converges_without_warning(
            self, synthetic_csv, tmp_path):
        # every L1 fit runs proximal Newton, though the default optimizer is
        # gradient
        out = tmp_path / "out"
        conf = write_config(tmp_path, "logreg.penalty = l1\n"
                                      "logreg.standardize = false\n")
        assert run_cli("train", "--experiment", "health", "--split-first",
                       "--data", synthetic_csv, "--out", str(out),
                       "--config", str(conf)) == 0
        report = read_json(out / "splitfirst_report.json")
        assert report["config"]["logreg"]["optimizer"] == "gradient"
        assert report["model"]["converged"] is True
        assert report["model"]["n_iter"] < 1000
        assert report["warnings"] == []


class TestReportSubcommand:
    @pytest.mark.parametrize("command", [
        ("train", "--experiment", "health"),
        ("train", "--experiment", "income", "--tuned"),
        ("baseline",),
        ("train", "--experiment", "health", "--split-first"),
    ], ids=["health", "income-tuned", "baseline", "health-split-first"])
    def test_rerender_matches_original(self, synthetic_csv, tmp_path, command):
        out = tmp_path / "out"
        assert run_cli(*command, "--data", synthetic_csv, "--out", str(out)) == 0
        text = out / ("splitfirst_report.txt" if "--split-first" in command
                      else "report.txt")
        original = text.read_text()
        text.unlink()
        assert run_cli("report", "--out", str(out)) == 0
        assert text.read_text() == original

    def test_non_train_report_rejected(self, synthetic_csv, tmp_path):
        out = tmp_path / "out"
        run_cli("eda", "--data", synthetic_csv, "--out", str(out))
        assert run_cli("report", "--out", str(out)) == 3

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"metrics": {}, "experiment": "health"}',
    ], ids=["not_json", "no_classification_report"])
    def test_damaged_report_rejected(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text(text)
        assert run_cli("report", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(out / "report.json") in err and "Traceback" not in err


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        assert run_cli("train", "--experiment", "health",
                       "--data", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "out")) == 2

    def test_output_dir_that_is_a_file_is_config_error(
        self, synthetic_csv, tmp_path, capsys
    ):
        out = tmp_path / "F"
        out.write_text("")
        assert run_cli("eda", "--data", synthetic_csv, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir: ")
        assert "Traceback" not in err

    def test_unwritable_artifact_is_config_error(
        self, synthetic_csv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        (out / "correlation.csv").mkdir(parents=True)
        assert run_cli("eda", "--data", synthetic_csv, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir: cannot write correlation.csv")
        assert "Traceback" not in err

    def test_unwritable_rerendered_report_is_config_error(
        self, synthetic_csv, tmp_path, capsys
    ):
        out = tmp_path / "o"
        assert run_cli("train", "--experiment", "health",
                       "--data", synthetic_csv, "--out", str(out)) == 0
        (out / "report.txt").unlink()
        (out / "report.txt").mkdir()
        assert run_cli("report", "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir: cannot write report.txt")

    def test_header_only_csv_is_one_line_data_error(self, tmp_path, capsys):
        data = write_rows(tmp_path / "empty.csv", [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr
            code = run_cli("eda", "--data", data, "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == "data error: no data rows\n"

    def test_invalid_cell_is_data_error(self, tmp_path):
        rows = synthetic_rows(30, seed=1)
        rows[4][3] = "banana"
        data = write_rows(tmp_path / "bad.csv", rows)
        assert run_cli("eda", "--data", data,
                       "--out", str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("defect", ["short_row", "long_row", "bad_byte"])
    def test_malformed_csv_is_data_error(self, tmp_path, capsys, defect):
        rows = synthetic_rows(30, seed=1)
        if defect == "short_row":
            rows[4] = rows[4][:-2]
        if defect == "long_row":
            rows[4].insert(19, 1)  # before the Age cell
        data = write_rows(tmp_path / "bad.csv", rows)
        if defect == "bad_byte":
            raw = (tmp_path / "bad.csv").read_bytes().split(b"\n")
            raw[5] = b"\xff" + raw[5]
            (tmp_path / "bad.csv").write_bytes(b"\n".join(raw))
        assert run_cli("eda", "--data", data,
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "row 5" in err

    def test_cell_over_csv_field_limit_is_data_error(self, tmp_path, capsys):
        rows = synthetic_rows(5, seed=1)
        bmi = CANONICAL_COLUMNS.index("BMI")
        lines = [",".join(CANONICAL_COLUMNS)]
        for i, row in enumerate(rows, start=1):
            cells = [str(v) for v in row]
            if i == 3:  # 200,002 characters, over csv.field_size_limit()
                cells[bmi] = '"' + "0" * 200_000 + '30"'
            lines.append(",".join(cells))
        data = tmp_path / "long_cell.csv"
        data.write_text("\n".join(lines) + "\n")
        assert run_cli("eda", "--data", str(data),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: row 3: field larger than field limit")
        assert "Traceback" not in err

    def test_too_many_folds_names_both_counts(self, synthetic_csv, tmp_path,
                                              capsys):
        conf = write_config(tmp_path, "cv.folds = 100000\n")
        assert run_cli("train", "--experiment", "health", "--tuned",
                       "--data", synthetic_csv, "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 3
        err = capsys.readouterr().err
        assert re.match(r"error: cannot split \d+ rows into 100000 folds", err)

    def test_single_class_is_training_error(self, tmp_path):
        rows = synthetic_rows(50, seed=2, diabetes_rate=0.0)
        data = write_rows(tmp_path / "one.csv", rows)
        assert run_cli("train", "--experiment", "health", "--data", data,
                       "--out", str(tmp_path / "out")) == 3

    def test_single_class_test_split_names_split(self, synthetic_csv, tmp_path,
                                                 capsys):
        conf = write_config(tmp_path, "test_fraction = 0.001\n")
        assert run_cli("train", "--experiment", "health",
                       "--data", synthetic_csv, "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 3
        err = capsys.readouterr().err
        assert err == ("training error: the 1-row test split (test_fraction "
                       "= 0.001) does not hold both classes\n")
        assert not (tmp_path / "out").exists()

    def test_empty_test_split_is_training_error(self, synthetic_csv, tmp_path,
                                                capsys):
        # rounds to no test rows, which hold neither class
        conf = write_config(tmp_path, "test_fraction = 0.0001\n")
        assert run_cli("train", "--experiment", "health",
                       "--data", synthetic_csv, "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 3
        err = capsys.readouterr().err
        assert err == ("training error: the 0-row test split (test_fraction "
                       "= 0.0001) does not hold both classes\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_is_config_error(self, synthetic_csv, tmp_path):
        conf = write_config(tmp_path, "smotee.k = 5\n")
        assert run_cli("eda", "--data", synthetic_csv,
                       "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 4

    def test_repeated_config_key_is_config_error(self, synthetic_csv, tmp_path,
                                                 capsys):
        conf = write_config(tmp_path, "seed = 1\n# again\nseed = 2\n")
        assert run_cli("eda", "--data", synthetic_csv,
                       "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 4
        assert capsys.readouterr().err == (
            f"config error: {conf}:3: seed is set again (first on line 1)\n")

    def test_repeated_csv_column_is_data_error(self, tmp_path, capsys):
        header = CANONICAL_COLUMNS + ["Income"]
        rows = [row + [1] for row in synthetic_rows(30, seed=1)]
        data = write_rows(tmp_path / "twice.csv", rows, header=header)
        assert run_cli("eda", "--data", data,
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "data error: repeated column: Income\n"

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
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert err.count("config error") == 1
        assert {
            "grid.logistic.c = 0, 1": "grid.logistic.c: bad value 0.0:",
            "grid.tree.min_samples_leaf = 0": "grid.tree.min_samples_leaf: bad value 0:",
        }[grid] in err

    @pytest.mark.parametrize("command, setting, key", [
        (("train", "--experiment", "health", "--tuned"), "cv.folds = 1", "cv.folds"),
        (("features",), "rfe.n_select = 0", "rfe.n_select"),
        (("features",), "rfe.n_select = 22", "rfe.n_select"),
        (("features",), "forest.max_features = 0", "forest.max_features"),
        (("features",), "lasso.lambda = 0", "lasso.lambda"),
        (("eda",), "smote.seed = -1", "smote.seed"),
        (("eda",), "--seed -1", "seed"),
        (("train", "--experiment", "health"), "health_features =", "health_features"),
        (("train", "--experiment", "health"), "health_features = BMI, BMI",
         "health_features"),
        (("train", "--experiment", "health"), "logreg.c = nan", "logreg.c"),
        (("train", "--experiment", "health"), "logreg.c = 1e-320", "logreg.c"),
        (("train", "--experiment", "health"), "logreg.tol = nan", "logreg.tol"),
        (("features",), "lasso.lambda = nan", "lasso.lambda"),
        (("features",), "lasso.lambda = inf", "lasso.lambda"),
        (("train", "--experiment", "health"), "logreg.tol = inf", "logreg.tol"),
        (("train", "--experiment", "health", "--tuned"), "grid.logistic.c = nan, 1",
         "grid.logistic.c"),
        (("train", "--experiment", "health", "--tuned"), "grid.logistic.c =",
         "grid.logistic.c"),
        (("train", "--experiment", "health", "--tuned"),
         "grid.logistic.c = 1, 1e-320", "grid.logistic.c"),
        (("train", "--experiment", "income", "--tuned"), "grid.tree.max_depth = ,",
         "grid.tree.max_depth"),
    ], ids=["folds", "n_select_0", "n_select_22", "max_features", "lambda",
            "smote_seed", "seed_flag", "no_health_features",
            "repeated_health_feature", "c_nan", "c_subnormal", "tol_nan",
            "lambda_nan", "lambda_inf", "tol_inf",
            "grid_c_nan", "grid_c_empty", "grid_c_subnormal", "grid_depth_empty"])
    def test_bad_setting_is_config_error(
        self, synthetic_csv, tmp_path, capsys, command, setting, key
    ):
        args = [*command, "--data", synthetic_csv, "--out", str(tmp_path / "out")]
        if setting.startswith("--"):
            args += setting.split()
        else:
            args += ["--config", str(write_config(tmp_path, setting + "\n"))]
        assert run_cli(*args) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: bad value ")
        assert "Traceback" not in err

    def test_undecodable_config_is_config_error(
        self, synthetic_csv, tmp_path, capsys
    ):
        conf = tmp_path / "exp.conf"
        conf.write_bytes(b"seed = 1\n\xff = 2\n")
        assert run_cli("eda", "--data", synthetic_csv,
                       "--out", str(tmp_path / "out"),
                       "--config", str(conf)) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {conf}: ")
        assert "UTF-8" in err and "Traceback" not in err

    def test_no_data_given(self, tmp_path):
        assert run_cli("eda", "--out", str(tmp_path / "out")) == 4


class TestWriteCsv:
    def test_cell_rule_bytes(self, tmp_path):
        run = pipeline._Run(str(tmp_path))
        run.write_csv("cells.csv", {
            "": [0.1], "third": [np.float64(1 / 3)], "small": [1e-05],
            "inf": [math.inf], "ninf": [-math.inf], "int": [np.int64(3)],
            "flag": [True], "none": [None], "text": ["a,b"],
        })
        assert (tmp_path / "cells.csv").read_bytes() == (
            b",third,small,inf,ninf,int,flag,none,text\r\n"
            b'0.1,0.3333333333333333,1e-05,inf,-inf,3,True,,"a,b"\r\n'
        )
        assert run.files == ["cells.csv"]

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline._Run(str(tmp_path)).write_csv("bad.csv", {"a": [1, 2], "b": [1]})

import math
from dataclasses import asdict

import numpy as np
import pytest

from diabrisk.config import ExperimentConfig, parse_config
from diabrisk.dataset import train_test_split
from diabrisk.errors import BadParams, ConfigError, PipelineError
from diabrisk.logistic import LogRegParams, lasso_coefficients
from diabrisk.smote import SmoteParams
from diabrisk.tree import ForestParams, TreeParams


class TestDefaults:
    def test_empty_config_defaults(self):
        cfg = parse_config()
        assert cfg.seed == 42
        assert cfg.test_fraction == 0.2
        assert cfg.cv_folds == 5
        assert cfg.rfe_n_select == 10
        assert cfg.lasso_lambda == 0.01
        assert cfg.split_first is False
        assert cfg.health_features == (
            "HighBP", "HighChol", "CholCheck", "Smoker",
            "HvyAlcoholConsump", "BMI",
        )

    def test_seed_propagates_to_smote_and_forest(self):
        cfg = parse_config(overrides={"seed": "7"})
        assert cfg.smote.seed == 7
        assert cfg.forest.seed == 7

    def test_output_dir_env(self, monkeypatch):
        monkeypatch.setenv("DIABRISK_OUT", "/tmp/elsewhere")
        assert parse_config().output_dir == "/tmp/elsewhere"
        monkeypatch.delenv("DIABRISK_OUT")
        assert parse_config().output_dir == "out"


class TestFileParsing:
    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(
            "# experiment settings\n"
            "seed = 11\n"
            "logreg.c = 0.5   # inline comment\n"
            "tree.max_depth = none\n"
            "grid.logistic.c = 0.1, 1, 10\n"
            "smote.k_neighbors = 3\n"
            "\n"
            "split_first = true\n"
        )
        cfg = parse_config(str(path))
        assert cfg.seed == 11
        assert cfg.logreg.C == 0.5
        assert cfg.tree.max_depth is None
        assert cfg.logistic_grid == {"C": [0.1, 1.0, 10.0]}
        assert cfg.smote.k_neighbors == 3
        assert cfg.smote.seed == 11
        assert cfg.split_first is True

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("seed = 11\n")
        cfg = parse_config(str(path), overrides={"seed": "99"})
        assert cfg.seed == 99

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"smotee": "5"})
        assert "smotee" in str(exc.value)

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"seed": "forty-two"})

    def test_bad_grid_number_names_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"grid.tree.min_samples_split": "2, a"})
        assert str(exc.value) == "grid.tree.min_samples_split: expected int, got 'a'"

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"split_first": "maybe"})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/exp.conf")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("seed 11\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_byte_order_mark_is_read(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_bytes(b"\xef\xbb\xbfseed = 11\n")
        assert parse_config(str(path)).seed == 11

    def test_grid_tree_depth_list_with_none(self):
        cfg = parse_config(overrides={"grid.tree.max_depth": "none, 3, 5"})
        assert cfg.tree_grid == {"max_depth": [None, 3, 5]}


class TestValidation:
    def test_unknown_health_feature(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"health_features": "HighBP, NotAColumn"})

    def test_test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"test_fraction": "0"})
        with pytest.raises(ConfigError):
            parse_config(overrides={"test_fraction": "1.0"})

    def test_infinite_c_is_no_penalty(self):
        # 1/C = 0 is finite, unlike the 1/C of a subnormal C
        cfg = parse_config(overrides={"logreg.c": "inf"})
        assert cfg.logreg.C == math.inf

    def test_forest_size_is_bounded(self, tmp_path):
        # refused at parse time, before any tree is submitted
        path = tmp_path / "exp.conf"
        path.write_text("forest.n_trees = 99999999999999999999999\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert str(exc.value).startswith("forest.n_trees: bad value")
        cfg = parse_config(overrides={"forest.n_trees": "10000"})
        assert cfg.forest.n_trees == 10_000

    def test_bad_model_param_wrapped(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"logreg.penalty": "elastic"})
        assert str(exc.value).startswith("logreg.penalty: bad value 'elastic'")
        assert "config error" not in str(exc.value)


# one out-of-range value per place that checks a parameter's value
BAD_PARAMS = {
    "logreg": lambda: LogRegParams(C=-1),
    "tree": lambda: TreeParams(min_samples_leaf=0),
    "forest": lambda: ForestParams(n_trees=0),
    "smote": lambda: SmoteParams(target_ratio=1.5),
    "experiment": lambda: ExperimentConfig(cv_folds=1),
    "lasso": lambda: lasso_coefficients(np.eye(2), np.array([0, 1]), 0.0),
    "split": lambda: train_test_split(10, 1.5, seed=0),
}


def test_forest_params_bound_the_tree_count():
    # 10,000 trees of the full table take about 7 CPU-hours
    assert ForestParams(n_trees=10_000).n_trees == 10_000
    with pytest.raises(BadParams, match="n_trees"):
        ForestParams(n_trees=10_001)


@pytest.mark.parametrize("site", sorted(BAD_PARAMS))
def test_bad_param_value_is_a_pipeline_error(site):
    with pytest.raises(PipelineError) as exc:
        BAD_PARAMS[site]()
    # BadParams, which a caller that catches ValueError still catches
    assert isinstance(exc.value, BadParams)
    assert isinstance(exc.value, ValueError)


class TestEcho:
    def test_dict_round_trips_key_fields(self):
        cfg = parse_config(overrides={"seed": "5", "logreg.c": "2.0"})
        d = asdict(cfg)
        assert d["seed"] == 5
        assert d["logreg"]["C"] == 2.0
        assert d["smote"]["seed"] == 5
        assert d["health_features"][0] == "HighBP"

    def test_direct_construction_resolves(self):
        cfg = ExperimentConfig(seed=3)
        assert cfg.smote.seed == 3
        assert cfg.output_dir is not None

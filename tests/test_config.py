import contextlib
import io
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diabrisk import config
from diabrisk.cli import main
from diabrisk.config import ExperimentConfig, parse_config
from diabrisk.dataset import train_test_split
from diabrisk.errors import BadParams, ConfigError, PipelineError
from diabrisk.logistic import LogRegParams, lasso_coefficients
from diabrisk.smote import SmoteParams
from diabrisk.tree import ForestParams, TreeParams

from conftest import synthetic_rows, write_rows


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


# a valid config: every key but data_path and output_dir, which eda takes
# from --data and --out
VALID_CONFIG = {
    "seed": "7", "test_fraction": "0.25", "split_first": "false",
    "health_features": "HighBP, BMI", "cv.folds": "3", "lasso.lambda": "0.05",
    "rfe.n_select": "5", "smote.k_neighbors": "3", "smote.seed": "2",
    "smote.target_ratio": "1.0", "logreg.penalty": "l2", "logreg.c": "0.5",
    "logreg.optimizer": "gradient", "logreg.max_iter": "200",
    "logreg.tol": "1e-6", "logreg.standardize": "true", "tree.max_depth": "4",
    "tree.min_samples_split": "2", "tree.min_samples_leaf": "1",
    "forest.n_trees": "3", "forest.max_features": "2",
    "grid.logistic.c": "0.1, 1", "grid.logistic.optimizer": "gradient, coordinate",
    "grid.tree.max_depth": "none, 3", "grid.tree.min_samples_split": "2, 10",
    "grid.tree.min_samples_leaf": "1, 5",
}


def keys_parsed_by(*parsers):
    return sorted(key for key, (_, _, parse) in config._KEYS.items()
                  if parse in parsers)


INT_KEYS = keys_parsed_by(config._parse_int, config._parse_depth)
FLOAT_KEYS = keys_parsed_by(config._parse_float)
LIST_KEYS = ["health_features"] + sorted(k for k in config._KEYS
                                         if k.startswith("grid."))
HUGE = str(10**23)

# one mutation of a valid config -> (the keys it may hit, the value it sets,
# the start of its line after "config error: "); unknown_key renames a key
# and repeated_key sets it on a second line
CONFIG_MUTATIONS = {
    "unknown_key": (sorted(VALID_CONFIG), None, "{key}: unknown key\n"),
    "repeated_key": (sorted(VALID_CONFIG), None,
                     "{path}:{line}: {key} is set again (first on line {first})\n"),
    "int_as_float": (INT_KEYS, "1e3", "{key}: expected int, got '1e3'\n"),
    "float_as_text": (FLOAT_KEYS, "abc", "{key}: expected float, got 'abc'\n"),
    "nan": (FLOAT_KEYS, "nan", "{key}: bad value nan: "),
    "huge_bounded": (["forest.n_trees", "rfe.n_select"], HUGE,
                     "{key}: bad value " + HUGE + ": "),
    "empty_list": (LIST_KEYS, "", "{key}: bad value "),
}


@st.composite
def mutated_configs(draw, mutation):
    """``(lines, fields of the expected line)``: ``VALID_CONFIG`` as
    ``key = value`` lines in a drawn order, with one mutation of
    ``CONFIG_MUTATIONS`` at a drawn key."""
    keys, value, _ = CONFIG_MUTATIONS[mutation]
    order = draw(st.permutations(sorted(VALID_CONFIG)))
    lines = [f"{k} = {VALID_CONFIG[k]}" for k in order]
    key = draw(st.sampled_from(keys))
    at = order.index(key)
    fields = {"key": key}
    if mutation == "unknown_key":
        fields["key"] = key + draw(st.sampled_from("sx_."))
        assume(fields["key"] not in config._KEYS)
        lines[at] = f"{fields['key']} = {VALID_CONFIG[key]}"
    elif mutation == "repeated_key":
        again = draw(st.integers(at + 1, len(lines)))
        lines.insert(again, lines[at])
        fields.update(line=again + 1, first=at + 1)
    else:
        lines[at] = f"{key} = {value}"
    return lines, fields


def eda_with_config(lines):
    """``cli.main(["eda", ...])`` in process on a valid 40-row CSV and a
    config of ``lines``: the exit code, what it wrote to stderr, and the
    config's path."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stderr(err):
        data = write_rows(Path(work, "t.csv"), synthetic_rows(40, seed=1))
        path = Path(work, "exp.conf")
        path.write_text("".join(line + "\n" for line in lines))
        code = main(["eda", "--data", data, "--config", str(path),
                     "--out", str(Path(work, "out"))])
    return code, err.getvalue(), str(path)


class TestConfigContract:
    """What ``diabrisk eda`` does with a config that differs from a valid
    one in one place: exit 4 and one ``config error:`` line naming the key.

    Huge values of unbounded keys are not mutations here, because they run:
    ``seed``, ``smote.seed``, ``logreg.max_iter``, ``tree.max_depth`` and
    ``forest.max_features`` at 10**23 each ran ``train`` and ``features``
    on a 0.02-scale table, and ``tree.min_samples_split``,
    ``tree.min_samples_leaf`` and ``grid.tree.min_samples_leaf`` (with 1)
    at 10**23 each ran ``train --experiment income``, with and without
    ``--tuned``. A ``cv.folds`` above the row count exits 3 after the data
    is read, by design."""

    def test_valid_config_runs(self):
        code, err, _ = eda_with_config(
            [f"{k} = {v}" for k, v in VALID_CONFIG.items()])
        assert (code, err) == (0, "")

    # 20 examples per mutation: about 0.8 s of tier-1 on a 2-vCPU VM
    @pytest.mark.parametrize("mutation", sorted(CONFIG_MUTATIONS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_one_mutation_is_named(self, mutation, data):
        lines, fields = data.draw(mutated_configs(mutation))
        code, err, path = eda_with_config(lines)
        expected = CONFIG_MUTATIONS[mutation][2].format(path=path, **fields)
        assert code == 4
        assert err.startswith("config error: " + expected), err
        assert err.count("\n") == 1 and err.endswith("\n")

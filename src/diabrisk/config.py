"""Experiment configuration: documented key=value file format plus flag
overrides.

Config files contain one ``key = value`` pair per line; blank lines and
``#`` comments are ignored. Dotted keys address nested settings. Unknown
keys are rejected. List values are comma separated. ``none`` is accepted
for ``tree.max_depth`` and inside ``grid.tree.max_depth``.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .dataset import FEATURE_COLUMNS, HEALTH_MODEL_FEATURES
from .errors import BadParams, ConfigError
from .logistic import LogRegParams
from .smote import SmoteParams
from .tree import ForestParams, TreeParams


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str = None
    seed: int = 42
    test_fraction: float = 0.2
    output_dir: str = None
    health_features: tuple = tuple(HEALTH_MODEL_FEATURES)
    smote: SmoteParams = None
    logreg: LogRegParams = field(default_factory=LogRegParams)
    tree: TreeParams = field(default_factory=TreeParams)
    forest: ForestParams = None
    logistic_grid: dict = None   # None -> gridsearch defaults
    tree_grid: dict = None
    cv_folds: int = 5
    lasso_lambda: float = 0.01
    rfe_n_select: int = 10
    split_first: bool = False

    def __post_init__(self):
        if not self.health_features:
            raise BadParams("health_features must name at least one feature")
        for name in self.health_features:
            if name not in FEATURE_COLUMNS:
                raise BadParams(f"unknown feature {name}")
        if len(set(self.health_features)) < len(self.health_features):
            raise BadParams("health_features names a column twice")
        if self.seed < 0:
            raise BadParams("seed must be >= 0")
        if not 0.0 < self.test_fraction < 1.0:
            raise BadParams("test_fraction must be in (0, 1)")
        if self.cv_folds < 2:
            raise BadParams("folds must be >= 2")
        if not 0 < self.lasso_lambda < math.inf:  # NaN fails too
            raise BadParams("lambda must be > 0 and finite")
        if not 1 <= self.rfe_n_select <= len(FEATURE_COLUMNS):
            raise BadParams(
                f"n_select must be in 1..{len(FEATURE_COLUMNS)} (the feature count)")
        # the seed-dependent and environment-dependent defaults
        if self.smote is None:
            object.__setattr__(self, "smote", SmoteParams(seed=self.seed))
        if self.forest is None:
            object.__setattr__(self, "forest", ForestParams(seed=self.seed))
        if self.output_dir is None:
            object.__setattr__(
                self, "output_dir", os.environ.get("DIABRISK_OUT", "out"))


def _parse_bool(key, text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(key, f"expected a boolean, got {text!r}")


def _parse_num(kind):
    def parse(key, text):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(key, f"expected {kind.__name__}, got {text!r}") from None
    return parse


_parse_int = _parse_num(int)
_parse_float = _parse_num(float)


def _parse_str(key, text):
    return text


def _parse_depth(key, text):
    if text.lower() == "none":
        return None
    return _parse_int(key, text)


def _csv_list(text, convert):
    return [convert(v.strip()) for v in text.split(",") if v.strip()]


def _parse_names(key, text):
    return tuple(_csv_list(text, str))


# key -> (group, field, parser). The group "config" is ExperimentConfig
# itself; a "*_grid" key takes a comma separated list of field values.
_KEYS = {
    "data_path": ("config", "data_path", _parse_str),
    "seed": ("config", "seed", _parse_int),
    "test_fraction": ("config", "test_fraction", _parse_float),
    "output_dir": ("config", "output_dir", _parse_str),
    "split_first": ("config", "split_first", _parse_bool),
    "health_features": ("config", "health_features", _parse_names),
    "cv.folds": ("config", "cv_folds", _parse_int),
    "lasso.lambda": ("config", "lasso_lambda", _parse_float),
    "rfe.n_select": ("config", "rfe_n_select", _parse_int),
    "smote.k_neighbors": ("smote", "k_neighbors", _parse_int),
    "smote.seed": ("smote", "seed", _parse_int),
    "smote.target_ratio": ("smote", "target_ratio", _parse_float),
    "logreg.penalty": ("logreg", "penalty", _parse_str),
    "logreg.c": ("logreg", "C", _parse_float),
    "logreg.optimizer": ("logreg", "optimizer", _parse_str),
    "logreg.max_iter": ("logreg", "max_iter", _parse_int),
    "logreg.tol": ("logreg", "tol", _parse_float),
    "logreg.standardize": ("logreg", "standardize", _parse_bool),
    "tree.max_depth": ("tree", "max_depth", _parse_depth),
    "tree.min_samples_split": ("tree", "min_samples_split", _parse_int),
    "tree.min_samples_leaf": ("tree", "min_samples_leaf", _parse_int),
    "forest.n_trees": ("forest", "n_trees", _parse_int),
    "forest.max_features": ("forest", "max_features", _parse_int),
    "grid.logistic.c": ("logistic_grid", "C", _parse_float),
    "grid.logistic.optimizer": ("logistic_grid", "optimizer", _parse_str),
    "grid.tree.max_depth": ("tree_grid", "max_depth", _parse_depth),
    "grid.tree.min_samples_split": ("tree_grid", "min_samples_split", _parse_int),
    "grid.tree.min_samples_leaf": ("tree_grid", "min_samples_leaf", _parse_int),
}


def _with_field(key, params, name, value):
    """``params`` with one field replaced; an invalid value is a config error
    at the key that gave it."""
    try:
        return replace(params, **{name: value})
    except ValueError as exc:
        raise ConfigError(key, f"bad value {value!r}: {exc}") from None


def parse_config(path: str = None, overrides: dict = None) -> ExperimentConfig:
    """Build a config from an optional file and optional flag overrides;
    flags take precedence over file values."""
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:  # a BOM is read
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(path, f"cannot read config file: {exc}") from None
        except UnicodeDecodeError:
            raise ConfigError(path, "config file is not valid UTF-8 text") from None
        first_line = {}  # key -> the line that set it
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}", "expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}", f"{key} is set again "
                                  f"(first on line {first_line[key]})")
            first_line[key] = lineno
            raw[key] = value.strip()
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    cfg = ExperimentConfig()
    fields = []  # (key, params group, field, value)
    grids = {"logistic_grid": {}, "tree_grid": {}}  # field -> (key, values)
    for key, value in raw.items():
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        group, name, parse = _KEYS[key]
        if group == "config":
            cfg = _with_field(key, cfg, name, parse(key, value))
        elif group in grids:
            values = _csv_list(value, lambda v: parse(key, v))
            if not values:
                raise ConfigError(
                    key, f"bad value {value!r}: a grid needs at least one value")
            grids[group][name] = (key, values)
        else:
            fields.append((key, group, name, parse(key, value)))

    # at None, smote and forest are rebuilt from the final master seed; each
    # params value and each grid value (against the configured params) is
    # then checked under its key
    cfg = replace(cfg, smote=None, forest=None)
    for key, group, name, value in fields:
        cfg = replace(cfg, **{group: _with_field(
            key, getattr(cfg, group), name, value)})
    for group, base in (("logistic_grid", cfg.logreg), ("tree_grid", cfg.tree)):
        for name, (key, values) in grids[group].items():
            for value in values:
                _with_field(key, base, name, value)
        if grids[group]:
            cfg = replace(cfg, **{group: {
                name: values for name, (_, values) in grids[group].items()}})
    return cfg

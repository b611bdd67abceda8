"""Experiment configuration: documented key=value file format plus flag
overrides.

Config files contain one ``key = value`` pair per line; blank lines and
``#`` comments are ignored. Dotted keys address nested settings. Unknown
keys are rejected. List values are comma separated. ``none`` is accepted
for ``tree.max_depth`` and inside ``grid.tree.max_depth``.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace

from .dataset import FEATURE_COLUMNS, HEALTH_MODEL_FEATURES
from .errors import ConfigError
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

    def resolved(self) -> "ExperimentConfig":
        """Fill in the seed-dependent and environment-dependent defaults."""
        cfg = self
        if cfg.smote is None:
            cfg = replace(cfg, smote=SmoteParams(seed=cfg.seed))
        if cfg.forest is None:
            cfg = replace(cfg, forest=ForestParams(seed=cfg.seed))
        if cfg.output_dir is None:
            cfg = replace(
                cfg, output_dir=os.environ.get("DIABRISK_OUT", "out")
            )
        for name in cfg.health_features:
            if name not in FEATURE_COLUMNS:
                raise ConfigError("health_features", f"unknown feature {name}")
        if not 0.0 < cfg.test_fraction < 1.0:
            raise ConfigError("test_fraction", "must be in (0, 1)")
        return cfg


def _parse_bool(key, text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(key, f"expected a boolean, got {text!r}")


def _parse_num(key, text, kind):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(key, f"expected {kind.__name__}, got {text!r}") from None


def _parse_depth(key, text):
    if text.lower() == "none":
        return None
    return _parse_num(key, text, int)


def _csv_list(text, convert):
    return [convert(v.strip()) for v in text.split(",") if v.strip()]


def parse_config(path: str = None, overrides: dict = None) -> ExperimentConfig:
    """Build a config from an optional file and optional flag overrides;
    flags take precedence over file values."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(path, f"cannot read config file: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}", "expected key = value")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    cfg = ExperimentConfig()
    smote_kw, logreg_kw, tree_kw, forest_kw = {}, {}, {}, {}
    logistic_grid, tree_grid = {}, {}

    for key, value in raw.items():
        if key == "data_path":
            cfg = replace(cfg, data_path=value)
        elif key == "seed":
            cfg = replace(cfg, seed=_parse_num(key, value, int))
        elif key == "test_fraction":
            cfg = replace(cfg, test_fraction=_parse_num(key, value, float))
        elif key == "output_dir":
            cfg = replace(cfg, output_dir=value)
        elif key == "split_first":
            cfg = replace(cfg, split_first=_parse_bool(key, value))
        elif key == "health_features":
            cfg = replace(cfg, health_features=tuple(_csv_list(value, str)))
        elif key == "cv.folds":
            cfg = replace(cfg, cv_folds=_parse_num(key, value, int))
        elif key == "lasso.lambda":
            cfg = replace(cfg, lasso_lambda=_parse_num(key, value, float))
        elif key == "rfe.n_select":
            cfg = replace(cfg, rfe_n_select=_parse_num(key, value, int))
        elif key == "smote.k_neighbors":
            smote_kw["k_neighbors"] = _parse_num(key, value, int)
        elif key == "smote.seed":
            smote_kw["seed"] = _parse_num(key, value, int)
        elif key == "smote.target_ratio":
            smote_kw["target_ratio"] = _parse_num(key, value, float)
        elif key == "logreg.penalty":
            logreg_kw["penalty"] = value
        elif key == "logreg.c":
            logreg_kw["C"] = _parse_num(key, value, float)
        elif key == "logreg.optimizer":
            logreg_kw["optimizer"] = value
        elif key == "logreg.max_iter":
            logreg_kw["max_iter"] = _parse_num(key, value, int)
        elif key == "logreg.tol":
            logreg_kw["tol"] = _parse_num(key, value, float)
        elif key == "logreg.standardize":
            logreg_kw["standardize"] = _parse_bool(key, value)
        elif key == "tree.max_depth":
            tree_kw["max_depth"] = _parse_depth(key, value)
        elif key == "tree.min_samples_split":
            tree_kw["min_samples_split"] = _parse_num(key, value, int)
        elif key == "tree.min_samples_leaf":
            tree_kw["min_samples_leaf"] = _parse_num(key, value, int)
        elif key == "forest.n_trees":
            forest_kw["n_trees"] = _parse_num(key, value, int)
        elif key == "forest.max_features":
            forest_kw["max_features"] = _parse_num(key, value, int)
        elif key == "grid.logistic.c":
            logistic_grid["C"] = _csv_list(value, float)
        elif key == "grid.logistic.optimizer":
            logistic_grid["optimizer"] = _csv_list(value, str)
        elif key == "grid.tree.max_depth":
            tree_grid["max_depth"] = [
                _parse_depth(key, v) for v in _csv_list(value, str)
            ]
        elif key == "grid.tree.min_samples_split":
            tree_grid["min_samples_split"] = _csv_list(value, int)
        elif key == "grid.tree.min_samples_leaf":
            tree_grid["min_samples_leaf"] = _csv_list(value, int)
        else:
            raise ConfigError(key, "unknown key")

    try:
        if smote_kw:
            smote_kw.setdefault("seed", cfg.seed)
            cfg = replace(cfg, smote=SmoteParams(**smote_kw))
        if logreg_kw:
            cfg = replace(cfg, logreg=LogRegParams(**logreg_kw))
        if tree_kw:
            cfg = replace(cfg, tree=TreeParams(**tree_kw))
        if forest_kw:
            forest_kw.setdefault("seed", cfg.seed)
            cfg = replace(cfg, forest=ForestParams(**forest_kw))
        # every grid value must make valid params on its own
        for base, grid in ((cfg.logreg, logistic_grid), (cfg.tree, tree_grid)):
            for name, values in grid.items():
                for value in values:
                    replace(base, **{name: value})
    except ValueError as exc:
        raise ConfigError("params", str(exc)) from None
    if logistic_grid:
        cfg = replace(cfg, logistic_grid=logistic_grid)
    if tree_grid:
        cfg = replace(cfg, tree_grid=tree_grid)
    return cfg.resolved()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-friendly echo of a resolved config."""
    return {
        "data_path": cfg.data_path,
        "seed": cfg.seed,
        "test_fraction": cfg.test_fraction,
        "output_dir": cfg.output_dir,
        "split_first": cfg.split_first,
        "health_features": list(cfg.health_features),
        "smote": asdict(cfg.smote),
        "logreg": asdict(cfg.logreg),
        "tree": asdict(cfg.tree),
        # explicit: the echo leaves out the forest's nested tree params
        "forest": {
            "n_trees": cfg.forest.n_trees,
            "max_features": cfg.forest.max_features,
            "bootstrap": cfg.forest.bootstrap,
            "seed": cfg.forest.seed,
        },
        "cv_folds": cfg.cv_folds,
        "lasso_lambda": cfg.lasso_lambda,
        "rfe_n_select": cfg.rfe_n_select,
        "logistic_grid": cfg.logistic_grid,
        "tree_grid": cfg.tree_grid,
    }

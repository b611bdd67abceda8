"""Binary logistic regression with none/L1/L2 penalties.

Objective (labels mapped to s in {-1,+1}):

    sum_i log(1 + exp(-s_i * (w.x_i + b))) + penalty(w)

penalty = (1/(2C)) ||w||_2^2 for L2, (1/C) ||w||_1 for L1, 0 for none.
The intercept is never penalized. Two optimizers are provided:

* ``gradient``   -- batch quasi-Newton (L-BFGS direction, Armijo line search);
                    proximal gradient steps when the penalty is L1.
* ``coordinate`` -- proximal Newton: each outer step forms the quadratic model
                    of the objective from one p(1-p)-weighted Gram of the
                    rows, solves it by cyclic coordinate descent with
                    soft-thresholding for L1, and backtracks on the true
                    objective.

One function, ``_smooth``, gives the data term plus the L2 penalty and its
gradient; both optimizers, their one stop test and ``loss_and_gradient`` add
the L1 term to it. That test, the gap test, holds when the max-norm of the
objective's minimal-norm subgradient, divided by the row count, is within
``10 * tol``. Both optimizers record the objective after every iteration and
decrease it monotonically. ``gradient`` stops once no entry of (w, b) moves by
more than ``tol``, and ``converged`` says whether the gap test then holds.
``coordinate`` stops as soon as an outer step meets the gap test, and reports
converged False when no step along its Newton direction lowers the objective.
A fit that uses up ``max_iter`` reports False. Fitting happens on z-scored
features by default; the returned model carries de-standardized weights
applicable to raw feature units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import as_labels, as_matrix, as_names
from .errors import DimensionMismatch, SingleClass

PENALTIES = ("none", "l1", "l2")
OPTIMIZERS = ("gradient", "coordinate")


@dataclass(frozen=True)
class LogRegParams:
    penalty: str = "l2"
    C: float = 1.0
    optimizer: str = "gradient"
    max_iter: int = 1000
    tol: float = 1e-6
    standardize: bool = True

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        # written so that NaN fails: every comparison with NaN is False. An
        # infinite tol would stop after one step and report it converged.
        if not (self.C > 0 and 0 < self.tol < math.inf) or self.max_iter < 1:
            raise ValueError("require C > 0, finite tol > 0, max_iter >= 1")


@dataclass(frozen=True)
class LogRegModel:
    weights: np.ndarray          # raw-unit weights
    intercept: float
    converged: bool
    n_iter: int
    params: LogRegParams
    feature_means: np.ndarray
    feature_stds: np.ndarray
    weights_standardized: np.ndarray
    objective_path: np.ndarray = field(repr=False, default=None)
    feature_names: tuple = None


def _as_signs(y, n_rows: int) -> np.ndarray:
    return 2.0 * as_labels(y, n_rows=n_rows) - 1.0


def _lambdas(params: LogRegParams):
    """(L1, L2) penalty weights: 1/C for the configured penalty, 0 else."""
    lam = 1.0 / params.C
    return (lam if params.penalty == "l1" else 0.0,
            lam if params.penalty == "l2" else 0.0)


def _with_bias(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _smooth(theta, X1, s, lam_l2, margins=None):
    """Data term plus L2 penalty at theta = (w, b), and its gradient.

    ``X1`` ends in a bias column."""
    if margins is None:
        margins = X1 @ theta
    w = theta[:-1]
    value = float(np.logaddexp(0.0, -s * margins).sum()) + 0.5 * lam_l2 * float(w @ w)
    grad = X1.T @ (_sigmoid(margins) - (s + 1.0) / 2.0)
    if lam_l2:
        grad[:-1] += lam_l2 * w
    return value, grad


def loss_and_gradient(weights, intercept, X, y, params: LogRegParams):
    """Objective value and its gradient, intercept component last.

    For L1 the returned gradient uses the subgradient that is 0 at w_j = 0.
    """
    w = np.asarray(weights, dtype=float)
    X = as_matrix(X, w.shape[0])
    s = _as_signs(y, X.shape[0])
    lam_l1, lam_l2 = _lambdas(params)
    loss, grad = _smooth(np.append(w, intercept), _with_bias(X), s, lam_l2)
    grad[:-1] += lam_l1 * np.sign(w)
    return loss + lam_l1 * float(np.abs(w).sum()), grad


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _converged(theta, grad, lam_l1, n, tol) -> bool:
    """The stop test of both optimizers: the max-norm of the minimal-norm
    subgradient of the objective, per row, is at most 10 * tol. ``grad`` is
    the gradient of ``_smooth`` at ``theta``."""
    g = grad.copy()
    if lam_l1:
        w, gw = theta[:-1], grad[:-1]
        g[:-1] = np.where(
            w != 0,
            gw + np.sign(w) * lam_l1,
            np.sign(gw) * np.maximum(np.abs(gw) - lam_l1, 0.0),
        )
    return float(np.max(np.abs(g))) / n <= 10 * tol


def _fit_gradient(X, s, params: LogRegParams):
    """L-BFGS with Armijo backtracking; ISTA proximal steps for L1. Each
    search keeps the value and gradient of the candidate it accepts."""
    n, p = X.shape
    X1 = _with_bias(X)
    lam_l1, lam_l2 = _lambdas(params)
    theta = np.zeros(p + 1)
    f, grad = _smooth(theta, X1, s, lam_l2)  # obj adds the L1 term to f
    obj = f + lam_l1 * np.abs(theta[:p]).sum()
    path = [obj]
    history = []  # (delta_theta, delta_grad) pairs for the two-loop recursion
    memory = 10
    step_l1 = 1.0  # adapted across iterations by the backtracking below

    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        if lam_l1:
            # ISTA with backtracking on the majorization condition
            step = step_l1 * 2.0
            for _ in range(60):
                new_theta = theta - step * grad
                new_theta[:p] = np.sign(new_theta[:p]) * np.maximum(
                    np.abs(new_theta[:p]) - step * lam_l1, 0.0)
                d = new_theta - theta
                new_f, new_grad = _smooth(new_theta, X1, s, lam_l2)
                if new_f <= f + grad @ d + (0.5 / step) * (d @ d) + 1e-12:
                    break
                step *= 0.5
            step_l1 = step
        else:
            direction = _lbfgs_direction(grad, history)
            if direction @ grad >= 0:
                direction = -grad
            step = 1.0
            new_theta, new_f, new_grad = theta, f, grad
            for _ in range(60):
                cand = theta + step * direction
                cand_f, cand_grad = _smooth(cand, X1, s, lam_l2)
                if cand_f <= obj + 1e-4 * step * (grad @ direction):
                    new_theta, new_f, new_grad = cand, cand_f, cand_grad
                    break
                step *= 0.5
            delta_t = new_theta - theta
            delta_g = new_grad - grad
            if delta_t @ delta_g > 1e-12:
                history.append((delta_t, delta_g))
                if len(history) > memory:
                    history.pop(0)
        new_obj = new_f + lam_l1 * np.abs(new_theta[:p]).sum()
        max_change = float(np.max(np.abs(new_theta - theta)))
        theta, f, grad = new_theta, new_f, new_grad
        obj = min(new_obj, obj)  # guard float noise; line search is monotone
        path.append(new_obj)
        if max_change <= params.tol:
            converged = _converged(theta, grad, lam_l1, n, params.tol)
            break
    return theta[:p], float(theta[p]), converged, it, np.array(path)


def _lbfgs_direction(grad, history):
    q = -grad.copy()
    if not history:
        return q / max(1.0, np.linalg.norm(grad))
    alphas = []
    for dt, dg in reversed(history):
        rho = 1.0 / (dt @ dg)
        a = rho * (dt @ q)
        alphas.append((a, rho, dt, dg))
        q -= a * dg
    dt, dg = history[-1]
    q *= (dt @ dg) / (dg @ dg)
    for a, rho, dt, dg in reversed(alphas):
        b = rho * (dg @ q)
        q += (a - b) * dt
    return q


def _fit_coordinate(X, s, params: LogRegParams):
    """Proximal Newton with a coordinate-descent inner solver (glmnet's
    outer loop; Friedman, Hastie and Tibshirani, JSS 2010, section 3).

    Each outer step makes one data pass for the weights p(1-p) at theta and
    their (p+1)^2 Gram, the Hessian of the smooth part. ``_newton_direction``
    minimizes the quadratic model on that Gram alone, and the step along its
    solution is halved until it passes an Armijo test on the true objective.
    The fit stops on the ``_converged`` gap test after an accepted step. A
    step that no halving accepts ends it with converged False, and a point
    whose model predicts no decrease ends it with the gap test's verdict.
    Each search keeps the value and gradient of the candidate it accepts."""
    n, p = X.shape
    X1 = _with_bias(X)
    lam_l1, lam_l2 = _lambdas(params)
    ridge = np.append(np.full(p, lam_l2), 0.0)  # the intercept is unpenalized
    theta = np.zeros(p + 1)
    margins = np.zeros(n)
    f, grad = _smooth(theta, X1, s, lam_l2, margins)
    obj = f  # plus the L1 term, which is 0 at theta = 0
    path = [obj]
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        e = np.exp(-np.abs(margins))
        hess = X1.T @ ((e / (1.0 + e) ** 2)[:, None] * X1)
        hess[np.diag_indices(p + 1)] += ridge
        d = _newton_direction(hess, grad, theta, lam_l1, n * params.tol,
                              params.max_iter)
        # the model's predicted change, which the step t * d must make a
        # fraction of; the L1 term is convex, so t times it bounds its change
        predicted = grad @ d + lam_l1 * (
            np.abs(theta[:p] + d[:p]).sum() - np.abs(theta[:p]).sum())
        if not predicted < 0:  # theta minimizes its own model
            converged = _converged(theta, grad, lam_l1, n, params.tol)
            break
        d_margins = X1 @ d
        t = 1.0
        for _ in range(60):
            cand = theta + t * d
            cand_margins = margins + t * d_margins
            cand_f, cand_grad = _smooth(cand, X1, s, lam_l2, cand_margins)
            cand_obj = cand_f + lam_l1 * np.abs(cand[:p]).sum()
            # the difference is exact for close values, so a candidate that
            # rounds to the same objective never passes as a decrease
            if cand_obj - obj <= 1e-4 * t * predicted:
                break
            t *= 0.5
        else:
            break  # a line-search stall: converged stays False
        theta, margins, grad, obj = cand, cand_margins, cand_grad, cand_obj
        path.append(obj)
        if _converged(theta, grad, lam_l1, n, params.tol):
            converged = True
            break
    return theta[:p], float(theta[p]), converged, it, np.array(path)


def _newton_direction(hess, grad, theta, lam_l1, stop, max_sweeps):
    """The step d minimizing grad @ d + d @ hess @ d / 2 + lam_l1 * |w + d_w|_1
    (w = theta[:-1]; the intercept is unpenalized), by cyclic coordinate
    descent with soft-thresholding. It reads only ``hess``, keeping hess @ d
    up to date. Sweeps end once no update in a sweep moved its coordinate's
    model gradient, hess[j, j] * |delta_j|, by more than ``stop`` (n * tol,
    the gap test's scale), or after ``max_sweeps``. A coordinate with zero
    curvature keeps d_j = 0."""
    m = len(theta)
    diag = np.diag(hess).tolist()
    d = np.zeros(m)
    hd = np.zeros(m)
    for _ in range(max_sweeps):
        largest = 0.0
        for j in range(m):
            h = diag[j]
            if h <= 0.0:
                continue
            old = theta[j] + d[j]
            z = h * old - (grad[j] + hd[j])
            if j < m - 1:
                z = math.copysign(max(abs(z) - lam_l1, 0.0), z)
            delta = z / h - old
            if delta != 0.0:
                d[j] += delta
                hd += delta * hess[j]
                largest = max(largest, h * abs(delta))
        if largest <= stop:
            break
    return d


def fit_logreg(X, y, params: LogRegParams = LogRegParams(),
               feature_names=None) -> LogRegModel:
    X = as_matrix(X)
    feature_names = as_names(feature_names, X.shape[1])
    if X.shape[0] < 2:
        raise DimensionMismatch("X must have at least 2 rows")
    s = _as_signs(y, X.shape[0])
    if len(np.unique(s)) < 2:
        raise SingleClass("both classes are required to fit")

    if params.standardize:
        means = X.mean(axis=0)
        stds = X.std(axis=0)
        stds = np.where(stds > 0, stds, 1.0)
    else:
        means = np.zeros(X.shape[1])
        stds = np.ones(X.shape[1])
    Z = (X - means) / stds

    if params.optimizer == "gradient":
        w_std, b_std, converged, n_iter, path = _fit_gradient(Z, s, params)
    else:
        w_std, b_std, converged, n_iter, path = _fit_coordinate(Z, s, params)

    weights = w_std / stds
    intercept = b_std - float((w_std * means / stds).sum())
    return LogRegModel(
        weights=weights,
        intercept=intercept,
        converged=converged,
        n_iter=n_iter,
        params=params,
        feature_means=means,
        feature_stds=stds,
        weights_standardized=w_std,
        objective_path=path,
        feature_names=tuple(feature_names) if feature_names else None,
    )


def predict_proba(model: LogRegModel, X) -> np.ndarray:
    X = as_matrix(X, model.weights.shape[0])
    return _sigmoid(X @ model.weights + model.intercept)


def predict_label(model: LogRegModel, X, threshold: float = 0.5) -> np.ndarray:
    # probability exactly at the threshold maps to class 1
    return (predict_proba(model, X) >= threshold).astype(int)


def lasso_coefficients(X, y, lam: float) -> np.ndarray:
    """L1-penalized fit on z-scored features with the ``coordinate``
    optimizer (proximal Newton, stopped by the gap test at the default
    ``tol``), each fit started from zero; returns standardized-scale
    coefficients so magnitudes are comparable across features."""
    if not 0 < lam < math.inf:  # lambda = inf would give C = 0
        raise ValueError("lambda must be positive and finite")
    params = LogRegParams(penalty="l1", C=1.0 / lam, optimizer="coordinate")
    model = fit_logreg(X, y, params)
    return model.weights_standardized


def model_to_text(model: LogRegModel) -> str:
    """Flat key=value serialization (one key per line, vectors comma-joined)."""
    lines = [
        "model = logistic",
        f"penalty = {model.params.penalty}",
        f"C = {model.params.C!r}",
        f"optimizer = {model.params.optimizer}",
        f"standardize = {model.params.standardize}",
        f"converged = {model.converged}",
        f"n_iter = {model.n_iter}",
        f"intercept = {model.intercept!r}",
        "weights = " + ",".join(repr(float(v)) for v in model.weights),
        "feature_means = " + ",".join(repr(float(v)) for v in model.feature_means),
        "feature_stds = " + ",".join(repr(float(v)) for v in model.feature_stds),
    ]
    if model.feature_names:
        lines.append("feature_names = " + ",".join(model.feature_names))
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> LogRegModel:
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    if fields.get("model") != "logistic":
        raise ValueError("not a logistic model file")
    params = LogRegParams(
        penalty=fields["penalty"],
        C=float(fields["C"]),
        optimizer=fields["optimizer"],
        standardize=fields["standardize"] == "True",
    )
    weights = np.array([float(v) for v in fields["weights"].split(",")])
    means = np.array([float(v) for v in fields["feature_means"].split(",")])
    stds = np.array([float(v) for v in fields["feature_stds"].split(",")])
    names = fields.get("feature_names")
    return LogRegModel(
        weights=weights,
        intercept=float(fields["intercept"]),
        converged=fields["converged"] == "True",
        n_iter=int(fields["n_iter"]),
        params=params,
        feature_means=means,
        feature_stds=stds,
        weights_standardized=weights * stds,
        objective_path=None,
        feature_names=tuple(names.split(",")) if names else None,
    )

"""Binary logistic regression with none/L1/L2 penalties.

Objective (labels mapped to s in {-1,+1}, each row i counted c_i times):

    sum_i c_i * log(1 + exp(-s_i * (w.x_i + b))) + penalty(w)

penalty = (1/(2C)) ||w||_2^2 for L2, (1/C) ||w||_1 for L1, 0 for none.
The intercept is never penalized. A fit on a count table, distinct rows each
with an integer count c_i >= 1, minimizes the objective of those rows
repeated c_i times; without counts every c_i is 1. Two optimizers are
provided:

* ``gradient``   -- batch quasi-Newton (L-BFGS direction, Armijo line search)
                    for penalty none or L2; every L1 fit runs ``coordinate``.
* ``coordinate`` -- proximal Newton: each outer step forms the quadratic model
                    of the objective from one p(1-p)-weighted Gram of the
                    rows, solves it by cyclic coordinate descent with
                    soft-thresholding for L1, and backtracks on the true
                    objective.

One function, ``_smooth``, gives the data term plus the L2 penalty and its
gradient; the one stop test and ``loss_and_gradient`` add the L1 term to it.
The counts multiply only its per-row vectors and the ``coordinate`` Hessian's
row weights, and standardization uses the count-weighted means and standard
deviations. A unit count multiplies by 1.0, which changes no float, so a fit
without counts gives the floats of the unweighted formulas (numpy's mean and
std among them), bit for bit. The stop test, the gap test, holds when the
max-norm of the objective's minimal-norm subgradient, divided by the total
count sum_i c_i, is within ``10 * tol``. Both optimizers record the
objective after every iteration and decrease it monotonically.
``gradient`` stops once no entry of (w, b) moves by more than ``tol`` and
the gap test holds, or once its line search accepts no step, and
``converged`` says whether the gap test then holds. ``coordinate`` stops as
soon as an outer step meets the gap test, and reports converged False when
no step along its Newton direction lowers the objective. A fit that uses up
``max_iter`` reports False. Fitting happens on z-scored features by default;
the returned model carries de-standardized weights applicable to raw feature
units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import as_counts, as_labels, as_matrix, as_names
from .errors import BadParams, DimensionMismatch, SingleClass

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
            raise BadParams(f"penalty must be one of {PENALTIES}")
        if self.optimizer not in OPTIMIZERS:
            raise BadParams(f"optimizer must be one of {OPTIMIZERS}")
        # written so that NaN fails: every comparison with NaN is False. A
        # subnormal C has an infinite penalty weight 1/C, which turns the
        # objective into NaN; C = inf is a weight of 0. An infinite tol would
        # stop after one step and report it converged.
        if (not (self.C > 0 and 1.0 / self.C < math.inf
                 and 0 < self.tol < math.inf) or self.max_iter < 1):
            raise BadParams(
                "require C > 0, finite 1/C, finite tol > 0, max_iter >= 1")


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
    objective_path: np.ndarray = field(repr=False)
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


def _smooth(theta, X1, s, c, lam_l2, margins=None):
    """Data term plus L2 penalty at theta = (w, b), and its gradient.

    ``X1`` ends in a bias column; ``c`` holds each row's count as a float."""
    if margins is None:
        margins = X1 @ theta
    w = theta[:-1]
    value = (float((c * np.logaddexp(0.0, -s * margins)).sum())
             + 0.5 * lam_l2 * float(w @ w))
    grad = X1.T @ (c * (_sigmoid(margins) - (s + 1.0) / 2.0))
    if lam_l2:
        grad[:-1] += lam_l2 * w
    return value, grad


def loss_and_gradient(weights, intercept, X, y, params: LogRegParams,
                      counts=None):
    """Objective value and its gradient, intercept component last, with each
    row counted as often as ``counts`` says (once when None).

    For L1 the returned gradient uses the subgradient that is 0 at w_j = 0.
    """
    w = np.asarray(weights, dtype=float)
    X = as_matrix(X, w.shape[0])
    s = _as_signs(y, X.shape[0])
    c = as_counts(counts, X.shape[0]).astype(float)
    lam_l1, lam_l2 = _lambdas(params)
    loss, grad = _smooth(np.append(w, intercept), _with_bias(X), s, c, lam_l2)
    grad[:-1] += lam_l1 * np.sign(w)
    return loss + lam_l1 * float(np.abs(w).sum()), grad


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), from exp(-|t|) <= 1 so that neither branch
    overflows. ``minimum(t, -t)`` rather than ``-abs(t)`` keeps a NaN's
    sign bit."""
    e = np.exp(np.minimum(t, -t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _converged(theta, grad, lam_l1, n, tol) -> bool:
    """The stop test of both optimizers: the max-norm of the minimal-norm
    subgradient of the objective, per counted row (``n`` is the total
    count), is at most 10 * tol. ``grad`` is the gradient of ``_smooth`` at
    ``theta``."""
    g = grad.copy()
    if lam_l1:
        w, gw = theta[:-1], grad[:-1]
        g[:-1] = np.where(
            w != 0,
            gw + np.sign(w) * lam_l1,
            np.sign(gw) * np.maximum(np.abs(gw) - lam_l1, 0.0),
        )
    return float(np.max(np.abs(g))) / n <= 10 * tol


def _fit_gradient(X, s, c, params: LogRegParams):
    """L-BFGS with Armijo backtracking, for penalty none or l2 (every L1 fit
    runs ``_fit_coordinate``). Each search keeps the value and gradient of
    the candidate it accepts."""
    p = X.shape[1]
    total = float(c.sum())  # the gap test's row count
    X1 = _with_bias(X)
    _, lam_l2 = _lambdas(params)
    theta = np.zeros(p + 1)
    obj, grad = _smooth(theta, X1, s, c, lam_l2)
    path = [obj]
    history = []  # (delta_theta, delta_grad) pairs for the two-loop recursion
    memory = 10

    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        direction = _lbfgs_direction(grad, history)
        if direction @ grad >= 0:
            direction = -grad
        step = 1.0
        new_theta, new_obj, new_grad = theta, obj, grad
        for _ in range(60):
            cand = theta + step * direction
            cand_obj, cand_grad = _smooth(cand, X1, s, c, lam_l2)
            if cand_obj <= obj + 1e-4 * step * (grad @ direction):
                new_theta, new_obj, new_grad = cand, cand_obj, cand_grad
                break
            step *= 0.5
        delta_t = new_theta - theta
        delta_g = new_grad - grad
        if delta_t @ delta_g > 1e-12:
            history.append((delta_t, delta_g))
            if len(history) > memory:
                history.pop(0)
        max_change = float(np.max(np.abs(delta_t)))
        theta, obj, grad = new_theta, new_obj, new_grad
        path.append(obj)
        if max_change <= params.tol:
            converged = _converged(theta, grad, 0.0, total, params.tol)
            if converged or max_change == 0.0:
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


def _fit_coordinate(X, s, c, params: LogRegParams):
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
    total = float(c.sum())  # the gap test's row count
    X1 = _with_bias(X)
    lam_l1, lam_l2 = _lambdas(params)
    ridge = np.append(np.full(p, lam_l2), 0.0)  # the intercept is unpenalized
    theta = np.zeros(p + 1)
    margins = np.zeros(n)
    f, grad = _smooth(theta, X1, s, c, lam_l2, margins)
    obj = f  # plus the L1 term, which is 0 at theta = 0
    path = [obj]
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        e = np.exp(-np.abs(margins))
        hess = X1.T @ ((c * (e / (1.0 + e) ** 2))[:, None] * X1)
        hess[np.diag_indices(p + 1)] += ridge
        d = _newton_direction(hess, grad, theta, lam_l1, total * params.tol,
                              params.max_iter)
        # the model's predicted change, which the step t * d must make a
        # fraction of; the L1 term is convex, so t times it bounds its change
        predicted = grad @ d + lam_l1 * (
            np.abs(theta[:p] + d[:p]).sum() - np.abs(theta[:p]).sum())
        if not predicted < 0:  # theta minimizes its own model
            converged = _converged(theta, grad, lam_l1, total, params.tol)
            break
        d_margins = X1 @ d
        t = 1.0
        for _ in range(60):
            cand = theta + t * d
            cand_margins = margins + t * d_margins
            cand_f, cand_grad = _smooth(cand, X1, s, c, lam_l2, cand_margins)
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
        if _converged(theta, grad, lam_l1, total, params.tol):
            converged = True
            break
    return theta[:p], float(theta[p]), converged, it, np.array(path)


def _newton_direction(hess, grad, theta, lam_l1, stop, max_sweeps):
    """The step d minimizing grad @ d + d @ hess @ d / 2 + lam_l1 * |w + d_w|_1
    (w = theta[:-1]; the intercept is unpenalized), by cyclic coordinate
    descent with soft-thresholding. It reads only ``hess``, keeping hess @ d
    up to date. Sweeps end once no update in a sweep moved its coordinate's
    model gradient, hess[j, j] * |delta_j|, by more than ``stop`` (the total
    count times tol, the gap test's scale), or after ``max_sweeps``. A
    coordinate with zero curvature keeps d_j = 0."""
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


def _moments(X, c):
    """Count-weighted column means and standard deviations, summed in the
    order of ``X.mean(axis=0)`` and ``X.std(axis=0)``, which unit counts
    equal bit for bit."""
    total = c.sum()
    means = (X * c[:, None]).sum(axis=0) / total
    dev = X - means
    dev *= dev
    dev *= c[:, None]
    return means, np.sqrt(dev.sum(axis=0) / total)


def fit_logreg(X, y, params: LogRegParams = LogRegParams(),
               feature_names=None, counts=None) -> LogRegModel:
    """Fit ``params`` to the rows of X and their 0/1 labels ``y``.

    ``counts`` (one integer >= 1 per row) fits the rows repeated that many
    times: the count table of a table's distinct (row, label) pairs gives
    the fit of the table's rows, up to rounding, at the cost of its distinct
    pairs. Without counts every row counts once. With ``standardize`` the
    fit runs on columns z-scored by their count-weighted means and standard
    deviations (a zero deviation divides by 1), and the model carries weights
    in raw units."""
    X = as_matrix(X)
    feature_names = as_names(feature_names, X.shape[1])
    if X.shape[0] < 2:
        raise DimensionMismatch("X must have at least 2 rows")
    s = _as_signs(y, X.shape[0])
    # each row's count as a float, exact since counts stay far below 2**53
    c = as_counts(counts, X.shape[0]).astype(float)
    if not 0 < (s > 0).sum() < s.size:
        raise SingleClass("both classes are required to fit")

    if params.standardize:
        means, stds = _moments(X, c)
        stds = np.where(stds > 0, stds, 1.0)
    else:
        means = np.zeros(X.shape[1])
        stds = np.ones(X.shape[1])
    Z = (X - means) / stds

    # L1 has one solver: proximal Newton, whatever ``optimizer`` says
    fit = (_fit_gradient if params.optimizer == "gradient"
           and params.penalty != "l1" else _fit_coordinate)
    w_std, b_std, converged, n_iter, path = fit(Z, s, c, params)

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
        raise BadParams("lambda must be positive and finite")
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

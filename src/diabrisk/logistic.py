"""Binary logistic regression with none/L1/L2 penalties.

Objective (labels mapped to s in {-1,+1}):

    sum_i log(1 + exp(-s_i * (w.x_i + b))) + penalty(w)

penalty = (1/(2C)) ||w||_2^2 for L2, (1/C) ||w||_1 for L1, 0 for none.
The intercept is never penalized. Two optimizers are provided:

* ``gradient``   -- batch quasi-Newton (L-BFGS direction, Armijo line search);
                    proximal gradient steps when the penalty is L1.
* ``coordinate`` -- cyclic coordinate descent on a quadratic majorizer of the
                    data term (curvature bound 1/4 per sample), with
                    soft-thresholding for L1.

Both variants record the objective after every iteration and decrease it
monotonically. Fitting happens on z-scored features by default; the returned
model carries de-standardized weights applicable to raw feature units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabelVector
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
        if self.C <= 0 or self.tol <= 0 or self.max_iter < 1:
            raise ValueError("require C > 0, tol > 0, max_iter >= 1")


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


def _as_signs(y) -> np.ndarray:
    values = y.values if isinstance(y, LabelVector) else np.asarray(y)
    return 2.0 * values - 1.0


def _penalty_value(w: np.ndarray, params: LogRegParams) -> float:
    if params.penalty == "l2":
        return float(np.dot(w, w)) / (2.0 * params.C)
    if params.penalty == "l1":
        return float(np.abs(w).sum()) / params.C
    return 0.0


def loss_and_gradient(weights, intercept, X, y, params: LogRegParams):
    """Objective value and its gradient, intercept component last.

    For L1 the returned gradient uses the subgradient that is 0 at w_j = 0.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(weights, dtype=float)
    if X.ndim != 2 or X.shape[1] != w.shape[0]:
        raise DimensionMismatch("X and weights disagree on feature count")
    s = _as_signs(y)
    if s.shape[0] != X.shape[0]:
        raise DimensionMismatch("X and y disagree on row count")

    margins = X @ w + intercept
    loss = float(np.logaddexp(0.0, -s * margins).sum()) + _penalty_value(w, params)
    p = _sigmoid(margins)
    residual = p - (s + 1.0) / 2.0
    grad_w = X.T @ residual
    grad_b = float(residual.sum())
    if params.penalty == "l2":
        grad_w = grad_w + w / params.C
    elif params.penalty == "l1":
        grad_w = grad_w + np.sign(w) / params.C
    return loss, np.append(grad_w, grad_b)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _data_loss_grad(theta, X1, s):
    """Smooth data term only; theta packs (w, b), X1 has the bias column."""
    margins = X1 @ theta
    loss = float(np.logaddexp(0.0, -s * margins).sum())
    residual = _sigmoid(margins) - (s + 1.0) / 2.0
    return loss, X1.T @ residual


def _fit_gradient(X, s, params: LogRegParams):
    """L-BFGS with Armijo backtracking; ISTA proximal steps for L1."""
    n, p = X.shape
    X1 = np.hstack([X, np.ones((n, 1))])
    theta = np.zeros(p + 1)
    l1 = params.penalty == "l1"
    lam_l2 = 1.0 / params.C if params.penalty == "l2" else 0.0
    lam_l1 = 1.0 / params.C if l1 else 0.0

    def smooth(th):
        loss, grad = _data_loss_grad(th, X1, s)
        if lam_l2:
            loss += 0.5 * lam_l2 * np.dot(th[:p], th[:p])
            grad = grad.copy()
            grad[:p] += lam_l2 * th[:p]
        return loss, grad

    def objective(th):
        loss, _ = smooth(th)
        return loss + lam_l1 * np.abs(th[:p]).sum()

    def prox(th, step):
        out = th.copy()
        out[:p] = np.sign(out[:p]) * np.maximum(np.abs(out[:p]) - step * lam_l1, 0.0)
        return out

    history = []  # (delta_theta, delta_grad) pairs for the two-loop recursion
    memory = 10
    obj, grad = smooth(theta)
    obj += lam_l1 * np.abs(theta[:p]).sum()
    path = [obj]
    step_l1 = 1.0  # adapted across iterations by the backtracking below

    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        if l1:
            # ISTA with backtracking on the majorization condition
            f0, g0 = smooth(theta)
            step = step_l1 * 2.0
            for _ in range(60):
                cand = prox(theta - step * g0, step)
                d = cand - theta
                f1, _ = smooth(cand)
                if f1 <= f0 + g0 @ d + (0.5 / step) * (d @ d) + 1e-12:
                    break
                step *= 0.5
            step_l1 = step
            new_theta = cand
        else:
            direction = _lbfgs_direction(grad, history)
            if direction @ grad >= 0:
                direction = -grad
            step = 1.0
            f0 = obj
            new_theta = theta
            for _ in range(60):
                cand = theta + step * direction
                f1 = objective(cand)
                if f1 <= f0 + 1e-4 * step * (grad @ direction):
                    new_theta = cand
                    break
                step *= 0.5
        new_obj, new_grad = smooth(new_theta)
        new_obj += lam_l1 * np.abs(new_theta[:p]).sum()
        if not l1:
            delta_t = new_theta - theta
            delta_g = new_grad - grad
            if delta_t @ delta_g > 1e-12:
                history.append((delta_t, delta_g))
                if len(history) > memory:
                    history.pop(0)
        max_change = float(np.max(np.abs(new_theta - theta)))
        theta, grad = new_theta, new_grad
        obj = min(new_obj, obj)  # guard float noise; line search is monotone
        path.append(new_obj)
        if max_change <= params.tol:
            converged = _optimality_gap(theta, grad, p, lam_l1, l1) <= 10 * params.tol
            break
    return theta[:p], float(theta[p]), converged, it, np.array(path)


def _optimality_gap(theta, smooth_grad, p, lam_l1, l1):
    """Max-norm of the minimal-norm subgradient of the full objective."""
    g = smooth_grad.copy()
    if l1:
        w = theta[:p]
        gw = g[:p]
        gw = np.where(
            w != 0,
            gw + np.sign(w) * lam_l1,
            np.sign(gw) * np.maximum(np.abs(gw) - lam_l1, 0.0),
        )
        g[:p] = gw
    return float(np.max(np.abs(g)))


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
    """Cyclic coordinate descent; curvature of each coordinate bounded by
    0.25 * sum x_ij^2, which makes every update a monotone majorization step."""
    n, p = X.shape
    y01 = (s + 1.0) / 2.0
    w = np.zeros(p)
    b = 0.0
    margins = np.zeros(n)
    h = 0.25 * (X * X).sum(axis=0)
    h = np.where(h > 0, h, 1.0)
    hb = 0.25 * n
    lam_l2 = 1.0 / params.C if params.penalty == "l2" else 0.0
    lam_l1 = 1.0 / params.C if params.penalty == "l1" else 0.0

    def objective():
        loss = float(np.logaddexp(0.0, -s * margins).sum())
        if lam_l2:
            loss += 0.5 * lam_l2 * (w @ w)
        if lam_l1:
            loss += lam_l1 * np.abs(w).sum()
        return loss

    path = [objective()]
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        max_change = 0.0
        for j in range(p):
            residual = _sigmoid(margins) - y01
            g = float(X[:, j] @ residual)
            if lam_l1:
                z = h[j] * w[j] - g
                new_wj = np.sign(z) * max(abs(z) - lam_l1, 0.0) / h[j]
            elif lam_l2:
                new_wj = w[j] - (g + lam_l2 * w[j]) / (h[j] + lam_l2)
            else:
                new_wj = w[j] - g / h[j]
            delta = new_wj - w[j]
            if delta != 0.0:
                margins += delta * X[:, j]
                max_change = max(max_change, abs(delta))
                w[j] = new_wj
        residual = _sigmoid(margins) - y01
        gb = float(residual.sum())
        delta_b = -gb / hb
        if delta_b != 0.0:
            margins += delta_b
            b += delta_b
            max_change = max(max_change, abs(delta_b))
        path.append(objective())
        if max_change <= params.tol:
            theta = np.append(w, b)
            _, grad = _data_loss_grad(
                theta, np.hstack([X, np.ones((n, 1))]), s
            )
            if lam_l2:
                grad[:p] += lam_l2 * w
            converged = (
                _optimality_gap(theta, grad, p, lam_l1, lam_l1 > 0)
                <= 10 * params.tol
            )
            break
    return w, b, converged, it, np.array(path)


def fit_logreg(X, y, params: LogRegParams = LogRegParams(),
               feature_names=None) -> LogRegModel:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DimensionMismatch("X must be 2-D with at least 2 rows")
    s = _as_signs(y)
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
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise DimensionMismatch("X column count does not match model weights")
    return _sigmoid(X @ model.weights + model.intercept)


def predict_label(model: LogRegModel, X, threshold: float = 0.5) -> LabelVector:
    # probability exactly at the threshold maps to class 1
    return LabelVector((predict_proba(model, X) >= threshold).astype(int))


def lasso_coefficients(X, y, lam: float) -> np.ndarray:
    """L1-penalized fit on z-scored features; returns standardized-scale
    coefficients so magnitudes are comparable across features."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
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

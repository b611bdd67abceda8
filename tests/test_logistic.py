import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT
from diabrisk import logistic
from diabrisk.dataset import count_tables
from diabrisk.errors import DimensionMismatch, SingleClass
from diabrisk.logistic import (
    LogRegParams,
    fit_logreg,
    lasso_coefficients,
    loss_and_gradient,
    predict_label,
    predict_proba,
)


def objective(weights, intercept, X, y, params):
    return loss_and_gradient(weights, intercept, X, y, params)[0]


def random_instance(rng, n=30, p=4, informative=True):
    X = rng.normal(size=(n, p))
    if informative:
        beta = rng.normal(size=p)
        logits = X @ beta + rng.normal(scale=0.5, size=n)
        y = (logits > np.median(logits)).astype(int)
    else:
        y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


class TestLossAndGradient:
    def test_zero_parameters_give_n_log2(self):
        rng = np.random.default_rng(0)
        X, y = random_instance(rng, n=25)
        loss = objective(np.zeros(4), 0.0, X, y, LogRegParams(penalty="none"))
        assert loss == pytest.approx(25 * math.log(2), rel=1e-12)

    def test_l2_penalty_on_empty_data(self):
        X = np.empty((0, 2))
        y = np.empty(0, dtype=int)
        loss = objective(np.array([3.0, 4.0]), 0.0, X, y,
                         LogRegParams(penalty="l2", C=1.0))
        assert loss == pytest.approx(12.5)

    @pytest.mark.parametrize("penalty", ["none", "l2", "l1"])
    def test_gradient_matches_central_differences(self, penalty):
        # independent finite-difference oracle, step 1e-5
        rng = np.random.default_rng(42)
        step = 1e-5
        for _ in range(100):
            n, p = int(rng.integers(5, 30)), int(rng.integers(1, 5))
            X, y = random_instance(rng, n=n, p=p, informative=False)
            params = LogRegParams(penalty=penalty,
                                  C=float(rng.uniform(0.3, 3.0)))
            w = rng.normal(size=p)
            w[np.abs(w) < 0.05] = 0.1  # keep L1 differentiable at the point
            b = float(rng.normal())
            _, grad = loss_and_gradient(w, b, X, y, params)
            theta = np.append(w, b)
            for j in range(p + 1):
                plus, minus = theta.copy(), theta.copy()
                plus[j] += step
                minus[j] -= step
                fd = (
                    objective(plus[:p], plus[p], X, y, params)
                    - objective(minus[:p], minus[p], X, y, params)
                ) / (2 * step)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loss_and_gradient(np.zeros(3), 0.0, np.ones((4, 2)),
                              np.zeros(4, dtype=int), LogRegParams())


class TestFit:
    def test_separable_one_dimension(self):
        X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        model = fit_logreg(X, y, LogRegParams(penalty="l2", C=1.0))
        assert model.weights[0] > 0
        labels = predict_label(model, X)
        assert np.array_equal(labels, y)

    def test_matches_brute_force_scan_oracle(self):
        # 1 feature + intercept: exhaustive grid scan with refinement
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 1))
        y = (X[:, 0] + rng.normal(scale=1.0, size=40) > 0.2).astype(int)
        params = LogRegParams(penalty="l2", C=1.0, standardize=False)

        lo_w, hi_w, lo_b, hi_b = -5.0, 5.0, -5.0, 5.0
        best = None
        for _ in range(8):  # progressive refinement of the 2-D grid
            ws = np.linspace(lo_w, hi_w, 41)
            bs = np.linspace(lo_b, hi_b, 41)
            vals = [
                (objective(np.array([w]), b, X, y, params), w, b)
                for w in ws
                for b in bs
            ]
            best = min(vals)
            span_w = (hi_w - lo_w) / 8
            span_b = (hi_b - lo_b) / 8
            lo_w, hi_w = best[1] - span_w, best[1] + span_w
            lo_b, hi_b = best[2] - span_b, best[2] + span_b

        for optimizer in ("gradient", "coordinate"):
            model = fit_logreg(
                X, y,
                LogRegParams(penalty="l2", C=1.0, optimizer=optimizer,
                             standardize=False, tol=1e-9, max_iter=5000),
            )
            fitted = objective(model.weights, model.intercept, X, y, params)
            assert fitted <= best[0] + 1e-4

    @pytest.mark.parametrize("penalty", ["none", "l2"])
    def test_optimizer_variants_agree(self, penalty):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng, n=120, p=5)
        kwargs = dict(penalty=penalty, tol=1e-9, max_iter=20000)
        a = fit_logreg(X, y, LogRegParams(optimizer="gradient", **kwargs))
        b = fit_logreg(X, y, LogRegParams(optimizer="coordinate", **kwargs))
        assert np.max(np.abs(a.weights - b.weights)) < 1e-3
        assert abs(a.intercept - b.intercept) < 1e-3

    @pytest.mark.parametrize("optimizer", ["gradient", "coordinate"])
    @pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
    def test_objective_nonincreasing(self, optimizer, penalty):
        rng = np.random.default_rng(5)
        X, y = random_instance(rng, n=80, p=4)
        model = fit_logreg(
            X, y, LogRegParams(penalty=penalty, optimizer=optimizer)
        )
        path = model.objective_path
        assert np.all(np.diff(path) <= 1e-10)

    def test_scale_equivariance_with_standardization(self):
        rng = np.random.default_rng(8)
        X, y = random_instance(rng, n=100, p=3)
        X_scaled = X.copy()
        X_scaled[:, 1] *= 10.0
        a = fit_logreg(X, y, LogRegParams(penalty="l2"))
        b = fit_logreg(X_scaled, y, LogRegParams(penalty="l2"))
        pa = predict_proba(a, X)
        pb = predict_proba(b, X_scaled)
        assert np.max(np.abs(pa - pb)) < 1e-6

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(9)
        X, y = random_instance(rng, n=60, p=3)
        perm = rng.permutation(60)
        a = fit_logreg(X, y, LogRegParams(tol=1e-10))
        b = fit_logreg(X[perm], y[perm], LogRegParams(tol=1e-10))
        assert np.max(np.abs(a.weights - b.weights)) < 1e-8
        assert abs(a.intercept - b.intercept) < 1e-8

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(SingleClass):
            fit_logreg(X, np.zeros(10, dtype=int), LogRegParams())

    def test_accepts_label_vector(self):
        rng = np.random.default_rng(10)
        X, y = random_instance(rng, n=40, p=2)
        model = fit_logreg(X, y, LogRegParams())
        assert model.weights.shape == (2,)


@pytest.fixture(scope="module")
def planted_30k():
    # health-style table: four binary indicators, a BMI-like and a 1..5 code
    rng = np.random.default_rng(1)
    n = 30000
    X = np.column_stack([
        rng.integers(0, 2, size=(n, 4)), rng.normal(28, 6, size=n),
        rng.integers(1, 6, size=n),
    ]).astype(float)
    logits = X @ np.array([1.0, 0.8, 0.6, 0.2, 0.08, 0.3]) - 4.5
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    return X, y


class TestConvergedFlag:
    @pytest.mark.parametrize("optimizer", ["gradient", "coordinate"])
    @pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
    def test_flat_fit_on_many_rows_is_converged(self, planted_30k, optimizer,
                                                 penalty):
        X, y = planted_30k
        params = LogRegParams(penalty=penalty, optimizer=optimizer)
        model = fit_logreg(X, y, params)
        assert model.converged
        assert model.n_iter < params.max_iter

    @pytest.mark.parametrize("optimizer", ["gradient", "coordinate"])
    def test_max_iter_stop_is_not_converged(self, planted_30k, optimizer):
        X, y = planted_30k
        model = fit_logreg(X, y, LogRegParams(optimizer=optimizer, max_iter=1))
        assert not model.converged
        assert model.n_iter == 1


def _parent_fit_coordinate(X, s, params):
    """The coordinate solver as it stood before its Newton outer step, frozen
    as an oracle: cyclic coordinate steps on the 0.25 curvature majorizer of
    each coordinate, one sigmoid over all rows per coordinate, stopping once
    no coefficient moves by more than tol. Its update loop and stop rule are
    kept as they were; the recorded path and converged flag are dropped.
    Returns the standardized (w, b)."""
    def sigmoid(t):
        out = np.empty_like(t, dtype=float)
        pos = t >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    n, p = X.shape
    y01 = (s + 1.0) / 2.0
    w = np.zeros(p)
    b = 0.0
    margins = np.zeros(n)
    h = 0.25 * (X * X).sum(axis=0)
    h = np.where(h > 0, h, 1.0)
    hb = 0.25 * n
    lam = 1.0 / params.C
    lam_l1 = lam if params.penalty == "l1" else 0.0
    lam_l2 = lam if params.penalty == "l2" else 0.0
    for _ in range(params.max_iter):
        max_change = 0.0
        for j in range(p):
            residual = sigmoid(margins) - y01
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
        residual = sigmoid(margins) - y01
        gb = float(residual.sum())
        delta_b = -gb / hb
        if delta_b != 0.0:
            margins += delta_b
            b += delta_b
            max_change = max(max_change, abs(delta_b))
        if max_change <= params.tol:
            break
    return w, b


def _standardized(X, model):
    """(Z, w, b): the rows and fitted point on the scale the fit ran on."""
    Z = (X - model.feature_means) / model.feature_stds
    w = model.weights_standardized
    b = model.intercept + float(
        (w * model.feature_means / model.feature_stds).sum())
    return Z, w, b


def _row_gap(w, b, Z, y, params):
    """Max-norm of the objective's minimal-norm subgradient, per row."""
    _, g = loss_and_gradient(w, b, Z, y, params)
    if params.penalty == "l1":
        lam = 1.0 / params.C
        zero = np.append(w == 0, False)
        g[zero] = np.sign(g[zero]) * np.maximum(np.abs(g[zero]) - lam, 0.0)
    return float(np.max(np.abs(g))) / Z.shape[0]


@pytest.fixture(scope="module")
def parent_objectives(planted_30k):
    """Objective of the frozen parent coordinate solver per penalty."""
    X, y = planted_30k
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    out = {}
    for penalty in ("none", "l1", "l2"):
        params = LogRegParams(penalty=penalty)
        w, b = _parent_fit_coordinate(Z, 2.0 * y - 1.0, params)
        out[penalty] = loss_and_gradient(w, b, Z, y, params)[0]
    return out


@pytest.fixture(scope="module")
def near_separable():
    # x0 separates the classes but for one row repeated with the other label,
    # so the unpenalized optimum is finite while almost every row ends far
    # from the boundary: x0's Hessian diagonal falls about 1000-fold during
    # the fit. The parent solver used up max_iter here, 45% above the optimum
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 3))
    y = (X[:, 0] > 0).astype(int)
    return np.vstack([X, X[:1]]), np.append(y, 1 - y[0])


class TestNewtonCoordinateOracle:
    @pytest.mark.parametrize("optimizer", ["gradient", "coordinate"])
    @pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
    def test_gap_and_objective_against_parent(self, planted_30k,
                                              parent_objectives, optimizer,
                                              penalty):
        X, y = planted_30k
        params = LogRegParams(penalty=penalty, optimizer=optimizer)
        model = fit_logreg(X, y, params)
        Z, w, b = _standardized(X, model)
        assert _row_gap(w, b, Z, y, params) <= 10 * params.tol
        loss, _ = loss_and_gradient(w, b, Z, y, params)
        parent = parent_objectives[penalty]
        assert loss <= parent + 1e-9 * abs(parent)

    def test_near_separable_unpenalized_is_finite_and_optimal(self,
                                                              near_separable):
        X, y = near_separable
        params = LogRegParams(penalty="none", optimizer="coordinate")
        model = fit_logreg(X, y, params)
        assert model.converged
        assert np.all(np.isfinite(model.weights))
        assert np.isfinite(model.intercept)
        Z, w, b = _standardized(X, model)
        assert _row_gap(w, b, Z, y, params) <= 10 * params.tol
        parent, _ = loss_and_gradient(
            *_parent_fit_coordinate(Z, 2.0 * y - 1.0, params), Z, y, params)
        loss, _ = loss_and_gradient(w, b, Z, y, params)
        assert loss <= parent + 1e-9 * parent

    def test_line_search_stall_is_not_converged(self, near_separable):
        # no float point meets a gap of 1e-299 per row: the fit runs to the
        # optimum, then no halving of the step lowers the objective
        X, y = near_separable
        params = LogRegParams(penalty="none", optimizer="coordinate",
                              tol=1e-300)
        model = fit_logreg(X, y, params)
        assert not model.converged
        assert model.n_iter < params.max_iter
        assert np.all(np.isfinite(model.weights))
        assert np.isfinite(model.intercept)
        flat = fit_logreg(X, y, LogRegParams(penalty="none",
                                             optimizer="coordinate"))
        assert model.objective_path[-1] <= flat.objective_path[-1]


class TestObjectiveAgreesWithOracle:
    @pytest.mark.parametrize("optimizer", ["gradient", "coordinate"])
    @pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
    def test_last_path_value_is_loss_at_fitted_point(self, optimizer, penalty):
        # the finite-difference oracle above checks loss_and_gradient; this
        # ties it to the objective both optimizers minimize and record
        rng = np.random.default_rng(14)
        X, y = random_instance(rng, n=200, p=4)
        X = X * [1.0, 3.0, 0.5, 10.0] + [0.0, 2.0, -1.0, 5.0]
        params = LogRegParams(penalty=penalty, optimizer=optimizer, C=0.5)
        model = fit_logreg(X, y, params)
        Z = (X - model.feature_means) / model.feature_stds
        w = model.weights_standardized
        b = model.intercept + float(
            (w * model.feature_means / model.feature_stds).sum())
        loss, _ = loss_and_gradient(w, b, Z, y, params)
        assert model.objective_path[-1] == pytest.approx(loss, rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def counted_table():
    """(X, y) on 20,000 health-style rows that hold 720 distinct (row, label)
    pairs, and their count table."""
    rng = np.random.default_rng(5)
    n = 20000
    X = np.column_stack([rng.integers(0, 2, size=(n, 3)),
                         rng.integers(1, 6, size=n),
                         rng.integers(1, 10, size=n)]).astype(float)
    logits = X @ np.array([0.9, 0.7, -0.5, 0.3, 0.15]) - 2.0
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    return X, y, count_tables(X, y)()


class TestCountTables:
    """A fit on a count table minimizes the objective of its rows repeated
    as often as their counts say, and unit counts are no counts."""

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("optimizer", ["gradient", "coordinate"])
    @pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
    def test_fit_equals_fit_on_repeated_rows(self, counted_table, optimizer,
                                             penalty, standardize):
        _, _, (X, y, counts) = counted_table
        assert X.shape[0] == 720
        params = LogRegParams(penalty=penalty, optimizer=optimizer,
                              standardize=standardize, C=0.5)
        table = fit_logreg(X, y, params, counts=counts)
        rows = fit_logreg(np.repeat(X, counts, axis=0), np.repeat(y, counts),
                          params)
        assert table.objective_path[-1] == pytest.approx(
            rows.objective_path[-1], rel=1e-12, abs=0)
        np.testing.assert_allclose(table.weights, rows.weights,
                                   rtol=0, atol=1e-9)
        assert table.intercept == pytest.approx(rows.intercept, rel=0,
                                                abs=1e-9)
        np.testing.assert_allclose(table.feature_means, rows.feature_means,
                                   rtol=1e-12)
        np.testing.assert_allclose(table.feature_stds, rows.feature_stds,
                                   rtol=1e-12)

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("optimizer", ["gradient", "coordinate"])
    @pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
    def test_unit_counts_are_no_counts_bit_for_bit(self, optimizer, penalty,
                                                   standardize):
        rng = np.random.default_rng(15)
        X, y = random_instance(rng, n=300, p=4)
        X = X * [1.0, 3.0, 0.5, 10.0] + [0.0, 2.0, -1.0, 5.0]
        params = LogRegParams(penalty=penalty, optimizer=optimizer,
                              standardize=standardize)
        bare = fit_logreg(X, y, params)
        unit = fit_logreg(X, y, params, counts=np.ones(300, dtype=np.int32))
        for name in ("weights", "feature_means", "feature_stds",
                     "weights_standardized", "objective_path"):
            assert getattr(unit, name).tobytes() == getattr(bare, name).tobytes()
        assert unit.intercept.hex() == bare.intercept.hex()
        assert (unit.n_iter, unit.converged) == (bare.n_iter, bare.converged)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(1000, 6), (21370, 21), (300001, 3)])
    def test_unit_count_moments_are_numpys(self, shape, order):
        # standardization sums in the order of X.mean and X.std, so a fit
        # without counts standardizes as numpy does
        rng = np.random.default_rng(16)
        X = rng.normal(3.0, 5.0, size=shape) * rng.integers(1, 50, size=shape[1])
        X = np.asarray(X, order=order)
        means, stds = logistic._moments(X, np.ones(shape[0]))
        assert means.tobytes() == X.mean(axis=0).tobytes()
        assert stds.tobytes() == X.std(axis=0).tobytes()

    @pytest.mark.parametrize("penalty", ["none", "l1", "l2"])
    def test_loss_and_gradient_of_repeated_rows(self, counted_table, penalty):
        _, _, (X, y, counts) = counted_table
        params = LogRegParams(penalty=penalty, C=0.5)
        w, b = np.array([0.4, -0.3, 0.2, 0.1, -0.05]), -0.7
        loss, grad = loss_and_gradient(w, b, X, y, params, counts=counts)
        want_loss, want_grad = loss_and_gradient(
            w, b, np.repeat(X, counts, axis=0), np.repeat(y, counts), params)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-10)

    def test_table_fit_of_rows_is_their_fit(self, counted_table):
        # the table counts the rows in another order, so only rounding moves
        X, y, (X_t, y_t, counts) = counted_table
        params = LogRegParams(optimizer="coordinate")
        table = fit_logreg(X_t, y_t, params, counts=counts)
        rows = fit_logreg(X, y, params)
        assert (table.n_iter, table.converged) == (rows.n_iter, rows.converged)
        np.testing.assert_allclose(table.weights, rows.weights,
                                   rtol=0, atol=1e-9)


class TestOneL1Solver:
    """Every L1 fit runs proximal Newton, whatever ``optimizer`` says."""

    @pytest.mark.parametrize("standardize", [True, False])
    def test_l1_gradient_is_coordinate_bit_for_bit(self, counted_table,
                                                   standardize):
        _, _, (X, y, counts) = counted_table
        gradient, coordinate = [
            fit_logreg(X, y, LogRegParams(penalty="l1", C=0.5,
                                          optimizer=optimizer,
                                          standardize=standardize),
                       counts=counts)
            for optimizer in ("gradient", "coordinate")]
        for name in ("weights", "weights_standardized", "objective_path"):
            assert (getattr(gradient, name).tobytes()
                    == getattr(coordinate, name).tobytes())
        assert gradient.intercept.hex() == coordinate.intercept.hex()
        assert ((gradient.n_iter, gradient.converged)
                == (coordinate.n_iter, coordinate.converged))
        assert gradient.converged
        assert gradient.params.optimizer == "gradient"


class TestGradientStop:
    def test_small_move_before_the_gap_test_holds_goes_on(self):
        # at C = 1e-8 the first steps barely move the heavily penalized
        # weights, long before the unpenalized intercept has settled
        X, y = random_instance(np.random.default_rng(0), n=200, p=3,
                               informative=False)
        gradient, coordinate = [
            fit_logreg(X, y, LogRegParams(C=1e-8, optimizer=optimizer))
            for optimizer in ("gradient", "coordinate")]
        assert gradient.converged and coordinate.converged
        assert gradient.n_iter > 1
        assert gradient.intercept == pytest.approx(coordinate.intercept,
                                                   rel=0, abs=1e-6)

    def test_search_that_accepts_no_step_ends_the_fit(self):
        # at C = 1e-30 the penalty of every candidate, down to 2**-60 of the
        # first step, outweighs its decrease of the data term; each later
        # iteration would repeat the same failed search up to max_iter
        X, y = random_instance(np.random.default_rng(0), n=200, p=3,
                               informative=False)
        params = LogRegParams(C=1e-30)
        model = fit_logreg(X, y, params)
        assert model.n_iter < params.max_iter
        Z, w, b = _standardized(X, model)
        assert model.converged == (_row_gap(w, b, Z, y, params)
                                   <= 10 * params.tol)


class TestPredict:
    def _zero_model(self, p=3):
        rng = np.random.default_rng(0)
        X, y = random_instance(rng, n=20, p=p)
        model = fit_logreg(X, y, LogRegParams(max_iter=1))
        object.__setattr__(model, "weights", np.zeros(p))
        object.__setattr__(model, "intercept", 0.0)
        return model

    def test_zero_model_gives_half(self):
        model = self._zero_model()
        probs = predict_proba(model, np.random.default_rng(1).normal(size=(7, 3)))
        assert np.allclose(probs, 0.5)

    def test_scalar_sigmoid_value(self):
        model = self._zero_model(p=1)
        object.__setattr__(model, "weights", np.array([0.5]))
        probs = predict_proba(model, np.array([[1.0]]))
        assert probs[0] == pytest.approx(0.622459, abs=1e-6)

    def test_monotone_in_positive_weight_feature(self):
        rng = np.random.default_rng(2)
        X, y = random_instance(rng, n=100, p=2)
        model = fit_logreg(X, y, LogRegParams())
        j = int(np.argmax(model.weights))
        if model.weights[j] <= 0:
            pytest.skip("no positive weight in this fit")
        grid = np.zeros((50, 2))
        grid[:, j] = np.linspace(-3, 3, 50)
        probs = predict_proba(model, grid)
        assert np.all(np.diff(probs) >= 0)

    def test_threshold_conventions(self):
        model = self._zero_model()
        X = np.random.default_rng(3).normal(size=(5, 3))
        assert np.all(predict_label(model, X, threshold=0.5) == 1)
        assert np.all(predict_label(model, X, threshold=0.0) == 1)
        assert np.all(predict_label(model, X, threshold=1.0 + 1e-9) == 0)

    def test_dimension_mismatch(self):
        model = self._zero_model()
        with pytest.raises(DimensionMismatch):
            predict_proba(model, np.ones((4, 5)))


def _masked_sigmoid(t):
    """The sigmoid as two masked branches, each on the side where its exp
    cannot overflow."""
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_bits_match_masked_branches():
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0,
                        -745.0, 746.0, -746.0, tiny, -tiny, 1e-310, -1e-310])
    rng = np.random.default_rng(0)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-300, 300, 20_000)
    t = np.concatenate([special, scaled, 40 * rng.standard_normal(20_000)])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = logistic._sigmoid(t)
    assert got.tobytes() == _masked_sigmoid(t).tobytes()


class TestLasso:
    def test_huge_lambda_gives_exact_zeros(self):
        rng = np.random.default_rng(4)
        X, y = random_instance(rng, n=50, p=6)
        coefs = lasso_coefficients(X, y, 1e6)
        assert np.all(coefs == 0.0)

    def test_one_dimensional_scan_oracle(self):
        # symmetric data so the optimal intercept is 0; brute-force scan of
        # the exact penalized objective over the single standardized weight
        rng = np.random.default_rng(6)
        x = rng.normal(size=25)
        y_half = (x + rng.normal(scale=0.8, size=25) > 0).astype(int)
        X = np.concatenate([x, -x]).reshape(-1, 1)
        y = np.concatenate([y_half, 1 - y_half])
        lam = 3.0
        params = LogRegParams(penalty="l1", C=1.0 / lam, standardize=True)
        mean, std = X.mean(), X.std()
        Z = (X - mean) / std

        def penalized(w):
            return objective(np.array([w]), 0.0, Z, y,
                             LogRegParams(penalty="l1", C=1.0 / lam,
                                          standardize=False))

        ws = np.linspace(-4, 4, 20001)
        oracle = ws[int(np.argmin([penalized(w) for w in ws]))]
        coef = lasso_coefficients(X, y, lam)[0]
        assert coef == pytest.approx(oracle, abs=1e-4)

    def test_sparsity_nonincreasing_along_lambda_path(self):
        rng = np.random.default_rng(12)
        X, y = random_instance(rng, n=80, p=8)
        lambdas = np.logspace(-3, 3, 10)
        nonzeros = [
            int(np.count_nonzero(lasso_coefficients(X, y, lam)))
            for lam in lambdas
        ]
        assert all(a >= b for a, b in zip(nonzeros, nonzeros[1:]))

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            lasso_coefficients(np.ones((4, 1)), np.array([0, 1, 0, 1]), 0.0)


# A child that sees argv[1] CPUs from before numpy loads: diabrisk, and
# with it numpy, is imported after the affinity is set.
LASSO_ON_CPUS = """
import os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
from diabrisk.logistic import lasso_coefficients
sys.path.insert(0, sys.argv[2])
from synth import generate
table = generate(1, 0.16)  # 40,589 rows
y = (table[:, 0] > 0).astype(int)
print(lasso_coefficients(table[:, 1:], y, 0.01).tobytes().hex())
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_lasso_bytes_do_not_follow_the_cpu_count(tmp_path):
    # numpy's OpenBLAS starts a thread per CPU unless told otherwise, and a
    # threaded Gram sums in another order: on 40,000 rows that moves the
    # coefficients' last bits, so diabrisk defaults to one BLAS thread
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    coefs = [subprocess.run(
        [sys.executable, "-c", LASSO_ON_CPUS, str(cpus),
         str(REPO_ROOT / "perfbench")], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True).stdout for cpus in (1, 2)]
    assert coefs[0] == coefs[1]

"""Least-squares engine tests against closed-form and oracle solutions."""

import numpy as np
import pytest

from photonkit.fit import levenberg_marquardt, numeric_jacobian


def line(x, th):
    return th[0] + th[1] * x


def line_jac(x, th):
    return np.column_stack((np.ones_like(x), x))


def decay(x, th):
    return th[0] * np.exp(-x / th[1])


def decay_jac(x, th):
    e = np.exp(-x / th[1])
    return np.column_stack((e, th[0] * x * e / th[1] ** 2))


class TestEngine:
    def test_exact_line(self):
        x = np.linspace(0, 10, 20)
        y = line(x, [2.5, -1.25])
        fit = levenberg_marquardt(line, x, y, [0.0, 0.0], jacobian=line_jac)
        assert fit.converged
        np.testing.assert_allclose(fit.theta, [2.5, -1.25], atol=1e-9)
        assert fit.chi2_reduced < 1e-18

    def test_weighted_linear_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 5, 40)
        y = line(x, [1.0, 3.0]) + rng.normal(0, 0.5, x.size)
        w = rng.uniform(0.2, 4.0, x.size)
        fit = levenberg_marquardt(line, x, y, [0.0, 0.0],
                                  jacobian=line_jac, weights=w)
        xmat = np.column_stack((np.ones_like(x), x))
        closed = np.linalg.solve(xmat.T @ (w[:, None] * xmat), xmat.T @ (w * y))
        np.testing.assert_allclose(fit.theta, closed, rtol=1e-8)
        resid = y - xmat @ closed
        chi2_red = float(resid @ (w * resid)) / (x.size - 2)
        cov_closed = np.linalg.inv(xmat.T @ (w[:, None] * xmat)) * chi2_red
        np.testing.assert_allclose(fit.covariance, cov_closed, rtol=1e-6)

    def test_noiseless_exponential_inversion(self):
        x = np.linspace(0, 30, 60)
        truth = np.array([120.0, 4.7])
        y = decay(x, truth)
        fit = levenberg_marquardt(decay, x, y, truth * [1.4, 0.6],
                                  jacobian=decay_jac)
        assert fit.converged
        np.testing.assert_allclose(fit.theta, truth, rtol=1e-8)

    def test_numeric_jacobian_fallback(self):
        x = np.linspace(0, 30, 60)
        truth = np.array([120.0, 4.7])
        y = decay(x, truth)
        fit = levenberg_marquardt(decay, x, y, truth * [0.5, 1.8])
        assert fit.converged
        np.testing.assert_allclose(fit.theta, truth, rtol=1e-6)

    def test_bounds_are_respected(self):
        x = np.linspace(0, 10, 30)
        y = line(x, [0.0, 2.0])
        fit = levenberg_marquardt(line, x, y, [0.0, 1.0], jacobian=line_jac,
                                  bounds=[(-1.0, 1.0), (0.0, 1.5)])
        assert fit.theta[1] <= 1.5 + 1e-12
        assert -1.0 <= fit.theta[0] <= 1.0

    def test_singular_problem_flags_covariance(self):
        def redundant(x, th):
            return (th[0] + th[1]) * x

        x = np.linspace(1, 5, 10)
        y = 3.0 * x
        fit = levenberg_marquardt(
            redundant, x, y, [1.0, 1.0],
            jacobian=lambda xx, th: np.column_stack((xx, xx)))
        assert "singular_covariance" in fit.flags
        assert np.all(np.isfinite(fit.covariance))

    def test_iteration_budget(self):
        x = np.linspace(0, 30, 60)
        y = decay(x, [120.0, 4.7])
        fit = levenberg_marquardt(decay, x, y, [1.0, 30.0],
                                  jacobian=decay_jac, max_iterations=1)
        assert not fit.converged
        assert fit.iterations == 1

    def test_argument_errors(self):
        x = np.linspace(0, 1, 5)
        y = np.zeros(5)
        with pytest.raises(ValueError):
            levenberg_marquardt(line, x, np.zeros(4), [0.0, 0.0])
        with pytest.raises(ValueError):
            levenberg_marquardt(line, x[:1], y[:1], [0.0, 0.0])
        with pytest.raises(ValueError):
            levenberg_marquardt(line, x, y, [0.0, 0.0], weights=np.full(5, -1.0))
        with pytest.raises(ValueError):
            levenberg_marquardt(line, x, y, [0.0, 0.0], weights=np.ones(3))

    def test_no_improving_damping_ends_at_the_start(self):
        # A wrong-sign Jacobian sends every damped step uphill, up to the
        # largest damping; the engine stops there and keeps the start.
        x = np.linspace(0, 10, 20)
        y = line(x, [2.5, -1.25])
        fit = levenberg_marquardt(line, x, y, [0.0, 0.0],
                                  jacobian=lambda xx, th: -line_jac(xx, th))
        assert fit.converged
        assert fit.iterations == 1
        np.testing.assert_array_equal(fit.theta, [0.0, 0.0])
        assert fit.chi2_reduced == pytest.approx(float(y @ y) / 18)

    def test_parameter_held_at_its_bound(self):
        # The free intercept would be -2. Bounded below by 0, the fit is
        # the least-squares line through the origin, slope sum(xy)/sum(x^2).
        # A step that pushes the intercept out is solved for the slope
        # alone, so the fit does not crawl along the bound.
        x = np.linspace(0, 10, 20)
        y = line(x, [-2.0, 1.5])
        fit = levenberg_marquardt(line, x, y, [1.0, 0.0], jacobian=line_jac,
                                  bounds=[(0.0, np.inf), (-np.inf, np.inf)])
        assert fit.converged
        assert fit.iterations < 10
        assert fit.theta[0] == 0.0
        assert fit.theta[1] == pytest.approx((x @ y) / (x @ x), rel=1e-12)


class TestNumericJacobian:
    def test_matches_analytic_for_decay(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.1, 20, 50)
        for _ in range(20):
            th = np.array([rng.uniform(10, 500), rng.uniform(0.5, 20)])
            num = numeric_jacobian(decay, x, th)
            ana = decay_jac(x, th)
            np.testing.assert_allclose(num, ana, rtol=1e-6, atol=1e-9)

    def test_matches_analytic_for_line(self):
        x = np.linspace(-4, 4, 17)
        num = numeric_jacobian(line, x, np.array([2.0, -3.0]))
        np.testing.assert_allclose(num, line_jac(x, None), rtol=1e-9, atol=1e-9)

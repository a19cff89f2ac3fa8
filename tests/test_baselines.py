import math

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import quad
from scipy.stats import norm

from taraarch import baselines
from taraarch.baselines import (
    CannedSpec,
    EgarchParams,
    GarchParams,
    arch_variance,
    black_scholes_price,
    canned_model_spec,
    canned_specs,
    egarch_log_variance,
    egarch_shock_response,
    garch_variance,
    tar_arch_full_qmle,
    _full_qmle_objective,
    _symmetric_variance,
)
from taraarch.estimation import (
    ConvergenceError,
    EstimationError,
    FitReport,
    _FitContext,
    _initial_values,
    _slope_design,
    gaussian_qll,
    theta_step,
)
from taraarch.model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    variance_path,
)
from taraarch.model import residuals as model_residuals
from taraarch.montecarlo import symmetric_reference_spec
from taraarch.simulate import SimConfig, normal_stream, simulate_path


def bs_quadrature(spot, strike, rate, sigma, tau):
    """Risk-neutral expectation of the discounted payoff, by quadrature.

    Integrates over the in-the-money region only so quad never sees the
    payoff kink (adaptive quadrature can silently lose accuracy there).
    """
    drift = (rate - 0.5 * sigma**2) * tau
    vol = sigma * math.sqrt(tau)
    z0 = max((math.log(strike / spot) - drift) / vol, -40.0)

    def payoff(z):
        return (spot * math.exp(drift + vol * z) - strike) * norm.pdf(z)

    val, _ = quad(payoff, z0, z0 + 45.0, limit=400, epsabs=1e-13, epsrel=1e-13)
    return math.exp(-rate * tau) * val


def natural_vector(spec):
    """(theta, alpha0, a) of a symmetric fit, the full QMLE's natural coordinates."""
    return np.concatenate(
        [spec.tar.coefficients.ravel(), [spec.aarch.alpha0], spec.aarch.alphas]
    )


def frozen_presample_mean_qll(x, spec):
    """Mean qll of the symmetric model in natural coordinates, rebuilt from
    public primitives, with the presample variance frozen at the variance of
    the OLS residuals, as the full QMLE freezes it."""
    l, w, q = spec.partition.regimes, spec.p + 1, spec.q
    flat = AarchParams(1.0, np.zeros(q), np.zeros(q))
    tar0 = theta_step(x, spec.partition, flat, TarParams(np.zeros((l, w))))
    ph = float(model_residuals(
        ModelSpec(partition=spec.partition, tar=tar0, aarch=flat), x
    ).var())
    nq = x.size - spec.presample_length
    o = spec.presample_length - spec.mean_lag_length

    def mean_qll(v):
        tar = TarParams(v[: l * w].reshape(l, w))
        aarch = AarchParams(v[l * w], v[l * w + 1 :], np.zeros(q))
        probe = ModelSpec(partition=spec.partition, tar=tar, aarch=aarch)
        e = model_residuals(probe, x)
        h = variance_path(aarch, e, ph)
        eq, hq = e[o:], h[o:]
        return -0.5 * float(np.sum(np.log(hq) + eq * eq / hq)) / nq

    return mean_qll


def full_qmle_objective(x, spec):
    """``u -> (f, g)``: the full QMLE's objective on ``x`` in its coordinates
    ``u = (theta, log alpha0, log a)``, with the fit's frozen presample."""
    ctx = _FitContext(x, spec.partition, spec.p, spec.q)
    ph = _initial_values(ctx)[1].alpha0
    return lambda u: _full_qmle_objective(u, ctx, ph)


def symmetric_spec(alphas):
    """The reference spec's mean with symmetric loadings ``alphas``."""
    base = symmetric_reference_spec()
    q = len(alphas)
    return ModelSpec(
        partition=base.partition, tar=base.tar,
        aarch=AarchParams(0.1, np.array(alphas), np.zeros(q)),
    )


def points_off_optimum(spec, seed, count):
    """Optimizer coordinates scattered around the truth."""
    rng = np.random.default_rng(seed)
    u = natural_vector(spec)
    k = spec.tar.coefficients.size
    u[k:] = np.log(u[k:])
    scale = np.r_[np.full(k, 0.1), np.full(u.size - k, 0.3)]
    return [u + scale * rng.standard_normal(u.size) for _ in range(count)]


def central_hessian(f, v, step):
    """Central-difference Hessian of a scalar function."""
    shifts = step * np.eye(v.size)
    hess = np.empty((v.size, v.size))
    for i, si in enumerate(shifts):
        for j, sj in enumerate(shifts):
            hess[i, j] = (
                f(v + si + sj) - f(v + si - sj) - f(v - si + sj) + f(v - si - sj)
            ) / (4 * step * step)
    return hess


class TestArchVariance:
    def test_constant_when_coefficients_zero(self):
        h = arch_variance(0.3, np.zeros(2), np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(h, 0.3, atol=0)

    def test_hand_value(self):
        h = arch_variance(0.1, np.array([0.4]), np.array([2.0, 0.0]))
        assert h[1] == pytest.approx(1.7, abs=1e-15)

    def test_matches_asymmetric_recursion_with_sqrt_coefficients(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        e = rng.normal(size=200)
        h_arch = arch_variance(0.2, np.array([0.36, 0.04]), e)
        aarch = AarchParams(0.2, np.array([0.6, 0.2]), np.zeros(2))
        np.testing.assert_allclose(h_arch, variance_path(aarch, e, 0.0), atol=1e-12)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            arch_variance(0.1, np.array([-0.2]), np.array([1.0]))

    @pytest.mark.parametrize("alpha0", [np.nan, np.inf])
    def test_rejects_non_finite_alpha0(self, alpha0):
        # NaN returned all-NaN variances instead of raising
        with pytest.raises(ValueError, match=f"alpha0 must be finite and > 0, got {alpha0}"):
            arch_variance(alpha0, np.array([0.4]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("coefficient", [np.nan, np.inf])
    def test_rejects_non_finite_coefficients(self, coefficient):
        # NaN passed the a < 0 check
        with pytest.raises(ValueError, match="ARCH coefficients must be finite and nonnegative"):
            arch_variance(0.1, np.array([coefficient]), np.array([1.0, 2.0]))

    def test_rejects_a_non_finite_residual(self):
        # returned [0.1 0.5 nan]
        with pytest.raises(ValueError, match="residuals contains a non-finite value at index 1"):
            arch_variance(0.1, [0.4], [1.0, np.nan, 2.0])

    def test_rejects_two_dimensional_residuals(self):
        # failed in a numpy broadcast
        with pytest.raises(ValueError,
                           match=r"residuals must be one-dimensional, got shape \(2, 2\)"):
            arch_variance(0.1, [0.4], np.ones((2, 2)))


class TestGarchVariance:
    def test_beta_zero_reduces_to_arch(self):
        e = np.array([0.5, -1.5, 2.5, 0.1])
        params = GarchParams(0.2, np.array([0.3]), np.array([0.0]))
        np.testing.assert_allclose(
            garch_variance(params, e, 1.0),
            arch_variance(0.2, np.array([0.3]), e),
            atol=1e-15,
        )

    def test_fixed_point_with_zero_shocks(self):
        params = GarchParams(0.05, np.array([0.1]), np.array([0.85]))
        h = garch_variance(params, np.zeros(400), presample_h=1.0)
        assert h[0] == pytest.approx(0.05 + 0.85, abs=1e-15)
        assert h[-1] == pytest.approx(0.05 / 0.15, rel=1e-9)

    def test_long_run_sample_variance_matches_unconditional(self):
        alpha0, a1, b1 = 0.05, 0.08, 0.82
        z = normal_stream(31337, 200_000)
        h_prev = alpha0 / (1 - a1 - b1)
        e_prev = 0.0
        e = np.empty(z.size)
        for t in range(z.size):
            h_t = alpha0 + a1 * e_prev**2 + b1 * h_prev
            e[t] = z[t] * math.sqrt(h_t)
            e_prev, h_prev = e[t], h_t
        target = alpha0 / (1 - a1 - b1)
        assert abs(e.var() - target) / target < 0.10

    @pytest.mark.parametrize("alpha0, alphas, betas, message", [
        (np.nan, [0.1], [0.8], "alpha0 must be finite and > 0, got nan"),
        (0.1, [np.inf], [0.8], "GARCH coefficients must be finite and nonnegative"),
        (0.1, [0.1], [np.nan], "GARCH coefficients must be finite and nonnegative"),
        (0.1, [0.1], [-0.8], "GARCH coefficients must be finite and nonnegative"),
    ])
    def test_rejects_non_finite_or_negative_parameters(self, alpha0, alphas, betas, message):
        with pytest.raises(ValueError, match=message):
            GarchParams(alpha0, np.array(alphas), np.array(betas))

    @pytest.mark.parametrize("presample_h", [-5.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_presample(self, presample_h):
        # at -5.0 these variances were -3.9 and -2.995
        params = GarchParams(0.1, np.array([0.1]), np.array([0.8]))
        with pytest.raises(ValueError,
                           match=f"presample_h must be finite and >= 0, got {presample_h}"):
            garch_variance(params, np.array([0.5, -1.5]), presample_h=presample_h)

    def test_rejects_a_non_finite_residual(self):
        # returned an infinite variance
        params = GarchParams(0.1, np.array([0.1]), np.array([0.8]))
        with pytest.raises(ValueError, match="residuals contains a non-finite value at index 1"):
            garch_variance(params, [0.5, np.inf, 1.0], presample_h=1.0)

    def test_rejects_two_dimensional_residuals(self):
        params = GarchParams(0.1, np.array([0.1]), np.array([0.8]))
        with pytest.raises(ValueError,
                           match=r"residuals must be one-dimensional, got shape \(2, 2\)"):
            garch_variance(params, np.ones((2, 2)), presample_h=1.0)

    def test_stationarity_flag(self):
        assert GarchParams(0.1, np.array([0.1]), np.array([0.8])).is_stationary
        assert not GarchParams(0.1, np.array([0.3]), np.array([0.8])).is_stationary


class TestEgarch:
    def test_noise_free_recursion_is_ar1(self):
        params = EgarchParams(gamma0=0.2, gamma1=0.5, omega=0.0, lam=0.0)
        logh = egarch_log_variance(params, np.zeros(200), presample_logh=1.0)
        expected = 1.0
        for t in range(5):
            expected = 0.2 + 0.5 * expected
            assert logh[t] == pytest.approx(expected, abs=1e-14)
        assert logh[-1] == pytest.approx(0.4, abs=1e-12)

    def test_news_term_centered_at_mean_absolute_shock(self):
        params = EgarchParams(0.0, 0.0, omega=0.0, lam=1.0)
        assert egarch_shock_response(params, math.sqrt(2 / math.pi)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_news_term_hand_value_against_quadrature(self):
        mean_abs, _ = quad(lambda x: abs(x) * norm.pdf(x), -12, 12)
        params = EgarchParams(0.0, 0.0, omega=0.1, lam=0.2)
        got = egarch_shock_response(params, 1.0)
        assert got == pytest.approx(0.1 + 0.2 * (1.0 - mean_abs), abs=1e-9)
        assert got == pytest.approx(0.14042, abs=1e-5)

    def test_variances_positive_by_exponentiation(self):
        params = EgarchParams(0.1, 0.9, omega=-0.3, lam=0.4)
        z = normal_stream(5, 1000)
        logh = egarch_log_variance(params, z, presample_logh=0.0)
        assert np.all(np.exp(logh) > 0)

    @pytest.mark.parametrize("field", ["gamma0", "gamma1", "omega", "lam"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        # a NaN gamma0 returned [nan nan nan]
        values = {"gamma0": 0.1, "gamma1": 0.5, "omega": 0.1, "lam": 0.2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            EgarchParams(**values)

    @pytest.mark.parametrize("presample_logh", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_presample(self, presample_logh):
        # inf returned [inf inf inf]
        params = EgarchParams(0.1, 0.5, omega=0.1, lam=0.2)
        with pytest.raises(ValueError,
                           match=f"presample_logh must be finite, got {presample_logh}"):
            egarch_log_variance(params, np.zeros(3), presample_logh=presample_logh)

    def test_rejects_a_non_finite_shock(self):
        params = EgarchParams(0.1, 0.5, omega=0.1, lam=0.2)
        with pytest.raises(ValueError,
                           match="standardized_shocks contains a non-finite value at index 1"):
            egarch_log_variance(params, [0.0, np.nan, 1.0], presample_logh=0.0)


class TestCannedSpecs:
    def test_lynx_digits(self):
        lynx = canned_specs()[0]
        assert lynx.name == "lynx"
        np.testing.assert_array_equal(
            lynx.tar.coefficients,
            np.array([[0.62, 1.25, -0.43], [2.25, 1.52, -1.24]]),
        )
        assert lynx.partition.delay == 2
        assert lynx.partition.thresholds[0] == 3.25
        assert lynx.noise_sd == (0.2, 0.25)

    def test_sunspot_digits(self):
        sunspot = canned_specs()[1]
        assert sunspot.partition.delay == 8
        assert sunspot.partition.thresholds[0] == 11.9824
        low = sunspot.tar.coefficients[0]
        np.testing.assert_array_equal(
            low,
            [1.9191, 0.8416, 0.0728, -0.3153, 0.1479, -1.985, -0.0005, 0.1875,
             -0.2701, 0.2116, 0.0091, 0.0873],
        )
        np.testing.assert_array_equal(
            sunspot.tar.coefficients[1][:4], [4.2746, 1.4431, -0.8408, 0.0554]
        )

    def test_model_spec_embedding(self):
        spec = canned_model_spec("lynx")
        assert spec.aarch.alpha0 == pytest.approx(0.04)
        assert spec.p == 2 and spec.q == 1
        with pytest.raises(KeyError):
            canned_model_spec("nope")


class TestBlackScholes:
    def test_zero_strike_is_spot(self):
        assert black_scholes_price(100.0, 0.0, 0.05, 0.2, 1.0) == 100.0

    def test_vanishing_volatility_limit(self):
        price = black_scholes_price(100.0, 90.0, 0.0, 1e-12, 1.0)
        assert price == pytest.approx(10.0, abs=1e-6)
        worthless = black_scholes_price(80.0, 90.0, 0.0, 1e-12, 1.0)
        assert worthless == pytest.approx(0.0, abs=1e-6)

    def test_at_the_money_value(self):
        price = black_scholes_price(100.0, 100.0, 0.0, 0.2, 1.0)
        assert price == pytest.approx(7.965567455405804, abs=1e-9)
        assert price == pytest.approx(bs_quadrature(100, 100, 0.0, 0.2, 1.0), abs=1e-8)

    def test_monotone_in_sigma_spot_strike(self):
        sigmas = np.linspace(0.05, 0.8, 12)
        prices = [black_scholes_price(100, 95, 0.02, s, 0.7) for s in sigmas]
        assert np.all(np.diff(prices) > 0)
        spots = np.linspace(60, 140, 12)
        prices = [black_scholes_price(s, 95, 0.02, 0.3, 0.7) for s in spots]
        assert np.all(np.diff(prices) > 0)
        strikes = np.linspace(60, 140, 12)
        prices = [black_scholes_price(100, k, 0.02, 0.3, 0.7) for k in strikes]
        assert np.all(np.diff(prices) < 0)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            black_scholes_price(-1.0, 100, 0.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            black_scholes_price(100, 100, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            black_scholes_price(100, 100, 0.0, 0.2, 0.0)
        with pytest.raises(ValueError):
            black_scholes_price(100, -5.0, 0.0, 0.2, 1.0)


class TestFullQmle:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_lag_rows_are_the_slope_designs_at_c_plus_equal_c_minus(self, q):
        # One of e+^2 and e-^2 is an exact zero and ph/2 + ph/2 = ph, so the
        # squared-lag rows E_k are X+_k + X-_k of the concentrated fit's slope
        # design bit for bit, and both are e^2 lagged k steps after ph.
        spec = symmetric_reference_spec()
        x = simulate_path(spec, SimConfig(n=500, seed=48)).series.values
        ctx = _FitContext(x, spec.partition, spec.p, q)
        theta = spec.tar.coefficients.ravel()
        e = ctx.residuals(theta)
        ph = float(e.var())
        _, lag_sq, _ = _symmetric_variance(ctx, ph, theta, 0.1, np.full(q, 0.4))
        xd = _slope_design(e, q)
        assert lag_sq.tobytes() == (xd[1 : 1 + q] + xd[1 + q :]).tobytes()
        for k in range(1, q + 1):
            ref = np.concatenate([np.full(k, ph), e[:-k] ** 2])
            assert lag_sq[k - 1].tobytes() == ref.tobytes()

    def test_degenerate_case_recovers_moments(self):
        spec = ModelSpec(
            partition=ThresholdPartition.single_regime(),
            tar=TarParams(np.array([[0.3]])),
            aarch=AarchParams(0.5, np.zeros(1), np.zeros(1)),
        )
        sim = simulate_path(spec, SimConfig(n=20_000, seed=10))
        report = tar_arch_full_qmle(sim.series, spec.partition, 0, 1)
        x = sim.series.values
        e = x - x.mean()
        assert report.spec.tar.coefficients[0, 0] == pytest.approx(x.mean(), abs=0.02)
        assert report.spec.aarch.alpha0 == pytest.approx(np.mean(e * e), rel=0.05)

    # The optimizer's coordinates are (theta, log alpha0, log a): the
    # reference spec has 4 theta entries, so log alpha0 sits at index 4.
    @pytest.mark.parametrize("index, value", [
        pytest.param(0, np.nan, id="nan_theta"),
        pytest.param(4, np.nan, id="nan_log_alpha0"),
        pytest.param(4, -800.0, id="alpha0_underflow"),
        pytest.param(5, np.nan, id="nan_log_loading"),
    ])
    def test_unusable_optimizer_point_raises_estimation_error(self, monkeypatch, index,
                                                              value):
        real = scipy.optimize.minimize

        def minimize(fun, x0, **kwargs):
            res = real(fun, x0, **kwargs)
            res.x = res.x.copy()
            res.x[index] = value
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        spec = symmetric_reference_spec()
        sim = simulate_path(spec, SimConfig(n=500, seed=48))
        with pytest.raises(EstimationError, match="full QMLE stopped at alpha0"):
            tar_arch_full_qmle(sim.series, spec.partition, spec.p, spec.q)

    def test_nonconvergence_carries_the_unconverged_report(self, monkeypatch):
        monkeypatch.setattr(baselines, "MAX_FULL_QMLE_ITER", 1)
        spec = symmetric_reference_spec()
        sim = simulate_path(spec, SimConfig(n=500, seed=48))
        with pytest.raises(ConvergenceError,
                           match="full QMLE did not converge in 1 iterations") as excinfo:
            tar_arch_full_qmle(sim.series, spec.partition, spec.p, spec.q)
        report = excinfo.value.result
        assert isinstance(report, FitReport)
        assert not report.converged
        assert report.iterations == 1

    def test_ascent_from_truth(self):
        spec = symmetric_reference_spec()
        sim = simulate_path(spec, SimConfig(n=3000, seed=44))
        report = tar_arch_full_qmle(sim.series, spec.partition, spec.p, spec.q)
        assert report.qll >= gaussian_qll(spec, sim.series) - 1e-9

    def test_trace_monotone(self):
        spec = symmetric_reference_spec()
        sim = simulate_path(spec, SimConfig(n=2000, seed=45))
        report = tar_arch_full_qmle(sim.series, spec.partition, spec.p, spec.q)
        assert np.all(np.diff(report.trace) >= -1e-9)

    def test_betas_identically_zero(self):
        spec = symmetric_reference_spec()
        sim = simulate_path(spec, SimConfig(n=2000, seed=46))
        report = tar_arch_full_qmle(sim.series, spec.partition, spec.p, spec.q)
        np.testing.assert_array_equal(report.spec.aarch.betas, np.zeros(1))

    def test_three_se_coverage_over_replicates(self, efficiency_pair):
        _, _, _, res_full = efficiency_pair
        rows = [r for r in res_full.rows if r.converged][:200]
        est = np.vstack([r.estimates for r in rows])
        ses = np.vstack([r.std_errors for r in rows])
        inside = np.abs(est - res_full.truth) <= 3 * ses
        assert inside.mean(axis=0).min() >= 0.95

    def test_score_norm_at_optimum(self):
        # finite-difference the frozen-presample objective at the returned
        # optimum, in the optimizer's (log-transformed) coordinates
        spec = symmetric_reference_spec()
        sim = simulate_path(spec, SimConfig(n=3000, seed=47))
        report = tar_arch_full_qmle(sim.series, spec.partition, spec.p, spec.q)
        mean_qll = frozen_presample_mean_qll(sim.series.values, spec)

        def mean_negative_qll(u):
            return -mean_qll(np.concatenate([u[:4], np.exp(u[4:])]))

        u = natural_vector(report.spec)
        u[4:] = np.log(u[4:])
        grad = np.empty(u.size)
        for i in range(u.size):
            step = 1e-6 * (1.0 + abs(u[i]))
            up, dn = u.copy(), u.copy()
            up[i] += step
            dn[i] -= step
            grad[i] = (mean_negative_qll(up) - mean_negative_qll(dn)) / (2 * step)
        assert np.max(np.abs(grad)) < 1e-6

    # At q = 2 the window q > max(p, d) drops an observation and the presample
    # lags count.
    @pytest.mark.parametrize("alphas", [[0.5], [0.4, 0.3]])
    def test_objective_is_the_frozen_presample_mean_qll(self, alphas):
        spec = symmetric_spec(alphas)
        x = simulate_path(spec, SimConfig(n=400, seed=50)).series.values
        objective = full_qmle_objective(x, spec)
        mean_qll = frozen_presample_mean_qll(x, spec)
        k = spec.tar.coefficients.size
        for u in points_off_optimum(spec, 51, 20):
            v = np.concatenate([u[:k], np.exp(u[k:])])
            assert objective(u)[0] == pytest.approx(-mean_qll(v), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alphas", [[0.5], [0.4, 0.3]])
    def test_qll_and_trace_keep_their_presample_conventions(self, alphas):
        # ``qll`` is the fitted model's, with var(e) of its final residuals in
        # the presample lags; ``trace`` ends at the objective that was
        # maximized, with the presample frozen at the start.
        spec = symmetric_spec(alphas)
        x = simulate_path(spec, SimConfig(n=2000, seed=54)).series.values
        report = tar_arch_full_qmle(x, spec.partition, spec.p, spec.q)
        tar, aarch = report.spec.tar, report.spec.aarch
        ctx = _FitContext(x, spec.partition, spec.p, spec.q)
        assert report.qll == ctx.qll_sum(tar, aarch)
        u = np.r_[tar.coefficients.ravel(), np.log(aarch.alpha0), np.log(aarch.alphas)]
        f, _ = full_qmle_objective(x, spec)(u)
        assert report.trace[-1] == pytest.approx(-f * ctx.nq, rel=1e-13, abs=0.0)
        assert report.qll != pytest.approx(report.trace[-1], rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("alphas", [[0.5], [0.4, 0.3]])
    def test_objective_gradient_matches_central_differences(self, alphas):
        spec = symmetric_spec(alphas)
        x = simulate_path(spec, SimConfig(n=400, seed=52)).series.values
        objective = full_qmle_objective(x, spec)
        for u in points_off_optimum(spec, 53, 5):
            _, grad = objective(u)
            fd = np.empty(u.size)
            for i in range(u.size):
                step = 1e-5 * (1.0 + abs(u[i]))
                up, dn = u.copy(), u.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (objective(up)[0] - objective(dn)[0]) / (2 * step)
            # away from the optimum, and within the differences' own O(step^2)
            assert np.max(np.abs(grad)) > 1e-2
            np.testing.assert_allclose(grad, fd, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("alphas", [[0.5], [0.4, 0.3]])
    def test_sandwich_matches_finite_difference_hessian(self, alphas):
        # At q = 2 the presample lags and the window q > max(p, d) both count.
        # Seed 49 keeps every loading estimate away from zero: near a = 0 the
        # sandwich's a entries are O(a^2) and drown in the oracle's own error.
        base = symmetric_reference_spec()
        q = len(alphas)
        spec = ModelSpec(
            partition=base.partition, tar=base.tar,
            aarch=AarchParams(0.1, np.array(alphas), np.zeros(q)),
        )
        sim = simulate_path(spec, SimConfig(n=300, seed=49))
        report = tar_arch_full_qmle(sim.series, spec.partition, 1, q)
        mean_qll = frozen_presample_mean_qll(sim.series.values, spec)
        v = natural_vector(report.spec)
        k = v.size
        # Richardson-extrapolated central differences: the O(step^2) error of
        # one step is about 1e-5 relative here
        fine, coarse = (central_hessian(mean_qll, v, s) for s in (2.5e-4, 5e-4))
        hess = (4 * fine - coarse) / 3
        hinv = np.linalg.inv(hess)
        nq = sim.series.values.size - spec.presample_length
        expected = hinv @ report.info_matrix[:k, :k] @ hinv.T / nq
        got = report.sandwich_cov[:k, :k]
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.max(np.abs(got - expected) / scale) < 1e-6


def test_canned_spec_type_fields():
    lynx = canned_specs()[0]
    assert isinstance(lynx, CannedSpec)
    assert lynx.source
    sun = canned_specs()[1]
    assert sun.noise_sd is None
    assert sun.model_spec().aarch.alpha0 == 1.0

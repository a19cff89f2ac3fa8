"""Reference volatility recursions, canned threshold-AR fixtures, option
pricing, and the full (non-concentrated) QMLE for the symmetric model.

The full QMLE is the comparison point for the concentrated two-step
estimator: with symmetric ARCH errors the variance recursion is smooth in
every parameter, so the Gaussian quasi-likelihood can be maximized jointly.
Its gradient, scores and Hessian are analytic.  Each evaluation of the
objective makes the residuals and the variances, and the gradient from them
through one product on the regime design; only the inference at the
optimum builds the rows of the variances' derivative.  The presample
variance is frozen at the warm start so that the likelihood stays smooth
and local in the mean parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import (
    ConvergenceError,
    EstimationError,
    FitReport,
    _FitContext,
    _initial_values,
    _sandwich,
)
from .model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
)

__all__ = [
    "GarchParams",
    "EgarchParams",
    "CannedSpec",
    "arch_variance",
    "garch_variance",
    "egarch_shock_response",
    "egarch_log_variance",
    "canned_specs",
    "canned_model_spec",
    "black_scholes_price",
    "tar_arch_full_qmle",
]

MEAN_ABS_STANDARD_NORMAL = math.sqrt(2.0 / math.pi)
MAX_FULL_QMLE_ITER = 500


@dataclass(frozen=True)
class GarchParams:
    """GARCH coefficients: ``h_t = alpha0 + sum a_i e_{t-i}^2 + sum b_j h_{t-j}``."""

    alpha0: float
    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError(f"alpha0 must be > 0, got {self.alpha0}")
        a = np.atleast_1d(np.asarray(self.alphas, dtype=float))
        b = np.atleast_1d(np.asarray(self.betas, dtype=float))
        if np.any(a < 0) or np.any(b < 0):
            raise ValueError("GARCH coefficients must be nonnegative")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "betas", b)

    @property
    def is_stationary(self) -> bool:
        """Covariance stationarity flag: coefficient sum below one."""
        return float(self.alphas.sum() + self.betas.sum()) < 1.0


@dataclass(frozen=True)
class EgarchParams:
    """Exponential GARCH coefficients for the log-variance recursion."""

    gamma0: float
    gamma1: float
    omega: float
    lam: float

    @property
    def is_stationary(self) -> bool:
        return abs(self.gamma1) < 1.0


def arch_variance(alpha0: float, alphas, residuals) -> np.ndarray:
    """ARCH(q) variances ``alpha0 + sum a_i e_{t-i}^2`` with zero presample shocks."""
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be > 0, got {alpha0}")
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    if np.any(a < 0):
        raise ValueError("ARCH coefficients must be nonnegative")
    e = np.asarray(residuals, dtype=float)
    n = e.size
    h = np.full(n, float(alpha0))
    sq = e * e
    for k in range(1, a.size + 1):
        if k <= n:
            h[k:] += a[k - 1] * sq[: n - k]
    return h


def garch_variance(params: GarchParams, residuals, presample_h: float) -> np.ndarray:
    """GARCH(p, q) variances with zero presample shocks and ``presample_h`` backcast."""
    e = np.asarray(residuals, dtype=float)
    n = e.size
    sq = e * e
    qn = params.alphas.size
    pn = params.betas.size
    h = np.empty(n)
    for t in range(n):
        val = params.alpha0
        for i in range(1, qn + 1):
            if t - i >= 0:
                val += params.alphas[i - 1] * sq[t - i]
        for j in range(1, pn + 1):
            val += params.betas[j - 1] * (h[t - j] if t - j >= 0 else presample_h)
        h[t] = val
    return h


def egarch_shock_response(params: EgarchParams, x: float) -> float:
    """EGARCH news term ``omega*x + lam*(|x| - E|z|)`` with Gaussian ``E|z|``."""
    return params.omega * x + params.lam * (abs(x) - MEAN_ABS_STANDARD_NORMAL)


def egarch_log_variance(
    params: EgarchParams, standardized_shocks, presample_logh: float
) -> np.ndarray:
    """Log-variance recursion ``log h_t = g0 + g1 log h_{t-1} + g(z_{t-1})``.

    The presample news term is replaced by its expectation (zero for
    standard-normal shocks), so the first output depends only on
    ``presample_logh``.  Variances are recovered by exponentiation and are
    therefore positive by construction.
    """
    z = np.asarray(standardized_shocks, dtype=float)
    out = np.empty(z.size)
    prev = float(presample_logh)
    for t in range(z.size):
        news = egarch_shock_response(params, z[t - 1]) if t > 0 else 0.0
        prev = params.gamma0 + params.gamma1 * prev + news
        out[t] = prev
    return out


@dataclass(frozen=True)
class CannedSpec:
    """A published threshold-AR fit, coefficients kept digit-for-digit.

    ``noise_sd`` holds the per-regime innovation standard deviations when the
    source prints them; the variance structure is otherwise unspecified.
    """

    name: str
    partition: ThresholdPartition
    tar: TarParams
    noise_sd: tuple[float, ...] | None
    source: str

    def model_spec(self, alpha0: float | None = None) -> ModelSpec:
        """Embed the mean fit in a homoskedastic ModelSpec (q=1, zero loadings).

        The asymmetric-ARCH variance cannot express per-regime noise scales,
        so ``alpha0`` defaults to the first regime's printed variance.
        """
        if alpha0 is None:
            alpha0 = self.noise_sd[0] ** 2 if self.noise_sd else 1.0
        return ModelSpec(
            p=self.tar.p,
            q=1,
            partition=self.partition,
            tar=self.tar,
            aarch=AarchParams(alpha0=alpha0, alphas=np.zeros(1), betas=np.zeros(1)),
        )


def canned_specs() -> list[CannedSpec]:
    """The classic two-regime lynx and sunspot threshold-AR fits."""
    lynx = CannedSpec(
        name="lynx",
        partition=ThresholdPartition(regimes=2, delay=2, thresholds=np.array([3.25])),
        tar=TarParams(
            np.array(
                [
                    [0.62, 1.25, -0.43],
                    [2.25, 1.52, -1.24],
                ]
            )
        ),
        noise_sd=(0.2, 0.25),
        source="tong1983-lynx",
    )
    low = [1.9191, 0.8416, 0.0728, -0.3153, 0.1479, -1.985, -0.0005, 0.1875,
           -0.2701, 0.2116, 0.0091, 0.0873]
    high = [4.2746, 1.4431, -0.8408, 0.0554] + [0.0] * 8
    sunspot = CannedSpec(
        name="sunspot",
        partition=ThresholdPartition(
            regimes=2, delay=8, thresholds=np.array([11.9824])
        ),
        tar=TarParams(np.array([low, high])),
        noise_sd=None,
        source="tong1983-sunspot",
    )
    return [lynx, sunspot]


def canned_model_spec(name: str, alpha0: float | None = None) -> ModelSpec:
    """Look up a canned fixture by name and embed it as a simulatable spec."""
    for canned in canned_specs():
        if canned.name == name:
            return canned.model_spec(alpha0=alpha0)
    names = ", ".join(c.name for c in canned_specs())
    raise KeyError(f"unknown canned spec {name!r}; available: {names}")


def black_scholes_price(
    spot: float, strike: float, rate: float, sigma: float, tau: float
) -> float:
    """European call price under constant volatility.

    Parameters
    ----------
    spot : float
        Current underlying price, > 0.
    strike : float
        Exercise price, >= 0; a zero strike makes the call worth the asset.
    rate : float
        Continuously compounded short rate.
    sigma : float
        Volatility, > 0.
    tau : float
        Time to expiry, > 0.
    """
    if not (np.isfinite(spot) and spot > 0):
        raise ValueError(f"spot must be > 0, got {spot}")
    if not (np.isfinite(strike) and strike >= 0):
        raise ValueError(f"strike must be >= 0, got {strike}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be > 0, got {tau}")
    if not np.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")
    if strike == 0.0:
        return float(spot)
    from scipy.special import ndtr
    sig_sqrt = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / sig_sqrt
    d2 = d1 - sig_sqrt
    return float(spot * ndtr(d1) - strike * math.exp(-rate * tau) * ndtr(d2))


def _natural(u: np.ndarray, ntheta: int):
    """``(theta, alpha0, a)`` at the full QMLE's coordinates ``u = (theta,
    log alpha0, log a)``."""
    return u[:ntheta], np.exp(np.minimum(u[ntheta], 700.0)), np.exp(
        np.minimum(u[ntheta + 1 :], 350.0)
    )


def _symmetric_variance(ctx: _FitContext, ph: float, theta, alpha0, alphas):
    """On the residual window: the residuals, the squared-lag rows ``E_k``
    (``ph`` before the sample) and the variances ``alpha0 + sum_k a_k^2 E_k``."""
    e = ctx.residuals(theta)
    nr = ctx.nr
    lag_sq = np.full((ctx.q, nr), ph)
    for k in range(ctx.q):
        m = min(k + 1, nr)
        lag_sq[k, m:] = e[: nr - m] ** 2
    return e, lag_sq, alpha0 + np.einsum("k,kt->t", alphas * alphas, lag_sq)


def _variance_weights(ctx: _FitContext, r, hq, alphas):
    """``w1`` and ``b`` on the residual window, from ``r = e^2/h`` and ``h`` on
    the likelihood window: ``w1 = (r - 1)/(2h)``, the qll's derivative in
    ``h_t``, zero before the likelihood window; and ``b_s = 1{s >= o}/h_s - 2
    sum_k a_k^2 w1_{s+k}``, so that ``-e_s b_s`` is the qll's derivative in
    ``e_s``, through its own term and through the variance ``k`` steps later."""
    o, nr = ctx.o, ctx.nr
    w1 = np.zeros(nr)
    w1[o:] = 0.5 * (r - 1.0) / hq
    b = np.zeros(nr)
    b[o:] = 1.0 / hq
    for k in range(ctx.q):
        m = min(k + 1, nr)
        b[: nr - m] -= 2.0 * alphas[k] ** 2 * w1[m:]
    return w1, b


def _full_qmle_objective(u: np.ndarray, ctx: _FitContext, ph: float):
    """The full QMLE's objective, the mean negative qll with the presample
    variance frozen at ``ph``, and its gradient in ``u = (theta, log alpha0,
    log a)``; ``(1e100, 0)`` where the qll is not finite.

    The theta entries are one product ``zexp_t @ (e b)`` on the regime design
    (:func:`_variance_weights`); the alpha0 and ``a_k`` entries are ``sum w1``
    and ``2 a_k sum w1 E_k``, each times its log transform's factor.
    """
    theta, alpha0, alphas = _natural(u, ctx.ntheta)
    e, lag_sq, h = _symmetric_variance(ctx, ph, theta, alpha0, alphas)
    eq, hq = e[ctx.o :], h[ctx.o :]
    r = eq * eq / hq
    f = 0.5 * float(np.sum(np.log(hq) + r)) / ctx.nq
    if not np.isfinite(f):
        return 1e100, np.zeros_like(u)
    w1, b = _variance_weights(ctx, r, hq, alphas)
    g = np.empty(u.size)
    g[: ctx.ntheta] = np.einsum("it,t->i", ctx.zexp_t, e * b)
    g[ctx.ntheta] = alpha0 * w1.sum()
    g[ctx.ntheta + 1 :] = 2.0 * alphas * alphas * np.einsum("kt,t->k", lag_sq, w1)
    return f, g / -ctx.nq


def tar_arch_full_qmle(
    series,
    partition: ThresholdPartition,
    p: int,
    q: int,
) -> FitReport:
    """Jointly maximize the Gaussian quasi-likelihood of the symmetric model.

    The variance recursion here is ``alpha0 + sum a_k^2 e_{t-k}^2`` (the
    asymmetric loadings are identically zero), so the likelihood is smooth in
    all parameters and L-BFGS-B applies.  Positivity of ``alpha0`` and of the
    loadings is enforced by log transforms.  A lag before the sample holds
    the variance ``ph`` of the warm-start residuals (the start's ``alpha0``
    of :func:`~taraarch.estimation._initial_values`), frozen there: a live
    ``var(e)`` would make every variance depend on every residual.  The
    optimizer starts at that least-squares fit, ``alpha0 = 0.7 ph`` and
    ``a_k = sqrt(0.3 / q)``.

    Each evaluation of :func:`_full_qmle_objective` makes the residuals and
    the variances, and its gradient from them through one product on the
    regime design, with no per-observation derivative rows.  Inference
    builds the rows of ``dh/d(theta, alpha0, a)`` once, at the optimum: the
    per-observation scores, the OPG information and the Hessian of the mean
    qll are analytic in them.  ``trace`` holds the qll at each iterate as the
    optimizer itself evaluated it, with the frozen presample; ``qll`` is the
    fitted model's, with ``var(e)`` of its residuals there.

    Returns a :class:`FitReport` whose ``betas`` are exactly zero; raises
    :class:`ConvergenceError` carrying the best iterate on failure, and
    :class:`~taraarch.estimation.EstimationError` if it stops at a non-finite
    point or at ``alpha0 = 0``, or if the Hessian there is singular.
    """
    import scipy.optimize  # here, so that only this fit pays for loading it

    ctx = _FitContext(series, partition, p, q)
    l = partition.regimes
    ntheta = ctx.ntheta
    o, nq, nr = ctx.o, ctx.nq, ctx.nr
    zexp = ctx.zexp_t
    kdim = ntheta + 1 + q

    tar0, aarch0 = _initial_values(ctx)
    ph = aarch0.alpha0
    a0 = max(0.7 * ph, 1e-8)
    ak = np.full(q, math.sqrt(0.3 / q))
    u0 = np.concatenate([tar0.coefficients.ravel(), [math.log(a0)], np.log(ak)])

    trace: list[float] = []

    def callback(intermediate_result):
        trace.append(-intermediate_result.fun * nq)

    res = scipy.optimize.minimize(
        _full_qmle_objective,
        u0,
        args=(ctx, ph),
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": MAX_FULL_QMLE_ITER, "ftol": 1e-14, "gtol": 1e-9},
    )
    theta, alpha0, alphas = _natural(res.x, ntheta)
    if not (np.all(np.isfinite(res.x)) and alpha0 > 0.0):  # exp may underflow
        raise EstimationError(f"full QMLE stopped at alpha0 = {alpha0} ({res.message})")
    tar = TarParams(theta.reshape(l, p + 1))
    spec = ModelSpec(
        p=p,
        q=q,
        partition=partition,
        tar=tar,
        aarch=AarchParams(alpha0=alpha0, alphas=alphas, betas=np.zeros(q)),
    )

    # Inference in natural coordinates: the dh rows, and from them the
    # per-observation scores w1 dh + (e/h) z, their OPG information, and the
    # analytic Hessian of the mean qll,
    #   -zz'/h + (e/h^2)(e_phi dh' + dh e_phi') + (1/2 - e^2/h)/h^2 dh dh'
    #   + w1 d2h,
    # with e_phi = -z in the theta rows, d2h/dtheta2 = sum_k 2 a_k^2 z z' and
    # d2h/dtheta da_k = -4 a_k e z at lag k, and d2h/da_k^2 = 2 E_k.  The
    # theta block's -zz'/h + w1 d2h/dtheta2 is -z diag(b) z'.
    e, lag_sq, h = _symmetric_variance(ctx, ph, theta, alpha0, alphas)
    eq, hq, zq = e[o:], h[o:], zexp[:, o:]
    r = eq * eq / hq
    w1, b = _variance_weights(ctx, r, hq, alphas)
    dh = np.zeros((kdim, nr))
    for k in range(q):
        m = min(k + 1, nr)
        dh[:ntheta, m:] -= 2.0 * alphas[k] ** 2 * e[: nr - m] * zexp[:, : nr - m]
    dh[ntheta] = 1.0
    dh[ntheta + 1 :] = 2.0 * alphas[:, None] * lag_sq
    dhq = dh[:, o:]
    s = w1[o:] * dhq
    s[:ntheta] += zq * (eq / hq)
    info = np.einsum("it,jt->ij", s, s) / nq
    hh = hq * hq
    hess = np.einsum("it,jt->ij", dhq * ((0.5 - r) / hh), dhq)
    cross = np.einsum("it,jt->ij", zq * (eq / hh), dhq)
    hess[:ntheta] -= cross
    hess[:, :ntheta] -= cross.T
    hess[:ntheta, :ntheta] -= np.einsum("it,jt->ij", zexp * b, zexp)
    for k in range(q):
        m, a = min(k + 1, nr), ntheta + 1 + k
        col = -4.0 * alphas[k] * np.einsum(
            "it,t->i", zexp[:, : nr - m], e[: nr - m] * w1[m:]
        )
        hess[:ntheta, a] += col
        hess[a, :ntheta] += col
        hess[a, a] += 2.0 * float(np.einsum("t,t->", lag_sq[k], w1))
    hess /= nq

    info, sandwich = _sandwich(info, hess, nq)
    # the beta coordinates, identically zero here, get NaN inference
    converged = bool(res.success) or float(np.max(np.abs(res.jac))) < 1e-6
    report = FitReport(
        spec=spec,
        info_matrix=np.pad(info, (0, q), constant_values=np.nan),
        sandwich_cov=np.pad(sandwich, (0, q), constant_values=np.nan),
        qll=ctx.qll_sum(tar, spec.aarch),
        iterations=int(res.nit),
        converged=converged,
        trace=tuple(trace),
    )
    if not converged:
        raise ConvergenceError(
            f"full QMLE did not converge in {MAX_FULL_QMLE_ITER} iterations ({res.message})",
            result=report,
        )
    return report

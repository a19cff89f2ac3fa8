"""Concentrated quasi-maximum-likelihood estimation for the TAR-AARCH model.

The Gaussian quasi-likelihood cannot be maximized jointly by gradient methods
because the variance recursion depends on absolute residuals, so its
derivative with respect to the mean parameters has kinks.  Estimation
therefore alternates two concentrated steps:

* the mean step solves the weighted per-regime least-squares system obtained
  by treating the conditional variances as fixed weights, refreshing the
  weights between passes (IRLS);
* the variance step maximizes the quasi-likelihood over the variance
  parameters with the residuals held fixed, which is a smooth problem.

Standard errors come from a sandwich estimate built on the two families of
estimating functions, with the cross blocks of the Jacobian obtained by
finite differences.

Every product that sums over the time axis goes through ``np.einsum``, whose
own loops never call BLAS.  OpenBLAS hands ``gemv`` to its thread pool once
``m * n >= 9216`` and ``ddot`` once ``n > 10000``, so with ``@`` these sums
cross into threaded BLAS near n = 10**4, where waking the threads costs far
more than the arithmetic.  The designs and score matrices that enter these
sums are stored time-contiguous, one row per parameter: einsum's loops are
fast only when the summed axis is contiguous.  Small k-by-k algebra stays
with ``@`` and LAPACK.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    param_vector,
    regime_indices,
    series_values,
    variance_path,
    _lag_design,
)

__all__ = [
    "EstimationError",
    "ConvergenceError",
    "FitReport",
    "SearchGrid",
    "SearchOutcome",
    "gaussian_qll",
    "theta_step",
    "alpha_step",
    "fit_alternating",
    "alpha_score",
    "concentrated_equation_residuals",
    "estimate_information",
    "threshold_delay_search",
]

THETA_TOL = 1e-10
OUTER_REL_TOL = 1e-9
MAX_OUTER = 200
GRAD_TOL = 1e-6
KINK_EPS = 1e-8
FD_STEP = 1e-5


class EstimationError(RuntimeError):
    """A fit cannot proceed (empty regime, singular design, singular information)."""


class ConvergenceError(RuntimeError):
    """An optimizer failed to converge; carries the best iterate found."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class FitReport:
    """Estimates plus inference products from one fit.

    ``qll`` is the final quasi-log-likelihood (sum form, constant dropped),
    ``trace`` holds the objective after each outer alternation, and
    ``info_matrix`` is the outer-product-of-scores information estimate whose
    sandwich combination with the estimating-function Jacobian gives
    ``std_errors``.
    """

    spec: ModelSpec
    std_errors: np.ndarray
    info_matrix: np.ndarray
    sandwich_cov: np.ndarray
    qll: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "params": self.spec.to_dict(),
            "std_errors": np.asarray(self.std_errors, dtype=float).tolist(),
            "info_matrix": np.asarray(self.info_matrix, dtype=float).tolist(),
            "sandwich_cov": np.asarray(self.sandwich_cov, dtype=float).tolist(),
            "qll": self.qll,
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": list(self.trace),
            "partition": {
                "delay": self.spec.partition.delay,
                "thresholds": self.spec.partition.thresholds.tolist(),
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        spec = ModelSpec.from_dict(d["params"])
        if "sandwich_cov" in d:
            sand = np.asarray(d["sandwich_cov"], dtype=float)
        else:
            # Documents written before the covariance was persisted.
            k = param_vector(spec).size
            sand = np.full((k, k), np.nan)
        return cls(
            spec=spec,
            std_errors=np.asarray(d["std_errors"], dtype=float),
            info_matrix=np.asarray(d["info_matrix"], dtype=float),
            sandwich_cov=sand,
            qll=float(d["qll"]),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            trace=tuple(float(v) for v in d["trace"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        return cls.from_dict(json.loads(text))


class _FitContext:
    """Precomputed design pieces shared by all steps of a fit.

    The residual window runs from ``max(p, d)``; the likelihood window drops
    a further ``max(p, q, d) - max(p, d)`` observations so that every
    likelihood term has its full history, matching the convention of
    conditioning on the first ``max(p, q, d)`` observations.
    """

    def __init__(self, x: np.ndarray, partition: ThresholdPartition, p: int, q: int):
        n = x.size
        d = partition.delay
        self.p, self.q, self.partition = p, q, partition
        self.mpd = max(p, d)
        self.m = max(p, q, d)
        if n <= self.m:
            raise ValueError(
                f"series length {n} too short; need more than max(p, q, d) = {self.m}"
            )
        self.o = self.m - self.mpd
        self.nr = n - self.mpd
        self.nq = n - self.m
        self.x = x
        self.y_r = x[self.mpd :]
        self.Zr = _lag_design(x, p, self.mpd)
        self.labels_r = regime_indices(partition, x[self.mpd - d : n - d]) - 1
        self.y_q = self.y_r[self.o :]
        self.labels_q = self.labels_r[self.o :]
        l = partition.regimes
        self.regime_rows = [np.flatnonzero(self.labels_q == j) for j in range(l)]
        # Designs on the likelihood window are stored time-contiguous, one row
        # per regressor, so that np.einsum's time-axis sums read contiguous
        # memory.
        zq_t = self.Zr[self.o :].T
        self.regime_z = [np.ascontiguousarray(zq_t[:, rows]) for rows in self.regime_rows]
        self.regime_y = [self.y_q[rows] for rows in self.regime_rows]
        self.ntheta = l * (p + 1)
        self._zexp = None

    @property
    def zexp_t(self) -> np.ndarray:
        """Design expanded to the full theta dimension, zero outside the active
        regime, with shape ``(ntheta, nq)``."""
        if self._zexp is None:
            z = np.zeros((self.ntheta, self.nq))
            w = self.p + 1
            for j, rows in enumerate(self.regime_rows):
                z[j * w : (j + 1) * w, rows] = self.regime_z[j]
            self._zexp = z
        return self._zexp

    def residuals(self, tar: TarParams) -> np.ndarray:
        means = np.einsum("ij,ij->i", self.Zr, tar.coefficients[self.labels_r])
        return self.y_r - means

    def variance(self, aarch: AarchParams, e: np.ndarray) -> tuple[np.ndarray, float]:
        ph = float(e.var())
        return variance_path(aarch, e, ph), ph

    def qll_sum(self, tar: TarParams, aarch: AarchParams) -> float:
        e = self.residuals(tar)
        h, _ = self.variance(aarch, e)
        eq, hq = e[self.o :], h[self.o :]
        val = -0.5 * float(np.sum(np.log(hq) + eq * eq / hq))
        if not np.isfinite(val):
            raise ValueError("quasi-log-likelihood is non-finite at these parameters")
        return val


def _context(series, partition: ThresholdPartition, p: int, q: int) -> _FitContext:
    return _FitContext(series_values(series), partition, p, q)


def gaussian_qll(spec: ModelSpec, series, conditioning: int | None = None) -> float:
    """Gaussian quasi-log-likelihood ``-0.5 * sum(log h_t + e_t^2 / h_t)``.

    The sum runs over ``t = max(p, q, d) .. n-1`` (additive constant
    dropped).  ``conditioning`` widens the conditioning window so that fits
    with different delays can be scored over a common set of terms.
    """
    ctx = _context(series, spec.partition, spec.p, spec.q)
    if conditioning is None:
        return ctx.qll_sum(spec.tar, spec.aarch)
    if conditioning < ctx.m:
        raise ValueError(
            f"conditioning must be >= max(p, q, d) = {ctx.m}, got {conditioning}"
        )
    e = ctx.residuals(spec.tar)
    h, _ = ctx.variance(spec.aarch, e)
    start = conditioning - ctx.mpd
    eq, hq = e[start:], h[start:]
    val = -0.5 * float(np.sum(np.log(hq) + eq * eq / hq))
    if not np.isfinite(val):
        raise ValueError("quasi-log-likelihood is non-finite at these parameters")
    return val


def _theta_step(
    ctx: _FitContext,
    aarch: AarchParams,
    theta_init: TarParams,
    tol: float = THETA_TOL,
    max_iter: int = 100,
) -> TarParams:
    p = ctx.p
    coeffs = np.array(theta_init.coefficients)
    for j, rows in enumerate(ctx.regime_rows):
        if rows.size == 0:
            raise EstimationError(f"regime {j + 1} is empty on the fitting window")
        if rows.size < p + 1:
            raise EstimationError(
                f"regime {j + 1} has {rows.size} observations; need at least {p + 1}"
            )
    for _ in range(max_iter):
        e = ctx.residuals(TarParams(coeffs))
        h, _ = ctx.variance(aarch, e)
        w = 1.0 / h[ctx.o :]
        new = np.empty_like(coeffs)
        for j, rows in enumerate(ctx.regime_rows):
            zj = ctx.regime_z[j]
            wj = w[rows]
            gram = np.einsum("it,jt->ij", zj, zj * wj)
            rhs = np.einsum("it,t->i", zj, ctx.regime_y[j] * wj)
            try:
                new[j] = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                raise EstimationError(
                    f"singular design matrix in regime {j + 1}"
                ) from None
        if not np.all(np.isfinite(new)):
            raise EstimationError("mean step produced non-finite coefficients")
        delta = float(np.max(np.abs(new - coeffs)))
        coeffs = new
        if delta < tol:
            break
    return TarParams(coeffs)


def theta_step(series, partition, aarch, theta_init, tol: float = THETA_TOL) -> TarParams:
    """Solve the concentrated mean equations by iteratively reweighted least squares.

    The conditional variances act as fixed weights inside each pass and are
    refreshed from the updated residuals between passes, until the maximum
    coefficient change falls below ``tol``.
    """
    ctx = _context(series, partition, theta_init.p, aarch.q)
    return _theta_step(ctx, aarch, theta_init, tol=tol)


def _alpha_parts(e: np.ndarray, q: int):
    """Lagged-residual matrices for the variance gradient, with presample rows.

    ``miss[t, k - 1]`` is 1 where lag ``k`` of observation ``t`` falls before
    the sample; only the first ``min(q, n)`` rows can hold a 1, so ``miss``
    keeps just those rows and its products act on that leading slice.
    """
    nr = e.size
    vlag = np.zeros((nr, q))
    miss = np.zeros((min(q, nr), q))
    for k in range(1, q + 1):
        if k <= nr:
            vlag[k:, k - 1] = e[: nr - k]
        miss[: min(k, nr), k - 1] = 1.0
    return vlag, np.abs(vlag), miss


def _canonical_loadings(aarch: AarchParams) -> AarchParams:
    """Map each loading pair to its canonical representative ``a_k >= |b_k|``.

    The lag term ``(a|e| + b e)**2`` is invariant under swapping ``(a, b)``
    (and under joint sign flips), so the likelihood has mirror-image optima;
    estimates are reported from the cone where the absolute-value loading
    dominates.
    """
    a = np.array(aarch.alphas)
    b = np.array(aarch.betas)
    swap = a < np.abs(b)
    if not np.any(swap):
        return aarch
    a_new = np.where(swap, np.abs(b), a)
    b_new = np.where(swap, np.sign(b) * a, b)
    return AarchParams(alpha0=aarch.alpha0, alphas=a_new, betas=b_new)


def _alpha_pack(aarch: AarchParams) -> np.ndarray:
    return np.concatenate([[np.log(max(aarch.alpha0, 1e-12))], aarch.alphas, aarch.betas])


def _alpha_unpack(u: np.ndarray, q: int) -> AarchParams:
    return AarchParams(alpha0=float(np.exp(u[0])), alphas=u[1 : 1 + q], betas=u[1 + q :])


def _variance_objective(e: np.ndarray, q: int, o: int):
    """The variance step's objective in ``u = (log alpha0, alphas, betas)``.

    Returns a function of ``u`` giving ``-qll / n_window`` and its gradient,
    with the residuals ``e`` held fixed and the likelihood window starting
    at offset ``o``.
    """
    ph = float(e.var())
    vlag, alag, miss = _alpha_parts(e, q)
    mq = miss.shape[0]
    sq = e * e
    inv_nq = 1.0 / (e.size - o)

    def objective(u):
        alpha0 = np.exp(min(u[0], 700.0))
        a, b = u[1 : 1 + q], u[1 + q :]
        core = alag * a + vlag * b
        h = alpha0 + np.einsum("ij,ij->i", core, core)
        h[:mq] += (miss @ (a * a + b * b)) * ph
        hq = h[o:]
        f = 0.5 * np.sum(np.log(hq) + sq[o:] / hq) * inv_nq
        if not np.isfinite(f):
            return 1e100, np.zeros_like(u)
        # d(-qll)/dh per observation, zero outside the likelihood window
        gh = np.zeros(e.size)
        gh[o:] = 0.5 * (1.0 / hq - sq[o:] / (hq * hq)) * inv_nq
        g = np.empty_like(u)
        g[0] = gh.sum() * alpha0
        gmiss = gh[:mq] @ miss
        g[1 : 1 + q] = 2.0 * np.einsum("t,tk->k", gh, core * alag) + 2.0 * a * ph * gmiss
        g[1 + q :] = 2.0 * np.einsum("t,tk->k", gh, core * vlag) + 2.0 * b * ph * gmiss
        return f, g

    return objective


def _alpha_step(
    ctx: _FitContext,
    tar: TarParams,
    aarch_init: AarchParams,
    fit_lags: bool = True,
) -> AarchParams:
    q = ctx.q
    e = ctx.residuals(tar)
    if not fit_lags:
        # With the lag loadings pinned at zero the maximizer is closed form.
        eq = e[ctx.o :]
        return AarchParams(
            alpha0=float(np.mean(eq * eq)), alphas=np.zeros(q), betas=np.zeros(q)
        )
    objective = _variance_objective(e, q, ctx.o)

    # (a_k, b_k) = (0, 0) is an exact critical point of h in the squared
    # loadings, so a zero pair would leave the optimizer stuck; nudge it.
    init_alphas = np.array(aarch_init.alphas)
    dead = (init_alphas == 0.0) & (aarch_init.betas == 0.0)
    init_alphas[dead] = 0.2 / np.sqrt(q)
    u0 = _alpha_pack(
        AarchParams(aarch_init.alpha0, init_alphas, np.array(aarch_init.betas))
    )
    bounds = [(None, None)] + [(0.0, None)] * q + [(None, None)] * q
    res = scipy.optimize.minimize(
        objective,
        u0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
    )
    _, g = objective(res.x)
    proj = g.copy()
    at_bound = (res.x[1 : 1 + q] <= 0.0) & (g[1 : 1 + q] > 0.0)
    proj[1 : 1 + q][at_bound] = 0.0
    best = _canonical_loadings(_alpha_unpack(res.x, q))
    if float(np.max(np.abs(proj))) > GRAD_TOL:
        raise ConvergenceError(
            f"variance step did not converge: projected gradient norm "
            f"{float(np.max(np.abs(proj))):.3g} (status: {res.message})",
            result=best,
        )
    return best


def alpha_step(series, partition, tar, aarch_init, fit_lags: bool = True) -> AarchParams:
    """Maximize the quasi-likelihood over the variance parameters.

    The residuals implied by ``tar`` are held fixed, which makes the problem
    smooth; positivity of ``alpha0`` is enforced by a log transform.  Each
    lag term is invariant under sign flips and swaps of its loading pair, so
    estimates are reported in the canonical cone ``alphas >= |betas| >= 0``.
    With ``fit_lags=False`` only ``alpha0`` is estimated and the lag loadings
    stay at zero.
    """
    ctx = _context(series, partition, tar.p, aarch_init.q)
    return _alpha_step(ctx, tar, aarch_init, fit_lags=fit_lags)


def alpha_score(spec: ModelSpec, series) -> np.ndarray:
    """Analytic gradient of :func:`gaussian_qll` in ``(alpha0, alphas, betas)``.

    The residuals are fixed by the model's mean parameters, so this is the
    exact derivative of the quasi-log-likelihood sum in natural coordinates.
    """
    ctx = _context(series, spec.partition, spec.p, spec.q)
    e = ctx.residuals(spec.tar)
    ph = float(e.var())
    q = spec.q
    vlag, alag, miss = _alpha_parts(e, q)
    mq = miss.shape[0]
    a, b = spec.aarch.alphas, spec.aarch.betas
    core = alag * a + vlag * b
    h = spec.aarch.alpha0 + np.einsum("ij,ij->i", core, core)
    h[:mq] += (miss @ (a * a + b * b)) * ph
    gh = np.zeros(e.size)
    hq = h[ctx.o :]
    eq = e[ctx.o :]
    gh[ctx.o :] = 0.5 * (eq * eq / (hq * hq) - 1.0 / hq)
    grad = np.empty(1 + 2 * q)
    grad[0] = gh.sum()
    gmiss = gh[:mq] @ miss
    grad[1 : 1 + q] = 2.0 * np.einsum("t,tk->k", gh, core * alag) + 2.0 * a * ph * gmiss
    grad[1 + q :] = 2.0 * np.einsum("t,tk->k", gh, core * vlag) + 2.0 * b * ph * gmiss
    return grad


def concentrated_equation_residuals(spec: ModelSpec, series) -> np.ndarray:
    """Per-observation mean of the concentrated estimating functions.

    Returns the stacked values of ``mean_t[(e_t / h_t) * z_t * 1(regime j)]``
    over intercept and lag regressors for every regime; all entries vanish at
    the mean step's fixed point.
    """
    ctx = _context(series, spec.partition, spec.p, spec.q)
    e = ctx.residuals(spec.tar)
    h, _ = ctx.variance(spec.aarch, e)
    ratio = e[ctx.o :] / h[ctx.o :]
    return np.einsum("it,t->i", ctx.zexp_t, ratio) / ctx.nq


def _initial_values(ctx: _FitContext) -> tuple[TarParams, AarchParams]:
    q = ctx.q
    flat = AarchParams(alpha0=1.0, alphas=np.zeros(q), betas=np.zeros(q))
    zero = TarParams(np.zeros((ctx.partition.regimes, ctx.p + 1)))
    tar = _theta_step(ctx, flat, zero, max_iter=2)
    e = ctx.residuals(tar)
    return tar, AarchParams(
        alpha0=max(float(e.var()), 1e-12), alphas=np.zeros(q), betas=np.zeros(q)
    )


def fit_alternating(
    series,
    partition: ThresholdPartition,
    p: int,
    q: int,
    init: ModelSpec | None = None,
    max_outer: int = MAX_OUTER,
    rel_tol: float = OUTER_REL_TOL,
    compute_se: bool = True,
) -> FitReport:
    """Two-step concentrated QML fit with a fixed threshold partition.

    Alternates the mean step and the variance step until the relative change
    in the quasi-log-likelihood falls below ``rel_tol``, then runs one final
    mean step so the concentrated equations hold at the returned parameter
    pair.  Raises :class:`ConvergenceError` (carrying the best iterate in
    ``result``) if ``max_outer`` alternations do not converge.
    """
    ctx = _context(series, partition, p, q)
    if init is not None:
        tar, aarch = init.tar, init.aarch
    else:
        tar, aarch = _initial_values(ctx)

    trace: list[float] = []
    qll_prev = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_outer + 1):
        tar = _theta_step(ctx, aarch, tar)
        aarch = _alpha_step(ctx, tar, aarch)
        qll = ctx.qll_sum(tar, aarch)
        trace.append(qll)
        if abs(qll - qll_prev) <= rel_tol * (1.0 + abs(qll)):
            converged = True
            break
        qll_prev = qll

    tar = _theta_step(ctx, aarch, tar)
    qll = ctx.qll_sum(tar, aarch)
    spec = ModelSpec(p=p, q=q, partition=partition, tar=tar, aarch=aarch)

    k = ctx.ntheta + 1 + 2 * q
    if compute_se and converged:
        info, sandwich = _estimate_information(ctx, spec)
        std = np.sqrt(np.maximum(np.diag(sandwich), 0.0))
    else:
        info = np.full((k, k), np.nan)
        sandwich = np.full((k, k), np.nan)
        std = np.full(k, np.nan)

    report = FitReport(
        spec=spec,
        std_errors=std,
        info_matrix=info,
        sandwich_cov=sandwich,
        qll=qll,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
    if not converged:
        raise ConvergenceError(
            f"alternating fit did not converge in {max_outer} iterations "
            f"(last relative change {abs(qll - qll_prev) / (1.0 + abs(qll)):.3g})",
            result=report,
        )
    return report


def _alpha_grad_rows(e, h, ph, aarch: AarchParams, o: int):
    """Variance-parameter derivatives of h on the residual window, one row per
    parameter (shape ``(1 + 2q, n)``)."""
    q = aarch.q
    vlag, alag, miss = _alpha_parts(e, q)
    mq = miss.shape[0]
    a, b = aarch.alphas, aarch.betas
    core = alag * a + vlag * b
    dh = np.empty((1 + 2 * q, e.size))
    dh[0] = 1.0
    dh[1 : 1 + q] = (2.0 * core * alag).T
    dh[1 + q :] = (2.0 * core * vlag).T
    dh[1 : 1 + q, :mq] += (2.0 * a * miss * ph).T
    dh[1 + q :, :mq] += (2.0 * b * miss * ph).T
    return dh, vlag, alag, miss, core


def _estimate_information(ctx: _FitContext, spec: ModelSpec):
    q, o, nq = spec.q, ctx.o, ctx.nq
    aarch, tar = spec.aarch, spec.tar
    e = ctx.residuals(tar)
    h, ph = ctx.variance(aarch, e)
    eq, hq = e[o:], h[o:]
    keep = np.abs(eq) >= KINK_EPS

    dh, vlag, alag, miss, core = _alpha_grad_rows(e, h, ph, aarch, o)
    w1 = 0.5 * (eq * eq / hq - 1.0) / hq

    ntheta = ctx.ntheta
    ka = 1 + 2 * q
    k = ntheta + ka
    zexp = ctx.zexp_t

    # Outer product of the estimating-function scores, one row per parameter.
    scores = np.empty((k, nq))
    scores[:ntheta] = zexp * (eq / hq)
    scores[ntheta:] = w1 * dh[:, o:]
    info = np.einsum("it,jt->ij", scores, scores) / nq

    hess = np.zeros((k, k))
    # Mean block: variances treated as fixed weights, as in the mean step.
    hess[:ntheta, :ntheta] = -np.einsum("it,jt->ij", zexp * (1.0 / hq), zexp) / nq

    # Variance block: analytic Jacobian of the variance-step score.
    dw1 = (-eq * eq / hq + 0.5) / (hq * hq)
    dha = dh[:, o:]
    haa = np.einsum("it,jt->ij", dha * dw1, dha)
    # Second derivatives of h in each loading pair; the presample term only
    # reaches the likelihood window through miss's rows from o on.
    wmiss = 2.0 * ph * (w1[: miss.shape[0] - o] @ miss[o:])
    paa = 2.0 * np.einsum("t,tk->k", w1, alag[o:] ** 2) + wmiss
    pbb = 2.0 * np.einsum("t,tk->k", w1, vlag[o:] ** 2) + wmiss
    pab = 2.0 * np.einsum("t,tk->k", w1, alag[o:] * vlag[o:])
    diag = np.arange(1, 1 + q)
    haa[diag, diag] += paa
    haa[diag + q, diag + q] += pbb
    haa[diag, diag + q] += pab
    haa[diag + q, diag] += pab
    hess[ntheta:, ntheta:] = haa / nq

    # Cross blocks by central finite differences of the estimating functions;
    # observations with residuals at the |e| kink are excluded from the sums.
    avec = np.concatenate([[aarch.alpha0], aarch.alphas, aarch.betas])

    def g_theta(alpha_vec):
        aa = AarchParams(alpha0=alpha_vec[0], alphas=alpha_vec[1 : 1 + q], betas=alpha_vec[1 + q :])
        hh = variance_path(aa, e, ph)
        return np.einsum("it,t->i", zexp, eq / hh[o:]) / nq

    def g_alpha(theta_flat):
        tt = TarParams(theta_flat.reshape(tar.coefficients.shape))
        ee = ctx.residuals(tt)
        pph = float(ee.var())
        hh = variance_path(aarch, ee, pph)
        dhh, _, _, _, _ = _alpha_grad_rows(ee, hh, pph, aarch, o)
        ww = 0.5 * (ee[o:] ** 2 / hh[o:] - 1.0) / hh[o:]
        ww = np.where(keep, ww, 0.0)
        return np.einsum("it,t->i", dhh[:, o:], ww) / nq

    for c in range(ka):
        step = FD_STEP * (1.0 + abs(avec[c]))
        up, dn = avec.copy(), avec.copy()
        up[c] += step
        dn[c] -= step
        if c == 0:
            dn[0] = max(dn[0], 1e-12)
        hess[:ntheta, ntheta + c] = (g_theta(up) - g_theta(dn)) / (up[c] - dn[c])
    tvec = tar.coefficients.ravel()
    for c in range(ntheta):
        step = FD_STEP * (1.0 + abs(tvec[c]))
        up, dn = tvec.copy(), tvec.copy()
        up[c] += step
        dn[c] -= step
        hess[ntheta:, c] = (g_alpha(up) - g_alpha(dn)) / (2.0 * step)

    try:
        hinv = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        raise EstimationError(
            "estimating-function Jacobian is singular; the model may be "
            "weakly identified on this sample"
        ) from None
    sandwich = hinv @ info @ hinv.T / nq
    sandwich = 0.5 * (sandwich + sandwich.T)
    info = 0.5 * (info + info.T)
    return info, sandwich


def estimate_information(series, spec: ModelSpec):
    """Information and sandwich covariance at a fitted optimum.

    Returns ``(info, sandwich_cov)``: the outer-product-of-scores information
    estimate (symmetric PSD) and the sandwich covariance of the parameter
    estimates, ``Hinv @ info @ Hinv.T / n_window``.
    """
    ctx = _context(series, spec.partition, spec.p, spec.q)
    return _estimate_information(ctx, spec)


@dataclass(frozen=True)
class SearchGrid:
    """Candidate delays and per-boundary threshold values for model search.

    ``threshold_candidates`` holds one sorted candidate array per regime
    boundary; an empty tuple searches only the single-regime model.
    Candidates that would leave any regime with fewer than
    ``min_regime_fraction`` of the scored observations are skipped.
    """

    delay_candidates: tuple[int, ...]
    threshold_candidates: tuple[tuple[float, ...], ...]
    min_regime_fraction: float = 0.1
    include_single_regime: bool = False

    def __post_init__(self):
        delays = tuple(int(d) for d in self.delay_candidates)
        if not delays or any(d < 1 for d in delays):
            raise ValueError("delay_candidates must be non-empty positive integers")
        object.__setattr__(self, "delay_candidates", delays)
        cands = tuple(tuple(float(t) for t in row) for row in self.threshold_candidates)
        object.__setattr__(self, "threshold_candidates", cands)
        if not 0.0 < self.min_regime_fraction < 0.5:
            raise ValueError(
                f"min_regime_fraction must be in (0, 0.5), got {self.min_regime_fraction}"
            )
        if not cands and not self.include_single_regime:
            raise ValueError("grid has no threshold candidates and excludes l=1")

    @classmethod
    def from_series(
        cls,
        series,
        delays,
        boundaries: int = 1,
        lo: float = 0.10,
        hi: float = 0.90,
        step: float = 0.025,
        min_regime_fraction: float = 0.1,
        include_single_regime: bool = False,
    ) -> "SearchGrid":
        """Build threshold candidates from empirical quantiles of the series."""
        x = series_values(series)
        probs = np.arange(lo, hi + 1e-12, step)
        qs = tuple(float(v) for v in np.quantile(x, probs))
        return cls(
            delay_candidates=tuple(delays),
            threshold_candidates=tuple(qs for _ in range(boundaries)),
            min_regime_fraction=min_regime_fraction,
            include_single_regime=include_single_regime,
        )


class SearchOutcome:
    """Result of a threshold/delay search: selected partition, its fit, and
    the per-candidate score table."""

    def __init__(self, partition, report, candidates):
        self.partition = partition
        self.report = report
        self.candidates = candidates

    def __iter__(self):
        return iter((self.partition, self.report))


def _penalized(qll_common: float, k: int, n_common: int) -> float:
    return qll_common - 0.5 * k * np.log(n_common)


def threshold_delay_search(series, p: int, q: int, grid: SearchGrid) -> SearchOutcome:
    """Profile the alternating fit over delay and threshold candidates.

    Every candidate is fitted with the alternating estimator and scored by
    its quasi-log-likelihood over a common conditioning window (so candidates
    with different delays are compared on the same likelihood terms), with a
    ``-(k/2) log n`` penalty that only matters when regime counts differ.
    Ties are broken toward the smaller delay, then the smaller first
    threshold.  The selected candidate's fit (with standard errors) is
    returned together with the full candidate table.
    """
    x = series_values(series)
    m_common = max(p, q, max(grid.delay_candidates))
    n_common = x.size - m_common
    if n_common < 1:
        raise ValueError("series too short for the requested search grid")

    candidates = []
    if grid.include_single_regime:
        candidates.append((1, ()))
    for d in grid.delay_candidates:
        for combo in itertools.product(*grid.threshold_candidates):
            if len(combo) > 1 and any(
                b <= a for a, b in zip(combo[:-1], combo[1:])
            ):
                continue
            candidates.append((d, combo))

    rows = []
    failures = []
    best = None
    for d, combo in candidates:
        partition = ThresholdPartition(
            regimes=len(combo) + 1, delay=d, thresholds=np.asarray(combo)
        )
        if combo:
            labels = regime_indices(partition, x[m_common - d : x.size - d]) - 1
            counts = np.bincount(labels, minlength=partition.regimes)
            if counts.min() < grid.min_regime_fraction * n_common:
                continue
        k = partition.regimes * (p + 1) + 1 + 2 * q
        try:
            report = fit_alternating(x, partition, p, q, compute_se=False)
            spec = report.spec
            qll_common = gaussian_qll(spec, x, conditioning=m_common)
            score = _penalized(qll_common, k, n_common)
            rows.append(
                {
                    "delay": d,
                    "thresholds": list(combo),
                    "qll": report.qll,
                    "qll_common": qll_common,
                    "penalized": score,
                    "k": k,
                    "converged": True,
                }
            )
            key = (-score, d, combo[0] if combo else -np.inf)
            if best is None or key < best[0]:
                best = (key, partition)
        except (EstimationError, ConvergenceError, ValueError) as exc:
            failures.append(f"d={d}, thresholds={list(combo)}: {exc}")
            rows.append(
                {
                    "delay": d,
                    "thresholds": list(combo),
                    "qll": None,
                    "qll_common": None,
                    "penalized": None,
                    "k": k,
                    "converged": False,
                }
            )
    if best is None:
        detail = "; ".join(failures[:5])
        raise EstimationError(
            f"all {len(candidates)} search candidates failed ({detail})"
        )
    partition = best[1]
    report = fit_alternating(x, partition, p, q, compute_se=True)
    for row in rows:
        row["selected"] = (
            row["delay"] == partition.delay
            and list(partition.thresholds) == row["thresholds"]
        )
    return SearchOutcome(partition=partition, report=report, candidates=rows)

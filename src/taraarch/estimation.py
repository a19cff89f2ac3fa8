"""Concentrated quasi-maximum-likelihood estimation for the TAR-AARCH model.

The Gaussian quasi-likelihood cannot be maximized jointly by gradient methods
because the variance recursion depends on absolute residuals, so its
derivative with respect to the mean parameters has kinks.  Estimation
therefore alternates two concentrated passes, one of each per sweep:

* the mean pass solves the weighted per-regime least-squares systems, one
  product on the expanded regime design, with the conditional variances as
  fixed weights (IRLS across sweeps);
* the variance pass solves the quasi-likelihood's equations in the variance
  parameters with the residuals held fixed.  In the news-impact slopes
  ``gamma = (alpha0, (alphas + betas)**2, (alphas - betas)**2)`` the
  variance is linear, ``h = gamma @ X`` (:func:`_slope_design`), so each
  pass is one NNLS solve (Lawson-Hanson, in numpy) of the quasi-likelihood's
  quadratic model under ``gamma >= 0``: a projected Newton or a scoring step.

Standard errors come from a sandwich estimate built on the two families of
estimating functions, with analytic cross blocks of their Jacobian.

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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    regime_indices,
    series_values,
    _lag_design,
    _real,
    _whole,
    _wholes,
)

__all__ = [
    "EstimationError",
    "ConvergenceError",
    "FitReport",
    "SearchGrid",
    "GridRecipe",
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
MAX_THETA_ITER = 100
VARIANCE_TOL = 1e-12
OUTER_REL_TOL = 1e-9
MAX_OUTER = 200
MAX_VARIANCE_ITER = 500


class EstimationError(RuntimeError):
    """A fit failed on its data (empty regime, singular design or information,
    non-finite quasi-likelihood, no convergence); a Monte Carlo non-convergence."""


class ConvergenceError(EstimationError):
    """An optimizer failed to converge; carries the best iterate found."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class FitReport:
    """Estimates plus inference products from one fit.

    ``qll`` is the final quasi-log-likelihood (sum form, constant dropped),
    ``iterations`` counts the concentrated fit's sweeps (or the full QMLE's
    optimizer iterations) and ``trace`` holds the objective after each, and
    ``info_matrix`` is the outer-product-of-scores information estimate whose
    sandwich combination with the estimating-function Jacobian is
    ``sandwich_cov``, from which ``std_errors`` is derived.  ``qll`` puts
    ``var(e)`` of the final residuals in the presample lags.  The full
    QMLE's ``trace`` holds the objective it maximized, whose presample is
    frozen at the start, so it ends near ``qll``, not at it.
    """

    spec: ModelSpec
    info_matrix: np.ndarray
    sandwich_cov: np.ndarray
    qll: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]

    @property
    def std_errors(self) -> np.ndarray:
        """Square roots of the sandwich variances, clipped at zero; NaN where
        the covariance is NaN."""
        return np.sqrt(np.maximum(np.diag(self.sandwich_cov), 0.0))

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        return cls(
            spec=ModelSpec.from_dict(d["params"]),
            info_matrix=np.asarray(d["info_matrix"], dtype=float),
            sandwich_cov=np.asarray(d["sandwich_cov"], dtype=float),
            qll=float(d["qll"]),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            trace=tuple(float(v) for v in d["trace"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        return cls.from_dict(json.loads(text))


def _slope_design(e: np.ndarray, q: int) -> np.ndarray:
    """Design of the conditional variance in slope coordinates.

    With ``gamma = (alpha0, c+_1..q, c-_1..q)`` and ``c±_k = (alpha_k ±
    beta_k)**2``, the lag term ``(alpha_k |e| + beta_k e)**2`` equals
    ``c+_k e**2`` for a positive lag and ``c-_k e**2`` for a negative one, so
    ``h = gamma @ X`` and ``dh/dgamma = X``.  Row ``k`` holds the squared
    positive part of lag ``k``, row ``q + k`` the squared negative part; a
    lag before the sample holds ``ph / 2`` in both, with ``ph = var(e)``,
    which is the presample term ``(alpha_k**2 + beta_k**2) * ph`` of
    :func:`~taraarch.model.variance_path`.  Shape ``(1 + 2q, n)``,
    time-contiguous.
    """
    n = e.size
    half_ph = 0.5 * float(e.var())
    pos = np.maximum(e, 0.0)
    neg = np.minimum(e, 0.0)
    x = np.empty((1 + 2 * q, n))
    x[0] = 1.0
    for k in range(1, q + 1):
        m = min(k, n)
        x[k, m:] = pos[: n - m] ** 2
        x[q + k, m:] = neg[: n - m] ** 2
        x[k, :m] = x[q + k, :m] = half_ph
    return x


def _slopes(aarch: AarchParams) -> np.ndarray:
    """``gamma = (alpha0, (alphas + betas)**2, (alphas - betas)**2)``."""
    a, b = aarch.alphas, aarch.betas
    return np.concatenate([[aarch.alpha0], (a + b) ** 2, (a - b) ** 2])


def _loadings(gamma: np.ndarray, q: int) -> AarchParams:
    """Inverse of :func:`_slopes` into the cone ``alphas >= |betas|``."""
    rp, rm = np.sqrt(gamma[1 : 1 + q]), np.sqrt(gamma[1 + q :])
    return AarchParams(
        alpha0=float(gamma[0]), alphas=0.5 * (rp + rm), betas=0.5 * (rp - rm)
    )


def _loading_jacobian(aarch: AarchParams) -> np.ndarray:
    """``d gamma / d(alpha0, alphas, betas)``, one row per slope."""
    q = aarch.q
    a, b = aarch.alphas, aarch.betas
    jac = np.zeros((1 + 2 * q, 1 + 2 * q))
    jac[0, 0] = 1.0
    i = np.arange(1, 1 + q)
    jac[i, i] = jac[i, i + q] = 2.0 * (a + b)
    jac[i + q, i] = 2.0 * (a - b)
    jac[i + q, i + q] = -2.0 * (a - b)
    return jac


class _FitContext:
    """Precomputed design pieces shared by all steps of a fit of ``series``.

    The residual window runs from ``max(p, d)``; the likelihood window drops
    a further ``max(p, q, d) - max(p, d)`` observations so that every
    likelihood term has its full history, matching the convention of
    conditioning on the first ``max(p, q, d)`` observations.

    Regimes are assigned here only: ``labels_r``, with ``regime_sizes``
    their counts on the likelihood window.  ``zexp_t``, built once, is the
    one layout of the regime design: the lag design expanded to the full
    theta dimension on the residual window, shape ``(ntheta, nr)``.  Block
    ``j`` holds the design where regime ``j`` is active and exact zeros
    elsewhere, so the conditional means are the single product ``theta @
    zexp_t``, and the mean pass reads its likelihood-window columns.
    :meth:`window` is the one builder of the window every step reads: the
    residuals, their slope design and the variances at ``(theta, gamma)``.
    """

    def __init__(self, series, partition: ThresholdPartition, p: int, q: int):
        if p < 0:
            raise ValueError(f"p must be >= 0, got {p}")
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        x = series_values(series)
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
        self.y_r = x[self.mpd :]
        self.Zr = _lag_design(x, p, self.mpd)
        self.labels_r = regime_indices(partition, x[self.mpd - d : n - d]) - 1
        l = partition.regimes
        self.regime_sizes = np.bincount(self.labels_r[self.o :], minlength=l)
        self.ntheta = l * (p + 1)
        self.zexp_t = np.zeros((self.ntheta, self.nr))
        for j, block in enumerate(np.split(self.zexp_t, l)):
            np.copyto(block, self.Zr.T, where=self.labels_r == j)

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        """Mean residuals on the residual window for the coefficients
        ``theta`` in regime-major order: flat, or the ``(regimes, p + 1)``
        array of :class:`TarParams`."""
        return self.y_r - np.einsum("j,jt->t", np.ravel(theta), self.zexp_t)

    def window(self, theta: np.ndarray, gamma: np.ndarray):
        """On the residual window, the residuals ``e`` of ``theta``, their slope
        design ``x`` (:func:`_slope_design`) and the variances ``gamma @ x``."""
        e = self.residuals(theta)
        x = _slope_design(e, self.q)
        return e, x, np.einsum("j,jt->t", gamma, x)

    def slope_window(self, theta: np.ndarray, gamma: np.ndarray):
        """:meth:`window` on the likelihood window: the slope design ``x``, the
        squared residuals and the variances."""
        e, x, h = self.window(theta, gamma)
        eq = e[self.o :]
        return x[:, self.o :], eq * eq, h[self.o :]

    def qll_sum(self, tar: TarParams, aarch: AarchParams, first: int | None = None) -> float:
        """Quasi-log-likelihood summed from observation ``first`` (default
        ``max(p, q, d)``) to the end of the series."""
        e, _, h = self.window(tar.coefficients, _slopes(aarch))
        start = self.o if first is None else first - self.mpd
        eq = e[start:]
        return _qll(eq * eq, h[start:])


def _qll(sq: np.ndarray, h: np.ndarray) -> float:
    val = -0.5 * float(np.sum(np.log(h) + sq / h))
    if not np.isfinite(val):
        raise EstimationError("quasi-log-likelihood is non-finite at these parameters")
    return val


def gaussian_qll(spec: ModelSpec, series) -> float:
    """Gaussian quasi-log-likelihood ``-0.5 * sum(log h_t + e_t^2 / h_t)``.

    The sum runs over ``t = max(p, q, d) .. n-1`` (additive constant
    dropped).  A non-finite sum raises :class:`EstimationError`.
    """
    return _FitContext(series, spec.partition, spec.p, spec.q).qll_sum(spec.tar, spec.aarch)


def _mean_pass(ctx: _FitContext, w: np.ndarray) -> np.ndarray:
    """The ``(regimes, p + 1)`` per-regime least-squares fits of ``y`` on the lag
    design with weights ``w`` on the likelihood window: one mean pass.  The
    regimes' normal equations are one product on the blocks of ``zexp_t``,
    whose off-regime entries add exact zeros."""
    p, l = ctx.p, ctx.partition.regimes
    z = ctx.zexp_t[:, ctx.o :].reshape(l, p + 1, ctx.nq)
    zw = z * w
    gram = np.einsum("jit,jkt->jik", zw, z)
    rhs = np.einsum("jit,t->ji", zw, ctx.y_r[ctx.o :])
    new = np.empty((l, p + 1))
    for j, size in enumerate(ctx.regime_sizes):
        if size == 0:
            raise EstimationError(f"regime {j + 1} is empty on the fitting window")
        if size < p + 1:
            raise EstimationError(
                f"regime {j + 1} has {size} observations; need at least {p + 1}"
            )
        try:
            new[j] = np.linalg.solve(gram[j], rhs[j])
        except np.linalg.LinAlgError:
            raise EstimationError(f"singular design matrix in regime {j + 1}") from None
    if not np.all(np.isfinite(new)):
        raise EstimationError("mean step produced non-finite coefficients")
    return new


def theta_step(series, partition, aarch, theta_init) -> TarParams:
    """Solve the concentrated mean equations by iteratively reweighted least squares.

    The conditional variances act as fixed weights inside each pass and are
    refreshed from the updated residuals between passes, until the maximum
    coefficient change falls below ``THETA_TOL``.
    """
    ctx = _FitContext(series, partition, theta_init.p, aarch.q)
    coeffs, gamma = theta_init.coefficients, _slopes(aarch)
    for _ in range(MAX_THETA_ITER):
        _, _, h = ctx.window(coeffs, gamma)
        coeffs, old = _mean_pass(ctx, 1.0 / h[ctx.o :]), coeffs
        if float(np.max(np.abs(coeffs - old))) < THETA_TOL:
            break
    return TarParams(coeffs)


def _information(x: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """``x diag(w) x'``, or None if it is not positive definite."""
    info = np.einsum("it,jt->ij", x * w, x)
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        return None
    return info


def _nonnegative_step(m: np.ndarray, g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``gamma + s`` maximizing ``g's - s'Ms/2`` under ``gamma + s >= 0``: Lawson and
    Hanson's (1974) active set, each solve a step along the model's gradient ``g - M
    (y - gamma)``, from the support of ``gamma`` and the zero slopes the gradient
    lifts; if that is every slope, the first solve is the free step ``gamma + M^-1
    g``, returned if it is feasible."""
    if not np.isfinite(g).all():
        raise EstimationError("variance step: the score is not finite")
    free = np.maximum(gamma, g) > 0.0
    y, z, joined = gamma, None, None
    if free.all():  # the free step, which is then the first round's solve
        z = gamma + np.linalg.solve(m, g)
        if z.min() >= 0.0:
            return z
    while True:
        if z is None:
            p = np.flatnonzero(free)
            z = np.zeros_like(y)
            z[p] = y[p] + np.linalg.solve(m[p[:, None], p], (g - m @ (y - gamma))[p])
        if z.min() >= 0.0:  # optimal on the free set: join the steepest bound slope
            y = z
            bound = np.where(free, -np.inf, g - m @ (y - gamma))
            joined = int(np.argmax(bound))
            if bound[joined] <= 0.0:
                return y
            free[joined] = True
        elif joined is not None and z[joined] < 0.0:  # a gradient of rounding size
            return y
        else:  # toward z until the first slope reaches zero and leaves the free set
            out = z < 0.0
            t = y[out] / (y[out] - z[out])
            y = y + t.min() * (z - y)
            y[np.flatnonzero(out)[np.argmin(t)]] = 0.0
            free &= y > 0.0
            joined = None
        z = None


def _variance_pass(x: np.ndarray, sq: np.ndarray, gamma: np.ndarray, h: np.ndarray,
                   newton: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """One variance pass at fixed residuals from ``gamma``, with ``h = gamma @ x``
    and ``sq = e**2``: the new slopes, their ``h`` and its largest relative change.

    The pass maximizes the quasi-likelihood's quadratic model ``g's - s'Ms/2``
    under ``gamma + s >= 0`` (:func:`_nonnegative_step`), with the score ``g =
    X (e**2 - h) / (2 h**2)``.  With ``newton`` M is the observed information
    ``X diag((e**2/h - 1/2)/h**2) X'`` where that is positive definite (a
    projected Newton step), else the scoring information ``X diag(1/(2 h**2))
    X'``, with which the pass is the fit of ``e**2`` on ``X`` with weights
    ``1/h**2``.  Slopes land on zero with the model's KKT conditions holding.
    """
    hh = h * h
    info = _information(x, (sq / h - 0.5) / hh) if newton else None
    if info is None:
        info = _information(x, 0.5 / hh)
    if info is None:
        raise EstimationError("variance-step design is singular")
    score = np.einsum("it,t->i", x, 0.5 * (sq - h) / hh)
    new = _nonnegative_step(info, score, gamma)
    if new[0] <= 0.0:
        raise EstimationError("variance step drove alpha0 to zero")
    h_new = np.einsum("j,jt->t", new, x)
    return new, h_new, float(np.max(np.abs(h_new - h) / h))


def alpha_step(series, partition, tar, aarch_init) -> AarchParams:
    """Maximize the quasi-likelihood over the variance parameters.

    The residuals implied by ``tar`` are held fixed.  The fit runs in slope
    coordinates ``(alpha0, (alphas + betas)**2, (alphas - betas)**2) >= 0``:
    a scoring pass, then projected Newton passes, to the quasi-likelihood's
    KKT point (relative change in ``h`` at most ``VARIANCE_TOL``).  Each lag
    term is invariant under sign flips and swaps of its loading pair; mapping
    the slopes back gives estimates in the canonical cone ``alphas >= |betas|
    >= 0``.  Raises :class:`EstimationError` if ``alpha0`` reaches zero and
    :class:`ConvergenceError` (carrying the last iterate) if the iteration
    does not converge.
    """
    q = aarch_init.q
    ctx = _FitContext(series, partition, tar.p, q)
    gamma = _slopes(aarch_init)
    x, sq, h = ctx.slope_window(tar.coefficients, gamma)
    for i in range(MAX_VARIANCE_ITER):
        gamma, h, change = _variance_pass(x, sq, gamma, h, newton=i > 0)
        if change <= VARIANCE_TOL:
            return _loadings(gamma, q)
    raise ConvergenceError(
        f"variance step did not converge in {MAX_VARIANCE_ITER} iterations "
        f"(last relative change in h {change:.3g})",
        result=_loadings(gamma, q),
    )


def alpha_score(spec: ModelSpec, series) -> np.ndarray:
    """Analytic gradient of :func:`gaussian_qll` in ``(alpha0, alphas, betas)``.

    The residuals are fixed by the model's mean parameters, so this is the
    exact derivative of the quasi-log-likelihood sum in natural coordinates:
    the slope-coordinate score ``sum_t X_t (e_t**2 / h_t - 1) / (2 h_t)``
    taken through ``d gamma / d(alpha0, alphas, betas)``.
    """
    ctx = _FitContext(series, spec.partition, spec.p, spec.q)
    x, sq, h = ctx.slope_window(spec.tar.coefficients, _slopes(spec.aarch))
    score = np.einsum("it,t->i", x, 0.5 * (sq / h - 1.0) / h)
    return score @ _loading_jacobian(spec.aarch)


def concentrated_equation_residuals(spec: ModelSpec, series) -> np.ndarray:
    """Per-observation mean of the concentrated estimating functions.

    Returns the stacked values of ``mean_t[(e_t / h_t) * z_t * 1(regime j)]``
    over intercept and lag regressors for every regime; all entries vanish at
    the mean step's fixed point.
    """
    ctx = _FitContext(series, spec.partition, spec.p, spec.q)
    e, _, h = ctx.window(spec.tar.coefficients, _slopes(spec.aarch))
    ratio = e[ctx.o :] / h[ctx.o :]
    return np.einsum("it,t->i", ctx.zexp_t[:, ctx.o :], ratio) / ctx.nq


def _initial_values(ctx: _FitContext) -> tuple[TarParams, AarchParams]:
    q = ctx.q
    tar = TarParams(_mean_pass(ctx, np.ones(ctx.nq)))
    e = ctx.residuals(tar.coefficients)
    return tar, AarchParams(
        alpha0=max(float(e.var()), 1e-12), alphas=np.zeros(q), betas=np.zeros(q)
    )


def fit_alternating(
    series,
    partition: ThresholdPartition,
    p: int,
    q: int,
    compute_se: bool = True,
) -> FitReport:
    """Two-step concentrated QML fit with a fixed threshold partition.

    Starts from the constant-weight least-squares fit and the variance of
    its residuals, and runs sweeps of one variance pass and one mean pass
    until, in one sweep, the mean coefficients move by less than
    ``THETA_TOL``, the variances by at most ``VARIANCE_TOL`` and the
    quasi-log-likelihood by at most ``OUTER_REL_TOL``, both relative.  Raises
    :class:`ConvergenceError` (carrying the last iterate in ``result``) if
    ``MAX_OUTER`` sweeps do not converge.
    """
    ctx = _FitContext(series, partition, p, q)
    report = _fit(ctx)
    return _with_inference(ctx, report) if compute_se else report


def _fit(ctx: _FitContext) -> FitReport:
    """The sweeps on ``ctx``, with NaN inference products.  Each opens with the
    variance pass: a mean pass would only repeat the start's constant-weight fit."""
    tar, aarch = _initial_values(ctx)
    theta, gamma = tar.coefficients, _slopes(aarch)
    x, sq, h = ctx.slope_window(theta, gamma)
    qll = _qll(sq, h)
    trace: list[float] = []
    converged = False
    theta_change = h_change = qll_change = np.inf
    for i in range(MAX_OUTER):
        gamma, h, h_change = _variance_pass(x, sq, gamma, h, newton=i > 0)
        theta, old = _mean_pass(ctx, 1.0 / h), theta
        theta_change = float(np.max(np.abs(theta - old)))
        x, sq, h = ctx.slope_window(theta, gamma)
        qll, old = _qll(sq, h), qll
        qll_change = abs(qll - old) / (1.0 + abs(qll))
        trace.append(qll)
        if (theta_change < THETA_TOL and h_change <= VARIANCE_TOL
                and qll_change <= OUTER_REL_TOL):
            converged = True
            break

    k = ctx.ntheta + 1 + 2 * ctx.q
    tar, aarch = TarParams(theta), _loadings(gamma, ctx.q)
    report = FitReport(
        spec=ModelSpec(p=ctx.p, q=ctx.q, partition=ctx.partition, tar=tar, aarch=aarch),
        info_matrix=np.full((k, k), np.nan),
        sandwich_cov=np.full((k, k), np.nan),
        qll=qll,
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
    )
    if not converged:
        raise ConvergenceError(
            f"alternating fit did not converge in {MAX_OUTER} sweeps (last sweep: "
            f"theta change {theta_change:.3g}, relative h change {h_change:.3g}, "
            f"relative qll change {qll_change:.3g})",
            result=report,
        )
    return report


def _with_inference(ctx: _FitContext, report: FitReport) -> FitReport:
    """``report`` with the sandwich inference at its estimates on ``ctx``."""
    info, sandwich = _sandwich(*_sandwich_parts(ctx, report.spec), ctx.nq)
    return replace(report, info_matrix=info, sandwich_cov=sandwich)


def _sandwich_parts(ctx: _FitContext, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Outer product of the estimating-function scores and their Jacobian.

    Both are per-observation means over the likelihood window, in the
    coordinates ``(theta, alpha0, alphas, betas)``.
    """
    q, o, nq, nr = spec.q, ctx.o, ctx.nq, ctx.nr
    gamma = _slopes(spec.aarch)
    e, x, h = ctx.window(spec.tar.coefficients, gamma)
    eq, hq, xq = e[o:], h[o:], x[:, o:]
    zr = ctx.zexp_t
    zq = zr[:, o:]

    ntheta = ctx.ntheta
    ka = 1 + 2 * q
    k = ntheta + ka
    # The variance estimating function is w1_t X_t with w1 = dqll_t/dh_t;
    # dw1 = dw1/dh_t, and e/h**2 = dw1/de_t = -d(e_t/h_t)/dh_t.
    w1 = 0.5 * (eq * eq / hq - 1.0) / hq
    dw1 = (-eq * eq / hq + 0.5) / (hq * hq)
    e_h2 = eq / (hq * hq)

    # Everything up to the change of coordinates is in (theta, gamma), with
    # sums over the likelihood window.  Outer product of the
    # estimating-function scores, one row per parameter:
    scores = np.empty((k, nq))
    scores[:ntheta] = zq * (eq / hq)
    scores[ntheta:] = xq * w1
    info = np.einsum("it,jt->ij", scores, scores) / nq

    hess = np.empty((k, k))
    # Mean block: variances treated as fixed weights, as in the mean step.
    hess[:ntheta, :ntheta] = -np.einsum("it,jt->ij", zq * (1.0 / hq), zq)
    hess[ntheta:, ntheta:] = np.einsum("it,jt->ij", xq * dw1, xq)
    mean_by_slope = -np.einsum("it,jt->ij", zq * e_h2, xq)
    hess[:ntheta, ntheta:] = mean_by_slope

    # Variance equations by mean parameters.  Per unit of theta, e_t moves
    # by -z_t, lag k of X_t by -2 e_{t-k} z_{t-k} in the row of the sign of
    # e_{t-k}, so lag k of h_t by -2 c_k e_{t-k} z_{t-k} with c_k = c+_k or
    # c-_k; presample lags move with ph = var(e) over the residual window.
    # X is C^1 in e, so no observation needs excluding at the |e| kink.
    # dh holds dh_t/dtheta and dx_w1 the sum of w1_t dX_t/dtheta.
    dph = -2.0 / nr * np.einsum("it,t->i", zr, e - e.mean())
    w1r = np.zeros(nr)
    w1r[o:] = w1
    dh = np.zeros((ntheta, nr))
    dx_w1 = np.zeros((ka, ntheta))
    for lag in range(1, q + 1):
        m = min(lag, nr)
        pos = np.maximum(e[: nr - m], 0.0)
        neg = np.minimum(e[: nr - m], 0.0)
        zl = zr[:, : nr - m]
        dh[:, m:] -= 2.0 * zl * (gamma[lag] * pos + gamma[q + lag] * neg)
        dh[:, :m] += 0.5 * (gamma[lag] + gamma[q + lag]) * dph[:, None]
        pre = 0.5 * dph * w1r[:m].sum()
        dx_w1[lag] = pre - 2.0 * np.einsum("it,t->i", zl, w1r[m:] * pos)
        dx_w1[q + lag] = pre - 2.0 * np.einsum("it,t->i", zl, w1r[m:] * neg)
    hess[ntheta:, :ntheta] = (
        mean_by_slope.T + np.einsum("it,jt->ij", xq * dw1, dh[:, o:]) + dx_w1
    )
    hess /= nq

    # To (alpha0, alphas, betas): gamma's Jacobian, plus the second
    # derivatives of gamma weighted by the slope-coordinate score.
    tr = np.eye(k)
    tr[ntheta:, ntheta:] = _loading_jacobian(spec.aarch)
    info = tr.T @ info @ tr
    hess = tr.T @ hess @ tr
    g = np.einsum("it,t->i", xq, w1) / nq
    gp, gm = g[1 : 1 + q], g[1 + q :]
    diag = ntheta + np.arange(1, 1 + q)
    hess[diag, diag] += 2.0 * (gp + gm)
    hess[diag + q, diag + q] += 2.0 * (gp + gm)
    hess[diag, diag + q] += 2.0 * (gp - gm)
    hess[diag + q, diag] += 2.0 * (gp - gm)
    return info, hess


def _sandwich(info: np.ndarray, hess: np.ndarray, nq: int):
    """Symmetrized ``(info, hinv @ info @ hinv.T / nq)`` with ``hinv`` the
    inverse of the estimating equations' Jacobian ``hess``."""
    try:
        hinv = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        raise EstimationError(
            "estimating-function Jacobian is singular; the model may be "
            "weakly identified on this sample"
        ) from None
    sandwich = hinv @ info @ hinv.T / nq
    return 0.5 * (info + info.T), 0.5 * (sandwich + sandwich.T)


def estimate_information(series, spec: ModelSpec):
    """Information and sandwich covariance at a fitted optimum.

    Returns ``(info, sandwich_cov)``: the outer-product-of-scores information
    estimate (symmetric PSD) and the sandwich covariance of the parameter
    estimates, ``Hinv @ info @ Hinv.T / n_window``.
    """
    ctx = _FitContext(series, spec.partition, spec.p, spec.q)
    return _sandwich(*_sandwich_parts(ctx, spec), ctx.nq)


def _check_grid(grid, delays: str, boundaries: int) -> None:
    """Check and coerce the fields both grids share: the field named
    ``delays``, ``min_regime_fraction`` and ``include_single_regime``."""
    values = _wholes("delays", getattr(grid, delays))
    if not values or min(values) < 1:
        raise ValueError(f"delays must be non-empty positive integers, got {list(values)}")
    fraction = _real("min_regime_fraction", grid.min_regime_fraction)
    if not 0.0 < fraction < 0.5:
        raise ValueError(f"min_regime_fraction must be in (0, 0.5), got {fraction}")
    single = grid.include_single_regime
    if not isinstance(single, bool):
        raise ValueError(f"include_single_regime must be true or false, got {single!r}")
    if not boundaries and not single:
        raise ValueError("grid has 0 boundaries and include_single_regime is false")
    object.__setattr__(grid, delays, values)
    object.__setattr__(grid, "min_regime_fraction", fraction)


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
        cands = tuple(tuple(float(t) for t in row) for row in self.threshold_candidates)
        object.__setattr__(self, "threshold_candidates", cands)
        _check_grid(self, "delay_candidates", len(cands))

    def materialize(self, series) -> "SearchGrid":
        return self

    def to_dict(self) -> dict:
        return {"type": "fixed", "delays": list(self.delay_candidates),
                "threshold_candidates": [list(row) for row in self.threshold_candidates],
                "min_regime_fraction": self.min_regime_fraction,
                "include_single_regime": self.include_single_regime}


@dataclass(frozen=True)
class GridRecipe:
    """A quantile grid (Chan 1993): each series' threshold candidates are its
    quantiles at ``lo, lo + step, ..., hi``; delays and occupancy bound are fixed."""

    delays: tuple[int, ...]
    boundaries: int = 1
    lo: float = 0.10
    hi: float = 0.90
    step: float = 0.025
    min_regime_fraction: float = 0.1
    include_single_regime: bool = False

    def __post_init__(self):
        boundaries = _whole("boundaries", self.boundaries)
        lo, hi, step = (_real(name, getattr(self, name)) for name in ("lo", "hi", "step"))
        if boundaries < 0:
            raise ValueError(f"boundaries must be >= 0, got {boundaries}")
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"lo and hi must satisfy 0 <= lo <= hi <= 1, got {lo} and {hi}")
        if not step > 0.0:
            raise ValueError(f"step must be > 0, got {step}")
        for name, value in (("boundaries", boundaries), ("lo", lo), ("hi", hi), ("step", step)):
            object.__setattr__(self, name, value)
        _check_grid(self, "delays", boundaries)

    def materialize(self, series) -> SearchGrid:
        """The series' grid: of the quantiles that split it alike, only the lowest."""
        x = series_values(series)
        quantiles = np.quantile(x, np.minimum(np.arange(self.lo, self.hi + 1e-12, self.step), 1))
        _, first = np.unique(np.searchsorted(np.sort(x), quantiles, side="right"),
                             return_index=True)
        qs = tuple(float(v) for v in quantiles[first])
        return SearchGrid(self.delays, tuple(qs for _ in range(self.boundaries)),
                          self.min_regime_fraction, self.include_single_regime)

    def to_dict(self) -> dict:
        return {"type": "quantile", **asdict(self), "delays": list(self.delays)}


def _grid_from_dict(d) -> SearchGrid | GridRecipe:
    """A plan's grid from its document; an unknown type or key raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"grid must be an object, got {d!r}")
    kind = d.get("type")
    if kind not in ("quantile", "fixed"):
        raise ValueError(f"grid type must be 'quantile' or 'fixed', got {kind!r}")
    keys = {("delay_candidates" if kind == "fixed" and k == "delays" else k): v
            for k, v in d.items() if k != "type"}
    try:
        return (GridRecipe if kind == "quantile" else SearchGrid)(**keys)
    except TypeError as exc:  # an unknown or missing key
        raise ValueError(f"{kind} grid: {exc}") from None


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a threshold/delay search: selected partition, its fit, and
    the per-candidate score table."""

    partition: ThresholdPartition
    report: FitReport
    candidates: list[dict]


def threshold_delay_search(series, p: int, q: int, grid: SearchGrid | GridRecipe) -> SearchOutcome:
    """Profile the alternating fit over the delay and threshold candidates of
    ``grid``: a :class:`SearchGrid`, or a :class:`GridRecipe` of ``series``.

    Every candidate is fitted once with the alternating estimator and scored
    by its quasi-log-likelihood over a common conditioning window (so
    candidates with different delays are compared on the same likelihood
    terms), with a ``-(k/2) log n`` penalty that only matters when regime
    counts differ.  Ties are broken toward the smaller delay, then the
    smaller first threshold.  The selected candidate's own fit is returned,
    with standard errors computed at its estimates, together with the full
    candidate table.
    """
    x = series_values(series)
    grid = grid.materialize(x)
    m_common = max(p, q, max(grid.delay_candidates))
    n_common = x.size - m_common
    if n_common < 1:
        raise ValueError("series too short for the requested search grid")

    candidates = []
    if grid.include_single_regime:
        candidates.append((1, ()))
    for d in grid.delay_candidates:
        for combo in itertools.product(*grid.threshold_candidates):
            if not combo:  # the single-regime model is added once, above
                continue
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
        ctx = _FitContext(x, partition, p, q)
        if combo:
            counts = np.bincount(ctx.labels_r[m_common - ctx.mpd :], minlength=partition.regimes)
            if counts.min() < grid.min_regime_fraction * n_common:
                continue
        k = partition.regimes * (p + 1) + 1 + 2 * q
        row = {
            "delay": d,
            "thresholds": list(combo),
            "qll": None,
            "qll_common": None,
            "penalized": None,
            "k": k,
            "converged": False,
        }
        rows.append(row)
        try:
            report = _fit(ctx)
            qll_common = ctx.qll_sum(report.spec.tar, report.spec.aarch, first=m_common)
        except EstimationError as exc:
            failures.append(f"d={d}, thresholds={list(combo)}: {exc}")
            continue
        score = qll_common - 0.5 * k * np.log(n_common)
        row.update(qll=report.qll, qll_common=qll_common, penalized=score, converged=True)
        key = (-score, d, combo[0] if combo else -np.inf)
        if best is None or key < best[0]:
            best = (key, ctx, report, row)
    if best is None:
        detail = f" ({'; '.join(failures[:5])})" if failures else ""
        raise EstimationError(
            f"none of the {len(candidates)} search candidates was fitted: "
            f"{len(candidates) - len(rows)} skipped by min_regime_fraction = "
            f"{grid.min_regime_fraction:g} on the common window, "
            f"{len(failures)} failed{detail}"
        )
    _, ctx, report, selected = best
    for row in rows:
        row["selected"] = row is selected
    return SearchOutcome(
        partition=ctx.partition, report=_with_inference(ctx, report), candidates=rows
    )

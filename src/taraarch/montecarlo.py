"""Monte Carlo harness: consistency, normality, and efficiency experiments.

Each experiment cell (sample size, replicate) draws its seed from a
documented mix of the plan's base seed with the cell coordinates, so results
are identical regardless of worker count or execution order.  Non-convergent
replicates are recorded and excluded from summaries; their rate is itself a
health metric and an experiment is flagged failed when it exceeds 20%.

A persisted record's JSON is its dataclass fields in declaration order
(:func:`_fields`): arrays become lists, dict keys strings, and a nested
object with ``to_dict`` writes its own document.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

import numpy as np

from .baselines import tar_arch_full_qmle
from .estimation import (
    EstimationError,
    GridRecipe,
    SearchGrid,
    _grid_from_dict,
    fit_alternating,
    threshold_delay_search,
)
from .model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    check_stationarity,
    param_names,
    param_vector,
    _document,
    _whole,
    _wholes,
)
from .simulate import DEFAULT_BURN_IN, SimConfig, SimulationError, mix_seed, simulate_path

__all__ = [
    "ExperimentPlan",
    "ExperimentResult",
    "ReplicateRow",
    "CellSummary",
    "GridRecipe",
    "run_experiment",
    "run_experiments",
    "efficiency_comparison",
    "EfficiencyReport",
    "normality_diagnostics",
    "NormalityReport",
    "anderson_darling_statistic",
    "reference_spec",
    "symmetric_reference_spec",
    "save_results",
    "load_results",
]

ESTIMATORS = ("concentrated", "full_symmetric", "both")
NONCONVERGENCE_FAILURE_RATE = 0.20
AD_CRITICAL_1PCT = 3.857  # fully specified N(0,1) null
Z_975 = 1.959963984540054  # float(scipy.special.ndtri(0.975)), bit for bit
N_BOOTSTRAP = 500  # resamples behind each bootstrap standard error


def reference_spec() -> ModelSpec:
    """The repository's fixed two-regime reference model for experiments."""
    return ModelSpec(
        partition=ThresholdPartition(delay=1, thresholds=np.array([0.0])),
        tar=TarParams(np.array([[0.2, 0.5], [-0.3, -0.4]])),
        aarch=AarchParams(alpha0=0.1, alphas=np.array([0.4]), betas=np.array([0.2])),
    )


def symmetric_reference_spec() -> ModelSpec:
    """The reference mean structure with symmetric (beta = 0) ARCH errors."""
    return replace(reference_spec(),
                   aarch=AarchParams(alpha0=0.1, alphas=np.array([0.5]), betas=np.array([0.0])))


def _encode(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return _fields(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _fields(record) -> dict:
    """A record's JSON document: its fields in declaration order."""
    return {f.name: _encode(getattr(record, f.name)) for f in fields(record)}


@dataclass(frozen=True)
class ExperimentPlan:
    """A fully specified Monte Carlo experiment."""

    true_spec: ModelSpec
    sample_sizes: tuple[int, ...]
    replicates: int
    base_seed: int
    estimator: str = "concentrated"
    grid: SearchGrid | GridRecipe | None = None
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        sizes = _wholes("sample_sizes", self.sample_sizes)
        if not sizes or any(b <= a for a, b in zip(sizes[:-1], sizes[1:])):
            raise ValueError("sample_sizes must be non-empty and strictly increasing")
        object.__setattr__(self, "sample_sizes", sizes)
        for name in ("replicates", "base_seed", "burn_in"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}"
            )
        if self.estimator != "concentrated" and not self.true_spec.aarch.is_symmetric:
            raise ValueError("full_symmetric estimator requires a symmetric truth")
        if self.estimator != "concentrated" and self.grid is not None:
            raise ValueError("full_symmetric estimator takes no grid")
        m = self.true_spec.presample_length
        if sizes[0] <= m:
            raise ValueError(f"sample sizes must exceed max(p, q, d) = {m}, got {sizes[0]}")

    def per_estimator(self) -> tuple["ExperimentPlan", ...]:
        """The one-estimator plans this plan runs: itself, or for ``"both"``
        its concentrated and its full_symmetric plan, in that order."""
        if self.estimator != "both":
            return (self,)
        return tuple(replace(self, estimator=est) for est in ("concentrated", "full_symmetric"))

    def to_dict(self) -> dict:
        return _fields(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        """A plan from its document; a non-object document, or a missing or
        unknown key, raises ValueError."""
        _document("plan", d, [f.name for f in fields(cls) if f.default is MISSING],
                  [f.name for f in fields(cls) if f.default is not MISSING])
        if not isinstance(d["true_spec"], dict):
            raise ValueError(f"true_spec must be an object, got {d['true_spec']!r}")
        return cls(
            true_spec=ModelSpec.from_dict(d["true_spec"]),
            sample_sizes=d["sample_sizes"],
            replicates=d["replicates"],
            base_seed=d["base_seed"],
            estimator=d.get("estimator", "concentrated"),
            grid=None if d.get("grid") is None else _grid_from_dict(d["grid"]),
            burn_in=d.get("burn_in", DEFAULT_BURN_IN),
        )


def plan_param_names(plan: ExperimentPlan) -> list[str]:
    """Estimated-coordinate names; the full estimator has no beta block."""
    names = param_names(plan.true_spec)
    if plan.estimator == "full_symmetric":
        names = [n for n in names if not n.startswith("beta_")]
    return names


@dataclass(frozen=True)
class ReplicateRow:
    n: int
    r: int
    seed: int
    converged: bool
    estimates: np.ndarray
    std_errors: np.ndarray
    selected_delay: int | None = None
    selected_thresholds: tuple[float, ...] | None = None
    # n times the sandwich covariance; not written to the CSV
    scaled_cov: np.ndarray | None = None


@dataclass(frozen=True)
class CellSummary:
    n: int
    n_total: int
    n_converged: int
    nonconverged_rate: float
    bias: np.ndarray
    rmse: np.ndarray
    cov_scaled: np.ndarray
    coverage: np.ndarray
    mean_scaled_cov: np.ndarray | None
    delay_mode: int | None = None
    threshold_medians: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentResult:
    plan: ExperimentPlan
    names: tuple[str, ...]
    truth: np.ndarray
    rows: tuple[ReplicateRow, ...]
    summaries: dict[int, CellSummary]
    failed: bool


def _loaded_openblas() -> list[tuple[ctypes.CDLL, str]]:
    """Every OpenBLAS loaded in this process, with its symbol suffix.

    numpy's and scipy's wheels each bundle their own OpenBLAS: numpy's exports
    ``scipy_openblas_*64_`` symbols and scipy's plain ``scipy_openblas_*``.
    Empty where ``/proc/self/maps`` is missing or no such library is loaded.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
            )
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping of a file deleted since it was loaded
            continue
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
                libs.append((lib, suffix))
                break
    return libs


def _single_threaded_blas() -> None:
    """Run every loaded OpenBLAS on one thread from now on.

    A worker forked afterwards inherits the count of one and never starts the
    library's helper threads; a worker that set the count itself after fork
    would first start them, and they busy-wait.  Setting
    ``OPENBLAS_NUM_THREADS`` after the library is loaded has no effect, so
    the library's own setter is called.  Only the libraries loaded now are
    pinned: a module that loads another (``scipy.special`` loads scipy's own)
    must be imported first, or that library keeps its count.

    In a forked worker only ``scipy.optimize._lbfgsb.setulb``, in the full
    QMLE, starts a helper thread.  Unpinned, on the efficiency plan at
    n = 4000 with 2 workers (2-vCPU VM), each worker ran 2 OS threads and
    took about 170 ms of CPU per task, against 14-18 ms pinned.  The counts
    stay at one, since the package runs no BLAS work that gains from more
    threads: restoring them after a 2-worker call restarted the helpers
    here, and the caller's 3 OS threads burnt 246-256 ms of CPU over an idle
    0.3 s, against 1 thread and 0.1 ms when left pinned.
    """
    for lib, suffix in _loaded_openblas():
        getattr(lib, f"scipy_openblas_set_num_threads{suffix}")(1)  # void f(int)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap() -> None:
    """Keep this process's freed memory for its next fit.

    glibc maps a block above its mmap threshold afresh on every allocation and
    returns the free top of its heap to the system once it exceeds its trim
    threshold.  Both start at 128 KiB and rise only when a larger mapped block
    is freed, so they depend on what the process did before, and a fit's
    temporaries can be faulted back in, page by page, on every fit.  Here
    blocks up to 32 MiB come from the heap and up to 64 MiB of it stays
    free.  The setting stays for the life of the process, and forked workers
    inherit it.  Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _row_without_estimates(plan, n, r, seed, converged=False, delay=None,
                           thresholds=None) -> ReplicateRow:
    """A row with NaN estimates: a failed simulation or fit, or a search that
    selected the wrong regime count (converged, with its selection)."""
    nan_vec = np.full(len(plan_param_names(plan)), np.nan)
    return ReplicateRow(n, r, seed, converged, nan_vec, nan_vec.copy(), delay, thresholds)


def _fit_row(plan, series, n, r, seed) -> ReplicateRow:
    """One plan's row on a simulated series, fitted by its grid or estimator."""
    spec = plan.true_spec
    k = len(plan_param_names(plan))
    sel_delay = sel_thresholds = None
    try:
        if plan.grid is not None:
            outcome = threshold_delay_search(series, spec.p, spec.q, plan.grid)
            report = outcome.report
            sel_delay = outcome.partition.delay
            sel_thresholds = tuple(float(t) for t in outcome.partition.thresholds)
            if outcome.partition.regimes != spec.partition.regimes:
                # Estimates are not comparable to the truth vector when the
                # selected regime count differs; keep only the selection.
                return _row_without_estimates(plan, n, r, seed, converged=True,
                                              delay=sel_delay, thresholds=sel_thresholds)
        elif plan.estimator == "concentrated":
            report = fit_alternating(series, spec.partition, spec.p, spec.q)
        else:
            report = tar_arch_full_qmle(series, spec.partition, spec.p, spec.q)
        cov = report.sandwich_cov[:k, :k]
        scaled_cov = n * cov if np.all(np.isfinite(cov)) else None
        return ReplicateRow(n, r, seed, True, param_vector(report.spec)[:k],
                            report.std_errors[:k], sel_delay, sel_thresholds, scaled_cov)
    except EstimationError:
        return _row_without_estimates(plan, n, r, seed)


def _replicate_task(args) -> tuple[ReplicateRow, ...]:
    """Replicate ``r`` at size ``n``: one simulated path, one row per plan."""
    plans, n, r = args
    first = plans[0]
    seed = mix_seed(first.base_seed, n, r)
    try:
        sim = simulate_path(first.true_spec, SimConfig(n=n, seed=seed, burn_in=first.burn_in))
    except SimulationError:
        return tuple(_row_without_estimates(plan, n, r, seed) for plan in plans)
    return tuple(_fit_row(plan, sim.series, n, r, seed) for plan in plans)


def _cell(rows, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(m, k)`` estimates and standard errors of the comparable rows at
    size ``n``: those that converged with all-finite estimates.

    A search that selects the wrong regime count converges with NaN
    estimates; such rows count only toward the selection statistics.
    """
    cell = [row for row in rows
            if row.n == n and row.converged and np.all(np.isfinite(row.estimates))]
    est = np.array([row.estimates for row in cell]).reshape(len(cell), k)
    ses = np.array([row.std_errors for row in cell]).reshape(len(cell), k)
    return est, ses


def _summarize(plan, names, truth, rows):
    summaries: dict[int, CellSummary] = {}
    failed = False
    k = len(names)
    for n in plan.sample_sizes:
        cell_rows = [row for row in rows if row.n == n]
        conv = [row for row in cell_rows if row.converged]
        rate = 1.0 - len(conv) / len(cell_rows) if cell_rows else 1.0
        if rate > NONCONVERGENCE_FAILURE_RATE:
            failed = True
        est, ses = _cell(cell_rows, n, k)
        if len(est):
            err = est - truth
            bias = err.mean(axis=0)
            rmse = np.sqrt((err * err).mean(axis=0))
            # einsum, not np.cov, whose BLAS product rounds by CPU kernel; a
            # one-row cell's deviations are zero
            dev = est - est.mean(axis=0)
            cov_scaled = n * np.einsum("ri,rj->ij", dev, dev) / max(len(est) - 1, 1)
            coverage = (np.abs(err) <= Z_975 * ses).mean(axis=0)
            # coordinates with no finite standard error have no CI to score
            coverage = np.where(np.isfinite(ses).any(axis=0), coverage, np.nan)
        else:
            bias = np.full(k, np.nan)
            rmse = np.full(k, np.nan)
            cov_scaled = np.full((k, k), np.nan)
            coverage = np.full(k, np.nan)
        mats = [row.scaled_cov for row in cell_rows if row.scaled_cov is not None]
        mean_scaled = np.mean(mats, axis=0) if mats else None
        delay_mode = threshold_medians = None
        sel = [row for row in conv if row.selected_delay is not None]
        if sel:
            delays = np.array([row.selected_delay for row in sel])
            values, counts = np.unique(delays, return_counts=True)
            delay_mode = int(values[np.argmax(counts)])
            lengths = [len(row.selected_thresholds) for row in sel]
            modal_len = max(set(lengths), key=lengths.count)
            if modal_len > 0:
                ths = np.array(
                    [row.selected_thresholds for row in sel
                     if len(row.selected_thresholds) == modal_len],
                    dtype=float,
                )
                threshold_medians = tuple(float(v) for v in np.median(ths, axis=0))
        summaries[n] = CellSummary(
            n=n,
            n_total=len(cell_rows),
            n_converged=len(conv),
            nonconverged_rate=rate,
            bias=bias,
            rmse=rmse,
            cov_scaled=cov_scaled,
            coverage=coverage,
            mean_scaled_cov=mean_scaled,
            delay_mode=delay_mode,
            threshold_medians=threshold_medians,
        )
    return summaries, failed


def _result(plan: ExperimentPlan, rows: tuple[ReplicateRow, ...]) -> ExperimentResult:
    """A one-estimator plan's result on its rows."""
    names = plan_param_names(plan)
    truth = param_vector(plan.true_spec)[: len(names)]
    summaries, failed = _summarize(plan, names, truth, rows)
    return ExperimentResult(plan=plan, names=tuple(names), truth=truth, rows=rows,
                            summaries=summaries, failed=failed)


def run_experiments(plan: ExperimentPlan, workers: int = 1) -> tuple[ExperimentResult, ...]:
    """Simulate every (sample size, replicate) cell once and fit it by each
    of :meth:`ExperimentPlan.per_estimator`, one result per estimator.

    Replicate ``r`` at size ``n`` always uses the seed ``mix_seed(base_seed,
    n, r)``, so the results do not depend on ``workers``.  A replicate whose
    simulation raises :class:`SimulationError` or whose fit raises
    :class:`EstimationError` counts as non-converged; any other exception
    propagates.  A result is flagged ``failed`` when any of its cells'
    non-convergence rate exceeds 20%.

    ``workers`` below 1 raises ``ValueError``; above 1, the replicates run in
    one process pool, forked where the platform can fork, of at most one
    worker per replicate, each handed one task at a time.  First this
    process imports the scipy modules the replicates load, keeps its freed
    memory for reuse (:func:`_keep_freed_heap`) and sets every loaded
    OpenBLAS to one thread (:func:`_single_threaded_blas`).  These settings
    outlast the call; forked workers inherit them and the modules, so they
    neither oversubscribe the cores nor start BLAS helper threads.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    plans = plan.per_estimator()
    check_stationarity(plan.true_spec)
    tasks = [(plans, n, r) for n in plan.sample_sizes for r in range(plan.replicates)]
    # load scipy.special (scipy's own OpenBLAS) and the full QMLE's
    # scipy.optimize before pinning and forking, so that both cover them
    import scipy.special  # noqa: F401
    if plan.estimator != "concentrated":
        import scipy.optimize  # noqa: F401
    _keep_freed_heap()
    _single_threaded_blas()
    if workers > 1:
        # OpenBLAS stops its own helper threads before a fork, and a forking
        # pool starts all its workers at the first task
        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 mp_context=context) as pool:
            cells = list(pool.map(_replicate_task, tasks))
    else:
        cells = [_replicate_task(t) for t in tasks]
    return tuple(_result(one, tuple(cell[i] for cell in cells)) for i, one in enumerate(plans))


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """The one result of a one-estimator plan (see :func:`run_experiments`); a
    ``"both"`` plan raises ``ValueError`` before any path is simulated."""
    if plan.estimator == "both":
        raise ValueError('run_experiment fits one estimator; run a "both" plan with '
                         "run_experiments")
    (result,) = run_experiments(plan, workers=workers)
    return result


@dataclass(frozen=True)
class EfficiencyRow:
    n: int
    name: str
    var_a: float
    var_b: float
    se_var_a: float
    se_var_b: float
    ratio: float


@dataclass(frozen=True)
class EfficiencyReport:
    """Per-coordinate variances of two estimators on the same simulated truth."""

    estimator_a: str
    estimator_b: str
    rows: tuple[EfficiencyRow, ...]

    def to_dict(self) -> dict:
        return _fields(self)


def _bootstrap_var_se(errors: np.ndarray, rng: np.random.Generator, b: int) -> float:
    """Standard deviation of the sample variance over ``b`` resamples; NaN,
    with nothing drawn, below 2 errors."""
    n = errors.size
    if n < 2:
        return np.nan
    return float(errors[rng.integers(0, n, size=(b, n))].var(axis=1, ddof=1).std(ddof=1))


def _ratio(va: float, vb: float) -> float:
    """``va / vb``; infinite when only ``vb`` is zero, NaN when either is NaN."""
    if vb > 0:
        return va / vb
    return np.inf if vb == 0 and np.isfinite(va) else np.nan


def efficiency_comparison(
    plan_a: ExperimentPlan,
    plan_b: ExperimentPlan,
    results: tuple[ExperimentResult, ExperimentResult],
) -> EfficiencyReport:
    """Compare per-coordinate sampling variances of two estimators.

    ``results`` are the two plans' results, in that order, such as the
    results :func:`run_experiments` returns for a ``"both"`` plan; a result
    of another plan raises ``ValueError``.  Both plans must share the same
    symmetric truth (beta identically zero, so the full symmetric QMLE
    applies) and the same sample sizes.  Variances are of the scaled errors
    ``sqrt(n) * (estimate - truth)`` over converged replicates, with a
    bootstrap standard error from ``N_BOOTSTRAP`` resamples attached to
    each.  An estimator with fewer than 2 such replicates in a cell gets a
    NaN variance and standard error there, and the cell's ratio is NaN.
    """
    if plan_a.true_spec.to_dict() != plan_b.true_spec.to_dict():
        raise ValueError("plans must share the same true_spec")
    if not plan_a.true_spec.aarch.is_symmetric:
        raise ValueError("efficiency comparison requires a symmetric truth (beta = 0)")
    if plan_a.sample_sizes != plan_b.sample_sizes:
        raise ValueError("plans must share sample_sizes")
    res_a, res_b = results
    if res_a.plan.to_dict() != plan_a.to_dict() or res_b.plan.to_dict() != plan_b.to_dict():
        raise ValueError("results must be those of (plan_a, plan_b), in that order")
    common = [name for name in res_a.names if name in res_b.names]
    rng = np.random.Generator(
        np.random.Philox(key=mix_seed(plan_a.base_seed, plan_b.base_seed, 0xEFF))
    )
    rows = []
    for n in plan_a.sample_sizes:
        errors_a, errors_b = (np.sqrt(n) * (_cell(res.rows, n, len(res.names))[0] - res.truth)
                              for res in results)
        for name in common:
            ea = errors_a[:, res_a.names.index(name)]
            eb = errors_b[:, res_b.names.index(name)]
            va = float(ea.var(ddof=1)) if ea.size > 1 else np.nan
            vb = float(eb.var(ddof=1)) if eb.size > 1 else np.nan
            rows.append(
                EfficiencyRow(
                    n=n,
                    name=name,
                    var_a=va,
                    var_b=vb,
                    se_var_a=_bootstrap_var_se(ea, rng, N_BOOTSTRAP),
                    se_var_b=_bootstrap_var_se(eb, rng, N_BOOTSTRAP),
                    ratio=_ratio(va, vb),
                )
            )
    return EfficiencyReport(
        estimator_a=plan_a.estimator, estimator_b=plan_b.estimator, rows=tuple(rows)
    )


def anderson_darling_statistic(standardized: np.ndarray) -> float:
    """Anderson-Darling statistic against a fully specified N(0, 1) null."""
    x = np.sort(np.asarray(standardized, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 values")
    from scipy.special import ndtr
    u = np.clip(ndtr(x), 1e-15, 1.0 - 1e-15)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(u) + np.log(1.0 - u[::-1]))))


def _moment_ratios(z: np.ndarray) -> tuple[float, float]:
    """Biased skewness and excess kurtosis of a 1-D sample.

    Both are NaN below 2 values and when the sample is constant to machine
    precision.  The operations run in the order of ``scipy.stats.skew`` and
    ``scipy.stats.kurtosis``, so the results are theirs bit for bit.
    """
    if z.size < 2:
        return np.nan, np.nan
    mean = z.mean()
    d = z - mean
    d2 = d * d
    m2 = d2.mean()
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return np.nan, np.nan
    return float((d2 * d).mean() / m2**1.5), float((d2 * d2).mean() / m2**2.0 - 3.0)


@dataclass(frozen=True)
class NormalityCoordinate:
    n: int
    name: str
    skewness: float
    excess_kurtosis: float
    ad_statistic: float
    ad_pass_1pct: bool


@dataclass(frozen=True)
class NormalityReport:
    """Per-coordinate normality checks, the covariance disagreement per n,
    and per n the skewness of the raw news-impact slope estimates
    ``(alpha_k + beta_k)**2`` and ``(alpha_k - beta_k)**2`` (keys ``c+_k``,
    ``c-_k``): the coordinates in which the variance step is a least-squares
    fit, from which the reported loadings come by a square-root map."""

    coordinates: tuple[NormalityCoordinate, ...]
    cov_disagreement: dict[int, float]
    slope_skewness: dict[int, dict[str, float]]

    def to_dict(self) -> dict:
        return _fields(self)


def normality_diagnostics(result: ExperimentResult) -> NormalityReport:
    """Distributional diagnostics of the standardized estimates.

    Each coordinate is standardized replicate by replicate with its own
    estimated standard error, then checked for skewness, excess kurtosis and
    an Anderson-Darling statistic against N(0, 1).  The empirical covariance
    of the sqrt(n)-scaled errors is compared against the mean estimated
    asymptotic covariance; the disagreement is the largest elementwise gap
    relative to the estimated diagonal scale.  Only converged rows with
    all-finite estimates enter; a sample size with fewer than 2 of them gets
    NaN statistics.  The skewness of the slope estimates
    ``(alpha_k ± beta_k)**2`` is reported alongside as a diagnostic.
    """
    if result.plan.replicates < 100:
        raise ValueError("normality diagnostics need at least 100 replicates")
    coords = []
    disagreement: dict[int, float] = {}
    slope_skewness: dict[int, dict[str, float]] = {}
    for n in result.plan.sample_sizes:
        est, ses = _cell(result.rows, n, len(result.names))
        z = (est - result.truth) / ses
        for idx, name in enumerate(result.names):
            stat = anderson_darling_statistic(z[:, idx]) if len(z) > 1 else np.nan
            skewness, excess_kurtosis = _moment_ratios(z[:, idx])
            coords.append(
                NormalityCoordinate(
                    n=n,
                    name=name,
                    skewness=skewness,
                    excess_kurtosis=excess_kurtosis,
                    ad_statistic=stat,
                    ad_pass_1pct=stat < AD_CRITICAL_1PCT,
                )
            )
        slope_skewness[n] = {}
        for idx, name in enumerate(result.names):
            if not name.startswith("alpha_") or name == "alpha_0":
                continue
            lag = name[len("alpha_"):]
            beta = f"beta_{lag}"
            b = est[:, result.names.index(beta)] if beta in result.names else 0.0
            slope_skewness[n][f"c+_{lag}"] = _moment_ratios((est[:, idx] + b) ** 2)[0]
            slope_skewness[n][f"c-_{lag}"] = _moment_ratios((est[:, idx] - b) ** 2)[0]
        summary = result.summaries[n]
        if summary.mean_scaled_cov is not None:
            scale = np.sqrt(
                np.outer(
                    np.diag(summary.mean_scaled_cov), np.diag(summary.mean_scaled_cov)
                )
            )
            gap = np.abs(summary.cov_scaled - summary.mean_scaled_cov) / scale
            disagreement[n] = float(gap.max())
    return NormalityReport(
        coordinates=tuple(coords),
        cov_disagreement=disagreement,
        slope_skewness=slope_skewness,
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_header(plan: ExperimentPlan, names) -> list[str]:
    """The results CSV's columns: identifiers, convergence, estimates, SEs,
    and for a search the selected delay and one column per grid boundary."""
    header = ["n", "r", "seed", "converged", *names, *(f"se_{name}" for name in names)]
    grid = plan.grid
    if grid is not None:
        boundaries = (grid.boundaries if isinstance(grid, GridRecipe)
                      else len(grid.threshold_candidates))
        header += ["selected_delay", *(f"selected_threshold_{i + 1}" for i in range(boundaries))]
    return header


def results_to_csv(result: ExperimentResult, fh) -> None:
    """One raw row per replicate under :func:`_csv_header`'s columns."""
    header = _csv_header(result.plan, result.names)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in result.rows:
        record = [row.n, row.r, row.seed, int(row.converged)]
        record += [_fmt(v) for v in row.estimates]
        record += [_fmt(v) for v in row.std_errors]
        if result.plan.grid is not None:
            record += [row.selected_delay if row.selected_delay is not None else ""]
            record += [_fmt(t) for t in row.selected_thresholds or ()]
        writer.writerow(record + [""] * (len(header) - len(record)))


def summary_to_dict(result: ExperimentResult) -> dict:
    """Summary document with the full resolved plan for reproducibility."""
    return {
        "plan": result.plan.to_dict(),
        "failed": result.failed,
        "param_names": list(result.names),
        "truth": result.truth.tolist(),
        "cells": {str(n): _fields(result.summaries[n]) for n in result.plan.sample_sizes},
    }


def save_results(result: ExperimentResult, csv_path, json_path) -> None:
    with open(csv_path, "w", newline="") as fh:
        results_to_csv(result, fh)
    with open(json_path, "w") as fh:
        json.dump(summary_to_dict(result), fh, indent=2)
        fh.write("\n")


def load_results(csv_path, json_path) -> ExperimentResult:
    """Reload a results CSV and its summary JSON, as :func:`save_results`
    writes them.

    The result is rebuilt from the stored plan and the CSV's rows, taken in
    plan order (n, then r), as :func:`run_experiments` builds it: the names,
    the truth and each row's seed come from the plan.  The pair is accepted
    only if writing that result gives back the CSV byte for byte, so rows out
    of plan order are rejected, and every stored summary field is the
    rebuilt one exactly, compared as JSON text so that NaN equals NaN.
    Otherwise ``ValueError`` is raised, naming the row or field at fault.
    ``mean_scaled_cov`` is the one field taken from the JSON, because the
    rows' scaled covariances are not in the CSV; it is checked only for its
    ``(k, k)`` shape.  The ``normality`` entry of ``taraarch mc`` is not read.
    """
    with open(json_path) as fh:
        doc = json.load(fh)
    _document("summary", doc, ["plan", "failed", "param_names", "truth", "cells"], ["normality"])
    plan = ExperimentPlan.from_dict(doc["plan"])
    names = plan_param_names(plan)
    k = len(names)
    header = _csv_header(plan, names)
    with open(csv_path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""))
    if next(reader, []) != header:
        raise ValueError(f"results header is not the plan's: {','.join(header)}")
    rows = []
    for record in reader:
        if len(record) != len(header):
            more = "more" if len(record) > len(header) else "fewer"
            raise ValueError(f"results row {reader.line_num} has {more} fields than its header")
        n, r, converged = int(record[0]), int(record[1]), int(record[3])
        search = record[4 + 2 * k:]
        delay = thresholds = None
        if search and search[0] != "":
            delay = int(search[0])
            thresholds = tuple(float(t) for t in search[1:] if t != "")
        rows.append(ReplicateRow(n, r, mix_seed(plan.base_seed, n, r), bool(converged),
                                 np.array([float(v) for v in record[4:4 + k]]),
                                 np.array([float(v) for v in record[4 + k:4 + 2 * k]]),
                                 delay, thresholds))
    found = Counter((row.n, row.r) for row in rows)
    cells = Counter((n, r) for n in plan.sample_sizes for r in range(plan.replicates))
    for label, off in (("is not a cell of the plan, or repeats one", found - cells),
                       ("is missing", cells - found)):
        if off:
            n, r = min(off)
            raise ValueError(f"results row n={n}, r={r} {label}")
    rows.sort(key=lambda row: (row.n, row.r))
    result = _result(plan, tuple(rows))
    written = io.StringIO()
    results_to_csv(result, written)
    if written.getvalue() != text:
        raise ValueError("results file does not write back unchanged")
    fresh = summary_to_dict(result)
    for key in ("plan", "param_names", "truth", "failed"):
        if doc[key] != fresh[key]:
            raise ValueError(f"stored summary field {key!r} disagrees with the plan and its rows")
    _document("summary cells", doc["cells"], list(fresh["cells"]))
    for n in plan.sample_sizes:
        stored = doc["cells"][str(n)]
        _document(f"summary cell n={n}", stored, list(fresh["cells"][str(n)]))
        for key, value in fresh["cells"][str(n)].items():
            if key != "mean_scaled_cov" and json.dumps(stored[key]) != json.dumps(value):
                raise ValueError(f"stored summary field {key!r} at n={n} disagrees with raw rows")
        mean_scaled = stored["mean_scaled_cov"]
        if mean_scaled is not None:
            mean_scaled = np.asarray(mean_scaled, dtype=float)
            if mean_scaled.shape != (k, k):
                raise ValueError(f"stored mean_scaled_cov at n={n} has shape "
                                 f"{mean_scaled.shape}, not {(k, k)}")
            result.summaries[n] = replace(result.summaries[n], mean_scaled_cov=mean_scaled)
    return result

"""The public calls take only the options that the package, its command line
or its benchmark set; an option that none of them set is not accepted.  Every
exported name still imports."""

import dataclasses
import importlib

import pytest

from taraarch import (
    AarchParams,
    ExperimentPlan,
    ExperimentResult,
    FitReport,
    ModelSpec,
    SearchGrid,
    SimConfig,
    TarParams,
    ThresholdPartition,
    alpha_step,
    check_stationarity,
    efficiency_comparison,
    fit_alternating,
    gaussian_qll,
    simulate_path,
    symmetric_reference_spec,
    tar_arch_full_qmle,
)
from taraarch.estimation import SearchOutcome
from taraarch.montecarlo import CellSummary, ReplicateRow

SPEC = symmetric_reference_spec()
X = simulate_path(SPEC, SimConfig(n=300, seed=1)).series
PART = SPEC.partition
PLAN = ExperimentPlan(true_spec=SPEC, sample_sizes=(300,), replicates=2, base_seed=1)
FIT = fit_alternating(X, PART, 1, 1)

REMOVED = [
    ("fit_alternating", "init", lambda: fit_alternating(X, PART, 1, 1, init=SPEC)),
    ("fit_alternating", "max_outer", lambda: fit_alternating(X, PART, 1, 1, max_outer=2)),
    ("fit_alternating", "rel_tol", lambda: fit_alternating(X, PART, 1, 1, rel_tol=0.0)),
    ("alpha_step", "fit_lags",
     lambda: alpha_step(X, PART, SPEC.tar, SPEC.aarch, fit_lags=False)),
    ("gaussian_qll", "conditioning", lambda: gaussian_qll(SPEC, X, conditioning=10)),
    ("FitReport.to_json", "indent", lambda: FIT.to_json(indent=2)),
    ("tar_arch_full_qmle", "init", lambda: tar_arch_full_qmle(X, PART, 1, 1, init=SPEC)),
    ("check_stationarity", "warn", lambda: check_stationarity(SPEC, warn=False)),
    ("ModelSpec.to_json", "indent", lambda: SPEC.to_json(indent=2)),
    ("SimConfig", "init_values", lambda: SimConfig(n=10, seed=1, init_values=(1.0,))),
    ("efficiency_comparison", "workers",
     lambda: efficiency_comparison(PLAN, PLAN, (None, None), workers=2)),
    ("efficiency_comparison", "n_bootstrap",
     lambda: efficiency_comparison(PLAN, PLAN, (None, None), n_bootstrap=50)),
    # facts a record derives from its other fields
    ("ModelSpec", "p", lambda: ModelSpec(p=1, partition=PART, tar=SPEC.tar, aarch=SPEC.aarch)),
    ("ModelSpec", "q", lambda: ModelSpec(q=1, partition=PART, tar=SPEC.tar, aarch=SPEC.aarch)),
    ("ThresholdPartition", "regimes",
     lambda: ThresholdPartition(regimes=2, delay=1, thresholds=PART.thresholds)),
    ("FitReport", "iterations", lambda: FitReport(**vars(FIT), iterations=len(FIT.trace))),
    ("SearchOutcome", "partition",
     lambda: SearchOutcome(report=FIT, candidates=[], partition=PART)),
]


@pytest.mark.parametrize("keyword, call", [
    pytest.param(keyword, call, id=f"{name}-{keyword}") for name, keyword, call in REMOVED
])
def test_removed_option_raises_type_error(keyword, call):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        call()


def test_efficiency_comparison_needs_results():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'results'"):
        efficiency_comparison(PLAN, PLAN)


def test_removed_search_grid_from_series():
    # a quantile grid is a GridRecipe, which threshold_delay_search accepts
    assert not hasattr(SearchGrid, "from_series")


# The names the package and each module export; a simplification may remove
# an option, but not one of these names.
EXPORTS = {
    "taraarch": [
        "AarchParams", "ModelSpec", "TarParams", "ThresholdPartition", "TimeSeries",
        "check_stationarity", "conditional_mean", "news_impact", "param_names",
        "param_vector", "regime_index", "regime_indices", "replace_params", "residuals",
        "variance_path", "SimConfig", "SimulatedPath", "SimulationError",
        "box_cox_sqrt_transform", "log_return_transform", "mix_seed", "normal_stream",
        "relative_return_transform", "simulate_path", "ConvergenceError", "EstimationError",
        "FitReport", "GridRecipe", "SearchGrid", "alpha_score", "alpha_step",
        "concentrated_equation_residuals", "estimate_information", "fit_alternating",
        "gaussian_qll", "theta_step", "threshold_delay_search", "CannedSpec", "EgarchParams",
        "GarchParams", "arch_variance", "black_scholes_price", "canned_model_spec",
        "canned_specs", "egarch_log_variance", "egarch_shock_response", "garch_variance",
        "tar_arch_full_qmle", "ExperimentPlan", "ExperimentResult", "efficiency_comparison",
        "normality_diagnostics", "reference_spec", "run_experiment", "run_experiments",
        "symmetric_reference_spec",
    ],
    "taraarch.model": [
        "TimeSeries", "ThresholdPartition", "TarParams", "AarchParams", "ModelSpec",
        "regime_index", "regime_indices", "conditional_mean", "residuals", "variance_path",
        "news_impact", "check_stationarity", "param_names", "param_vector", "replace_params",
    ],
    "taraarch.simulate": [
        "SimConfig", "SimulatedPath", "SimulationError", "mix_seed", "normal_stream",
        "simulate_path", "log_return_transform", "relative_return_transform",
        "box_cox_sqrt_transform", "path_to_csv",
    ],
    "taraarch.estimation": [
        "EstimationError", "ConvergenceError", "FitReport", "SearchGrid", "GridRecipe",
        "SearchOutcome", "gaussian_qll", "theta_step", "alpha_step", "fit_alternating",
        "alpha_score", "concentrated_equation_residuals", "estimate_information",
        "threshold_delay_search",
    ],
    "taraarch.baselines": [
        "GarchParams", "EgarchParams", "CannedSpec", "arch_variance", "garch_variance",
        "egarch_shock_response", "egarch_log_variance", "canned_specs", "canned_model_spec",
        "black_scholes_price", "tar_arch_full_qmle",
    ],
    "taraarch.montecarlo": [
        "ExperimentPlan", "ExperimentResult", "ReplicateRow", "CellSummary", "GridRecipe",
        "run_experiment", "run_experiments", "efficiency_comparison", "EfficiencyReport",
        "normality_diagnostics", "NormalityReport", "anderson_darling_statistic",
        "reference_spec", "symmetric_reference_spec", "save_results", "load_results",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_exported_name_still_imports(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", EXPORTS[module])
    assert [name for name in EXPORTS[module] if name not in exported] == []
    assert [name for name in exported if not hasattr(mod, name)] == []


# The fields of every exported record, each an independently settable value;
# a fact the other fields determine is a property instead.  The benchmark
# constructs ReplicateRow, CellSummary and ExperimentResult.
RECORDS = {
    ModelSpec: ("partition", "tar", "aarch"),
    ThresholdPartition: ("delay", "thresholds"),
    TarParams: ("coefficients",),
    AarchParams: ("alpha0", "alphas", "betas"),
    FitReport: ("spec", "info_matrix", "sandwich_cov", "qll", "converged", "trace"),
    SearchOutcome: ("report", "candidates"),
    SimConfig: ("n", "seed", "burn_in"),
    ExperimentPlan: ("true_spec", "sample_sizes", "replicates", "base_seed", "estimator",
                     "grid", "burn_in"),
    ReplicateRow: ("n", "r", "seed", "converged", "estimates", "std_errors", "selected_delay",
                   "selected_thresholds", "scaled_cov"),
    CellSummary: ("n", "n_total", "n_converged", "nonconverged_rate", "bias", "rmse",
                  "cov_scaled", "coverage", "mean_scaled_cov", "delay_mode",
                  "threshold_medians"),
    ExperimentResult: ("plan", "names", "truth", "rows", "summaries", "failed"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_fields(record):
    assert tuple(field.name for field in dataclasses.fields(record)) == RECORDS[record]

"""Threshold autoregression with asymmetric ARCH errors.

Simulation, two-step concentrated quasi-maximum-likelihood estimation,
threshold/delay selection, reference recursions, and a Monte Carlo harness
for verifying the estimator's large-sample behavior.
"""

from .model import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    TimeSeries,
    check_stationarity,
    conditional_mean,
    news_impact,
    param_names,
    param_vector,
    regime_index,
    regime_indices,
    replace_params,
    residuals,
    variance_path,
)
from .simulate import (
    SimConfig,
    SimulatedPath,
    SimulationError,
    box_cox_sqrt_transform,
    log_return_transform,
    mix_seed,
    normal_stream,
    relative_return_transform,
    simulate_path,
)
from .estimation import (
    ConvergenceError,
    EstimationError,
    FitReport,
    GridRecipe,
    SearchGrid,
    alpha_score,
    alpha_step,
    concentrated_equation_residuals,
    estimate_information,
    fit_alternating,
    gaussian_qll,
    theta_step,
    threshold_delay_search,
)
from .baselines import (
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
)
from .montecarlo import (
    ExperimentPlan,
    ExperimentResult,
    efficiency_comparison,
    normality_diagnostics,
    reference_spec,
    run_experiment,
    run_experiments,
    symmetric_reference_spec,
)

__version__ = "0.1.0"

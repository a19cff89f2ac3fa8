"""The public calls take only the options that the package, its command line
or its benchmark set; an option that none of them set is not accepted."""

import pytest

from taraarch import (
    ExperimentPlan,
    SearchGrid,
    SimConfig,
    alpha_step,
    check_stationarity,
    efficiency_comparison,
    fit_alternating,
    gaussian_qll,
    simulate_path,
    symmetric_reference_spec,
    tar_arch_full_qmle,
)

SPEC = symmetric_reference_spec()
X = simulate_path(SPEC, SimConfig(n=300, seed=1)).series
PART = SPEC.partition
PLAN = ExperimentPlan(true_spec=SPEC, sample_sizes=(300,), replicates=2, base_seed=1)

REMOVED = [
    ("fit_alternating", "init", lambda: fit_alternating(X, PART, 1, 1, init=SPEC)),
    ("fit_alternating", "max_outer", lambda: fit_alternating(X, PART, 1, 1, max_outer=2)),
    ("fit_alternating", "rel_tol", lambda: fit_alternating(X, PART, 1, 1, rel_tol=0.0)),
    ("alpha_step", "fit_lags",
     lambda: alpha_step(X, PART, SPEC.tar, SPEC.aarch, fit_lags=False)),
    ("gaussian_qll", "conditioning", lambda: gaussian_qll(SPEC, X, conditioning=10)),
    ("FitReport.to_json", "indent",
     lambda: fit_alternating(X, PART, 1, 1).to_json(indent=2)),
    ("tar_arch_full_qmle", "init", lambda: tar_arch_full_qmle(X, PART, 1, 1, init=SPEC)),
    ("check_stationarity", "warn", lambda: check_stationarity(SPEC, warn=False)),
    ("ModelSpec.to_json", "indent", lambda: SPEC.to_json(indent=2)),
    ("SimConfig", "init_values", lambda: SimConfig(n=10, seed=1, init_values=(1.0,))),
    ("efficiency_comparison", "workers",
     lambda: efficiency_comparison(PLAN, PLAN, (None, None), workers=2)),
    ("efficiency_comparison", "n_bootstrap",
     lambda: efficiency_comparison(PLAN, PLAN, (None, None), n_bootstrap=50)),
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

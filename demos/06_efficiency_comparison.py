"""Concentrated two-step estimator vs full joint QMLE on symmetric errors.

With the asymmetric loadings pinned at zero the full Gaussian QMLE is
tractable, which gives a yardstick: the two-step estimator pays a small
efficiency price on the mean parameters and essentially none on the variance
parameters.
"""

from taraarch import (
    ExperimentPlan, efficiency_comparison, run_experiments, symmetric_reference_spec,
)

sym = symmetric_reference_spec()
plan_two_step = ExperimentPlan(
    true_spec=sym, sample_sizes=(2000,), replicates=120,
    base_seed=5150, estimator="concentrated",
)
plan_full = ExperimentPlan(
    true_spec=sym, sample_sizes=(2000,), replicates=120,
    base_seed=5150, estimator="full_symmetric",
)
# one simulated path per replicate, fitted by both estimators
results = run_experiments((plan_two_step, plan_full), workers=2)
report = efficiency_comparison(plan_two_step, plan_full, results)

print("variance of sqrt(n) * (estimate - truth), 120 replicates at n = 2000\n")
print(f"{'parameter':>10} {'two-step':>10} {'full':>10} {'ratio':>7}")
for row in report.rows:
    print(f"{row.name:>10} {row.var_a:10.4f} {row.var_b:10.4f} {row.ratio:7.3f}")
print("\nmean-parameter ratios sit a little above 1 (the efficiency cost of")
print("concentrating); variance-parameter ratios sit at 1 within noise.")

"""Traced replay of an mc call, in process and with one worker.

For each replicate the replay makes the public calls that the Monte Carlo
harness makes for it, in the same order and with the same seeds, each inside
a span: ``simulate_path``, then ``fit_alternating(compute_se=False)`` and
``estimate_information``, or ``threshold_delay_search``, or
``tar_arch_full_qmle``.  After the replicate it runs single-step probes from
a fixed starting point, the plan's true parameters, as separate top-level
spans so they never count toward replicate time:

* ``model.residuals`` of the true model on the simulated series;
* ``model.variance_path`` of the true variance parameters on those residuals,
  with their sample variance as the presample variance;
* ``estimation.theta_step`` from the true parameters;
* ``estimation.alpha_step`` from the true parameters.

Workloads whose plan does not search also get one ``threshold_delay_search``
of a lynx replicate per pass, a top-level span as well (see ``probe_search``).
Finally ``cli.persist`` times what the mc command does after the experiment:
summaries, normality or efficiency reports, and the result files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from taraarch import (
    ConvergenceError,
    EstimationError,
    SimConfig,
    SimulationError,
    alpha_step,
    estimate_information,
    fit_alternating,
    mix_seed,
    param_vector,
    residuals,
    simulate_path,
    tar_arch_full_qmle,
    theta_step,
    threshold_delay_search,
    variance_path,
)
from taraarch import montecarlo
from taraarch.montecarlo import ExperimentPlan, GridRecipe, plan_param_names
from workloads import output_files

# The exceptions the harness records as a non-converged replicate.
REPLICATE_FAILURES = (
    ConvergenceError,
    EstimationError,
    SimulationError,
    ValueError,
    np.linalg.LinAlgError,
)
# The model kernels take microseconds, so each is timed several times.
KERNEL_REPEATS = 5


@dataclass
class Counters:
    """Counts taken where the work happens, alongside the spans."""

    outer_iterations: list[int] = field(default_factory=list)
    searches: int = 0
    candidates: int = 0
    converged_candidates: int = 0


def experiment_plans(plan_doc: dict) -> dict[str, ExperimentPlan]:
    """The plans the mc command builds from a plan document, per estimator."""
    if plan_doc.get("estimator") == "both":
        return {
            est: ExperimentPlan.from_dict({**plan_doc, "estimator": est})
            for est in ("concentrated", "full_symmetric")
        }
    plan = ExperimentPlan.from_dict(plan_doc)
    return {plan.estimator: plan}


def replay(tracer, plans: dict[str, ExperimentPlan], counters: Counters) -> dict[str, list[dict]]:
    """Run every replicate of ``plans`` under spans; return the row records."""
    records: dict[str, list[dict]] = {}
    probe_estimator = next(iter(plans))
    for est, plan in plans.items():
        records[est] = []
        for n in plan.sample_sizes:
            for r in range(plan.replicates):
                rid = f"{est}:{n}:{r}"
                with tracer.span("montecarlo.replicate", replicate=rid):
                    record, series = _replicate(tracer, plan, n, r, counters)
                records[est].append(record)
                if est == probe_estimator and series is not None:
                    _probe(tracer, plan.true_spec, series, rid)
    return records


def _replicate(tracer, plan: ExperimentPlan, n: int, r: int, counters: Counters):
    spec = plan.true_spec
    k = len(plan_param_names(plan))
    record = {
        "n": n,
        "r": r,
        "estimates": [float("nan")] * k,
        "selected_delay": None,
        "selected_thresholds": None,
    }
    series = None
    try:
        with tracer.span("simulate.simulate_path"):
            sim = simulate_path(
                spec, SimConfig(n=n, seed=mix_seed(plan.base_seed, n, r), burn_in=plan.burn_in)
            )
        series = sim.series
        if plan.grid is not None:
            outcome = _search(tracer, plan, series, counters)
            record["selected_delay"] = outcome.partition.delay
            record["selected_thresholds"] = [float(t) for t in outcome.partition.thresholds]
            if outcome.partition.regimes != spec.partition.regimes:
                return record, series
            report = outcome.report
        elif plan.estimator == "concentrated":
            with tracer.span("estimation.fit_alternating"):
                report = fit_alternating(
                    series, spec.partition, spec.p, spec.q, compute_se=False
                )
            counters.outer_iterations.append(report.iterations)
            with tracer.span("estimation.estimate_information"):
                estimate_information(series, report.spec)
        else:
            with tracer.span("baselines.tar_arch_full_qmle"):
                report = tar_arch_full_qmle(series, spec.partition, spec.p, spec.q)
        record["estimates"] = [float(v) for v in param_vector(report.spec)[:k]]
    except REPLICATE_FAILURES:
        pass  # the row keeps NaN estimates and no selection, as the harness records it
    return record, series


def _search(tracer, plan: ExperimentPlan, series, counters: Counters, rid=None):
    spec = plan.true_spec
    grid = plan.grid.materialize(series) if isinstance(plan.grid, GridRecipe) else plan.grid
    with tracer.span("estimation.threshold_delay_search", replicate=rid):
        outcome = threshold_delay_search(series, spec.p, spec.q, grid)
    counters.searches += 1
    counters.candidates += len(outcome.candidates)
    counters.converged_candidates += sum(c["converged"] for c in outcome.candidates)
    return outcome


def probe_search(tracer, plan: ExperimentPlan, r: int, counters: Counters) -> None:
    """Replicate ``r`` of a search plan, simulated untimed and searched in a
    top-level span: the search layer's probe for workloads that do not search."""
    n = plan.sample_sizes[0]
    sim = simulate_path(
        plan.true_spec, SimConfig(n=n, seed=mix_seed(plan.base_seed, n, r), burn_in=plan.burn_in)
    )
    _search(tracer, plan, sim.series, counters, rid=f"search_probe:{n}:{r}")


def _probe(tracer, spec, series, rid: str) -> None:
    for _ in range(KERNEL_REPEATS):
        with tracer.span("model.residuals", replicate=rid):
            e = residuals(spec, series)
    presample = float(e.var())
    for _ in range(KERNEL_REPEATS):
        with tracer.span("model.variance_path", replicate=rid):
            variance_path(spec.aarch, e, presample_h=presample)
    with tracer.span("estimation.theta_step", replicate=rid):
        theta_step(series, spec.partition, spec.aarch, spec.tar)
    with tracer.span("estimation.alpha_step", replicate=rid):
        alpha_step(series, spec.partition, spec.tar, spec.aarch)


def persist(results: dict, plans: dict[str, ExperimentPlan], plan_doc: dict, prefix: str) -> None:
    """What the mc command does once its experiments have run."""
    files = output_files(plan_doc, prefix)
    if len(results) == 2:
        res_a, res_b = results["concentrated"], results["full_symmetric"]
        report = montecarlo.efficiency_comparison(
            plans["concentrated"], plans["full_symmetric"], results=(res_a, res_b)
        )
        for est, res in results.items():
            montecarlo.save_results(res, *files[est])
        summary = {
            "efficiency": report.to_dict(),
            "concentrated": montecarlo.summary_to_dict(res_a),
            "full_symmetric": montecarlo.summary_to_dict(res_b),
        }
        summary_path = f"{prefix}_summary.json"
    else:
        (est, result), = results.items()
        summary = montecarlo.summary_to_dict(result)
        if result.plan.replicates >= 100:
            summary["normality"] = montecarlo.normality_diagnostics(result).to_dict()
        montecarlo.save_results(result, *files[est])
        summary_path = files[est][1]
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

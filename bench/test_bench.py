"""Tests of the benchmark's own logic.

Run with ``python -m pytest bench/test_bench.py``; the repository's test
suite collects only ``tests/``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import program

program.locate()

import checks  # noqa: E402
import replay  # noqa: E402
from taraarch.montecarlo import (  # noqa: E402
    CellSummary,
    ExperimentResult,
    ReplicateRow,
    plan_param_names,
)
from tracing import Span, Tracer, self_times, tail  # noqa: E402
from workloads import WORKLOADS, derive_plan  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_derivation_is_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    first, again, other = derive_plan(workload, 7), derive_plan(workload, 7), derive_plan(workload, 8)
    assert first == again
    assert first["base_seed"] == 7 and other["base_seed"] == 8
    assert {k: v for k, v in first.items() if k != "base_seed"} == {
        k: v for k, v in other.items() if k != "base_seed"
    }
    assert first["sample_sizes"] == [workload.sample_size]
    assert first["replicates"] == workload.replicates
    for plan in replay.experiment_plans(first).values():
        assert plan.base_seed == 7


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("replicate", 0.0, 10.0, None, "r0"),
        Span("fit", 1.0, 3.0, 0, "r0"),
        Span("overlapping", 2.0, 5.0, 0, "r0"),
        Span("overhanging", 9.0, 12.0, 0, "r0"),
        Span("grandchild", 1.5, 2.5, 1, "r0"),
        Span("probe", 20.0, 21.0, None, "r0"),
    ]
    own = self_times(spans)
    # children cover [1, 5] and [9, 10] of the parent's [0, 10]
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2:4] == pytest.approx([3.0, 3.0])
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


def test_tracer_nests_spans_and_inherits_the_replicate_id():
    tracer = Tracer()
    with tracer.span("replicate", replicate="c:16000:3"):
        with tracer.span("fit"):
            pass
    with tracer.span("probe"):
        pass
    outer, inner, probe = tracer.spans
    assert (outer.parent, inner.parent, probe.parent) == (None, 0, None)
    assert inner.replicate == "c:16000:3" and probe.replicate is None
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tail_is_the_highest_order_statistic_with_ten_samples_above_it():
    values = [float(v) for v in range(1, 21)]
    assert tail(values) == 10.0
    assert tail(values[:11]) == 1.0
    assert tail(values[:5]) == 5.0


def _row(r, converged, estimates):
    k = len(estimates)
    return ReplicateRow(
        n=500, r=r, seed=r, converged=converged,
        estimates=np.asarray(estimates, dtype=float), std_errors=np.full(k, 0.1),
    )


def test_classifier_counts_a_converged_row_with_nan_estimates_as_regime_mismatch():
    plan = replay.experiment_plans(derive_plan(WORKLOADS["lynx_search_w2"], 3))["concentrated"]
    k = 9
    rows = (
        _row(0, True, [0.5] * k),
        _row(1, False, [math.nan] * k),
        _row(2, True, [math.nan] * k),
    )
    result = ExperimentResult(
        plan=plan, names=tuple(f"c{i}" for i in range(k)), truth=np.zeros(k),
        rows=rows, summaries={}, failed=False,
    )
    assert [checks.classify(row) for row in result.rows] == [
        checks.OK, checks.NONCONVERGED, checks.REGIME_MISMATCH,
    ]
    assert checks.outcome_counts(result.rows) == {
        checks.OK: 1, checks.NONCONVERGED: 1, checks.REGIME_MISMATCH: 1,
    }


def test_reference_records_match_within_the_tolerance_only():
    want = {"n": 500, "r": 0, "estimates": [1.0, math.nan], "selected_delay": 2,
            "selected_thresholds": [3.25]}
    near = {**want, "estimates": [1.0 + 5e-8, math.nan]}
    far = {**want, "estimates": [1.0 + 5e-7, math.nan]}
    other_delay = {**want, "selected_delay": 1}
    assert checks.records_match(near, want)
    assert not checks.records_match(far, want)
    assert not checks.records_match(other_delay, want)


def test_sanity_flags_a_biased_interior_coordinate_but_not_a_boundary_loading():
    plan = replay.experiment_plans(derive_plan(WORKLOADS["lynx_search_w2"], 3))["concentrated"]
    names = tuple(plan_param_names(plan))
    k = len(names)
    bias, rmse = np.full(k, 0.01), np.full(k, 0.1)
    bias[names.index("alpha_1")] = rmse[names.index("alpha_1")]  # true value 0: boundary
    cell = CellSummary(
        n=500, n_total=16, n_converged=16, nonconverged_rate=0.0, bias=bias, rmse=rmse,
        cov_scaled=np.eye(k), coverage=np.full(k, 0.95), mean_scaled_cov=None, delay_mode=2,
    )
    result = ExperimentResult(plan=plan, names=names, truth=np.zeros(k), rows=(),
                              summaries={500: cell}, failed=False)
    assert checks.sanity_misses(result, expect_delay=2) == []
    bias[names.index("phi_1_1")] = 0.095
    misses = checks.sanity_misses(result, expect_delay=1)
    assert len(misses) == 2 and "phi_1_1" in misses[0] and "modal delay" in misses[1]

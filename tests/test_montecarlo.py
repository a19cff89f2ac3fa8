import ast
import ctypes
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from taraarch import montecarlo
from taraarch.montecarlo import (
    EfficiencyReport,
    EfficiencyRow,
    ExperimentPlan,
    ExperimentResult,
    GridRecipe,
    NormalityCoordinate,
    NormalityReport,
    ReplicateRow,
    _bootstrap_var_se,
    _loaded_openblas,
    _moment_ratios,
    _ratio,
    _row_without_estimates,
    _summarize,
    anderson_darling_statistic,
    efficiency_comparison,
    load_results,
    normality_diagnostics,
    reference_spec,
    results_to_csv,
    run_experiment,
    run_experiments,
    save_results,
    summary_to_dict,
)
from scipy.stats import kurtosis, skew

from taraarch import estimation
from taraarch.estimation import ConvergenceError, EstimationError, SearchGrid
from taraarch.model import param_names, param_vector
from taraarch.simulate import SimulationError, mix_seed, normal_stream

from conftest import PLANS

WORKERS = min(2, os.cpu_count() or 1)
HEADER = ("n,r,seed,converged,phi_1_0,phi_1_1,phi_2_0,phi_2_1,alpha_0,alpha_1,beta_1,"
          "se_phi_1_0,se_phi_1_1,se_phi_2_0,se_phi_2_1,se_alpha_0,se_alpha_1,se_beta_1")
FIXED_GRID = {"type": "fixed", "delays": [1, 2, 3], "threshold_candidates": [[3.25]]}


def blas_threads() -> list[int]:
    """Thread count of every OpenBLAS loaded in this process."""
    counts = []
    for lib, suffix in _loaded_openblas():
        getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts.append(getter())
    return counts


def set_blas_threads(counts) -> None:
    for (lib, suffix), count in zip(_loaded_openblas(), counts):
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(count)


@pytest.fixture
def blas_at_two_threads():
    """Every loaded OpenBLAS on two threads for the test, so a count left at
    one (or a worker's helper threads) shows whatever the environment set."""
    before = blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded in this process")
    set_blas_threads([2] * len(before))
    yield
    set_blas_threads(before)


_REPLICATE_TASK = montecarlo._replicate_task


def task_checking_blas_threads(args):
    """Pool task that refuses to run unless every OpenBLAS has one thread."""
    threads = blas_threads()
    if threads != [1] * len(threads):
        raise RuntimeError(f"pool worker runs BLAS on {threads} threads")
    return _REPLICATE_TASK(args)


def task_counting_os_threads(args):
    """Pool task that reports its process's OS thread count, after the
    replicate's fits, in place of each row's seed."""
    rows = _REPLICATE_TASK(args)
    threads = len(os.listdir("/proc/self/task"))
    return tuple(replace(row, seed=threads) for row in rows)


def task_failing(args):
    raise RuntimeError(f"replicate {args[2]} failed")


def set_field(lines, line, column, value):
    """``lines`` with one CSV field replaced; ``line`` counts from 1."""
    fields = lines[line - 1].split(",")
    fields[column] = value
    return lines[:line - 1] + [",".join(fields)] + lines[line:]


def small_plan(replicates=6, n=(300,), seed=101, **kwargs):
    return ExperimentPlan(
        true_spec=reference_spec(),
        sample_sizes=n,
        replicates=replicates,
        base_seed=seed,
        **kwargs,
    )


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            small_plan(n=(400, 400))
        with pytest.raises(ValueError, match="replicates"):
            small_plan(replicates=0)
        with pytest.raises(ValueError, match="estimator"):
            small_plan(estimator="bogus")
        with pytest.raises(ValueError, match="symmetric"):
            small_plan(estimator="full_symmetric")
        with pytest.raises(ValueError, match=r"exceed max\(p, q, d\) = 1, got 1"):
            small_plan(n=(1, 300))
        assert small_plan(n=(2,)).sample_sizes == (2,)

    def test_full_symmetric_plan_with_a_grid_is_rejected(self, sym_spec):
        # the search fits only the concentrated estimator
        for grid in (GridRecipe(delays=(1,)),
                     SearchGrid(delay_candidates=(1,), threshold_candidates=((0.0,),))):
            with pytest.raises(ValueError, match="full_symmetric estimator takes no grid"):
                ExperimentPlan(true_spec=sym_spec, sample_sizes=(400,), replicates=1,
                               base_seed=1, estimator="full_symmetric", grid=grid)
            ExperimentPlan(true_spec=sym_spec, sample_sizes=(400,), replicates=1,
                           base_seed=1, grid=grid)

    @pytest.mark.parametrize("key, value, name", [
        ("replicates", 2.7, "replicates"),
        ("burn_in", 0.9, "burn_in"),
        ("base_seed", 1.5, "base_seed"),
        ("sample_sizes", [4000.9, 8000], "sample_sizes"),
        ("replicates", True, "replicates"),
        ("replicates", "3", "replicates"),
        ("grid", {"type": "quantile", "delays": [1.5]}, "delays"),
        ("grid", {"type": "quantile", "delays": [True]}, "delays"),
        ("grid", {"type": "quantile", "delays": [1], "boundaries": 1.2}, "boundaries"),
        ("grid", {**FIXED_GRID, "delays": [1.5]}, "delays"),
        ("grid", {**FIXED_GRID, "delays": [True]}, "delays"),
        ("grid", {**FIXED_GRID, "delays": ["2"]}, "delays"),
    ])
    def test_fractional_bool_or_string_number_is_rejected(self, key, value, name):
        doc = {**small_plan().to_dict(), key: value}
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got"):
            ExperimentPlan.from_dict(doc)

    @pytest.mark.parametrize("grid, key", [
        ({"step": 0}, "step"),
        ({"step": -0.1}, "step"),
        ({"lo": 0.95}, "lo"),
        ({"min_regime_fraction": 0.7}, "min_regime_fraction"),
        ({"boundaries": 0}, "boundaries"),
        ({"delays": [0]}, "delays"),
        ({"hi": 1.5}, "hi"),
        ({"include_single_regime": "false"}, "include_single_regime"),
        ({**FIXED_GRID, "include_single_regime": "false"}, "include_single_regime"),
        ({**FIXED_GRID, "delays": [1.5]}, "delays"),
        ({**FIXED_GRID, "delays": [True]}, "delays"),
    ])
    def test_bad_grid_value_is_rejected_when_the_plan_loads(self, grid, key):
        doc = json.loads((PLANS / "search_lynx.json").read_text())
        doc["grid"] = grid if "type" in grid else {**doc["grid"], **grid}
        with pytest.raises(ValueError, match=key):
            ExperimentPlan.from_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("sample_sizes", 300, "sample_sizes must be a list of whole numbers, got 300"),
        ("sample_sizes", "300", "sample_sizes must be a list of whole numbers, got '300'"),
        ("grid", "x", "grid must be an object, got 'x'"),
        ("grid", [], r"grid must be an object, got \[\]"),
        ("true_spec", 5, "true_spec must be an object, got 5"),
        ("true_spec", [], r"true_spec must be an object, got \[\]"),
    ])
    def test_malformed_document_is_rejected(self, key, value, message):
        doc = {**small_plan().to_dict(), key: value}
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_dict(doc)

    @pytest.mark.parametrize("name", sorted(path.name for path in PLANS.glob("*.json")))
    def test_committed_plan_writes_back_its_file(self, name):
        text = (PLANS / name).read_text()
        plan = ExperimentPlan.from_dict(json.loads(text))
        assert json.dumps(plan.to_dict(), indent=2) + "\n" == text

    def test_whole_floats_load_as_ints(self):
        doc = {**small_plan().to_dict(), "replicates": 6.0, "sample_sizes": [300.0],
               "grid": {"type": "quantile", "delays": [1.0, 2], "boundaries": 1.0}}
        plan = small_plan(grid=GridRecipe(delays=(1, 2)))
        assert json.dumps(ExperimentPlan.from_dict(doc).to_dict()) == json.dumps(plan.to_dict())

    def test_unknown_plan_key_is_rejected(self):
        doc = small_plan().to_dict()
        del doc["burn_in"]
        doc["burnin"] = 0  # not to run with the default burn_in of 500
        with pytest.raises(ValueError, match="unknown plan key\\(s\\): burnin"):
            ExperimentPlan.from_dict(doc)

    def test_negative_burn_in_is_rejected_by_the_plan(self):
        with pytest.raises(ValueError, match="burn_in must be >= 0, got -1"):
            small_plan(burn_in=-1)

    def test_json_round_trip(self):
        plan = small_plan(grid=GridRecipe(delays=(1, 2)))
        again = ExperimentPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again.to_dict() == plan.to_dict()
        fixed = small_plan(
            grid=SearchGrid(delay_candidates=(1,), threshold_candidates=((0.0, 1.0),))
        )
        again = ExperimentPlan.from_dict(json.loads(json.dumps(fixed.to_dict())))
        assert again.to_dict() == fixed.to_dict()

    def test_persisted_key_order(self):
        doc = small_plan(grid=GridRecipe(delays=(1, 2))).to_dict()
        assert list(doc) == [
            "true_spec", "sample_sizes", "replicates", "base_seed", "estimator", "grid",
            "burn_in",
        ]
        assert list(doc["grid"]) == [
            "type", "delays", "boundaries", "lo", "hi", "step", "min_regime_fraction",
            "include_single_regime",
        ]
        fixed = small_plan(
            grid=SearchGrid(delay_candidates=(1,), threshold_candidates=((0.0,),))
        ).to_dict()["grid"]
        assert list(fixed) == [
            "type", "delays", "threshold_candidates", "min_regime_fraction",
            "include_single_regime",
        ]

    def test_sparse_quantile_grid_takes_field_defaults(self):
        doc = small_plan().to_dict()
        doc["grid"] = {"type": "quantile", "delays": [2], "lo": 0}
        plan = ExperimentPlan.from_dict(doc)
        assert plan.grid == GridRecipe(delays=(2,), lo=0.0)
        assert '"lo": 0.0,' in json.dumps(plan.to_dict())

    @pytest.mark.parametrize("grid", [
        {"type": "quantile", "delays": [1], "setp": 0.05},
        {"type": "fixed", "delays": [1], "threshold_candidates": [[0.0]], "setp": 0.05},
    ])
    def test_unknown_grid_key_is_rejected(self, grid):
        doc = {**small_plan().to_dict(), "grid": grid}
        with pytest.raises(ValueError, match="setp"):
            ExperimentPlan.from_dict(doc)

    @pytest.mark.parametrize("grid, match", [
        ({"type": "bogus", "delays": [1], "threshold_candidates": [[0.0]]},
         "'quantile' or 'fixed', got 'bogus'"),
        ({"delays": [1], "threshold_candidates": [[0.0]]}, "'quantile' or 'fixed', got None"),
        ({"type": "fixed", "threshold_candidates": [[0.0]]}, "delay_candidates"),
    ])
    def test_unknown_grid_type_or_missing_delays_is_rejected(self, grid, match):
        doc = {**small_plan().to_dict(), "grid": grid}
        with pytest.raises(ValueError, match=match):
            ExperimentPlan.from_dict(doc)


class TestRunExperiment:
    def test_deterministic_across_runs_and_workers(self):
        plan = small_plan()
        serial = run_experiment(plan, workers=1)
        parallel = run_experiment(plan, workers=WORKERS)
        assert serial.names == parallel.names
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.n, a.r, a.seed, a.converged) == (b.n, b.r, b.seed, b.converged)
            np.testing.assert_array_equal(a.estimates, b.estimates)
            np.testing.assert_array_equal(a.std_errors, b.std_errors)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        results_to_csv(serial, buf_a)
        results_to_csv(parallel, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_pool_workers_run_single_threaded_blas(self, monkeypatch, blas_at_two_threads):
        monkeypatch.setattr(montecarlo, "_replicate_task", task_checking_blas_threads)
        res = run_experiment(small_plan(replicates=2), workers=2)
        assert [row.converged for row in res.rows] == [True, True]
        assert set(blas_threads()) == {1}  # the caller stays pinned

    def test_pool_workers_start_no_blas_threads(self, monkeypatch, sym_spec,
                                                blas_at_two_threads):
        # A worker that sets OpenBLAS to one thread after fork first starts
        # the library's helper threads, one per library, and they busy-wait.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads in")
        monkeypatch.setattr(montecarlo, "_replicate_task", task_counting_os_threads)
        plan = ExperimentPlan(true_spec=sym_spec, sample_sizes=(300,), replicates=4,
                              base_seed=7, estimator="both")
        for res in run_experiments(plan, workers=2):
            assert [row.seed for row in res.rows] == [1] * 4

    def test_serial_run_is_single_threaded_blas(self, monkeypatch, blas_at_two_threads):
        monkeypatch.setattr(montecarlo, "_replicate_task", task_checking_blas_threads)
        res = run_experiment(small_plan(replicates=2), workers=1)
        assert [row.converged for row in res.rows] == [True, True]
        assert set(blas_threads()) == {1}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blas_threads_stay_pinned_after_a_raising_run(self, monkeypatch, workers,
                                                          blas_at_two_threads):
        monkeypatch.setattr(montecarlo, "_replicate_task", task_failing)
        with pytest.raises(RuntimeError, match="replicate 0 failed"):
            run_experiment(small_plan(replicates=2), workers=workers)
        assert set(blas_threads()) == {1}

    @pytest.mark.parametrize("workers, replicates, size", [(64, 2, 2), (2, 3, 2)])
    def test_pool_has_at_most_one_worker_per_replicate(self, monkeypatch, workers,
                                                        replicates, size):
        # a forking pool starts all its workers at the first task, so the
        # size is read from a stand-in that runs the tasks in this process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        res = run_experiment(small_plan(replicates=replicates), workers=workers)
        assert sizes == [size]
        assert [row.r for row in res.rows] == list(range(replicates))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(small_plan(replicates=1), workers=workers)

    def test_single_replicate_smoke(self):
        res = run_experiment(small_plan(replicates=1))
        assert len(res.rows) == 1
        assert res.rows[0].converged
        assert not res.failed

    def test_seed_derivation_contract(self):
        res = run_experiment(small_plan(replicates=3))
        for row in res.rows:
            assert row.seed == mix_seed(101, row.n, row.r)

    def test_save_load_round_trip(self, tmp_path):
        res = run_experiment(small_plan(replicates=4))
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        save_results(res, csv_path, json_path)
        again = load_results(csv_path, json_path)
        assert again.names == res.names
        for a, b in zip(again.rows, res.rows):
            np.testing.assert_array_equal(a.estimates, b.estimates)
        # byte-stable re-serialization
        buf = io.StringIO()
        results_to_csv(again, buf)
        assert buf.getvalue() == csv_path.read_text()

    def test_load_detects_tampered_summary(self, tmp_path):
        res = run_experiment(small_plan(replicates=4))
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        save_results(res, csv_path, json_path)
        doc = json.loads(json_path.read_text())
        doc["cells"]["300"]["bias"][0] += 0.5
        json_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="disagrees"):
            load_results(csv_path, json_path)

    @pytest.mark.parametrize("value, shape", [
        ([[2.0]], (1, 1)), (np.eye(6).tolist(), (6, 6)), ([2.0] * 7, (7,)), (2.0, ()),
    ])
    def test_load_rejects_mean_scaled_cov_of_the_wrong_shape(self, tmp_path, value, shape):
        # the one summary field not recomputed from the rows: a 1 x 1 matrix
        # would broadcast in normality_diagnostics without an error
        res = run_experiment(small_plan(replicates=4))
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        save_results(res, csv_path, json_path)
        doc = json.loads(json_path.read_text())
        assert np.shape(doc["cells"]["300"]["mean_scaled_cov"]) == (7, 7)
        doc["cells"]["300"]["mean_scaled_cov"] = value
        json_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            load_results(csv_path, json_path)
        assert str(excinfo.value) == (
            f"stored mean_scaled_cov at n=300 has shape {shape}, not (7, 7)")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines + ["300,4,1,0" + ",nan" * 14],
         "results row n=300, r=4 is not a cell of the plan, or repeats one"),
        (lambda lines: lines + [lines[2]],
         "results row n=300, r=1 is not a cell of the plan, or repeats one"),
        (lambda lines: lines[:-1], "results row n=300, r=3 is missing"),
        (lambda lines: lines[:2] + [lines[2] + ",0.5"] + lines[3:],
         "results row 3 has more fields than its header"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "results row 3 has fewer fields than its header"),
        (lambda lines: [line.rsplit(",", 1)[0] for line in lines],
         f"results header is not the plan's: {HEADER}"),
        (lambda lines: [line + ",0.5" for line in lines],
         f"results header is not the plan's: {HEADER}"),
        (lambda lines: [lines[0].replace("alpha_0", "omega")] + lines[1:],
         f"results header is not the plan's: {HEADER}"),
        (lambda lines: set_field(lines, 3, 3, "2"), "results file does not write back unchanged"),
        (lambda lines: set_field(lines, 3, 2, "1"), "results file does not write back unchanged"),
    ], ids=["extra", "repeated", "missing", "long", "short", "missing_column", "extra_column",
            "renamed_column", "converged_2", "seed"])
    def test_load_rejects_rows_that_are_not_the_plans_cells(self, tmp_path, edit, message):
        res = run_experiment(small_plan(replicates=4))
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        save_results(res, csv_path, json_path)
        csv_path.write_text("\n".join(edit(csv_path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_results(csv_path, json_path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["param_names"].pop(),
         "stored summary field 'param_names' disagrees with the plan and its rows"),
        (lambda doc: doc["truth"].__setitem__(0, 0.3),
         "stored summary field 'truth' disagrees with the plan and its rows"),
        (lambda doc: doc["plan"].pop("burn_in"),
         "stored summary field 'plan' disagrees with the plan and its rows"),
        (lambda doc: doc.update(failed=True),
         "stored summary field 'failed' disagrees with the plan and its rows"),
        (lambda doc: doc["cells"].pop("300"), "summary cells is missing key(s): 300"),
        (lambda doc: doc["cells"]["300"].pop("rmse"),
         "summary cell n=300 is missing key(s): rmse"),
        (lambda doc: doc.pop("truth"), "summary is missing key(s): truth"),
        (lambda doc: doc.update(normalty={}), "unknown summary key(s): normalty"),
    ], ids=["param_names", "truth", "plan", "failed", "cell", "cell_field", "key",
            "unknown_key"])
    def test_load_rejects_a_summary_that_is_not_the_rebuilt_one(self, tmp_path, edit, message):
        res = run_experiment(small_plan(replicates=4))
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        save_results(res, csv_path, json_path)
        doc = json.loads(json_path.read_text())
        edit(doc)
        json_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            load_results(csv_path, json_path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("key, value", [
        ("n_total", 5), ("n_converged", 2), ("nonconverged_rate", 0.25), ("delay_mode", 2),
        ("delay_mode", None), ("threshold_medians", [0.5]), ("threshold_medians", None),
    ])
    def test_load_detects_tampered_counts_and_selections(self, tmp_path, key, value):
        grid = SearchGrid(delay_candidates=(1, 2), threshold_candidates=((-0.1, 0.0, 0.1),))
        res = run_experiment(small_plan(replicates=3, grid=grid))
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        save_results(res, csv_path, json_path)
        load_results(csv_path, json_path)  # the untampered pair loads
        doc = json.loads(json_path.read_text())
        assert doc["cells"]["300"][key] != value
        doc["cells"]["300"][key] = value
        json_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            load_results(csv_path, json_path)
        assert str(excinfo.value) == (
            f"stored summary field {key!r} at n=300 disagrees with raw rows")

    @pytest.mark.filterwarnings("ignore:stationarity check failed:UserWarning")
    def test_search_grid_wider_than_its_truth_round_trips(self, tmp_path):
        # two boundaries searched, one in the truth: the rows select two
        # thresholds, and the CSV has a column for each
        doc = json.loads((PLANS / "search_lynx.json").read_text())
        doc["grid"].update(boundaries=2, step=0.2)
        doc["replicates"] = 2
        res = run_experiment(ExperimentPlan.from_dict(doc))
        assert [len(row.selected_thresholds) for row in res.rows] == [2, 2]
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        save_results(res, csv_path, json_path)
        lines = [line.split(",") for line in csv_path.read_text().splitlines()]
        assert lines[0][-3:] == ["selected_delay", "selected_threshold_1",
                                 "selected_threshold_2"]
        assert {len(line) for line in lines} == {len(lines[0])}
        again = load_results(csv_path, json_path)
        assert ([row.selected_thresholds for row in again.rows]
                == [row.selected_thresholds for row in res.rows])


class TestRunExperiments:
    def both_plan(self, sym_spec, **kwargs):
        return ExperimentPlan(true_spec=sym_spec, sample_sizes=(300,), replicates=4,
                              base_seed=23, estimator="both", **kwargs)

    def test_both_plan_runs_each_estimator_in_order(self, sym_spec, monkeypatch):
        plan = self.both_plan(sym_spec)
        doc = plan.to_dict()
        assert [one.to_dict() for one in plan.per_estimator()] == [
            {**doc, "estimator": est} for est in ("concentrated", "full_symmetric")
        ]
        for one in plan.per_estimator():
            (again,) = one.per_estimator()
            assert again is one
        # one result cannot hold two estimators' rows: refused before any path
        monkeypatch.setattr(montecarlo, "simulate_path", raising(AssertionError("simulated")))
        with pytest.raises(ValueError, match='run a "both" plan with run_experiments'):
            run_experiment(plan)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pass_matches_separate_runs(self, sym_spec, workers):
        plan = self.both_plan(sym_spec)
        together = run_experiments(plan, workers=workers)
        assert len(together) == 2
        for one, res in zip(plan.per_estimator(), together):
            alone = run_experiment(one, workers=1)
            assert res.plan.to_dict() == one.to_dict()
            assert res.names == alone.names
            assert len(res.rows) == len(alone.rows) == 4
            for a, b in zip(res.rows, alone.rows):
                assert (a.n, a.r, a.seed, a.converged) == (b.n, b.r, b.seed, b.converged)
                assert a.estimates.tobytes() == b.estimates.tobytes()
                assert a.std_errors.tobytes() == b.std_errors.tobytes()
                assert a.scaled_cov.tobytes() == b.scaled_cov.tobytes()

    def test_simulates_each_cell_once(self, sym_spec, monkeypatch):
        calls = []
        real = montecarlo.simulate_path

        def counting(spec, config):
            calls.append((config.n, config.seed))
            return real(spec, config)

        monkeypatch.setattr(montecarlo, "simulate_path", counting)
        plan = replace(self.both_plan(sym_spec), sample_sizes=(300, 400), replicates=2)
        run_experiments(plan, workers=1)
        assert calls == [(n, mix_seed(23, n, r)) for n in (300, 400) for r in range(2)]

    def test_simulation_error_fails_every_plan(self, sym_spec, monkeypatch):
        def explode(spec, config):
            raise SimulationError("simulated path exploded at step 0", index=0)

        monkeypatch.setattr(montecarlo, "simulate_path", explode)
        for res in run_experiments(self.both_plan(sym_spec), workers=1):
            assert res.failed
            for row in res.rows:
                assert not row.converged
                assert row.estimates.shape == (len(res.names),)
                assert np.isnan(row.estimates).all()


UNTYPED = [ValueError("plan fault"), np.linalg.LinAlgError("matrix fault"),
           TypeError("call fault")]
TYPED = [EstimationError("regime 2 is empty"), ConvergenceError("did not converge")]


def raising(exc):
    def fit(*args, **kwargs):
        raise exc
    return fit


class TestFailurePolicy:
    """Only a typed failure is a non-converged row: EstimationError from a
    fit (ConvergenceError is one) or SimulationError from a path.  Any other
    exception is a fault of the plan or the program and propagates."""

    # (function patched, module it is looked up in, plan keywords)
    SITES = [
        ("fit_alternating", montecarlo, {}),
        ("tar_arch_full_qmle", montecarlo, {"estimator": "full_symmetric"}),
        ("_fit", estimation,
         {"grid": SearchGrid(delay_candidates=(1,), threshold_candidates=((0.0,),))}),
    ]

    def plan(self, sym_spec, kwargs):
        return ExperimentPlan(true_spec=sym_spec, sample_sizes=(300,), replicates=2,
                              base_seed=5, **kwargs)

    @pytest.mark.parametrize("exc", UNTYPED, ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("name, module, kwargs", SITES, ids=[s[0] for s in SITES])
    def test_untyped_error_propagates(self, sym_spec, monkeypatch, name, module, kwargs, exc):
        monkeypatch.setattr(module, name, raising(exc))
        with pytest.raises(type(exc), match=str(exc)):
            run_experiment(self.plan(sym_spec, kwargs))

    @pytest.mark.parametrize("exc", TYPED, ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("name, module, kwargs", SITES, ids=[s[0] for s in SITES])
    def test_typed_error_is_a_nonconverged_row(self, sym_spec, monkeypatch, name, module,
                                               kwargs, exc):
        monkeypatch.setattr(module, name, raising(exc))
        res = run_experiment(self.plan(sym_spec, kwargs))
        assert res.failed
        for row in res.rows:
            assert not row.converged
            assert np.isnan(row.estimates).all()
            assert row.selected_delay is None

    @staticmethod
    def handler_names(handler: ast.ExceptHandler) -> set[str]:
        if handler.type is None:
            return {"<bare except>"}
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(handler.type)
                if isinstance(node, (ast.Name, ast.Attribute))}

    def test_no_handler_names_an_untyped_error(self):
        # The harness and the search record failures by type alone: a handler
        # for ValueError or LinAlgError would count a fault as non-convergence.
        forbidden = {"ValueError", "LinAlgError", "Exception", "BaseException",
                     "<bare except>"}
        trees = [ast.parse(Path(montecarlo.__file__).read_text())]
        trees += [node for node in ast.walk(ast.parse(Path(estimation.__file__).read_text()))
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "threshold_delay_search"]
        assert len(trees) == 2
        named = {
            (handler.lineno, name)
            for tree in trees for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            for name in self.handler_names(handler)
        }
        assert {name for _, name in named} >= {"EstimationError", "SimulationError"}
        assert not {(line, name) for line, name in named if name in forbidden}


def test_no_module_imports_scipy_linalg_or_stats():
    # scipy.optimize loads scipy.linalg itself, so the package's own imports
    # are read from its source rather than from sys.modules.
    package = Path(montecarlo.__file__).parent
    forbidden = {"scipy.linalg", "scipy.stats"}
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            else:
                continue
            imported |= {(path.name, name) for name in names
                         if any(name == f or name.startswith(f + ".") for f in forbidden)}
    assert imported == set()


def test_scipy_optimize_is_used_only_for_minimize():
    # Every use spells out ``scipy.optimize.<name>``: no aliased import, no
    # import of its names and no bare reference that could hide another one.
    # Its one use sits inside the full QMLE, which imports it, and
    # ``run_experiments`` imports it before forking workers for the full
    # QMLE; no other code path loads it.
    package = Path(montecarlo.__file__).parent
    used, imports = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        owner = {id(node): func.name for func in tree.body if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [a for a in node.names if a.name.startswith("scipy.optimize")]
                assert all(a.asname is None for a in names), path.name
                imports += [(path.name, owner.get(id(node))) for _ in names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = {f"{node.module}.{a.name}" for a in node.names}
                assert not {n for n in names if n.startswith("scipy.optimize")}, path.name
        refs = [node for node in nodes
                if isinstance(node, ast.Attribute) and ast.unparse(node) == "scipy.optimize"]
        named = [node for node in nodes if isinstance(node, ast.Attribute) and node.value in refs]
        assert len(named) == len(refs), path.name
        used |= {(path.name, node.attr, owner.get(id(node))) for node in named}
    assert used == {("baselines.py", "minimize", "tar_arch_full_qmle")}
    assert imports == [("baselines.py", "tar_arch_full_qmle"),
                       ("montecarlo.py", "run_experiments")]


class TestSummaries:
    def _row(self, n, r, est, converged=True):
        k = len(est)
        return ReplicateRow(
            n=n,
            r=r,
            seed=r,
            converged=converged,
            estimates=np.asarray(est, dtype=float),
            std_errors=np.full(k, 0.1),
        )

    def test_failed_flag_above_twenty_percent(self):
        plan = small_plan(replicates=10)
        truth = np.zeros(7)
        names = ["x"] * 7
        rows = [self._row(300, r, np.zeros(7), converged=(r >= 3)) for r in range(10)]
        _, failed = _summarize(plan, names, truth, rows)
        assert failed
        rows = [self._row(300, r, np.zeros(7), converged=(r >= 2)) for r in range(10)]
        _, failed = _summarize(plan, names, truth, rows)
        assert not failed

    def test_nonconverged_rows_excluded_from_summaries(self):
        plan = small_plan(replicates=3)
        truth = np.zeros(7)
        names = ["x"] * 7
        good = self._row(300, 0, np.full(7, 1.0))
        bad = ReplicateRow(
            n=300, r=1, seed=1, converged=False,
            estimates=np.full(7, np.nan), std_errors=np.full(7, np.nan),
        )
        summaries, _ = _summarize(plan, names, truth, [good, bad, self._row(300, 2, np.full(7, 3.0))])
        np.testing.assert_allclose(summaries[300].bias, np.full(7, 2.0))

    def test_regime_mismatch_rows_excluded_from_estimate_summaries(self):
        plan = small_plan(replicates=3)
        truth = np.zeros(7)
        names = ["x"] * 7

        def row(r, est, delay, thresholds):
            return ReplicateRow(
                n=300, r=r, seed=r, converged=True,
                estimates=np.full(7, est), std_errors=np.full(7, 0.1),
                selected_delay=delay, selected_thresholds=thresholds,
            )

        # the middle search picked one regime, so its estimates are NaN
        rows = [row(0, 0.05, 2, (0.0,)), row(1, np.nan, 2, ()), row(2, -0.05, 1, (0.1,))]
        cell = _summarize(plan, names, truth, rows)[0][300]
        np.testing.assert_allclose(cell.bias, np.zeros(7), atol=1e-15)
        np.testing.assert_allclose(cell.rmse, np.full(7, 0.05))
        np.testing.assert_allclose(cell.cov_scaled, np.full((7, 7), 300 * 0.005))
        np.testing.assert_array_equal(cell.coverage, np.ones(7))
        # selection statistics still count it
        assert cell.n_converged == 3
        assert cell.delay_mode == 2
        assert cell.threshold_medians == (0.05,)


class TestEfficiency:
    def test_self_comparison_gives_unit_ratios(self, sym_spec):
        plan = ExperimentPlan(
            true_spec=sym_spec, sample_sizes=(400,), replicates=20, base_seed=55
        )
        res = run_experiment(plan, workers=WORKERS)
        report = efficiency_comparison(plan, plan, results=(res, res))
        for row in report.rows:
            assert row.ratio == pytest.approx(1.0, abs=0)

    def test_requires_shared_symmetric_truth(self, sym_spec):
        plan_a = ExperimentPlan(
            true_spec=sym_spec, sample_sizes=(400,), replicates=5, base_seed=1
        )
        plan_bad = ExperimentPlan(
            true_spec=reference_spec(), sample_sizes=(400,), replicates=5, base_seed=1
        )
        # the plans are checked before their results are read
        with pytest.raises(ValueError, match="true_spec"):
            efficiency_comparison(plan_a, plan_bad, results=(None, None))
        with pytest.raises(ValueError, match="symmetric"):
            efficiency_comparison(plan_bad, plan_bad, results=(None, None))

    def test_results_must_belong_to_their_plans(self, sym_spec):
        res_a, res_b = run_experiments(ExperimentPlan(
            true_spec=sym_spec, sample_sizes=(300,), replicates=3, base_seed=5, estimator="both"))
        plans = [res_a.plan, res_b.plan]
        efficiency_comparison(*plans, results=(res_a, res_b))
        # swapped, each estimator's variances would carry the other's label
        with pytest.raises(ValueError, match="results must be those of"):
            efficiency_comparison(*plans, results=(res_b, res_a))

    @pytest.mark.parametrize("n", [2, 3, 23, 24, 199, 500, 501])
    def test_bootstrap_se_matches_resampling_loop(self, n):
        # one resample per pass draws the same integers as one (b, n) draw,
        # over successive calls on one generator
        def loop_oracle(errors, rng, b):
            draws = np.empty(b)
            for i in range(b):
                draws[i] = errors[rng.integers(0, errors.size, size=errors.size)].var(ddof=1)
            return float(draws.std(ddof=1))

        errors = normal_stream(n, n)
        rng_a = np.random.Generator(np.random.Philox(key=7))
        rng_b = np.random.Generator(np.random.Philox(key=7))
        for _ in range(3):
            assert _bootstrap_var_se(errors, rng_a, 500) == loop_oracle(errors, rng_b, 500)


    def test_cell_below_two_comparable_rows_reports_nan(self, sym_spec):
        # n = 300 keeps one comparable row for the first estimator and none for
        # the second; n = 600 has 5 of each.
        names = tuple(param_names(sym_spec))
        truth = param_vector(sym_spec)
        z = normal_stream(31, 20 * truth.size).reshape(20, truth.size)

        def result(sizes, estimator, comparable):
            offset = 5 if estimator == "full_symmetric" else 0
            plan = ExperimentPlan(true_spec=sym_spec, sample_sizes=sizes, replicates=5,
                                  base_seed=3, estimator=estimator)
            rows = tuple(
                ReplicateRow(n=n, r=r, seed=r, converged=True,
                             estimates=truth + 0.05 * z[r + offset + 10 * (n == 600)],
                             std_errors=np.full(truth.size, 0.05))
                if r < comparable.get(n, 5) else _row_without_estimates(plan, n, r, r)
                for n in sizes for r in range(5)
            )
            return plan, ExperimentResult(plan=plan, names=names, truth=truth, rows=rows,
                                          summaries={}, failed=False)

        (plan_a, res_a), (plan_b, res_b) = (
            result((300, 600), estimator, {300: m})
            for estimator, m in (("concentrated", 1), ("full_symmetric", 0))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = efficiency_comparison(plan_a, plan_b, results=(res_a, res_b))
        bad = [row for row in report.rows if row.n == 300]
        assert len(bad) == len(names)
        for row in bad:
            assert np.isnan([row.var_a, row.var_b, row.se_var_a, row.se_var_b,
                             row.ratio]).all()
        # no resample was drawn for n = 300: n = 600 reads what it reads alone
        (plan_a6, res_a6), (plan_b6, res_b6) = (
            result((600,), estimator, {}) for estimator in ("concentrated", "full_symmetric")
        )
        alone = efficiency_comparison(plan_a6, plan_b6, results=(res_a6, res_b6))
        assert [row for row in report.rows if row.n == 600] == list(alone.rows)
        assert all(np.isfinite(row.ratio) for row in alone.rows)

    @pytest.mark.parametrize("va, vb, ratio", [
        (2.0, 0.5, 4.0), (1.0, 0.0, np.inf), (0.0, 0.0, np.inf),
        (np.nan, 1.0, np.nan), (1.0, np.nan, np.nan), (np.nan, 0.0, np.nan),
    ])
    def test_ratio_infinite_only_for_a_finite_variance_over_zero(self, va, vb, ratio):
        np.testing.assert_array_equal(_ratio(va, vb), ratio)


class TestMomentRatios:
    """The helper against ``scipy.stats.skew`` and ``kurtosis(fisher=True)``."""

    @staticmethod
    def scipy_ratios(z):
        return float(skew(z)), float(kurtosis(z, fisher=True))

    @pytest.mark.parametrize("m", [2, 3, 100, 501])
    def test_bitwise_equal_on_strided_columns(self, m):
        a = 3.0 + 0.7 * normal_stream(m, m * 5).reshape(m, 5)
        for col in (a[:, j] for j in range(5)):
            assert not col.flags.c_contiguous
            assert _moment_ratios(col) == self.scipy_ratios(col)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bitwise_equal_on_squared_data(self, seed):
        z = (0.2 + 0.05 * normal_stream(seed, 400)) ** 2
        assert _moment_ratios(z) == self.scipy_ratios(z)
        assert _moment_ratios(z)[0] > 0.1

    def test_constant_sample_is_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _moment_ratios(np.full(100, 2.5))
        assert np.isnan(got).all()
        with pytest.warns(RuntimeWarning):  # scipy warns for the same sample
            assert np.isnan(self.scipy_ratios(np.full(100, 2.5))).all()

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_values_is_nan_without_warning(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_moment_ratios(np.ones(m))).all()


def test_import_loads_no_scipy_stats():
    """The package and its CLI import without ``scipy.stats``."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, taraarch, taraarch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def run_fresh(script, *args, **env):
    """The last line of a fresh interpreter's output, with the package on its path."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return done.stdout.strip().splitlines()[-1]


NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import taraarch, taraarch.cli
from taraarch.montecarlo import ExperimentPlan
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    ExperimentPlan.from_dict(json.loads(path.read_text()))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_import_and_committed_plans_load_no_scipy():
    """The package, its CLI and loading every committed plan import no scipy
    module: ``scipy.special`` is imported where it is used."""
    plans = Path(montecarlo.__file__).parents[2] / "plans"
    assert len(list(plans.glob("*.json"))) >= 3
    assert json.loads(run_fresh(NO_SCIPY_SCRIPT, plans)) == []


def test_z_975_is_the_normal_quantile():
    from scipy.special import ndtri

    assert montecarlo.Z_975 == float(ndtri(0.975))


FRESH_POOL_SCRIPT = """
import ctypes, json, os, sys, time
import taraarch
from taraarch import montecarlo

def blas_threads():
    counts = []
    for lib, suffix in montecarlo._loaded_openblas():
        getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts.append(getter())
    return counts

replicate_task = montecarlo._replicate_task

def task_checking_blas_threads(args):
    rows = replicate_task(args)  # loads scipy.special, if nothing did before
    threads = blas_threads()
    if threads != [1] * len(threads):
        raise RuntimeError(f"pool worker runs BLAS on {threads} threads")
    return rows

montecarlo._replicate_task = task_checking_blas_threads
with open(sys.argv[1]) as fh:
    doc = {**json.load(fh), "sample_sizes": [300], "replicates": 4}
before = blas_threads()
results = montecarlo.run_experiments(montecarlo.ExperimentPlan.from_dict(doc), workers=2)
for _ in range(50):  # the pool's joined threads can take a moment to exit
    if not before or len(os.listdir("/proc/self/task")) == 1:
        break
    time.sleep(0.1)
print(json.dumps({"before": before, "after": blas_threads(),
                  "os_threads": len(os.listdir("/proc/self/task")) if before else None,
                  "scipy_optimize": "scipy.optimize" in sys.modules,
                  "converged": [sum(row.converged for row in res.rows) for res in results]}))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="on one core OpenBLAS starts on one thread, so no count shows")
def test_fresh_process_pool_pins_the_blas_it_loads_later():
    """In a process that has imported only the package, the pool's workers
    run every OpenBLAS on one thread, scipy's too, although ``scipy.special``
    is first imported for the replicates.  The caller stays pinned, so it
    starts no BLAS helper threads again after the fork, and it has loaded
    ``scipy.optimize`` for the full QMLE before forking."""
    plan = Path(montecarlo.__file__).parents[2] / "plans" / "efficiency.json"
    out = json.loads(run_fresh(FRESH_POOL_SCRIPT, plan, OPENBLAS_NUM_THREADS="2"))
    if not out["before"]:
        pytest.skip("no OpenBLAS loaded in the fresh process")
    assert out["before"] == [2] * len(out["before"])
    assert out["after"] == [1] * len(out["after"])
    assert out["os_threads"] == 1
    assert out["scipy_optimize"]
    assert out["converged"] == [4, 4]


HEAP_SCRIPT = """
import resource, numpy as np
from taraarch.montecarlo import _keep_freed_heap
_keep_freed_heap()
np.ones(1 << 19)  # 4 MiB, faulted in once
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    np.ones(1 << 19)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


@pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="needs glibc's mallopt")
def test_freed_heap_is_kept_for_the_next_fit():
    """After ``_keep_freed_heap`` a freed 4 MiB block is reused in place, not
    mapped and faulted in again (1,024 pages per block)."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", HEAP_SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert int(out.strip().splitlines()[-1]) < 100


STARTUP_SCRIPT = """
import json, sys
import taraarch, taraarch.cli
from taraarch.estimation import GridRecipe, fit_alternating, threshold_delay_search
from taraarch.montecarlo import ExperimentPlan
from taraarch.simulate import SimConfig, simulate_path

plan_path, small_path, prefix = sys.argv[1:]
with open(plan_path) as fh:
    doc = json.load(fh)
spec = ExperimentPlan.from_dict(doc).true_spec
x = simulate_path(spec, SimConfig(n=400, seed=1)).series
fit_alternating(x, spec.partition, spec.p, spec.q)
threshold_delay_search(x, spec.p, spec.q, GridRecipe(delays=(1, 2), lo=0.3, hi=0.7, step=0.2))
with open(small_path, "w") as fh:
    json.dump({**doc, "sample_sizes": [300], "replicates": 2}, fh)
assert taraarch.cli.main(["mc", small_path, "--output", prefix]) == 0
loaded = ["scipy.optimize" in sys.modules]
from taraarch.baselines import tar_arch_full_qmle
tar_arch_full_qmle(x, spec.partition, spec.p, spec.q)
loaded.append("scipy.optimize" in sys.modules)
print(json.dumps(loaded))
"""


def test_concentrated_paths_never_load_scipy_optimize(tmp_path):
    """Import, a fit, a search and a concentrated ``mc`` run leave
    ``scipy.optimize`` unloaded; the full QMLE loads it."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    plan = Path(src).parent / "plans" / "consistency.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(plan), str(tmp_path / "plan.json"),
         str(tmp_path / "mc")],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert json.loads(out.strip().splitlines()[-1]) == [False, True]


class TestNormalityDiagnostics:
    def test_null_calibration_with_exact_normals(self):
        spec = reference_spec()
        k = 7
        truth = np.zeros(k)
        n = 1000
        r_total = 400
        z = normal_stream(12345, r_total * k).reshape(r_total, k)
        rows = tuple(
            ReplicateRow(
                n=n, r=r, seed=r, converged=True,
                estimates=z[r] * 0.01,
                std_errors=np.full(k, 0.01),
            )
            for r in range(r_total)
        )
        plan = ExperimentPlan(
            true_spec=spec, sample_sizes=(n,), replicates=r_total, base_seed=0
        )
        names = [f"c{i}" for i in range(k)]
        summaries, failed = _summarize(plan, names, truth, rows)
        result = ExperimentResult(
            plan=plan, names=tuple(names), truth=truth, rows=rows,
            summaries=summaries, failed=failed,
        )
        diag = normality_diagnostics(result)
        assert all(c.ad_pass_1pct for c in diag.coordinates)
        assert max(abs(c.skewness) for c in diag.coordinates) < 0.35
        assert max(abs(c.excess_kurtosis) for c in diag.coordinates) < 0.7

    def test_regime_mismatch_row_left_out(self):
        # One converged search row with NaN estimates (it selected the wrong
        # regime count) among 120 comparable rows reaches no statistic.
        spec = montecarlo.symmetric_reference_spec()
        names = tuple(param_names(spec))
        truth = param_vector(spec)
        n, r_total = 1000, 120
        z = normal_stream(777, r_total * truth.size).reshape(r_total, truth.size)
        rows = [
            ReplicateRow(
                n=n, r=r, seed=r, converged=True,
                estimates=truth + 0.01 * z[r], std_errors=np.full(truth.size, 0.01),
            )
            for r in range(r_total)
        ]
        mismatch = ReplicateRow(
            n=n, r=r_total, seed=r_total, converged=True,
            estimates=np.full(truth.size, np.nan), std_errors=np.full(truth.size, np.nan),
            selected_delay=1, selected_thresholds=(),
        )
        plan = ExperimentPlan(
            true_spec=spec, sample_sizes=(n,), replicates=r_total + 1, base_seed=0
        )

        def result(rows):
            summaries, failed = _summarize(plan, names, truth, rows)
            return ExperimentResult(
                plan=plan, names=names, truth=truth, rows=tuple(rows),
                summaries=summaries, failed=failed,
            )

        clean, mixed = result(rows), result(rows + [mismatch])
        got = normality_diagnostics(mixed)
        assert all(
            np.isfinite([c.skewness, c.excess_kurtosis, c.ad_statistic]).all()
            for c in got.coordinates
        )
        assert got.to_dict() == normality_diagnostics(clean).to_dict()
        est = np.vstack([row.estimates for row in rows])
        a, b = est[:, names.index("alpha_1")], est[:, names.index("beta_1")]
        assert got.slope_skewness[n] == {
            "c+_1": float(skew((a + b) ** 2)), "c-_1": float(skew((a - b) ** 2))
        }
        report = efficiency_comparison(plan, plan, results=(mixed, clean))
        assert all(row.ratio == 1.0 for row in report.rows)

    def test_cell_below_two_comparable_rows_reports_nan(self):
        # n = 300 has one comparable row and n = 600 none, among 100 replicates
        spec = reference_spec()
        names = tuple(param_names(spec))
        truth = param_vector(spec)
        plan = ExperimentPlan(true_spec=spec, sample_sizes=(300, 600), replicates=100,
                              base_seed=0)
        good = ReplicateRow(n=300, r=0, seed=0, converged=True, estimates=truth + 0.01,
                            std_errors=np.full(truth.size, 0.01))
        rows = (good,) + tuple(
            _row_without_estimates(plan, n, r, r) for n in (300, 600) for r in range(100)
            if (n, r) != (300, 0)
        )
        summaries, failed = _summarize(plan, names, truth, rows)
        result = ExperimentResult(plan=plan, names=names, truth=truth, rows=rows,
                                  summaries=summaries, failed=failed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = normality_diagnostics(result)
        assert [(c.n, c.name) for c in got.coordinates] == [
            (n, name) for n in (300, 600) for name in names
        ]
        for c in got.coordinates:
            assert np.isnan([c.skewness, c.excess_kurtosis, c.ad_statistic]).all()
            assert not c.ad_pass_1pct
        for n in (300, 600):
            assert list(got.slope_skewness[n]) == ["c+_1", "c-_1"]
            assert np.isnan(list(got.slope_skewness[n].values())).all()

    def test_requires_hundred_replicates(self):
        plan = small_plan(replicates=5)
        res = run_experiment(plan)
        with pytest.raises(ValueError, match="100"):
            normality_diagnostics(res)

    def test_ad_statistic_flags_uniform_junk(self):
        u = np.linspace(-5, 5, 400)  # far too heavy-tailed to be N(0,1)
        assert anderson_darling_statistic(u) > 3.857
        z = normal_stream(2, 400)
        assert anderson_darling_statistic(z) < 3.857


class TestAsymptoticInvariants:
    def test_ad_check_passes_for_most_coordinates(self, consistency_result):
        diag = normality_diagnostics(consistency_result)
        coords = [c for c in diag.coordinates if c.n == 8000]
        passed = np.mean([c.ad_pass_1pct for c in coords])
        assert passed >= 0.95
        # estimated asymptotic covariance tracks the Monte Carlo covariance
        assert diag.cov_disagreement[8000] < 0.25

    def test_rmse_decreases_monotonically_in_n(self, multi_n_result):
        res = multi_n_result
        r1 = res.summaries[1000].rmse
        r4 = res.summaries[4000].rmse
        r16 = res.summaries[16000].rmse
        assert np.all(r4 < r1)
        assert np.all(r16 < r4)

    def test_estimator_variance_nonincreasing_in_n(self, multi_n_result):
        res = multi_n_result
        prev = None
        for n in res.plan.sample_sizes:
            var = np.diag(res.summaries[n].cov_scaled) / n
            if prev is not None:
                assert np.all(var <= prev * 1.05)
            prev = var

    def test_summary_json_key_order(self):
        plan = small_plan(replicates=2)
        rows = [
            ReplicateRow(n=300, r=r, seed=r, converged=True, estimates=np.full(7, 0.1 * r),
                         std_errors=np.full(7, 0.1), scaled_cov=np.eye(7))
            for r in range(2)
        ]
        summaries, failed = _summarize(plan, ["x"] * 7, np.zeros(7), rows)
        result = ExperimentResult(plan=plan, names=("x",) * 7, truth=np.zeros(7),
                                  rows=tuple(rows), summaries=summaries, failed=failed)
        doc = summary_to_dict(result)
        assert list(doc) == ["plan", "failed", "param_names", "truth", "cells"]
        assert list(doc["cells"]["300"]) == [
            "n", "n_total", "n_converged", "nonconverged_rate", "bias", "rmse", "cov_scaled",
            "coverage", "mean_scaled_cov", "delay_mode", "threshold_medians",
        ]
        assert doc["cells"]["300"]["mean_scaled_cov"] == np.eye(7).tolist()

    def test_report_json_key_order(self):
        eff = EfficiencyReport("concentrated", "full_symmetric", (
            EfficiencyRow(n=300, name="alpha_0", var_a=1.0, var_b=2.0, se_var_a=0.1,
                          se_var_b=0.2, ratio=0.5),
        )).to_dict()
        assert list(eff) == ["estimator_a", "estimator_b", "rows"]
        assert list(eff["rows"][0]) == [
            "n", "name", "var_a", "var_b", "se_var_a", "se_var_b", "ratio",
        ]
        norm = NormalityReport(
            coordinates=(NormalityCoordinate(n=300, name="alpha_0", skewness=0.1,
                                             excess_kurtosis=0.2, ad_statistic=0.3,
                                             ad_pass_1pct=True),),
            cov_disagreement={300: 0.4},
            slope_skewness={300: {"c+_1": 0.5, "c-_1": 0.6}},
        ).to_dict()
        assert norm == {
            "coordinates": [{"n": 300, "name": "alpha_0", "skewness": 0.1,
                             "excess_kurtosis": 0.2, "ad_statistic": 0.3,
                             "ad_pass_1pct": True}],
            "cov_disagreement": {"300": 0.4},
            "slope_skewness": {"300": {"c+_1": 0.5, "c-_1": 0.6}},
        }
        assert list(norm) == ["coordinates", "cov_disagreement", "slope_skewness"]
        assert list(norm["coordinates"][0]) == [
            "n", "name", "skewness", "excess_kurtosis", "ad_statistic", "ad_pass_1pct",
        ]

    def test_summary_json_document_shape(self, multi_n_result):
        doc = summary_to_dict(multi_n_result)
        assert set(doc) == {"plan", "failed", "param_names", "truth", "cells"}
        assert set(doc["cells"]) == {"1000", "4000", "16000"}


@pytest.mark.parametrize("n, bound_rows, skews", [
    (8000, {454}, (0.395, -0.311)),
    (4000, {112, 120, 126, 209, 296, 311, 355, 484}, (0.405, -0.449)),
])
def test_c05_skew_account_on_the_consistency_fixture(consistency_result, n, bound_rows,
                                                      skews):
    """The account c05 prints: the rows with a news-impact slope on zero
    (alpha_1 = +-beta_1 exactly) are these, and without them the loadings'
    studentized skews are those of the square-root map."""
    res = consistency_result
    a, b = res.names.index("alpha_1"), res.names.index("beta_1")
    rows = [row for row in res.rows if row.n == n and row.converged]
    on_bound = {row.r for row in rows
                if row.estimates[a] in (row.estimates[b], -row.estimates[b])}
    assert on_bound == bound_rows
    interior = [row for row in rows if row.r not in on_bound]
    est = np.array([row.estimates for row in interior])
    ses = np.array([row.std_errors for row in interior])
    z = (est - res.truth) / ses
    np.testing.assert_allclose(skew(z[:, [a, b]], axis=0), skews, atol=5e-4)


def test_c05_interior_skew_is_the_square_root_maps(consistency_result):
    """At n = 8000, without its bound row r = 454, the loadings' studentized
    skews lie within Monte Carlo error, sqrt(6/499), of the square-root map's.

    Normal slopes ``c+-`` with the interior fits' mean and covariance, mapped
    to ``alpha = (sqrt(c+) + sqrt(c-))/2`` and ``beta = (sqrt(c+) -
    sqrt(c-))/2`` and studentized by the delta method from that covariance,
    predict skews of +0.409 and -0.354 against the observed +0.395 and -0.311.
    Only n = 8000 is tested: at n = 4000, where 1.6% of the normal draws fall
    below zero against 0.2% here, the alpha gap is 0.149, so the normal model
    of the slopes is too coarse there to test within this error.
    """
    res = consistency_result
    a, b = res.names.index("alpha_1"), res.names.index("beta_1")
    interior = [row for row in res.rows if row.n == 8000 and row.converged and row.r != 454]
    assert len(interior) == 499
    est = np.array([row.estimates for row in interior])
    ses = np.array([row.std_errors for row in interior])
    observed = skew((est - res.truth)[:, [a, b]] / ses[:, [a, b]], axis=0)

    al, be = est[:, a], est[:, b]
    slopes = np.column_stack([(al + be) ** 2, (al - be) ** 2])
    cov = np.cov(slopes, rowvar=False)
    draws = np.random.default_rng(12345).multivariate_normal(slopes.mean(axis=0), cov,
                                                               size=400_000)
    draws = draws[(draws >= 0.0).all(axis=1)]
    rp, rm = np.sqrt(draws[:, 0]), np.sqrt(draws[:, 1])
    predicted = []
    for sign, loading, truth in ((1.0, 0.5 * (rp + rm), res.truth[a]),
                                 (-1.0, 0.5 * (rp - rm), res.truth[b])):
        # d loading / d(c+, c-) = (1 / (4 sqrt(c+)), +-1 / (4 sqrt(c-)))
        jac = np.column_stack([0.25 / rp, sign * 0.25 / rm])
        se = np.sqrt(np.einsum("ti,ij,tj->t", jac, cov, jac))
        predicted.append(skew((loading - truth) / se))
    assert np.all(np.abs(np.array(predicted) - observed) < np.sqrt(6 / 499))

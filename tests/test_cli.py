import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from taraarch import estimation
from taraarch.cli import main
from taraarch.estimation import FitReport
from taraarch.model import param_vector
from taraarch.montecarlo import (
    load_results,
    reference_spec,
    results_to_csv,
    symmetric_reference_spec,
)
from taraarch.simulate import SimConfig, simulate_path

from conftest import PLANS


def run_cli(*argv):
    return main(list(argv))


def write_column(path, values, header=None):
    lines = ([header] if header else []) + [f"{v}" for v in values]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(reference_spec().to_json())
    return path


class TestTransform:
    def test_log100_two_rows(self, tmp_path, capsys):
        src = tmp_path / "prices.csv"
        write_column(src, [100.0, 101.0], header="price")
        assert run_cli("transform", str(src), "--method", "log100") == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(100 * math.log(1.01), abs=1e-12)

    def test_constant_column_gives_zeros(self, tmp_path, capsys):
        src = tmp_path / "prices.csv"
        write_column(src, [5.0, 5.0, 5.0])
        assert run_cli("transform", str(src), "--method", "relative") == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert values == [0.0, 0.0]

    def test_text_row_exits_1_naming_line(self, tmp_path, capsys):
        src = tmp_path / "prices.csv"
        src.write_text("price\n100\noops\n101\n")
        assert run_cli("transform", str(src), "--method", "log") == 1
        assert "line 3" in capsys.readouterr().err

    def test_domain_violation_exits_1_with_index(self, tmp_path, capsys):
        src = tmp_path / "prices.csv"
        write_column(src, [100.0, 0.0])
        assert run_cli("transform", str(src), "--method", "log100") == 1
        assert "index 1" in capsys.readouterr().err

    def test_output_file(self, tmp_path):
        src = tmp_path / "prices.csv"
        write_column(src, [1.0, 4.0])
        dst = tmp_path / "out.csv"
        assert run_cli("transform", str(src), "--method", "boxcox",
                       "--output", str(dst)) == 0
        assert [float(v) for v in dst.read_text().split()] == [0.0, 2.0]


class TestSimulate:
    @pytest.mark.parametrize("key, value", [("p", 1.5), ("delay", 1.9), ("q", True)])
    def test_non_whole_order_or_delay_exits_1(self, tmp_path, capsys, key, value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**reference_spec().to_dict(), key: value}))
        assert run_cli("simulate", "--spec", str(path), "--n", "50") == 1
        assert f"error: {key} must be a whole number, got {value!r}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        (5, "model spec must be an object, got 5"),
        ([], "model spec must be an object, got []"),
        ({**reference_spec().to_dict(), "tar": {}},
         "tar must be a list of equal-length lists of numbers, got {}"),
        ({k: v for k, v in reference_spec().to_dict().items() if k != "alphas"},
         "model spec is missing key(s): alphas"),
        ({**reference_spec().to_dict(), "gamma": 1}, "unknown model spec key(s): gamma"),
    ])
    def test_malformed_spec_exits_1(self, tmp_path, capsys, doc, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "path.csv"
        assert run_cli("simulate", "--spec", str(path), "--n", "50", "--output", str(out)) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_runs(self, tmp_path, spec_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--spec", str(spec_file), "--n", "200", "--seed", "42")
        assert run_cli(*args, "--output", str(a)) == 0
        assert run_cli(*args, "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "index,x,h,z"

    def test_canned_spec_by_name(self, tmp_path):
        out = tmp_path / "lynx.csv"
        with pytest.warns(UserWarning, match="stationarity check failed"):
            assert run_cli("simulate", "--canned", "lynx", "--n", "50",
                           "--seed", "1", "--output", str(out)) == 0
        assert len(out.read_text().splitlines()) == 51

    def test_explosive_spec_exits_1_with_index(self, tmp_path, capsys):
        spec = reference_spec().to_dict()
        spec["alphas"] = [2.5]
        spec["betas"] = [0.4]
        path = tmp_path / "boom.json"
        path.write_text(json.dumps(spec))
        with pytest.warns(UserWarning, match="stationarity check failed"):
            code = run_cli("simulate", "--spec", str(path), "--n", "5000", "--seed", "3")
        assert code == 1
        assert "step" in capsys.readouterr().err


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    sim = simulate_path(reference_spec(), SimConfig(n=2000, seed=404))
    path = tmp_path_factory.mktemp("fit") / "data.csv"
    path.write_text("\n".join(f"{v:.17g}" for v in sim.series.values) + "\n")
    return path


class TestFit:
    def test_fit_with_true_partition(self, data_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("fit", str(data_file), "--p", "1", "--q", "1",
                       "--delay", "1", "--thresholds", "0.0",
                       "--output", str(out))
        assert code == 0
        report = FitReport.from_json(out.read_text())
        assert report.converged
        truth = param_vector(reference_spec())
        est = param_vector(report.spec)
        assert np.all(np.abs(est - truth) <= 3 * report.std_errors)

    def test_search_selects_true_delay(self, data_file, tmp_path):
        out = tmp_path / "search.json"
        code = run_cli("fit", str(data_file), "--p", "1", "--q", "1",
                       "--search", "--delays", "1,2,3", "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["search"]["selected_delay"] == 1
        assert any(row["selected"] for row in doc["search"]["candidates"])

    def test_csv_format(self, data_file, capsys):
        code = run_cli("fit", str(data_file), "--p", "1", "--q", "1",
                       "--delay", "1", "--thresholds", "0.0", "--format", "csv")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,estimate,std_error"
        assert len(lines) == 8

    def test_too_short_input_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "short.csv"
        write_column(src, list(np.linspace(-1, 1, 30)))
        code = run_cli("fit", str(src), "--p", "1", "--q", "1",
                       "--delay", "1", "--thresholds", "0.0")
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("partition", [("--delay", "1", "--thresholds", "0"), ("--search",)])
    @pytest.mark.parametrize("p, q, message", [
        ("-1", "1", "p must be >= 0, got -1"),
        ("1", "0", "q must be >= 1, got 0"),
    ])
    def test_negative_ar_or_zero_arch_order_exits_1(self, data_file, tmp_path, capsys,
                                                    partition, p, q, message):
        out = tmp_path / "report.json"
        code = run_cli("fit", str(data_file), "--p", p, "--q", q, *partition,
                       "--output", str(out))
        assert code == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_partition_is_usage_error(self, data_file):
        assert run_cli("fit", str(data_file), "--p", "1", "--q", "1") == 2

    def test_unparsable_thresholds_exit_1(self, data_file, capsys):
        code = run_cli("fit", str(data_file), "--p", "1", "--q", "1",
                       "--delay", "1", "--thresholds", "0,abc")
        assert code == 1
        assert capsys.readouterr().err == "error: cannot parse thresholds '0,abc'\n"

    def test_empty_regime_exits_3_without_output(self, data_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("fit", str(data_file), "--p", "1", "--q", "1",
                       "--delay", "1", "--thresholds", "1e9", "--output", str(out))
        assert code == 3
        assert capsys.readouterr().err == "error: regime 2 is empty on the fitting window\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nonconvergence_exits_3_with_partial_report(self, data_file, tmp_path, capsys,
                                                         monkeypatch, fmt):
        monkeypatch.setattr(estimation, "MAX_OUTER", 1)
        out = tmp_path / f"report.{fmt}"
        code = run_cli("fit", str(data_file), "--p", "1", "--q", "1", "--delay", "1",
                       "--thresholds", "0.0", "--format", fmt, "--output", str(out))
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: alternating fit did not converge in 1 sweeps")
        if fmt == "json":
            report = FitReport.from_json(out.read_text())
            assert not report.converged
            assert report.iterations == 1
        else:
            lines = out.read_text().splitlines()
            assert lines[0] == "name,estimate,std_error"
            assert len(lines) == 8
            # a partial report carries no inference
            assert [line.split(",")[2] for line in lines[1:]] == ["nan"] * 7


class TestMc:
    def plan_doc(self, estimator="concentrated", replicates=3):
        return {
            "true_spec": reference_spec().to_dict(),
            "sample_sizes": [300],
            "replicates": replicates,
            "base_seed": 7,
            "estimator": estimator,
            "burn_in": 200,
        }

    def test_trivial_plan_single_row(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.plan_doc(replicates=1)))
        prefix = tmp_path / "mc"
        assert run_cli("mc", str(plan), "--output", str(prefix)) == 0
        rows = (tmp_path / "mc_results.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one replicate
        summary = json.loads((tmp_path / "mc_summary.json").read_text())
        assert summary["plan"]["replicates"] == 1

    def test_summary_written_once_with_normality(self, tmp_path, monkeypatch):
        import builtins

        import taraarch.cli as cli_mod
        from taraarch.montecarlo import load_results

        writes = []

        def counting_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                writes.append(str(path))
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "open", counting_open, raising=False)
        monkeypatch.setattr(cli_mod.montecarlo, "open", counting_open, raising=False)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.plan_doc(replicates=100)))
        prefix = tmp_path / "mc"
        assert run_cli("mc", str(plan), "--output", str(prefix)) == 0
        summary_path = tmp_path / "mc_summary.json"
        assert writes.count(str(summary_path)) == 1
        summary = json.loads(summary_path.read_text())
        assert "normality" in summary
        again = load_results(tmp_path / "mc_results.csv", summary_path)
        assert len(again.rows) == 100

    def test_both_estimators_byte_identical_across_workers(self, tmp_path):
        doc = self.plan_doc(estimator="both", replicates=4)
        doc["true_spec"] = symmetric_reference_spec().to_dict()
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        blobs = []
        for workers in ("1", "2"):
            prefix = tmp_path / f"mc_w{workers}"
            assert run_cli("mc", str(plan), "--workers", workers,
                           "--output", str(prefix)) == 0
            blobs.append([
                (tmp_path / f"{prefix.name}_{name}.csv").read_bytes()
                for name in ("concentrated", "full")
            ])
        assert blobs[0] == blobs[1]
        assert all(len(blob.splitlines()) == 5 for blob in blobs[0])

    @pytest.mark.filterwarnings("ignore:stationarity check failed:UserWarning")
    @pytest.mark.parametrize("name", sorted(path.name for path in PLANS.glob("*.json")))
    def test_committed_plan_writes_its_file_layout(self, tmp_path, name):
        # the files bench/workloads.output_files reads, per estimator; each
        # results pair reloads, and its CSV writes back byte for byte
        doc = json.loads((PLANS / name).read_text())
        if doc["grid"] is None:
            doc.update(sample_sizes=[300], replicates=4)
        else:
            doc.update(sample_sizes=doc["sample_sizes"][:1], replicates=2)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        assert run_cli("mc", str(plan), "--workers", "1", "--output", str(tmp_path / "mc")) == 0
        pairs = ([("concentrated.csv", "concentrated.json"), ("full.csv", "full.json")]
                 if doc["estimator"] == "both" else [("results.csv", "summary.json")])
        assert sorted(path.name for path in tmp_path.glob("mc_*")) == sorted(
            {f"mc_{suffix}" for pair in pairs for suffix in pair} | {"mc_summary.json"})
        for csv_name, json_name in pairs:
            csv_path = tmp_path / f"mc_{csv_name}"
            result = load_results(csv_path, tmp_path / f"mc_{json_name}")
            assert len(result.rows) == doc["replicates"]
            buf = io.StringIO()
            results_to_csv(result, buf)
            assert buf.getvalue().encode() == csv_path.read_bytes()

    def test_nonstationary_plan_warns(self, tmp_path, capsys):
        doc = self.plan_doc(replicates=1)
        doc["true_spec"]["alphas"] = [0.9]
        doc["true_spec"]["betas"] = [0.9]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        prefix = tmp_path / "mc"
        with pytest.warns(UserWarning, match="stationarity") as record:
            run_cli("mc", str(plan), "--output", str(prefix))
        assert sum("stationarity" in str(w.message) for w in record) == 1

    def test_nonstationary_both_plan_warns_once(self, tmp_path, capsys):
        doc = self.plan_doc(estimator="both", replicates=1)
        doc["true_spec"] = symmetric_reference_spec().to_dict()
        doc["true_spec"]["alphas"] = [1.05]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        prefix = tmp_path / "mc"
        with pytest.warns(UserWarning, match="stationarity") as record:
            run_cli("mc", str(plan), "--output", str(prefix))
        assert sum("stationarity" in str(w.message) for w in record) == 1
        # one replicate leaves no variance to compare, and says so without warning
        assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
        summary = json.loads((tmp_path / "mc_summary.json").read_text())
        assert all(math.isnan(row["ratio"]) for row in summary["efficiency"]["rows"])

    def test_unknown_grid_key_is_data_error(self, tmp_path, capsys):
        doc = {**self.plan_doc(replicates=1),
               "grid": {"type": "quantile", "delays": [1], "setp": 0.05}}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        assert run_cli("mc", str(plan), "--output", str(tmp_path / "mc")) == 1
        assert "setp" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[], 5, "x"])
    def test_plan_that_is_not_an_object_exits_1(self, tmp_path, capsys, doc):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        assert run_cli("mc", str(plan), "--output", str(tmp_path / "mc")) == 1
        assert f"error: plan must be an object, got {doc!r}\n" in capsys.readouterr().err
        assert not list(tmp_path.glob("mc_*"))

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name, edit, message", [
        pytest.param("search_lynx.json", lambda d: d["grid"].update(min_regime_fraction=0.7),
                     "min_regime_fraction must be in (0, 0.5), got 0.7", id="lynx_fraction"),
        pytest.param("search_lynx.json", lambda d: d["grid"].update(step=0),
                     "step must be > 0, got 0.0", id="lynx_step0"),
        pytest.param("search_lynx.json", lambda d: d["grid"].update(lo=0.95),
                     "lo and hi must satisfy 0 <= lo <= hi <= 1, got 0.95 and 0.9",
                     id="lynx_lo_above_hi"),
        pytest.param("consistency.json", lambda d: d.update(sample_sizes=300),
                     "sample_sizes must be a list of whole numbers, got 300",
                     id="consistency_scalar_n"),
        pytest.param("consistency.json", lambda d: d.update(grid="x"),
                     "grid must be an object, got 'x'", id="consistency_string_grid"),
        pytest.param("consistency.json", lambda d: d.update(true_spec=[]),
                     "true_spec must be an object, got []", id="consistency_list_truth"),
        pytest.param("consistency.json", lambda d: d["true_spec"].update(alphas={}),
                     "alphas must be a list of numbers, got {}", id="consistency_dict_alphas"),
        pytest.param("consistency.json", lambda d: d["true_spec"].update(alpha0=[1]),
                     "alpha0 must be a number, got [1]", id="consistency_list_alpha0"),
        pytest.param("consistency.json", lambda d: d.update(sample_sizes=[0, 300]),
                     "sample sizes must exceed max(p, q, d) = 1, got 0", id="consistency_n0"),
        pytest.param("consistency.json", lambda d: d.update(burnin=0),
                     "unknown plan key(s): burnin", id="consistency_misspelled_key"),
        pytest.param("consistency.json", lambda d: d.pop("replicates"),
                     "plan is missing key(s): replicates", id="consistency_no_replicates"),
        pytest.param("consistency.json", lambda d: d["true_spec"].pop("alphas"),
                     "model spec is missing key(s): alphas", id="consistency_no_alphas"),
        pytest.param("consistency.json", lambda d: d["true_spec"].update(gamma=1),
                     "unknown model spec key(s): gamma", id="consistency_spec_gamma"),
        pytest.param("consistency.json", lambda d: d.update(sample_sizes=[4000.9, 8000]),
                     "sample_sizes must be a whole number, got 4000.9",
                     id="consistency_fractional_n"),
        # the search fits only the concentrated estimator, alone or in "both"
        pytest.param("efficiency.json",
                     lambda d: d.update(grid={"type": "quantile", "delays": [1]}),
                     "full_symmetric estimator takes no grid", id="both_with_grid"),
        pytest.param("efficiency.json",
                     lambda d: d.update(estimator="full_symmetric",
                                        grid={"type": "quantile", "delays": [1]}),
                     "full_symmetric estimator takes no grid", id="full_with_grid"),
    ])
    def test_plan_error_exits_1_not_as_nonconvergence(self, tmp_path, capsys, name, edit,
                                                      message, workers):
        # a bad plan is the user's error, not a replicate that failed to converge
        doc = {**json.loads((PLANS / name).read_text()), "replicates": 3}
        edit(doc)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        assert run_cli("mc", str(plan), "--workers", workers,
                       "--output", str(tmp_path / "mc")) == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err
        assert "non-convergence" not in err
        assert not list(tmp_path.glob("mc_*"))

    def test_zero_workers_exits_1_before_writing(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.plan_doc(replicates=1)))
        assert run_cli("mc", str(plan), "--workers", "0", "--output", str(tmp_path / "mc")) == 1
        assert "error: workers must be >= 1, got 0\n" in capsys.readouterr().err
        assert not list(tmp_path.glob("mc_*"))

    def test_failed_experiment_exits_4(self, tmp_path, monkeypatch):
        import taraarch.cli as cli_mod

        real = cli_mod.montecarlo.run_experiments

        def fail_all(plan, workers=1):
            return tuple(replace(res, failed=True) for res in real(plan, workers=workers))

        monkeypatch.setattr(cli_mod.montecarlo, "run_experiments", fail_all)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.plan_doc(replicates=1)))
        assert run_cli("mc", str(plan), "--output", str(tmp_path / "mc")) == 4

    def test_failed_cell_writes_files_and_exits_4(self, tmp_path, monkeypatch, capsys):
        # every replicate fails, so no row reaches the normality statistics
        import taraarch.cli as cli_mod

        mc = cli_mod.montecarlo

        def fail(args):
            plans, n, r = args
            return tuple(mc._row_without_estimates(plan, n, r, mc.mix_seed(plan.base_seed, n, r))
                         for plan in plans)

        monkeypatch.setattr(mc, "_replicate_task", fail)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.plan_doc(replicates=100)))
        assert run_cli("mc", str(plan), "--output", str(tmp_path / "mc")) == 4
        assert "non-convergence" in capsys.readouterr().err
        assert len((tmp_path / "mc_results.csv").read_text().splitlines()) == 101
        normality = json.loads((tmp_path / "mc_summary.json").read_text())["normality"]
        assert len(normality["coordinates"]) == 7
        assert all(math.isnan(c["skewness"]) and not c["ad_pass_1pct"]
                   for c in normality["coordinates"])


class TestPrice:
    def test_zero_strike(self, capsys):
        assert run_cli("price", "--spot", "100", "--strike", "0",
                       "--rate", "0.05", "--sigma", "0.2", "--tau", "1") == 0
        assert float(capsys.readouterr().out) == 100.0

    def test_at_the_money(self, capsys):
        assert run_cli("price", "--spot", "100", "--strike", "100",
                       "--rate", "0", "--sigma", "0.2", "--tau", "1") == 0
        assert float(capsys.readouterr().out) == pytest.approx(7.965567455, abs=1e-6)

    def test_deep_out_of_money_limit(self, capsys):
        assert run_cli("price", "--spot", "80", "--strike", "90",
                       "--rate", "0", "--sigma", "1e-12", "--tau", "1") == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-6)

    def test_domain_violation_exits_2(self, capsys):
        assert run_cli("price", "--spot", "-1", "--strike", "90",
                       "--rate", "0", "--sigma", "0.2", "--tau", "1") == 2


class TestExitCodeContract:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("price", "--bogus", "1")
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("mc", "plan.json", "--seed", "3"),
            ("simulate", "--canned", "lynx", "--n", "50", "--format", "csv"),
        ],
    )
    def test_flag_of_another_subcommand_is_usage_error(self, argv):
        # --seed belongs to simulate alone and --format to fit alone
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 2

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run_cli("transform", str(tmp_path / "nope.csv"),
                       "--method", "log") == 1

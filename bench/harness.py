"""One benchmark run: the timed mc calls, the traced replay and the checks."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import program
import replay
import workloads
from taraarch import cli, montecarlo
from tracing import Tracer, median, self_times, tail

SETUP_REPEATS = 5
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Runs in a fresh interpreter: import the package and its CLI, load the plan.
SETUP_SCRIPT = """
import time
t0 = time.perf_counter()
import json, sys
import taraarch, taraarch.cli
from taraarch.montecarlo import ExperimentPlan
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
ests = ("concentrated", "full_symmetric") if doc.get("estimator") == "both" else (None,)
for est in ests:
    ExperimentPlan.from_dict(doc if est is None else {**doc, "estimator": est})
elapsed = time.perf_counter() - t0
print(json.dumps({"seconds": elapsed, "module": taraarch.__file__}))
"""


def environment(workload) -> dict:
    """What the run's timings depend on, as the run inherited it."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "n": workload.sample_size,
        "workers": workload.workers,
        "thread_variables": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Bench:
    """One benchmark run of one workload and seed; owns its scratch directory."""

    def __init__(self, workload, seed: int, plan_doc: dict, tmp: Path):
        self.workload, self.seed, self.plan_doc, self.tmp = workload, seed, plan_doc, tmp
        self.plans = replay.experiment_plans(plan_doc)
        self.rows_per_call = sum(p.replicates * len(p.sample_sizes) for p in self.plans.values())
        self.plan_path = tmp / "plan.json"
        self.plan_path.write_text(json.dumps(plan_doc, indent=2) + "\n")
        self.tracer = None
        self.misses: list[str] = []
        self.run_missed = False  # a check on the whole run missed
        self.calls = 0

    # -- running the program ------------------------------------------------

    def mc(self, workers: int, plan_path: Path | None = None) -> tuple[float, str]:
        """One mc call; returns its wall time and the output prefix.

        A non-zero exit code of a call on the workload's plan is a check miss.
        """
        self.calls += 1
        prefix = str(self.tmp / f"mc{self.calls}")
        argv = ["mc", str(plan_path or self.plan_path), "--workers", str(workers),
                "--output", prefix]
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0 and plan_path is None:
            self.miss(f"mc --workers {workers} exited with code {code}")
        return wall, prefix

    def csv_digest(self, prefix: str) -> str:
        digest = hashlib.sha256()
        for csv_path, _ in workloads.output_files(self.plan_doc, prefix).values():
            digest.update(Path(csv_path).read_bytes())
        return digest.hexdigest()

    def load(self, prefix: str) -> dict:
        return {
            est: montecarlo.load_results(csv_path, json_path)
            for est, (csv_path, json_path) in workloads.output_files(self.plan_doc, prefix).items()
        }

    def warm_up(self) -> None:
        """A two-replicate call, so lazy imports and first-call costs are not timed."""
        path = self.tmp / "warm_up.json"
        path.write_text(json.dumps({**self.plan_doc, "replicates": 2}))
        self.mc(1, path)

    # -- checks ---------------------------------------------------------------

    def miss(self, text: str) -> None:
        self.misses.append(text)
        self.run_missed = True

    def check_outputs(self, results: dict) -> int:
        """Record every check miss; return the replicates that are not ok or
        differ from the reference."""
        expect_delay = checks.LYNX_DELAY if self.plan_doc.get("grid") else None
        bad = 0
        for est, res in results.items():
            counts = checks.outcome_counts(res.rows)
            bad += len(res.rows) - counts[checks.OK]
            for text in checks.sanity_misses(res, expect_delay):
                self.miss(f"{est}: {text}")
        if self.seed == workloads.DEFAULT_SEED:
            ref_bad, ref_misses = checks.reference_misses(
                self.workload.name, self.plan_doc, results
            )
            self.misses += ref_misses
            bad += ref_bad
        return bad

    def check_identical(self, digests: list[str], what: str) -> None:
        if len(set(digests)) > 1:
            self.miss(f"results CSVs differ between {what}")

    def failures(self, attempted: int, bad_per_plan: int, plans_run: int) -> int:
        """Failed replicates; all of them when a check on the whole run missed."""
        return attempted if self.run_missed else min(attempted, bad_per_plan * plans_run)

    # -- the two kinds of run -------------------------------------------------

    def untraced(self, seconds: float) -> dict:
        self.warm_up()
        walls, digests, prefix = [], [], None
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, prefix = self.mc(self.workload.workers)
            walls.append(wall)
            digests.append(self.csv_digest(prefix))
        self.check_identical(digests, "repeated calls with the same seed")
        peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        bad = self.check_outputs(self.load(prefix))
        setup = self.setup_seconds()
        attempted = self.rows_per_call * len(walls)
        rates = [self.rows_per_call / w for w in walls]
        return {
            "correct": not self.misses,
            "attempted": attempted,
            "failed": self.failures(attempted, bad, len(walls)),
            "metrics": {
                "replicates_per_s": metric(statistics.median(rates), "1/s"),
                "setup_s": metric(statistics.median(setup), "s"),
                "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
            },
            "misses": self.misses,
            "mc_walls_s": walls,
            "setup_runs_s": setup,
        }

    def setup_seconds(self) -> list[float]:
        """Import and plan-load time of fresh interpreters, one per repeat."""
        env = {**os.environ, "PYTHONPATH": str(program.SRC)}
        times = []
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_SCRIPT, str(self.plan_path)],
                cwd=self.tmp, env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            doc = json.loads(done.stdout.strip().splitlines()[-1])
            if Path(doc["module"]).resolve().parent != (program.SRC / "taraarch").resolve():
                self.miss(f"set-up imported taraarch from {doc['module']}")
            times.append(doc["seconds"])
        return times

    def traced(self, seconds: float) -> dict:
        workers = self.workload.workers
        self.warm_up()
        # Untraced calls: the workload's worker count, and the other of 1 and 2
        # to check that the worker count leaves the results CSVs unchanged.
        wall_w, prefix = self.mc(workers)
        other = 2 if workers == 1 else 1
        wall_other, prefix_other = self.mc(other)
        self.check_identical([self.csv_digest(prefix), self.csv_digest(prefix_other)],
                             f"--workers {workers} and --workers {other}")
        wall_1 = wall_w if workers == 1 else wall_other
        results = self.load(prefix)
        bad = self.check_outputs(results)
        expected = {est: [checks.row_record(row) for row in res.rows]
                    for est, res in results.items()}

        search_probe = None
        if not self.plan_doc.get("grid"):
            lynx = workloads.derive_plan(workloads.WORKLOADS["lynx_search_w2"], self.seed)
            (search_probe,) = replay.experiment_plans(lynx).values()
        self.tracer = tracer = Tracer()
        counters = replay.Counters()
        pass_times = []
        start = time.perf_counter()
        while not pass_times or time.perf_counter() - start < seconds:
            first = len(tracer.spans)
            records = replay.replay(tracer, self.plans, counters)
            for est, rows in records.items():
                if not all(checks.records_match(got, want)
                           for got, want in zip(rows, expected[est])):
                    self.miss(f"traced replay of {est} differs from the mc results")
            persisted = str(self.tmp / f"persist{len(pass_times)}")
            with tracer.span("cli.persist"):
                replay.persist(results, self.plans, self.plan_doc, persisted)
            self.check_identical([self.csv_digest(prefix), self.csv_digest(persisted)],
                                 "the mc call and the traced persist step")
            if search_probe is not None:
                replay.probe_search(tracer, search_probe, len(pass_times), counters)
            pass_times.append(sum(s.duration for s in tracer.spans[first:]
                                  if s.name in ("montecarlo.replicate", "cli.persist")))
        passes = len(pass_times)
        attempted = self.rows_per_call * (2 + passes)
        metrics = layer_metrics(tracer, counters, self.workload, passes, wall_w)
        metrics["montecarlo.nonconverged"] = metric(
            sum(checks.outcome_counts(r.rows)[checks.NONCONVERGED]
                for r in results.values()), "count")
        metrics["montecarlo.regime_mismatch"] = metric(
            sum(checks.outcome_counts(r.rows)[checks.REGIME_MISMATCH]
                for r in results.values()), "count")
        metrics["trace.overhead_share"] = metric(
            (statistics.median(pass_times) - wall_1) / wall_1, "share")
        return {
            "correct": not self.misses,
            "attempted": attempted,
            "failed": self.failures(attempted, bad, 2 + passes),
            "metrics": metrics,
            "misses": self.misses,
            "mc_walls_s": {f"workers_{workers}": wall_w, f"workers_{other}": wall_other},
            "traced_pass_s": pass_times,
        }

    def write_reference(self) -> int:
        if self.seed != workloads.DEFAULT_SEED:
            sys.stderr.write(f"error: the reference is for seed {workloads.DEFAULT_SEED}\n")
            return 2
        _, prefix = self.mc(1)
        if self.misses:
            sys.stderr.write("error: " + "; ".join(self.misses) + "\n")
            return 1
        path = checks.write_reference(self.workload.name, self.plan_doc, self.load(prefix))
        print(f"wrote {path}")
        return 0


def layer_metrics(tracer, counters, workload, passes: int, wall_w: float) -> dict:
    """Per-layer metrics from the spans and counters of the traced passes."""
    durations: dict[str, list[float]] = {}
    own: dict[str, float] = {}
    for span, self_time in zip(tracer.spans, self_times(tracer.spans)):
        durations.setdefault(span.name, []).append(span.duration)
        own[span.name] = own.get(span.name, 0.0) + self_time
    replicate_total = sum(durations.get("montecarlo.replicate", ()))

    def ms(name):
        return 1e3 * median(durations.get(name, ()))

    def share(name):
        return own.get(name, 0.0) / replicate_total

    fits = durations.get("estimation.fit_alternating", [])
    search = durations.get("estimation.threshold_delay_search", [])
    out = {
        "simulate.simulate_path.ms_p50": metric(ms("simulate.simulate_path"), "ms"),
        "simulate.simulate_path.share": metric(share("simulate.simulate_path"), "share"),
        "model.variance_path.us_p50": metric(1e3 * ms("model.variance_path"), "us"),
        "model.residuals.us_p50": metric(1e3 * ms("model.residuals"), "us"),
        "estimation.fit_alternating.ms_p50": metric(ms("estimation.fit_alternating"), "ms"),
        "estimation.fit_alternating.ms_tail": metric(1e3 * tail(fits), "ms"),
        "estimation.fit_alternating.count": metric(len(fits), "count"),
        "estimation.fit_alternating.us_per_obs": metric(
            1e3 * ms("estimation.fit_alternating") / workload.sample_size, "us"),
        "estimation.fit_alternating.outer_iters": metric(
            median(counters.outer_iterations), "count"),
        "estimation.fit_alternating.share": metric(share("estimation.fit_alternating"), "share"),
        "estimation.theta_step.ms_p50": metric(ms("estimation.theta_step"), "ms"),
        "estimation.alpha_step.ms_p50": metric(ms("estimation.alpha_step"), "ms"),
        "estimation.estimate_information.ms_p50": metric(
            ms("estimation.estimate_information"), "ms"),
        "estimation.estimate_information.share": metric(
            share("estimation.estimate_information"), "share"),
        "estimation.threshold_delay_search.ms_p50": metric(
            ms("estimation.threshold_delay_search"), "ms"),
        "estimation.threshold_delay_search.candidates": metric(
            counters.candidates / counters.searches if counters.searches else 0.0, "count"),
        "estimation.threshold_delay_search.fit_yield": metric(
            counters.converged_candidates / counters.candidates if counters.candidates else 0.0,
            "share"),
        "estimation.threshold_delay_search.ms_per_candidate": metric(
            1e3 * sum(search) / counters.candidates if counters.candidates else 0.0, "ms"),
        "baselines.tar_arch_full_qmle.ms_p50": metric(ms("baselines.tar_arch_full_qmle"), "ms"),
        "baselines.tar_arch_full_qmle.share": metric(share("baselines.tar_arch_full_qmle"), "share"),
        "montecarlo.replicate.ms_p50": metric(ms("montecarlo.replicate"), "ms"),
        "montecarlo.parallel_efficiency": metric(
            replicate_total / passes / (workload.workers * wall_w), "share"),
        "cli.persist_ms": metric(ms("cli.persist"), "ms"),
    }
    return out

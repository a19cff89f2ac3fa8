"""Command-line front end: transforms, simulation, fitting, experiments, pricing.

Exit codes: 0 success, 1 data error (bad input or plan), 2 usage error,
3 a fit failed (``EstimationError``), 4 failed experiment.  Every subcommand
is deterministic given its flags; repeated invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings

import numpy as np

from . import baselines, estimation, montecarlo, simulate as sim
from .model import ModelSpec, ThresholdPartition, check_stationarity, param_names, param_vector

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_FAILED_EXPERIMENT = 4


def _read_column(path: str) -> np.ndarray:
    """Parse a one-column numeric CSV; the first row may be a header."""
    values = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    start = 0
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        field = line.split(",")[0].strip()
        try:
            values.append(float(field))
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: cannot parse {field!r} as a number"
            ) from None
    if not values:
        raise ValueError(f"{path}: no numeric rows found")
    return np.asarray(values)


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


def _load_spec(args) -> ModelSpec:
    if args.canned:
        return baselines.canned_model_spec(args.canned, alpha0=args.canned_alpha0)
    with open(args.spec) as fh:
        return ModelSpec.from_json(fh.read())


_TRANSFORMS = {
    "log100": lambda x: sim.log_return_transform(x, scale100=True),
    "log": lambda x: sim.log_return_transform(x, scale100=False),
    "relative": sim.relative_return_transform,
    "boxcox": sim.box_cox_sqrt_transform,
}


def _cmd_transform(args) -> int:
    out = _TRANSFORMS[args.method](_read_column(args.input))
    body = "".join(f"{v:.17g}\n" for v in out.values)
    _write_output(body, args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    check_stationarity(spec)
    config = sim.SimConfig(n=args.n, seed=args.seed, burn_in=args.burn_in)
    path = sim.simulate_path(spec, config)
    buf = io.StringIO()
    sim.path_to_csv(path, buf)
    _write_output(buf.getvalue(), args.output)
    return EXIT_OK


def _parse_numbers(key: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse {key} {text!r}") from None


def _fit_report_text(report: estimation.FitReport, fmt: str, extra=None) -> str:
    if fmt == "csv":
        names, values = param_names(report.spec), param_vector(report.spec)
        lines = ["name,estimate,std_error"]
        lines += [
            f"{name},{val:.17g},{se:.17g}"
            for name, val, se in zip(names, values, report.std_errors)
        ]
        return "\n".join(lines) + "\n"
    doc = report.to_dict()
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _cmd_fit(args) -> int:
    x = _read_column(args.input)
    p, q = args.p, args.q
    searching = args.search
    if not searching and args.delay is None:
        raise _UsageError("provide --delay/--thresholds or --search")
    if searching:
        k = 2 * (p + 1) + 1 + 2 * q
    else:
        thresholds = _parse_numbers("thresholds", args.thresholds) if args.thresholds else ()
        k = (len(thresholds) + 1) * (p + 1) + 1 + 2 * q
    if x.size <= 10 * k:
        raise _UsageError(
            f"series has {x.size} observations; need more than 10 x "
            f"{k} parameters"
        )
    try:
        if searching:
            grid = estimation.GridRecipe(
                delays=_parse_numbers("delays", args.delays),
                min_regime_fraction=args.min_regime_frac,
                include_single_regime=args.allow_single_regime,
            )
            outcome = estimation.threshold_delay_search(x, p, q, grid)
            extra = {
                "search": {
                    "selected_delay": outcome.partition.delay,
                    "selected_thresholds": outcome.partition.thresholds.tolist(),
                    "candidates": outcome.candidates,
                }
            }
            text = _fit_report_text(outcome.report, args.format, extra=extra)
        else:
            partition = ThresholdPartition(delay=args.delay, thresholds=np.asarray(thresholds))
            report = estimation.fit_alternating(x, partition, p, q)
            text = _fit_report_text(report, args.format)
    except estimation.ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.result is not None:
            _write_output(_fit_report_text(exc.result, args.format), args.output)
        return EXIT_NONCONVERGENCE
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_mc(args) -> int:
    with open(args.plan) as fh:
        plan = montecarlo.ExperimentPlan.from_dict(json.load(fh))
    prefix = args.output if args.output else "mc"
    results = montecarlo.run_experiments(plan, workers=args.workers)
    if plan.estimator == "both":
        res_a, res_b = results
        report = montecarlo.efficiency_comparison(res_a.plan, res_b.plan, results)
        montecarlo.save_results(res_a, f"{prefix}_concentrated.csv", f"{prefix}_concentrated.json")
        montecarlo.save_results(res_b, f"{prefix}_full.csv", f"{prefix}_full.json")
        summary = {
            "efficiency": report.to_dict(),
            "concentrated": montecarlo.summary_to_dict(res_a),
            "full_symmetric": montecarlo.summary_to_dict(res_b),
        }
    else:
        (result,) = results
        summary = montecarlo.summary_to_dict(result)
        if plan.replicates >= 100:
            summary["normality"] = montecarlo.normality_diagnostics(result).to_dict()
        with open(f"{prefix}_results.csv", "w", newline="") as fh:
            montecarlo.results_to_csv(result, fh)
    with open(f"{prefix}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if any(res.failed for res in results):
        sys.stderr.write("error: experiment failed (non-convergence rate > 20%)\n")
        return EXIT_FAILED_EXPERIMENT
    return EXIT_OK


def _cmd_price(args) -> int:
    try:
        price = baselines.black_scholes_price(
            args.spot, args.strike, args.rate, args.sigma, args.tau
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _write_output(f"{price:.10g}\n", args.output)
    return EXIT_OK


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="taraarch",
        description="Threshold autoregression with asymmetric ARCH errors",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    tr = subs.add_parser("transform", parents=[common], help="price-to-return transforms")
    tr.add_argument("input", help="one-column numeric CSV (header optional)")
    tr.add_argument("--method", choices=tuple(_TRANSFORMS), required=True)
    tr.set_defaults(func=_cmd_transform)

    si = subs.add_parser("simulate", parents=[common], help="simulate a sample path")
    group = si.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="model spec JSON file")
    group.add_argument("--canned", choices=[c.name for c in baselines.canned_specs()],
                       help="built-in fixture")
    si.add_argument("--canned-alpha0", type=float, default=None,
                    help="noise variance for canned specs")
    si.add_argument("--n", type=int, required=True, help="output length")
    si.add_argument("--seed", type=int, default=0, help="random seed")
    si.add_argument("--burn-in", type=int, default=sim.DEFAULT_BURN_IN)
    si.set_defaults(func=_cmd_simulate)

    fi = subs.add_parser("fit", parents=[common], help="fit the model to a series")
    fi.add_argument("input", help="one-column numeric CSV")
    fi.add_argument("--p", type=int, required=True, help="AR order")
    fi.add_argument("--q", type=int, required=True, help="ARCH order")
    fi.add_argument("--delay", type=int, default=None, help="threshold delay")
    fi.add_argument("--thresholds", default=None, help="comma-separated thresholds")
    fi.add_argument("--search", action="store_true", help="grid-search delay/threshold")
    fi.add_argument("--delays", default="1,2,3", help="candidate delays for --search")
    fi.add_argument("--min-regime-frac", type=float,
                    default=estimation.GridRecipe.min_regime_fraction)
    fi.add_argument("--allow-single-regime", action="store_true")
    fi.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    fi.set_defaults(func=_cmd_fit)

    mc = subs.add_parser("mc", parents=[common], help="run a Monte Carlo plan")
    mc.add_argument("plan", help="experiment plan JSON file")
    mc.add_argument("--workers", type=int, default=1, help="parallel workers")
    mc.set_defaults(func=_cmd_mc)

    pr = subs.add_parser("price", parents=[common], help="European call price")
    pr.add_argument("--spot", type=float, required=True)
    pr.add_argument("--strike", type=float, required=True)
    pr.add_argument("--rate", type=float, required=True)
    pr.add_argument("--sigma", type=float, required=True)
    pr.add_argument("--tau", type=float, required=True)
    pr.set_defaults(func=_cmd_price)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, sim.SimulationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except estimation.EstimationError as exc:  # ConvergenceError included
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NONCONVERGENCE


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {message}\n")


def run() -> None:
    """The console entry point: :func:`main`, with each warning printed as one
    ``warning:`` line that names no file, so stderr is the same from any checkout."""
    warnings.showwarning = _warning_line
    raise SystemExit(main())


if __name__ == "__main__":
    run()

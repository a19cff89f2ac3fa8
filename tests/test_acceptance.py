"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured quantities.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
heavy Monte Carlo experiments are shared session fixtures (see conftest.py)
with pinned base seeds, so all numbers here are exactly reproducible.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm, skew

from taraarch.baselines import arch_variance, black_scholes_price
from taraarch.cli import main as cli_main
from taraarch.estimation import (
    alpha_score,
    concentrated_equation_residuals,
    fit_alternating,
    gaussian_qll,
)
from taraarch.model import (
    AarchParams,
    news_impact,
    param_vector,
    replace_params,
    variance_path,
)
from taraarch.montecarlo import efficiency_comparison, reference_spec
from taraarch.simulate import SimConfig, mix_seed, simulate_path


def report(num, description, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description} ({detail})"
    print(line)
    assert ok, line


def test_c01_variance_path_matches_arch_reduction():
    rng = np.random.Generator(np.random.Philox(key=1001))
    start = time.time()
    worst = 0.0
    floor_ok = True
    for _ in range(1000):
        n = int(rng.integers(5, 200))
        q = int(rng.integers(1, 4))
        e = rng.normal(scale=rng.uniform(0.5, 2.0), size=n)
        a = rng.uniform(0.0, 0.9, size=q)
        alpha0 = rng.uniform(1e-3, 2.0)
        aarch = AarchParams(alpha0, a, np.zeros(q))
        h = variance_path(aarch, e, 0.0)
        h_arch = arch_variance(alpha0, a * a, e)
        worst = max(worst, float(np.max(np.abs(h - h_arch))))
        floor_ok = floor_ok and bool(np.all(h >= alpha0))
    elapsed = time.time() - start
    report(
        1,
        "symmetric variance path equals ARCH(q) with squared coefficients",
        worst < 1e-12 and floor_ok and elapsed < 5.0,
        f"max gap {worst:.2e}, variance floor held, {elapsed:.2f}s",
    )


def test_c02_news_impact_asymmetry():
    shocks = np.linspace(0.05, 5.0, 100)
    aarch = AarchParams(0.1, np.array([0.5]), np.array([0.3]))
    sym = AarchParams(0.1, np.array([0.5]), np.array([0.0]))
    asym_ok = all(
        news_impact(aarch, s, 1) != news_impact(aarch, -s, 1) for s in shocks
    )
    sym_gap = max(
        abs(news_impact(sym, s, 1) - news_impact(sym, -s, 1)) for s in shocks
    )
    report(
        2,
        "news impact asymmetric iff alpha*beta != 0",
        asym_ok and sym_gap < 1e-15,
        f"100-point grid, symmetric gap {sym_gap:.2e}",
    )


def test_c03_estimating_equations_at_optimum():
    spec = reference_spec()
    worst = 0.0
    for r in range(50):
        sim = simulate_path(spec, SimConfig(n=2000, seed=mix_seed(303, 2000, r)))
        fit = fit_alternating(sim.series, spec.partition, 1, 1, compute_se=False)
        eq = concentrated_equation_residuals(fit.spec, sim.series)
        worst = max(worst, float(np.max(np.abs(eq))))
    # The residual is at rounding level, so its digits move with the order of
    # floating-point operations: print its order of magnitude, the power of
    # ten nearest to it, whose band stays put under such moves.
    order = f"1e{round(math.log10(worst))}" if worst > 0 else "0"
    report(
        3,
        "concentrated equation families vanish at the fitted optimum",
        worst < 1e-6,
        f"bound 1e-6 met: max residual of order {order} over 50 datasets"
        if worst < 1e-6 else f"max residual {worst:.2e} over 50 datasets",
    )


def test_c04_root_n_consistency(consistency_result):
    s4 = consistency_result.summaries[4000]
    s8 = consistency_result.summaries[8000]
    ratios = s4.rmse / s8.rmse
    ok = bool(np.all((ratios >= 1.25) & (ratios <= 1.60)))
    report(
        4,
        "RMSE ratio n=4000 vs n=8000 in [1.25, 1.60] per parameter",
        ok,
        "ratios " + np.array2string(np.round(ratios, 3), separator=", "),
    )


def test_c05_asymptotic_normality(consistency_result):
    s8 = consistency_result.summaries[8000]
    coverage = s8.coverage
    cover_ok = bool(np.all((coverage >= 0.90) & (coverage <= 0.98)))
    rows = [r for r in consistency_result.rows if r.n == 8000 and r.converged]
    est = np.vstack([r.estimates for r in rows])
    ses = np.vstack([r.std_errors for r in rows])
    z = (est - consistency_result.truth) / ses
    skews = skew(z, axis=0)
    skew_ok = bool(np.all(np.abs(skews) < 0.2))
    report(
        5,
        "95% sandwich CI coverage in [0.90, 0.98] and |skew| < 0.2 at n=8000",
        cover_ok and skew_ok,
        f"coverage clause {'PASS' if cover_ok else 'FAIL'}: "
        + np.array2string(np.round(coverage, 3), separator=", ")
        + f"; skew clause {'PASS' if skew_ok else 'FAIL'}: "
        + np.array2string(np.round(skews, 3), separator=", ")
        + " (r = 454, the only row at n = 8000 with a news-impact slope on its"
        " bound, sets their sign: without it they are +0.395 and -0.311, the"
        " skew of the square-root map; see notes in the repository README)",
    )


def test_c06_efficiency_ordering(efficiency_pair):
    plan_a, plan_b, res_a, res_b = efficiency_pair
    rep = efficiency_comparison(plan_a, plan_b, results=(res_a, res_b))
    theta_rows = [r for r in rep.rows if r.name.startswith("phi_")]
    alpha_rows = [r for r in rep.rows if r.name.startswith("alpha_")]
    theta_ok = all(r.var_a >= 0.9 * r.var_b for r in theta_rows)
    alpha_ok = all(0.9 <= r.ratio <= 1.1 for r in alpha_rows)
    report(
        6,
        "concentrated-vs-full variance ordering on symmetric truth",
        theta_ok and alpha_ok,
        "theta ratios "
        + str([round(r.ratio, 3) for r in theta_rows])
        + ", alpha ratios "
        + str([round(r.ratio, 3) for r in alpha_rows]),
    )


def test_c07_threshold_delay_search(search_result):
    s = search_result.summaries[500]
    rows = [r for r in search_result.rows if r.converged and r.selected_delay]
    errors = [abs(r.selected_thresholds[0] - 3.25) for r in rows
              if len(r.selected_thresholds) == 1]
    median_err = float(np.median(errors))
    ok = s.delay_mode == 2 and median_err < 0.3
    report(
        7,
        "search recovers lynx delay and threshold",
        ok,
        f"modal delay {s.delay_mode}, median |threshold - 3.25| = {median_err:.3f} "
        f"over {len(rows)} replicates",
    )


def test_c08_analytic_alpha_scores_match_finite_differences():
    spec = reference_spec()
    sim = simulate_path(spec, SimConfig(n=1500, seed=88))
    rng = np.random.Generator(np.random.Philox(key=808))
    theta_part = param_vector(spec)[:4]
    worst = 0.0
    checked = 0
    while checked < 100:
        a0 = rng.uniform(0.02, 1.0)
        a1 = rng.uniform(0.0, 0.9)
        b1 = rng.uniform(-0.9, 0.9)
        if a1 * a1 + b1 * b1 >= 0.95:
            continue
        point = replace_params(spec, np.concatenate([theta_part, [a0, a1, b1]]))
        g = alpha_score(point, sim.series)
        fd = np.empty(3)
        base = np.array([a0, a1, b1])
        for i in range(3):
            h = 1e-6 * (1.0 + abs(base[i]))
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] -= h
            qup = gaussian_qll(
                replace_params(spec, np.concatenate([theta_part, up])), sim.series
            )
            qdn = gaussian_qll(
                replace_params(spec, np.concatenate([theta_part, dn])), sim.series
            )
            fd[i] = (qup - qdn) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
        checked += 1
    report(
        8,
        "analytic variance-parameter scores match central differences",
        worst < 1e-6,
        f"worst relative error {worst:.2e} over 100 stationary points",
    )


def test_c09_black_scholes_against_quadrature():
    def oracle(spot, strike, rate, sigma, tau):
        # integrate the discounted payoff over the in-the-money region only,
        # so the integrand handed to quad is smooth (the payoff kink sits at
        # the lower endpoint)
        drift = (rate - 0.5 * sigma**2) * tau
        vol = sigma * math.sqrt(tau)
        z0 = max((math.log(strike / spot) - drift) / vol, -40.0)

        def payoff(zv):
            return (spot * math.exp(drift + vol * zv) - strike) * norm.pdf(zv)

        val, _ = quad(payoff, z0, z0 + 45.0, limit=400, epsabs=1e-13, epsrel=1e-13)
        return math.exp(-rate * tau) * val

    strike = 100.0
    worst = 0.0
    for moneyness in (0.6, 0.85, 1.0, 1.2, 1.5):
        for sigma in (0.05, 0.1, 0.2, 0.4, 0.8):
            for tau in (0.1, 0.5, 2.0):
                spot = moneyness * strike
                got = black_scholes_price(spot, strike, 0.03, sigma, tau)
                worst = max(worst, abs(got - oracle(spot, strike, 0.03, sigma, tau)))
    limit_gap = abs(black_scholes_price(100.0, 90.0, 0.0, 1e-12, 1.0) - 10.0)
    report(
        9,
        "pricing formula matches quadrature oracle on 5x5x3 grid",
        worst < 1e-6 and limit_gap < 1e-6,
        f"max |gap| {worst:.2e}, sigma->0 gap {limit_gap:.2e}",
    )


def test_c10_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(reference_spec().to_json())
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(
            ["simulate", "--spec", str(spec_path), "--n", "400",
             "--seed", "99", "--output", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    sim_ok = outs[0] == outs[1]

    plan = {
        "true_spec": reference_spec().to_dict(),
        "sample_sizes": [300],
        "replicates": 4,
        "base_seed": 11,
        "estimator": "concentrated",
        "burn_in": 200,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    blobs = []
    for tag, workers in (("w1", "1"), ("w1b", "1"), ("w2", "2")):
        prefix = tmp_path / f"mc_{tag}"
        code = cli_main(
            ["mc", str(plan_path), "--workers", workers, "--output", str(prefix)]
        )
        assert code == 0
        blobs.append(
            (prefix.parent / f"{prefix.name}_results.csv").read_bytes()
            + (prefix.parent / f"{prefix.name}_summary.json").read_bytes()
        )
    mc_ok = blobs[0] == blobs[1] == blobs[2]
    report(
        10,
        "simulate and mc outputs byte-identical across runs and worker counts",
        sim_ok and mc_ok,
        f"simulate identical: {sim_ok}, mc identical (reruns and 1 vs 2 workers): {mc_ok}",
    )

"""Recovering the delay and threshold by profile search.

Candidates are scored by the quasi-log-likelihood over a common conditioning
window (so different delays compete on the same likelihood terms) with a
BIC-style penalty that only matters when regime counts differ.
"""

from taraarch import GridRecipe, SimConfig, simulate_path, threshold_delay_search
from taraarch.baselines import canned_model_spec

lynx = canned_model_spec("lynx")
sim = simulate_path(lynx, SimConfig(n=600, seed=31))

# thresholds at the 10%, 12.5%, ..., 90% quantiles of the series (the defaults)
grid = GridRecipe(delays=(1, 2, 3))
outcome = threshold_delay_search(sim.series, p=2, q=1, grid=grid)

print("true delay: 2, true threshold: 3.25")
print("selected delay:", outcome.partition.delay)
print("selected threshold: %.4f" % outcome.partition.thresholds[0])
print("winning fit converged:", outcome.report.converged)

scored = [c for c in outcome.candidates if c["converged"]]
scored.sort(key=lambda c: -c["penalized"])
print("\ntop five candidates by penalized score:")
print(f"{'delay':>6} {'threshold':>10} {'qll(common)':>12} {'penalized':>10}")
for c in scored[:5]:
    print(
        f"{c['delay']:6d} {c['thresholds'][0]:10.4f} "
        f"{c['qll_common']:12.3f} {c['penalized']:10.3f}"
    )
print("\ncandidates evaluated:", len(outcome.candidates))

"""Tour of the model's building blocks.

The observation equation is a threshold autoregression: which AR coefficients
apply at time t is decided by where x[t-d] falls relative to the thresholds.
The shocks have an asymmetric ARCH variance: a lagged shock e contributes
(a*|e| + b*e)^2, so the response to -e and +e differs whenever a*b != 0.

A spec is a partition, the AR coefficients `tar` and the ARCH loadings
`aarch`; the orders p and q and the regime count are read off those parts.
"""

import numpy as np

from taraarch import (
    AarchParams,
    ModelSpec,
    TarParams,
    ThresholdPartition,
    conditional_mean,
    news_impact,
    regime_index,
    residuals,
    variance_path,
)

partition = ThresholdPartition(delay=1, thresholds=np.array([0.0]))
spec = ModelSpec(
    partition=partition,
    tar=TarParams(np.array([[0.2, 0.5], [-0.3, -0.4]])),
    aarch=AarchParams(alpha0=0.1, alphas=np.array([0.4]), betas=np.array([0.2])),
)

print("p, q and regimes, derived from tar, aarch and the thresholds:",
      spec.p, spec.q, partition.regimes)
print("regime of x = -1.0:", regime_index(partition, -1.0))
print("regime of x =  0.0:", regime_index(partition, 0.0), "(boundary goes down)")
print("regime of x = +1.0:", regime_index(partition, 1.0))

history = np.array([0.3, -0.8])  # x[t-2], x[t-1]
print("\nconditional mean given history", history, "->", conditional_mean(spec, history))

x = np.array([0.1, 0.5, -0.4, 0.2, -0.1, 0.6])
e = residuals(spec, x)
h = variance_path(spec.aarch, e, presample_h=float(e.var()))
print("\nresiduals      :", np.round(e, 4))
print("variance path  :", np.round(h, 4))

print("\nnews impact curve (variance response to a single lagged shock):")
print(f"{'shock':>8} {'impact':>10}")
for shock in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
    print(f"{shock:8.1f} {news_impact(spec.aarch, shock, 1):10.4f}")
print("note the asymmetry: negative shocks move the variance less here")
print("because beta > 0 partially offsets |shock| when the shock is negative.")

print("\nspec serializes to JSON and back without losing a bit:")
print(spec.to_json())

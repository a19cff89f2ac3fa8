"""Output checks: replicate outcomes, statistical sanity and the stored reference.

Every check works on what the mc command wrote (``ExperimentResult.rows``
reloaded from its CSV and JSON), never on the program's internals.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_ATOL = 1e-7
MIN_CONVERGED_SHARE = 0.8  # the program's own 20% non-convergence gate
MAX_BIAS_TO_RMSE = 0.9
LYNX_DELAY = 2

OK, NONCONVERGED, REGIME_MISMATCH = "ok", "nonconverged", "regime_mismatch"


def classify(row) -> str:
    """Outcome of one replicate row.

    A converged row whose estimates are NaN selected a different regime count
    than the truth, so it has no usable estimate: it is a regime mismatch and
    a failure, never ok.  Rows that did not converge include estimation
    errors, which the CSV does not tell apart.
    """
    if not row.converged:
        return NONCONVERGED
    if not np.all(np.isfinite(row.estimates)):
        return REGIME_MISMATCH
    return OK


def outcome_counts(rows) -> dict[str, int]:
    counts = {OK: 0, NONCONVERGED: 0, REGIME_MISMATCH: 0}
    for row in rows:
        counts[classify(row)] += 1
    return counts


def sanity_misses(result, expect_delay: int | None = None) -> list[str]:
    """Statistical bounds that hold for any seed; returns the misses.

    Per cell: the converged share meets the program's 20% gate, and on every
    interior coordinate the bias is not most of the RMSE.  Loadings whose true
    value is 0 sit on the boundary of the parameter cone, where the bias is
    most of the RMSE by construction, so they are left out.
    """
    misses = []
    interior = _interior_coordinates(result)
    for n, cell in result.summaries.items():
        share = cell.n_converged / cell.n_total
        if share < MIN_CONVERGED_SHARE:
            misses.append(f"n={n}: converged share {share:.3f} < {MIN_CONVERGED_SHARE}")
        for i in interior:
            bias, rmse = float(cell.bias[i]), float(cell.rmse[i])
            if not (math.isfinite(rmse) and rmse > 0.0):
                misses.append(f"n={n}: RMSE of {result.names[i]} is {rmse}")
            elif abs(bias) > MAX_BIAS_TO_RMSE * rmse:
                misses.append(
                    f"n={n}: |bias| of {result.names[i]} is {abs(bias) / rmse:.3f} of its RMSE"
                )
        if expect_delay is not None and cell.delay_mode != expect_delay:
            misses.append(f"n={n}: modal delay {cell.delay_mode}, expected {expect_delay}")
    return misses


def _interior_coordinates(result) -> list[int]:
    spec = result.plan.true_spec
    boundary = set()
    for k, alpha in enumerate(spec.aarch.alphas, start=1):
        if alpha == 0.0:
            boundary.update({f"alpha_{k}", f"beta_{k}"})
    return [i for i, name in enumerate(result.names) if name not in boundary]


def row_record(row) -> dict:
    return {
        "n": row.n,
        "r": row.r,
        "estimates": [float(v) for v in row.estimates],
        "selected_delay": row.selected_delay,
        "selected_thresholds": (
            None if row.selected_thresholds is None else list(row.selected_thresholds)
        ),
    }


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def write_reference(workload: str, plan_doc: dict, results: dict) -> Path:
    """Store every replicate's estimates, per estimator, at full precision."""
    doc = {
        "plan": plan_doc,
        "rows": {est: [row_record(row) for row in res.rows] for est, res in results.items()},
    }
    path = reference_path(workload)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def reference_misses(workload: str, plan_doc: dict, results: dict) -> tuple[int, list[str]]:
    """Replicates whose estimates differ from the reference by more than 1e-7.

    Returns the number of such replicates and a description of each miss.
    """
    ref = json.loads(reference_path(workload).read_text())
    if ref["plan"] != plan_doc:
        return sum(len(res.rows) for res in results.values()), [
            "derived plan differs from the plan the reference was made with"
        ]
    failed, misses = 0, []
    for est, res in results.items():
        ref_rows = ref["rows"][est]
        if len(ref_rows) != len(res.rows):
            failed += len(res.rows)
            misses.append(f"{est}: {len(res.rows)} rows, reference has {len(ref_rows)}")
            continue
        for row, want in zip(res.rows, ref_rows):
            got = row_record(row)
            if not records_match(got, want):
                failed += 1
                misses.append(f"{est}: replicate n={row.n} r={row.r} differs from the reference")
    return failed, misses


def records_match(got: dict, want: dict, atol: float = REFERENCE_ATOL) -> bool:
    if (got["n"], got["r"], got["selected_delay"]) != (want["n"], want["r"], want["selected_delay"]):
        return False
    for key in ("estimates", "selected_thresholds"):
        a, b = got[key], want[key]
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=atol, equal_nan=True):
            return False
    return True

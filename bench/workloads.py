"""The benchmark's workloads and the Monte Carlo plans derived from them.

Each workload starts from a committed ``plans/*.json`` file, overrides the
sample size and replicate count, and takes the benchmark's ``--seed`` as the
plan's ``base_seed``.  The program only ever sees the derived plan file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from program import PLANS

# Replicate results for the default seed are stored under reference/.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    plan_file: str
    sample_size: int
    replicates: int
    workers: int


# Why each workload was chosen is recorded in README.md.  Replicate counts
# are multiples of 8 because run_experiment hands its pool chunks of 8 tasks;
# fewer than 16 would leave the second worker idle.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="consistency_16k",
            plan_file="consistency.json",
            sample_size=16000,
            replicates=8,
            workers=1,
        ),
        Workload(
            name="lynx_search_w2",
            plan_file="search_lynx.json",
            sample_size=500,
            replicates=16,
            workers=2,
        ),
        Workload(
            name="efficiency_4k_w2",
            plan_file="efficiency.json",
            sample_size=4000,
            replicates=24,
            workers=2,
        ),
    )
}


def derive_plan(workload: Workload, seed: int) -> dict:
    """The plan document for ``workload``; the same seed gives the same plan."""
    with open(PLANS / workload.plan_file) as fh:
        doc = json.load(fh)
    doc["sample_sizes"] = [workload.sample_size]
    doc["replicates"] = workload.replicates
    doc["base_seed"] = int(seed)
    return doc


def output_files(plan_doc: dict, prefix: str) -> dict[str, tuple[str, str]]:
    """Results CSV and summary JSON the mc command writes, per estimator."""
    if plan_doc.get("estimator") == "both":
        return {
            "concentrated": (f"{prefix}_concentrated.csv", f"{prefix}_concentrated.json"),
            "full_symmetric": (f"{prefix}_full.csv", f"{prefix}_full.json"),
        }
    estimator = plan_doc.get("estimator", "concentrated")
    return {estimator: (f"{prefix}_results.csv", f"{prefix}_summary.json")}

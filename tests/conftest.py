import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

from taraarch.montecarlo import ExperimentPlan, run_experiment, run_experiments

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

WORKERS = min(2, os.cpu_count() or 1)
PLANS = Path(__file__).resolve().parent.parent / "plans"


def load_plan(name: str, **overrides) -> ExperimentPlan:
    doc = json.loads((PLANS / name).read_text())
    doc.update(overrides)
    return ExperimentPlan.from_dict(doc)


@pytest.fixture(scope="session")
def ref_spec():
    return load_plan("consistency.json").true_spec


@pytest.fixture(scope="session")
def sym_spec():
    return load_plan("efficiency.json", estimator="concentrated").true_spec


@pytest.fixture(scope="session")
def consistency_result():
    """The committed consistency plan: 500 replicates at n = 4000 and 8000."""
    return run_experiment(load_plan("consistency.json"), workers=WORKERS)


@pytest.fixture(scope="session")
def efficiency_pair():
    """Concentrated and full QMLE fits of the committed efficiency plan, on one
    simulated path per replicate."""
    plan_a = load_plan("efficiency.json", estimator="concentrated")
    plan_b = load_plan("efficiency.json", estimator="full_symmetric")
    res_a, res_b = run_experiments((plan_a, plan_b), workers=WORKERS)
    return plan_a, plan_b, res_a, res_b


@pytest.fixture(scope="session")
def search_result():
    """The committed lynx search plan: 100 threshold/delay searches."""
    return run_experiment(load_plan("search_lynx.json"), workers=WORKERS)


@pytest.fixture(scope="session")
def multi_n_result(ref_spec):
    """Three quadruplings of the sample size."""
    plan = ExperimentPlan(
        true_spec=ref_spec,
        sample_sizes=(1000, 4000, 16000),
        replicates=500,
        base_seed=424242,
    )
    return run_experiment(plan, workers=WORKERS)

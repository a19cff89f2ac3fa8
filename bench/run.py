"""Benchmark of ``taraarch mc`` on three Monte Carlo workloads.

Usage::

    python3 bench/run.py --workload consistency_16k --seed 1 --seconds 40 --trace 0

Every workload drives the real entry point, ``taraarch.cli.main(["mc", ...])``,
in process, on a plan derived from a committed ``plans/*.json`` file with
``--seed`` as its ``base_seed``.  With ``--trace 0`` the run repeats the mc
call for ``--seconds`` and reports the end-to-end metrics; with ``--trace 1``
it replays the same replicates in process under spans and reports the
per-layer metrics.  Both check the outputs; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

BLAS and OpenMP thread variables are recorded as inherited and never set
here: pinning them would hide the cost of oversubscribed pool workers.
``python3 bench/run.py --workload <name> --write-reference`` stores the
default seed's estimates under ``bench/reference/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        program.locate()
    except program.MissingProgram as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    from harness import Bench, environment
    from workloads import DEFAULT_SEED, WORKLOADS, derive_plan

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    plan_doc = derive_plan(workload, seed)
    program.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=program.OUT) as tmp:
        bench = Bench(workload, seed, plan_doc, Path(tmp))
        if args.write_reference:
            return bench.write_reference()
        env = environment(workload)
        print("environment " + json.dumps(env))
        outcome = bench.traced(args.seconds) if args.trace else bench.untraced(args.seconds)
    outcome["environment"] = env
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    if args.trace:
        bench.tracer.write(program.OUT / f"{stem}-spans.jsonl")
    (program.OUT / f"{stem}.json").write_text(json.dumps(outcome, indent=1) + "\n")
    for miss in outcome["misses"]:
        print(f"check missed: {miss}")
    for name, metric in outcome["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload.name} failed_share = {outcome['failed'] / outcome['attempted']:.6g} share")
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

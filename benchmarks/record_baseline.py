"""Record the numerics fingerprint of every workload's seed indices.

    python3 benchmarks/record_baseline.py --seeds 10

trains each workload's configs for ``--seed`` 0 .. seeds-1 once and writes
``benchmarks/numerics_baseline.json``, which ``run.py`` compares each run's
fingerprints against. Re-record only in a change that means to alter the
numerics, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import importlib
import json

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    train = importlib.import_module("dptrain.train").train
    baseline = {}
    for workload in run.WORKLOADS:
        baseline[workload] = {
            str(index): run.fingerprint(train(config))
            for seed in range(args.seeds)
            for index, config in run.seed_configs(workload, seed)
        }
        print(f"{workload}: {len(baseline[workload])} fingerprints", flush=True)
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

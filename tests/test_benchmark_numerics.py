"""Tier-1 numerics gate: the benchmark's first seeds reproduce its stored fingerprints.

``benchmarks/run.py`` hashes ``TrainReport.numerics()`` of every call and
compares the hashes with ``benchmarks/numerics_baseline.json``. This test
trains seed indices 0 and 1 of each workload in ``BENCHMARK.json`` the same
way, so a change to the numbers fails here as well as in the benchmark run.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from dptrain.train import train

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """``benchmarks/run.py`` as a module, with the environment it changes restored."""
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(BENCHMARKS))  # run.py imports its sibling tracing.py
    try:
        spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if var in environ:
                os.environ[var] = environ[var]
            else:
                os.environ.pop(var, None)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_seeds_match_the_numerics_baseline(bench, workload):
    baseline = json.loads(bench.BASELINE.read_text())[workload]
    for index, config in bench.seed_configs(workload, 0)[:2]:
        digest = bench.fingerprint(train(config))
        assert digest == baseline[str(index)], f"{workload} seed index {index}"

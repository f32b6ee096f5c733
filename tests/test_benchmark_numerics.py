"""Tier-1 numerics gate: the benchmark's first seeds reproduce its stored fingerprints.

``benchmarks/run.py`` hashes ``TrainReport.numerics()`` of every call and
compares the hashes with ``benchmarks/numerics_baseline.json``. This test
trains seed indices 0 to 3 of each workload in ``BENCHMARK.json`` the same
way, so a change to the numbers fails here as well as in the benchmark run.

The baseline was recorded at one BLAS thread, which ``run.py`` sets before
numpy loads; dp-wide's long dot products change bits with the thread count.
The test process has numpy loaded already, so the training runs in a fresh
interpreter that imports ``run.py`` first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED_INDICES = 4

# Prints {workload: {seed index: fingerprint}} for the workloads named in argv.
FINGERPRINTS = f"""
import json, sys
assert "numpy" not in sys.modules, "numpy loaded before run.py set the BLAS threads"
import run
from dptrain.train import train
print(json.dumps({{
    workload: {{
        str(index): run.fingerprint(train(config))
        for index, config in run.seed_configs(workload, 0)[:{SEED_INDICES}]
    }}
    for workload in sys.argv[1:]
}}))
"""


@pytest.fixture(scope="module")
def fingerprints():
    done = subprocess.run(
        [sys.executable, "-c", FINGERPRINTS, *WORKLOADS],
        cwd=BENCHMARKS,  # ``import run`` finds run.py and its sibling tracing.py
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_seeds_match_the_numerics_baseline(fingerprints, workload):
    baseline = json.loads((BENCHMARKS / "numerics_baseline.json").read_text())[workload]
    for index, digest in fingerprints[workload].items():
        assert digest == baseline[index], f"{workload} seed index {index}"
    assert len(fingerprints[workload]) == SEED_INDICES

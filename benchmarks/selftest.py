"""Self-test of the benchmark itself.

Runs every workload for one epoch per call, traced and untraced, and checks
that the last output line carries exactly the metrics BENCHMARK.json names,
each with its unit; then checks that a call failing a check, and a call that
raises, are both counted as failed. Run from the repository root::

    python3 benchmarks/selftest.py

Exits 0 when every check holds and prints what failed otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import sys

import run


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def result_line(argv: list[str]) -> dict:
    """Run the benchmark in this process for one epoch per call; parse its last line."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv, epochs=1)
    expect(code == 0, f"{argv} exited with {code}")
    return json.loads(buffer.getvalue().splitlines()[-1])


def check_shape(result: dict, declared: list[dict], where: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    expect(isinstance(result["failed"], int), f"{where}: failed")
    units = {m["name"]: m["unit"] for m in declared}
    printed = result["metrics"]
    expect(set(printed) == set(units), f"{where}: metrics {sorted(set(printed) ^ set(units))} differ")
    for name, unit in units.items():
        value = printed[name]
        expect(set(value) == {"value", "unit"}, f"{where}: {name} has keys {sorted(value)}")
        expect(value["unit"] == unit, f"{where}: {name} in {value['unit']}, declared {unit}")
        number = value["value"]
        expect(isinstance(number, (int, float)) and math.isfinite(number), f"{where}: {name} = {number}")


def check_workloads(spec: dict) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        expect(name in run.WORKLOADS, f"BENCHMARK.json names unknown workload {name}")
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{name} trace {trace}"
            result = result_line(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
            check_shape(result, declared, where)
            expect(result["correct"] and result["failed"] == 0, f"{where}: {result['failed']} failed")


def check_failures_counted() -> None:
    argv = ["--workload", "nonprivate", "--seed", "0", "--seconds", "0", "--trace", "0"]
    kept = run.WORKLOADS["nonprivate"]
    run.WORKLOADS["nonprivate"] = dataclasses.replace(kept, acc_floor=1.0)
    try:
        result = result_line(argv)
    finally:
        run.WORKLOADS["nonprivate"] = kept
    expect(not result["correct"], "a run whose checks all fail reads correct")
    expect(result["failed"] == result["attempted"], "calls failing the accuracy floor were not all counted")

    train_module = importlib.import_module("dptrain.train")
    original = train_module.train
    calls = []

    def raises_once(config):
        calls.append(config)
        if len(calls) == 1:
            raise RuntimeError("injected failure")
        return original(config)

    train_module.train = raises_once
    try:
        result = result_line(argv)
    finally:
        train_module.train = original
    expect(result["failed"] == 1, f"a raising call counted as {result['failed']} failures")
    expect(result["attempted"] == len(calls), "attempted does not count every call")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        check_workloads(spec)
        check_failures_counted()
    except SelfTestFailure as failure:
        print(f"selftest FAILED: {failure}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

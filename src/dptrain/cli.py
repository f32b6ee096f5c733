"""Command-line surface: train, sweep, accountant queries, data generation.

Exit codes: 0 success, 1 usage/configuration error, 2 runtime failure.
Reports land in ``--out`` as CSV plus a JSON summary; the accountant prints
its JSON document to stdout. JSON output is strict: non-finite floats are
written as the strings ``"inf"``, ``"-inf"`` and ``"nan"``, as in the CSVs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .accountant import DEFAULT_DELTA, accountant_query, calibrate_sigma
from .config import (
    ConfigError,
    parse_config_file,
    run_config_from_mapping,
    sweep_grid_from_mapping,
)
from .data import save_csv_dataset, synthetic_dataset
from .train import _fmt, report_row, sweep, train, write_epochs_csv, write_report_csv

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dptrain",
        description="Differentially private training experiments and accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    p_train.add_argument("config", help="flat key=value config file")
    p_train.add_argument("--out", default="out", help="report directory")

    p_sweep = sub.add_parser("sweep", help="run an epsilon/clip/freeze grid")
    p_sweep.add_argument("config", help="config file with sweep_* keys")
    p_sweep.add_argument("--out", default="out", help="report directory")

    p_acct = sub.add_parser("accountant", help="query the privacy accountant")
    p_acct.add_argument("--sigma", type=float, help="noise multiplier")
    p_acct.add_argument("--target-eps", type=float, help="calibrate sigma for this epsilon")
    p_acct.add_argument("--q", type=float, required=True, help="sampling probability")
    p_acct.add_argument("--steps", type=int, required=True, help="number of steps")
    p_acct.add_argument("--delta", type=float, default=DEFAULT_DELTA)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("config", help="config file with n/dim/separation/label_noise/seed/out")
    return parser


def _json_text(doc) -> str:
    """Strict JSON for ``doc``, non-finite floats spelled as in the report CSVs."""

    def strict(value):
        if isinstance(value, float) and not math.isfinite(value):
            return _fmt(value)
        if isinstance(value, dict):
            return {k: strict(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(v) for v in value]
        return value

    return json.dumps(strict(doc), indent=2, allow_nan=False)


def _cmd_train(args) -> int:
    mapping = parse_config_file(args.config)
    config = run_config_from_mapping(mapping)
    out = Path(args.out)
    report = train(config)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv([report_row(report, "train", config.seed_model)], out / "report.csv")
    write_epochs_csv(report, out / "epochs.csv")
    (out / "summary.json").write_text(_json_text(report.summary()), encoding="utf-8")
    final = report.epochs[-1] if report.epochs else None
    eps_text = f"{report.achieved_eps:.4f}" if report.achieved_eps is not None else "off"
    acc_text = f"{final.valid_acc:.4f}" if final else "n/a"
    print(
        f"stop={report.stop_reason} steps={report.steps_run} "
        f"valid_acc={acc_text} test_acc={report.test_acc:.4f} epsilon={eps_text}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    mapping = parse_config_file(args.config)
    config = run_config_from_mapping(mapping, allow_sweep_keys=True)
    grid = sweep_grid_from_mapping(mapping)
    out = Path(args.out)
    rows = sweep(grid, config)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(rows, out / "sweep.csv")
    medians = [r for r in rows if r.stop_reason == "median"]
    summary = {
        "cells": [
            {
                "run_id": r.run_id,
                "target_eps": r.target_eps,
                "clip_norm": r.clip_norm,
                "freeze_prefix": r.freeze_prefix,
                "median_valid_acc": r.valid_acc,
                "median_test_acc": r.test_acc,
            }
            for r in medians
        ],
        "rows": len(rows),
        "seeds_per_cell": grid.seeds_per_cell,
    }
    (out / "summary.json").write_text(_json_text(summary), encoding="utf-8")
    print(f"wrote {len(rows)} rows for {len(medians)} cells to {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_accountant(args) -> int:
    if (args.sigma is None) == (args.target_eps is None):
        raise ConfigError("provide exactly one of --sigma or --target-eps")
    if args.target_eps is not None:
        sigma = calibrate_sigma(args.target_eps, args.delta, args.q, args.steps)
    else:
        sigma = args.sigma
    doc = accountant_query(sigma, args.q, args.steps, args.delta)
    print(_json_text(doc))
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    mapping = parse_config_file(args.config)
    known = {"n", "dim", "separation", "label_noise", "seed", "out"}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"unknown gen-data keys: {', '.join(unknown)}")
    try:
        n = int(mapping.get("n", "1000"))
        dim = int(mapping.get("dim", "10"))
        separation = float(mapping.get("separation", "3.0"))
        label_noise = float(mapping.get("label_noise", "0.0"))
        seed = int(mapping.get("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"bad gen-data value: {exc}") from None
    out = mapping.get("out")
    if not out:
        raise ConfigError("gen-data config needs an 'out' path")
    try:
        dataset = synthetic_dataset(n, dim, separation, label_noise, seed)
    except ValueError as exc:
        raise ConfigError(f"bad gen-data value: {exc}") from None
    save_csv_dataset(dataset, out)
    print(f"wrote {len(dataset)} rows x {dataset.dim} features to {out}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "accountant": _cmd_accountant,
    "gen-data": _cmd_gen_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract here is 1.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

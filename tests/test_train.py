import importlib
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from dptrain.accountant import accountant_query
from dptrain.config import _SEED_FIELDS, ConfigError, RunConfig, SweepGrid
from dptrain.data import _split_sizes, load_csv_dataset, save_csv_dataset, synthetic_dataset
from dptrain.train import (
    REPORT_COLUMNS,
    TrainReport,
    report_row,
    split_dataset,
    sweep,
    train,
    write_epochs_csv,
    write_report_csv,
)
from oracles import logistic_regression_accuracy, per_step_first_over


def fast_config(**overrides):
    base = dict(
        dataset="synthetic",
        n=400,
        dim=6,
        separation=4.0,
        label_noise=0.0,
        widths=(8, 1),
        epochs=3,
        batch_size=32,
        lr=0.08,
        clip_norm=1.0,
        privacy="fixed-sigma",
        sigma=1.0,
        noise_placement="on-sum",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestSplit:
    def test_fractions(self):
        split = split_dataset(fast_config(n=2000, test_fraction=0.1, train_fraction=0.8))
        assert len(split.test) == 200
        assert len(split.train) == 1440
        assert len(split.valid) == 360

    def test_deterministic(self):
        a = split_dataset(fast_config())
        b = split_dataset(fast_config())
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)

    def test_explicit_test_csv(self, tmp_path):
        from dptrain.data import save_csv_dataset, synthetic_dataset

        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        save_csv_dataset(synthetic_dataset(100, 4, 2.0, 0.0, seed=0), train_path)
        save_csv_dataset(synthetic_dataset(40, 4, 2.0, 0.0, seed=1), test_path)
        config = fast_config(
            dataset="csv", csv_path=str(train_path), test_csv_path=str(test_path)
        )
        split = split_dataset(config)
        assert len(split.test) == 40
        assert len(split.train) == 80  # no holdout when a test file is given
        assert len(split.valid) == 20

    @pytest.mark.parametrize("source", ["synthetic", "csv", "csv-with-test-file"])
    def test_parts_are_disjoint_rows_of_one_shuffle(self, source, tmp_path):
        config = fast_config(n=300, test_fraction=0.2, train_fraction=0.7)
        if source != "synthetic":
            path = tmp_path / "data.csv"
            save_csv_dataset(synthetic_dataset(300, 6, 4.0, 0.1, seed=3), path)
            config = replace(config, dataset="csv", csv_path=str(path))
        explicit_test = None
        if source == "csv-with-test-file":
            test_path = tmp_path / "test.csv"
            save_csv_dataset(synthetic_dataset(50, 6, 4.0, 0.1, seed=4), test_path)
            config = replace(config, test_csv_path=str(test_path))
            explicit_test = load_csv_dataset(test_path)
        split = split_dataset(config)

        # The former split: one gather per part from the shuffled copy.
        data = load_csv_dataset(config.csv_path) if config.csv_path else synthetic_dataset(
            config.n, config.dim, config.separation, config.label_noise, config.seed_data
        )
        order = np.random.Generator(np.random.PCG64(config.seed_data + 1)).permutation(len(data))
        data = data.subset(order)
        held, n_train = _split_sizes(
            len(data), config.test_fraction, config.train_fraction,
            None if explicit_test is None else len(explicit_test),
        )
        expected = {
            "test": data.subset(np.arange(held)) if explicit_test is None else explicit_test,
            "train": data.subset(np.arange(held, held + n_train)),
            "valid": data.subset(np.arange(held + n_train, len(data))),
        }
        parts = {name: getattr(split, name) for name in expected}
        for name, part in parts.items():
            for got, want in [(part.features, expected[name].features),
                              (part.labels, expected[name].labels)]:
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name
        arrays = [a for part in parts.values() for a in (part.features, part.labels)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert len(split.test) == (50 if explicit_test is not None else 60)

    def test_dimension_mismatch_between_train_and_test(self, tmp_path):
        from dptrain.data import save_csv_dataset, synthetic_dataset

        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        save_csv_dataset(synthetic_dataset(50, 4, 2.0, 0.0, seed=0), train_path)
        save_csv_dataset(synthetic_dataset(20, 5, 2.0, 0.0, seed=1), test_path)
        config = fast_config(
            dataset="csv", csv_path=str(train_path), test_csv_path=str(test_path)
        )
        with pytest.raises(ValueError, match="features"):
            split_dataset(config)


    @pytest.mark.parametrize(
        "overrides",
        [dict(n=200, test_fraction=0.0), dict(n=9, test_fraction=0.1)],
        ids=["zero-fraction", "rounds-to-zero"],
    )
    def test_empty_test_split_is_rejected(self, overrides, tmp_path):
        settings = dict(dim=4, widths=(4, 1), epochs=1, privacy="off", sigma=None, **overrides)
        # Synthetic sizes are known from the config, so it refuses them.
        with pytest.raises(ConfigError, match="0 test rows"):
            fast_config(**settings)
        # A CSV's row count is known only once the run reads the file.
        path = tmp_path / "data.csv"
        save_csv_dataset(synthetic_dataset(overrides["n"], 4, 4.0, 0.0, seed=0), path)
        config = fast_config(**settings, dataset="csv", csv_path=str(path))
        with pytest.raises(ValueError, match="0 test rows"):
            split_dataset(config)
        with pytest.raises(ValueError, match="0 test rows"):
            train(config)


class TestTrain:
    def test_nonprivate_separable_task_reaches_bar(self):
        config = fast_config(
            n=1000, dim=8, separation=6.0, widths=(16, 16, 1),
            privacy="off", sigma=None, epochs=30,
        )
        report = train(config)
        assert report.final_valid_acc >= 0.95
        assert report.stop_reason == "epochs-exhausted"
        assert all(e.epsilon is None for e in report.epochs)
        # the bound itself is attainable: a plain logistic fit clears it too
        split = split_dataset(config)
        baseline = logistic_regression_accuracy(
            split.train.features, split.train.labels,
            split.valid.features, split.valid.labels,
        )
        assert baseline >= 0.95

    def test_indistinguishable_classes_stay_near_chance(self):
        accs = []
        for seed in range(5):
            config = fast_config(
                n=1000, separation=0.0, privacy="off", sigma=None, epochs=5,
                seed_model=100 + seed, seed_data=200 + seed,
            )
            accs.append(train(config).test_acc)
        assert 0.4 <= float(np.median(accs)) <= 0.6

    def test_private_run_reports_spend(self):
        report = train(fast_config())
        assert report.sigma == 1.0
        assert report.achieved_eps > 0
        assert report.steps_run == 3 * math.ceil(len(split_dataset(fast_config()).train) / 32)
        eps = [e.epsilon for e in report.epochs]
        assert all(b >= a for a, b in zip(eps, eps[1:]))

    def test_target_epsilon_calibration_respects_target(self):
        config = fast_config(privacy="target-epsilon", target_eps=5.0, sigma=None, epochs=2)
        report = train(config)
        assert report.achieved_eps <= 5.0
        assert report.sigma > 0

    def test_budget_stop(self):
        # Budget 5 binds in the middle of training (after 15 steps).
        config = fast_config(budget_eps=5.0, epochs=30)
        report = train(config)
        split = split_dataset(config)
        planned = config.epochs * math.ceil(len(split.train) / config.batch_size)
        assert report.stop_reason == "budget-exceeded"
        assert 0 < report.steps_run < planned
        assert report.achieved_eps <= 5.0
        eps = [e.epsilon for e in report.epochs]
        assert all(b >= a for a, b in zip(eps, eps[1:]))
        # the steps run fit the budget, and one more step would have crossed it
        from dptrain.accountant import MechanismSpec, PrivacyLedger

        ledger = PrivacyLedger(MechanismSpec(1.0, 32 / len(split.train)), delta=config.delta)
        assert ledger.epsilon_if(report.steps_run) <= 5.0 < ledger.epsilon_if(report.steps_run + 1)

    @pytest.mark.parametrize(
        "sigma,budget,steps",
        [(1.0, 0.01, 0), (1.0, None, 16), (1.0, None, 1), (1e-200, 10.0, 0), (1.0, 1e6, None)],
        ids=["below-first-step", "equal-to-a-step", "equal-to-first-step", "infinite-eps", "never-reached"],
    )
    def test_budget_stop_equals_a_query_per_step(self, monkeypatch, sigma, budget, steps):
        # The loop finds its stop once, by bisecting the ledger's epsilon; a
        # query before every step, as the loop once made, must stop at the
        # same step. A budget of None is the epsilon after ``steps`` steps;
        # None steps runs them all.
        from dptrain.accountant import MechanismSpec, PrivacyLedger

        config = fast_config(sigma=sigma, epochs=30)
        train_rows = len(split_dataset(config).train)
        if budget is None:
            ledger = PrivacyLedger(MechanismSpec(sigma, 32 / train_rows), delta=config.delta)
            budget = ledger.epsilon_if(steps)
        config = config.with_overrides(budget_eps=budget)
        report = train(config)
        monkeypatch.setattr(PrivacyLedger, "_first_step_over", per_step_first_over)
        reference = train(config)
        assert report.numerics() == reference.numerics()
        if steps is None:
            assert report.stop_reason == "epochs-exhausted"
            assert report.steps_run == config.epochs * math.ceil(train_rows / 32)
        else:
            assert report.stop_reason == "budget-exceeded" and report.steps_run == steps

    def test_budget_stop_queries_no_epsilon_per_step(self, monkeypatch):
        from dptrain.accountant import PrivacyLedger

        calls = []
        original = PrivacyLedger.epsilon_if
        monkeypatch.setattr(
            PrivacyLedger, "epsilon_if", lambda self, n: calls.append(n) or original(self, n)
        )
        report = train(fast_config(budget_eps=5.0, epochs=30))
        assert report.stop_reason == "budget-exceeded" and report.steps_run > 0
        assert calls == []

    def test_budget_binding_immediately(self):
        report = train(fast_config(budget_eps=0.01, epochs=2))
        assert report.stop_reason == "budget-exceeded"
        assert report.steps_run == 0
        assert report.achieved_eps == 0.0
        assert report.achieved_eps <= 0.01

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_tiny_sigma_spends_infinite_epsilon(self, batch_size):
        # batch_size 1000 exceeds the training split, so q = 1.
        report = train(fast_config(sigma=1e-200, batch_size=batch_size, epochs=1))
        assert report.steps_run > 0
        assert report.achieved_eps == math.inf
        budgeted = train(fast_config(sigma=1e-200, batch_size=batch_size, budget_eps=10.0))
        assert budgeted.stop_reason == "budget-exceeded"
        assert budgeted.steps_run == 0
        assert budgeted.achieved_eps == 0.0

    def test_deterministic_reports(self):
        a = train(fast_config(epochs=4))
        b = train(fast_config(epochs=4))
        assert a.numerics() == b.numerics()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(privacy="target-epsilon", target_eps=5.0, sigma=None, epochs=2),
            dict(epochs=2),
            dict(budget_eps=5.0, epochs=30),
            dict(batch_size=1000, epochs=4),
        ],
        ids=["target-epsilon", "fixed-sigma", "budget-stopped", "full-batch"],
    )
    def test_ledger_spend_equals_accountant_query(self, overrides):
        config = fast_config(**overrides)
        report = train(config)
        q = min(config.batch_size / len(split_dataset(config).train), 1.0)
        query = accountant_query(report.sigma, q, report.steps_run, config.delta)
        assert report.achieved_eps == query["epsilon"]
        assert report.optimal_alpha == query["optimal_alpha"]
        if "budget_eps" in overrides:
            assert report.stop_reason == "budget-exceeded" and q < 1.0
        if config.batch_size == 1000:
            assert q == 1.0

    def test_calibration_failure_propagates(self):
        from dptrain.accountant import CalibrationError

        with pytest.raises(CalibrationError):
            train(fast_config(privacy="target-epsilon", target_eps=0.01, sigma=None))


class TestLoopHooks:
    """The epoch loop looks its optimizer and evaluation calls up at call time.

    Benchmarks time steps by replacing these ``dptrain.train`` attributes,
    so a loop that bound them early would go unmeasured. The wrappers take
    the shapes the benchmark's step timer relies on: ``batch_gradient`` is
    called as ``(model, xs, ys)``, a private step's outcome carries its
    ``batch_size``, and each ``adam_step`` applies a ``batch_gradient``
    called before it.
    """

    HOOKS = ("dp_adam_step", "batch_gradient", "adam_step", "accuracy")

    def counted_run(self, monkeypatch, config):
        # The package attribute ``dptrain.train`` is the function; fetch the module.
        train_module = importlib.import_module("dptrain.train")
        calls = dict.fromkeys(self.HOOKS, 0)
        original = {name: getattr(train_module, name) for name in self.HOOKS}

        def dp_adam_step(*args, **kwargs):
            calls["dp_adam_step"] += 1
            outcome = original["dp_adam_step"](*args, **kwargs)
            assert outcome.batch_size >= 0
            return outcome

        def batch_gradient(model, xs, ys, /):
            calls["batch_gradient"] += 1
            return original["batch_gradient"](model, xs, ys)

        def adam_step(*args, **kwargs):
            assert calls["batch_gradient"] == calls["adam_step"] + 1, "no gradient to apply"
            calls["adam_step"] += 1
            return original["adam_step"](*args, **kwargs)

        def accuracy(*args, **kwargs):
            calls["accuracy"] += 1
            return original["accuracy"](*args, **kwargs)

        for wrapper in (dp_adam_step, batch_gradient, adam_step, accuracy):
            monkeypatch.setattr(train_module, wrapper.__name__, wrapper)
        return train(config), calls

    def test_private_run(self, monkeypatch):
        report, calls = self.counted_run(monkeypatch, fast_config())
        assert report.steps_run > 0
        assert calls == {
            "dp_adam_step": report.steps_run,
            "batch_gradient": 0,
            "adam_step": 0,
            "accuracy": len(report.epochs) + 1,
        }

    def test_budget_stopped_private_run(self, monkeypatch):
        # Budget 5 stops in the second epoch, after 15 steps.
        report, calls = self.counted_run(monkeypatch, fast_config(budget_eps=5.0, epochs=30))
        assert report.stop_reason == "budget-exceeded"
        assert len(report.epochs) == 2 and report.steps_run > 0
        assert calls["dp_adam_step"] == report.steps_run
        assert calls["accuracy"] == len(report.epochs) + 1

    def test_nonprivate_run(self, monkeypatch):
        report, calls = self.counted_run(monkeypatch, fast_config(privacy="off", sigma=None))
        assert report.steps_run > 0
        assert calls == {
            "dp_adam_step": 0,
            "batch_gradient": report.steps_run,
            "adam_step": report.steps_run,
            "accuracy": len(report.epochs) + 1,
        }


class TestNonPrivateBatches:
    def test_each_step_gets_its_rows_of_the_epoch_shuffle(self, monkeypatch):
        # 2 epochs whose last batch is short: every step's rows, in order,
        # are the next slice of that epoch's permutation.
        config = fast_config(privacy="off", sigma=None, epochs=2, batch_size=40)
        split = split_dataset(config)
        xs, ys = split.train.features, split.train.labels
        size = config.batch_size
        assert len(xs) % size != 0
        train_module = importlib.import_module("dptrain.train")
        original = train_module.batch_gradient
        received = []

        def batch_gradient(model, xs, ys, /):
            received.append((xs.tobytes(), ys.tobytes()))
            return original(model, xs, ys)

        monkeypatch.setattr(train_module, "batch_gradient", batch_gradient)
        report = train(config)
        order_rng = np.random.Generator(np.random.PCG64(config.seed_data + 2))
        expected = []
        for _ in range(config.epochs):
            perm = order_rng.permutation(len(xs))
            for i in range(math.ceil(len(xs) / size)):
                batch = perm[i * size:(i + 1) * size]
                expected.append((xs[batch].tobytes(), ys[batch].tobytes()))
        assert report.steps_run == len(expected) == len(received)
        assert received == expected


class TestSweep:
    def test_degenerate_grid_matches_single_run(self):
        base = fast_config(epochs=2)
        grid = SweepGrid(target_eps=(2.0,), clip_norms=(1.0,), freeze_prefixes=(0,),
                         seeds_per_cell=1)
        rows = sweep(grid, base)
        assert len(rows) == 2  # one run + one median
        run, median = rows
        direct = train(base.with_overrides(privacy="target-epsilon", target_eps=2.0))
        assert float(run.test_acc) == direct.test_acc
        assert float(run.achieved_eps) == direct.achieved_eps
        assert median.run_id.endswith("-median")
        assert float(median.test_acc) == direct.test_acc

    def test_rows_respect_target(self):
        base = fast_config(epochs=2)
        grid = SweepGrid(target_eps=(2.0, 20.0), clip_norms=(1.0, 0.4),
                         freeze_prefixes=(0,), seeds_per_cell=2)
        rows = sweep(grid, base)
        runs = [r for r in rows if r.stop_reason not in ("median", "error")]
        assert len(runs) == 8
        for r in runs:
            assert float(r.achieved_eps) <= float(r.target_eps)

    def test_infinite_epsilon_cell_runs_nonprivate(self):
        base = fast_config(epochs=2)
        grid = SweepGrid(target_eps=(math.inf,), clip_norms=(1.0,),
                         freeze_prefixes=(0,), seeds_per_cell=1)
        rows = sweep(grid, base)
        run = rows[0]
        assert run.target_eps == "inf"
        assert run.sigma == "" and run.achieved_eps == ""

    def test_failed_cell_becomes_error_row(self):
        base = fast_config(epochs=2)
        # target below the accountant's floor -> calibration failure in-cell
        grid = SweepGrid(target_eps=(0.01, 2.0), clip_norms=(1.0,),
                         freeze_prefixes=(0,), seeds_per_cell=1)
        rows = sweep(grid, base)
        assert [r.stop_reason for r in rows[:2]] == ["error", "median"]
        healthy = [r for r in rows[2:] if r.stop_reason not in ("median",)]
        assert healthy and all(r.stop_reason != "error" for r in healthy)

    def test_failed_run_says_why_on_stderr(self, capsys):
        # One line per failed run; the rows and stdout are as before.
        base = fast_config(epochs=2)
        grid = SweepGrid(target_eps=(0.01,), clip_norms=(1.0,), freeze_prefixes=(0,),
                         seeds_per_cell=1)
        rows = sweep(grid, base)
        assert [(r.run_id, r.stop_reason) for r in rows] == [
            ("eps0.01-clip1.0-freeze0-seed0", "error"), ("eps0.01-clip1.0-freeze0-median", "median"),
        ]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "sweep: eps0.01-clip1.0-freeze0-seed0 failed: CalibrationError: target epsilon 0.01 "
        )
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("with_test_file", [False, True], ids=["held-out", "test-file"])
    def test_csv_base_is_loaded_once_per_sweep(self, with_test_file, tmp_path, monkeypatch):
        # The rows and their standardization depend on neither the cell nor
        # the seed: the sweep loads each file once, and writes the bytes of
        # a sweep whose every run loads the files itself.
        train_module = importlib.import_module("dptrain.train")
        path = tmp_path / "data.csv"
        save_csv_dataset(synthetic_dataset(300, 6, 4.0, 0.1, seed=3), path)
        base = fast_config(dataset="csv", csv_path=str(path), epochs=1)
        files = [base.csv_path]
        if with_test_file:
            test_path = tmp_path / "test.csv"
            save_csv_dataset(synthetic_dataset(80, 6, 4.0, 0.1, seed=4), test_path)
            base = replace(base, test_csv_path=str(test_path))
            files.append(base.test_csv_path)
        grid = SweepGrid(target_eps=(5.0, math.inf), clip_norms=(1.0,), freeze_prefixes=(0,),
                         seeds_per_cell=3)
        loads = []
        load = train_module.load_csv_dataset

        def counting(file):
            loads.append(file)
            return load(file)

        monkeypatch.setattr(train_module, "load_csv_dataset", counting)
        # Every run's wall clock reads 0.0, so the two files can match byte for byte.
        monkeypatch.setattr(train_module, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        write_report_csv(sweep(grid, base), tmp_path / "once.csv")
        assert loads == files

        loads.clear()
        run = train_module._train
        monkeypatch.setattr(train_module, "_train", lambda config, _: run(config, None))
        write_report_csv(sweep(grid, base), tmp_path / "per-run.csv")
        assert loads == files * 7  # the up-front split check, then each of the 6 runs
        once = (tmp_path / "once.csv").read_bytes()
        assert once == (tmp_path / "per-run.csv").read_bytes()
        assert once.count(b"error") == 0 and once.count(b"\n") == 1 + 2 * 4

    def test_runs_offset_every_seed_and_set_only_their_cell(self, monkeypatch):
        configs = []

        def record(config, loaded):
            configs.append(config)
            raise RuntimeError("recorded, not trained")

        monkeypatch.setattr(importlib.import_module("dptrain.train"), "_train", record)
        base = fast_config(budget_eps=50.0)
        grid = SweepGrid(target_eps=(2.0, math.inf), clip_norms=(0.5,),
                         freeze_prefixes=(1,), seeds_per_cell=3)
        sweep(grid, base)
        cell_fields = {"clip_norm", "freeze_prefix", "privacy", "target_eps", "budget_eps"}
        kept = {f.name for f in fields(RunConfig)} - set(_SEED_FIELDS) - cell_fields
        assert _SEED_FIELDS and len(configs) == 6
        for index, config in enumerate(configs):
            eps, seed_index = grid.target_eps[index // 3], index % 3
            offsets = {name: getattr(config, name) - getattr(base, name) for name in _SEED_FIELDS}
            assert offsets == dict.fromkeys(_SEED_FIELDS, seed_index)
            assert {name: getattr(config, name) for name in kept} == {
                name: getattr(base, name) for name in kept
            }
            assert (config.clip_norm, config.freeze_prefix) == (0.5, 1)
            if eps == math.inf:
                assert (config.privacy, config.target_eps, config.budget_eps) == ("off", None, None)
            else:
                assert (config.privacy, config.target_eps, config.budget_eps) == (
                    "target-epsilon", eps, 50.0
                )


class TestReportFiles:
    def test_csv_schema_and_round_trip(self, tmp_path):
        report = train(fast_config(epochs=2))
        rows = [report_row(report, "train", 1)]
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        import csv

        with path.open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert tuple(header) == REPORT_COLUMNS
            row = next(reader)
        parsed = dict(zip(header, row))
        assert float(parsed["sigma"]) == report.sigma
        assert float(parsed["valid_acc"]) == report.final_valid_acc
        assert parsed["stop_reason"] == report.stop_reason

    def test_epochs_csv(self, tmp_path):
        report = train(fast_config(epochs=3))
        path = tmp_path / "epochs.csv"
        write_epochs_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,valid_acc,epsilon"
        assert len(lines) == 1 + len(report.epochs)

    def test_summary_is_json_ready(self):
        import json

        report = train(fast_config(epochs=2))
        text = json.dumps(report.summary())
        assert "achieved_eps" in text

    def test_numerics_and_summary_keys_are_the_fields(self):
        # A field added later (a timing, say) must be left out of numerics() on purpose.
        report = train(fast_config(epochs=1))
        names = [f.name for f in fields(TrainReport)]
        assert list(report.numerics()) == [n for n in names if n not in ("wall_clock_s", "config")]
        assert list(report.summary()) == names + ["valid_acc", "train_loss_final"]

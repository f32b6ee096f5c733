import csv
import importlib
import json
import math
import re

import pytest

from dptrain.cli import main


def strict_loads(text):
    """json.loads that rejects the non-standard NaN/Infinity literals."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


TRAIN_CONF = """
dataset = synthetic
n = 300
dim = 5
separation = 4.0
widths = 8,1
epochs = 2
batch_size = 32
lr = 0.08
privacy = fixed-sigma
sigma = 1.0
noise_placement = on-sum
"""


class TestAccountantCommand:
    def test_forward_query_document(self, capsys):
        code = main(["accountant", "--sigma", "1", "--q", "1", "--steps", "1",
                     "--delta", "1e-5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == pytest.approx(5.3026, rel=0.005)
        assert doc["optimal_alpha"] == 6.0
        assert doc["curve"][0][0] == 1.25

    def test_inverse_round_trip(self, capsys):
        code = main(["accountant", "--target-eps", "10", "--q", "0.01",
                     "--steps", "3000", "--delta", "1e-5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        sigma = doc["sigma"]
        capsys.readouterr()
        assert main(["accountant", "--sigma", str(sigma), "--q", "0.01",
                     "--steps", "3000", "--delta", "1e-5"]) == 0
        forward = json.loads(capsys.readouterr().out)
        assert forward["epsilon"] <= 10.0

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["accountant", "--q", "1", "--steps", "1"]) == 1
        assert main(["accountant", "--sigma", "1", "--target-eps", "2",
                     "--q", "1", "--steps", "1"]) == 1

    @pytest.mark.parametrize("mode", [["--sigma", "1"], ["--target-eps", "10"]])
    def test_fractional_steps_exit_one(self, capsys, mode):
        assert main(["accountant", *mode, "--q", "0.02", "--steps", "2.5"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("q", ["0.1", "1"])
    def test_tiny_sigma_reports_infinite_epsilon(self, capsys, q):
        assert main(["accountant", "--sigma", "1e-200", "--q", q, "--steps", "1000"]) == 0
        assert float(json.loads(capsys.readouterr().out)["epsilon"]) == math.inf
        assert main(["accountant", "--sigma", "1e-200", "--q", q, "--steps", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == 0.0

    def test_infinite_epsilon_is_strict_json(self, capsys):
        assert main(["accountant", "--sigma", "1e-200", "--q", "0.1", "--steps", "1000"]) == 0
        doc = strict_loads(capsys.readouterr().out)
        assert doc["epsilon"] == "inf"
        assert all(rdp == "inf" for _, rdp in doc["curve"])

    def test_unreachable_target_is_runtime_error(self, capsys):
        code = main(["accountant", "--target-eps", "0.01", "--q", "1", "--steps", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nan_target_is_runtime_error(self, capsys):
        code = main(["accountant", "--target-eps", "nan", "--q", "0.01", "--steps", "100"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "target epsilon must be positive" in captured.err


class TestTrainCommand:
    def test_writes_reports(self, tmp_path, capsys):
        conf = write_config(tmp_path, TRAIN_CONF)
        out = tmp_path / "out"
        assert main(["train", str(conf), "--out", str(out)]) == 0
        assert (out / "report.csv").is_file()
        assert (out / "epochs.csv").is_file()
        summary = strict_loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "epochs-exhausted"
        assert summary["config"]["sigma"] == 1.0
        with (out / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2

    def test_budget_stop_before_first_step_is_strict_json(self, tmp_path, capsys):
        conf = write_config(tmp_path, TRAIN_CONF + "budget_eps = 0.01\n")
        out = tmp_path / "out"
        assert main(["train", str(conf), "--out", str(out)]) == 0
        summary = strict_loads((out / "summary.json").read_text())
        assert summary["steps_run"] == 0
        assert summary["train_loss_final"] == "nan"
        assert summary["epochs"][0]["train_loss"] == "nan"

    def test_missing_config_exits_one_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", str(tmp_path / "absent.conf"), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_bad_key_exits_one_without_outputs(self, tmp_path, capsys):
        conf = write_config(tmp_path, TRAIN_CONF + "typo_key = 3\n")
        out = tmp_path / "out"
        assert main(["train", str(conf), "--out", str(out)]) == 1
        assert not out.exists()
        assert "typo_key" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        conf = write_config(
            tmp_path,
            TRAIN_CONF.replace("privacy = fixed-sigma", "privacy = target-epsilon")
            .replace("sigma = 1.0", "target_eps = 0.01"),
        )
        out = tmp_path / "out"
        assert main(["train", str(conf), "--out", str(out)]) == 2
        assert not out.exists()


    def test_empty_test_split_exits_two(self, tmp_path, capsys):
        conf = write_config(tmp_path, TRAIN_CONF + "test_fraction = 0\n")
        out = tmp_path / "out"
        assert main(["train", str(conf), "--out", str(out)]) == 2
        assert not out.exists()
        assert "0 test rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, conf",
        [
            ("target_eps", TRAIN_CONF.replace("privacy = fixed-sigma", "privacy = target-epsilon")
             .replace("sigma = 1.0", "target_eps = nan")),
            ("budget_eps", TRAIN_CONF + "budget_eps = nan\n"),
            ("lr", TRAIN_CONF.replace("lr = 0.08", "lr = inf")),
        ],
        ids=["target_eps", "budget_eps", "lr"],
    )
    def test_non_finite_setting_exits_one_without_outputs(self, tmp_path, capsys, key, conf):
        out = tmp_path / "out"
        assert main(["train", str(write_config(tmp_path, conf)), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_zero_width_exits_one_without_outputs(self, tmp_path, capsys):
        conf = write_config(tmp_path, TRAIN_CONF.replace("widths = 8,1", "widths = 16,0,1"))
        out = tmp_path / "out"
        assert main(["train", str(conf), "--out", str(out)]) == 1
        assert not out.exists()
        assert "widths must all be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, conf",
        [
            ("n", TRAIN_CONF.replace("n = 300", "n = 1")),
            ("dim", TRAIN_CONF.replace("dim = 5", "dim = 0")),
            ("separation", TRAIN_CONF.replace("separation = 4.0", "separation = -1")),
            ("label_noise", TRAIN_CONF + "label_noise = 0.7\n"),
            ("norm", TRAIN_CONF + "norm = bogus\n"),
            ("norm", TRAIN_CONF.replace("widths = 8,1\n", "") + "norm = group:3\n"),
            ("freeze_prefix", TRAIN_CONF + "freeze_prefix = 5\n"),
            ("seed_model", TRAIN_CONF + "seed_model = -1\n"),
        ],
        ids=["n", "dim", "separation", "label_noise", "norm", "norm-groups", "freeze", "seed"],
    )
    def test_bad_value_exits_one_without_outputs(self, tmp_path, capsys, key, conf):
        out = tmp_path / "out"
        assert main(["train", str(write_config(tmp_path, conf)), "--out", str(out)]) == 1
        assert not out.exists()
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)


class TestSweepCommand:
    def test_degenerate_sweep(self, tmp_path, capsys):
        conf = write_config(
            tmp_path,
            TRAIN_CONF.replace("privacy = fixed-sigma\nsigma = 1.0\n", "")
            + "sweep_target_eps = 5,inf\nsweep_clip_norm = 1.0\nseeds_per_cell = 1\n",
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", str(conf), "--out", str(out)]) == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        run_rows = [r for r in rows if r["stop_reason"] not in ("median",)]
        assert len(run_rows) == 2
        private = next(r for r in run_rows if r["target_eps"] == "5.0")
        assert float(private["achieved_eps"]) <= 5.0
        nonprivate = next(r for r in run_rows if r["target_eps"] == "inf")
        assert math.isinf(float(nonprivate["target_eps"]))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds_per_cell"] == 1

    @pytest.mark.parametrize(
        "axes",
        ["sweep_target_eps = -inf\nsweep_clip_norm = 1.0\n",
         "sweep_target_eps = 5\nsweep_clip_norm = 1.0,-1\n"],
        ids=["eps", "clip"],
    )
    def test_bad_axis_exits_one_before_any_cell(self, tmp_path, capsys, monkeypatch, axes):
        cells = []
        monkeypatch.setattr(importlib.import_module("dptrain.train"), "train", cells.append)
        conf = write_config(
            tmp_path,
            TRAIN_CONF.replace("privacy = fixed-sigma\nsigma = 1.0\n", "")
            + axes + "seeds_per_cell = 1\n",
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", str(conf), "--out", str(out)]) == 1
        assert cells == []
        assert not (out / "sweep.csv").exists()
        assert "sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, extra",
        [
            ("n", "n = 1\n"),
            ("norm", "norm = bogus\n"),
            ("freeze_prefix", "sweep_freeze_prefix = 0,5\n"),
        ],
        ids=["n", "norm", "freeze"],
    )
    def test_bad_cell_value_exits_one_before_any_cell(
        self, tmp_path, capsys, monkeypatch, key, extra
    ):
        cells = []
        monkeypatch.setattr(importlib.import_module("dptrain.train"), "train", cells.append)
        conf = write_config(
            tmp_path,
            TRAIN_CONF.replace("privacy = fixed-sigma\nsigma = 1.0\n", "").replace("n = 300\n", "")
            + "sweep_target_eps = 5\nsweep_clip_norm = 1.0\nseeds_per_cell = 1\n" + extra,
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", str(conf), "--out", str(out)]) == 1
        assert cells == []
        assert not out.exists()
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)


class TestGenDataCommand:
    def test_generate_then_train(self, tmp_path, capsys):
        data_path = tmp_path / "blobs.csv"
        gen_conf = write_config(
            tmp_path,
            f"n = 200\ndim = 4\nseparation = 4.0\nlabel_noise = 0.0\nseed = 5\n"
            f"out = {data_path}\n",
            name="gen.conf",
        )
        assert main(["gen-data", str(gen_conf)]) == 0
        assert data_path.is_file()
        train_conf = write_config(
            tmp_path,
            f"dataset = csv\ncsv_path = {data_path}\nwidths = 8,1\nepochs = 2\n"
            "batch_size = 32\nlr = 0.08\nprivacy = off\n",
            name="train.conf",
        )
        out = tmp_path / "out"
        assert main(["train", str(train_conf), "--out", str(out)]) == 0

    def test_rejects_unknown_keys(self, tmp_path, capsys):
        conf = write_config(tmp_path, "n = 10\ndim = 2\nmystery = 1\nout = x.csv\n")
        assert main(["gen-data", str(conf)]) == 1

    @pytest.mark.parametrize("separation", ["nan", "inf"])
    def test_non_finite_separation_writes_nothing(self, tmp_path, capsys, separation):
        data_path = tmp_path / "blobs.csv"
        conf = write_config(
            tmp_path, f"n = 20\ndim = 2\nseparation = {separation}\nout = {data_path}\n"
        )
        assert main(["gen-data", str(conf)]) == 1
        assert not data_path.exists()
        assert "separation must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [("label_noise", "0.7", "label noise must be in"), ("n", "1", "at least two samples")],
    )
    def test_out_of_range_value_exits_1_and_writes_nothing(
        self, tmp_path, capsys, key, value, message
    ):
        data_path = tmp_path / "blobs.csv"
        values = {"n": "20", "dim": "2", key: value, "out": str(data_path)}
        conf = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main(["gen-data", str(conf)]) == 1
        assert not data_path.exists()
        assert message in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

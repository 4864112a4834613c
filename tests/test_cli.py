"""End-to-end command-line tests on tiny synthetic CSVs."""

import csv
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy

import tsrm.cli as cli
from tsrm.cli import main


def write_sine_csv(path, n_rows=400, period=16.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "v"])
        for t in range(n_rows):
            v = 0.5 + 0.4 * math.sin(2 * math.pi * t / period)
            if noise:
                v += rng.normal(0, noise)
            writer.writerow([t, f"{v:.6f}"])
    return path


def write_config(path, window=24, max_epochs=2, branches=None):
    cfg = {
        "model": {"f_embed": 4, "n_layers": 1, "heads": 2,
                  "branches": branches or [{"kernel": 3, "dilation": 1}],
                  "dropout_p": 0.0},
        "train": {"max_epochs": max_epochs, "batch_size": 8, "seed": 0},
        "data": {"window": window, "stride": window},
    }
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def workspace(tmp_path):
    csv_path = write_sine_csv(tmp_path / "series.csv")
    cfg_path = write_config(tmp_path / "cfg.json")
    return tmp_path, csv_path, cfg_path


def run(argv):
    return main(argv)


@pytest.mark.parametrize("module", ["tsrm", "tsrm.cli"])
def test_import_loads_no_scipy(module):
    # scipy.special alone took 0.24 s and 25 MB to import; nothing in tsrm needs it
    probe = (f"import sys, {module}; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


class TestUsageErrors:
    def test_missing_config_flag(self, capsys):
        assert run(["pretrain", "--train-csv", "x.csv", "--out", "o"]) == 2
        assert "required" in capsys.readouterr().err

    def test_no_command(self):
        assert run([]) == 2

    def test_nonexistent_config(self, workspace):
        tmp, csv_path, _ = workspace
        code = run(["pretrain", "--config", str(tmp / "nope.json"),
                    "--train-csv", str(csv_path), "--out", str(tmp / "out")])
        assert code == 2

    def test_unknown_config_section(self, workspace, tmp_path):
        tmp, csv_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {}, "optimizer": {}}))
        code = run(["pretrain", "--config", str(bad),
                    "--train-csv", str(csv_path), "--out", str(tmp / "out")])
        assert code == 2

    def test_config_that_is_not_an_object(self, workspace, tmp_path, caplog):
        tmp, csv_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code = run(["pretrain", "--config", str(bad),
                    "--train-csv", str(csv_path), "--out", str(tmp / "out")])
        assert code == 2
        assert "does not hold a JSON object" in caplog.text

    def test_malformed_csv(self, workspace, tmp_path):
        tmp, _, cfg_path = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text("v\n1.0\nnot-a-number\n")
        code = run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(bad), "--out", str(tmp / "out")])
        assert code == 2

    def test_infinite_csv_cell(self, workspace, tmp_path, caplog):
        tmp, _, cfg_path = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text("v\n0.1\n0.5\n1e999\n0.9\n")
        code = run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(bad), "--out", str(tmp / "out")])
        assert code == 2
        assert "non-finite cell '1e999' at row 4" in caplog.text

    @pytest.mark.parametrize("section,override", [
        ("data", {"path": "x.csv"}),        # the CSVs come from the flags only
        ("model", {"num_classes": 3}),      # pretraining scores one validity logit
        ("model", {"f_embed": "8"}),
        ("model", {"branches": [5]}),
        ("model", {"heads": 0}),
        ("model", {"branches": [{"kernel": 3, "stride": 0}]}),
        ("train", {"initial_lr": "x"}),
        ("train", {"initial_lr": 0}),
        ("train", {"grad_clip_norm": -1}),
        ("train", {"scheduler": {"min_lr": -1e-6}}),
        (None, {"data": 5}),                # a whole section that is not an object
        (None, {"model": []}),
    ])
    def test_rejected_pretrain_config(self, workspace, section, override):
        tmp, csv_path, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        (cfg[section] if section else cfg).update(override)
        cfg_path.write_text(json.dumps(cfg))
        code = run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(csv_path), "--out", str(tmp / "out")])
        assert code == 2
        # rejected before anything is written
        assert not (tmp / "out").exists() or not any((tmp / "out").iterdir())


class TestPretrainCommand:
    def test_writes_checkpoint_runlog_and_config(self, workspace, capsys):
        tmp, csv_path, cfg_path = workspace
        out = tmp / "run"
        code = run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(csv_path), "--out", str(out)])
        assert code == 0
        for name in ("manifest.json", "params.bin", "runlog.jsonl",
                     "effective_config.json", "norm_stats.json"):
            assert (out / name).exists(), name
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_epoch"] >= 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["model"]["T"] == 24  # defaults materialized
        assert effective["model"]["alpha"] == 3.5
        assert effective["train"]["early_stop"]["patience"] == 5
        env = effective["environment"]
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["blas"] and env["blas_version"]
        threads = env["blas_threads"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)

    def test_seed_repetition_reproduces_params(self, workspace, capsys):
        tmp, csv_path, cfg_path = workspace
        hashes = []
        for name in ("a", "b"):
            out = tmp / name
            assert run(["pretrain", "--config", str(cfg_path),
                        "--train-csv", str(csv_path), "--out", str(out),
                        "--seed", "11"]) == 0
            hashes.append(hashlib.sha256((out / "params.bin").read_bytes()).hexdigest())
            capsys.readouterr()
        assert hashes[0] == hashes[1]


class TestFinetuneAndEval:
    def pretrain(self, tmp, csv_path, cfg_path, capsys):
        out = tmp / "pre"
        assert run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(csv_path), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_forecast_finetune_eval_and_truncation(self, workspace, capsys):
        tmp, csv_path, cfg_path = workspace
        pre = self.pretrain(tmp, csv_path, cfg_path, capsys)

        ft_cfg = json.loads(cfg_path.read_text())
        ft_cfg["task"] = {"input_len": 24}
        ft_cfg["data"]["window"] = 32
        ft_cfg["data"]["stride"] = 32
        ft_path = tmp / "ft.json"
        ft_path.write_text(json.dumps(ft_cfg))

        out = tmp / "fc"
        code = run(["finetune", "--task", "forecast", "--horizon", "8",
                    "--model", str(pre), "--config", str(ft_path),
                    "--train-csv", str(csv_path), "--out", str(out)])
        assert code == 0
        capsys.readouterr()

        code = run(["eval", "--model", str(out), "--test-csv", str(csv_path),
                    "--horizon-eval", "4"])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "horizon_8" in metrics and "horizon_4" in metrics
        assert "mse" in metrics["horizon_8"]
        assert "trainable_params_millions" in metrics["horizon_8"]

    def test_eval_without_observed_targets_exits_with_data_error_code(self, tmp_path, capsys,
                                                                      caplog):
        from tsrm.finetune import TaskSpec, prepare_finetune
        from tsrm.model import ModelConfig, TsrmModel, save_checkpoint
        cfg = ModelConfig(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        model = prepare_finetune(TsrmModel(cfg, seed=0),
                                 TaskSpec("forecast", horizon=8, input_len=24))
        save_checkpoint(model, tmp_path / "fc")
        # every 32-step window misses its whole 8-step horizon
        rows = ["v"] + [f"{0.5 + 0.01 * (t % 24):.3f}" if t % 32 < 24 else ""
                        for t in range(96)]
        (tmp_path / "gappy.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "data.json").write_text(json.dumps({"data": {"window": 32, "stride": 32}}))
        code = run(["eval", "--model", str(tmp_path / "fc"),
                    "--test-csv", str(tmp_path / "gappy.csv"),
                    "--config", str(tmp_path / "data.json")])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert "no observed target" in caplog.text

    def test_out_of_range_model_input_exits_with_data_error_code(self, tmp_path, capsys,
                                                                  caplog, monkeypatch):
        from tsrm.finetune import TaskSpec, prepare_finetune
        from tsrm.model import ModelConfig, TsrmModel, save_checkpoint
        cfg = ModelConfig(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        model = prepare_finetune(TsrmModel(cfg, seed=0),
                                 TaskSpec("forecast", horizon=8, input_len=24))
        save_checkpoint(model, tmp_path / "fc")
        csv_path = write_sine_csv(tmp_path / "series.csv", n_rows=96)
        (tmp_path / "data.json").write_text(json.dumps({"data": {"window": 32, "stride": 32}}))
        normalize = cli.normalize

        def broken_normalize(values, stats):
            # stands in for a normalization that lets a value out of [0, 1]
            out, clamped = normalize(values, stats)
            out[32 + 3, 0] = 7.0
            return out, clamped

        monkeypatch.setattr(cli, "normalize", broken_normalize)
        code = run(["eval", "--model", str(tmp_path / "fc"), "--test-csv", str(csv_path),
                    "--config", str(tmp_path / "data.json")])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert "(b, t, f) = (1, 3, 0) is 7.0" in caplog.text

    def test_checkpoint_offset_outside_blob_exits_with_runtime_code(self, tmp_path, capsys,
                                                                    caplog):
        from tsrm.model import ModelConfig, TsrmModel, save_checkpoint
        cfg = ModelConfig(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        save_checkpoint(TsrmModel(cfg, seed=0), tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["params"][1]["offset"] = -8
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        csv_path = write_sine_csv(tmp_path / "series.csv", n_rows=96)
        code = run(["eval", "--model", str(tmp_path / "m"), "--test-csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert "offset -8 does not place it inside params.bin" in caplog.text

    @pytest.mark.parametrize("corrupt", [
        lambda m: m["config"].update(f_embed="8"),
        lambda m: m.update(task=5),
        lambda m: m.update(task_spec=[1]),
        lambda m: m.update(task="forecast", task_spec={"kind": "forecast"}),
        lambda m: m.update(task="impute", task_spec={"kind": "impute", "extra": 1}),
    ], ids=["config-value-of-wrong-type", "task-not-a-string", "task-spec-a-list",
            "forecast-spec-without-horizon", "task-spec-with-unknown-key"])
    def test_corrupt_manifest_config_exits_with_runtime_code(self, tmp_path, capsys, caplog,
                                                             corrupt):
        from tsrm.model import ModelConfig, TsrmModel, save_checkpoint
        cfg = ModelConfig(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        save_checkpoint(TsrmModel(cfg, seed=0), tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        corrupt(manifest)
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        csv_path = write_sine_csv(tmp_path / "series.csv", n_rows=96)
        code = run(["eval", "--model", str(tmp_path / "m"), "--test-csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert "manifest" in caplog.text

    @pytest.mark.parametrize("stats", [
        "{broken",
        '{"mins": [0.0]}',
        '{"mins": [0.0, 0.0], "maxs": [1.0]}',
        '{"mins": [0.0], "maxs": [NaN]}',
        '{"mins": ["a"], "maxs": [1.0]}',
        "[]",
    ])
    def test_malformed_norm_stats_exits_with_runtime_code(self, tmp_path, capsys, caplog,
                                                         stats):
        from tsrm.model import ModelConfig, TsrmModel, save_checkpoint
        cfg = ModelConfig(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        save_checkpoint(TsrmModel(cfg, seed=0), tmp_path / "m")
        (tmp_path / "m" / "norm_stats.json").write_text(stats)
        csv_path = write_sine_csv(tmp_path / "series.csv", n_rows=96)
        code = run(["eval", "--task", "impute", "--model", str(tmp_path / "m"),
                    "--test-csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert "norm_stats.json" in caplog.text

    @pytest.mark.parametrize("command", ["eval", "explain", "finetune"])
    @pytest.mark.parametrize("n_cols", [1, 2])
    def test_csv_with_other_column_count_than_stats_exits_with_data_error_code(
            self, tmp_path, capsys, caplog, command, n_cols):
        from tsrm.data import NormStats
        from tsrm.finetune import TaskSpec, prepare_finetune
        from tsrm.model import ModelConfig, TsrmModel, save_checkpoint
        cfg = ModelConfig(T=24, F=3, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        model = prepare_finetune(TsrmModel(cfg, seed=0), TaskSpec("impute"))
        save_checkpoint(model, tmp_path / "m")
        (tmp_path / "m" / "norm_stats.json").write_text(json.dumps(
            NormStats(np.zeros(3), np.ones(3)).to_dict()))
        rows = [",".join(f"c{j}" for j in range(n_cols))]
        rows += [",".join(f"{0.5 + 0.4 * math.sin(t / 3 + j):.4f}" for j in range(n_cols))
                 for t in range(96)]
        csv_path = tmp_path / "narrow.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg_path = write_config(tmp_path / "cfg.json")
        argv = {"eval": ["eval", "--model", str(tmp_path / "m"), "--test-csv", str(csv_path)],
                "explain": ["explain", "--model", str(tmp_path / "m"),
                            "--input-csv", str(csv_path), "--sample", "0",
                            "--out", str(tmp_path / "x")],
                "finetune": ["finetune", "--task", "impute", "--model", str(tmp_path / "m"),
                             "--config", str(cfg_path), "--train-csv", str(csv_path),
                             "--out", str(tmp_path / "ft")]}[command]
        assert run(argv) == 2
        assert capsys.readouterr().out == ""
        assert f"data has {n_cols} columns but the normalization stats cover 3" in caplog.text

    def test_horizon_with_classify_rejected(self, workspace):
        tmp, csv_path, cfg_path = workspace
        pre = tmp / "pre-x"
        assert run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(csv_path), "--out", str(pre)]) == 0
        code = run(["finetune", "--task", "classify", "--horizon", "8",
                    "--classes", "2", "--model", str(pre),
                    "--config", str(cfg_path), "--train-csv", str(csv_path),
                    "--out", str(tmp / "bad")])
        assert code == 2

    def test_impute_finetune_and_eval(self, workspace, capsys):
        tmp, csv_path, cfg_path = workspace
        pre = self.pretrain(tmp, csv_path, cfg_path, capsys)
        out = tmp / "imp"
        code = run(["finetune", "--task", "impute", "--model", str(pre),
                    "--config", str(cfg_path), "--train-csv", str(csv_path),
                    "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        code = run(["eval", "--model", str(out), "--test-csv", str(csv_path)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "mae" in metrics and "rmse" in metrics

    def test_classify_head_width(self, workspace, capsys):
        tmp, csv_path, cfg_path = workspace
        pre = self.pretrain(tmp, csv_path, cfg_path, capsys)

        # build a labeled copy of the series
        rows = (tmp / "series.csv").read_text().splitlines()
        labeled = tmp / "labeled.csv"
        out_rows = [rows[0] + ",y"]
        for i, line in enumerate(rows[1:]):
            out_rows.append(f"{line},{(i // 24) % 6}")
        labeled.write_text("\n".join(out_rows) + "\n")

        cfg = json.loads(cfg_path.read_text())
        cfg["data"]["label_column"] = "y"
        cfg_labeled = tmp / "cfg_labeled.json"
        cfg_labeled.write_text(json.dumps(cfg))

        out = tmp / "cls"
        code = run(["finetune", "--task", "classify", "--classes", "6",
                    "--model", str(pre), "--config", str(cfg_labeled),
                    "--train-csv", str(labeled), "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        from tsrm.model import load_checkpoint
        model = load_checkpoint(out)
        assert model.params["ac.head.w3"].data.shape == (32, 6)


class TestExplainCommand:
    def test_writes_one_csv_per_feature(self, workspace, capsys):
        tmp, csv_path, cfg_path = workspace
        pre = tmp / "pre-ex"
        assert run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(csv_path), "--out", str(pre)]) == 0
        capsys.readouterr()
        out = tmp / "explain"
        code = run(["explain", "--model", str(pre), "--input-csv", str(csv_path),
                    "--sample", "0", "--out", str(out), "--svg"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(p.endswith("attention_feature_0.csv") for p in payload["written"])
        assert any(p.endswith(".svg") for p in payload["written"])
        lines = (out / "attention_feature_0.csv").read_text().splitlines()
        assert len(lines) == 25

    @staticmethod
    def forecast_checkpoint_with_task_spec(tmp_path, task_spec):
        """A forecast model (input_len 96, horizon 4) saved with task_spec
        replaced in its manifest, and a CSV of one window for it."""
        from tsrm.finetune import TaskSpec, prepare_finetune
        from tsrm.model import ModelConfig, TsrmModel, save_checkpoint
        cfg = ModelConfig(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        model = prepare_finetune(TsrmModel(cfg, seed=0),
                                 TaskSpec("forecast", horizon=4, input_len=96))
        save_checkpoint(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["task_spec"] = task_spec
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        return tmp_path / "m", write_sine_csv(tmp_path / "series.csv", n_rows=100)

    def test_forecast_manifest_without_input_len_hides_the_default_horizon(self, tmp_path,
                                                                           capsys):
        # decoded as `tsrm eval` decodes it: input_len takes its default, 96
        model_dir, csv_path = self.forecast_checkpoint_with_task_spec(
            tmp_path, {"kind": "forecast", "horizon": 4})
        code = run(["explain", "--model", str(model_dir), "--input-csv", str(csv_path),
                    "--sample", "0", "--out", str(tmp_path / "x")])
        assert code == 0
        with open(tmp_path / "x" / "attention_feature_0.csv", newline="") as fh:
            inputs = [float(row["input_value"]) for row in csv.DictReader(fh)]
        assert len(inputs) == 100
        assert all(v != -1.0 for v in inputs[:96]) and all(v == -1.0 for v in inputs[96:])

    def test_malformed_forecast_task_spec_exits_with_runtime_code(self, tmp_path, capsys,
                                                                  caplog):
        model_dir, csv_path = self.forecast_checkpoint_with_task_spec(
            tmp_path, {"kind": "forecast", "horizon": "4"})
        code = run(["explain", "--model", str(model_dir), "--input-csv", str(csv_path),
                    "--sample", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert "manifest task_spec" in caplog.text

    def test_sample_out_of_range(self, workspace, capsys):
        tmp, csv_path, cfg_path = workspace
        pre = tmp / "pre-ex2"
        assert run(["pretrain", "--config", str(cfg_path),
                    "--train-csv", str(csv_path), "--out", str(pre)]) == 0
        code = run(["explain", "--model", str(pre), "--input-csv", str(csv_path),
                    "--sample", "9999", "--out", str(tmp / "x")])
        assert code == 2


class TestMaskStats:
    def test_reports_bounded_statistics(self, capsys):
        code = run(["mask-stats", "--t", "96", "--n", "500", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.30 <= payload["fraction"]["min"]
        assert payload["fraction"]["max"] < 0.60
        lo, hi = payload["subset_length_bounds"]
        assert (lo, hi) == (5, 9)
        lengths = [int(k) for k in payload["run_length_histogram"]]
        assert min(lengths) >= lo and max(lengths) <= hi

    def test_deterministic_per_seed(self, capsys):
        run(["mask-stats", "--t", "48", "--n", "200", "--seed", "5"])
        a = capsys.readouterr().out
        run(["mask-stats", "--t", "48", "--n", "200", "--seed", "5"])
        b = capsys.readouterr().out
        assert a == b

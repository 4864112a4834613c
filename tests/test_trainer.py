"""Training loop: stopping rules, scheduling, determinism, diagnostics."""

import contextlib
import json

import numpy as np
import pytest

from tsrm.autodiff import Tensor
from tsrm.data import WindowedDataset, synth_dataset
from tsrm.errors import ConfigError, NumericsError
from tsrm.model import ForwardTrace, ModelConfig, TsrmModel, load_checkpoint
from tsrm.trainer import (
    EarlyStopTracker,
    FinetuneObjective,
    PlateauScheduler,
    PretrainObjective,
    TrainConfig,
    train,
)
from tsrm.finetune import TaskSpec, prepare_finetune
import tsrm.trainer as trainer_module

from helpers import spy_forward


def early_stop_check(history) -> bool:
    """Replay a validation-loss history through the default stopping rule."""
    tracker = EarlyStopTracker(TrainConfig.early_stop_rel, TrainConfig.early_stop_patience)
    stop = False
    for value in history:
        stop = tracker.update(value)
    return stop


class TestEarlyStop:
    def test_single_entry_never_stops(self):
        assert early_stop_check([1.0]) is False

    def test_sub_threshold_improvements_stop_after_patience(self):
        history = [1.0, 0.995, 0.994, 0.993, 0.992, 0.991]
        assert early_stop_check(history) is True          # stop after epoch 6
        assert early_stop_check(history[:-1]) is False    # but not before

    def test_qualifying_improvement_resets_patience(self):
        # 0.98 improves by 2%; the four later epochs are stale, one short of
        # the patience of five -- a fifth stale epoch triggers the stop
        history = [1.0, 0.98, 0.985, 0.984, 0.983, 0.982]
        assert early_stop_check(history) is False
        assert early_stop_check(history + [0.981]) is True

    def test_steady_improvement_never_stops(self):
        history = [1.0 * (0.98 ** i) for i in range(50)]
        assert early_stop_check(history) is False

    def test_zero_best_loss_counts_as_stale(self):
        # no relative improvement over a zero loss is possible
        assert early_stop_check([0.0, 0.0]) is False
        assert early_stop_check([0.0] * 6) is True

    def test_tracker_threshold_is_relative(self):
        t = EarlyStopTracker(rel=0.01, patience=2)
        assert t.update(100.0) is False
        assert t.update(99.5) is False   # 0.5% -- stale 1
        assert t.update(99.2) is True    # 0.8% of best=100 -- stale 2
        t2 = EarlyStopTracker(rel=0.01, patience=2)
        assert t2.update(100.0) is False
        assert t2.update(99.0) is False  # exactly 1% qualifies, patience resets
        assert t2.update(99.0) is False


class TestPlateauScheduler:
    def test_improving_keeps_lr(self):
        s = PlateauScheduler(1e-3, factor=0.5, patience=2, min_lr=1e-6)
        for v in (3.0, 2.0, 1.0, 0.5):
            assert s.step(v) == 1e-3

    def test_flat_loss_halves_after_second_stale_epoch(self):
        s = PlateauScheduler(1e-3, factor=0.5, patience=2, min_lr=1e-6)
        assert s.step(1.0) == 1e-3   # first observation
        assert s.step(1.0) == 1e-3   # stale 1
        assert s.step(1.0) == 5e-4   # stale 2 -> reduce
        assert s.step(1.0) == 5e-4   # counter was reset

    def test_min_lr_floor(self):
        s = PlateauScheduler(2e-6, factor=0.5, patience=1, min_lr=1e-6)
        s.step(1.0)
        assert s.step(1.0) == 1e-6
        assert s.step(1.0) == 1e-6


class TestTrainConfig:
    def test_nested_round_trip(self):
        cfg = TrainConfig(max_epochs=7, early_stop_patience=3)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown train"):
            TrainConfig.from_dict({"max_epochs": 5, "bogus": 1})
        with pytest.raises(ConfigError, match="unknown scheduler"):
            TrainConfig.from_dict({"scheduler": {"gamma": 0.1}})

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(scheduler_factor=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(early_stop_patience=0)


def tiny_setup(seed=0, n=32, T=24):
    cfg = ModelConfig(T=T, F=1, f_embed=4, n_layers=1, heads=2,
                      branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
    model = TsrmModel(cfg, seed=seed)
    train_ds = synth_dataset("sine", T=T, F=1, n=n, seed=1)
    val_ds = synth_dataset("sine", T=T, F=1, n=max(8, n // 4), seed=2)
    objective = PretrainObjective(train_ds, val_ds, batch_size=16)
    return model, objective


class TestTrainLoop:
    def test_runs_and_logs(self, tmp_path):
        model, objective = tiny_setup()
        cfg = TrainConfig(max_epochs=3, batch_size=16, seed=0)
        model, log = train(model, objective, cfg, out_dir=tmp_path / "run")
        assert len(log.epochs) == 3
        assert log.total_steps == 3 * 2  # 32 samples / 16 per batch
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "params.bin").exists()
        lines = (tmp_path / "run" / "runlog.jsonl").read_text().splitlines()
        assert len(lines) == 4  # 3 epochs + summary
        rec = json.loads(lines[0])
        assert {"epoch", "train", "val", "lr", "seconds"} <= set(rec)
        assert {"l_repr", "l_imp", "l_class", "total"} <= set(rec["val"])

    def test_best_checkpoint_reproduces_logged_val_loss(self, tmp_path):
        model, objective = tiny_setup()
        cfg = TrainConfig(max_epochs=4, batch_size=16, seed=0)
        model, log = train(model, objective, cfg, out_dir=tmp_path / "run")
        restored = load_checkpoint(tmp_path / "run")
        parts = []
        for batch in objective.val_batches():
            trace = restored.forward(batch.model_input)
            _, bd = objective.loss(trace, batch)
            parts.append((bd["total"], batch.model_input.shape[0]))
        val = sum(v * n for v, n in parts) / sum(n for _, n in parts)
        np.testing.assert_allclose(val, log.best_val, atol=1e-6)

    def test_seeded_determinism(self, tmp_path):
        runs = []
        for attempt in range(2):
            model, objective = tiny_setup()
            cfg = TrainConfig(max_epochs=3, batch_size=16, seed=7)
            model, log = train(model, objective, cfg)
            blob = b"".join(p.data.tobytes() for p in model.parameters())
            runs.append((blob, [
                {k: v for k, v in rec.items() if k != "seconds"}
                for rec in log.epochs]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_validation_is_graph_free_and_matches_a_recorded_run(self, monkeypatch):
        def run():
            model, objective = tiny_setup()
            calls = spy_forward(model)
            model, log = train(model, objective, TrainConfig(max_epochs=2, batch_size=16, seed=3))
            blob = b"".join(p.data.tobytes() for p in model.parameters())
            epochs = [{k: v for k, v in rec.items() if k != "seconds"} for rec in log.epochs]
            return blob, epochs, calls

        blob, epochs, calls = run()
        monkeypatch.setattr(trainer_module, "no_grad", contextlib.nullcontext)
        recorded_blob, recorded_epochs, recorded_calls = run()
        assert calls == [(True, True)] * 2 + [(False, False)] + [(True, True)] * 2 + [(False, False)]
        assert all(graph for _, graph in recorded_calls)
        assert blob == recorded_blob
        assert epochs == recorded_epochs

    def test_different_seeds_diverge(self):
        model_a, objective = tiny_setup()
        _, log_a = train(model_a, objective, TrainConfig(max_epochs=2, batch_size=16, seed=1))
        model_b, objective_b = tiny_setup()
        _, log_b = train(model_b, objective_b, TrainConfig(max_epochs=2, batch_size=16, seed=2))
        assert log_a.epochs[0]["train"]["total"] != log_b.epochs[0]["train"]["total"]

    def test_nan_loss_aborts_with_diagnostics(self):
        model, _ = tiny_setup()

        class PoisonObjective:
            batch_size = TrainConfig.batch_size

            def train_batches(self, rng):
                class B:
                    model_input = np.zeros((2, 24, 1), dtype=np.float32)
                return [B()]

            def val_batches(self):
                return []

            def loss(self, trace, batch):
                return Tensor(np.float32(np.nan)), {"total": float("nan")}

        with pytest.raises(NumericsError) as err:
            train(model, PoisonObjective(), TrainConfig(max_epochs=1))
        assert err.value.epoch == 0 and err.value.batch == 0

    def test_early_stop_fires(self):
        model, objective = tiny_setup(n=16)
        # lr 0 keeps the model constant, so validation never improves
        cfg = TrainConfig(max_epochs=30, batch_size=16, initial_lr=1e-12,
                          early_stop_patience=3, seed=0)
        model, log = train(model, objective, cfg)
        assert len(log.epochs) <= 6

    def test_objective_batch_size_must_be_the_configs(self):
        # the objective builds the batches; a config asking for another size
        # used to be ignored without a word
        model, objective = tiny_setup()
        with pytest.raises(ConfigError, match="objective batches 16 windows.*asks for 8"):
            train(model, objective, TrainConfig(max_epochs=1, batch_size=8))

    def test_finetune_objective_forecast(self):
        cfg = ModelConfig(T=20, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        model = TsrmModel(cfg, seed=3)
        task = TaskSpec("forecast", horizon=4, input_len=20)
        model = prepare_finetune(model, task)  # freezes the classifier
        train_ds = synth_dataset("sine", T=24, F=1, n=16, seed=4)
        val_ds = synth_dataset("sine", T=24, F=1, n=8, seed=5)
        objective = FinetuneObjective(task, train_ds, val_ds, batch_size=8)
        model, log = train(model, objective, TrainConfig(max_epochs=2, batch_size=8, seed=0))
        assert len(log.epochs) == 2
        assert log.epochs[0]["val"]["total"] > 0


def tiny_task_model(task, T=24):
    cfg = ModelConfig(T=T, F=1, f_embed=4, n_layers=1, heads=2,
                      branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
    return prepare_finetune(TsrmModel(cfg, seed=3), task)


def labeled_windows(n=20):
    """Sine windows whose first value encodes the row index, with random
    labels in [0, 3); returns (dataset, labels)."""
    values = synth_dataset("sine", T=24, F=1, n=n, seed=4).values
    values[:, 0, 0] = np.arange(n) / 100.0
    labels = np.random.default_rng(0).integers(0, 3, n)
    return WindowedDataset(values, labels), labels


def batch_rows(batch) -> np.ndarray:
    return np.rint(batch.values[:, 0, 0] * 100.0).astype(int)


class TestClassifyObjective:
    task = TaskSpec("classify", num_classes=3)

    def test_batches_keep_each_row_with_its_label(self):
        ds, labels = labeled_windows()
        objective = FinetuneObjective(self.task, ds, ds, batch_size=8)
        batches = objective.train_batches(np.random.default_rng(1))
        rows = np.concatenate([batch_rows(b) for b in batches])
        assert sorted(rows) == list(range(len(ds)))
        assert not np.array_equal(rows, np.arange(len(ds)))  # shuffled
        for batch in batches + objective.val_batches():
            np.testing.assert_array_equal(batch.labels, labels[batch_rows(batch)])

    def test_unlabeled_dataset_raises_config_error(self):
        ds = synth_dataset("sine", T=24, F=1, n=8, seed=4)
        objective = FinetuneObjective(self.task, ds, ds, batch_size=8)
        with pytest.raises(ConfigError, match="needs labels"):
            train(tiny_task_model(self.task), objective, TrainConfig(max_epochs=1, batch_size=8))


class TestTracedHooks:
    """``bench/spans.py`` times batch building and the losses by wrapping
    these names in the ``tsrm.trainer`` namespace, and divides by their call
    counts; an objective that reached them another way would go untimed."""

    HOOKS = ("build_pretrain_batch", "pretrain_loss", "build_forecast_batch",
             "build_impute_batch", "build_classify_batch", "finetune_loss")

    def test_objectives_call_through_the_trainer_namespace(self, monkeypatch):
        calls = dict.fromkeys(self.HOOKS, 0)

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in self.HOOKS:
            monkeypatch.setattr(trainer_module, name, spy(name, getattr(trainer_module, name)))
        cfg = TrainConfig(max_epochs=1, batch_size=8)
        unlabeled = synth_dataset("sine", T=24, F=1, n=8, seed=4)
        labeled, _ = labeled_windows(n=8)
        forecast = TaskSpec("forecast", horizon=4, input_len=20)
        model, objective = tiny_setup(n=8)
        train(model, objective, TrainConfig(max_epochs=1, batch_size=objective.batch_size))
        for task, ds in ((forecast, unlabeled), (TaskSpec("impute"), unlabeled),
                         (TaskSpec("classify", num_classes=3), labeled)):
            model = tiny_task_model(task, T=20 if task.kind == "forecast" else 24)
            train(model, FinetuneObjective(task, ds, ds, batch_size=8), cfg)
        assert all(calls.values()), calls

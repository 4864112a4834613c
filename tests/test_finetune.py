"""Task adapters: freezing, input building, losses, metrics."""

import contextlib

import numpy as np
import pytest

from tsrm.autodiff import Adam, Tensor
from tsrm.data import WindowedDataset, synth_dataset
from tsrm.errors import ConfigError, DataError
import tsrm.finetune as finetune_module
from tsrm.finetune import (
    FinetuneBatch,
    TaskSpec,
    build_classify_batch,
    build_forecast_batch,
    build_impute_batch,
    evaluate_task,
    finetune_loss,
    macro_f1,
    prepare_finetune,
)
from tsrm.model import ForwardTrace, ModelConfig, TsrmModel
from tsrm.pretraining import build_pretrain_batch, pretrain_loss

from helpers import spy_forward


def pretrained_model(T=24, F=1, num_classes=1):
    cfg = ModelConfig(T=T, F=F, f_embed=4, n_layers=1, heads=2,
                      branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0,
                      num_classes=num_classes)
    return TsrmModel(cfg, seed=0)


def fake_trace(output, logits=None):
    B = output.shape[0]
    logits = np.zeros((B, 1), dtype=np.float32) if logits is None else logits
    return ForwardTrace(output=Tensor(np.asarray(output, dtype=np.float32)),
                        class_logits=Tensor(np.asarray(logits, dtype=np.float32)),
                        attention=np.zeros((1, B, 1, 4)))


class TestTaskSpec:
    def test_kinds_validate_their_flags(self):
        TaskSpec("forecast", horizon=24)
        TaskSpec("impute")
        TaskSpec("classify", num_classes=6)
        with pytest.raises(ConfigError, match="horizon"):
            TaskSpec("forecast")
        with pytest.raises(ConfigError, match="horizon"):
            TaskSpec("classify", horizon=4, num_classes=2)
        with pytest.raises(ConfigError, match="num_classes"):
            TaskSpec("classify")
        with pytest.raises(ConfigError, match="num_classes"):
            TaskSpec("impute", num_classes=3)

    def test_frozen_sets_are_nonempty_and_disjoint_from_task(self):
        model = pretrained_model()
        fc = TaskSpec("forecast", horizon=4).frozen_predicate()
        cl = TaskSpec("classify", num_classes=2).frozen_predicate()
        names = list(model.params)
        assert any(fc(n) for n in names) and any(cl(n) for n in names)
        assert not any(fc(n) and cl(n) for n in names)


class TestPrepareFinetune:
    def test_forecast_freezes_classifier_and_extends_window(self):
        model = prepare_finetune(pretrained_model(), TaskSpec("forecast", horizon=8,
                                                              input_len=24))
        assert model.config.T == 32
        assert all(p.frozen == p.name.startswith("ac.") for p in model.parameters())

    def test_classify_freezes_sequence_path_and_resizes_head(self):
        model = prepare_finetune(pretrained_model(),
                                 TaskSpec("classify", num_classes=6), seed=3)
        assert model.params["ac.head.w3"].data.shape == (32, 6)
        for p in model.parameters():
            expected = p.name.startswith(("embed.", "el", "deembed."))
            assert p.frozen == expected, p.name

    def test_classify_keeps_per_feature_trunks(self):
        model = pretrained_model()
        trunk_before = model.params["ac.conv1.w"].data.copy()
        head_before = model.params["ac.head.w1"].data.copy()
        model = prepare_finetune(model, TaskSpec("classify", num_classes=4), seed=9)
        np.testing.assert_array_equal(model.params["ac.conv1.w"].data, trunk_before)
        assert not np.array_equal(model.params["ac.head.w1"].data, head_before)

    def test_impute_freezes_classifier_only(self):
        model = prepare_finetune(pretrained_model(), TaskSpec("impute"))
        assert all(p.frozen == p.name.startswith("ac.") for p in model.parameters())


class TestFreezeInvariance:
    def run_steps(self, model, task, steps=10):
        rng = np.random.default_rng(0)
        T, F = model.config.T, model.config.F
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(steps):
            values = rng.random((4, T, F)).astype(np.float32)
            observed = np.ones_like(values, dtype=bool)
            if task.kind == "forecast":
                batch = build_forecast_batch(values, observed, task)
            elif task.kind == "impute":
                batch = build_impute_batch(values, observed, rng)
            else:
                batch = build_classify_batch(values, observed,
                                             rng.integers(0, task.num_classes, 4))
            trace = model.forward(batch.model_input, training=True, rng=rng)
            loss = finetune_loss(trace, batch, task)
            opt.zero_grad()
            loss.backward()
            opt.step()

    def test_forecast_keeps_classifier_bitwise(self):
        task = TaskSpec("forecast", horizon=8, input_len=24)
        model = prepare_finetune(pretrained_model(), task)
        frozen_before = {n: p.data.copy() for n, p in model.params.items()
                         if p.frozen}
        live_before = {n: p.data.copy() for n, p in model.params.items()
                       if not p.frozen}
        self.run_steps(model, task)
        for n, before in frozen_before.items():
            assert model.params[n].data.tobytes() == before.tobytes(), n
        changed = [n for n, before in live_before.items()
                   if model.params[n].data.tobytes() != before.tobytes()]
        assert changed, "no unfrozen parameter moved"

    def test_classify_keeps_encoder_bitwise_but_trains_head(self):
        task = TaskSpec("classify", num_classes=3)
        model = prepare_finetune(pretrained_model(), task, seed=1)
        frozen_before = {n: p.data.copy() for n, p in model.params.items() if p.frozen}
        head_before = model.params["ac.head.w3"].data.copy()
        self.run_steps(model, task)
        for n, before in frozen_before.items():
            assert model.params[n].data.tobytes() == before.tobytes(), n
        assert not np.array_equal(model.params["ac.head.w3"].data, head_before)

    def test_gradients_flow_through_frozen_encoder_to_classifier(self):
        task = TaskSpec("classify", num_classes=3)
        model = prepare_finetune(pretrained_model(), task, seed=2)
        rng = np.random.default_rng(4)
        values = rng.random((2, 24, 1)).astype(np.float32)
        batch = build_classify_batch(values, np.ones_like(values, dtype=bool),
                                     np.array([0, 2]))
        trace = model.forward(batch.model_input)
        loss = finetune_loss(trace, batch, task)
        loss.backward()
        assert model.params["ac.head.w1"].tensor.grad is not None
        assert np.abs(model.params["ac.head.w1"].tensor.grad).sum() > 0
        assert model.params["el0.attn.wq"].tensor.grad is None  # frozen leaf


class TestForecastInput:
    def test_batch_builder_marks_horizon(self):
        task = TaskSpec("forecast", horizon=4, input_len=20)
        values = np.random.default_rng(7).random((3, 24, 2)).astype(np.float32)
        observed = np.ones_like(values, dtype=bool)
        batch = build_forecast_batch(values, observed, task)
        np.testing.assert_array_equal(batch.model_input[:, 20:], -1.0)
        assert batch.mask[:, 20:].all() and not batch.mask[:, :20].any()

    def test_wrong_window_length_rejected(self):
        task = TaskSpec("forecast", horizon=4, input_len=20)
        with pytest.raises(ConfigError, match="length 24"):
            build_forecast_batch(np.zeros((1, 30, 1)), np.ones((1, 30, 1), bool), task)


class TestFinetuneLoss:
    def test_forecast_ignores_input_positions(self):
        task = TaskSpec("forecast", horizon=4, input_len=20)
        values = np.random.default_rng(8).random((2, 24, 1)).astype(np.float32)
        batch = build_forecast_batch(values, np.ones_like(values, dtype=bool), task)
        out = np.zeros((2, 24, 1))
        a = finetune_loss(fake_trace(out), batch, task).item()
        out2 = out.copy()
        out2[:, :20] = 99.0
        b = finetune_loss(fake_trace(out2), batch, task).item()
        assert a == b

    def test_impute_loss_equals_pretraining_imputation_term(self):
        from tsrm.pretraining import PretrainBatch
        rng = np.random.default_rng(9)
        values = rng.random((3, 24, 1)).astype(np.float32)
        observed = np.ones_like(values, dtype=bool)
        batch = build_impute_batch(values, observed, np.random.default_rng(1))
        out = rng.random((3, 24, 1)).astype(np.float32)
        ft = finetune_loss(fake_trace(out), batch, TaskSpec("impute")).item()

        pre = PretrainBatch(model_input=batch.model_input, values=batch.values,
                            observed=observed, eval_mask=batch.mask,
                            validity=np.ones(3, dtype=np.float32))
        _, bd = pretrain_loss(fake_trace(out), pre,
                              ModelConfig.alpha, ModelConfig.beta, ModelConfig.gamma)
        np.testing.assert_allclose(ft, bd.l_imp, rtol=1e-6)

    def test_classify_uniform_logits_give_log_c(self):
        task = TaskSpec("classify", num_classes=6)
        batch = FinetuneBatch(model_input=np.zeros((4, 24, 1), dtype=np.float32),
                              values=np.zeros((4, 24, 1), dtype=np.float32),
                              labels=np.array([0, 1, 2, 5]))
        trace = fake_trace(np.zeros((4, 24, 1)), logits=np.zeros((4, 6)))
        loss = finetune_loss(trace, batch, task)
        np.testing.assert_allclose(loss.item(), np.log(6.0), rtol=1e-6)

    def test_empty_target_set_rejected(self):
        task = TaskSpec("impute")
        batch = FinetuneBatch(model_input=np.zeros((1, 24, 1), dtype=np.float32),
                              values=np.zeros((1, 24, 1), dtype=np.float32),
                              mask=np.zeros((1, 24, 1), dtype=bool))
        with pytest.raises(ConfigError, match="no target"):
            finetune_loss(fake_trace(np.zeros((1, 24, 1))), batch, task)


    @pytest.mark.parametrize("kind", ["forecast", "impute"])
    def test_target_value_shown_in_model_input_rejected(self, kind):
        task = TaskSpec(kind, horizon=4, input_len=20) if kind == "forecast" else TaskSpec(kind)
        values = np.random.default_rng(12).random((2, 24, 1)).astype(np.float32)
        observed = np.ones_like(values, dtype=bool)
        batch = (build_forecast_batch(values, observed, task) if kind == "forecast"
                 else build_impute_batch(values, observed, np.random.default_rng(2)))
        finetune_loss(fake_trace(np.zeros((2, 24, 1))), batch, task)
        b, t, f = np.argwhere(batch.mask)[-1]
        batch.model_input[b, t, f] = batch.values[b, t, f]
        with pytest.raises(DataError, match="target positions"):
            finetune_loss(fake_trace(np.zeros((2, 24, 1))), batch, task)


class TestEvaluateTask:
    class CopyModel:
        """Stub whose output equals its input plus a constant offset."""

        def __init__(self, offset=0.0, T=24, F=1):
            self.offset = offset
            self.config = type("C", (), {"T": T, "F": F})()

        def parameter_count(self, trainable_only=False):
            return 1_000_000

        def forward(self, x, **kw):
            out = np.asarray(x, dtype=np.float32) + self.offset
            return ForwardTrace(output=Tensor(out),
                                class_logits=Tensor(np.zeros((x.shape[0], 1),
                                                             dtype=np.float32)),
                                attention=np.zeros((1, x.shape[0], 1, 4)))

    def test_perfect_forecaster_scores_zero(self):
        task = TaskSpec("forecast", horizon=4, input_len=20)
        values = np.random.default_rng(10).random((5, 24, 1)).astype(np.float32)
        ds = WindowedDataset(values)

        class Oracle(self.CopyModel):
            def forward(inner, x, **kw):
                return ForwardTrace(output=Tensor(values[: x.shape[0]]),
                                    class_logits=Tensor(np.zeros((x.shape[0], 1),
                                                                 dtype=np.float32)),
                                    attention=np.zeros((1, x.shape[0], 1, 4)))

        metrics = evaluate_task(Oracle(), ds, task)
        assert metrics["mse"] == 0.0 and metrics["mae"] == 0.0
        assert metrics["trainable_params_millions"] == 1.0

    def test_constant_offset_gives_mae_delta_and_rmse_bound(self):
        task = TaskSpec("impute")
        values = np.random.default_rng(11).random((4, 24, 1)).astype(np.float32)
        ds = WindowedDataset(values)
        delta = 0.25
        metrics = evaluate_task(self.CopyModel(offset=delta), ds, task, seed=0)
        # the stub echoes the -1 tokens back, so restrict the check shape-wise:
        # masked inputs are -1, outputs -1+delta, targets in [0,1] -- instead
        # evaluate against a zero-offset copy for the exact-MAE clause
        assert metrics["rmse"] >= metrics["mae"]

    def test_offset_on_visible_positions_exact(self):
        # horizon positions carry -1 inputs, so use a model-independent check:
        # outputs == values + delta at every masked position
        task = TaskSpec("impute")
        values = np.full((2, 24, 1), 0.5, dtype=np.float32)
        ds = WindowedDataset(values)
        delta = 0.125

        class OffsetOracle(self.CopyModel):
            def forward(inner, x, **kw):
                return ForwardTrace(output=Tensor(values[: x.shape[0]] + delta),
                                    class_logits=Tensor(np.zeros((x.shape[0], 1),
                                                                 dtype=np.float32)),
                                    attention=np.zeros((1, x.shape[0], 1, 4)))

        metrics = evaluate_task(OffsetOracle(), ds, task, seed=0)
        np.testing.assert_allclose(metrics["mae"], delta, rtol=1e-5)
        np.testing.assert_allclose(metrics["rmse"], delta, rtol=1e-5)

    def test_horizon_truncation_equals_external_truncation(self):
        task = TaskSpec("forecast", horizon=8, input_len=16)
        rng = np.random.default_rng(12)
        values = rng.random((6, 24, 1)).astype(np.float32)
        ds = WindowedDataset(values)
        model = self.CopyModel()
        full = evaluate_task(model, ds, task)
        trunc = evaluate_task(model, ds, task, horizon_eval=4)

        batch = build_forecast_batch(ds.values, ds.observed, task)
        outputs = batch.model_input  # CopyModel echoes inputs
        mask = batch.mask.copy()
        mask[:, 16 + 4:] = False
        err = (outputs - batch.values)[mask]
        np.testing.assert_allclose(trunc["mse"], (err ** 2).mean(), rtol=1e-6)
        assert trunc["mse"] != full["mse"]

    def test_truncation_bounds_checked(self):
        task = TaskSpec("forecast", horizon=8, input_len=16)
        ds = WindowedDataset(np.zeros((2, 24, 1), dtype=np.float32) + 0.5)
        with pytest.raises(ConfigError, match="horizon"):
            evaluate_task(self.CopyModel(), ds, task, horizon_eval=16)

    @pytest.mark.parametrize("kind", ["forecast", "impute"])
    def test_no_observed_targets_rejected(self, kind):
        values = np.random.default_rng(13).random((3, 24, 1)).astype(np.float32)
        if kind == "forecast":
            task = TaskSpec("forecast", horizon=4, input_len=20)
            values[:, 20:] = np.nan
        else:
            task = TaskSpec("impute")
            values[:] = np.nan
        with pytest.raises(DataError, match="no observed target"):
            evaluate_task(self.CopyModel(), WindowedDataset(values), task)

    def test_truncated_horizon_without_observed_targets_rejected(self):
        task = TaskSpec("forecast", horizon=4, input_len=20)
        values = np.random.default_rng(14).random((3, 24, 1)).astype(np.float32)
        values[:, 20:22] = np.nan
        evaluate_task(self.CopyModel(), WindowedDataset(values), task)
        with pytest.raises(DataError, match="no observed target"):
            evaluate_task(self.CopyModel(), WindowedDataset(values), task, horizon_eval=2)

    def test_classification_metrics(self):
        task = TaskSpec("classify", num_classes=3)
        values = np.zeros((6, 24, 1), dtype=np.float32)
        labels = np.array([0, 1, 2, 0, 1, 2])
        ds = WindowedDataset(values, labels=labels)

        class Classifier(self.CopyModel):
            def forward(inner, x, **kw):
                logits = np.zeros((x.shape[0], 3), dtype=np.float32)
                logits[np.arange(x.shape[0]), labels[: x.shape[0]]] = 5.0
                return ForwardTrace(output=Tensor(x),
                                    class_logits=Tensor(logits),
                                    attention=np.zeros((1, x.shape[0], 1, 4)))

        metrics = evaluate_task(Classifier(), ds, task)
        assert metrics["accuracy"] == 1.0 and metrics["macro_f1"] == 1.0


class TestGraphFreeEvaluation:
    @pytest.mark.parametrize("task", [TaskSpec("forecast", horizon=8, input_len=24),
                                      TaskSpec("impute"),
                                      TaskSpec("classify", num_classes=3)],
                             ids=["forecast", "impute", "classify"])
    def test_metrics_match_a_graph_recording_forward(self, task, monkeypatch):
        model = prepare_finetune(pretrained_model(), task)
        n = 70  # two evaluation batches
        ds = synth_dataset("sine", T=model.config.T, F=1, n=n, seed=6)
        ds = WindowedDataset(ds.values, labels=np.arange(n) % 3)
        calls = spy_forward(model)
        metrics = evaluate_task(model, ds, task, seed=1)
        monkeypatch.setattr(finetune_module, "no_grad", contextlib.nullcontext)
        recorded = evaluate_task(model, ds, task, seed=1)
        assert [graph for _, graph in calls] == [False, False, True, True]
        assert metrics == recorded

    def test_training_step_after_evaluation_reaches_every_unfrozen_parameter(self):
        task = TaskSpec("forecast", horizon=8, input_len=24)
        model = prepare_finetune(pretrained_model(), task)
        ds = synth_dataset("sine", T=32, F=1, n=4, seed=7)
        evaluate_task(model, ds, task)
        batch = build_forecast_batch(ds.values, ds.observed, task)
        trace = model.forward(batch.model_input, training=True, rng=np.random.default_rng(0))
        finetune_loss(trace, batch, task).backward()
        for p in model.parameters():
            if p.frozen:
                assert p.tensor.grad is None, p.name
            else:
                assert p.tensor.grad is not None and np.isfinite(p.tensor.grad).all(), p.name


class TestMacroF1:
    def test_perfect(self):
        y = np.array([0, 1, 2, 1])
        assert macro_f1(y, y, 3) == 1.0

    def test_hand_computed(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 1, 1, 1])
        # class 0: p=1, r=.5, f1=2/3; class 1: p=2/3, r=1, f1=0.8
        np.testing.assert_allclose(macro_f1(y_true, y_pred, 2), (2 / 3 + 0.8) / 2)

    def test_absent_class_scores_zero(self):
        y_true = np.array([0, 0])
        y_pred = np.array([0, 0])
        np.testing.assert_allclose(macro_f1(y_true, y_pred, 2), 0.5)

"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (each test also prints an ACCEPTANCE line, visible with -s).
The two smoke runs train real models and together take a few minutes of CPU.
"""

import hashlib
import time

import numpy as np
import pytest

from tsrm.attention import (
    AttentionKind,
    entmax15,
    feature_separated_mha,
    probsparse_attention,
    probsparse_top_u,
    reduce_map,
    vanilla_attention,
)
from tsrm.autodiff import (
    Adam,
    Parameter,
    Tensor,
    adaptive_maxpool1d,
    bce_with_logits,
    conv1d,
    conv1d_depthwise,
    conv1d_transpose_depthwise,
    dropout,
    elu,
    gelu,
    group_norm,
    matmul,
    maxpool1d,
    sigmoid,
    softmax,
    softmax_cross_entropy,
)
from tsrm.data import synth_dataset
from tsrm.errors import (
    CorruptCheckpointError,
    MissingCheckpointError,
    ShapeMismatchError,
    UnsupportedVersionError,
)
from tsrm.explain import backmap, export_attention
from tsrm.finetune import (
    TaskSpec,
    build_classify_batch,
    build_forecast_batch,
    build_impute_batch,
    evaluate_task,
    finetune_loss,
    macro_f1,
    prepare_finetune,
)
from tsrm.model import (
    ModelConfig,
    TsrmModel,
    load_checkpoint,
    parameter_count_formula,
    save_checkpoint,
)
from tsrm.pretraining import build_pretrain_batch, generate_mask, pretrain_loss
from tsrm.trainer import FinetuneObjective, PretrainObjective, TrainConfig, train

from helpers import check_gradients, rand_tensor
from test_attention import entmax15_exact


def report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


# -------------------------------------------------------------------------
# 1. gradient suite
# -------------------------------------------------------------------------

def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    # every differentiable primitive, randomized small shapes, rel err < 1e-4
    a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4, 2)
    check_gradients(lambda: matmul(a, b).sum(), [a, b])

    x = rand_tensor(rng, 2, 3, 14)
    kern, bias = rand_tensor(rng, 3, 3), rand_tensor(rng, 3)
    w = rng.standard_normal((2, 3, 5))
    check_gradients(lambda: (conv1d_depthwise(x, kern, bias, 2, 2) * Tensor(w)).sum(),
                    [x, kern, bias])

    xt, kt = rand_tensor(rng, 1, 2, 6), rand_tensor(rng, 2, 3)
    wt = rng.standard_normal((1, 2, 14))
    check_gradients(lambda: (conv1d_transpose_depthwise(xt, kt, 2, 2, 14) * Tensor(wt)).sum(),
                    [xt, kt])

    xp = rand_tensor(rng, 2, 2, 11)
    wp = rng.standard_normal((2, 2, 5))
    check_gradients(lambda: (maxpool1d(xp, 3, 2) * Tensor(wp)).sum(), [xp])
    wa = rng.standard_normal((2, 2, 8))
    check_gradients(lambda: (adaptive_maxpool1d(xp, 8) * Tensor(wa)).sum(), [xp])

    xg = rand_tensor(rng, 2, 5, 6)
    gamma, beta = rand_tensor(rng, 6), rand_tensor(rng, 6)
    wg = rng.standard_normal((2, 5, 6))
    check_gradients(lambda: (group_norm(xg, 3, gamma, beta) * Tensor(wg)).sum(),
                    [xg, gamma, beta])

    xa = rand_tensor(rng, 3, 6)
    wact = rng.standard_normal((3, 6))
    for op in (gelu, elu, sigmoid, lambda t: softmax(t, axis=-1),
               lambda t: entmax15(t, axis=-1)):
        check_gradients(lambda: (op(xa) * Tensor(wact)).sum(), [xa], tol=5e-4)

    xc = rand_tensor(rng, 2, 3, 9)
    wc, bc = rand_tensor(rng, 4, 3, 3), rand_tensor(rng, 4)
    wproj = rng.standard_normal((2, 4, 4))
    check_gradients(lambda: (conv1d(xc, wc, bc, 2) * Tensor(wproj)).sum(), [xc, wc, bc])

    zb = rand_tensor(rng, 5)
    yb = (rng.random(5) > 0.5).astype(np.float64)
    check_gradients(lambda: bce_with_logits(zb, yb), [zb])
    zc = rand_tensor(rng, 4, 3)
    labels = rng.integers(0, 3, 4)
    check_gradients(lambda: softmax_cross_entropy(zc, labels), [zc])

    xd = Tensor(np.ones(40), requires_grad=True, dtype=np.float64)
    out = dropout(xd, 0.5, True, np.random.default_rng(0))
    out.backward(np.ones(40))
    np.testing.assert_allclose(xd.grad, out.data)

    # tiny end-to-end config (smallest window the classifier stack accepts)
    cfg = ModelConfig(T=10, F=1, f_embed=4, n_layers=1, heads=2,
                      branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
    model = TsrmModel(cfg, seed=101, dtype=np.float64)
    xin = rng.random((2, 10, 1))
    w_out = rng.standard_normal((2, 10, 1))
    w_cls = rng.standard_normal((2, 1))

    def loss():
        trace = model.forward(xin)
        return (trace.output * Tensor(w_out)).sum() + (trace.class_logits * Tensor(w_cls)).sum()

    check_gradients(loss, [model.t(n) for n in model.params], tol=1e-3)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"all primitives and the end-to-end config pass finite-difference "
              f"checks in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. shape / inversion suite
# -------------------------------------------------------------------------

def test_criterion_02_shape_inversion_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    checked = 0
    while checked < 200:
        T = int(rng.integers(12, 64))
        F = int(rng.integers(1, 3))
        f_embed = int(rng.choice([4, 8]))
        heads = int(rng.choice([1, 2, 4]))
        if f_embed % heads:
            continue
        n_branches = int(rng.integers(1, 4))
        branches = []
        for _ in range(n_branches):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            if (k - 1) * d + 1 > T:
                continue
            branches.append({"kernel": k, "dilation": d})
        if not branches:
            continue
        try:
            cfg = ModelConfig(T=T, F=F, f_embed=f_embed, n_layers=1, heads=heads,
                              branches=branches, dropout_p=0.0,
                              attention=str(rng.choice(["vanilla", "entmax15",
                                                        "probsparse"])))
        except Exception:
            continue  # D below the classifier minimum
        model = TsrmModel(cfg, seed=checked)
        e_in = Tensor(rng.random((1, T, cfg.d_embed)).astype(np.float32))
        e_out, residual, _ = model.encoding_layer(e_in, None, 0, False,
                                                  np.random.default_rng(0))
        assert e_out.shape == (1, T, cfg.d_embed), cfg
        assert residual.shape == (1, cfg.D, cfg.d_embed), cfg
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"shape suite took {elapsed:.1f}s"
    report(2, f"{checked} randomized configs preserve shape and restore T "
              f"({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 3. attention oracles
# -------------------------------------------------------------------------

def test_criterion_03_attention_oracles():
    rng = np.random.default_rng(300)
    worst = 0.0
    zero_cases = 0
    for _ in range(1000):
        n = int(rng.integers(2, 14))
        z = rng.normal(0.0, rng.uniform(0.5, 5.0), n)
        got = entmax15(Tensor(z)).data
        want = entmax15_exact(z)
        worst = max(worst, float(np.abs(got - want).max()))
        zero_cases += int((want == 0.0).any())
    assert worst < 1e-6, f"entmax max abs err {worst:.2e}"
    assert zero_cases > 100, "exact-zero support cases under-represented"

    for D in (4, 8, 16, 32):
        q = Tensor(rng.standard_normal((2, 2, D, 4)))
        k = Tensor(rng.standard_normal((2, 2, D, 4)))
        v = Tensor(rng.standard_normal((2, 2, D, 4)))
        assert probsparse_top_u(D, 50.0) == D
        out_ps, map_ps = probsparse_attention(q, k, v, 50.0, np.random.default_rng(1))
        out_va, map_va = vanilla_attention(q, k, v)
        assert np.abs(out_ps.data - out_va.data).max() < 1e-6
        assert np.abs(map_ps.data - map_va.data).max() < 1e-6

    for D in (5, 9, 17):
        raw = rng.random((3, D, D))
        stochastic = raw / raw.sum(axis=-1, keepdims=True)
        totals = reduce_map(Tensor(stochastic)).data.sum(axis=-1)
        np.testing.assert_allclose(totals, float(D), atol=1e-4)

    report(3, f"entmax vs closed form max err {worst:.1e} over 1000 "
              f"vectors ({zero_cases} sparse); probsparse degenerates to vanilla; "
              f"map totals equal D")


# -------------------------------------------------------------------------
# 4. masking protocol
# -------------------------------------------------------------------------

def test_criterion_04_masking_protocol():
    T = 96
    rng = np.random.default_rng(400)
    observed = np.ones((T, 1), dtype=bool)
    lo, hi = 5, 9  # ceil(.05*96), floor(.10*96)
    fractions = np.empty(10_000)
    for i in range(10_000):
        mask = generate_mask(T, observed, rng)[:, 0]
        fractions[i] = mask.mean()
        runs, current = [], 0
        for v in np.append(mask, False):
            if v:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert all(lo <= r <= hi for r in runs), runs
    assert fractions.min() >= 0.30 and fractions.max() < 0.60

    values = np.full((10_000, 20, 1), 0.5, dtype=np.float32)
    batch = build_pretrain_batch(values, np.ones_like(values, dtype=bool),
                                 np.random.default_rng(401))
    rate = 1.0 - batch.validity.mean()
    assert abs(rate - 0.20) <= 0.012, rate

    report(4, f"10k draws: fraction in [{fractions.min():.3f}, {fractions.max():.3f}], "
              f"runs in [{lo},{hi}]; invalid rate {rate:.4f}")


# -------------------------------------------------------------------------
# 5. loss law
# -------------------------------------------------------------------------

def test_criterion_05_loss_law():
    from test_pretraining import fabricated_trace
    from tsrm.pretraining import PretrainBatch, build_model_input

    rng = np.random.default_rng(500)
    T = 20
    for _ in range(50):
        r_val, i_val = rng.uniform(0.01, 2.0, 2)
        values = np.zeros((1, T, 1), dtype=np.float32)
        observed = np.ones((1, T, 1), dtype=bool)
        eval_mask = np.zeros((1, T, 1), dtype=bool)
        eval_mask[:, :8] = True
        batch = PretrainBatch(build_model_input(values, observed, eval_mask),
                              values, observed, eval_mask, np.ones(1, np.float32))
        out = np.zeros((1, T, 1))
        out[:, :8] = np.sqrt(i_val)
        out[:, 8:] = np.sqrt(r_val)
        logit = rng.normal(0, 2)
        _, bd = pretrain_loss(fabricated_trace(out, np.full((1, 1), logit)),
                              batch, alpha=3.5, beta=1.2, gamma=5.0)
        want = (bd.l_repr + bd.l_imp * 3.5) * 1.2 + bd.l_class * 5.0
        np.testing.assert_allclose(bd.total, want, rtol=1e-6)

        invalid = PretrainBatch(batch.model_input, values, observed, eval_mask,
                                np.zeros(1, np.float32))
        _, bdi = pretrain_loss(fabricated_trace(out, np.full((1, 1), logit)),
                               invalid, alpha=3.5, beta=1.2, gamma=5.0)
        exact = float(np.float32(np.float32(bdi.l_class) * np.float32(5.0)))
        assert bdi.total == exact, (bdi.total, exact)
        assert bdi.l_repr == 0.0 and bdi.l_imp == 0.0

    report(5, "weighted-sum law holds on 50 random component draws; invalid "
              "totals equal gamma * l_class exactly")


# -------------------------------------------------------------------------
# 6. freeze invariance
# -------------------------------------------------------------------------

def _ten_steps(model, task, rng):
    opt = Adam(model.parameters(), lr=1e-2)
    T, F = model.config.T, model.config.F
    for _ in range(10):
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


def test_criterion_06_freeze_invariance():
    base_cfg = dict(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                    branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)

    task = TaskSpec("forecast", horizon=8, input_len=24)
    model = prepare_finetune(TsrmModel(ModelConfig(**base_cfg), seed=600), task)
    before = {n: p.data.copy() for n, p in model.params.items()}
    _ten_steps(model, task, np.random.default_rng(601))
    ac_stable = all(model.params[n].data.tobytes() == before[n].tobytes()
                    for n in before if n.startswith("ac."))
    seq_moved = any(model.params[n].data.tobytes() != before[n].tobytes()
                    for n in before if not n.startswith("ac."))
    assert ac_stable and seq_moved

    task = TaskSpec("classify", num_classes=3)
    model = prepare_finetune(TsrmModel(ModelConfig(**base_cfg), seed=602), task, seed=1)
    before = {n: p.data.copy() for n, p in model.params.items()}
    _ten_steps(model, task, np.random.default_rng(603))
    enc_stable = all(model.params[n].data.tobytes() == before[n].tobytes()
                     for n in before if n.startswith(("embed.", "el", "deembed.")))
    ac_moved = any(model.params[n].data.tobytes() != before[n].tobytes()
                   for n in before if n.startswith("ac."))
    assert enc_stable and ac_moved

    report(6, "10 forecast steps keep the classifier bitwise; 10 classify steps "
              "keep the encoder bitwise; unfrozen parameters moved")


# -------------------------------------------------------------------------
# 7. parameter-count claim
# -------------------------------------------------------------------------

def test_criterion_07_parameter_count():
    kw = dict(F=2, f_embed=16, n_layers=3, heads=4,
              branches=[{"kernel": 3, "dilation": 2}, {"kernel": 10, "dilation": 4}])
    c96 = ModelConfig(T=96, **kw)
    c192 = ModelConfig(T=192, **kw)
    n96 = TsrmModel(c96, seed=700).parameter_count()
    n192 = TsrmModel(c192, seed=700).parameter_count()
    assert n96 == n192
    assert n96 == parameter_count_formula(c96)
    assert n192 == parameter_count_formula(c192)
    for extra in (dict(T=48, F=1, f_embed=8, n_layers=1, heads=2,
                       branches=[{"kernel": 5, "dilation": 1}]),
                  dict(T=40, F=3, f_embed=8, n_layers=2, heads=2, num_classes=6,
                       branches=[{"kernel": 2, "dilation": 3}])):
        cfg = ModelConfig(**extra)
        assert TsrmModel(cfg, seed=0).parameter_count() == parameter_count_formula(cfg)
    report(7, f"T=96 and T=192 builds both hold {n96} parameters, matching the "
              f"closed form exactly")


# -------------------------------------------------------------------------
# 8. pretraining smoke run
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pretrained_smoke(tmp_path_factory):
    """Criterion-8 pretraining, reused by the determinism criterion."""
    start = time.perf_counter()
    cfg = ModelConfig(T=96, F=1, f_embed=32, n_layers=2, heads=2,
                      branches=[{"kernel": 5, "dilation": 1}], dropout_p=0.0)
    train_ds = synth_dataset("sine", T=96, F=1, n=512, seed=1)
    val_ds = synth_dataset("sine", T=96, F=1, n=128, seed=2)
    model = TsrmModel(cfg, seed=0)
    objective = PretrainObjective(train_ds, val_ds, batch_size=8)
    tc = TrainConfig(max_epochs=150, batch_size=8, seed=0, scheduler_patience=8,
                     early_stop_patience=60, min_lr=1e-5)
    out_dir = tmp_path_factory.mktemp("pretrain_smoke")
    model, log = train(model, objective, tc, out_dir=out_dir)
    return model, objective, log, out_dir, time.perf_counter() - start


def test_criterion_08_pretraining_smoke(pretrained_smoke):
    model, objective, log, _, elapsed = pretrained_smoke
    assert len(log.epochs) <= 200
    assert elapsed < 600.0, f"pretraining took {elapsed:.0f}s"

    imp = min(ep["val"]["l_imp"] for ep in log.epochs)
    assert imp < 0.01, f"masked-imputation MSE {imp:.4f}"

    labels, preds = [], []
    for batch in objective.val_batches():
        trace = model.forward(batch.model_input)
        labels.append(batch.validity.astype(np.int64))
        preds.append((trace.class_logits.data[:, 0] > 0).astype(np.int64))
    f1 = macro_f1(np.concatenate(labels), np.concatenate(preds), 2)
    assert f1 == 1.0, f"validity-classification F1 {f1:.3f}"

    report(8, f"masked MSE {imp:.4f} < 0.01 and F1 {f1:.1f} after "
              f"{len(log.epochs)} epochs in {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 9. forecast smoke run
# -------------------------------------------------------------------------

def test_criterion_09_forecast_smoke(pretrained_smoke):
    start = time.perf_counter()
    model, _, _, _, _ = pretrained_smoke
    task = TaskSpec("forecast", horizon=24, input_len=96)
    model = prepare_finetune(load_checkpoint(pretrained_smoke[3]), task)

    fc_train = synth_dataset("sine", T=120, F=1, n=256, seed=3)
    fc_val = synth_dataset("sine", T=120, F=1, n=64, seed=4)
    objective = FinetuneObjective(task, fc_train, fc_val, batch_size=8)
    tc = TrainConfig(max_epochs=60, batch_size=8, seed=0, scheduler_patience=8,
                     early_stop_patience=60, min_lr=1e-5)
    model, _ = train(model, objective, tc)

    fc_test = synth_dataset("sine", T=120, F=1, n=64, seed=5)
    metrics = evaluate_task(model, fc_test, task)

    batch = build_forecast_batch(fc_test.values, fc_test.observed, task)
    persistence = np.repeat(batch.values[:, 95:96, :], 24, axis=1)
    baseline_mse = float(((persistence - batch.values[:, 96:, :]) ** 2).mean())

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"forecast smoke took {elapsed:.0f}s"
    assert metrics["mse"] < 0.05, metrics
    assert metrics["mse"] < baseline_mse, (metrics["mse"], baseline_mse)
    report(9, f"horizon MSE {metrics['mse']:.4f} < 0.05 and below persistence "
              f"{baseline_mse:.4f} in {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 10. explainability
# -------------------------------------------------------------------------

def test_criterion_10_explainability(tmp_path):
    cfg = ModelConfig(T=48, F=1, f_embed=8, n_layers=2, heads=2,
                      branches=[{"kernel": 3, "dilation": 1},
                                {"kernel": 5, "dilation": 2}], dropout_p=0.0)
    branches = cfg.resolved_branches
    rng = np.random.default_rng(1000)
    D, T = cfg.D, cfg.T

    a, b = rng.random(D), rng.random(D)
    for mode in ("mean", "sum"):
        lhs = backmap(a + b, branches, T, mode=mode)
        rhs = backmap(a, branches, T, mode=mode) + backmap(b, branches, T, mode=mode)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)     # linearity
        assert (backmap(a, branches, T, mode=mode) >= 0).all()  # nonnegativity

    conv_mass, offset = 0.0, 0
    poisoned = a.copy()
    for rb in branches:
        conv_mass += a[offset: offset + rb.conv_len].sum()
        poisoned[offset + rb.conv_len: offset + rb.conv_len + rb.pool_len] = 77.0
        offset += rb.conv_len + rb.pool_len
    total = backmap(a, branches, T, mode="sum").sum()
    assert abs(total - conv_mass) < 1e-4                      # conservation
    for mode in ("mean", "sum"):                              # pooled independence
        np.testing.assert_array_equal(backmap(a, branches, T, mode=mode),
                                      backmap(poisoned, branches, T, mode=mode))

    model = TsrmModel(cfg, seed=1001)
    values = rng.random((48, 1)).astype(np.float32)
    paths = export_attention(model, values, np.ones((48, 1), dtype=bool), tmp_path)
    lines = paths[0].read_text().splitlines()
    assert len(lines) == 49
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        np.testing.assert_allclose(cells[3], cells[4] + cells[5], rtol=1e-6)

    report(10, "backmap is linear, nonnegative, conserving (sum mode), "
               "pool-independent; exported CSV is self-consistent")


# -------------------------------------------------------------------------
# 11. checkpoint round trip
# -------------------------------------------------------------------------

def test_criterion_11_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(T=24, F=2, f_embed=8, n_layers=2, heads=2,
                      branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
    model = TsrmModel(cfg, seed=1100)
    x = np.random.default_rng(1101).random((3, 24, 2)).astype(np.float32)
    before = model.forward(x)
    save_checkpoint(model, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt")
    after = restored.forward(x)
    assert before.output.data.tobytes() == after.output.data.tobytes()
    assert before.class_logits.data.tobytes() == after.class_logits.data.tobytes()

    import json as _json
    blob = (tmp_path / "ckpt" / "params.bin").read_bytes()
    (tmp_path / "ckpt" / "params.bin").write_bytes(blob[:100])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(tmp_path / "ckpt")
    (tmp_path / "ckpt" / "params.bin").write_bytes(blob)

    manifest = _json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["format_version"] = 3
    (tmp_path / "ckpt" / "manifest.json").write_text(_json.dumps(manifest))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(tmp_path / "ckpt")

    manifest["format_version"] = 1
    manifest["config"]["f_embed"] = 16
    (tmp_path / "ckpt" / "manifest.json").write_text(_json.dumps(manifest))
    with pytest.raises((ShapeMismatchError, CorruptCheckpointError)):
        load_checkpoint(tmp_path / "ckpt")

    with pytest.raises(MissingCheckpointError):
        load_checkpoint(tmp_path / "void")

    report(11, "save/load is bitwise; truncation, version, shape, and missing "
               "errors raise their designated kinds")


# -------------------------------------------------------------------------
# 12. determinism
# -------------------------------------------------------------------------

def _full_run(seed_data: int):
    cfg = ModelConfig(T=24, F=1, f_embed=8, n_layers=1, heads=2,
                      branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.1)
    pre_train = synth_dataset("sine", T=24, F=1, n=64, seed=seed_data)
    pre_val = synth_dataset("sine", T=24, F=1, n=16, seed=seed_data + 1)
    model = TsrmModel(cfg, seed=5)
    objective = PretrainObjective(pre_train, pre_val, batch_size=16)
    tc = TrainConfig(max_epochs=5, batch_size=16, seed=5)
    model, pre_log = train(model, objective, tc)

    task = TaskSpec("forecast", horizon=6, input_len=24)
    model = prepare_finetune(model, task, seed=5)
    fc_train = synth_dataset("sine", T=30, F=1, n=64, seed=seed_data + 2)
    fc_val = synth_dataset("sine", T=30, F=1, n=16, seed=seed_data + 3)
    objective = FinetuneObjective(task, fc_train, fc_val, batch_size=16)
    model, ft_log = train(model, objective, TrainConfig(max_epochs=5, batch_size=16, seed=5))

    digest = hashlib.sha256(b"".join(p.data.tobytes()
                                     for p in model.parameters())).hexdigest()
    def strip(log):
        return [{k: v for k, v in rec.items() if k != "seconds"} for rec in log.epochs]
    return digest, strip(pre_log), strip(ft_log)


def test_criterion_12_determinism():
    a = _full_run(40)
    b = _full_run(40)
    assert a[0] == b[0], "parameter hashes differ"
    assert a[1] == b[1], "pretraining run logs differ"
    assert a[2] == b[2], "fine-tuning run logs differ"
    report(12, f"two pretrain+finetune replays agree: parameter sha256 {a[0][:12]}..., "
               f"identical run logs (wall time excluded)")

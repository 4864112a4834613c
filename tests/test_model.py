"""Tests for the encoder stack, classifier, and checkpointing."""

import os
from pathlib import Path

import numpy as np
import pytest

from tsrm.autodiff import (
    Tensor,
    _fold_plan,
    _fold_rows,
    adaptive_maxpool1d,
    concat,
    conv1d,
    dropout,
    elu,
    gelu,
    group_norm,
    matmul,
    no_grad,
    sigmoid,
)
import tsrm.model as model_module
from tsrm.attention import feature_separated_mha
from tsrm.errors import (
    ConfigError,
    CorruptCheckpointError,
    DataError,
    MissingCheckpointError,
    ShapeMismatchError,
    UnsupportedVersionError,
)
from tsrm.model import (
    BranchSpec,
    ModelConfig,
    TsrmModel,
    load_checkpoint,
    parameter_count_formula,
    rebuild_for_window,
    save_checkpoint,
    AC_CONV1_K,
    AC_CONV1_OUT,
    AC_CONV2_K,
    AC_CONV2_OUT,
    AC_POOL_LEN,
    AC_TRUNK_HIDDEN,
)

from helpers import check_gradients, graph_op_nodes


def small_config(**kw):
    base = dict(T=24, F=1, f_embed=4, n_layers=1, heads=2,
                branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
    base.update(kw)
    return ModelConfig(**base)


def identity_model(T=24):
    """Single identity EL: k=1 convs with unit weight, zeroed blocks,
    identity merge. forward(E) reproduces E through the layer."""
    cfg = small_config(T=T, branches=[{"kernel": 1, "dilation": 1}])
    model = TsrmModel(cfg, seed=0)
    de, fe = cfg.d_embed, cfg.f_embed
    model.params["el0.rl.conv0.w"].tensor.data = np.ones((de, 1), dtype=np.float32)
    model.params["el0.rl.conv0.b"].tensor.data = np.zeros(de, dtype=np.float32)
    model.params["el0.block1.norm.gamma"].tensor.data = np.zeros(de, dtype=np.float32)
    model.params["el0.block2.norm.gamma"].tensor.data = np.zeros(de, dtype=np.float32)
    model.params["el0.block2.linear.w"].tensor.data = np.zeros((de, de), dtype=np.float32)
    for name in ("wq", "wk", "wv", "wo"):
        model.params[f"el0.attn.{name}"].tensor.data = np.zeros((1, fe, fe), dtype=np.float32)
    model.params["el0.ml.tconv0.w"].tensor.data = np.ones((de, 1), dtype=np.float32)
    model.params["el0.ml.ffn.w"].tensor.data = np.eye(fe, dtype=np.float32)[None]
    model.params["el0.ml.ffn.b"].tensor.data = np.zeros((1, fe), dtype=np.float32)
    return model, cfg


class TestBranchResolution:
    def test_lengths_single_branch(self):
        cfg = ModelConfig(T=96, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 2}])
        rb = cfg.resolved_branches[0]
        assert (rb.conv_len, rb.pool_len) == (92, 46)
        assert cfg.D == 138

    def test_lengths_two_branches(self):
        cfg = ModelConfig(T=96, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 2},
                                    {"kernel": 10, "dilation": 4}])
        assert cfg.D == 92 + 46 + 12 + 6

    def test_stride_is_half_kernel(self):
        rb = BranchSpec(kernel=10, dilation=4).resolve(96)
        assert rb.stride == 5
        assert BranchSpec(kernel=3, dilation=1).resolve(96).stride == 1
        assert BranchSpec(kernel=1, dilation=1).resolve(96).stride == 1

    def test_percent_kernel_resolution(self):
        rb = BranchSpec(kernel_pct=10.0, dilation=1).resolve(96)
        assert rb.k == 10  # round(0.10 * 96)
        assert BranchSpec(kernel_pct=0.1, dilation=1).resolve(96).k == 1  # floor at 1

    def test_oversized_kernel_rejected_naming_branch(self):
        with pytest.raises(ConfigError, match="kernel=50"):
            ModelConfig(T=96, F=1, f_embed=4, n_layers=1, heads=2,
                        branches=[{"kernel": 50, "dilation": 2}])

    def test_kernel_xor_percent(self):
        with pytest.raises(ConfigError):
            BranchSpec(kernel=3, kernel_pct=10.0)
        with pytest.raises(ConfigError):
            BranchSpec()


class TestConfigValidation:
    def test_d_embed_derived(self):
        cfg = ModelConfig(T=96, F=2, f_embed=64, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 2}])
        assert cfg.d_embed == 128

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            small_config(f_embed=6, heads=4)

    def test_min_representation_length(self):
        # T=12 with k=3 gives conv 10 + pool 5 = 15 >= 11; T=9 gives 7+3=10
        small_config(T=12)
        with pytest.raises(ConfigError, match="11"):
            small_config(T=9)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown model config"):
            ModelConfig.from_dict({**small_config().to_dict(), "bogus": 1})

    def test_round_trips_through_dict(self):
        cfg = small_config(attention="probsparse", num_classes=3)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestEmbedding:
    def test_unit_weight_identity(self):
        cfg = ModelConfig(T=24, F=1, f_embed=1, n_layers=1, heads=1,
                          branches=[{"kernel": 3, "dilation": 1}])
        model = TsrmModel(cfg, seed=0)
        model.params["embed.w"].tensor.data = np.ones((1, 1), dtype=np.float32)
        model.params["embed.b"].tensor.data = np.zeros((1, 1), dtype=np.float32)
        x = np.random.default_rng(0).random((2, 24, 1)).astype(np.float32)
        out = model.embed(Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_feature_columns_are_isolated(self):
        cfg = ModelConfig(T=24, F=2, f_embed=8, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}])
        model = TsrmModel(cfg, seed=1)
        rng = np.random.default_rng(2)
        x = rng.random((3, 24, 2)).astype(np.float32)
        base = model.embed(Tensor(x)).data
        x2 = x.copy()
        x2[:, :, 1] = rng.random((3, 24))
        mutated = model.embed(Tensor(x2)).data
        np.testing.assert_array_equal(base[:, :, :8], mutated[:, :, :8])
        assert not np.array_equal(base[:, :, 8:], mutated[:, :, 8:])

    def test_feature_count_mismatch(self):
        model = TsrmModel(small_config(), seed=0)
        with pytest.raises(ConfigError, match="features"):
            model.embed(Tensor(np.zeros((1, 24, 3), dtype=np.float32)))

    def test_de_embed_round_trip_with_unit_weights(self):
        cfg = ModelConfig(T=24, F=2, f_embed=1, n_layers=1, heads=1,
                          branches=[{"kernel": 3, "dilation": 1}])
        model = TsrmModel(cfg, seed=0)
        model.params["embed.w"].tensor.data = np.ones((2, 1), dtype=np.float32)
        model.params["embed.b"].tensor.data = np.zeros((2, 1), dtype=np.float32)
        model.params["deembed.w"].tensor.data = np.ones((2, 1), dtype=np.float32)
        model.params["deembed.b"].tensor.data = np.zeros(2, dtype=np.float32)
        x = np.random.default_rng(3).random((2, 24, 2)).astype(np.float32)
        out = model.de_embed(model.embed(Tensor(x)))
        np.testing.assert_allclose(out.data, x, atol=1e-6)


class TestRepresentationAndMerge:
    def test_identity_branch_conv_segment_equals_input(self):
        model, cfg = identity_model()
        x = np.random.default_rng(4).random((2, 24, 1)).astype(np.float32)
        e = model.embed(Tensor(x))
        r = model.representation(e, 0)
        conv_len = cfg.resolved_branches[0].conv_len
        assert conv_len == 24
        np.testing.assert_array_equal(r.data[:, :conv_len, :], e.data)

    def test_merge_restores_window_length(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            T = int(rng.integers(16, 64))
            k = int(rng.integers(1, min(8, T // 2 + 1)))
            d = int(rng.integers(1, 3))
            if (k - 1) * d + 1 > T:
                continue
            cfg = ModelConfig(T=T, F=1, f_embed=4, n_layers=1, heads=2,
                              branches=[{"kernel": k, "dilation": d}])
            if cfg.D < 11:
                continue
            model = TsrmModel(cfg, seed=trial)
            e = Tensor(rng.random((1, T, 4)).astype(np.float32))
            p = model.representation(e, 0)
            out = model.merge(p, 0)
            assert out.shape == (1, T, 4)

    def test_encoding_layer_preserves_shape(self):
        model = TsrmModel(small_config(n_layers=2, F=2, f_embed=8), seed=6)
        x = np.random.default_rng(7).random((3, 24, 2)).astype(np.float32)
        trace = model.forward(x)
        assert trace.output.shape == (3, 24, 2)

    def test_identity_layer_is_identity_end_to_end(self):
        model, cfg = identity_model()
        x = np.random.default_rng(8).random((2, 24, 1)).astype(np.float32)
        e = model.embed(Tensor(x))
        e_out, _, _ = model.encoding_layer(e, None, 0, training=False,
                                           rng=np.random.default_rng(0))
        np.testing.assert_array_equal(e_out.data, e.data)

    def test_wiring_against_straight_line_reimplementation(self):
        cfg = small_config(F=2, f_embed=8, n_layers=1)
        model = TsrmModel(cfg, seed=9)
        rng = np.random.default_rng(10)
        e = Tensor(rng.random((2, 24, 16)).astype(np.float32))
        res_in = Tensor(rng.random((2, cfg.D, 16)).astype(np.float32) * 0.1)

        _, res_out, _ = model.encoding_layer(e, res_in, 0, training=False,
                                             rng=np.random.default_rng(0))

        # straight-line rebuild of the wiring from the same parameters
        r = model.representation(e, 0) + res_in
        g1 = group_norm(r, cfg.F, model.t("el0.block1.norm.gamma"),
                        model.t("el0.block1.norm.beta"))
        attn_params = {k: model.t(f"el0.attn.{k}")
                       for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
        mha_out, _ = feature_separated_mha(gelu(g1), attn_params, cfg.attention_kind,
                                           cfg.heads, np.random.default_rng(0))
        x = r + mha_out
        g2 = group_norm(x, cfg.F, model.t("el0.block2.norm.gamma"),
                        model.t("el0.block2.norm.beta"))
        y = x + (matmul(gelu(g2), model.t("el0.block2.linear.w"))
                 + model.t("el0.block2.linear.b"))
        p = y + res_in
        np.testing.assert_allclose(res_out.data, p.data, atol=1e-6)

    def test_merge_feed_forward_input_folds_without_a_copy(self, monkeypatch):
        # the 7-feature benchmark shape: the restored branches reach the fused
        # feed-forward C-ordered, so its weight gradient folds the batch and
        # time axes into rows as a view
        cfg = ModelConfig(T=192, F=7, f_embed=16, n_layers=1, heads=2, attention="probsparse",
                          branches=[{"kernel": 5, "dilation": 1},
                                    {"kernel_pct": 10, "dilation": 2}])
        model = TsrmModel(cfg, seed=15)
        e = model.embed(Tensor(np.random.default_rng(15).random((3, cfg.T, cfg.F))
                               .astype(np.float32)))
        inputs = []

        def spy(a, b):
            if b is model.t("el0.ml.ffn.w"):
                inputs.append(a.data)
            return matmul(a, b)

        monkeypatch.setattr(model_module, "matmul", spy)
        model.merge(model.representation(e, 0), 0)
        (x5,) = inputs
        assert x5.shape == (3, cfg.T, cfg.F, 1, 2 * cfg.f_embed) and x5.flags.c_contiguous
        plan = _fold_plan(x5.shape, model.t("el0.ml.ffn.w").shape)
        assert plan is not None
        assert np.shares_memory(_fold_rows(x5, *plan), x5)

    def test_pool_segments_present_in_layout(self):
        cfg = ModelConfig(T=96, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 2},
                                    {"kernel": 10, "dilation": 4}])
        model = TsrmModel(cfg, seed=11)
        e = Tensor(np.random.default_rng(12).random((1, 96, 4)).astype(np.float32))
        r = model.representation(e, 0)
        assert r.shape[1] == cfg.D


class TestFeatureSeparation:
    def test_block_diagonal_linear_isolates_features(self):
        cfg = ModelConfig(T=24, F=2, f_embed=8, n_layers=2, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        model = TsrmModel(cfg, seed=13)
        fe = cfg.f_embed
        for n in range(cfg.n_layers):
            w = model.params[f"el{n}.block2.linear.w"].tensor.data
            blocked = np.zeros_like(w)
            for f in range(cfg.F):
                sl = slice(f * fe, (f + 1) * fe)
                blocked[sl, sl] = w[sl, sl]
            model.params[f"el{n}.block2.linear.w"].tensor.data = blocked

        rng = np.random.default_rng(14)
        x = rng.random((2, 24, 2)).astype(np.float32)
        base = model.forward(x).output.data
        x2 = x.copy()
        x2[:, :, 1] = rng.random((2, 24))
        mutated = model.forward(x2).output.data
        np.testing.assert_array_equal(base[:, :, 0], mutated[:, :, 0])
        assert not np.array_equal(base[:, :, 1], mutated[:, :, 1])


class TestAttentionClassifier:
    def test_identical_maps_give_identical_feature_scores_at_init(self):
        cfg = ModelConfig(T=24, F=3, f_embed=4, n_layers=2, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}])
        model = TsrmModel(cfg, seed=15)
        rng = np.random.default_rng(16)
        one_feature = rng.random((2, 1, cfg.D)).astype(np.float32)
        maps = [Tensor(np.repeat(one_feature, 3, axis=1)) for _ in range(2)]
        _, feature_scores = model.attention_classifier(maps)
        for f in (1, 2):
            np.testing.assert_array_equal(feature_scores.data[:, 0], feature_scores.data[:, f])

    def test_scores_in_unit_interval_and_binary_head(self):
        model = TsrmModel(small_config(), seed=17)
        trace = model.forward(np.random.default_rng(18).random((4, 24, 1)).astype(np.float32))
        assert trace.class_logits.shape == (4, 1)  # binary pretraining head
        assert ((trace.feature_scores > 0) & (trace.feature_scores < 1)).all()

    def test_head_resizing(self):
        model = TsrmModel(small_config(num_classes=6), seed=19)
        assert model.params["ac.head.w3"].data.shape == (32, 6)
        trace = model.forward(np.zeros((1, 24, 1), dtype=np.float32))
        assert trace.class_logits.shape == (1, 6)


def per_feature_classifier(model, reduced_maps):
    """The attention classifier as one trunk per feature, each slicing its
    weights out of the stacked ``ac.*`` arrays: the reference for the
    batched pass."""
    B, F, D = reduced_maps[0].shape
    N = len(reduced_maps)
    stacked = concat([m.reshape(B, F, 1, D) for m in reduced_maps], axis=2)
    scores = []
    for f in range(F):
        def w(name, *shape):
            return model.t(name).narrow(0, f, 1).reshape(*shape)

        x = stacked.narrow(1, f, 1).reshape(B, N, D)
        h = conv1d(x, w("ac.conv1.w", AC_CONV1_OUT, N, AC_CONV1_K),
                   w("ac.conv1.b", AC_CONV1_OUT), stride=2)
        h = elu(conv1d(h, w("ac.conv2.w", AC_CONV2_OUT, AC_CONV1_OUT, AC_CONV2_K),
                       w("ac.conv2.b", AC_CONV2_OUT), stride=2))
        h = adaptive_maxpool1d(h, AC_POOL_LEN).reshape(B, AC_CONV2_OUT * AC_POOL_LEN)
        h = matmul(h, w("ac.lin1.w", AC_CONV2_OUT * AC_POOL_LEN, AC_TRUNK_HIDDEN)) \
            + w("ac.lin1.b", AC_TRUNK_HIDDEN)
        scores.append(sigmoid(matmul(h, w("ac.lin2.w", AC_TRUNK_HIDDEN, 1))
                              + w("ac.lin2.b", 1)))
    s = concat(scores, axis=1)
    h = gelu(matmul(s, model.t("ac.head.w1")) + model.t("ac.head.b1"))
    h = gelu(matmul(h, model.t("ac.head.w2")) + model.t("ac.head.b2"))
    return matmul(h, model.t("ac.head.w3")) + model.t("ac.head.b3"), s


class TestBatchedClassifier:
    def test_matches_per_feature_trunks(self):
        cfg = ModelConfig(T=24, F=3, f_embed=4, n_layers=2, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}])
        model = TsrmModel(cfg, seed=41, dtype=np.float64)
        rng = np.random.default_rng(42)
        names = [n for n in model.params if n.startswith("ac.")]
        for name in names:
            # trunk weights start shared across features; make each feature's its own
            p = model.params[name].tensor
            p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
        maps = rng.random((cfg.n_layers, 4, cfg.F, cfg.D))
        w_logits = rng.standard_normal((4, 1))
        w_scores = rng.standard_normal((4, cfg.F))

        def run(classifier):
            leaves = [Tensor(m.copy(), requires_grad=True) for m in maps]
            for name in names:
                model.t(name).zero_grad()
            logits, scores = classifier(leaves)
            ((logits * Tensor(w_logits)).sum() + (scores * Tensor(w_scores)).sum()).backward()
            grads = [model.t(n).grad.copy() for n in names] + [m.grad for m in leaves]
            return [logits.data, scores.data] + grads

        batched = run(model.attention_classifier)
        reference = run(lambda m: per_feature_classifier(model, m))
        assert not np.allclose(batched[1][:, 0], batched[1][:, 1])
        for got, want in zip(batched, reference):
            np.testing.assert_array_equal(got, want)

    def test_graph_size_does_not_grow_with_features(self):
        counts = []
        for F in (1, 7):
            cfg = ModelConfig(T=24, F=F, f_embed=4, n_layers=2, heads=2,
                              branches=[{"kernel": 3, "dilation": 1}])
            model = TsrmModel(cfg, seed=43)
            maps = [Tensor(np.full((2, F, cfg.D), 0.5, dtype=np.float32), requires_grad=True)
                    for _ in range(cfg.n_layers)]
            counts.append(graph_op_nodes(*model.attention_classifier(maps)))
        assert counts[0] == counts[1]


class TestForward:
    def test_shapes_and_map_counts(self):
        cfg = ModelConfig(T=96, F=1, f_embed=8, n_layers=2, heads=2,
                          branches=[{"kernel": 5, "dilation": 1}])
        model = TsrmModel(cfg, seed=20)
        trace = model.forward(np.random.default_rng(21).random((2, 96, 1)).astype(np.float32))
        assert trace.output.shape == (2, 96, 1)
        assert trace.attention.shape == (2, 2, 1, cfg.D)

    def test_eval_determinism(self):
        model = TsrmModel(small_config(attention="probsparse"), seed=22)
        x = np.random.default_rng(23).random((2, 24, 1)).astype(np.float32)
        a = model.forward(x)
        b = model.forward(x)
        np.testing.assert_array_equal(a.output.data, b.output.data)
        np.testing.assert_array_equal(a.class_logits.data, b.class_logits.data)
        np.testing.assert_array_equal(a.attention, b.attention)

    def test_dropout_only_active_in_training(self):
        model = TsrmModel(small_config(dropout_p=0.5), seed=24)
        x = np.random.default_rng(25).random((2, 24, 1)).astype(np.float32)
        e1 = model.forward(x, training=False).output.data
        e2 = model.forward(x, training=False).output.data
        t1 = model.forward(x, training=True, rng=np.random.default_rng(1)).output.data
        np.testing.assert_array_equal(e1, e2)
        assert not np.array_equal(e1, t1)

    def test_bad_input_shape(self):
        model = TsrmModel(small_config(), seed=26)
        with pytest.raises(ConfigError, match="expected input"):
            model.forward(np.zeros((1, 10, 1), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 7.0, -0.5, 1.0001, -1.5])
    def test_input_outside_unit_interval_and_missing_token_rejected(self, bad):
        model = TsrmModel(small_config(F=2), seed=26)
        x = np.random.default_rng(27).random((3, 24, 2)).astype(np.float32)
        x[0, 3, 0] = -1.0
        x[1, 5, 1] = bad
        x[2, 0, 0] = bad
        with pytest.raises(DataError, match=r"\(b, t, f\) = \(1, 5, 1\) is "):
            model.forward(x)
        with no_grad(), pytest.raises(DataError):
            model.forward(x)

    def test_unit_interval_bounds_and_missing_token_accepted(self):
        model = TsrmModel(small_config(), seed=26)
        x = np.zeros((1, 24, 1), dtype=np.float32)
        x[0, :8, 0] = 1.0
        x[0, 8:16, 0] = -1.0
        assert np.isfinite(model.forward(x).output.data).all()


class TestParameterCount:
    def test_counted_equals_formula(self):
        for cfg in (small_config(),
                    small_config(F=3, f_embed=8, n_layers=2, num_classes=4),
                    ModelConfig(T=96, F=2, f_embed=16, n_layers=3, heads=4,
                                branches=[{"kernel": 3, "dilation": 2},
                                          {"kernel": 10, "dilation": 4}])):
            model = TsrmModel(cfg, seed=0)
            assert model.parameter_count() == parameter_count_formula(cfg)

    def test_count_invariant_to_window_length(self):
        kw = dict(F=2, f_embed=16, n_layers=2, heads=4,
                  branches=[{"kernel": 5, "dilation": 2}])
        c96 = ModelConfig(T=96, **kw)
        c192 = ModelConfig(T=192, **kw)
        assert parameter_count_formula(c96) == parameter_count_formula(c192)
        assert TsrmModel(c96, seed=0).parameter_count() == TsrmModel(c192, seed=0).parameter_count()

    def test_layer_count_delta(self):
        # adding an EL adds one EL block plus the classifier trunk's extra
        # input channel (its first conv consumes one map per layer)
        one = small_config(n_layers=1)
        two = small_config(n_layers=2)
        delta = parameter_count_formula(two) - parameter_count_formula(one)
        per_el = (TsrmModel(two, seed=0).parameter_count()
                  - TsrmModel(one, seed=0).parameter_count())
        assert delta == per_el
        ac_channel_growth = one.F * AC_CONV1_OUT * AC_CONV1_K
        el_only = delta - ac_channel_growth
        de, fe, F, M = one.d_embed, one.f_embed, one.F, len(one.branches)
        k = one.resolved_branches[0].k
        expected_el = (de * k + de) + 2 * de + 4 * F * fe * fe + 4 * F * fe \
            + 2 * de + de * de + de + de * k + F * (M * fe * fe + fe)
        assert el_only == expected_el


class TestEndToEndGradients:
    def test_tiny_config_matches_finite_differences(self):
        # T=10 is the smallest window compatible with the classifier's
        # minimum representation length for this branch
        cfg = ModelConfig(T=10, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        model = TsrmModel(cfg, seed=27, dtype=np.float64)
        rng = np.random.default_rng(28)
        x = rng.random((2, 10, 1))
        w_out = rng.standard_normal((2, 10, 1))
        w_cls = rng.standard_normal((2, 1))

        def loss():
            trace = model.forward(x, training=False)
            return (trace.output * Tensor(w_out)).sum() + (trace.class_logits * Tensor(w_cls)).sum()

        tensors = [model.t(name) for name in
                   ("embed.w", "embed.b", "el0.rl.conv0.w", "el0.attn.wq",
                    "el0.attn.wv", "el0.block1.norm.gamma", "el0.block2.linear.w",
                    "el0.ml.tconv0.w", "el0.ml.ffn.w", "deembed.w",
                    "ac.conv1.w", "ac.lin1.w", "ac.head.w1", "ac.head.w3")]
        check_gradients(loss, tensors, tol=1e-3)


class TestCheckpointing:
    def test_round_trip_bitwise(self, tmp_path):
        model = TsrmModel(small_config(F=2, f_embed=8, n_layers=2), seed=29)
        x = np.random.default_rng(30).random((2, 24, 2)).astype(np.float32)
        before = model.forward(x)
        save_checkpoint(model, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        after = restored.forward(x)
        np.testing.assert_array_equal(before.output.data, after.output.data)
        np.testing.assert_array_equal(before.class_logits.data, after.class_logits.data)

    @pytest.mark.parametrize("failure", ["second write", "rename"])
    def test_failed_save_leaves_earlier_checkpoint_intact(self, tmp_path, monkeypatch, failure):
        model = TsrmModel(small_config(), seed=32)
        save_checkpoint(model, tmp_path)
        files = {name: (tmp_path / name).read_bytes() for name in ("manifest.json", "params.bin")}
        x = np.random.default_rng(33).random((2, 24, 1)).astype(np.float32)
        want = model.forward(x).output.data

        model.params["embed.w"].tensor.data = model.params["embed.w"].data + 1
        if failure == "second write":
            # the disk fills up after the first file was written in full
            write_bytes, calls = Path.write_bytes, []

            def fill_up(path, data):
                calls.append(path)
                if len(calls) == 2:
                    raise OSError("no space left on device")
                return write_bytes(path, data)

            monkeypatch.setattr(Path, "write_bytes", fill_up)
        else:
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            save_checkpoint(model, tmp_path)

        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        for name, data in files.items():
            assert (tmp_path / name).read_bytes() == data
        np.testing.assert_array_equal(load_checkpoint(tmp_path).forward(x).output.data, want)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(MissingCheckpointError):
            load_checkpoint(tmp_path / "nope")

    def test_truncated_blob(self, tmp_path):
        model = TsrmModel(small_config(), seed=31)
        save_checkpoint(model, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt" / "params.bin").read_bytes()
        (tmp_path / "ckpt" / "params.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "ckpt")

    def test_manifest_shape_mismatch(self, tmp_path):
        import json
        model = TsrmModel(small_config(), seed=32)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        manifest["config"]["f_embed"] = 8  # blob no longer matches the config
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises((ShapeMismatchError, CorruptCheckpointError)):
            load_checkpoint(tmp_path / "ckpt")

    def test_unknown_version(self, tmp_path):
        import json
        model = TsrmModel(small_config(), seed=33)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(tmp_path / "ckpt")

    def test_load_initializes_no_parameters(self, tmp_path, monkeypatch):
        # shapes are checked against the config's parameter table, not
        # against a freshly initialized model
        model = TsrmModel(small_config(F=2, f_embed=8), seed=38)
        save_checkpoint(model, tmp_path / "ckpt")

        def no_init(self, rng):
            raise AssertionError("load_checkpoint initialized a model")

        monkeypatch.setattr(TsrmModel, "_init_params", no_init)
        restored = load_checkpoint(tmp_path / "ckpt")
        assert list(restored.params) == list(model.params)
        for name, p in model.params.items():
            np.testing.assert_array_equal(restored.params[name].data, p.data)

    def test_v1_manifest_with_reduce_axis_loads(self, tmp_path):
        import json
        model = TsrmModel(small_config(), seed=36)
        save_checkpoint(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == 1
        assert "attention_reduce_axis" not in manifest["config"]
        manifest["config"]["attention_reduce_axis"] = "queries"
        path.write_text(json.dumps(manifest))
        restored = load_checkpoint(tmp_path / "ckpt")
        assert restored.config.to_dict() == model.config.to_dict()
        x = np.random.default_rng(37).random((2, 24, 1)).astype(np.float32)
        np.testing.assert_array_equal(restored.forward(x).output.data,
                                      model.forward(x).output.data)

        manifest["config"]["attention_reduce_axis"] = "keys"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="reduce axis"):
            load_checkpoint(tmp_path / "ckpt")

    def test_invalid_json(self, tmp_path):
        model = TsrmModel(small_config(), seed=34)
        save_checkpoint(model, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "manifest.json").write_text("{broken")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "ckpt")

    @staticmethod
    def _saved_entries(tmp_path, seed):
        import json
        save_checkpoint(TsrmModel(small_config(), seed=seed), tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        return manifest, {e["name"]: e for e in manifest["params"]}

    @staticmethod
    def _write_manifest(tmp_path, manifest):
        import json
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))

    def test_offset_reading_another_parameter_rejected(self, tmp_path):
        # same length, so the float count still adds up; embed.w's floats are read twice
        manifest, entries = self._saved_entries(tmp_path, seed=39)
        assert entries["embed.b"]["length"] == entries["embed.w"]["length"]
        entries["embed.b"]["offset"] = entries["embed.w"]["offset"]
        self._write_manifest(tmp_path, manifest)
        with pytest.raises(CorruptCheckpointError, match="read by two parameters"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("offset", [-8, 2.0, "0", True, 10 ** 9])
    def test_offset_outside_params_bin_rejected(self, tmp_path, offset):
        manifest, entries = self._saved_entries(tmp_path, seed=40)
        entries["embed.b"]["offset"] = offset
        self._write_manifest(tmp_path, manifest)
        with pytest.raises(CorruptCheckpointError, match="does not place it inside"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("corrupt", [
        lambda m, e: m.update(params=5),
        lambda m, e: m["params"].append(7),
        lambda m, e: e["embed.b"].pop("offset"),
        lambda m, e: e["embed.b"].update(shape=["a"]),
        lambda m, e: e["embed.b"].update(shape=4),
        lambda m, e: e["embed.b"].update(shape=[-1, -4]),
        lambda m, e: e["embed.b"].update(name=["embed.b"]),
    ], ids=["params-not-a-list", "entry-not-an-object", "no-offset", "shape-of-strings",
            "shape-not-a-list", "negative-dims", "name-not-a-string"])
    def test_malformed_params_entry_rejected(self, tmp_path, corrupt):
        manifest, entries = self._saved_entries(tmp_path, seed=40)
        corrupt(manifest, entries)
        self._write_manifest(tmp_path, manifest)
        with pytest.raises(CorruptCheckpointError, match="'params' is not a list|malformed"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("corrupt", [
        lambda m: m["config"].update(f_embed="8"),
        lambda m: m["config"].update(attention_reduce_axis="keys"),
        lambda m: m.update(task=5),
        lambda m: m.update(task="pretrian"),
        lambda m: m.update(task=None),
        lambda m: m.update(task_spec=[1]),
        lambda m: m.update(task_spec="impute"),
    ], ids=["config-value-of-wrong-type", "config-reduce-axis", "task-not-a-string",
            "unknown-task", "null-task", "task-spec-a-list", "task-spec-a-string"])
    def test_malformed_config_or_task_is_a_corrupt_checkpoint(self, tmp_path, corrupt):
        manifest, _ = self._saved_entries(tmp_path, seed=42)
        corrupt(manifest)
        self._write_manifest(tmp_path, manifest)
        with pytest.raises(CorruptCheckpointError, match="manifest: "):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("task,task_spec", [
        ("pretrain", None), ("impute", {"kind": "impute"}), ("classify", None)])
    def test_known_task_with_null_or_object_spec_loads(self, tmp_path, task, task_spec):
        manifest, _ = self._saved_entries(tmp_path, seed=43)
        manifest.update(task=task, task_spec=task_spec)
        self._write_manifest(tmp_path, manifest)
        restored = load_checkpoint(tmp_path / "ckpt")
        assert (restored.task, restored.task_spec) == (task, task_spec)

    def test_manifest_in_reverse_order_loads(self, tmp_path):
        # the ranges need not be listed in blob order, only tile it
        manifest, _ = self._saved_entries(tmp_path, seed=41)
        manifest["params"].reverse()
        self._write_manifest(tmp_path, manifest)
        restored = load_checkpoint(tmp_path / "ckpt")
        model = TsrmModel(small_config(), seed=41)
        for name, p in model.params.items():
            np.testing.assert_array_equal(restored.params[name].data, p.data)


class TestRebuild:
    def test_absolute_kernels_share_all_tensors(self, monkeypatch):
        model = TsrmModel(small_config(T=96), seed=35)

        def no_draw(*args):
            raise AssertionError("a rebuild with unchanged shapes initialized a parameter")

        monkeypatch.setattr(model_module, "_initial_value", no_draw)
        bigger, reinit = rebuild_for_window(model, 120)
        assert reinit == []
        assert bigger.config.T == 120
        assert list(bigger.params) == list(model.params)
        for name in model.params:
            assert bigger.params[name].tensor is model.params[name].tensor

    def test_percent_kernels_reinitialize_on_shape_change(self):
        cfg = ModelConfig(T=96, F=1, f_embed=8, n_layers=1, heads=2,
                          branches=[{"kernel_pct": 10.0, "dilation": 1}])
        model = TsrmModel(cfg, seed=36)
        bigger, reinit = rebuild_for_window(model, 192)  # k: 10 -> 19
        assert any("rl.conv0" in name for name in reinit)
        assert any("ml.tconv0" in name for name in reinit)
        assert bigger.params["embed.w"].tensor is model.params["embed.w"].tensor
        # reinitialized kernels take a seed-0 model's values at the new window
        seeded = TsrmModel(bigger.config, seed=0)
        for name in reinit:
            np.testing.assert_array_equal(bigger.params[name].data, seeded.params[name].data)
        assert list(bigger.params) == list(seeded.params)

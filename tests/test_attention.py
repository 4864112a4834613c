"""Tests for the attention mechanisms, checked against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest

import tsrm.attention as attention
from tsrm.attention import (
    _ENTMAX_BLOCK,
    entmax15,
    entmax_attention,
    feature_separated_mha,
    probsparse_attention,
    probsparse_top_u,
    reduce_map,
    vanilla_attention,
)
from tsrm.autodiff import Tensor, _make, kaiming_uniform, matmul, no_grad, softmax
from tsrm.errors import ConfigError
from tsrm.model import ModelConfig, TsrmModel

from helpers import check_gradients, rand_tensor


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def entmax15_exact(z: np.ndarray) -> np.ndarray:
    """Closed-form 1.5-entmax of a vector via sorted support search.

    For support size m over the m largest u_i = z_i/2, tau solves
    m*tau^2 - 2*S1*tau + S2 - 1 = 0; the valid m keeps u_m > tau.
    """
    u = np.sort(z / 2.0)[::-1]
    n = len(u)
    tau = None
    for m in range(1, n + 1):
        s1 = u[:m].sum()
        s2 = (u[:m] ** 2).sum()
        disc = s1 * s1 - m * (s2 - 1.0)
        cand = (s1 - math.sqrt(max(disc, 0.0))) / m
        if u[m - 1] > cand and (m == n or u[m] <= cand):
            tau = cand
            break
    assert tau is not None
    return np.square(np.maximum(z / 2.0 - tau, 0.0))


def dense_attention_oracle(q, k, v):
    """Straightforward per-slice softmax attention in float64."""
    d_h = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(d_h)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ v, w


def oracle_top_queries(scores, u, rng):
    """The u queries [..., u] of each slice with the highest max-minus-mean
    of their scaled scores [..., D, D] against u keys sampled per query.

    The samples lie [..., D, u], one query's in a row: the mean is numpy's
    over a short innermost axis and the ranking a full stable argsort, as
    the sparse path once computed them; it must still agree bit for bit."""
    D = scores.shape[-1]
    sample_idx = np.argsort(rng.random((D, D)), axis=-1)[:, :u]
    sampled = np.take_along_axis(
        scores, sample_idx.reshape((1,) * (scores.ndim - 2) + (D, u)), axis=-1)
    sparsity = sampled.max(axis=-1) - sampled.mean(axis=-1)
    return np.argsort(-sparsity, axis=-1, kind="stable")[..., :u]


def probsparse_masked_dense(q, k, v, c, rng):
    """Prob-sparse attention computed densely, on the autodiff graph.

    Scores and softmax for all D queries, then every row of a non-selected
    query replaced by the uniform row. Selection samples the keys and ranks
    the queries the same way as the sparse path, so both pick the same
    rows; only the arithmetic after the selection differs. Returns (values,
    per-head masked weights [..., h, D, D]).
    """
    D, d_h = q.shape[-2:]
    scores = matmul(q, k.transpose(*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    scores = scores * (1.0 / math.sqrt(d_h))
    order = oracle_top_queries(scores.data, probsparse_top_u(D, c), rng)
    selected = np.zeros(scores.shape[:-1], dtype=scores.data.dtype)
    np.put_along_axis(selected, order, 1.0, axis=-1)
    uniform = Tensor(np.asarray((1.0 - selected[..., None]) / D, dtype=scores.data.dtype))
    weights = softmax(scores, axis=-1) * Tensor(selected[..., None]) + uniform
    return matmul(weights, v), weights


# ---------------------------------------------------------------------------
# entmax15
# ---------------------------------------------------------------------------

class TestEntmax15:
    def test_symmetry(self):
        np.testing.assert_allclose(entmax15(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_support_exit_is_exact(self):
        out = entmax15(Tensor([10.0, 0.0])).data
        np.testing.assert_array_equal(out, [1.0, 0.0])  # tau = 4 analytically

    def test_two_element_closed_form(self):
        # with z = [1, 0]: t = (-1 + sqrt(7))/4, p = [(0.5 + t)^2, t^2]
        t = (-1.0 + math.sqrt(7.0)) / 4.0
        out = entmax15(Tensor([1.0, 0.0])).data
        np.testing.assert_allclose(out, [(0.5 + t) ** 2, t ** 2], atol=1e-10)
        np.testing.assert_allclose(out, [0.8307, 0.1693], atol=1e-4)

    def test_matches_exact_oracle_on_random_vectors(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            z = rng.normal(0, rng.uniform(0.5, 4.0), n)
            got = entmax15(Tensor(z)).data
            want = entmax15_exact(z)
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-6

    def test_produces_exact_zeros(self):
        rng = np.random.default_rng(22)
        saw_zero = False
        for _ in range(200):
            z = rng.normal(0, 3.0, 6)
            out = entmax15(Tensor(z)).data
            assert (out >= 0).all()
            np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)
            saw_zero = saw_zero or (out == 0.0).any()
        assert saw_zero, "sparse support never materialized over 200 draws"

    def test_shift_invariance_exact(self):
        # quantized inputs plus a power-of-two shift make both halvings exact
        rng = np.random.default_rng(23)
        z = np.round(rng.normal(0, 2, 8) * 2 ** 20) / 2 ** 20
        np.testing.assert_array_equal(entmax15(Tensor(z)).data,
                                      entmax15(Tensor(z + 256.0)).data)

    def test_argmax_agrees_with_softmax(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            z = rng.normal(0, 2, 7)
            z[rng.integers(0, 7)] += 3.0  # avoid near-ties
            assert entmax15(Tensor(z)).data.argmax() == z.argmax()

    def test_float32_rows_match_exact_oracle(self):
        # the model's setting: float32 scores, rows of D = 69
        rng = np.random.default_rng(26)
        z = rng.normal(0, 2.0, (2, 3, 69))
        z[0, 0, [3, 17]] = z[0, 0].max() + 1.0                 # tied maxima
        z[0, 1] = 0.375                                         # all equal
        # dominant entry exactly 2 (on a quarter grid) or 3 above the rest
        z[1, 0] = np.round(z[1, 0] * 4) / 4
        z[1, 0, 5] = np.delete(z[1, 0], 5).max() + 2.0
        z[1, 1, 60] = np.delete(z[1, 1], 60).max() + 3.0
        z = z.astype(np.float32)
        got = entmax15(Tensor(z)).data
        assert got.dtype == np.float32
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(got[idx], entmax15_exact(z[idx].astype(np.float64)),
                                       rtol=0, atol=8 * np.finfo(np.float32).eps)
        assert got[0, 0, 3] == got[0, 0, 17] > 0
        np.testing.assert_array_equal(got[0, 1], np.full(69, got[0, 1, 0]))
        for (b, r), hot in (((1, 0), 5), ((1, 1), 60)):
            want = np.zeros(69, dtype=np.float32)
            want[hot] = 1.0
            np.testing.assert_array_equal(got[b, r], want)

    def test_rows_at_block_boundaries_match_rows_alone(self):
        rng = np.random.default_rng(27)
        n = 69
        step = _ENTMAX_BLOCK // n
        z = rng.normal(0, 2.0, (2 * step + 3, n)).astype(np.float32)
        got = entmax15(Tensor(z)).data
        for i in (0, step - 1, step, 2 * step - 1, 2 * step, 2 * step + 2):
            np.testing.assert_array_equal(got[i], entmax15(Tensor(z[i])).data)
        # rows longer than the block budget are solved one at a time
        long = rng.normal(0, 2.0, (2, _ENTMAX_BLOCK + 5))
        got = entmax15(Tensor(long)).data
        for i in range(2):
            np.testing.assert_array_equal(got[i], entmax15(Tensor(long[i])).data)

    def test_peak_memory_at_the_eval_shape(self):
        # guards peak RSS: the solver's temporaries must not scale with the
        # whole [F, B, h, D, D] score tensor
        z = np.random.default_rng(28).normal(0, 2.0, (1, 64, 2, 69, 69)).astype(np.float32)
        t = Tensor(z)
        with no_grad():
            tracemalloc.start()
            try:
                entmax15(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2.5 * z.nbytes, f"peak {peak / z.nbytes:.2f}x the input"

    def test_gradient(self):
        rng = np.random.default_rng(25)
        z = rand_tensor(rng, 2, 6)
        w = rng.standard_normal((2, 6))
        # keep the support stable under the probe step: the closed-form
        # Jacobian is only defined away from support-change boundaries
        check_gradients(lambda: (entmax15(z) * Tensor(w)).sum(), [z], tol=5e-4)


# ---------------------------------------------------------------------------
# attention kinds
# ---------------------------------------------------------------------------

def _qkv(rng, B=1, h=2, D=5, d_h=4):
    return (rand_tensor(rng, B, h, D, d_h, requires_grad=False),
            rand_tensor(rng, B, h, D, d_h, requires_grad=False),
            rand_tensor(rng, B, h, D, d_h, requires_grad=False))


class TestVanillaAttention:
    def test_identical_keys_give_uniform_rows(self):
        rng = np.random.default_rng(26)
        q, _, v = _qkv(rng)
        k_row = rng.standard_normal((1, 2, 1, 4))
        k = Tensor(np.repeat(k_row, 5, axis=2))
        out, weights = vanilla_attention(q, k, v)
        assert weights.shape == (1, 2, 5, 5)
        np.testing.assert_allclose(weights.data, 1.0 / 5.0, atol=1e-7)
        mean_v = np.broadcast_to(v.data.mean(axis=2, keepdims=True), out.shape)
        np.testing.assert_allclose(out.data, mean_v, atol=1e-6)

    def test_single_position(self):
        rng = np.random.default_rng(27)
        q, k, v = _qkv(rng, D=1)
        out, weights = vanilla_attention(q, k, v)
        np.testing.assert_array_equal(weights.data, np.ones((1, 2, 1, 1)))
        np.testing.assert_allclose(out.data, v.data)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(28)
        q, k, v = _qkv(rng, B=2, h=3, D=3, d_h=4)
        out, weights = vanilla_attention(q, k, v)
        want_out, want_w = dense_attention_oracle(q.data, k.data, v.data)
        np.testing.assert_allclose(out.data, want_out, atol=1e-6)
        np.testing.assert_allclose(weights.data, want_w, atol=1e-6)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(29)
        q, k, v = _qkv(rng, D=9)
        _, weights = vanilla_attention(q, k, v)
        assert weights.shape == (1, 2, 9, 9)
        assert (weights.data >= 0).all()
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-5)


class TestEntmaxAttention:
    def test_identical_keys_give_uniform_rows(self):
        rng = np.random.default_rng(30)
        q, _, v = _qkv(rng)
        k = Tensor(np.repeat(rng.standard_normal((1, 2, 1, 4)), 5, axis=2))
        _, weights = entmax_attention(q, k, v)
        assert weights.shape == (1, 2, 5, 5)
        np.testing.assert_allclose(weights.data, 1.0 / 5.0, atol=1e-7)

    def test_dominant_key_gives_one_hot_row(self):
        d_h = 4
        D = 5
        scores = np.zeros((1, 1, D, d_h))
        q = Tensor(np.ones((1, 1, D, d_h)))
        k = np.zeros((1, 1, D, d_h))
        # key 0 dominates every row by 2*sqrt(d_h) * 4 in raw dot product
        k[0, 0, 0, :] = 2.0 * math.sqrt(d_h) * 4.0 / d_h
        _, weights = entmax_attention(q, Tensor(k), Tensor(np.ones((1, 1, D, d_h))))
        expected = np.zeros(D)
        expected[0] = 1.0
        assert weights.shape == (1, 1, D, D)
        for row in weights.data[0, 0]:
            np.testing.assert_array_equal(row, expected)

    def test_agrees_with_entmax_of_materialized_scores(self):
        rng = np.random.default_rng(31)
        q, k, v = _qkv(rng, D=6)
        _, weights = entmax_attention(q, k, v)
        scores = q.data @ np.swapaxes(k.data, -1, -2) / math.sqrt(q.shape[-1])
        want = entmax15(Tensor(scores), axis=-1).data
        np.testing.assert_array_equal(weights.data, want)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(32)
        q, k, v = _qkv(rng, D=8)
        _, weights = entmax_attention(q, k, v)
        assert weights.shape == (1, 2, 8, 8)
        assert (weights.data >= 0).all()
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-5)


class TestProbsparseAttention:
    def test_top_u_formula(self):
        assert probsparse_top_u(96, 5.0) == 23  # ceil(5 ln 96)
        assert probsparse_top_u(4, 5.0) == 4
        assert probsparse_top_u(1, 5.0) == 1
        assert probsparse_top_u(168, 1e308) == 168  # c ln D overflows to inf

    def test_u_equal_d_degenerates_to_vanilla(self):
        rng = np.random.default_rng(33)
        for D in (4, 16, 32):
            q, k, v = _qkv(rng, B=2, h=2, D=D)
            out_ps, w_ps = probsparse_attention(q, k, v, c=50.0,
                                                rng=np.random.default_rng(0))
            out_va, w_va = vanilla_attention(q, k, v)
            np.testing.assert_array_equal(out_ps.data, out_va.data)
            np.testing.assert_array_equal(w_ps.data, w_va.data)

    def test_small_d_matches_dense_oracle(self):
        rng = np.random.default_rng(34)
        q, k, v = _qkv(rng, D=4)
        out, _ = probsparse_attention(q, k, v, c=5.0, rng=np.random.default_rng(1))
        want_out, _ = dense_attention_oracle(q.data, k.data, v.data)
        np.testing.assert_allclose(out.data, want_out, atol=1e-6)

    def test_non_selected_rows_are_uniform(self):
        rng = np.random.default_rng(35)
        D = 32
        q, k, v = _qkv(rng, B=1, h=1, D=D)
        u = probsparse_top_u(D, 1.0)
        assert u < D
        out, weights = probsparse_attention(q, k, v, c=1.0, rng=np.random.default_rng(2))
        assert weights.shape[-2] == u
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-5)
        scores = q.data @ np.swapaxes(k.data, -1, -2) / math.sqrt(q.shape[-1])
        selected = oracle_top_queries(scores, u, np.random.default_rng(2))[0, 0]
        want_out, want_w = dense_attention_oracle(q.data, k.data, v.data)
        np.testing.assert_allclose(weights.data[0, 0], want_w[0, 0, selected], atol=1e-6)
        np.testing.assert_allclose(out.data[0, 0, selected], want_out[0, 0, selected],
                                   atol=1e-6)
        # every other row is a uniform row: it hands the mean of V through
        others = np.setdiff1d(np.arange(D), selected)
        assert len(others) == D - u
        np.testing.assert_allclose(out.data[0, 0, others],
                                   np.broadcast_to(v.data[0, 0].mean(axis=0), (D - u, 4)),
                                   atol=1e-6)

    def test_sampling_is_seeded(self):
        rng = np.random.default_rng(36)
        q, k, v = _qkv(rng, D=24)
        a = probsparse_attention(q, k, v, 2.0, np.random.default_rng(7))
        b = probsparse_attention(q, k, v, 2.0, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.data, y.data)


class TestTopQueriesBitwise:
    """The [..., u, D] sample layout and partial selection against the
    [..., D, u] oracle: the same queries in the same order, ties included."""

    @staticmethod
    def check(q, k, c):
        D, d_h = q.shape[-2:]
        u = probsparse_top_u(D, c)
        assert u < D
        scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(d_h))
        got = attention._top_queries(q, k, u, np.random.default_rng(21))
        want = oracle_top_queries(scores, u, np.random.default_rng(21))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("B", [1, 8])
    @pytest.mark.parametrize("inputs", ["normal", "constant", "one_decimal"])
    def test_benchmark_shape(self, B, inputs):
        # the 7-feature benchmark model's attention: 2 heads of width 8, D=168
        rng = np.random.default_rng(B)
        q, k = (rng.standard_normal((7, B, 2, 168, 8)).astype(np.float32) for _ in range(2))
        if inputs == "constant":            # every score ties
            q, k = np.full_like(q, 0.5), np.full_like(k, 0.25)
        elif inputs == "one_decimal":       # few distinct scores: many tied sparsities
            q, k = np.round(q, 1), np.round(k, 1)
        self.check(q, k, 5.0)

    @pytest.mark.parametrize("D,c", [(12, 2.0), (40, 3.0), (300, 30.0)],
                             ids=["u<8", "u<128", "u>128"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_sample_count_branch(self, D, c, dtype):
        rng = np.random.default_rng(D)
        q, k = (rng.standard_normal((3, 2, D, 4)).astype(dtype) for _ in range(2))
        self.check(q, k, c)

    def test_nan_scores_rank_last(self):
        rng = np.random.default_rng(22)
        q, k = (rng.standard_normal((2, 40, 4)) for _ in range(2))
        q[0, :35] = np.nan                     # fewer than u queries have a number
        self.check(q, k, 3.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sample_sum_adds_in_the_order_of_a_row_mean(self, dtype):
        rng = np.random.default_rng(23)
        for n in list(range(1, 140)) + [300]:
            rows = (rng.standard_normal((5, 30, n)) * 10.0 ** rng.integers(-3, 4, (5, 30, n)))
            rows = rows.astype(dtype)
            got = attention._sum_like_rows(np.ascontiguousarray(np.swapaxes(rows, -1, -2))) / n
            assert got.tobytes() == rows.mean(axis=-1).tobytes(), n


class _RawGrad(Tensor):
    """A leaf that keeps the gradient handed to it as it is, -0.0 included."""

    def _accumulate(self, g):
        self.grad = g


def four_node_scores(q, k, index):
    """Oracle: the scaled scores as four nodes, a gather of the rows
    ``index``, k's transpose, the product and the scale."""
    rows = q
    if index is not None:
        idx = index[..., None]

        def backward(g):
            gq = np.zeros_like(q.data)
            np.put_along_axis(gq, idx, g, axis=-2)
            q._accumulate(gq)

        rows = _make(np.take_along_axis(q.data, idx, axis=-2), (q,), backward, "take_rows")
    scores = matmul(rows, k.transpose(*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    return scores * (1.0 / math.sqrt(q.shape[-1]))


class TestScoresBitwise:
    """The one-node scores against the four-node chain, bit for bit."""

    @pytest.mark.parametrize("normalize", [softmax, entmax15], ids=["softmax", "entmax15"])
    # d_h = 8 scales by an inexact 1/sqrt(8), so a scale moved to another
    # operand shows; d_h = 16 scales by 1/4 exactly
    @pytest.mark.parametrize("shape,u", [((7, 8, 2, 168, 8), 26), ((1, 8, 2, 69, 16), None)],
                             ids=["top-26-rows", "all-rows"])
    def test_data_and_gradients_match_the_chain(self, shape, u, normalize):
        rng = np.random.default_rng(shape[-2])
        q0, k0 = (rng.standard_normal(shape).astype(np.float32) for _ in range(2))
        index = None
        if u is not None:
            assert probsparse_top_u(shape[-2], 5.0) == u
            index = attention._top_queries(q0, k0, u, np.random.default_rng(1))
        g_up = rng.standard_normal(shape[:-2] + (u or shape[-2], shape[-2])).astype(np.float32)

        results = []
        for scores_of in (attention._scores, four_node_scores):
            q, k = (Tensor(a, requires_grad=True) for a in (q0, k0))
            scores = scores_of(q, k, index)
            # the gradient the normalization's backward hands the scores
            z = _RawGrad(scores.data, requires_grad=True)
            normalize(z, axis=-1).backward(g_up)
            scores.backward(z.grad)
            results.append((scores.data, q.grad, k.grad, z.grad))
        if normalize is entmax15:
            zero = results[1][3] == 0
            assert zero.any() and np.signbit(results[1][3][zero]).any()
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# reduce_map
# ---------------------------------------------------------------------------

class TestReduceMap:
    def test_uniform_map(self):
        m = Tensor(np.full((4, 4), 0.25))
        np.testing.assert_allclose(reduce_map(m).data, np.ones(4))

    def test_one_hot_rows(self):
        m = np.zeros((5, 5))
        m[:, 0] = 1.0
        np.testing.assert_array_equal(reduce_map(Tensor(m)).data, [5.0, 0, 0, 0, 0])

    def test_matches_column_sum_oracle(self):
        rng = np.random.default_rng(37)
        raw = rng.random((6, 6))
        m = raw / raw.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(reduce_map(Tensor(m)).data, m.sum(axis=0))

    def test_total_is_number_of_rows(self):
        rng = np.random.default_rng(38)
        raw = rng.random((3, 9, 9))
        m = raw / raw.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(reduce_map(Tensor(m)).data.sum(axis=-1), 9.0, atol=1e-4)


# ---------------------------------------------------------------------------
# feature-separated wrapper
# ---------------------------------------------------------------------------

def make_attention_params(rng, F, f_embed, dtype=np.float64):
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        params[name] = Tensor(kaiming_uniform((F, f_embed, f_embed), f_embed, rng, dtype),
                              requires_grad=True)
    for name in ("bq", "bk", "bv", "bo"):
        params[name] = Tensor(np.zeros((F, f_embed), dtype=dtype), requires_grad=True)
    return params


KERNELS = {"vanilla": "vanilla_attention", "entmax15": "entmax_attention",
           "probsparse": "probsparse_attention"}


def spy_on_kernel(monkeypatch, kind):
    """Replace the kind's kernel in ``tsrm.attention`` with a pass-through
    that records each call's result in ``spy.results``."""
    name = KERNELS[kind]
    kernel = getattr(attention, name)

    def spy(*args, **kwargs):
        spy.results.append(kernel(*args, **kwargs))
        return spy.results[-1]

    spy.results = []
    monkeypatch.setattr(attention, name, spy)
    return spy


class TestFeatureSeparatedMha:
    def test_single_feature_equals_plain_mha(self):
        rng = np.random.default_rng(40)
        F, f_embed, h, B, D = 1, 8, 2, 2, 5
        params = make_attention_params(rng, F, f_embed)
        r = Tensor(rng.standard_normal((B, D, f_embed)))
        out, reduced = feature_separated_mha(r, params, "vanilla", 5.0, h,
                                             np.random.default_rng(0))
        # plain reference: same projections without the feature plumbing
        q = (r.data @ params["wq"].data[0]).reshape(B, D, h, -1).transpose(0, 2, 1, 3)
        k = (r.data @ params["wk"].data[0]).reshape(B, D, h, -1).transpose(0, 2, 1, 3)
        v = (r.data @ params["wv"].data[0]).reshape(B, D, h, -1).transpose(0, 2, 1, 3)
        vals, w = dense_attention_oracle(q, k, v)
        want = (vals.transpose(0, 2, 1, 3).reshape(B, D, f_embed)) @ params["wo"].data[0]
        np.testing.assert_allclose(out.data, want, atol=1e-8)
        np.testing.assert_allclose(reduced.data[:, 0, :], w.mean(axis=1).sum(axis=1),
                                   atol=1e-8)

    def test_feature_permutation_equivariance(self):
        rng = np.random.default_rng(41)
        F, f_embed, h, B, D = 3, 4, 2, 1, 6
        params = make_attention_params(rng, F, f_embed)
        r = rng.standard_normal((B, D, F * f_embed))
        perm = np.array([2, 0, 1])

        out1, red1 = feature_separated_mha(Tensor(r), params,
                                           "vanilla", 5.0, h,
                                           np.random.default_rng(0))
        perm_params = {name: Tensor(t.data[perm]) for name, t in params.items()}
        r_perm = r.reshape(B, D, F, f_embed)[:, :, perm].reshape(B, D, F * f_embed)
        out2, red2 = feature_separated_mha(Tensor(r_perm), perm_params,
                                           "vanilla", 5.0, h,
                                           np.random.default_rng(0))
        want = out1.data.reshape(B, D, F, f_embed)[:, :, perm].reshape(B, D, -1)
        np.testing.assert_allclose(out2.data, want, atol=1e-10)
        np.testing.assert_allclose(red2.data, red1.data[:, perm], atol=1e-10)

    def test_feature_isolation(self):
        rng = np.random.default_rng(42)
        F, f_embed, h, B, D = 2, 4, 2, 2, 5
        params = make_attention_params(rng, F, f_embed)
        base = rng.standard_normal((B, D, F * f_embed))

        out_full, red_full = feature_separated_mha(Tensor(base), params,
                                                   "vanilla", 5.0, h,
                                                   np.random.default_rng(0))
        mutated = base.copy()
        mutated[:, :, f_embed:] = rng.standard_normal((B, D, f_embed))
        out_mut, red_mut = feature_separated_mha(Tensor(mutated), params,
                                                 "vanilla", 5.0, h,
                                                 np.random.default_rng(0))
        np.testing.assert_array_equal(out_full.data[:, :, :f_embed],
                                      out_mut.data[:, :, :f_embed])
        np.testing.assert_array_equal(red_full.data[:, 0], red_mut.data[:, 0])

    def test_zeroed_second_feature_matches_single_feature_run(self):
        rng = np.random.default_rng(47)
        f_embed, h, B, D = 4, 2, 2, 5
        single = make_attention_params(rng, 1, f_embed)
        double = {name: Tensor(np.concatenate([t.data, np.zeros_like(t.data)]))
                  for name, t in single.items()}
        r1 = rng.standard_normal((B, D, f_embed))
        r2 = np.concatenate([r1, np.zeros((B, D, f_embed))], axis=-1)

        out1, red1 = feature_separated_mha(Tensor(r1), single,
                                           "vanilla", 5.0, h,
                                           np.random.default_rng(0))
        out2, red2 = feature_separated_mha(Tensor(r2), double,
                                           "vanilla", 5.0, h,
                                           np.random.default_rng(0))
        np.testing.assert_array_equal(out2.data[:, :, :f_embed], out1.data)
        np.testing.assert_array_equal(red2.data[:, 0], red1.data[:, 0])

    @pytest.mark.parametrize("kind", ["vanilla", "entmax15", "probsparse"])
    def test_reduced_map_total_and_rows(self, kind, monkeypatch):
        rng = np.random.default_rng(43)
        F, f_embed, h, B, D = 2, 4, 2, 3, 7
        params = make_attention_params(rng, F, f_embed)
        r = Tensor(rng.standard_normal((B, D, F * f_embed)))
        kernel = spy_on_kernel(monkeypatch, kind)
        _, reduced = feature_separated_mha(r, params, kind, 5.0, h,
                                           np.random.default_rng(0))
        (_, weights), = kernel.results
        assert weights.shape == (F, B, h, D, D)
        assert (weights.data >= 0).all()
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-5)
        assert reduced.shape == (B, F, D)
        np.testing.assert_allclose(reduced.data.sum(axis=-1), float(D), atol=1e-4)

    def test_divisibility_errors(self):
        rng = np.random.default_rng(44)
        params = make_attention_params(rng, 2, 4)
        r = Tensor(rng.standard_normal((1, 5, 8)))
        with pytest.raises(ConfigError, match="divisible"):
            feature_separated_mha(r, params, "vanilla", 5.0, 3,
                                  np.random.default_rng(0))
        with pytest.raises(ConfigError, match="width"):
            feature_separated_mha(Tensor(rng.standard_normal((1, 5, 6))), params,
                                  "vanilla", 5.0, 2, np.random.default_rng(0))

    def test_gradients_flow_through_output_and_maps(self):
        rng = np.random.default_rng(45)
        F, f_embed, h, B, D = 2, 4, 2, 1, 4
        params = make_attention_params(rng, F, f_embed)
        r = rand_tensor(rng, B, D, F * f_embed)
        w_out = rng.standard_normal((B, D, F * f_embed))
        w_map = rng.standard_normal((B, F, D))

        def loss():
            out, reduced = feature_separated_mha(r, params, "vanilla", 5.0,
                                                 h, np.random.default_rng(0))
            return (out * Tensor(w_out)).sum() + (reduced * Tensor(w_map)).sum()

        check_gradients(loss, [r, params["wq"], params["wk"], params["wv"],
                               params["wo"], params["bq"], params["bo"]])

    def test_probsparse_gradients(self):
        rng = np.random.default_rng(46)
        F, f_embed, h, B, D = 1, 4, 2, 1, 12
        params = make_attention_params(rng, F, f_embed)
        r = rand_tensor(rng, B, D, F * f_embed)
        w_out = rng.standard_normal((B, D, F * f_embed))

        def loss():
            out, _ = feature_separated_mha(r, params, "probsparse", 2.0, h,
                                           np.random.default_rng(3))
            return (out * Tensor(w_out)).sum()

        check_gradients(loss, [r, params["wq"], params["wv"]], tol=5e-4)


# ---------------------------------------------------------------------------
# the sparse prob-sparse path
# ---------------------------------------------------------------------------

# sizes with u < D: (D, c, u) = (12, 2, 5), (24, 2, 7), (33, 1, 4), (40, 3, 12)
SPARSE_CASES = [(12, 2.0), (24, 2.0), (33, 1.0), (40, 3.0)]


class TestProbsparseSparsePath:
    """The sparse path against the masked-dense oracle, in float64."""

    @pytest.mark.parametrize("D,c", SPARSE_CASES)
    def test_values_map_and_input_gradients_match_oracle(self, D, c):
        u = probsparse_top_u(D, c)
        assert u < D
        rng = np.random.default_rng(D)
        q, k, v = (rand_tensor(rng, 2, 3, D, 4) for _ in range(3))
        w_out = rng.standard_normal((2, 3, D, 4))
        w_rows = rng.standard_normal((2, 3, u, D))
        # the oracle's selected rows, in its top-u order
        scores = q.data @ np.swapaxes(k.data, -1, -2) * (1.0 / math.sqrt(4))
        rows = oracle_top_queries(scores, u, np.random.default_rng(9))[..., None]
        w_dense = np.zeros((2, 3, D, D))
        np.put_along_axis(w_dense, rows, w_rows, axis=-2)

        def run(kernel, w_weights):
            for t in (q, k, v):
                t.zero_grad()
            out, weights = kernel(q, k, v, c, np.random.default_rng(9))
            ((out * Tensor(w_out)).sum() + (weights * Tensor(w_weights)).sum()).backward()
            return out.data, weights.data, q.grad, k.grad, v.grad

        got = run(probsparse_attention, w_rows)
        want = run(probsparse_masked_dense, w_dense)
        want = (want[0], np.take_along_axis(want[1], rows, axis=-2)) + want[2:]
        assert got[1].shape == (2, 3, u, D)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("D,c", SPARSE_CASES)
    def test_mha_outputs_reduced_full_maps_and_gradients_match_oracle(self, D, c,
                                                                      monkeypatch):
        rng = np.random.default_rng(100 + D)
        F, f_embed, h, B = 2, 4, 2, 2
        params = make_attention_params(rng, F, f_embed)
        r = rand_tensor(rng, B, D, F * f_embed)
        w_out = rng.standard_normal((B, D, F * f_embed))
        w_red = rng.standard_normal((B, F, D))
        leaves = [r] + list(params.values())

        def run(kind):
            for t in leaves:
                t.zero_grad()
            out, reduced = feature_separated_mha(r, params, kind, c, h,
                                                 np.random.default_rng(4))
            ((out * Tensor(w_out)).sum() + (reduced * Tensor(w_red)).sum()).backward()
            return [out.data, reduced.data] + [t.grad for t in leaves]

        got = run("probsparse")
        # the vanilla branch of the wrapper, running the oracle, reduces the
        # oracle's full D x D rows: reduce_map over the head-averaged map
        monkeypatch.setattr(attention, "vanilla_attention", lambda q, k, v: (
            probsparse_masked_dense(q, k, v, c, np.random.default_rng(4))))
        want = run("vanilla")
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_reduced_map_gradients_match_finite_differences(self):
        rng = np.random.default_rng(48)
        F, f_embed, h, B, D = 1, 4, 2, 1, 12
        params = make_attention_params(rng, F, f_embed)
        r = rand_tensor(rng, B, D, F * f_embed)
        w_red = rng.standard_normal((B, F, D))

        def loss():
            _, reduced = feature_separated_mha(r, params, "probsparse", 2.0, h,
                                               np.random.default_rng(3))
            return (reduced * Tensor(w_red)).sum()

        check_gradients(loss, [r, params["wq"], params["wk"], params["bq"], params["bk"]],
                        tol=5e-4)

    @pytest.mark.parametrize("kind", ["probsparse", "vanilla"])
    def test_training_graph_holds_no_d_by_d_node(self, kind):
        cfg = ModelConfig(T=48, F=2, f_embed=4, n_layers=2, heads=2, attention=kind,
                          branches=[{"kernel": 3, "dilation": 1}])
        D = cfg.D
        assert probsparse_top_u(D, cfg.probsparse_factor) < D
        model = TsrmModel(cfg, seed=5)
        x = np.random.default_rng(5).random((3, cfg.T, cfg.F)).astype(np.float32)
        trace = model.forward(x, training=True, rng=np.random.default_rng(6))
        seen, stack, square = set(), [trace.output, trace.class_logits], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.shape[-2:] == (D, D):
                square.append(node._op)
            stack.extend(node._parents)
        # vanilla shows that the walk finds the D x D scores when they exist
        assert (not square) if kind == "probsparse" else ("softmax" in square)

    def test_query_selection_holds_one_slice_product_at_a_time(self):
        # guards peak RSS: the data-only q k^T of the whole [F, B, h, D, D]
        # stack set the eval forward's peak; one feature slice is 1/8 of it
        rng = np.random.default_rng(49)
        q, k = (rng.standard_normal((8, 4, 2, 128, 8)) for _ in range(2))
        whole = q[..., 0].size * q.shape[-2] * q.itemsize             # bytes of q k^T
        tracemalloc.start()
        try:
            got = attention._top_queries(q, k, 5, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * whole, f"peak {peak / whole:.2f}x the whole product"
        # an unstacked [D, d_h] query set takes the same path as a one-slice stack
        np.testing.assert_array_equal(
            attention._top_queries(q[0, 0, 0], k[0, 0, 0], 5, np.random.default_rng(1)),
            attention._top_queries(q[:1, 0, 0], k[:1, 0, 0], 5, np.random.default_rng(1))[0])


# ---------------------------------------------------------------------------
# one contract for every kind
# ---------------------------------------------------------------------------

class TestReduceOrder:
    """The reduced vector keeps each kind's summation order bit for bit: a
    change in the last bit moves a seeded training run far past its noise."""

    @pytest.mark.parametrize("kind,c", [("vanilla", 5.0), ("entmax15", 5.0),
                                        ("probsparse", 3.0)])
    def test_reduce_order_is_pinned(self, kind, c, monkeypatch):
        rng = np.random.default_rng(49)
        F, f_embed, h, B, D = 2, 8, 2, 4, 60
        params = make_attention_params(rng, F, f_embed, dtype=np.float32)
        r = Tensor(rng.standard_normal((B, D, F * f_embed)).astype(np.float32))
        kernel = spy_on_kernel(monkeypatch, kind)
        _, reduced = feature_separated_mha(r, params, kind, c, h,
                                           np.random.default_rng(0))
        (_, weights), = kernel.results
        rows = weights.shape[-2]
        w = Tensor(weights.data)
        mean_first = reduce_map(w.mean(axis=-3)).data
        sum_first = (w.sum(axis=(-3, -2)) * (1.0 / h) + (D - rows) / D).data
        # the two orders differ on this input, so swapping them is seen
        assert not np.array_equal(mean_first, sum_first)
        want = sum_first if kind == "probsparse" else mean_first
        assert (rows < D) == (kind == "probsparse")
        np.testing.assert_array_equal(reduced.data, want.transpose(1, 0, 2))


@pytest.mark.parametrize("kind", ["vanilla", "entmax15", "probsparse"])
def test_model_forward_calls_the_kind_kernel_through_the_module(kind, monkeypatch):
    # spans of the traced benchmark wrap these module globals; a forward that
    # bypassed them would leave attention.kernel_ms with no calls to divide by
    cfg = ModelConfig(T=48, F=2, f_embed=4, n_layers=2, heads=2, attention=kind,
                      branches=[{"kernel": 3, "dilation": 1}])
    spies = {other: spy_on_kernel(monkeypatch, other) for other in KERNELS}
    x = np.random.default_rng(7).random((2, cfg.T, cfg.F)).astype(np.float32)
    TsrmModel(cfg, seed=7).forward(x)
    assert {other: len(spy.results) for other, spy in spies.items()} == \
        {other: cfg.n_layers if other == kind else 0 for other in KERNELS}


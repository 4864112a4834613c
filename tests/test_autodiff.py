"""Unit tests for the reverse-mode autodiff core."""

import platform
import resource
import tracemalloc

import numpy as np
import pytest
from scipy import special

from tsrm.autodiff import (
    GROUP_NORM_EPS,
    Adam,
    Parameter,
    Tensor,
    _erf,
    adaptive_maxpool1d,
    add,
    bce_with_logits,
    clip_grad_norm,
    concat,
    conv1d,
    conv1d_depthwise,
    conv1d_transpose_depthwise,
    dropout,
    elu,
    gelu,
    group_norm,
    maxpool1d,
    matmul,
    no_grad,
    sigmoid,
    softmax,
    softmax_cross_entropy,
)
from tsrm.errors import ConfigError

from helpers import check_gradients, finite_difference, rand_tensor


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ConfigError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rand_tensor(rng, 3, 4)
        b = rand_tensor(rng, 4, 2)
        check_gradients(lambda: matmul(a, b).sum(), [a, b])

    def test_batched_broadcast_gradient(self):
        rng = np.random.default_rng(1)
        a = rand_tensor(rng, 2, 3, 4)
        b = rand_tensor(rng, 4, 5)  # broadcast over the batch dim
        w = rng.standard_normal((2, 3, 5))
        check_gradients(lambda: (matmul(a, b) * Tensor(w)).sum(), [a, b])


def unfolded_matmul(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Reference: the product's two gradients, each built at the full
    broadcast shape (b's as one outer product per leading index) and then
    summed over the axes its operand was broadcast over."""
    def sum_to(x, shape):
        x = x.sum(axis=tuple(range(x.ndim - len(shape))))
        return x.sum(axis=tuple(i for i, n in enumerate(shape) if n == 1 and x.shape[i] != 1),
                     keepdims=True)

    ga = g @ np.swapaxes(b, -1, -2)
    gb = np.swapaxes(a, -1, -2) @ g
    return sum_to(ga, a.shape), sum_to(gb, b.shape)


# the weights the model shares across batch rows, at a 7-feature, D=168 shape:
# the merge feed-forward, the Q/K/V/O projections and block 2's linear layer
MODEL_PAIRS = [((8, 192, 7, 1, 32), (7, 32, 16)),
               ((7, 8, 168, 16), (7, 1, 16, 16)),
               ((8, 168, 112), (112, 112))]


class TestMatmulFold:
    @pytest.mark.parametrize("a_shape,b_shape", MODEL_PAIRS + [
        ((1, 5, 4), (3, 4, 6)),            # a broadcast over b's leading axis
        ((3, 5, 4), (3, 4, 6)),            # nothing broadcast
    ])
    def test_gradients_match_the_unfolded_product_in_float64(self, a_shape, b_shape):
        rng = np.random.default_rng(31)
        a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
        out = matmul(a, b)
        g = rng.standard_normal(out.shape)
        out.backward(g.copy())
        want_ga, want_gb = unfolded_matmul(a.data, b.data, g)
        for got, want in ((a.grad, want_ga), (b.grad, want_gb)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_merge_shape_backward_holds_no_outer_product_per_row(self):
        # the unfolded gradient of the [7, 32, 16] weight is a [8, 192, 7, 32, 16]
        # array, 16 times the input's bytes, summed down afterwards
        rng = np.random.default_rng(33)
        a_shape, b_shape = MODEL_PAIRS[0]
        a = Tensor(rng.standard_normal(a_shape).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape).astype(np.float32), requires_grad=True)
        out = matmul(a, b)
        g = np.ones_like(out.data)
        tracemalloc.start()
        try:
            out.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * a.data.nbytes, f"peak {peak / a.data.nbytes:.1f}x the input"


class TestGradientBuffers:
    # no two gradients share memory, so an in-place update of one reaches no other
    def test_add_of_a_tensor_with_itself_leaves_the_seed_gradient_alone(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        seed = np.ones((2, 3))
        add(x, x).backward(seed)
        np.testing.assert_array_equal(x.grad, 2.0)
        np.testing.assert_array_equal(seed, 1.0)
        assert not np.shares_memory(x.grad, seed)

    def test_an_add_of_two_leaves_gives_each_its_own_gradient(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        add(a, b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, 1.0)

    def test_clip_scales_each_leaf_gradient_once(self):
        params = [Parameter("a", Tensor(np.zeros(4))), Parameter("b", Tensor(np.zeros(4)))]
        add(params[0].tensor, params[1].tensor).sum().backward()
        norm = clip_grad_norm(params, 1.0)
        assert norm == pytest.approx(np.sqrt(8.0))
        assert not np.shares_memory(params[0].tensor.grad, params[1].tensor.grad)
        for p in params:
            np.testing.assert_allclose(p.tensor.grad, 1.0 / np.sqrt(8.0), rtol=1e-15)


class TestDepthwiseConv:
    def test_output_length_small_kernel(self):
        x = Tensor(np.zeros((1, 2, 96)))
        k = Tensor(np.zeros((2, 3)))
        out = conv1d_depthwise(x, k, None, dilation=2, stride=1)
        assert out.shape == (1, 2, 92)

    def test_output_length_large_kernel(self):
        x = Tensor(np.zeros((1, 2, 96)))
        k = Tensor(np.zeros((2, 10)))
        out = conv1d_depthwise(x, k, None, dilation=4, stride=5)
        assert out.shape == (1, 2, 12)

    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 3, 8)))
        k = Tensor(np.ones((3, 1)))
        b = Tensor(np.zeros(3))
        out = conv1d_depthwise(x, k, b, dilation=1, stride=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_kernel_too_long_raises(self):
        x = Tensor(np.zeros((1, 1, 5)))
        k = Tensor(np.zeros((1, 4)))
        with pytest.raises(ConfigError, match="effective kernel"):
            conv1d_depthwise(x, k, None, dilation=2, stride=1)

    def test_channels_stay_separate(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 10))
        k = np.stack([np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])])
        out = conv1d_depthwise(Tensor(x), Tensor(k), None, dilation=1, stride=1)
        np.testing.assert_allclose(out.data[0, 0], x[0, 0, :8])
        np.testing.assert_allclose(out.data[0, 1], 2.0 * x[0, 1, 2:])

    @pytest.mark.parametrize("k,d,s", [(3, 1, 1), (3, 2, 1), (5, 2, 3), (1, 1, 1)])
    def test_gradients(self, k, d, s):
        rng = np.random.default_rng(k * 10 + d + s)
        x = rand_tensor(rng, 2, 3, 16)
        kern = rand_tensor(rng, 3, k)
        bias = rand_tensor(rng, 3)
        w = rng.standard_normal(conv1d_depthwise(x, kern, bias, d, s).shape)
        check_gradients(lambda: (conv1d_depthwise(x, kern, bias, d, s) * Tensor(w)).sum(),
                        [x, kern, bias])


class TestTransposeConv:
    def test_restores_length_no_crop(self):
        x = Tensor(np.zeros((1, 2, 92)))
        k = Tensor(np.zeros((2, 3)))
        out = conv1d_transpose_depthwise(x, k, dilation=2, stride=1, target_len=96)
        assert out.shape == (1, 2, 96)

    def test_pads_to_target(self):
        x = Tensor(np.ones((1, 2, 12)))
        k = Tensor(np.ones((2, 10)))
        out = conv1d_transpose_depthwise(x, k, dilation=4, stride=5, target_len=96)
        assert out.shape == (1, 2, 96)
        # natural length (12-1)*5 + 37 = 92, so the last 4 slots are zero padding
        np.testing.assert_array_equal(out.data[:, :, 92:], 0.0)

    def test_identity(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 7)))
        k = Tensor(np.ones((3, 1)))
        out = conv1d_transpose_depthwise(x, k, dilation=1, stride=1, target_len=7)
        np.testing.assert_allclose(out.data, x.data)

    @pytest.mark.parametrize("k,d,s", [(3, 2, 1), (4, 1, 2), (2, 3, 2)])
    def test_gradients(self, k, d, s):
        rng = np.random.default_rng(5)
        L_in = 6
        target = (L_in - 1) * s + (k - 1) * d + 1 + 2  # force a padded tail
        x = rand_tensor(rng, 2, 2, L_in)
        kern = rand_tensor(rng, 2, k)
        w = rng.standard_normal((2, 2, target))
        check_gradients(lambda: (conv1d_transpose_depthwise(x, kern, d, s, target) * Tensor(w)).sum(),
                        [x, kern])

    def test_round_trip_lengths_exhaustive(self):
        # transpose conv of a conv output restores the original length for
        # every valid (L, k, d, s) with L <= 64, k <= 8, d <= 4
        cases = 0
        for L in range(1, 65):
            for k in range(1, 9):
                for d in range(1, 5):
                    k_eff = (k - 1) * d + 1
                    if k_eff > L:
                        continue
                    for s in {1, 2, max(1, k // 2), 4}:
                        L_out = (L - k_eff) // s + 1
                        x = Tensor(np.ones((1, 1, L_out)))
                        kern = Tensor(np.ones((1, k)))
                        out = conv1d_transpose_depthwise(x, kern, d, s, target_len=L)
                        assert out.shape[-1] == L, (L, k, d, s)
                        cases += 1
        assert cases > 5000


class TestMaxPool:
    def test_basic(self):
        out = maxpool1d(Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]])), k=2, stride=2)
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_constant_input(self):
        out = maxpool1d(Tensor(np.full((1, 2, 6), 4.0)), k=2, stride=2)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 3), 4.0))

    def test_kernel_too_long(self):
        with pytest.raises(ConfigError, match="pool kernel"):
            maxpool1d(Tensor(np.zeros((1, 1, 3))), k=4, stride=1)

    def test_tie_routes_to_lowest_index(self):
        x = Tensor(np.array([[[2.0, 2.0]]]), requires_grad=True, dtype=np.float64)
        out = maxpool1d(x, k=2, stride=1)
        out.backward(np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0]]])

    def test_gradient_away_from_ties(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, 2, 3, 12)  # continuous values: ties have measure zero
        w = rng.standard_normal((2, 3, 6))
        check_gradients(lambda: (maxpool1d(x, 2, 2) * Tensor(w)).sum(), [x])

    def test_adaptive_pool_shapes_and_gradient(self):
        rng = np.random.default_rng(7)
        for lead in ((), (3,)):
            for L in (5, 8, 19):
                x = rand_tensor(rng, *lead, 1, 2, L)
                out = adaptive_maxpool1d(x, 8)
                assert out.shape == lead + (1, 2, 8)
                w = rng.standard_normal(lead + (1, 2, 8))
                check_gradients(lambda: (adaptive_maxpool1d(x, 8) * Tensor(w)).sum(), [x])


# ---------------------------------------------------------------------------
# Reference implementations: the depthwise convs as four separate tap loops and
# the two pools each on its own. The shared tap map and window-max core must
# reproduce them bit for bit.
# ---------------------------------------------------------------------------

def oracle_conv_dw(x, w, d, s):
    B, C, L = x.shape
    k = w.shape[1]
    L_out = (L - ((k - 1) * d + 1)) // s + 1
    span = (L_out - 1) * s + 1
    out = np.zeros((B, C, L_out), dtype=x.dtype)
    for j in range(k):
        out += x[:, :, j * d: j * d + span: s] * w[:, j][None, :, None]
    return out


def oracle_conv_dw_backward(x, w, g, d, s):
    k = w.shape[1]
    span = (g.shape[-1] - 1) * s + 1
    gx = np.zeros_like(x)
    for j in range(k):
        gx[:, :, j * d: j * d + span: s] += g * w[:, j][None, :, None]
    gk = np.empty_like(w)
    for j in range(k):
        gk[:, j] = (g * x[:, :, j * d: j * d + span: s]).sum(axis=(0, 2))
    return gx, gk


def oracle_tconv_dw(x, w, d, s, target):
    B, C, L_in = x.shape
    k = w.shape[1]
    natural = (L_in - 1) * s + (k - 1) * d + 1
    span = (L_in - 1) * s + 1
    full = np.zeros((B, C, natural), dtype=x.dtype)
    for j in range(k):
        full[:, :, j * d: j * d + span: s] += x * w[:, j][None, :, None]
    if natural >= target:
        return full[:, :, :target].copy()
    out = np.zeros((B, C, target), dtype=x.dtype)
    out[:, :, :natural] = full
    return out


def oracle_tconv_dw_backward(x, w, g, d, s, target):
    B, C, L_in = x.shape
    k = w.shape[1]
    natural = (L_in - 1) * s + (k - 1) * d + 1
    span = (L_in - 1) * s + 1
    gf = np.zeros((B, C, natural), dtype=g.dtype)
    gf[:, :, :min(natural, target)] = g[:, :, :min(natural, target)]
    gx = np.zeros_like(x)
    for j in range(k):
        gx += gf[:, :, j * d: j * d + span: s] * w[:, j][None, :, None]
    gk = np.empty_like(w)
    for j in range(k):
        gk[:, j] = (gf[:, :, j * d: j * d + span: s] * x).sum(axis=(0, 2))
    return gx, gk


def oracle_maxpool(x, k, stride, g):
    B, C, L = x.shape
    L_out = (L - k) // stride + 1
    idx = (np.arange(L_out) * stride)[:, None] + np.arange(k)[None, :]
    windows = x[:, :, idx]
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    src = idx[np.arange(L_out)[None, None, :], arg]
    gx = np.zeros_like(x)
    b_i, c_i = np.meshgrid(np.arange(B), np.arange(C), indexing="ij")
    np.add.at(gx, (b_i[..., None], c_i[..., None], src), g)
    return out, gx


def oracle_adaptive_maxpool(x, out_len, g):
    L = x.shape[-1]
    out = np.empty(x.shape[:-1] + (out_len,), dtype=x.dtype)
    arg = np.empty(out.shape, dtype=np.int64)
    for i in range(out_len):
        lo = (i * L) // out_len
        hi = -(-((i + 1) * L) // out_len)
        seg = x[..., lo:hi]
        a = seg.argmax(axis=-1)
        arg[..., i] = a + lo
        out[..., i] = np.take_along_axis(seg, a[..., None], axis=-1)[..., 0]
    gx = np.zeros(x.shape, dtype=x.dtype)
    rows = np.arange(arg.size // out_len)[:, None]
    np.add.at(gx.reshape(-1, L), (rows, arg.reshape(-1, out_len)), g.reshape(-1, out_len))
    return out, gx


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def accumulated(g):
    """A first gradient as a leaf holds it: added into zeros."""
    return np.zeros_like(g) + g


def model_layout(rng, B, C, L, ties=False):
    """float32 [B, C, L] as the model passes it: a transposed view of [B, L, C].
    With ties, values repeat so that windows hold several equal maxima."""
    raw = rng.integers(-3, 4, (B, L, C)) if ties else rng.standard_normal((B, L, C))
    return raw.astype(np.float32).transpose(0, 2, 1)


TAP_GRID = [(L, k, d, s) for L in (7, 12, 25) for k in (1, 2, 3, 5)
            for d in (1, 2, 3) for s in (1, 2, 3, 5) if (k - 1) * d + 1 <= L]


def _transpose_cases():
    """A conv's output length as input, fitted back to a target that pads the
    natural length (L_in-1)*s + k_eff, equals it, or crops it."""
    for L, k, d, s in TAP_GRID:
        k_eff = (k - 1) * d + 1
        L_in = (L - k_eff) // s + 1
        natural = (L_in - 1) * s + k_eff
        for fit, target in (("pad", natural + 3), ("exact", natural), ("crop", natural - 2)):
            if target >= k_eff:
                yield L_in, k, d, s, target, fit


TRANSPOSE_GRID = list(_transpose_cases())


class TestTapMapOracle:
    @pytest.mark.parametrize("L,k,d,s", TAP_GRID)
    def test_conv_matches_separate_loops(self, L, k, d, s):
        rng = np.random.default_rng(L * 1000 + k * 100 + d * 10 + s)
        x = model_layout(rng, 2, 3, L)
        w = rng.standard_normal((3, k)).astype(np.float32)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv1d_depthwise(xt, wt, None, d, s)
        assert_bitwise(out.data, oracle_conv_dw(x, w, d, s))
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        gx, gk = oracle_conv_dw_backward(x, w, g, d, s)
        assert_bitwise(xt.grad, accumulated(gx))
        assert_bitwise(wt.grad, accumulated(gk))

    @pytest.mark.parametrize("L_in,k,d,s,target,fit", TRANSPOSE_GRID)
    def test_transpose_matches_separate_loops(self, L_in, k, d, s, target, fit):
        rng = np.random.default_rng(L_in * 1000 + k * 100 + d * 10 + s)
        x = model_layout(rng, 2, 3, L_in)
        w = rng.standard_normal((3, k)).astype(np.float32)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv1d_transpose_depthwise(xt, wt, d, s, target)
        assert_bitwise(out.data, oracle_tconv_dw(x, w, d, s, target))
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        gx, gk = oracle_tconv_dw_backward(x, w, g, d, s, target)
        assert_bitwise(xt.grad, accumulated(gx))
        if fit == "crop":
            # the oracle also sums the exact-zero products of the cropped taps,
            # which regroups its float32 sum; the error is relative to the sum
            # of the products' magnitudes, as cancellation can leave a tiny sum
            magnitude = oracle_tconv_dw_backward(np.abs(x), w, np.abs(g), d, s, target)[1]
            assert np.all(np.abs(wt.grad - gk) <= 1e-6 * magnitude)
        else:
            assert_bitwise(wt.grad, accumulated(gk))

    @pytest.mark.parametrize("L_in,k,d,s,target,fit", TRANSPOSE_GRID[::16])
    def test_signed_zeros_match(self, L_in, k, d, s, target, fit):
        # integer inputs and kernels holding +0 and -0 give exact zero products
        # of both signs, which a different tap order or start value would show
        rng = np.random.default_rng(L_in + k + d + s)
        x = model_layout(rng, 2, 3, L_in, ties=True)
        w = rng.integers(-1, 2, (3, k)).astype(np.float32)
        w[0, 0] = -0.0
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv1d_transpose_depthwise(xt, wt, d, s, target)
        assert_bitwise(out.data, oracle_tconv_dw(x, w, d, s, target))
        back = conv1d_depthwise(out, wt, None, d, s)
        assert_bitwise(back.data, oracle_conv_dw(out.data, w, d, s))
        g = rng.integers(-1, 2, back.shape).astype(np.float32)
        back.backward(g)
        gy, gk = oracle_conv_dw_backward(out.data, w, g, d, s)
        gx, gk2 = oracle_tconv_dw_backward(x, w, accumulated(gy), d, s, target)
        assert_bitwise(xt.grad, accumulated(gx))
        if fit != "crop":
            assert_bitwise(wt.grad, accumulated(gk) + gk2)

    def test_transpose_forward_allocates_little_beyond_its_output(self):
        # the second branch of the 7-feature benchmark model at its eval batch
        # of 64: k=19, dilation 2, stride 9, 18 conv positions restored to 192
        # steps
        rng = np.random.default_rng(14)
        x = Tensor(model_layout(rng, 64, 112, 18))
        w = Tensor(rng.standard_normal((112, 19)).astype(np.float32))
        tracemalloc.start()
        try:
            out = conv1d_transpose_depthwise(x, w, 2, 9, 192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"


class TestPoolOracle:
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("L,k,stride", [(6, 2, 2), (9, 2, 2), (15, 3, 2), (16, 4, 1),
                                            (7, 7, 1), (10, 3, 3)])
    def test_maxpool_matches_its_own_loop(self, L, k, stride, ties):
        rng = np.random.default_rng(L * 100 + k * 10 + stride)
        x = model_layout(rng, 2, 3, L, ties)
        xt = Tensor(x, requires_grad=True)
        out = maxpool1d(xt, k, stride)
        g = rng.standard_normal(out.shape).astype(np.float32)
        want, gx = oracle_maxpool(x, k, stride, g)
        assert_bitwise(out.data, want)
        out.backward(g)
        assert_bitwise(xt.grad, accumulated(gx))

    @pytest.mark.parametrize("L,k,stride", [(94, 2, 2), (23, 4, 4), (23, 2, 3), (23, 1, 4),
                                            (23, 3, 2), (23, 5, 1)],
                             ids=["k=s=2", "k=s=4", "k<s", "k=1<s", "k>s", "k>s=1"])
    def test_backward_equals_add_at_reference(self, L, k, stride):
        # disjoint windows (k <= stride) write each gradient once, overlapping
        # ones sum theirs; small integer inputs tie inside windows, and a
        # gradient of signed zeros shows any difference in how zeros are kept
        rng = np.random.default_rng(L + 10 * k + stride)
        x = model_layout(rng, 8, 16, L, ties=True)
        xt = Tensor(x, requires_grad=True)
        out = maxpool1d(xt, k, stride)
        g = rng.integers(-1, 2, out.shape).astype(np.float32)
        g[g == 0] = -0.0
        want, gx = oracle_maxpool(x, k, stride, g)
        assert_bitwise(out.data, want)
        out.backward(g)
        assert_bitwise(xt.grad, accumulated(gx))

    @pytest.mark.parametrize("L,k,stride", [(94, 2, 2), (18, 2, 2), (95, 2, 2), (30, 3, 3),
                                            (31, 2, 3)])
    @pytest.mark.parametrize("special", ["ties", "nan", "signed_zeros"])
    def test_disjoint_windows_match_argmax(self, L, k, stride, special):
        # the branches' pools (k = stride) and a gap between windows (k < s),
        # compared on every way two window entries can compare equal or
        # unordered: the first max and the first NaN take the gradient
        rng = np.random.default_rng(L * 10 + k)
        x = model_layout(rng, 8, 24, L, ties=True)
        if special == "nan":
            x[rng.random(x.shape) < 0.1] = np.nan
        elif special == "signed_zeros":
            x[x == 0] = rng.choice(np.array([0.0, -0.0], dtype=np.float32), (x == 0).sum())
        xt = Tensor(x, requires_grad=True)
        out = maxpool1d(xt, k, stride)
        g = rng.standard_normal(out.shape).astype(np.float32)
        want, gx = oracle_maxpool(x, k, stride, g)
        assert_bitwise(out.data, want)
        out.backward(g)
        assert_bitwise(xt.grad, accumulated(gx))

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("L", [5, 8, 13, 19, 24, 61])
    def test_adaptive_matches_per_window_loop(self, L, lead, ties):
        rng = np.random.default_rng(L * 10 + len(lead) + 2 * ties)
        x = model_layout(rng, int(np.prod(lead)) * 2, 3, L, ties).reshape(lead + (2, 3, L))
        xt = Tensor(x, requires_grad=True)
        out = adaptive_maxpool1d(xt, 8)
        g = rng.standard_normal(out.shape).astype(np.float32)
        want, gx = oracle_adaptive_maxpool(x, 8, g)
        assert_bitwise(out.data, want)
        out.backward(g)
        assert_bitwise(xt.grad, accumulated(gx))


def oracle_group_norm(x, groups, gamma, beta):
    """Group norm with np.var's own mean and variance."""
    B, L, C = x.shape
    xg = x.reshape(B, L, groups, C // groups)
    mean = xg.mean(axis=(1, 3), keepdims=True)
    inv = 1.0 / np.sqrt(xg.var(axis=(1, 3), keepdims=True) + GROUP_NORM_EPS)
    return ((xg - mean) * inv).astype(x.dtype).reshape(B, L, C) * gamma + beta


class TestGroupNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["layer0", "C"])
    def test_matches_var_formula_bitwise(self, layout, dtype):
        # the first layer normalizes the conv and pool segments as concat lays
        # them out, time innermost; its sums follow that layout
        rng = np.random.default_rng(24)
        B, C = 4, 112
        if layout == "layer0":
            x = np.concatenate([rng.standard_normal((B, C, n)).astype(dtype).transpose(0, 2, 1)
                                for n in (94, 47, 18, 9)], axis=1)
            assert not x.flags.c_contiguous
        else:
            x = rng.standard_normal((B, 168, C)).astype(dtype)
        x = x * 3.0 + 0.5
        gamma, beta = (rng.standard_normal(C).astype(dtype) for _ in range(2))
        out = group_norm(Tensor(x), 7, Tensor(gamma), Tensor(beta))
        assert_bitwise(out.data, oracle_group_norm(x, 7, gamma, beta))

    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((2, 5, 6), 3.0))
        out = group_norm(x, 2, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, 0.0)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 5, 6)))
        out = group_norm(x, 3, Tensor(np.zeros(6)), Tensor(np.full(6, 0.7)))
        np.testing.assert_allclose(out.data, 0.7)

    def test_indivisible_raises(self):
        with pytest.raises(ConfigError, match="divisible"):
            group_norm(Tensor(np.zeros((1, 2, 5))), 2, Tensor(np.ones(5)), Tensor(np.zeros(5)))

    def test_normalizes_per_group(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 7, 8))
        out = group_norm(Tensor(x), 4, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        grouped = out.reshape(3, 7, 4, 2)
        np.testing.assert_allclose(grouped.mean(axis=(1, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(grouped.var(axis=(1, 3)), 1.0, atol=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        x = rand_tensor(rng, 2, 4, 6)
        gamma = rand_tensor(rng, 6)
        beta = rand_tensor(rng, 6)
        w = rng.standard_normal((2, 4, 6))
        check_gradients(lambda: (group_norm(x, 2, gamma, beta) * Tensor(w)).sum(),
                        [x, gamma, beta])


class TestActivations:
    def test_fixed_points(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        assert sigmoid(Tensor([0.0])).data[0] == 0.5
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
        assert elu(Tensor([0.0])).data[0] == 0.0

    def test_elu_negative_branch(self):
        np.testing.assert_allclose(elu(Tensor([-1.0])).data, np.expm1(-1.0))

    @pytest.mark.parametrize("op", [gelu, elu, sigmoid, lambda t: softmax(t, axis=-1)])
    def test_gradients(self, op):
        rng = np.random.default_rng(11)
        x = rand_tensor(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        check_gradients(lambda: (op(x) * Tensor(w)).sum(), [x])

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((4, 6))
        np.testing.assert_allclose(softmax(Tensor(z)).data, softmax(Tensor(z + 100.0)).data,
                                   atol=1e-12)

    def test_softmax_allocates_one_array_of_the_input_size(self):
        # guards peak RSS: attention softmaxes score arrays of up to
        # [F, B, h, D, D]; shifted, exponentiated and normalized copies each
        # cost another such array
        z = np.random.default_rng(13).standard_normal((64, 128, 128))
        t = Tensor(z)
        with no_grad():
            tracemalloc.start()
            try:
                s = softmax(t, axis=-1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 1.2 * z.nbytes, f"peak {peak / z.nbytes:.2f}x the input"
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def float32_bits(lo: int, hi: int, step: int = 1) -> np.ndarray:
    """The float32 values of the bit patterns lo, lo + step, ... below hi."""
    return np.arange(lo, hi, step, dtype=np.uint32).view(np.float32)


def assert_erf_matches_scipy_bitwise(t: np.ndarray):
    expected = special.erf(t)
    actual = _erf(t.copy())
    nan = np.isnan(t)
    assert np.isnan(actual[nan]).all()
    same = actual[~nan].view(np.uint32) == expected[~nan].view(np.uint32)
    assert same.all(), f"{(~same).sum()} mismatches, first at {t[~nan][~same][:5]}"


class TestErf:
    """The numpy port of Cephes' erf against scipy.special.erf, which
    evaluates the same rational approximations in C."""

    def test_float32_bitwise_on_every_256th_bit_pattern(self):
        # 2**24 values spread over every exponent, both signs, NaN and inf.
        # Signalling-NaN patterns raise "invalid" when cast to float64; gelu
        # only ever passes a product, whose NaNs are quiet.
        with np.errstate(invalid="ignore"):
            for lo in range(0, 2 ** 32, 2 ** 28):
                assert_erf_matches_scipy_bitwise(float32_bits(lo, lo + 2 ** 28, 256))

    def test_float32_bitwise_on_edge_values(self):
        f32 = np.float32
        tiny = np.finfo(f32).smallest_normal
        one = f32(1.0)
        edges = np.array([0.0, np.finfo(f32).smallest_subnormal, tiny, np.nextafter(tiny, f32(0)),
                          np.nextafter(one, f32(0)), one, np.nextafter(one, f32(2)),
                          np.finfo(f32).max, np.inf, np.nan], dtype=f32)
        assert_erf_matches_scipy_bitwise(np.concatenate([edges, -edges]))
        assert_erf_matches_scipy_bitwise(float32_bits(1, 2 ** 23, 97))          # subnormals
        # every value from 3.92, near which erf rounds to 1 in float32, up to 6,
        # where the outer branch stops evaluating its polynomials
        span = float32_bits(int(f32(3.92).view(np.uint32)), int(f32(6.0).view(np.uint32)) + 1)
        assert_erf_matches_scipy_bitwise(np.concatenate([span, -span]))

    def test_float64_within_one_ulp(self):
        rng = np.random.default_rng(0)
        t = np.concatenate([10.0 ** rng.uniform(-310, 3, 200_000), rng.uniform(0, 7, 200_000),
                            [1.0, np.nextafter(1.0, 0), np.nextafter(1.0, 2), 6.0, 5e-324]])
        t = np.concatenate([t, -t])
        expected = special.erf(t)
        assert (np.abs(_erf(t.copy()) - expected) <= np.spacing(np.abs(expected))).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_huge_inputs_raise_no_floating_point_error(self, dtype):
        big = np.finfo(dtype).max
        t = np.array([big, -big, big / 2, 1e30, -1e30, np.inf, -np.inf], dtype=dtype)
        with np.errstate(all="raise"):
            assert (_erf(t) == np.sign(t)).all()

    def test_blocks_cover_arrays_of_any_size_and_layout(self):
        # several blocks, a partial last one, and a transposed layout
        t = np.random.default_rng(1).standard_normal((3, 2 ** 15 + 5)).astype(np.float32).T
        assert_bitwise(_erf(t.copy(order="K")), special.erf(t))
        assert _erf(np.empty((0, 4), dtype=np.float32)).shape == (0, 4)

    def test_gelu_keeps_the_input_layout(self):
        x = np.random.default_rng(2).standard_normal((4, 6)).astype(np.float32).T
        out = gelu(Tensor(x)).data
        assert out.dtype == np.float32 and out.strides == x.strides


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_eval_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_mean_preserved(self):
        rng = np.random.default_rng(13)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_gradient_matches_mask(self):
        x = Tensor(np.ones(50), requires_grad=True, dtype=np.float64)
        out = dropout(x, 0.5, training=True, rng=np.random.default_rng(14))
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(x.grad, out.data)  # grad equals applied mask


class TestLosses:
    def test_bce_known_value(self):
        # logit 0 against any target gives log(2)
        loss = bce_with_logits(Tensor(np.zeros(4)), np.array([0.0, 1.0, 0.0, 1.0]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-6)

    def test_bce_gradient(self):
        rng = np.random.default_rng(15)
        z = rand_tensor(rng, 6)
        y = (rng.random(6) > 0.5).astype(np.float64)
        check_gradients(lambda: bce_with_logits(z, y), [z])

    def test_cross_entropy_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((2, 6))), np.array([1, 4]))
        np.testing.assert_allclose(loss.item(), np.log(6.0), rtol=1e-6)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(16)
        z = rand_tensor(rng, 4, 3)
        labels = rng.integers(0, 3, size=4)
        check_gradients(lambda: softmax_cross_entropy(z, labels), [z])


class TestFullConv1d:
    def test_known_value(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(1, 1, 6))
        w = Tensor(np.array([[[1.0, 1.0]]]))
        out = conv1d(x, w, None, stride=2)
        np.testing.assert_array_equal(out.data, [[[1.0, 5.0, 9.0]]])

    def test_gradients(self):
        rng = np.random.default_rng(17)
        for lead in ((), (2,)):
            x = rand_tensor(rng, *lead, 2, 3, 10)
            w = rand_tensor(rng, *lead, 4, 3, 3)
            b = rand_tensor(rng, *lead, 4)
            proj = rng.standard_normal(lead + (2, 4, 4))
            check_gradients(lambda: (conv1d(x, w, b, stride=2) * Tensor(proj)).sum(), [x, w, b])

    def test_each_group_is_its_own_convolution(self):
        rng = np.random.default_rng(18)
        x = rand_tensor(rng, 3, 2, 4, 15).data.astype(np.float32)
        w = rand_tensor(rng, 3, 5, 4, 3).data.astype(np.float32)
        b = rand_tensor(rng, 3, 5).data.astype(np.float32)
        g = rng.standard_normal((3, 2, 5, 7)).astype(np.float32)

        def run(xs, ws, bs, gs):
            leaves = [Tensor(a, requires_grad=True) for a in (xs, ws, bs)]
            out = conv1d(*leaves, stride=2)
            out.backward(gs)
            return [out.data] + [t.grad for t in leaves]

        grouped = run(x, w, b, g)
        for f in range(3):
            alone = run(x[f], w[f], b[f], g[f])
            for got, want in zip(grouped, alone):
                np.testing.assert_array_equal(got[f], want)

    @pytest.mark.parametrize("lead,B,Cin,Cout,k,L,stride", [
        ((), 2, 3, 4, 3, 10, 2), ((7,), 8, 2, 16, 7, 47, 2), ((3,), 1, 16, 4, 3, 11, 2),
        ((1,), 1, 2, 16, 7, 7, 1), ((), 2, 1, 1, 1, 9, 1), ((2,), 3, 1, 5, 1, 6, 3)])
    def test_matches_unplanned_einsum(self, lead, B, Cin, Cout, k, L, stride):
        rng = np.random.default_rng(19)
        x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in (lead + (B, Cin, L), lead + (Cout, Cin, k), lead + (Cout,)))
        out = conv1d(x, w, b, stride=stride)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        idx = np.arange(out.shape[-1])[:, None] * stride + np.arange(k)
        windows = x.data[..., idx]
        gw = np.einsum("...bol,...oik->...bilk", g, w.data)
        gx = np.zeros_like(x.data)
        np.add.at(gx, (..., idx), gw)
        for got, want in [
                (out.data, np.einsum("...bilk,...oik->...bol", windows, w.data)
                 + b.data[..., None, :, None]),
                (x.grad, gx), (w.grad, np.einsum("...bol,...bilk->...oik", g, windows)),
                (b.grad, g.sum(axis=(-3, -1)))]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_group_axes_must_agree(self):
        with pytest.raises(ConfigError, match="group axes and input channels"):
            conv1d(Tensor(np.zeros((2, 1, 3, 8))), Tensor(np.zeros((3, 4, 3, 2))), None)


class TestGraphAccumulation:
    def test_shared_subgraph_grads_sum(self):
        x = Tensor([2.0], requires_grad=True, dtype=np.float64)
        y = x * x + x * x  # x appears four times
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_random_graphs_match_brute_force(self):
        # Compare whole-graph gradients against finite differences on small
        # randomly wired scalar DAGs built from +, *, sigmoid, gelu.
        rng = np.random.default_rng(18)
        for trial in range(20):
            n_leaves = int(rng.integers(2, 5))
            leaf_values = rng.standard_normal(n_leaves)

            def build(values):
                leaves = [Tensor(np.array([v]), requires_grad=True, dtype=np.float64)
                          for v in values]
                nodes = list(leaves)
                op_rng = np.random.default_rng(1000 + trial)
                for _ in range(int(op_rng.integers(3, 16))):
                    kind = op_rng.integers(0, 4)
                    a = nodes[int(op_rng.integers(0, len(nodes)))]
                    b = nodes[int(op_rng.integers(0, len(nodes)))]
                    if kind == 0:
                        nodes.append(a + b)
                    elif kind == 1:
                        nodes.append(a * b)
                    elif kind == 2:
                        nodes.append(sigmoid(a))
                    else:
                        nodes.append(gelu(a))
                total = nodes[0]
                for nd in nodes[1:]:
                    total = total + nd
                return leaves, total.sum()

            leaves, out = build(leaf_values)
            out.backward()
            analytic = np.array([float(l.grad[0]) if l.grad is not None else 0.0 for l in leaves])

            vals = leaf_values.copy()
            numeric = finite_difference(lambda: build(vals)[1].item(), vals, h=1e-6)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


    def test_intermediate_grads_are_freed_and_leaf_grads_unchanged(self):
        def build():
            rng = np.random.default_rng(19)
            a, w = rand_tensor(rng, 4, 3), rand_tensor(rng, 3, 5)
            h = gelu(matmul(a, w) + 0.5)
            out = (softmax(h, axis=-1) * h + sigmoid(h)).sum()  # h feeds three ops
            return [a, w], out

        def graph(root):
            nodes, stack = {}, [root]
            while stack:
                node = stack.pop()
                if id(node) not in nodes:
                    nodes[id(node)] = node
                    stack.extend(p for p in node._parents if p.requires_grad)
            return list(nodes.values())

        def backward_keeping_grads(root):
            # the engine's walk, in its order, without the freeing: the reference
            topo, seen, stack = [], set(), [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    topo.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents
                             if p.requires_grad and id(p) not in seen)
            root._accumulate(np.ones_like(root.data))
            for node in reversed(topo):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)

        leaves, out = build()
        inner = [n for n in graph(out) if n._backward is not None]
        assert len(inner) > 5
        out.backward()
        assert all(n.grad is None for n in inner)

        ref_leaves, ref_out = build()
        backward_keeping_grads(ref_out)
        assert all(n.grad is not None for n in graph(ref_out))
        for got, want in zip(leaves, ref_leaves):
            np.testing.assert_array_equal(got.grad, want.grad)


class TestNoGrad:
    def make(self):
        rng = np.random.default_rng(21)
        return rand_tensor(rng, 2, 3), rand_tensor(rng, 3, 4)

    def test_ops_record_no_graph_and_match_recorded_values(self):
        a, w = self.make()
        recorded = gelu(matmul(a, w) + 1.0).sum()
        with no_grad():
            free = gelu(matmul(a, w) + 1.0).sum()
        assert recorded.requires_grad and recorded._parents
        assert free.requires_grad is False
        assert free._parents == () and free._backward is None
        np.testing.assert_array_equal(free.data, recorded.data)

    def test_state_restored_after_exception(self):
        a, _ = self.make()
        with pytest.raises(ConfigError):
            with no_grad():
                raise ConfigError("raised inside the block")
        assert (a * a).requires_grad

    def test_nested_blocks_restore_the_outer_state(self):
        a, _ = self.make()
        with no_grad():
            with no_grad():
                pass
            assert not (a * a).requires_grad
        assert (a * a).requires_grad

    def test_gradients_flow_once_the_block_exits(self):
        a, w = self.make()
        with no_grad():
            matmul(a, w).sum()
        matmul(a, w).sum().backward()
        np.testing.assert_allclose(a.grad, np.broadcast_to(w.data.sum(axis=1), a.shape))
        np.testing.assert_allclose(w.grad, np.broadcast_to(a.data.sum(axis=0)[:, None], w.shape))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's")
def test_freed_arrays_are_reused_without_page_faults():
    # each forward frees its intermediates and the next allocates the same
    # sizes; by default glibc unmaps a 64 MB array on free and faults it in anew
    size = 64 * 2 ** 20 // 8
    np.ones(size)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        np.ones(size)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 8


class TestAdam:
    def test_zero_gradient_keeps_parameter(self):
        p = Parameter("w", Tensor(np.array([1.0, 2.0], dtype=np.float32)))
        opt = Adam([p], lr=0.1)
        p.tensor.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        # single scalar, g = 1: bias-corrected update is lr/(1 + eps) ~ lr
        p = Parameter("w", Tensor(np.array([0.5], dtype=np.float64)))
        opt = Adam([p], lr=0.1)
        p.tensor.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(p.data, [0.5 - 0.1], rtol=1e-6)

    def test_frozen_parameter_never_moves(self):
        p = Parameter("w", Tensor(np.array([1.0], dtype=np.float32)), frozen=True)
        opt = Adam([p], lr=0.5)
        p.tensor.grad = np.array([10.0], dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])
        assert p.tensor.grad is None  # grad buffer cleared back to zero-state

    def test_missing_grad_raises(self):
        p = Parameter("w", Tensor(np.array([1.0])))
        opt = Adam([p])
        with pytest.raises(RuntimeError, match="no gradient"):
            opt.step()

    def test_step_count_increments(self):
        p = Parameter("w", Tensor(np.array([1.0])))
        opt = Adam([p], lr=0.1)
        for expected in (1, 2, 3):
            p.tensor.grad = np.array([0.3])
            opt.step()
            assert opt.step_count == expected


class TestShapeSurgery:
    def test_concat_narrow_gradients(self):
        rng = np.random.default_rng(19)
        a = rand_tensor(rng, 2, 3)
        b = rand_tensor(rng, 2, 4)
        w = rng.standard_normal((2, 5))

        def loss():
            joined = concat([a, b], axis=1)
            return (joined.narrow(1, 1, 5) * Tensor(w)).sum()

        check_gradients(loss, [a, b])

    def test_transpose_reshape_gradients(self):
        rng = np.random.default_rng(20)
        a = rand_tensor(rng, 2, 3, 4)
        w = rng.standard_normal((4, 6))
        check_gradients(lambda: (a.transpose(2, 0, 1).reshape(4, 6) * Tensor(w)).sum(), [a])

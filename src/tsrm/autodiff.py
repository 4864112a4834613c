"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tensor` wraps an ndarray and, when an operation involves at least
one gradient-requiring input, records a backward closure plus parent links.
``Tensor.backward()`` walks the (acyclic) graph in reverse topological order
and accumulates gradients with ``+=`` so shared subgraphs receive summed
contributions. An intermediate node's gradient is dropped as soon as its
closure has run; only leaves (parameters and inputs) keep theirs.

Inside a :func:`no_grad` block no op records parents or a backward closure,
so each intermediate array is freed as soon as Python drops it. The
inference entry points run graph-free: ``evaluate_task``, the validation
forward and loss in ``train()``, and the forward of ``export_attention``.
Recording the graph there would keep every activation of every batch alive
until the outputs were read, several times a training step's memory, for
gradients nobody asks for. Graph-free mode is not tied to ``training=False``:
gradient checks differentiate through eval-mode forwards.

Everything runs in whatever dtype the inputs carry; the model uses float32
at runtime while gradient-check rigs push float64 through the same code.
"""

from __future__ import annotations

import ctypes
import math
import sys
from contextlib import contextmanager
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "Tensor",
    "no_grad",
    "Parameter",
    "Adam",
    "matmul",
    "conv1d_depthwise",
    "conv1d_transpose_depthwise",
    "conv1d",
    "maxpool1d",
    "adaptive_maxpool1d",
    "group_norm",
    "gelu",
    "elu",
    "sigmoid",
    "softmax",
    "dropout",
    "concat",
    "bce_with_logits",
    "softmax_cross_entropy",
    "kaiming_uniform",
    "global_grad_norm",
    "clip_grad_norm",
]

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def _keep_freed_memory() -> None:
    """Let glibc reuse freed arrays instead of handing them back to the kernel.

    By default glibc serves each array above a size threshold with its own
    mmap and unmaps it on free, and trims the top of the heap. Every forward
    frees its intermediates and the next forward allocates the same sizes
    again, so each allocation page-faulted fresh zeroed memory: 2.4 GB per
    ``evaluate_task`` on a 7-feature, D=168 model (batch 64), a quarter of
    its wall time spent in the kernel, and that share varied from one call
    to the next. Serving everything from the heap and never trimming it
    keeps the memory in the process; the peak stays what the largest
    forward or backward needs. Other C libraries are left as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, 2 ** 31 - 1)


_keep_freed_memory()


class Tensor:
    """Dense n-dimensional array participating in a backward graph.

    ``grad`` is lazily allocated on first accumulation; ``None`` means an
    all-zero gradient. Graph nodes are immutable once created: ops return
    new tensors and never mutate ``data`` of their inputs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward = None
        self._op = ""

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op or 'leaf'}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- graph plumbing ------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # every consumer has already run, so this gradient is spent;
                # only leaves keep theirs
                node.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self.data.dtype))

    def __sub__(self, other):
        return sub(self, _coerce(other, self.data.dtype))

    def __mul__(self, other):
        return mul(self, _coerce(other, self.data.dtype))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def narrow(self, axis: int, start: int, length: int):
        return narrow(self, axis, start, length)


def _coerce(x, dtype) -> Tensor:
    """Wrap operand; python scalars adopt the other side's dtype."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=dtype))
    return Tensor(np.asarray(x))


# One process-wide flag rather than thread-local state: the engine runs on a
# single thread.
_grad_enabled = True


@contextmanager
def no_grad():
    """Record no backward graph inside the block.

    Ops still compute their outputs bit for bit as outside it; the outputs
    just carry ``requires_grad=False`` and no parents. Blocks nest, and the
    previous state comes back on exit, also when the block raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out._op = op
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward, "mul")


def _fold_plan(a_shape: tuple, b_shape: tuple):
    """When b is broadcast over leading axes that a holds in full, and those
    axes sit next to a's row axis (size-1 axes aside): a's axis order with
    the axes b holds ("kept") first, then the broadcast ones, then the
    matrix axes; and the number of kept axes. In that order the broadcast
    axes and the row axis of a C-ordered array fold into one without a
    copy. None otherwise."""
    n = len(a_shape) - 2
    b_lead = (1,) * (n + 2 - len(b_shape)) + tuple(b_shape[:-2])
    if len(b_lead) != n or any(nb not in (1, na) for na, nb in zip(a_shape, b_lead)):
        return None
    kept = [i for i in range(n) if b_lead[i] == a_shape[i]]
    folded = [i for i in range(n + 1) if i not in kept and a_shape[i] != 1]
    if len(kept) == n or any(a_shape[i] != 1 for i in range(folded[0], folded[-1])
                             if i not in folded):
        return None
    return kept + [i for i in range(n) if i not in kept] + [n, n + 1], len(kept)


def _fold_rows(x: np.ndarray, order: list, k: int) -> np.ndarray:
    """x in ``order``, with every axis after the k kept ones folded into
    the row axis: [*kept, rows, n]."""
    x = x.transpose(order)
    return x.reshape(x.shape[:k] + (-1, x.shape[-1]))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading dims.

    When b is broadcast over leading axes of a (a weight shared by the batch
    rows), b's gradient folds those axes into a's row axis: one GEMM per
    kept index, where it would otherwise hold one outer product per leading
    index and sum them.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ConfigError(f"matmul needs >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ConfigError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            plan = _fold_plan(a.data.shape, b.data.shape)
            if plan is None:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            else:
                gb = (np.swapaxes(_fold_rows(a.data, *plan), -1, -2)
                      @ _fold_rows(g, *plan)).reshape(b.data.shape)
            b._accumulate(gb)

    return _make(data, (a, b), backward, "matmul")


# ---------------------------------------------------------------------------
# shape surgery
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(data, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def backward(g):
        a._accumulate(g.transpose(inv))

    return _make(data, (a,), backward, "transpose")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accumulate(full)

    return _make(data, (a,), backward, "narrow")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + n)
                t._accumulate(g[tuple(idx)])
            offset += n

    return _make(data, tensors, backward, "concat")


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis] if isinstance(axis, int) else int(np.prod([a.data.shape[ax] for ax in axis]))
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, Tensor(np.asarray(1.0 / count, dtype=a.data.dtype)))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c rational approximations of erf and erfc (Moshier, "Methods and
# Programs for Mathematical Functions", 1989), highest power first; U and Q are
# monic and carry their leading 1. scipy.special.erf evaluates the same ones.
# Each is a 0-d array: numpy adds one to a vector faster than a Python float or
# a 1-element array, and those adds are most of a small array's erf.
_ERF_T = tuple(map(np.array, [
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4]))
_ERF_U = tuple(map(np.array, [
    1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4]))
_ERFC_P = tuple(map(np.array, [
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2]))
_ERFC_Q = tuple(map(np.array, [
    1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2]))
# erfc(6) = 2.2e-17 is below 2**-54, half the spacing of the doubles just under
# 1, so from |t| = 6 on 1 - erfc(|t|) rounds to 1
_ERF_SATURATES = 6.0
# elements per block: the float64 temporaries of one block stay in L2
_ERF_BLOCK = 1 << 15


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with the given coefficients at x, as Cephes' polevl."""
    acc = x * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _erf_block(t: np.ndarray) -> np.ndarray:
    """erf of a float64 vector, operation for operation as Cephes computes it.

    |t| <= 1: t T(t^2) / U(t^2). Beyond: 1 - exp(-t^2) P(|t|) / Q(|t|), with
    the sign of t. Every element takes the first formula with |t| held at 1,
    and those beyond 1 are then overwritten; the second holds |t| at 6. So
    huge inputs cannot overflow, and NaN stays NaN.
    """
    a = np.abs(t)
    x = np.minimum(a, 1.0)
    z = x * x
    out = _horner(z, _ERF_T)
    out *= x
    out /= _horner(z, _ERF_U)
    outer = (a > 1.0).nonzero()[0]
    if outer.size:
        x = np.minimum(a[outer], _ERF_SATURATES)
        e = x * x
        np.negative(e, out=e)
        np.exp(e, out=e)
        e *= _horner(x, _ERFC_P)
        e /= _horner(x, _ERFC_Q)
        out[outer] = np.subtract(1.0, e, out=e)
    return np.copysign(out, t, out=out)


def _erf(t: np.ndarray) -> np.ndarray:
    """erf of every element of t, written over t and returned.

    t must be dense in some axis order, as a fresh ufunc result is, so that
    its elements in memory order are a view. The work runs in float64 blocks
    and rounds once to t's dtype, so a float32 t gets the float32 value
    scipy.special.erf returns, bit for bit.
    """
    flat = t.ravel(order="K")
    for start in range(0, flat.size, _ERF_BLOCK):
        block = flat[start: start + _ERF_BLOCK]
        block[...] = _erf_block(block.astype(np.float64, copy=False))
    return t


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU: x * Phi(x)."""
    x = a.data
    cdf = _erf(np.asarray(x * _INV_SQRT2))     # a 0-d product is a scalar: make it writable
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        a._accumulate((g * (cdf + x * pdf)).astype(x.dtype))

    return _make(data, (a,), backward, "gelu")


def elu(a: Tensor) -> Tensor:
    """ELU with alpha 1."""
    x = a.data
    neg = np.minimum(x, 0)
    expm = np.exp(neg) - 1.0
    data = np.where(x > 0, x, expm).astype(x.dtype)

    def backward(g):
        local = np.where(x > 0, np.ones_like(x), expm + 1.0)
        a._accumulate((g * local).astype(x.dtype))

    return _make(data, (a,), backward, "elu")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def backward(g):
        a._accumulate((g * s * (1.0 - s)).astype(a.data.dtype))

    return _make(s, (a,), backward, "sigmoid")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    # one array of a's size, exponentiated and normalized in place
    s = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        a._accumulate((s * (g - dot)).astype(a.data.dtype))

    return _make(s, (a,), backward, "softmax")


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=a.data.dtype)
    mask = keep * scale
    data = a.data * mask

    def backward(g):
        a._accumulate(g * mask)

    return _make(data, (a,), backward, "dropout")


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def conv_output_length(L: int, k: int, dilation: int, stride: int) -> int:
    """Valid-convolution output length: floor((L - k_eff)/stride) + 1."""
    k_eff = (k - 1) * dilation + 1
    if k_eff > L:
        raise ConfigError(f"effective kernel {k_eff} (k={k}, dilation={dilation}) exceeds input length {L}")
    return (L - k_eff) // stride + 1


def _taps(k: int, d: int, s: int, n_long: int, n_short: int):
    """The depthwise tap map: tap j of short position l is long position j*d + l*s.
    Yields j, that tap's slice of the long axis and the count m >= 1 (k_eff <= n_long)
    of leading short positions whose tap lies inside n_long."""
    for j in range(k):
        m = min(n_short, (n_long - 1 - j * d) // s + 1)
        yield j, slice(j * d, j * d + (m - 1) * s + 1, s), m


def _gather(long: np.ndarray, kernel: np.ndarray, d: int, s: int, n: int) -> np.ndarray:
    """out[..., l] = sum_j long[..., j*d + l*s] * kernel[:, j] for l < n; zero past long."""
    out = np.zeros(long.shape[:-1] + (n,), dtype=long.dtype)
    for j, tap, m in _taps(kernel.shape[1], d, s, long.shape[-1], n):
        out[..., :m] += long[..., tap] * kernel[:, j, None]
    return out


def _scatter(short: np.ndarray, kernel: np.ndarray, d: int, s: int, n: int) -> np.ndarray:
    """The adjoint of _gather, onto a zero long axis of length n; taps past n drop."""
    out = np.zeros(short.shape[:-1] + (n,), dtype=short.dtype)
    for j, tap, m in _taps(kernel.shape[1], d, s, n, short.shape[-1]):
        out[..., tap] += short[..., :m] * kernel[:, j, None]
    return out


def _kernel_grad(short: np.ndarray, long: np.ndarray, kernel: np.ndarray, d: int, s: int):
    """Gradient of sum(short * _gather(long, kernel)) in kernel: [C, k]."""
    gk = np.empty_like(kernel)
    for j, tap, m in _taps(kernel.shape[1], d, s, long.shape[-1], short.shape[-1]):
        gk[:, j] = (short[..., :m] * long[..., tap]).sum(axis=(0, 2))
    return gk


def conv1d_depthwise(x: Tensor, kernel: Tensor, bias: Optional[Tensor],
                     dilation: int, stride: int) -> Tensor:
    """Depthwise valid 1-d convolution.

    x: [B, C, L], kernel: [C, k], bias: [C] or None -> [B, C, L_out].
    Channel c is convolved only with kernel row c.
    """
    (_, C, L), (Ck, k) = x.data.shape, kernel.data.shape
    if Ck != C:
        raise ConfigError(f"depthwise kernel has {Ck} channels, input has {C}")
    out = _gather(x.data, kernel.data, dilation, stride, conv_output_length(L, k, dilation, stride))
    if bias is not None:
        out += bias.data[None, :, None]

    def backward(g):
        if x.requires_grad:
            x._accumulate(_scatter(g, kernel.data, dilation, stride, L))
        if kernel.requires_grad:
            kernel._accumulate(_kernel_grad(g, x.data, kernel.data, dilation, stride))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))

    parents = (x, kernel, bias) if bias is not None else (x, kernel)
    return _make(out, parents, backward, "conv1d_dw")


def conv1d_transpose_depthwise(x: Tensor, kernel: Tensor, dilation: int,
                               stride: int, target_len: int) -> Tensor:
    """Depthwise transposed 1-d convolution, fitted to target_len.

    x: [B, C, L_in], kernel: [C, k] -> [B, C, target_len]. The natural
    output length (L_in-1)*stride + k_eff is right-cropped or right-zero-
    padded to target_len.
    """
    (_, C, L_in), (Ck, k) = x.data.shape, kernel.data.shape
    if Ck != C:
        raise ConfigError(f"depthwise kernel has {Ck} channels, input has {C}")
    k_eff = (k - 1) * dilation + 1
    if target_len < k_eff:
        raise ConfigError(f"target length {target_len} shorter than effective kernel {k_eff}")
    out = _scatter(x.data, kernel.data, dilation, stride, target_len)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_gather(g, kernel.data, dilation, stride, L_in))
        if kernel.requires_grad:
            kernel._accumulate(_kernel_grad(x.data, g, kernel.data, dilation, stride))

    return _make(out, (x, kernel), backward, "conv1d_tdw")


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor], stride: int = 1) -> Tensor:
    """Full valid 1-d convolution (no dilation), over optional leading group axes.

    x: [..., B, C_in, L], weight: [..., C_out, C_in, k], bias: [..., C_out]
    -> [..., B, C_out, L_out]. The leading axes of x, weight and bias are
    the same groups: group g of x is convolved with group g of the weight
    only, as if by a separate call.
    """
    *lead, B, Cin, L = x.data.shape
    *lead_w, Cout, Cin_w, k = weight.data.shape
    if lead_w != lead or Cin_w != Cin:
        raise ConfigError(f"conv1d weight {weight.data.shape} does not fit input {x.data.shape}: "
                          f"group axes and input channels must agree")
    L_out = conv_output_length(L, k, 1, stride)
    starts = np.arange(L_out) * stride
    idx = starts[:, None] + np.arange(k)[None, :]          # [L_out, k]
    # Each product is one (batched) GEMM over im2col columns, in the operand
    # order and layouts np.einsum(..., optimize=True) hands to matmul, so the
    # results are its own, without planning the contraction on every call.
    windows = x.data[..., idx]                             # [..., B, Cin, L_out, k]
    cols = np.moveaxis(windows, (-4, -2), (-2, -1)).reshape(*lead, Cin * k, B * L_out)
    w2 = weight.data.reshape(*lead, Cout, Cin * k)
    out = (w2 @ cols).reshape(*lead, Cout, B, L_out).swapaxes(-3, -2)
    if bias is not None:
        out += bias.data[..., None, :, None]
    out = out.astype(x.data.dtype)

    def backward(g):
        if x.requires_grad:
            gcols = np.swapaxes(w2, -1, -2) @ np.swapaxes(g, -3, -2).reshape(*lead, Cout, B * L_out)
            gx = np.zeros_like(x.data)
            np.add.at(gx, (..., idx),
                      np.moveaxis(gcols.reshape(*lead, Cin, k, B, L_out), (-2, -1), (-4, -2)))
            x._accumulate(gx)
        if weight.requires_grad:
            gt = np.swapaxes(g, -2, -1).reshape(*lead, B * L_out, Cout)
            weight._accumulate(np.moveaxis((cols @ gt).reshape(*lead, Cin, k, Cout), -1, -3)
                               .astype(weight.data.dtype))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(-3, -1)))

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return _make(out, parents, backward, "conv1d")


def _max_over_windows(x: Tensor, idx: np.ndarray, op: str) -> Tensor:
    """Max of x's last axis over each ascending row of idx [L_out, w]; the
    gradient goes to each window's first argmax, summed where windows overlap."""
    L_out = idx.shape[0]
    windows = x.data[..., idx]                             # [..., L_out, w]
    arg = windows.argmax(axis=-1)                          # first max wins ties
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        src = idx[np.arange(L_out), arg]                   # absolute argmax positions
        gx = np.zeros(x.data.shape, dtype=x.data.dtype)
        if (idx[1:, 0] > idx[:-1, -1]).all():  # disjoint windows: one write per position
            np.put_along_axis(gx, src, g, axis=-1)
        else:
            rows = np.arange(src.size // L_out)[:, None]
            np.add.at(gx.reshape(-1, x.data.shape[-1]), (rows, src.reshape(-1, L_out)),
                      g.reshape(-1, L_out))
        x._accumulate(gx)

    return _make(out, (x,), backward, op)


def maxpool1d(x: Tensor, k: int, stride: int) -> Tensor:
    """Max pooling over the last axis; gradient routed to the first argmax."""
    L = x.data.shape[-1]
    if k > L:
        raise ConfigError(f"pool kernel {k} exceeds input length {L}")
    starts = np.arange((L - k) // stride + 1) * stride
    return _max_over_windows(x, starts[:, None] + np.arange(k), "maxpool1d")


def adaptive_maxpool1d(x: Tensor, out_len: int) -> Tensor:
    """Adaptive max pooling of the last axis of [..., L]: window i covers
    [floor(i*L/out), ceil((i+1)*L/out)); gradient routed to the first argmax.
    Shorter windows repeat their last position, which leaves it in place."""
    L = x.data.shape[-1]
    i = np.arange(out_len)
    lo = (i * L) // out_len
    hi = -(-((i + 1) * L) // out_len)
    idx = np.minimum(lo[:, None] + np.arange((hi - lo).max()), hi[:, None] - 1)
    return _max_over_windows(x, idx, "adaptive_maxpool1d")


GROUP_NORM_EPS = 1e-5


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """Group normalization over [B, L, C] with channel groups.

    Each group is normalized to zero mean / unit variance over its
    (L x group-width) slice per sample, then scaled and shifted per channel.
    Zero-variance slices come out as zeros (GROUP_NORM_EPS guards it).
    """
    B, L, C = x.data.shape
    if C % groups != 0:
        raise ConfigError(f"channel count {C} not divisible by {groups} groups")
    w = C // groups
    xg = x.data.reshape(B, L, groups, w)
    mean = xg.mean(axis=(1, 3), keepdims=True)
    var = xg.var(axis=(1, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + GROUP_NORM_EPS)
    xhat = ((xg - mean) * inv).astype(x.data.dtype)
    out = xhat.reshape(B, L, C) * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat.reshape(B, L, C)).sum(axis=(0, 1)))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 1)))
        if x.requires_grad:
            gh = (g * gamma.data).reshape(B, L, groups, w)
            m1 = gh.mean(axis=(1, 3), keepdims=True)
            m2 = (gh * xhat).mean(axis=(1, 3), keepdims=True)
            gx = inv * (gh - m1 - xhat * m2)
            x._accumulate(gx.reshape(B, L, C).astype(x.data.dtype))

    return _make(out, (x, gamma, beta), backward, "group_norm")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on logits, numerically stable."""
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    data = np.asarray(loss.mean(), dtype=z.dtype)

    def backward(g):
        logits._accumulate((g * (_sigmoid(z) - y) / z.size).astype(z.dtype))

    return _make(data, (logits,), backward, "bce_with_logits")


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of [B, C] logits against integer labels [B]."""
    z = logits.data
    labels = np.asarray(labels, dtype=np.int64)
    zmax = z.max(axis=-1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    picked = z[np.arange(z.shape[0]), labels]
    data = np.asarray((logsumexp - picked).mean(), dtype=z.dtype)

    def backward(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(z.shape[0]), labels] -= 1.0
        logits._accumulate((g * p / z.shape[0]).astype(z.dtype))

    return _make(data, (logits,), backward, "softmax_cross_entropy")


# ---------------------------------------------------------------------------
# parameters and optimizer
# ---------------------------------------------------------------------------

class Parameter:
    """Named, trainable tensor. Freezing removes it from optimization and
    keeps its gradient buffer empty."""

    def __init__(self, name: str, tensor: Tensor, frozen: bool = False):
        self.name = name
        self.tensor = tensor
        self.tensor.requires_grad = not frozen
        self._frozen = frozen

    @property
    def frozen(self) -> bool:
        return self._frozen

    @frozen.setter
    def frozen(self, value: bool) -> None:
        self._frozen = value
        self.tensor.requires_grad = not value
        if value:
            self.tensor.grad = None

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.tensor.shape}, frozen={self.frozen})"


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Kaiming-uniform fan-in init: U(-sqrt(6/fan_in), sqrt(6/fan_in))."""
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Canonical Adam with bias correction; skips frozen parameters."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p in self.params:
            if p.frozen:
                p.tensor.grad = None  # keep the freeze contract: grad stays zero
                continue
            g = p.tensor.grad
            if g is None:
                raise RuntimeError(f"parameter {p.name} has no gradient; run backward first")
            m = self._m[p.name]
            v = self._v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)).astype(p.data.dtype)
            p.tensor.data = p.tensor.data - update


def global_grad_norm(params: Iterable[Parameter]) -> float:
    total = 0.0
    for p in params:
        if p.tensor.grad is not None:
            total += float((p.tensor.grad.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad *= np.asarray(scale, dtype=p.tensor.grad.dtype)
    return norm

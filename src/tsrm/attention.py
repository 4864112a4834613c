"""Self-attention mechanisms and the feature-separated multi-head wrapper.

Three interchangeable kinds: dense softmax attention, entmax-1.5 sparse
attention (exact sort-based threshold, rows may contain exact zeros), and
prob-sparse attention after Informer (Zhou et al., AAAI 2021). Prob-sparse
scores each query against u = ceil(c ln D) sampled keys, computes softmax
rows over all D keys only for the u queries of each slice with the highest
max-minus-mean score, and hands every other query the mean of the values
(the output of a uniform row). Only the selected rows enter the autodiff
graph: its scores, weights and their gradients are [..., u, D], not
[..., D, D]. The sampled scores that rank the queries are laid out
[..., u, D] as well, sample j of every query in one contiguous row; their
mean adds each query's u samples in the order numpy's pairwise sum of a
contiguous row would, so the ranking is the same bit for bit as over a
[..., D, u] layout (``_top_queries``).

All three kinds share one body, ``_attend``, and one contract: they return
the values and the row-stochastic weights of the rows they computed,
[..., h, r, D], with r = D except for prob-sparse with u < D. The wrapper
reduces every kind with ``_reduce_rows`` to the per-feature vector of the
attention each representation position receives (``reduce_map`` of the
head-averaged map, each uniform row adding 1/D to every position); no
D x D map is built for a kind that does not compute one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _make, matmul, softmax
from .errors import ConfigError

__all__ = [
    "AttentionKind",
    "entmax15",
    "vanilla_attention",
    "entmax_attention",
    "probsparse_attention",
    "probsparse_top_u",
    "feature_separated_mha",
    "reduce_map",
]

KINDS = ("vanilla", "entmax15", "probsparse")


@dataclass(frozen=True)
class AttentionKind:
    """Which attention mechanism an encoding layer uses."""

    kind: str = "vanilla"
    probsparse_factor: float = 5.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown attention kind {self.kind!r}, expected one of {KINDS}")
        if self.probsparse_factor <= 0:
            raise ConfigError("probsparse factor must be positive")


# Elements per block of rows that entmax15 solves at once. Its sort and
# cumulative sums need several temporaries of the block's size; over a whole
# [F, B, h, D, D] eval batch they would outweigh the scores themselves.
_ENTMAX_BLOCK = 1 << 16


def _entmax15_rows(x: np.ndarray) -> np.ndarray:
    """Exact 1.5-entmax of each row of a 2-D array (Peters et al. 2019).

    With u = x/2 - max(x/2) sorted in descending order and S1_k, S2_k the
    cumulative sums of u and u^2, rank k is in the support iff the mass
    sum_{i<=k} (u_i - u_k)^2 = k u_k^2 - 2 S1_k u_k + S2_k is at most one.
    For support size k*, tau is the smaller root of
    k* tau^2 - 2 S1 tau + S2 - 1 = 0.
    """
    u = x / 2
    u -= u.max(axis=-1, keepdims=True)
    srt = np.sort(u, axis=-1)[:, ::-1]
    s1 = np.cumsum(srt, axis=-1)
    s2 = np.cumsum(np.square(srt), axis=-1)
    k = np.arange(1, x.shape[-1] + 1, dtype=u.dtype)
    mass = (k * srt - 2 * s1) * srt + s2
    k_star = np.count_nonzero(mass <= 1, axis=-1).reshape(-1, 1)
    s1 = np.take_along_axis(s1, k_star - 1, axis=-1)
    s2 = np.take_along_axis(s2, k_star - 1, axis=-1)
    k_star = k_star.astype(u.dtype)
    tau = (s1 - np.sqrt(np.maximum(s1 * s1 - k_star * (s2 - 1), 0))) / k_star
    p = np.square(np.maximum(u - tau, 0))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def entmax15(z: Tensor, axis: int = -1) -> Tensor:
    """1.5-entmax along an axis: p_i = [(z_i/2 - tau)+]^2 with sum(p) = 1.

    tau is computed exactly from the sorted slice (see ``_entmax15_rows``);
    the result is renormalized so the slice sums to one exactly while zero
    entries stay exactly zero. Slices are solved in blocks of about
    ``_ENTMAX_BLOCK`` elements, so the solver's temporaries stay small next
    to the input and the output.
    """
    x = np.moveaxis(z.data, axis, -1)
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    out = np.empty_like(rows)
    step = max(1, _ENTMAX_BLOCK // n)
    for start in range(0, rows.shape[0], step):
        out[start:start + step] = _entmax15_rows(rows[start:start + step])
    p = np.moveaxis(out.reshape(x.shape), -1, axis)

    def backward(g):
        # Jacobian on the support: diag(s) - s s^T / sum(s) with s = sqrt(p)
        s = np.sqrt(p)
        gs = (g * s).sum(axis=axis, keepdims=True)
        ssum = s.sum(axis=axis, keepdims=True)
        z._accumulate((s * (g - gs / ssum)).astype(z.data.dtype))

    return _make(p, (z,), backward, "entmax15")


def probsparse_top_u(D: int, c: float) -> int:
    """Number of sampled keys / retained queries: min(D, ceil(c ln D))."""
    if D < 1:
        raise ConfigError("attention needs at least one position")
    return min(D, math.ceil(c * math.log(D))) if D > 1 else 1


def _sum_like_rows(a: np.ndarray) -> np.ndarray:
    """Sum of a [..., n, D] over its n axis, added in the order numpy's
    pairwise summation adds a contiguous row of n: up to 128 elements in 8
    lanes (element i into lane i mod 8), the lanes as ((0+1)+(2+3))+((4+5)+(6+7)),
    then the n mod 8 tail in turn; fewer than 8 in turn; longer rows split
    in two at a multiple of 8 (Higham 1993). Each step adds whole [..., D]
    slices, so no reduction runs over a short innermost axis."""
    n = a.shape[-2]
    if n < 8:
        return a.sum(axis=-2)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_like_rows(a[..., :half, :]) + _sum_like_rows(a[..., half:, :])
    m = n - n % 8
    r = a[..., :m, :].reshape(a.shape[:-2] + (m // 8, 8, a.shape[-1])).sum(axis=-3)
    total = (r[..., 0, :] + r[..., 1, :] + (r[..., 2, :] + r[..., 3, :])
             + (r[..., 4, :] + r[..., 5, :] + (r[..., 6, :] + r[..., 7, :])))
    for i in range(m, n):
        total += a[..., i, :]
    return total


def _top_u(score: np.ndarray, u: int) -> np.ndarray:
    """Indices [..., u] of the u largest entries of each row of score
    [..., D], largest first and equal scores by index: the first u of a
    stable argsort of -score, without sorting all D. The row takes every
    entry above the u-th largest value and then the entries equal to it in
    index order; only those u are sorted."""
    neg = -score
    kth = np.partition(neg, u - 1, axis=-1)[..., u - 1:u]
    if np.isnan(kth).any():          # fewer than u numbers: NaNs rank last, as in argsort
        return np.argsort(neg, axis=-1, kind="stable")[..., :u]
    above = neg < kth
    tied = neg == kth
    tied &= np.cumsum(tied, axis=-1) <= u - np.count_nonzero(above, axis=-1, keepdims=True)
    chosen = np.nonzero(above | tied)[-1].reshape(score.shape[:-1] + (u,))
    order = np.argsort(np.take_along_axis(neg, chosen, axis=-1), axis=-1, kind="stable")
    return np.take_along_axis(chosen, order, axis=-1)


def _top_queries(q: np.ndarray, k: np.ndarray, u: int, rng: np.random.Generator) -> np.ndarray:
    """Indices [..., u] of the u queries of each slice with the highest
    sparsity score, max - mean of its scaled scores against u sampled keys.

    Each query gets its own u keys, drawn without replacement from one
    ``rng.random((D, D))`` and shared by every leading (feature, batch,
    head) slice. The sampled scores are read from a data-only q k^T: one
    BLAS product is faster than gathering u keys per query. The product is
    formed one leading (feature) slice at a time and freed once its samples
    are read: the whole stack's [..., D, D] product, plus the C-ordered copy
    ``np.take`` makes of it, took 2 x 97 MB at B=64, F=7, D=168 and set an
    eval forward's peak memory.

    The samples are laid out [..., u, D], sample j of every query in one
    contiguous row, so the max and the mean reduce over an outer axis
    instead of a short innermost one. The mean adds the u samples of a
    query in the order ``mean(axis=-1)`` of a [..., D, u] layout does
    (``_sum_like_rows``), so every score, and with it the selected queries
    and their order, is the same bit for bit as that of the [..., D, u]
    layout.
    """
    D, d_h = q.shape[-2:]
    keys = np.argsort(rng.random((D, D)), axis=-1)[:, :u]               # [D, u]
    flat = (keys + D * np.arange(D)[:, None]).T                         # [u, D]
    lead = q.shape[:-2]
    sampled = np.empty(lead + (u, D), dtype=np.result_type(q, k))      # [..., u, D]
    for s in np.ndindex(lead[:1]):                   # the whole array when q is [D, d_h]
        # one expression, so the slice's product is freed before the next one is made
        sampled[s] = np.take((q[s] @ np.swapaxes(k[s], -1, -2)).reshape(lead[1:] + (D * D,)),
                             flat, axis=-1)
    sampled *= np.asarray(1.0 / math.sqrt(d_h), dtype=sampled.dtype)
    return _top_u(sampled.max(axis=-2) - _sum_like_rows(sampled) / u, u)


def _take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``index`` [..., u] of x [..., D, d]; indices are distinct per slice."""
    idx = index[..., None]
    data = np.take_along_axis(x.data, idx, axis=-2)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, g, axis=-2)
        x._accumulate(gx)

    return _make(data, (x,), backward, "take_rows")


def _fill_rows(rows: Tensor, v: Tensor, index: np.ndarray) -> Tensor:
    """[..., D, d] holding rows [..., u, d] at ``index`` [..., u] and the
    mean of the D rows of v [..., D, d] everywhere else."""
    D = v.shape[-2]
    scale = np.asarray(1.0 / D, dtype=v.dtype)
    idx = index[..., None]
    data = np.repeat(v.data.sum(axis=-2, keepdims=True) * scale, D, axis=-2)
    np.put_along_axis(data, idx, rows.data, axis=-2)

    def backward(g):
        if rows.requires_grad:
            rows._accumulate(np.take_along_axis(g, idx, axis=-2))
        if v.requires_grad:
            rest = g.copy()
            np.put_along_axis(rest, idx, 0, axis=-2)
            v._accumulate(np.broadcast_to(rest.sum(axis=-2, keepdims=True) * scale, v.shape))

    return _make(data, (rows, v), backward, "fill_rows")


def _attend(q: Tensor, k: Tensor, v: Tensor, normalize, index=None):
    """Attention of the query rows ``index`` [..., r] (every row when None)
    over all D keys, on [..., h, D, d_h] tensors.

    Forms the selected rows' scaled scores, normalizes each row with
    ``normalize`` (softmax or entmax15) and takes their values; every
    unselected query gets the mean of the values, the output of a uniform
    row. Returns (values [..., h, D, d_h], row weights [..., h, r, D]).
    """
    rows = q if index is None else _take_rows(q, index)
    scores = matmul(rows, k.transpose(*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    scores = scores * (1.0 / math.sqrt(q.shape[-1]))
    weights = normalize(scores, axis=-1)
    values = matmul(weights, v)
    if index is not None:
        values = _fill_rows(values, v, index)
    return values, weights


def vanilla_attention(q: Tensor, k: Tensor, v: Tensor):
    """Dense softmax attention; see ``_attend`` for the contract."""
    return _attend(q, k, v, softmax)


def entmax_attention(q: Tensor, k: Tensor, v: Tensor):
    """As vanilla attention but with entmax-1.5 in place of softmax."""
    return _attend(q, k, v, entmax15)


def probsparse_attention(q: Tensor, k: Tensor, v: Tensor, c: float, rng: np.random.Generator):
    """Prob-sparse attention (Informer): softmax rows only for the top-u queries.

    u = ceil(c ln D) queries per slice are selected by ``_top_queries``,
    driven by the supplied seeded generator; only their [..., h, u, D]
    scores, softmax and values are computed (see ``_attend``). When u >= D
    every query is kept and this is vanilla attention, with no sampling.
    """
    D = q.shape[-2]
    u = probsparse_top_u(D, c)
    return _attend(q, k, v, softmax, _top_queries(q.data, k.data, u, rng) if u < D else None)


def _reduce_rows(weights: Tensor) -> Tensor:
    """Attention each position receives, [..., D], from row weights
    [..., h, r, D]: ``reduce_map`` of the head-averaged map. With r < D
    the D x D map is never built: the head mean of the selected rows'
    column sums, plus 1/D from each of the D - r uniform rows.

    Each form keeps the summation order its kind has always used; a change
    in the last bit moves seeded training runs far past run-to-run noise.
    """
    h, r, D = weights.shape[-3:]
    if r == D:
        return reduce_map(weights.mean(axis=-3))
    return weights.sum(axis=(-3, -2)) * (1.0 / h) + (D - r) / D


def reduce_map(map_tensor: Tensor) -> Tensor:
    """Reduce a row-stochastic [..., D, D] map to a per-position vector by
    summing over the query axis (attention received per position).

    Summing each row instead would give a constant vector of ones.
    """
    return map_tensor.sum(axis=-2)


def feature_separated_mha(r: Tensor, params: dict, kind: AttentionKind, heads: int,
                          rng: np.random.Generator):
    """Per-feature multi-head self-attention over [B, D, F*f_embed].

    Each of the F width-f_embed segments runs through its own Q/K/V/output
    projections (stacked as [F, f_embed, f_embed] weights) and h-head
    attention of the selected kind; segments are concatenated back in
    feature order. Returns (output [B, D, F*f_embed], reduced maps
    [B, F, D] still on the gradient graph).
    """
    B, D, E = r.shape
    F, f_embed, _ = params["wq"].shape
    if F * f_embed != E:
        raise ConfigError(f"attention parameters cover width {F * f_embed}, input has {E}")
    if f_embed % heads != 0:
        raise ConfigError(f"f_embed {f_embed} not divisible by {heads} heads")
    d_h = f_embed // heads

    x = r.reshape(B, D, F, f_embed).transpose(2, 0, 1, 3)               # [F, B, D, f]

    def project(w, b):
        out = matmul(x, w.reshape(F, 1, f_embed, f_embed)) + b.reshape(F, 1, 1, f_embed)
        return out.reshape(F, B, D, heads, d_h).transpose(0, 1, 3, 2, 4)  # [F, B, h, D, d_h]

    q = project(params["wq"], params["bq"])
    k = project(params["wk"], params["bk"])
    v = project(params["wv"], params["bv"])

    # the kernels are looked up as module globals, so they can be wrapped
    if kind.kind == "probsparse":
        values, weights = probsparse_attention(q, k, v, kind.probsparse_factor, rng)
    else:
        attend = vanilla_attention if kind.kind == "vanilla" else entmax_attention
        values, weights = attend(q, k, v)
    reduced = _reduce_rows(weights)                                      # [F, B, D]

    merged = values.transpose(0, 1, 3, 2, 4).reshape(F, B, D, f_embed)
    out = matmul(merged, params["wo"].reshape(F, 1, f_embed, f_embed))
    out = out + params["bo"].reshape(F, 1, 1, f_embed)
    return out.transpose(1, 2, 0, 3).reshape(B, D, E), reduced.transpose(1, 0, 2)

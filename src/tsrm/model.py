"""The full network: per-feature embedding, stacked encoding layers with
cross-layer residuals, attention-map classifier, de-embedding, and
checkpoint persistence.

Every encoding layer is shape preserving ([B, T, d_embed] in and out) and
threads a residual of representation shape [B, D, d_embed] to its
successor. All computation except the second block's linear layer and the
classifier's ensemble head stays within per-feature channel blocks, so the
parameter count depends only on the hyperparameters, never on the data or
(with absolute kernel sizes) the window length.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import attention as attn
from .autodiff import (
    Parameter,
    Tensor,
    adaptive_maxpool1d,
    concat,
    conv1d,
    conv1d_depthwise,
    conv1d_transpose_depthwise,
    dropout,
    elu,
    gelu,
    group_norm,
    kaiming_uniform,
    matmul,
    maxpool1d,
    sigmoid,
)
from .errors import (
    ConfigError,
    CorruptCheckpointError,
    CorruptConfigError,
    DataError,
    MissingCheckpointError,
    ShapeMismatchError,
    UnsupportedVersionError,
)
from .config import Section

CHECKPOINT_VERSION = 1

# model-input token of a value the model must not see; normalized values lie
# in [0, 1], so it never occurs naturally
MISSING_TOKEN = -1.0


def build_model_input(values: np.ndarray, observed: np.ndarray,
                      hidden: np.ndarray) -> np.ndarray:
    """-1 token everywhere the model must not see the value: where it is not
    observed and where ``hidden`` (an evaluation mask or a forecast horizon)
    hides it."""
    visible = observed & ~hidden
    out = np.where(visible, np.nan_to_num(values, nan=0.0), MISSING_TOKEN)
    return out.astype(np.float32)


TASK_KINDS = ("forecast", "impute", "classify")

# attention-map classifier trunk dimensions (recorded in the effective
# config for reproducibility)
AC_CONV1_OUT = 16
AC_CONV1_K = 7
AC_CONV2_OUT = 4
AC_CONV2_K = 3
AC_POOL_LEN = 8
AC_HIDDEN = 32
AC_TRUNK_HIDDEN = 16

# minimum representation length the classifier conv stack can digest:
# conv(k=7, s=2) then conv(k=3, s=2) needs (D - 7)//2 + 1 >= 3
AC_MIN_D = 11


@dataclass
class BranchSpec(Section):
    """One representation-stage branch: a depthwise conv plus max pooling.

    The kernel is either absolute (``kernel``) or a percentage of the window
    length (``kernel_pct``, resolved as max(1, round(pct/100 * T)) at build
    time). The stride defaults to half the kernel size, floored, min 1.
    """

    _label = "branch"
    kernel: Optional[int] = None
    kernel_pct: Optional[float] = None
    dilation: int = 1
    stride: Optional[int] = None

    def __post_init__(self):
        if (self.kernel is None) == (self.kernel_pct is None):
            raise ConfigError("branch needs exactly one of kernel / kernel_pct")
        if self.kernel is not None and self.kernel < 1:
            raise ConfigError(f"branch kernel must be >= 1, got {self.kernel}")
        if self.kernel_pct is not None and not 0 < self.kernel_pct <= 100:
            raise ConfigError(f"branch kernel_pct must lie in (0, 100], got {self.kernel_pct}")
        if self.dilation < 1:
            raise ConfigError(f"branch dilation must be >= 1, got {self.dilation}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"branch stride must be >= 1, got {self.stride}")

    def resolve(self, T: int) -> "ResolvedBranch":
        k = self.kernel if self.kernel is not None else max(1, round(self.kernel_pct / 100.0 * T))
        s = self.stride if self.stride is not None else max(1, k // 2)
        k_eff = (k - 1) * self.dilation + 1
        if k_eff > T:
            raise ConfigError(
                f"branch (kernel={k}, dilation={self.dilation}) has effective kernel "
                f"{k_eff} > window length {T}")
        conv_len = (T - k_eff) // s + 1
        pool_k = min(2, conv_len)
        pool_len = (conv_len - pool_k) // pool_k + 1
        return ResolvedBranch(k=k, dilation=self.dilation, stride=s,
                              conv_len=conv_len, pool_k=pool_k, pool_len=pool_len)

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None}


@dataclass(frozen=True)
class ResolvedBranch:
    k: int
    dilation: int
    stride: int
    conv_len: int
    pool_k: int
    pool_len: int


@dataclass
class ModelConfig(Section):
    """All hyperparameters of one model instance."""

    _label = "model config"
    T: int
    F: int
    f_embed: int
    n_layers: int
    heads: int
    branches: list[BranchSpec]
    attention: str = "vanilla"
    probsparse_factor: float = 5.0
    dropout_p: float = 0.1
    alpha: float = 3.5
    beta: float = 1.2
    gamma: float = 5.0
    num_classes: int = 1

    def __post_init__(self):
        if self.T < 1 or self.F < 1:
            raise ConfigError(f"window length and feature count must be positive, got T={self.T}, F={self.F}")
        if self.n_layers < 1:
            raise ConfigError("need at least one encoding layer")
        if not self.branches:
            raise ConfigError("need at least one representation branch")
        if self.f_embed < 1 or self.heads < 1:
            raise ConfigError(f"f_embed and heads must be positive, got {self.f_embed}, {self.heads}")
        if self.f_embed % self.heads != 0:
            raise ConfigError(f"f_embed={self.f_embed} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {self.dropout_p}")
        if self.num_classes < 1:
            raise ConfigError("classifier needs at least one output")
        self.branches = [b if isinstance(b, BranchSpec) else BranchSpec.from_dict(b)
                         for b in self.branches]
        attn.AttentionKind(self.attention, self.probsparse_factor)  # validates
        D = self.D
        if D < AC_MIN_D:
            raise ConfigError(
                f"representation length D={D} too short for the classifier conv stack; "
                f"need D >= {AC_MIN_D} (from (D - {AC_CONV1_K})//2 + 1 >= {AC_CONV2_K})")

    @property
    def d_embed(self) -> int:
        return self.F * self.f_embed

    @property
    def resolved_branches(self) -> list:
        return [b.resolve(self.T) for b in self.branches]

    @property
    def D(self) -> int:
        return sum(rb.conv_len + rb.pool_len for rb in self.resolved_branches)

    @property
    def attention_kind(self) -> attn.AttentionKind:
        return attn.AttentionKind(self.attention, self.probsparse_factor)

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        # older format-v1 manifests carry the retired reduce axis; summing
        # over keys gave constant ones, so only "queries" is accepted
        if isinstance(d, dict):
            d = dict(d)
            axis = d.pop("attention_reduce_axis", "queries")
            if axis != "queries":
                raise ConfigError(f"unknown attention reduce axis {axis!r}")
        return super().from_dict(d)


def parameter_count_formula(cfg: ModelConfig) -> int:
    """Closed-form trainable parameter count; must match the built model."""
    F, fe, de = cfg.F, cfg.f_embed, cfg.d_embed
    N, C, M = cfg.n_layers, cfg.num_classes, len(cfg.branches)
    kernels = [rb.k for rb in cfg.resolved_branches]
    embed = 2 * F * fe
    deembed = F * fe + F
    per_el = (
        sum(de * k + de for k in kernels)        # representation convs + biases
        + 2 * de                                 # block-1 group norm
        + 4 * F * fe * fe + 4 * F * fe           # per-feature q/k/v/out projections
        + 2 * de                                 # block-2 group norm
        + de * de + de                           # the one cross-feature linear
        + sum(de * k for k in kernels)           # merge transpose kernels
        + F * (M * fe * fe + fe)                 # per-feature merge feed-forward
    )
    ac_trunk = F * (
        AC_CONV1_OUT * N * AC_CONV1_K + AC_CONV1_OUT
        + AC_CONV2_OUT * AC_CONV1_OUT * AC_CONV2_K + AC_CONV2_OUT
        + (AC_CONV2_OUT * AC_POOL_LEN) * AC_TRUNK_HIDDEN + AC_TRUNK_HIDDEN
        + AC_TRUNK_HIDDEN * 1 + 1
    )
    ac_head = (F * AC_HIDDEN + AC_HIDDEN) + (AC_HIDDEN * AC_HIDDEN + AC_HIDDEN) \
        + (AC_HIDDEN * C + C)
    return embed + deembed + N * per_el + ac_trunk + ac_head


def parameter_table(cfg: ModelConfig) -> list:
    """(name, shape, init) of every parameter, in creation order.

    init is "zeros", "ones", ("kaiming", fan_in), or ("kaiming_shared",
    fan_in): one Kaiming draw of shape[1:] repeated along the leading
    feature axis, so the per-feature classifier trunks start identical.
    Initialization draws from one generator in this order, and checkpoint
    loading checks stored shapes against the same table.
    """
    F, fe, de = cfg.F, cfg.f_embed, cfg.d_embed
    M, N = len(cfg.branches), cfg.n_layers
    branches = cfg.resolved_branches
    table = [("embed.w", (F, fe), ("kaiming", 1)), ("embed.b", (F, fe), "zeros")]

    for n in range(N):
        p = f"el{n}"
        for m, rb in enumerate(branches):
            table += [(f"{p}.rl.conv{m}.w", (de, rb.k), ("kaiming", rb.k)),
                      (f"{p}.rl.conv{m}.b", (de,), "zeros")]
        table += [(f"{p}.block1.norm.gamma", (de,), "ones"),
                  (f"{p}.block1.norm.beta", (de,), "zeros")]
        table += [(f"{p}.attn.{w}", (F, fe, fe), ("kaiming", fe)) for w in ("wq", "wk", "wv", "wo")]
        table += [(f"{p}.attn.{b}", (F, fe), "zeros") for b in ("bq", "bk", "bv", "bo")]
        table += [(f"{p}.block2.norm.gamma", (de,), "ones"),
                  (f"{p}.block2.norm.beta", (de,), "zeros"),
                  (f"{p}.block2.linear.w", (de, de), ("kaiming", de)),
                  (f"{p}.block2.linear.b", (de,), "zeros")]
        table += [(f"{p}.ml.tconv{m}.w", (de, rb.k), ("kaiming", rb.k))
                  for m, rb in enumerate(branches)]
        table += [(f"{p}.ml.ffn.w", (F, M * fe, fe), ("kaiming", M * fe)),
                  (f"{p}.ml.ffn.b", (F, fe), "zeros")]

    table += [("deembed.w", (F, fe), ("kaiming", fe)), ("deembed.b", (F,), "zeros")]

    # classifier trunks: one per feature, identically initialized
    flat = AC_CONV2_OUT * AC_POOL_LEN
    table += [
        ("ac.conv1.w", (F, AC_CONV1_OUT, N, AC_CONV1_K), ("kaiming_shared", N * AC_CONV1_K)),
        ("ac.conv1.b", (F, AC_CONV1_OUT), "zeros"),
        ("ac.conv2.w", (F, AC_CONV2_OUT, AC_CONV1_OUT, AC_CONV2_K),
         ("kaiming_shared", AC_CONV1_OUT * AC_CONV2_K)),
        ("ac.conv2.b", (F, AC_CONV2_OUT), "zeros"),
        ("ac.lin1.w", (F, flat, AC_TRUNK_HIDDEN), ("kaiming_shared", flat)),
        ("ac.lin1.b", (F, AC_TRUNK_HIDDEN), "zeros"),
        ("ac.lin2.w", (F, AC_TRUNK_HIDDEN, 1), ("kaiming_shared", AC_TRUNK_HIDDEN)),
        ("ac.lin2.b", (F, 1), "zeros"),
    ]
    C = cfg.num_classes
    table += [
        ("ac.head.w1", (F, AC_HIDDEN), ("kaiming", F)),
        ("ac.head.b1", (AC_HIDDEN,), "zeros"),
        ("ac.head.w2", (AC_HIDDEN, AC_HIDDEN), ("kaiming", AC_HIDDEN)),
        ("ac.head.b2", (AC_HIDDEN,), "zeros"),
        ("ac.head.w3", (AC_HIDDEN, C), ("kaiming", AC_HIDDEN)),
        ("ac.head.b3", (C,), "zeros"),
    ]
    return table


def _initial_value(shape: tuple, init, rng: np.random.Generator, dtype) -> np.ndarray:
    if init == "zeros":
        return np.zeros(shape)
    if init == "ones":
        return np.ones(shape)
    kind, fan_in = init
    if kind == "kaiming":
        return kaiming_uniform(shape, fan_in, rng, dtype)
    one = kaiming_uniform(shape[1:], fan_in, rng, dtype)
    return np.repeat(one[None], shape[0], axis=0)


@dataclass
class ForwardTrace:
    """Everything one forward pass produces."""

    output: Tensor                      # [B, T, F]
    class_logits: Tensor                # [B, C]
    attention: np.ndarray               # [N, B, F, D] reduced map vectors, detached
    feature_scores: Optional[np.ndarray] = None  # [B, F] trunk sigmoids, detached


class TsrmModel:
    """Parameter container plus the forward pass."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32,
                 task: str = "pretrain", task_spec: Optional[dict] = None,
                 _empty: bool = False):
        self.config = config
        self.task = task
        self.task_spec = task_spec
        self.dtype = dtype
        self.params: dict[str, Parameter] = {}
        if not _empty:
            self._init_params(np.random.default_rng(seed))

    # -- construction --------------------------------------------------------

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Parameter(name, Tensor(np.asarray(data, dtype=self.dtype)))

    def _init_params(self, rng: np.random.Generator) -> None:
        for name, shape, init in parameter_table(self.config):
            self._add(name, _initial_value(shape, init, rng, self.dtype))

    def init_classifier_head(self, rng: np.random.Generator) -> None:
        """(Re)initialize the three ensemble linear layers of the classifier."""
        for name, shape, init in parameter_table(self.config):
            if name.startswith("ac.head."):
                self._add(name, _initial_value(shape, init, rng, self.dtype))

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> list:
        return list(self.params.values())

    def parameter_count(self, trainable_only: bool = False) -> int:
        return sum(p.data.size for p in self.params.values()
                   if not (trainable_only and p.frozen))

    def freeze(self, predicate) -> list:
        """Freeze parameters whose name satisfies the predicate; returns them."""
        hit = [p for p in self.params.values() if predicate(p.name)]
        for p in hit:
            p.frozen = True
        return hit

    def t(self, name: str) -> Tensor:
        return self.params[name].tensor

    # -- forward pieces --------------------------------------------------------

    def embed(self, x: Tensor) -> Tensor:
        B, T, F = x.shape
        if F != self.config.F:
            raise ConfigError(f"input has {F} features, model expects {self.config.F}")
        e = x.reshape(B, T, F, 1) * self.t("embed.w") + self.t("embed.b")
        return e.reshape(B, T, self.config.d_embed)

    def de_embed(self, e: Tensor) -> Tensor:
        B, T, _ = e.shape
        cfg = self.config
        per = e.reshape(B, T, cfg.F, cfg.f_embed) * self.t("deembed.w")
        return per.sum(axis=-1) + self.t("deembed.b")

    def representation(self, e: Tensor, layer: int) -> Tensor:
        """[B, T, d_embed] -> [B, D, d_embed] via the conv/pool branches."""
        xc = e.transpose(0, 2, 1)
        segments = []
        for m, rb in enumerate(self.config.resolved_branches):
            conv = conv1d_depthwise(xc, self.t(f"el{layer}.rl.conv{m}.w"),
                                    self.t(f"el{layer}.rl.conv{m}.b"),
                                    dilation=rb.dilation, stride=rb.stride)
            pool = maxpool1d(conv, rb.pool_k, rb.pool_k)
            segments.append(conv.transpose(0, 2, 1))
            segments.append(pool.transpose(0, 2, 1))
        return concat(segments, axis=1)

    def merge(self, p: Tensor, layer: int) -> Tensor:
        """[B, D, d_embed] -> [B, T, d_embed]: drop pooled segments, invert
        each conv branch, and fuse per feature."""
        cfg = self.config
        B = p.shape[0]
        restored = []
        offset = 0
        for m, rb in enumerate(cfg.resolved_branches):
            seg = p.narrow(1, offset, rb.conv_len).transpose(0, 2, 1)
            offset += rb.conv_len + rb.pool_len
            back = conv1d_transpose_depthwise(seg, self.t(f"el{layer}.ml.tconv{m}.w"),
                                              dilation=rb.dilation, stride=rb.stride,
                                              target_len=cfg.T)
            restored.append(back.transpose(0, 2, 1).reshape(B, cfg.T, cfg.F, cfg.f_embed))
        stacked = concat(restored, axis=-1)                      # [B, T, F, M*fe]
        M = len(cfg.branches)
        x5 = stacked.reshape(B, cfg.T, cfg.F, 1, M * cfg.f_embed)
        fused = matmul(x5, self.t(f"el{layer}.ml.ffn.w"))        # [B, T, F, 1, fe]
        fused = fused.reshape(B, cfg.T, cfg.F, cfg.f_embed) + self.t(f"el{layer}.ml.ffn.b")
        return fused.reshape(B, cfg.T, cfg.d_embed)

    def encoding_layer(self, e_in: Tensor, residual_in: Optional[Tensor], layer: int,
                       training: bool, rng: np.random.Generator):
        """One shape-preserving encoder unit; see module docstring for wiring."""
        cfg = self.config
        r = self.representation(e_in, layer)
        if residual_in is not None:
            r = r + residual_in

        g1 = group_norm(r, cfg.F, self.t(f"el{layer}.block1.norm.gamma"),
                        self.t(f"el{layer}.block1.norm.beta"))
        attn_params = {k: self.t(f"el{layer}.attn.{k}")
                       for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
        mha_out, reduced = attn.feature_separated_mha(
            gelu(g1), attn_params, cfg.attention_kind, cfg.heads, rng)
        x = r + dropout(mha_out, cfg.dropout_p, training, rng)

        g2 = group_norm(x, cfg.F, self.t(f"el{layer}.block2.norm.gamma"),
                        self.t(f"el{layer}.block2.norm.beta"))
        lin = matmul(gelu(g2), self.t(f"el{layer}.block2.linear.w")) \
            + self.t(f"el{layer}.block2.linear.b")
        y = x + dropout(lin, cfg.dropout_p, training, rng)

        p = y + residual_in if residual_in is not None else y
        return self.merge(p, layer), p, reduced

    def attention_classifier(self, reduced_maps: list) -> tuple:
        """Class logits from the N x F reduced attention vectors only.

        reduced_maps: list (length N) of [B, F, D] tensors, still on the
        gradient graph so attention parameters keep receiving gradients.
        The F per-feature trunks run as one pass over a leading feature
        axis of the stored ``ac.*`` weights, so the graph does not grow with F.
        """
        B, F, D = reduced_maps[0].shape
        x = concat([m.reshape(B, F, 1, D) for m in reduced_maps], axis=2).transpose(1, 0, 2, 3)
        h = conv1d(x, self.t("ac.conv1.w"), self.t("ac.conv1.b"), stride=2)
        h = elu(conv1d(h, self.t("ac.conv2.w"), self.t("ac.conv2.b"), stride=2))
        h = adaptive_maxpool1d(h, AC_POOL_LEN).reshape(F, B, AC_CONV2_OUT * AC_POOL_LEN)
        h = matmul(h, self.t("ac.lin1.w")) + self.t("ac.lin1.b").reshape(F, 1, AC_TRUNK_HIDDEN)
        h = matmul(h, self.t("ac.lin2.w")) + self.t("ac.lin2.b").reshape(F, 1, 1)
        s = sigmoid(h).reshape(F, B).transpose(1, 0)              # [B, F]
        h = gelu(matmul(s, self.t("ac.head.w1")) + self.t("ac.head.b1"))
        h = gelu(matmul(h, self.t("ac.head.w2")) + self.t("ac.head.b2"))
        logits = matmul(h, self.t("ac.head.w3")) + self.t("ac.head.b3")
        return logits, s

    def forward(self, x: np.ndarray, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> ForwardTrace:
        """Run the network on [B, T, F] input (missing values already -1)."""
        cfg = self.config
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[1] != cfg.T or x.shape[2] != cfg.F:
            raise ConfigError(f"expected input [B, {cfg.T}, {cfg.F}], got {x.shape}")
        bad = ~(((x >= 0) & (x <= 1)) | (x == MISSING_TOKEN))
        if bad.any():
            b, t, f = np.argwhere(bad)[0]
            raise DataError(f"model input at (b, t, f) = ({b}, {t}, {f}) is {x[b, t, f]}; "
                            f"inputs must be finite and in [0, 1], or {MISSING_TOKEN:g} "
                            f"where a value is missing")
        if rng is None:
            rng = np.random.default_rng(0)

        e = self.embed(Tensor(x))
        residual = None
        reduced_all = []
        for n in range(cfg.n_layers):
            e, residual, reduced = self.encoding_layer(e, residual, n, training, rng)
            reduced_all.append(reduced)

        output = self.de_embed(e)
        logits, feature_scores = self.attention_classifier(reduced_all)
        return ForwardTrace(
            output=output,
            class_logits=logits,
            attention=np.stack([m.data for m in reduced_all]),
            feature_scores=feature_scores.data.copy(),
        )


def save_checkpoint(model: TsrmModel, directory) -> None:
    """Write manifest.json plus params.bin (little-endian float32 blobs).

    A save that fails while writing leaves the earlier checkpoint as it was
    (see ``_replace_files``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for name, p in model.params.items():
        raw = np.ascontiguousarray(p.data, dtype="<f4")
        blob = raw.tobytes()
        entries.append({"name": name, "shape": list(p.data.shape),
                        "offset": offset, "length": raw.size})
        offset += raw.size
        blobs.append(blob)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "task": model.task,
        "task_spec": model.task_spec,
        "params": entries,
    }
    _replace_files(directory, {"params.bin": b"".join(blobs),
                               "manifest.json": json.dumps(manifest, indent=1).encode()})


def _replace_files(directory: Path, contents: dict) -> None:
    """Write each file in full under a temporary name in ``directory``, then
    rename each over its final name. When a write fails, the temporary
    files are removed and every final file is left untouched."""
    staged = []
    try:
        for name, data in contents.items():
            tmp = directory / f".{name}.{os.getpid()}.tmp"
            staged.append((tmp, directory / name))
            tmp.write_bytes(data)
        for tmp, final in staged:
            os.replace(tmp, final)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def load_checkpoint(directory) -> TsrmModel:
    """Restore a model whose eval forward is bitwise identical to the saved one."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    blob_path = directory / "params.bin"
    if not directory.is_dir() or not manifest_path.exists():
        raise MissingCheckpointError(f"no checkpoint manifest at {manifest_path}")
    if not blob_path.exists():
        raise MissingCheckpointError(f"no parameter blob at {blob_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise CorruptCheckpointError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CorruptCheckpointError("manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(f"unknown checkpoint format version {version!r}")
    for key in ("config", "params"):
        if key not in manifest:
            raise CorruptCheckpointError(f"manifest lacks the {key!r} section")

    task, task_spec = manifest.get("task", "pretrain"), manifest.get("task_spec")
    try:
        config = ModelConfig.from_dict(manifest["config"])
        if task not in ("pretrain",) + TASK_KINDS or not isinstance(task_spec, (dict, type(None))):
            raise ConfigError(f"task {task!r} or task_spec {task_spec!r} is malformed")
    except ConfigError as e:
        raise CorruptConfigError(f"manifest: {e}") from e
    model = TsrmModel(config, task=task, task_spec=task_spec, _empty=True)

    raw = blob_path.read_bytes()
    n_floats = len(raw) // 4
    if len(raw) % 4 != 0:
        raise CorruptCheckpointError("parameter blob length is not a multiple of 4 bytes")
    flat = np.frombuffer(raw, dtype="<f4")
    ranges = []
    for name, shape, offset, length in _param_entries(manifest["params"]):
        size = math.prod(shape)
        if size != length:
            raise CorruptCheckpointError(
                f"parameter {name}: shape {shape} disagrees with length {length}")
        if type(offset) is not int or not 0 <= offset <= n_floats - size:
            raise CorruptCheckpointError(
                f"parameter {name}: offset {offset!r} does not place it inside params.bin")
        ranges.append((offset, offset + size))
        data = flat[offset: offset + size].reshape(shape)
        model.params[name] = Parameter(name, Tensor(data.astype(np.float32)))
    covered = 0
    for lo, hi in sorted(ranges):  # the ranges must tile params.bin, each float read once
        if lo != covered:
            raise CorruptCheckpointError(f"params.bin float {min(lo, covered)} is read by "
                                         + ("two parameters" if lo < covered else "none"))
        covered = hi
    if covered != n_floats:
        raise CorruptCheckpointError(
            f"params.bin holds {n_floats} floats but the manifest covers {covered}")

    # cross-check restored shapes against the ones the config implies
    expected = {name: shape for name, shape, _ in parameter_table(config)}
    if set(expected) != set(model.params):
        raise ShapeMismatchError("manifest parameter set does not match the config")
    for name, shape in expected.items():
        if model.params[name].data.shape != shape:
            raise ShapeMismatchError(
                f"parameter {name}: config implies shape {shape}, "
                f"manifest stored {model.params[name].data.shape}")
    return model


def _param_entries(params) -> list:
    """(name, shape, offset, length) of each manifest parameter entry; the
    offset and length are checked against params.bin by the caller."""
    if not isinstance(params, list):
        raise CorruptCheckpointError(f"manifest 'params' is not a list: {params!r}")
    for e in params:
        if not (isinstance(e, dict) and {"name", "shape", "offset", "length"} <= set(e)
                and isinstance(e["name"], str) and isinstance(e["shape"], list)
                and all(type(n) is int and n >= 0 for n in e["shape"])):
            raise CorruptCheckpointError(f"malformed parameter entry {e!r}")
    return [(e["name"], tuple(e["shape"]), e["offset"], e["length"]) for e in params]


def rebuild_for_window(model: TsrmModel, new_T: int):
    """Re-instantiate the model at a different window length, reusing every
    parameter tensor whose shape is unchanged.

    With absolute kernel sizes all shapes are window-independent and the
    rebuild shares every tensor. Percent kernels re-resolve against the new
    window; kernels whose resolved size changed are freshly initialized.
    Returns (new_model, list of re-resolved parameter names).
    """
    new_cfg = ModelConfig.from_dict({**model.config.to_dict(), "T": new_T})
    table = parameter_table(new_cfg)
    reinitialized = [name for name, shape, _ in table if model.params[name].data.shape != shape]
    # a seeded draw only when some kernel changed, so its fresh values stay reproducible
    fresh = TsrmModel(new_cfg, seed=0, dtype=model.dtype, task=model.task,
                      _empty=not reinitialized)
    for name, _, _ in table:
        if name not in reinitialized:
            fresh.params[name] = model.params[name]
    return fresh, reinitialized

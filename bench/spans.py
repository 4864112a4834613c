"""Span tracing from outside the program.

A span records a name, a start, an end and the span that was open when it
began. Spans come from two places: ``Tracer.span`` blocks around the
benchmark's own calls into a layer, and wrappers that ``install`` puts
around the public functions and methods the program calls internally
(``TsrmModel.forward``, ``Tensor.backward``, ``Adam.step``, ...). Spans are
kept in memory and written out when the run ends. A disabled tracer installs
nothing and its ``span`` blocks cost one branch.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.graphs: list = []       # (nodes, bytes) of each loss graph backpropagated
        self._stack: list = []
        self._installed: list = []

    # -- recording --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """No spans inside: the benchmark's own correctness checks are not layer work."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, owner, attr: str, name) -> None:
        """Replace owner.attr by a wrapper that records a span around each call.

        ``name`` is a span name or a function of (args, kwargs) giving one.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the program's public functions at every layer boundary."""
        if not self.enabled:
            return
        import tsrm.attention as attention
        import tsrm.autodiff as autodiff
        import tsrm.explain as explain
        import tsrm.finetune as finetune
        import tsrm.model as model
        import tsrm.trainer as trainer

        def forward_name(args, kwargs):
            training = kwargs.get("training", args[2] if len(args) > 2 else False)
            return "model.forward_train" if training else "model.forward_eval"

        M = model.TsrmModel
        self._wrap(M, "forward", forward_name)
        for method, span_name in (("embed", "model.embed"),
                                  ("representation", "model.representation"),
                                  ("encoding_layer", "model.encoding_layer"),
                                  ("merge", "model.merge"),
                                  ("attention_classifier", "model.classifier"),
                                  ("de_embed", "model.de_embed")):
            self._wrap(M, method, span_name)
        # the model calls attention through the module, and the multi-head
        # wrapper calls the kind's function through module globals
        self._wrap(attention, "feature_separated_mha", "attention.mha")
        for fn in ("vanilla_attention", "entmax_attention", "probsparse_attention"):
            self._wrap(attention, fn, "attention.kernel")
        self._wrap_backward(autodiff.Tensor)
        self._wrap(autodiff.Adam, "step", "autodiff.adam")
        # names the trainer and the evaluator imported into their own namespaces
        self._wrap(trainer, "clip_grad_norm", "autodiff.clip")
        self._wrap(trainer, "save_checkpoint", "model.save_checkpoint")
        self._wrap(trainer, "build_pretrain_batch", "pretraining.build_pretrain_batch")
        self._wrap(trainer, "pretrain_loss", "pretraining.pretrain_loss")
        self._wrap(trainer, "build_forecast_batch", "finetune.build_forecast_batch")
        self._wrap(trainer, "build_impute_batch", "finetune.build_impute_batch")
        self._wrap(trainer, "finetune_loss", "finetune.finetune_loss")
        self._wrap(finetune, "build_forecast_batch", "finetune.build_forecast_batch")
        self._wrap(finetune, "build_impute_batch", "finetune.build_impute_batch")
        self._wrap(explain, "backmapped_layers", "explain.backmap")
        self._wrap_file_writes(explain, "explain.write")

    def wrap_objective(self, objective) -> None:
        """Spans for the trainer's two per-epoch phases: building the training
        batches, and the whole validation loop. ``train`` iterates
        ``val_batches()`` to the end, so a generator's span covers every
        validation forward and loss."""
        if not self.enabled:
            return
        self._wrap(objective, "train_batches", "trainer.batches")
        original = objective.val_batches
        tracer = self

        def val_batches():
            idx = tracer._open("trainer.val")
            try:
                yield from original()
            finally:
                tracer._close(idx)

        objective.val_batches = val_batches

    def _wrap_file_writes(self, module, name: str) -> None:
        """Span every ``with open(...)`` block of a module, from open to close.

        A module-level ``open`` shadows the builtin for that module only;
        export_attention writes each CSV inside one such block.
        """
        tracer = self

        class TracedOpen:
            def __init__(self, *args, **kwargs):
                self._args, self._kwargs = args, kwargs

            def __enter__(self):
                self._idx = tracer._open(name)
                self._fh = open(*self._args, **self._kwargs)
                return self._fh.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._fh.__exit__(*exc)
                finally:
                    tracer._close(self._idx)

        module.open = TracedOpen
        self._installed.append((module, "open", None))

    def _wrap_backward(self, tensor_cls) -> None:
        """Before each backward, walk the loss graph as the engine does and
        record its node count and the bytes of the arrays it holds; the walk
        gets its own span so it shows as tracing overhead, not backward."""
        original = tensor_cls.backward
        tracer = self

        @functools.wraps(original)
        def backward(node, *args, **kwargs):
            if not tracer.enabled:
                return original(node, *args, **kwargs)
            with tracer.span("trace.graph_walk"):
                tracer.graphs.append(graph_size(node))
            with tracer.span("autodiff.backward"):
                return original(node, *args, **kwargs)

        tensor_cls.backward = backward
        self._installed.append((tensor_cls, "backward", original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------------

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[NAME] == name]

    def children(self) -> dict:
        out: dict = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s[PARENT], []).append(i)
        return out

    def table(self) -> dict:
        """name -> {calls, total_ms, self_ms}; self time is a span's duration
        minus the time its direct children cover."""
        kids = self.children()
        rows: dict = {}
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            inner = sum(self.spans[k][END] - self.spans[k][START] for k in kids.get(i, ()))
            row = rows.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * dur
            row["self_ms"] += 1e3 * (dur - inner)
        return rows

    def coverage(self, name: str) -> float:
        """Share of the named spans' wall time that their direct children cover."""
        kids = self.children()
        total = inner = 0.0
        for i, s in enumerate(self.spans):
            if s[NAME] != name:
                continue
            total += s[END] - s[START]
            inner += sum(self.spans[k][END] - self.spans[k][START] for k in kids.get(i, ()))
        return inner / total if total else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "graphs": self.graphs}, fh)


def graph_size(root) -> tuple:
    """(node count, bytes) of the graph ``root.backward()`` will traverse.

    Nodes are counted as the engine's topological walk visits them (the root
    and every ancestor that requires a gradient). Bytes are those of the
    distinct base arrays behind every tensor the graph references, so views
    made by reshape or transpose count once.
    """
    seen, stack, nodes = set(), [root], 0
    bases: dict = {}
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        for t in (node,) + tuple(node._parents):
            a = t.data
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a.nbytes
        stack.extend(p for p in node._parents if p.requires_grad and id(p) not in seen)
    return nodes, sum(bases.values())

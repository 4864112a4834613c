"""Shared test oracles: finite differences and graph brute-forcing."""

import numpy as np

from tsrm.autodiff import Tensor


def finite_difference(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar loss_fn w.r.t. array x.

    loss_fn takes no arguments and must re-read x (mutated in place here).
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def check_gradients(build_loss, tensors, h: float = 1e-5, tol: float = 1e-4) -> None:
    """Compare backward-pass gradients against central finite differences.

    build_loss() must reconstruct the graph from the given float64 leaf
    tensors and return a scalar Tensor. Error is measured as
    max|analytic - numeric| / max(1, max|numeric|).
    """
    for t in tensors:
        assert t.dtype == np.float64, "gradient checks run in double precision"
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        numeric = finite_difference(lambda: build_loss().item(), t.data, h=h)
        scale = max(1.0, float(np.abs(numeric).max()))
        err = float(np.abs(analytic - numeric).max()) / scale
        assert err < tol, f"gradient mismatch {err:.3e} (tol {tol:.1e}) on shape {t.shape}"


def rand_tensor(rng, *shape, scale=1.0, requires_grad=True) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad, dtype=np.float64)


def graph_op_nodes(*roots) -> int:
    """Number of op nodes reachable from the roots; leaves are not counted."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def spy_forward(model) -> list:
    """Wrap model.forward on this instance; each call appends
    (training, whether the output recorded a backward graph)."""
    calls = []
    original = model.forward

    def forward(*args, **kwargs):
        trace = original(*args, **kwargs)
        graph = trace.output.requires_grad or trace.class_logits.requires_grad
        calls.append((kwargs.get("training", False), graph))
        return trace

    model.forward = forward
    return calls

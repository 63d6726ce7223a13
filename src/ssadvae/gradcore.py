"""Dense float64 tensors with reverse-mode automatic differentiation.

Small on purpose: exactly the operations an MLP VAE and its losses need
(elementwise math, matmul, reductions, logsumexp, stack, take). Gradients are
accumulated into trainable leaf tensors; everything runs on numpy buffers.

Broadcasting is right-aligned and one-sided: one operand's shape must fit
into the other's, with the same last axis and every other axis equal or 1
(a bias of shape (d,) against activations (B, d), or (K, 1, d) against
(K, B, d) when K ensemble members are stacked on a leading axis). Anything
fancier is rejected so the backward rules stay small and auditable.
"""
from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor", "Graph", "no_grad", "constant", "parameter",
    "add", "sub", "mul", "neg", "exp", "log", "square", "relu",
    "leaky_relu", "sigmoid", "softplus", "clamp", "matmul", "reduce_sum",
    "reduce_mean", "reduce_max", "logsumexp", "stack", "take", "backward",
    "finite_diff_check",
]


class _GradMode(threading.local):
    # thread-local so a scoring thread's no_grad cannot disturb a training
    # thread's graph construction
    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph construction (e.g. for scoring)."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


class Tensor:
    """A dense f64 array plus an optional autodiff record.

    Leaves are created directly (``op == "leaf"``); derived tensors carry
    their parents and a vector-Jacobian closure. ``grad`` buffers are only
    ever materialized on trainable leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), vjp: Optional[Callable] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self._vjp = vjp

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A leaf view sharing this tensor's buffer, cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    # operator sugar; scalars fold into the closure, tensors go through ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Graph:
    """Topologically ordered nodes of one forward evaluation."""

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Graph":
        nodes: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return cls(nodes)


def _make(data, op: str, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=tuple(parents), vjp=vjp)
    return Tensor(data, op=op)


def _fits(small: tuple, big: tuple) -> bool:
    """``small`` broadcasts into ``big``: right-aligned, the same last axis,
    every other axis equal or 1."""
    return (len(small) <= len(big) and small[-1] == big[-1]
            and all(s in (b, 1) for s, b in zip(small[::-1], big[::-1])))


def _check_binary(a: Tensor, b: Tensor, opname: str) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or sa == () or sb == () or _fits(sa, sb) or _fits(sb, sa):
        return
    raise ValueError(
        f"{opname}: shapes {sa} and {sb} are neither equal nor "
        "broadcastable along the leading axes")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise operations

def add(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return _make(a.data + b, "add", (a,), lambda g: (g,))
    b = _as_tensor(b)
    _check_binary(a, b, "add")
    sa, sb = a.data.shape, b.data.shape
    return _make(a.data + b.data, "add", (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return _make(a.data - b, "sub", (a,), lambda g: (g,))
    b = _as_tensor(b)
    _check_binary(a, b, "sub")
    sa, sb = a.data.shape, b.data.shape
    return _make(a.data - b.data, "sub", (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return _make(a.data * b, "mul", (a,), lambda g: (g * b,))
    b = _as_tensor(b)
    _check_binary(a, b, "mul")
    da, db = a.data, b.data
    return _make(da * db, "mul", (a, b),
                 lambda g: (_unbroadcast(g * db, da.shape),
                            _unbroadcast(g * da, db.shape)))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    da = a.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(da)
    return _make(out, "log", (a,), lambda g: (g / da,))


def square(a: Tensor) -> Tensor:
    da = a.data
    return _make(da * da, "square", (a,), lambda g: (g * (2.0 * da),))


def relu(a: Tensor) -> Tensor:
    da = a.data
    return _make(np.maximum(da, 0.0), "relu", (a,),
                 lambda g: (g * (da > 0.0),))


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    """max(x, slope*x) for 0 < slope <= 1: branch-free, and byte-equal to
    the select form for signed zeros, infinities, nan and subnormals."""
    da = a.data
    return _make(np.maximum(da, slope * da), "leaky-relu", (a,),
                 lambda g: (g * np.maximum(da >= 0.0, slope),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(np.atleast_1d(a.data)).reshape(a.data.shape)
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    da = a.data
    out = np.maximum(da, 0.0) + np.log1p(np.exp(-np.abs(da)))
    sig = _sigmoid(np.atleast_1d(da)).reshape(da.shape)
    return _make(out, "softplus", (a,), lambda g: (g * sig,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    da = a.data
    inside = (da >= lo) & (da <= hi)
    return _make(np.clip(da, lo, hi), "clamp", (a,),
                 lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# matmul and reductions

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product, or one product per leading index of two 3-D
    operands (stacked members: (K, B, n) @ (K, n, m))."""
    b = _as_tensor(b)
    da, db = a.data, b.data
    if da.ndim != db.ndim or da.ndim not in (2, 3) or da.shape[:-2] != db.shape[:-2]:
        raise ValueError(f"matmul expects two 2-D or two 3-D operands with the "
                         f"same leading axis, got {da.shape} and {db.shape}")
    if da.shape[-1] != db.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {da.shape} vs {db.shape}")
    return _make(da @ db, "matmul", (a, b),
                 lambda g: (g @ np.swapaxes(db, -1, -2), np.swapaxes(da, -1, -2) @ g))


def _norm_axis(axis, ndim: int, opname: str):
    if axis is None:
        return None
    if not isinstance(axis, int):
        raise ValueError(f"{opname}: axis must be an int or None, got {axis!r}")
    ax = axis + ndim if axis < 0 else axis
    if not 0 <= ax < ndim:
        raise ValueError(f"{opname}: axis {axis} invalid for {ndim}-D tensor")
    return ax


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    ax = _norm_axis(axis, a.data.ndim, "sum")
    shape = a.data.shape

    def vjp(g):
        if ax is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, ax), shape).copy(),)

    return _make(a.data.sum(axis=ax), "sum", (a,), vjp)


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    ax = _norm_axis(axis, a.data.ndim, "mean")
    shape = a.data.shape
    n = a.data.size if ax is None else shape[ax]

    def vjp(g):
        if ax is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, ax) / n, shape).copy(),)

    return _make(a.data.mean(axis=ax), "mean", (a,), vjp)


def reduce_max(a: Tensor, axis=None) -> Tensor:
    """Max reduction; ties route the gradient to the lowest-index argmax."""
    ax = _norm_axis(axis, a.data.ndim, "max")
    da = a.data

    def vjp(g):
        mask = np.zeros_like(da)
        if ax is None:
            mask.flat[np.argmax(da)] = 1.0
            return (mask * g,)
        idx = np.expand_dims(np.argmax(da, axis=ax), ax)
        np.put_along_axis(mask, idx, 1.0, ax)
        return (mask * np.expand_dims(g, ax),)

    return _make(da.max(axis=ax), "max", (a,), vjp)


def logsumexp(a: Tensor, axis=None) -> Tensor:
    """log(sum(exp(a))) via the max-shift trick; all -inf rows give -inf."""
    ax = _norm_axis(axis, a.data.ndim, "logsumexp")
    da = a.data
    m = da.max(axis=ax, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out_kd = m_safe + np.log(np.sum(np.exp(da - m_safe), axis=ax, keepdims=True))
    out = out_kd.squeeze(axis=ax) if ax is not None else np.asarray(out_kd).reshape(())

    def vjp(g):
        with np.errstate(invalid="ignore"):
            w = np.where(np.isfinite(out_kd), np.exp(da - out_kd), 0.0)
        gk = g if ax is None else np.expand_dims(g, ax)
        return (w * gk,)

    return _make(out, "logsumexp", (a,), vjp)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack of zero tensors")
    shape = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != shape:
            raise ValueError(f"stack: mismatched shapes {shape} vs {t.data.shape}")
    out = np.stack([t.data for t in tensors], axis=0)
    return _make(out, "stack", tuple(tensors),
                 lambda g: tuple(g[i] for i in range(len(tensors))))


def take(a: Tensor, k: int) -> Tensor:
    """Index ``k`` of the leading axis; the gradient lands in that slot only."""
    da = a.data

    def vjp(g):
        out = np.zeros_like(da)
        out[k] = g
        return (out,)

    return _make(da[k], "take", (a,), vjp)


# ---------------------------------------------------------------------------
# backward pass

def backward(out: Tensor, graph: Optional[Graph] = None) -> None:
    """Accumulate d(out)/d(leaf) into every trainable leaf below ``out``.

    Repeated calls without resetting leaf grads add up; intermediate state
    never persists between calls, so two runs accumulate exactly twice the
    one-run gradient.
    """
    if out.data.ndim != 0:
        raise ValueError(f"backward requires a scalar output, got shape {out.data.shape}")
    if not out.requires_grad:
        return
    if graph is None:
        graph = Graph.trace(out)
    grads: dict[int, np.ndarray] = {id(out): np.array(1.0)}
    for node in reversed(graph.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g + 0.0 if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# finite-difference oracle

def finite_diff_check(f: Callable[[Tensor], Tensor], point, eps: float = 1e-5) -> float:
    """Max relative error between autodiff and central finite differences.

    ``f`` maps a trainable leaf tensor to a scalar tensor. Returns
    max_i |g_ad_i - g_fd_i| / max(1, |g_ad_i|). Non-finite function values
    near the point are a check failure and raise.
    """
    point = np.asarray(point, dtype=np.float64)
    leaf = parameter(point.copy())
    out = f(leaf)
    if not np.isfinite(out.data):
        raise FloatingPointError("non-finite function value at the check point")
    backward(out)
    g_ad = np.zeros_like(point) if leaf.grad is None else leaf.grad.copy()

    flat = point.reshape(-1)
    fd = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        fp = f(constant(bumped.reshape(point.shape))).item()
        bumped[i] = flat[i] - eps
        fm = f(constant(bumped.reshape(point.shape))).item()
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise FloatingPointError(f"non-finite function value near point (index {i})")
        fd[i] = (fp - fm) / (2.0 * eps)
    fd = fd.reshape(point.shape)
    rel = np.abs(g_ad - fd) / np.maximum(1.0, np.abs(g_ad))
    return float(rel.max()) if rel.size else 0.0

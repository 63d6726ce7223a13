"""Dense float64 tensors with reverse-mode automatic differentiation.

Small on purpose: exactly the operations an MLP VAE and its losses need
(elementwise math, matmul, a fused affine layer, reductions, logsumexp, stack,
take). ``make_node`` builds a node from a value and a handwritten
vector-Jacobian closure, which is how the ELBO terms in ``netblocks`` and
``vbounds`` become one node each. Gradients are accumulated into trainable
leaf tensors, or into a caller's gradient buffer (``Tensor.grad_view``);
everything runs on numpy buffers. The hot paths call numpy's ufuncs and
array methods directly (``np.add.reduce``, ``out=`` targets, ``[..., None]``)
rather than its Python-level helpers, with the same bytes. The forward
formulas that a caller without gradients also needs are array functions
(``affine_of``, ``relu_of``, ``leaky_relu_of``, ``sigmoid_of``,
``softplus_of``), which the ops call for their values.

There is no broadcasting: ``add``, ``sub`` and ``mul`` take two tensors of
one shape, or a tensor and a Python number. The one operand that is spread
over a batch, a layer's bias, is ``affine``'s business: (d,) against a
(B, d) product, or (K, 1, d) against (K, B, d) when K ensemble members are
stacked on a leading axis. So every backward rule stays small and auditable.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor", "Graph", "constant", "parameter", "make_node",
    "add", "sub", "mul", "neg", "exp", "log", "square", "relu",
    "leaky_relu", "sigmoid", "softplus", "clamp", "matmul", "affine", "reduce_sum",
    "reduce_mean", "reduce_max", "logsumexp", "stack", "take", "backward",
    "mean_of", "affine_of", "relu_of", "leaky_relu_of", "sigmoid_of",
    "softplus_of",
]


class Tensor:
    """A dense f64 array plus an optional autodiff record.

    Leaves are created directly (``op == "leaf"``); derived tensors carry
    their parents and a vector-Jacobian closure. ``grad`` buffers are only
    ever materialized on trainable leaves. A leaf with a ``grad_view`` has
    its gradient written into that array, so the leaves of one model can
    share one gradient buffer.
    """

    __slots__ = ("data", "grad", "grad_view", "requires_grad", "op", "parents",
                 "_vjp", "_pending")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), vjp: Optional[Callable] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.grad_view: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self._vjp = vjp
        self._pending: Optional[np.ndarray] = None  # set only inside backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


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


def make_node(data, op: str, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """A node holding ``data`` that is recorded only when a parent is
    trainable, so a computation over constants (``gc.constant`` views)
    builds no graph. ``vjp(g)`` returns one gradient (or None) per entry of
    ``parents``; a parent may be listed more than once, and ``backward``
    then adds its gradients in list order."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=tuple(parents), vjp=vjp)
    return Tensor(data, op=op)


def _check_binary(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{opname}: operand shapes {a.data.shape} and "
                         f"{b.data.shape} differ; gradcore does not broadcast")


# ---------------------------------------------------------------------------
# elementwise operations

def add(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return make_node(a.data + b, "add", (a,), lambda g: (g,))
    _check_binary(a, b, "add")
    return make_node(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return make_node(a.data - b, "sub", (a,), lambda g: (g,))
    _check_binary(a, b, "sub")
    return make_node(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return make_node(a.data * b, "mul", (a,), lambda g: (g * b,))
    _check_binary(a, b, "mul")
    da, db = a.data, b.data
    return make_node(da * db, "mul", (a, b), lambda g: (g * db, g * da))


def neg(a: Tensor) -> Tensor:
    return make_node(-a.data, "neg", (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return make_node(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    da = a.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(da)
    return make_node(out, "log", (a,), lambda g: (g / da,))


def square(a: Tensor) -> Tensor:
    da = a.data
    return make_node(da * da, "square", (a,), lambda g: (g * (2.0 * da),))


def relu_of(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu(a: Tensor) -> Tensor:
    da = a.data
    return make_node(relu_of(da), "relu", (a,), lambda g: (g * (da > 0.0),))


def leaky_relu_of(x: np.ndarray, slope: float) -> np.ndarray:
    """max(x, slope*x) for 0 < slope <= 1: branch-free, and byte-equal to
    the select form for signed zeros, infinities, nan and subnormals."""
    out = np.multiply(x, slope, out=np.empty_like(x))
    return np.maximum(x, out, out=out)


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    da = a.data
    return make_node(leaky_relu_of(da, slope), "leaky-relu", (a,),
                     lambda g: (g * np.maximum(da >= 0.0, slope),))


def sigmoid_of(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    flat = np.atleast_1d(x)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ex = np.exp(flat[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.reshape(x.shape)


def sigmoid(a: Tensor) -> Tensor:
    out = sigmoid_of(a.data)
    return make_node(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def softplus_of(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a: Tensor) -> Tensor:
    da = a.data
    sig = sigmoid_of(da)
    return make_node(softplus_of(da), "softplus", (a,), lambda g: (g * sig,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    da = a.data
    inside = (da >= lo) & (da <= hi)
    return make_node(np.clip(da, lo, hi), "clamp", (a,),
                     lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# matmul and reductions

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product, or one product per leading index of two 3-D
    operands (stacked members: (K, B, n) @ (K, n, m))."""
    da, db = a.data, b.data
    if da.ndim != db.ndim or da.ndim not in (2, 3) or da.shape[:-2] != db.shape[:-2]:
        raise ValueError(f"matmul expects two 2-D or two 3-D operands with the "
                         f"same leading axis, got {da.shape} and {db.shape}")
    if da.shape[-1] != db.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {da.shape} vs {db.shape}")
    return make_node(da @ db, "matmul", (a, b),
                     lambda g: (g @ db.swapaxes(-1, -2), da.swapaxes(-1, -2) @ g))


def affine_of(h: np.ndarray, w: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
    """``(h @ w) + b`` on arrays, the bias added in place into the fresh
    product. ``b`` may be spread to the product's shape already: the sums
    are the same."""
    out = h @ w
    if b is not None:
        np.add(out, b, out=out)
    return out


def affine(h: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """One dense layer as one node: ``(h @ w) + b``, with operands shaped as
    for ``matmul`` and a bias of shape (d,) for a 2-D product or (K, 1, d)
    for K stacked members, added to every row. ``b=None`` is the plain
    product. Gradients are computed only for operands that require them."""
    dh, dw = h.data, w.data
    if dh.ndim != dw.ndim or dh.ndim not in (2, 3) or dh.shape[:-2] != dw.shape[:-2]:
        raise ValueError(f"affine expects two 2-D or two 3-D operands with the "
                         f"same leading axis, got {dh.shape} and {dw.shape}")
    if dh.shape[-1] != dw.shape[-2]:
        raise ValueError(f"affine inner dimensions disagree: {dh.shape} vs {dw.shape}")
    shape = dh.shape[:-1] + dw.shape[-1:]
    if b is not None:
        want = shape[-1:] if len(shape) == 2 else (shape[0], 1, shape[-1])
        if b.data.shape != want:
            raise ValueError(f"affine: bias shape {b.data.shape} is not {want} "
                             f"for a product of shape {shape}")
    out = affine_of(dh, dw, None if b is None else b.data)
    need_h, need_w = h.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad
    return make_node(out, "affine", (h, w) if b is None else (h, w, b), lambda g: (
        g @ dw.swapaxes(-1, -2) if need_h else None,
        dh.swapaxes(-1, -2) @ g if need_w else None,
        np.add.reduce(g, axis=-2, keepdims=g.ndim == 3) if need_b else None))


def _norm_axis(axis, ndim: int, opname: str):
    if axis is None:
        return None
    if not isinstance(axis, int):
        raise ValueError(f"{opname}: axis must be an int or None, got {axis!r}")
    ax = axis + ndim if axis < 0 else axis
    if not 0 <= ax < ndim:
        raise ValueError(f"{opname}: axis {axis} invalid for {ndim}-D tensor")
    return ax


def _kept_shape(shape: tuple, ax) -> tuple:
    """``shape`` with the reduced axis kept as length 1 (all axes for None)."""
    if ax is None:
        return (1,) * len(shape)
    return shape[:ax] + (1,) + shape[ax + 1:]


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    ax = _norm_axis(axis, a.data.ndim, "sum")
    shape = a.data.shape

    def vjp(g):
        out = np.empty(shape)
        out[...] = g.reshape(_kept_shape(shape, ax))
        return (out,)

    return make_node(np.add.reduce(a.data, axis=ax), "sum", (a,), vjp)


def mean_of(data: np.ndarray, axis=None):
    """The bytes of ``data.mean(axis)`` for float64: a sum, then a division
    by the count, in place when the sum is an array."""
    total = np.add.reduce(data, axis=axis)
    n = data.size if axis is None else data.shape[axis]
    if type(total) is np.ndarray:
        return np.true_divide(total, n, out=total)
    return total / n


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    ax = _norm_axis(axis, a.data.ndim, "mean")
    shape = a.data.shape
    n = a.data.size if ax is None else shape[ax]

    def vjp(g):
        return (np.true_divide(g.reshape(_kept_shape(shape, ax)), n,
                               out=np.empty(shape)),)

    return make_node(mean_of(a.data, ax), "mean", (a,), vjp)


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

    return make_node(da.max(axis=ax), "max", (a,), vjp)


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

    return make_node(out, "logsumexp", (a,), vjp)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack of zero tensors")
    shape = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != shape:
            raise ValueError(f"stack: mismatched shapes {shape} vs {t.data.shape}")
    out = np.empty((len(tensors),) + shape)
    for i, t in enumerate(tensors):
        out[i] = t.data
    # the vjp is ``tuple``: one slice of g per input, along the leading axis
    return make_node(out, "stack", tuple(tensors), tuple)


def take(a: Tensor, k: int) -> Tensor:
    """Index ``k`` of the leading axis; the gradient lands in that slot only."""
    da = a.data

    def vjp(g):
        out = np.zeros_like(da)
        out[k] = g
        return (out,)

    return make_node(da[k], "take", (a,), vjp)


# ---------------------------------------------------------------------------
# backward pass

def backward(out: Tensor) -> None:
    """Accumulate d(out)/d(leaf) into every trainable leaf below ``out``.

    Repeated calls without resetting leaf grads add up; intermediate state
    never persists between calls, so two runs accumulate exactly twice the
    one-run gradient. A node's pending gradient is held on the node itself
    while the pass runs, and every node's is cleared when it ends, a raising
    vjp included. A leaf's first gradient is written into its ``grad_view``
    when it has one (``.grad`` is then that view), and later ones add into
    it in place: the same bytes as a fresh array.
    """
    if out.data.ndim != 0:
        raise ValueError(f"backward requires a scalar output, got shape {out.data.shape}")
    if not out.requires_grad:
        return
    nodes = Graph.trace(out).nodes
    out._pending = np.array(1.0)
    try:
        for node in reversed(nodes):
            g = node._pending
            if g is None:
                continue
            node._pending = None
            if node._vjp is None:
                if not node.requires_grad:
                    continue
                if node.grad is None:
                    view = node.grad_view
                    node.grad = g + 0.0 if view is None else np.add(g, 0.0, out=view)
                elif node.grad is node.grad_view:
                    node.grad += g
                else:
                    node.grad = node.grad + g
                continue
            for parent, pg in zip(node.parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = parent._pending
                parent._pending = pg if acc is None else acc + pg
    finally:
        for node in nodes:
            node._pending = None


"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray plus the closure that propagates an incoming
gradient to its parents. The tape is just the implicit DAG of parent links;
``backward`` topologically sorts it and runs the closures in reverse. The
graph is rebuilt on every forward pass.

Only values that lead back to a trainable ``Param`` are recorded (activity
analysis). ``requires_grad`` is a Param's ``trainable`` flag, and for any
other tensor it is true when at least one parent requires a gradient. An op
reads these flags when it builds its node: it keeps only the parents that
require a gradient, and its closure computes only their gradients, so a
frozen weight's gradient is never formed. An op none of whose inputs
requires a gradient returns a constant with no parents and no closure.
Flipping ``trainable`` therefore takes effect on the next forward pass,
not on a graph already built.

Inside ``with no_graph():`` every op returns a constant, whatever its
inputs; forward-only code (evaluation, diagnostics) runs there. The mode is
per thread, so a worker thread enters it for itself.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "Param",
    "backward",
    "no_graph",
    "constant",
    "matmul",
    "add",
    "add_bias",
    "neg",
    "sub",
    "scale",
    "add_const",
    "add_const_array",
    "scale_by_scalar",
    "one_minus",
    "reshape",
    "transpose",
    "softmax_rows",
    "layer_norm",
    "gelu",
    "sigmoid",
    "log",
    "square",
    "embedding",
    "pick",
    "index_row",
    "masked_mean_rows",
    "tsum",
    "tmean",
    "mean_of",
]

_mode = threading.local()


@contextmanager
def no_graph():
    """Record nothing in this thread: every op returns a constant."""
    prev = getattr(_mode, "graph", True)
    _mode.graph = False
    try:
        yield
    finally:
        _mode.graph = prev


class Tensor:
    """A node in the autodiff graph."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: Sequence["Tensor"] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if parents and getattr(_mode, "graph", True):
            parents = tuple(p for p in parents if p.requires_grad)
        else:
            parents = ()
        self._parents = parents
        self._backward = backward_fn if parents else None

    @property
    def requires_grad(self) -> bool:
        return bool(self._parents)

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Param(Tensor):
    """A leaf tensor with a trainable flag and a stable name."""

    __slots__ = ("trainable", "name")

    def __init__(self, data, name: str = "", trainable: bool = True):
        super().__init__(data)
        self.trainable = trainable
        self.name = name

    @property
    def requires_grad(self) -> bool:
        return self.trainable

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.data.shape}, trainable={self.trainable})"


def constant(data) -> Tensor:
    return Tensor(data)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor reachable from ``loss`` that
    requires a gradient; a loss that requires none is a no-op.

    ``loss`` must be scalar (size 1). Gradients accumulate, callers are
    responsible for zeroing Param grads between steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    # Iterative post-order topological sort; graph depth can exceed the
    # recursion limit for deep stacks. Parent links hold only tensors that
    # require a gradient, so nothing else is visited.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# ops
#
# A closure runs only when its node has at least one parent that requires a
# gradient. Single-input ops need no further test; an op with several inputs
# reads their flags when it builds the node and skips the others' gradients.
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D, or batched with identical leading dims."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")
    out_data = np.matmul(a.data, b.data)
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        if need_a:
            a.accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if need_b:
            b.accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return Tensor(out_data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes disagree: {a.data.shape} vs {b.data.shape}")

    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        if need_a:
            a.accumulate(g)
        if need_b:
            b.accumulate(g)

    return Tensor(a.data + b.data, (a, b), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], broadcasting over leading axes."""
    if x.data.shape[-1:] != b.data.shape:
        raise ShapeError(f"bias shape {b.data.shape} does not match {x.data.shape}")

    need_x, need_b = x.requires_grad, b.requires_grad

    def bwd(g):
        if need_x:
            x.accumulate(g)
        if need_b:
            b.accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))

    return Tensor(x.data + b.data, (x, b), bwd)


def neg(x: Tensor) -> Tensor:
    return Tensor(-x.data, (x,), lambda g: x.accumulate(-g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def scale(x: Tensor, s: float) -> Tensor:
    return Tensor(x.data * s, (x,), lambda g: x.accumulate(g * s))


def add_const(x: Tensor, c: float) -> Tensor:
    return Tensor(x.data + c, (x,), lambda g: x.accumulate(g))


def add_const_array(x: Tensor, c: np.ndarray) -> Tensor:
    """Add a non-differentiable array (broadcastable), e.g. an attention mask."""
    return Tensor(x.data + c, (x,), lambda g: x.accumulate(g))


def scale_by_scalar(x: Tensor, s: Tensor) -> Tensor:
    """Multiply tensor x by a scalar tensor s; both sides get gradients."""
    if s.data.size != 1:
        raise ShapeError(f"scale_by_scalar expects a scalar, got shape {s.data.shape}")
    sval = float(s.data.reshape(()))
    need_x, need_s = x.requires_grad, s.requires_grad

    def bwd(g):
        if need_x:
            x.accumulate(g * sval)
        if need_s:
            s.accumulate(np.array((g * x.data).sum()).reshape(s.data.shape))

    return Tensor(x.data * sval, (x, s), bwd)


def one_minus(x: Tensor) -> Tensor:
    return Tensor(1.0 - x.data, (x,), lambda g: x.accumulate(-g))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return Tensor(x.data.reshape(shape), (x,), lambda g: x.accumulate(g.reshape(old)))


def transpose(x: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return Tensor(x.data.transpose(axes), (x,), lambda g: x.accumulate(g.transpose(inv)))


def softmax_rows(x: Tensor) -> Tensor:
    """Stable softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        x.accumulate(p * (g - dot))

    return Tensor(p, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm params must be ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    need_x, need_gain, need_bias = x.requires_grad, gain.requires_grad, bias.requires_grad

    def bwd(g):
        if need_gain:
            gain.accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if need_bias:
            bias.accumulate(g.reshape(-1, d).sum(axis=0))
        if need_x:
            gx_hat = g * gain.data
            # standard layernorm backward over the last axis
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate(inv * (gx_hat - m1 - xhat * m2))

    return Tensor(out, (x, gain, bias), bwd)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    phi = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out = x.data * phi

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        x.accumulate(g * (phi + x.data * pdf))

    return Tensor(out, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor(s, (x,), lambda g: x.accumulate(g * s * (1.0 - s)))


def log(x: Tensor) -> Tensor:
    return Tensor(np.log(x.data), (x,), lambda g: x.accumulate(g / x.data))


def square(x: Tensor) -> Tensor:
    return Tensor(x.data * x.data, (x,), lambda g: x.accumulate(2.0 * g * x.data))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[i] = weight[ids[i]]."""
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g):
        if weight.grad is None:
            weight.grad = np.zeros_like(weight.data)
        np.add.at(weight.grad, ids, g)

    return Tensor(weight.data[ids], (weight,), bwd)


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = x[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(x.data.shape[0])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        x.accumulate(gx)

    return Tensor(x.data[rows, idx], (x,), bwd)


def index_row(x: Tensor, i: int) -> Tensor:
    """Select row i of a 2-D tensor."""

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[i] = g
        x.accumulate(gx)

    return Tensor(x.data[i], (x,), bwd)


def masked_mean_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over rows where mask is True; x is [seq, d]."""
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.sum())
    if n == 0:
        raise ContractError("masked_mean_rows: mask selects no rows")

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[mask] = g / n
        x.accumulate(gx)

    return Tensor(x.data[mask].mean(axis=0), (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    return Tensor(np.array(x.data.sum()), (x,),
                  lambda g: x.accumulate(np.broadcast_to(g, x.data.shape).copy()))


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    return Tensor(np.array(x.data.mean()), (x,),
                  lambda g: x.accumulate(np.broadcast_to(g / n, x.data.shape).copy()))


def mean_of(nodes: Sequence[Tensor]) -> Tensor:
    """Mean of a list of scalar tensors."""
    if not nodes:
        raise ContractError("mean_of requires at least one node")
    n = len(nodes)
    out_data = np.array(sum(float(t.data) for t in nodes) / n)
    needed = [t for t in nodes if t.requires_grad]

    def bwd(g):
        for t in needed:
            t.accumulate(np.broadcast_to(g / n, t.data.shape).copy())

    return Tensor(out_data, tuple(nodes), bwd)

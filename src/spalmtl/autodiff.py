"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray plus one ``(input, vjp)`` pair per input that
requires a gradient. ``vjp`` is the vector-Jacobian product: it maps the
gradient of the tensor to that input's share of it. The tape is just the
implicit DAG of these links; ``backward`` topologically sorts it and, in
reverse, adds ``vjp(node.grad)`` into each input's gradient. The graph is
rebuilt on every forward pass.

Only values that lead back to a trainable ``Param`` are recorded (activity
analysis). ``requires_grad`` is a Param's ``trainable`` flag, and for any
other tensor it is true when at least one input requires a gradient. An op
lists a vjp for every input; ``Tensor.__init__`` keeps only the pairs whose
input requires a gradient, so a frozen weight's vjp is never called and its
gradient never formed. A tensor none of whose inputs requires a gradient
is a constant with no links. Flipping ``trainable`` therefore takes effect
on the next forward pass, not on a graph already built.

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

Vjp = Callable[[np.ndarray], np.ndarray]


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

    __slots__ = ("data", "grad", "_parents")

    def __init__(self, data, parents: Sequence[tuple["Tensor", Vjp]] = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if parents and getattr(_mode, "graph", True):
            self._parents = tuple(pair for pair in parents if pair[0].requires_grad)
        else:
            self._parents = ()

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
    # recursion limit for deep stacks. Links hold only tensors that require
    # a gradient, so nothing else is visited.
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
        for p, _ in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    # Every recorded node lies on a path to the loss, so its consumers have
    # run and its grad is set by the time it is reached.
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        for parent, vjp in node._parents:
            parent.accumulate(vjp(node.grad))


# ---------------------------------------------------------------------------
# ops
#
# Each op returns its value with one (input, vjp) pair per input. A vjp runs
# only for an input that requires a gradient; it returns that input's share
# of the gradient, which may be a broadcastable or read-only view.
# ---------------------------------------------------------------------------

def _same(g: np.ndarray) -> np.ndarray:
    return g


def _scatter(like: np.ndarray, index, values) -> np.ndarray:
    """Zeros shaped like ``like`` with ``values`` written at ``index``."""
    out = np.zeros_like(like)
    out[index] = values
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D, or batched with identical leading dims."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")
    return Tensor(np.matmul(a.data, b.data),
                  ((a, lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2))),
                   (b, lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g))))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes disagree: {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data + b.data, ((a, _same), (b, _same)))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], broadcasting over leading axes."""
    if x.data.shape[-1:] != b.data.shape:
        raise ShapeError(f"bias shape {b.data.shape} does not match {x.data.shape}")
    return Tensor(x.data + b.data,
                  ((x, _same), (b, lambda g: g.reshape(-1, g.shape[-1]).sum(axis=0))))


def neg(x: Tensor) -> Tensor:
    return Tensor(-x.data, ((x, np.negative),))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def scale(x: Tensor, s: float) -> Tensor:
    return Tensor(x.data * s, ((x, lambda g: g * s),))


def add_const(x: Tensor, c) -> Tensor:
    """Add a non-differentiable float or broadcastable array, e.g. an
    attention mask."""
    return Tensor(x.data + c, ((x, _same),))


def scale_by_scalar(x: Tensor, s: Tensor) -> Tensor:
    """Multiply tensor x by a scalar tensor s; both sides get gradients."""
    if s.data.size != 1:
        raise ShapeError(f"scale_by_scalar expects a scalar, got shape {s.data.shape}")
    sval = float(s.data.reshape(()))
    return Tensor(x.data * sval,
                  ((x, lambda g: g * sval),
                   (s, lambda g: np.array((g * x.data).sum()).reshape(s.data.shape))))


def one_minus(x: Tensor) -> Tensor:
    return Tensor(1.0 - x.data, ((x, np.negative),))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return Tensor(x.data.reshape(shape), ((x, lambda g: g.reshape(old)),))


def transpose(x: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return Tensor(x.data.transpose(axes), ((x, lambda g: g.transpose(inv)),))


def softmax_rows(x: Tensor) -> Tensor:
    """Stable softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return Tensor(p, ((x, lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True))),))


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

    def vjp_x(g):
        # standard layernorm backward over the last axis
        gx_hat = g * gain.data
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx_hat - m1 - xhat * m2)

    return Tensor(out, ((x, vjp_x),
                        (gain, lambda g: (g * xhat).reshape(-1, d).sum(axis=0)),
                        (bias, lambda g: g.reshape(-1, d).sum(axis=0))))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    phi = 0.5 * (1.0 + erf(x.data / _SQRT2))

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        return g * (phi + x.data * pdf)

    return Tensor(x.data * phi, ((x, vjp),))


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor(s, ((x, lambda g: g * s * (1.0 - s)),))


def log(x: Tensor) -> Tensor:
    return Tensor(np.log(x.data), ((x, lambda g: g / x.data),))


def square(x: Tensor) -> Tensor:
    return Tensor(x.data * x.data, ((x, lambda g: 2.0 * g * x.data),))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[i] = weight[ids[i]]."""
    ids = np.asarray(ids, dtype=np.int64)

    def vjp(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids, g)
        return gw

    return Tensor(weight.data[ids], ((weight, vjp),))


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = x[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    return Tensor(x.data[rows, idx], ((x, lambda g: _scatter(x.data, (rows, idx), g)),))


def index_row(x: Tensor, i: int) -> Tensor:
    """Select row i of a 2-D tensor."""
    return Tensor(x.data[i], ((x, lambda g: _scatter(x.data, i, g)),))


def masked_mean_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over rows where mask is True; x is [seq, d]."""
    mask = np.asarray(mask, dtype=bool)
    n = int(mask.sum())
    if n == 0:
        raise ContractError("masked_mean_rows: mask selects no rows")
    return Tensor(x.data[mask].mean(axis=0),
                  ((x, lambda g: _scatter(x.data, mask, g / n)),))


def tsum(x: Tensor) -> Tensor:
    return Tensor(np.array(x.data.sum()), ((x, _same),))


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    return Tensor(np.array(x.data.mean()), ((x, lambda g: g / n),))


def mean_of(nodes: Sequence[Tensor]) -> Tensor:
    """Mean of a list of scalar tensors."""
    if not nodes:
        raise ContractError("mean_of requires at least one node")
    n = len(nodes)
    out_data = np.array(sum(float(t.data) for t in nodes) / n)
    return Tensor(out_data, [(t, lambda g: g / n) for t in nodes])

"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A ``Tensor`` holds an ndarray and one ``(input, vjp)`` pair per input that
requires a gradient; ``vjp`` maps the tensor's gradient to that input's
share. ``backward`` sorts this implicit DAG and, in reverse, adds
``vjp(node.grad)`` into each input's gradient (the first share is copied
into an array laid out like the input, later ones add in place), then
consumes the graph: each non-Param node drops its grad and pairs, and so
the arrays its vjps captured, which cuts a bert-base train step's traced
peak from 785 to 361 MB. A consumed tensor raises ``ContractError`` as the
input of a second ``backward`` or a new recorded op; under ``no_graph()``
its data is a constant. ``Param`` grads accumulate across graphs until the
caller zeroes them. The graph is rebuilt on every forward pass, and a
flipped ``trainable`` flag takes effect on the next one.

Only values that lead back to a trainable ``Param`` are recorded:
``Tensor.__init__`` keeps a pair only when its input requires a gradient
(a Param's ``trainable`` flag, or for any other tensor, any recorded
input), so a frozen weight's gradient is never formed. Under
``no_graph()`` every op returns a constant; evaluation and
the diagnostics run there.

Values carry a leading batch axis: ``matmul`` applies a shared weight to
every row of a [..., k] input, ``pick`` and ``masked_mean_rows`` pool each
row, and the loss op ``cross_entropy`` is a fused log-softmax that stays
finite however far apart the logits are.
"""

from __future__ import annotations

import math
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
    "matmul",
    "add",
    "add_bias",
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
    "square",
    "cross_entropy",
    "embedding",
    "pick",
    "masked_mean_rows",
    "tmean",
]

_graph = True  # False inside no_graph()

Vjp = Callable[[np.ndarray], np.ndarray]


@contextmanager
def no_graph():
    """Record nothing: every op returns a constant."""
    global _graph
    prev, _graph = _graph, False
    try:
        yield
    finally:
        _graph = prev


class Tensor:
    """A node in the autodiff graph."""

    __slots__ = ("data", "grad", "_parents")  # _parents is None once consumed

    def __init__(self, data, parents: Sequence[tuple["Tensor", Vjp]] = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if parents and _graph:
            self._parents = tuple(pair for pair in parents if pair[0].requires_grad)
        else:
            self._parents = ()

    @property
    def requires_grad(self) -> bool:
        if self._parents is None:
            raise ContractError("tensor was consumed by backward; build a new graph")
        return bool(self._parents)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:  # empty_like keeps data's layout for BLAS
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

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


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every Param reachable from ``loss`` that requires
    a gradient, consuming the graph; a loss that requires none is a no-op.
    ``loss`` must be scalar (size 1)."""
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
        if not isinstance(node, Param):  # a Param keeps its grad
            for parent, vjp in node._parents:
                parent.accumulate(vjp(node.grad))
            node.grad = node._parents = None


# ---------------------------------------------------------------------------
# ops
#
# Each op returns its value with one (input, vjp) pair per input. A vjp runs
# only for an input that requires a gradient; it returns that input's share
# of the gradient, which may be a broadcastable or read-only view.
# ---------------------------------------------------------------------------

def _same(g: np.ndarray) -> np.ndarray:
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2-D, batched with identical leading dims, or [..., k]
    times a shared [k, n] weight as one 2-D product over the leading rows."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        rows, shape = a.data.reshape(-1, a.data.shape[-1]), a.data.shape
        return Tensor((rows @ b.data).reshape(shape[:-1] + b.data.shape[-1:]),
                      ((a, lambda g: (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(shape)),
                       (b, lambda g: rows.T @ g.reshape(-1, g.shape[-1]))))
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


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes disagree: {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data - b.data, ((a, _same), (b, np.negative)))


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


def square(x: Tensor) -> Tensor:
    return Tensor(x.data * x.data, ((x, lambda g: 2.0 * g * x.data),))


def cross_entropy(z: Tensor, y: np.ndarray) -> Tensor:
    """Per-row softmax cross-entropy of logits z [..., k] against class
    indices y [...]: logsumexp(z) - z[y], which stays finite whatever the
    gap between logits. The vjp is softmax(z) - onehot(y), scaled by g."""
    y = np.asarray(y, dtype=np.int64)[..., None]
    shifted = z.data - z.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    out = (np.log(total) - np.take_along_axis(shifted, y, axis=-1))[..., 0]
    onehot = np.arange(z.data.shape[-1]) == y
    return Tensor(out, ((z, lambda g: (e / total - onehot) * g[..., None]),))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[...] = weight[ids[...]] for ids of any shape."""
    ids = np.asarray(ids, dtype=np.int64)

    def vjp(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids, g)
        return gw

    return Tensor(weight.data[ids], ((weight, vjp),))


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = x[i, idx[i]] for a tensor of two or more dims."""
    at = (np.arange(x.data.shape[0]), np.asarray(idx, dtype=np.int64))

    def vjp(g):
        out = np.zeros_like(x.data)
        out[at] = g
        return out

    return Tensor(x.data[at], ((x, vjp),))


def masked_mean_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """out[b] = mean of x[b, t] over the t where mask[b, t] is True, for x
    [B, T, d] and mask [B, T]; every row of mask selects at least one t."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.sum(axis=1)[:, None]
    if not n.all():
        raise ContractError("masked_mean_rows: mask selects no rows")
    keep = mask[..., None]
    return Tensor(np.where(keep, x.data, 0.0).sum(axis=1) / n,
                  ((x, lambda g: np.where(keep, (g / n)[:, None, :], 0.0)),))


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    return Tensor(np.array(x.data.mean()), ((x, lambda g: g / n),))

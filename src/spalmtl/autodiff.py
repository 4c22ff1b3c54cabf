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

``backward(loss, rows=B)`` is for a loss that sums B independent batch rows:
each Param's grad gains a leading [B] axis that holds each row's own
gradient (Goodfellow, arXiv 1510.01799); any other share to a Param raises.

Only values that lead back to a trainable ``Param`` are recorded:
``Tensor.__init__`` keeps a pair only when its input requires a gradient
(a Param's ``trainable`` flag, or for any other tensor, any recorded
input), so a frozen weight's gradient is never formed. Under
``no_graph()`` every op returns a constant; evaluation and
the diagnostics run there.

Values carry a leading batch axis, and ``pick`` and ``masked_mean_rows``
pool each row. Four ops are fused, one node each: ``linear`` applies a
shared weight and bias to every row of a [..., k] input, ``attention`` is a
whole multi-head attention over [B, T, d] queries, keys and values,
``blend`` weighs two branches by sigmoid(a - b), and ``cross_entropy`` is a
log-softmax loss, finite for any logit gap. A toy train step (frozen
backbone, SPAL hidden 4) records 47 to 49 nodes, 14 of them Params.

``gelu`` is exact, x * Phi(x) (Hendrycks & Gimpel, arXiv 1606.08415). Its
erf, ``_erf``, is Cephes' ``ndtr.c`` erf in numpy, in Cephes' order of
operations: it equals scipy.special.erf bit for bit for |x| <= 1, and within
an ulp beyond, where numpy's exp may differ from libm's.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "Param",
    "backward",
    "no_graph",
    "linear",
    "attention",
    "blend",
    "add",
    "scale",
    "add_const",
    "reshape",
    "layer_norm",
    "gelu",
    "square",
    "cross_entropy",
    "embedding",
    "pick",
    "masked_mean_rows",
    "tmean",
]

_graph = True  # False inside no_graph()
_rows: int | None = None  # the batch size inside a per-row backward

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


def recording() -> bool:
    """False inside no_graph()."""
    return _graph


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
        per_row = _rows is not None and isinstance(self, Param)
        if per_row and np.shape(g) != (_rows,) + self.data.shape:
            raise ContractError(f"{self.name}: no [{_rows}, ...] gradient, got {np.shape(g)}")
        if self.grad is not None:
            self.grad += g
        elif per_row:
            self.grad = np.array(g, dtype=np.float64)  # [B, ...]
        else:  # empty_like keeps data's layout for BLAS
            self.grad = np.empty_like(self.data)
            self.grad[...] = g

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


def backward(loss: Tensor, rows: int | None = None) -> None:
    """Populate ``grad`` on every Param reachable from ``loss`` that requires
    a gradient, consuming the graph; a loss that requires none is a no-op.
    ``loss`` must be scalar (size 1); ``rows`` is the per-row mode (module docstring)."""
    global _rows
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
    _rows = rows
    try:
        for node in reversed(topo):
            if not isinstance(node, Param):  # a Param keeps its grad
                for parent, vjp in node._parents:
                    parent.accumulate(vjp(node.grad))
                node.grad = node._parents = None
    finally:
        _rows = None


# ---------------------------------------------------------------------------
# ops
#
# Each op returns its value with one (input, vjp) pair per input. A vjp runs
# only for an input that requires a gradient; it returns that input's share
# of the gradient, which may be a broadcastable or read-only view. In a
# per-row backward, the vjps that reach a Param keep the batch axis.
# ---------------------------------------------------------------------------

def _same(g: np.ndarray) -> np.ndarray:
    return g


def _rowwise(a: np.ndarray, n: int) -> np.ndarray:
    """a as [rows, n], or as [B, rows, n] inside a per-row backward."""
    if _rows is not None and a.shape[0] != _rows:
        raise ShapeError(f"a per-row backward over {_rows} rows met a batch of {a.shape[0]}")
    return a.reshape(-1, n) if _rows is None else a.reshape(_rows, -1, n)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x[..., k] @ w[k, n] (+ b[n]): one 2-D product over every leading row."""
    k, n = w.data.shape
    if x.data.shape[-1] != k or (b is not None and b.data.shape != (n,)):
        raise ShapeError(f"linear shapes disagree: {x.data.shape} x {w.data.shape} + [{n}]")
    shape, rows = x.data.shape, x.data.reshape(-1, k)
    out = (rows @ w.data).reshape(shape[:-1] + (n,))
    pairs = [(x, lambda g: (g.reshape(-1, n) @ w.data.T).reshape(shape)),
             (w, lambda g: np.swapaxes(_rowwise(x.data, k), -1, -2) @ _rowwise(g, n))]
    if b is not None:
        out += b.data
        pairs.append((b, lambda g: _rowwise(g, n).sum(axis=-2)))
    return Tensor(out, pairs)


def attention(q: Tensor, k: Tensor, v: Tensor, key_bias: np.ndarray,
              num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [B, T, d] q, k and v,
    with an additive [B, T] bias on each key's score (a large negative one
    masks a padding key); the heads merge back into [B, T, d]."""
    if not q.data.shape == k.data.shape == v.data.shape:
        raise ShapeError(f"attention shapes disagree: {q.data.shape}, "
                         f"{k.data.shape}, {v.data.shape}")
    batch, seq, d = q.data.shape
    dh = d // num_heads

    def split(a):  # [B, T, d] -> [B, H, T, dh], a view
        return a.reshape(batch, seq, num_heads, dh).transpose(0, 2, 1, 3)

    def merge(a):  # [B, H, T, dh] -> [B, T, d]
        return a.transpose(0, 2, 1, 3).reshape(batch, seq, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(dh)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale + key_bias[:, None, None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    shared: dict[str, np.ndarray] = {}  # gradients that several inputs read

    def ctx_grad(g):  # C-contiguous, as both products read it
        if "ctx" not in shared:
            shared["ctx"] = np.ascontiguousarray(split(g))
        return shared["ctx"]

    def score_grad(g):  # gradient of the scaled q k^T, for q and k
        if "scores" not in shared:
            gp = np.matmul(ctx_grad(g), np.swapaxes(vh, -1, -2))
            shared["scores"] = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        return shared["scores"]

    return Tensor(merge(np.matmul(p, vh)), (
        (q, lambda g: merge(np.matmul(score_grad(g), kh))),
        (k, lambda g: merge(np.swapaxes(
            np.matmul(np.swapaxes(qh, -1, -2), score_grad(g)), -1, -2))),
        (v, lambda g: merge(np.matmul(np.swapaxes(p, -1, -2), ctx_grad(g))))))


def blend(frozen: Tensor, branch: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """frozen * w + branch * (1 - w), w = sigmoid(a - b) for 0-d a and b. a's
    gradient (sum g * frozen - sum g * branch) * w * (1 - w) is one value per
    row in a per-row backward, and b's is its negation."""
    shapes = [t.data.shape for t in (frozen, branch, a, b)]
    if shapes[0] != shapes[1] or shapes[2:] != [(), ()]:
        raise ShapeError(f"blend shapes disagree: {shapes}")
    s = 1.0 / (1.0 + np.exp(-(a.data - b.data)))
    w, v = float(s), float(1.0 - s)
    shared: dict[str, np.ndarray] = {}

    def weight_grad(g):
        if "a" not in shared:
            gf, gb = ((g * x.data).sum() if _rows is None else
                      (g * x.data).reshape(_rows, -1).sum(axis=1) for x in (frozen, branch))
            shared["a"] = (gf - gb) * s * (1.0 - s)
        return shared["a"]

    return Tensor(frozen.data * w + branch.data * v, (
        (frozen, lambda g: g * w), (branch, lambda g: g * v),
        (a, weight_grad), (b, lambda g: np.negative(weight_grad(g)))))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes disagree: {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data + b.data, ((a, _same), (b, _same)))


def scale(x: Tensor, s: float) -> Tensor:
    return Tensor(x.data * s, ((x, lambda g: g * s),))


def add_const(x: Tensor, c) -> Tensor:
    """Add a non-differentiable float or broadcastable array, e.g. the
    negated targets of the regression loss."""
    return Tensor(x.data + c, ((x, _same),))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return Tensor(x.data.reshape(shape), ((x, lambda g: g.reshape(old)),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm params must be ({d},)")
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp_x(g):
        # standard layernorm backward over the last axis
        gx_hat = g * gain.data
        m1 = gx_hat.sum(axis=-1, keepdims=True) / d
        m2 = (gx_hat * xhat).sum(axis=-1, keepdims=True) / d
        return inv * (gx_hat - m1 - xhat * m2)

    return Tensor(out, ((x, vjp_x),
                        (gain, lambda g: _rowwise(g * xhat, d).sum(axis=-2)),
                        (bias, lambda g: _rowwise(g, d).sum(axis=-2))))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes' erf (ndtr.c) on Cody's rational forms (Math. Comp. 23, 1969):
# x * T(x^2) / U(x^2) for |x| <= 1, else sign(x) * (1 - exp(-x^2) * P(|x|) /
# Q(|x|)). U and Q are monic; their leading 1 is not stored.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_CHUNK = 1 << 15  # elements per pass: its 1 MB of arrays stays in L2 cache


def _polevl(x: np.ndarray, coef: tuple[float, ...], out: np.ndarray,
            monic: bool = False) -> np.ndarray:
    """Cephes' polevl in its Horner order, ((coef[0] * x + coef[1]) * x + ...)
    + coef[-1], into out; monic is its p1evl, (x + coef[0]) * x + ..."""
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[2 - monic:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes' erf of float64 x, operation for operation (module docstring)."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    n = min(flat.size, _ERF_CHUNK)
    z, t, clipped = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for lo in range(0, flat.size, _ERF_CHUNK):
        xs, ys = flat[lo:lo + n], out[lo:lo + n]
        zs, ts, tail = z[:xs.size], t[:xs.size], clipped[:xs.size]
        np.clip(xs, -1.0, 1.0, out=ys)  # keeps x * x finite; the tail is redone below
        np.not_equal(ys, xs, out=tail)  # |x| > 1, or nan
        np.multiply(ys, ys, out=zs)
        ys *= _polevl(zs, _ERF_T, ts)
        ys /= _polevl(zs, _ERF_U, ts, monic=True)
        if tail.any():
            a = np.minimum(np.abs(xs[tail]), 8.0)  # from 8 on, 1 - erfc(a) rounds to 1.0
            e = np.exp(-(a * a))
            e *= _polevl(a, _ERF_P, np.empty_like(a))
            e /= _polevl(a, _ERF_Q, np.empty_like(a), monic=True)
            ys[tail] = np.copysign(1.0 - e, xs[tail])
    return out.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    phi = 0.5 * (1.0 + _erf(x.data / _SQRT2))

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        return g * (phi + x.data * pdf)

    return Tensor(x.data * phi, ((x, vjp),))


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

    def vjp(g):  # per row, ids' leading axis is the batch
        gw = np.zeros(weight.data.shape if _rows is None else (_rows,) + weight.data.shape)
        np.add.at(gw, ids if _rows is None else (np.indices(ids.shape, sparse=True)[0], ids), g)
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

"""Tape autodiff: forward values against scalar oracles, gradients against
central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spalmtl import autodiff as ad
from spalmtl.backbone import MASK_NEG
from spalmtl.errors import ContractError, ShapeError

from conftest import (attention_oracle, attention_weights, fd_gradient, graph_nodes,
                      grads_close, tsum)


# -- forward values ---------------------------------------------------------

def test_matmul_identity():
    a = np.arange(6.0).reshape(2, 3)
    out = ad.linear(ad.Tensor(a), ad.Tensor(np.eye(3)))
    assert np.array_equal(out.data, a)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    out = ad.linear(ad.Tensor(a), ad.Tensor(w), ad.Tensor(b)).data
    oracle = np.zeros((2, 3, 2))
    for r in range(2):
        for i in range(3):
            for j in range(2):
                oracle[r, i, j] = b[j]
                for k in range(4):
                    oracle[r, i, j] += a[r, i, k] * w[k, j]
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))),
                  ad.Tensor(np.zeros(3)))


def test_softmax_two_equal_logits():
    assert np.allclose(attention_weights(np.array([[0.0, 0.0]])), [0.5, 0.5], atol=1e-15)


def test_softmax_matches_scalar_oracle():
    x = np.array([1.0, 2.0, 3.0])
    out = attention_weights(x[None])[0]
    exps = [math.exp(v) for v in x]
    total = sum(exps)
    oracle = [e / total for e in exps]
    assert np.max(np.abs(out - np.array(oracle))) < 1e-12


def test_softmax_stable_at_large_logits():
    out = attention_weights(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_attention_matches_numpy_oracle_bit_for_bit():
    rng = np.random.default_rng(3)
    q, k, v = (rng.normal(size=(2, 4, 6)) for _ in range(3))
    key_bias = np.where([[True] * 4, [True, True, True, False]], 0.0, MASK_NEG)
    out = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), key_bias, 2).data
    assert out.tobytes() == attention_oracle(q, k, v, key_bias, 2).tobytes()


def test_cross_entropy_matches_log_softmax_oracle():
    z = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
    out = ad.cross_entropy(ad.Tensor(z), np.array([2, 0])).data
    oracle = [-math.log(math.exp(z[i, y]) / sum(math.exp(v) for v in z[i]))
              for i, y in enumerate([2, 0])]
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_gelu_exact_erf_values():
    x = np.array([-2.0, 0.0, 1.5])
    out = ad.gelu(ad.Tensor(x)).data
    oracle = x * 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in x]))
    assert np.max(np.abs(out - oracle)) < 1e-15


def test_layer_norm_normalizes():
    rng = np.random.default_rng(1)
    d = 8
    x = rng.normal(size=(3, d)) * 4 + 2
    out = ad.layer_norm(ad.Tensor(x), ad.Param(np.ones(d)), ad.Param(np.zeros(d))).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.std(axis=-1) - 1.0)) < 1e-6


# -- backward ---------------------------------------------------------------

def test_sum_gradient_is_ones():
    p = ad.Param(np.arange(6.0).reshape(2, 3))
    ad.backward(tsum(p))
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_zero_scale_gradient_is_zeros():
    p = ad.Param(np.arange(4.0))
    ad.backward(tsum(ad.scale(p, 0.0)))
    assert np.array_equal(p.grad, np.zeros(4))


def test_backward_rejects_non_scalar():
    with pytest.raises(ContractError):
        ad.backward(ad.Tensor(np.zeros(3)))


def test_gradients_accumulate_across_backward_calls():
    p = ad.Param(np.ones(2))
    ad.backward(tsum(p))
    ad.backward(tsum(p))
    assert np.array_equal(p.grad, 2 * np.ones(2))


def test_only_values_that_need_a_gradient_are_recorded():
    w = ad.Param(np.eye(2), name="w", trainable=False)
    x = ad.Param(np.ones((1, 2)), name="x")
    const = ad.linear(ad.Tensor(np.ones((1, 2))), w)
    assert not const.requires_grad and const._parents == ()
    y = ad.linear(x, w)
    assert y.requires_grad and [p for p, _ in y._parents] == [x]
    ad.backward(tsum(y))
    assert w.grad is None and np.array_equal(x.grad, [[1.0, 1.0]])
    with ad.no_graph():
        assert not ad.linear(x, w).requires_grad


def test_no_graph_nests_and_restores_after_an_exception():
    x = ad.Param(np.ones(2), name="x")

    def recorded():
        return ad.scale(x, 2.0).requires_grad

    with ad.no_graph():
        with ad.no_graph():
            assert not recorded()
        assert not recorded()
        with pytest.raises(KeyError):
            with ad.no_graph():
                raise KeyError("inside")
        assert not recorded()
    assert recorded()
    with pytest.raises(KeyError):
        with ad.no_graph():
            raise KeyError("inside")
    assert recorded()


def test_two_layer_network_finite_differences():
    rng = np.random.default_rng(2)
    w1 = ad.Param(rng.normal(size=(5, 4)), name="w1")
    b1 = ad.Param(rng.normal(size=4), name="b1")
    w2 = ad.Param(rng.normal(size=(4, 3)), name="w2")
    x = rng.normal(size=(2, 5))

    def forward():
        h = ad.gelu(ad.linear(ad.Tensor(x), w1, b1))
        return ad.tmean(ad.cross_entropy(ad.linear(h, w2), np.array([2, 0])))

    loss = forward()
    ad.backward(loss)
    for p in (w1, b1, w2):
        fd = fd_gradient(lambda: float(forward().data), p.data)
        assert grads_close(fd, p.grad), p.name


_PAD_LAST_KEY = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, MASK_NEG]])

# case -> (fixed seed, the inputs it is differentiated against, its output).
# Most linear and attention cases are named for the step they vary: matmul
# (2-D rows), matmul_shared ([B, T, k] rows), add_bias (2-D with a bias),
# matmul_batched (one head), transpose (four heads of width 1) and softmax
# (an uneven key bias).
OPS = {
    "matmul": (101, ("x", "w"), lambda t: ad.linear(t["x"], t["w"])),
    "matmul_shared": (126, ("xb", "w"), lambda t: ad.linear(t["xb"], t["w"])),
    "add_bias": (104, ("x", "w", "bn"), lambda t: ad.linear(t["x"], t["w"], t["bn"])),
    "linear": (128, ("xb", "w", "bn"), lambda t: ad.linear(t["xb"], t["w"], t["bn"])),
    "attention": (129, ("xb", "kb", "vb"), lambda t: ad.attention(
        t["xb"], t["kb"], t["vb"], _PAD_LAST_KEY, 2)),
    "matmul_batched": (102, ("xb", "kb", "vb"), lambda t: ad.attention(
        t["xb"], t["kb"], t["vb"], np.zeros((2, 3)), 1)),
    "transpose": (112, ("xb", "kb", "vb"), lambda t: ad.attention(
        t["xb"], t["kb"], t["vb"], np.zeros((2, 3)), 4)),
    "softmax": (113, ("xb", "kb", "vb"), lambda t: ad.attention(
        t["xb"], t["kb"], t["vb"], np.array([[0.5, -1.0, 2.0], [0.0, 1.5, -0.5]]), 2)),
    "add": (103, ("x", "y"), lambda t: ad.add(t["x"], t["y"])),
    "sub": (106, ("x", "y"), lambda t: ad.sub(t["x"], t["y"])),
    "scale": (107, ("x",), lambda t: ad.scale(t["x"], -1.7)),
    "add_const": (108, ("x",),
                  lambda t: ad.add_const(ad.add_const(t["x"], 0.3), np.arange(4.0))),
    "scale_by_scalar": (109, ("x", "s"), lambda t: ad.scale_by_scalar(t["x"], t["s"])),
    "one_minus": (110, ("x",), lambda t: ad.one_minus(t["x"])),
    "reshape": (111, ("x",), lambda t: ad.reshape(t["x"], (2, 6))),
    "layer_norm": (114, ("x", "gain", "bias"),
                   lambda t: ad.layer_norm(t["x"], t["gain"], t["bias"])),
    "gelu": (115, ("x",), lambda t: ad.gelu(t["x"])),
    "sigmoid": (116, ("x",), lambda t: ad.sigmoid(t["x"])),
    "square": (118, ("x",), lambda t: ad.square(t["x"])),
    "cross_entropy": (127, ("xb",),
                      lambda t: ad.cross_entropy(t["xb"], np.array([[0, 3, 1], [2, 2, 0]]))),
    "embedding": (119, ("x",), lambda t: ad.embedding(t["x"], np.array([2, 0, 2]))),
    "pick": (120, ("x",), lambda t: ad.pick(t["x"], np.array([1, 3, 0]))),
    "pick_rows": (121, ("xb",), lambda t: ad.pick(t["xb"], np.array([2, 0]))),
    "masked_mean": (122, ("xb",), lambda t: ad.masked_mean_rows(
        t["xb"], np.array([[True, False, True], [False, True, False]]))),
    "tmean": (124, ("x",), lambda t: ad.tmean(t["x"])),
}


def _op_inputs(op, frozen=()):
    """The op's inputs, drawn from its fixed seed; ``frozen`` ones untrainable."""
    rng = np.random.default_rng(OPS[op][0])
    arrays = {
        "x": rng.normal(size=(3, 4)),
        "y": rng.normal(size=(3, 4)),
        "w": rng.normal(size=(4, 2)),
        "bn": rng.normal(size=2),
        "xb": rng.normal(size=(2, 3, 4)),
        "kb": rng.normal(size=(2, 3, 4)),
        "vb": rng.normal(size=(2, 3, 4)),
        "gain": rng.normal(size=4) + 1.0,
        "bias": rng.normal(size=4),
        "s": np.array(0.7),
    }
    return {k: ad.Param(v, name=k, trainable=k not in frozen) for k, v in arrays.items()}


def _op_loss(op, t):
    return ad.tmean(ad.square(OPS[op][2](t)))


def test_every_op_has_a_finite_difference_case():
    aliases = {"matmul": "linear", "matmul_shared": "linear", "add_bias": "linear",
               "matmul_batched": "attention", "transpose": "attention",
               "softmax": "attention", "pick_rows": "pick",
               "masked_mean": "masked_mean_rows"}
    ops = set(ad.__all__) - {"Tensor", "Param", "backward", "no_graph"}
    assert {aliases.get(op, op) for op in OPS} == ops


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_finite_differences(op):
    t = _op_inputs(op)
    ad.backward(_op_loss(op, t))
    for name in OPS[op][1]:
        p = t[name]
        fd = fd_gradient(lambda: float(_op_loss(op, t).data), p.data)
        assert grads_close(fd, p.grad), f"{op}/{name}"


@pytest.mark.parametrize("op", sorted(op for op, case in OPS.items() if len(case[1]) > 1))
def test_frozen_input_changes_no_other_gradient(op):
    full = _op_inputs(op)
    ad.backward(_op_loss(op, full))
    for frozen in OPS[op][1]:
        t = _op_inputs(op, frozen=(frozen,))
        ad.backward(_op_loss(op, t))
        assert t[frozen].grad is None, f"{op}/{frozen}"
        for name in set(OPS[op][1]) - {frozen}:
            assert np.array_equal(t[name].grad, full[name].grad), f"{op}/{name}"


def test_vjp_runs_only_for_inputs_that_need_a_gradient():
    calls = []

    def vjp(name):
        def f(g):
            calls.append(name)
            return g
        return f

    x = ad.Param(np.ones(2), name="x")
    w = ad.Param(np.ones(2), name="w", trainable=False)
    c = ad.Tensor(np.ones(2))
    pairs = ((x, vjp("x")), (w, vjp("w")), (c, vjp("c")))
    y = ad.Tensor(x.data + w.data + c.data, pairs)
    assert [p for p, _ in y._parents] == [x]
    ad.backward(tsum(y))
    assert calls == ["x"] and w.grad is None and c.grad is None
    with ad.no_graph():
        assert ad.Tensor(x.data, pairs)._parents == ()


def test_deep_chain_exceeds_recursion_limit():
    import sys
    depth = sys.getrecursionlimit() + 500
    p = ad.Param(np.array(1.0))
    node = p
    for _ in range(depth):
        node = ad.add_const(node, 0.0)
    ad.backward(ad.reshape(node, ()))
    assert float(p.grad) == 1.0


# -- a consumed graph ---------------------------------------------------------

def _zero_fill_grads(loss):
    """Reference backward that leaves the graph intact: each gradient starts
    as zeros_like(data) and every share adds in place."""
    grads = {id(loss): np.zeros_like(loss.data) + 1.0}
    for node in reversed(graph_nodes(loss)):
        for p, vjp in node._parents:
            grads.setdefault(id(p), np.zeros_like(p.data))
            grads[id(p)] += vjp(grads[id(node)])
    return grads


def _param(seed, shape):
    return ad.Param(np.random.default_rng(seed).normal(size=shape), name=f"p{seed}")


def test_backward_consumes_every_non_param_node():
    x, w = _param(0, (3, 4)), _param(1, (4, 2))
    h = ad.gelu(ad.linear(x, w))
    loss = ad.tmean(ad.square(ad.add(h, h)))
    nodes = graph_nodes(loss)
    ad.backward(loss)
    inner = [n for n in nodes if not isinstance(n, ad.Param)]
    assert len(inner) == 5
    assert all(n.grad is None and n._parents is None for n in inner)
    assert x.grad is not None and w.grad is not None


def test_consumed_graph_refuses_a_second_backward_and_new_ops():
    x = _param(0, (3,))
    h = ad.sigmoid(x)
    loss = ad.tmean(h)
    ad.backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        ad.backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        ad.scale(h, 2.0)
    with ad.no_graph():
        assert np.array_equal(ad.scale(h, 2.0).data, h.data * 2.0)
    ad.backward(ad.tmean(ad.sigmoid(x)))  # a new graph over the same Param
    assert np.allclose(x.grad, 2 * h.data * (1 - h.data) / 3)


def _aliased_same_input(x):
    return ad.tmean(ad.square(ad.add(x, x)))


def _aliased_shared_inputs(x):
    a, b = ad.scale(x, 1.5), ad.sigmoid(x)
    s, t = ad.add(a, b), ad.add(ad.square(a), ad.gelu(b))
    return ad.tmean(ad.square(ad.add(s, t)))


def _aliased_views(x):
    t = ad.reshape(x, (4, 3))
    r = ad.reshape(t, (2, 6))
    w = ad.Tensor(np.random.default_rng(5).normal(size=(3, 2)))
    return ad.add(ad.tmean(ad.square(r)), ad.tmean(ad.square(ad.linear(t, w))))


def _broadcast_mean(x):
    return ad.tmean(ad.sigmoid(ad.reshape(x, (12,))))


@pytest.mark.parametrize("build", [_aliased_same_input, _aliased_shared_inputs,
                                   _aliased_views, _broadcast_mean])
def test_param_gradients_match_a_zero_fill_reference_bit_for_bit(build):
    x = _param(3, (3, 4))
    loss = build(x)
    ref = _zero_fill_grads(loss)[id(x)]
    ad.backward(loss)
    assert x.grad.tobytes() == ref.tobytes()


def test_first_gradient_of_a_transposed_view_keeps_its_layout():
    p = ad.Param(np.random.default_rng(0).normal(size=(4, 3)).T)
    ad.backward(ad.tmean(ad.square(ad.linear(p, ad.Tensor(np.ones((4, 2)))))))
    # backward drops an intermediate's grad, so this one is fed directly
    t = ad.Tensor(_param(1, (3, 4)).data.T)
    t.accumulate(np.ones((4, 3)))
    for node in (p, t):
        assert not node.data.flags.c_contiguous
        assert node.grad.strides == np.zeros_like(node.data).strides


# -- properties -------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    out = attention_weights(np.array(rows))
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
    assert (out >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_matmul_gradient_property(seed):
    rng = np.random.default_rng(seed)
    a = ad.Param(rng.normal(size=(2, 2, 3)), name="a")
    b = ad.Param(rng.normal(size=(3, 2)), name="b")
    c = ad.Param(rng.normal(size=2), name="c")

    def forward():
        return tsum(ad.square(ad.linear(a, b, c)))

    ad.backward(forward())
    for p in (a, b, c):
        fd = fd_gradient(lambda: float(forward().data), p.data)
        assert grads_close(fd, p.grad)

"""Tape autodiff: forward values against scalar oracles, gradients against
central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spalmtl import autodiff as ad
from spalmtl.errors import ContractError, ShapeError

from conftest import fd_gradient, grads_close


# -- forward values ---------------------------------------------------------

def test_matmul_identity():
    a = np.arange(6.0).reshape(2, 3)
    out = ad.matmul(ad.Tensor(a), ad.Tensor(np.eye(3)))
    assert np.array_equal(out.data, a)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
    oracle = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                oracle[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


def test_softmax_two_equal_logits():
    out = ad.softmax_rows(ad.Tensor(np.array([0.0, 0.0])))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_matches_scalar_oracle():
    x = np.array([1.0, 2.0, 3.0])
    out = ad.softmax_rows(ad.Tensor(x)).data
    exps = [math.exp(v) for v in x]
    total = sum(exps)
    oracle = [e / total for e in exps]
    assert np.max(np.abs(out - np.array(oracle))) < 1e-12


def test_softmax_stable_at_large_logits():
    out = ad.softmax_rows(ad.Tensor(np.array([1000.0, 0.0]))).data
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-12


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
    ad.backward(ad.tsum(p))
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_zero_scale_gradient_is_zeros():
    p = ad.Param(np.arange(4.0))
    ad.backward(ad.tsum(ad.scale(p, 0.0)))
    assert np.array_equal(p.grad, np.zeros(4))


def test_backward_rejects_non_scalar():
    with pytest.raises(ContractError):
        ad.backward(ad.Tensor(np.zeros(3)))


def test_gradients_accumulate_across_backward_calls():
    p = ad.Param(np.ones(2))
    ad.backward(ad.tsum(p))
    ad.backward(ad.tsum(p))
    assert np.array_equal(p.grad, 2 * np.ones(2))


def test_only_values_that_need_a_gradient_are_recorded():
    w = ad.Param(np.eye(2), name="w", trainable=False)
    x = ad.Param(np.ones((1, 2)), name="x")
    const = ad.matmul(ad.Tensor(np.ones((1, 2))), w)
    assert not const.requires_grad and const._parents == ()
    y = ad.matmul(x, w)
    assert y.requires_grad and y._parents == (x,)
    ad.backward(ad.tsum(y))
    assert w.grad is None and np.array_equal(x.grad, [[1.0, 1.0]])
    with ad.no_graph():
        assert not ad.matmul(x, w).requires_grad


def test_two_layer_network_finite_differences():
    rng = np.random.default_rng(2)
    w1 = ad.Param(rng.normal(size=(5, 4)), name="w1")
    b1 = ad.Param(rng.normal(size=4), name="b1")
    w2 = ad.Param(rng.normal(size=(4, 3)), name="w2")
    x = rng.normal(size=(2, 5))

    def forward():
        h = ad.gelu(ad.add_bias(ad.matmul(ad.Tensor(x), w1), b1))
        out = ad.softmax_rows(ad.matmul(h, w2))
        return ad.tmean(ad.square(ad.add_const(out, -0.3)))

    loss = forward()
    ad.backward(loss)
    for p in (w1, b1, w2):
        fd = fd_gradient(lambda: float(forward().data), p.data)
        assert grads_close(fd, p.grad), p.name


@pytest.mark.parametrize("op", ["sigmoid", "layer_norm", "masked_mean", "softmax",
                                "pick", "embedding", "scale_by_scalar"])
def test_op_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    x = ad.Param(rng.normal(size=(3, 4)), name="x")
    gain = ad.Param(rng.normal(size=4) + 1.0, name="g")
    bias = ad.Param(rng.normal(size=4), name="b")
    s = ad.Param(np.array(0.7), name="s")
    mask = np.array([True, False, True])
    idx = np.array([1, 3, 0])
    ids = np.array([2, 0, 2])

    def forward():
        if op == "sigmoid":
            y = ad.sigmoid(x)
        elif op == "layer_norm":
            y = ad.layer_norm(x, gain, bias)
        elif op == "masked_mean":
            y = ad.masked_mean_rows(x, mask)
        elif op == "softmax":
            y = ad.softmax_rows(x)
        elif op == "pick":
            y = ad.pick(x, idx)
        elif op == "embedding":
            y = ad.embedding(x, ids)
        else:
            y = ad.scale_by_scalar(x, s)
        return ad.tmean(ad.square(y))

    loss = forward()
    ad.backward(loss)
    params = {"x": x}
    if op == "layer_norm":
        params.update(g=gain, b=bias)
    if op == "scale_by_scalar":
        params["s"] = s
    for name, p in params.items():
        fd = fd_gradient(lambda: float(forward().data), p.data)
        assert grads_close(fd, p.grad), f"{op}/{name}"


def test_deep_chain_exceeds_recursion_limit():
    import sys
    depth = sys.getrecursionlimit() + 500
    p = ad.Param(np.array(1.0))
    node = p
    for _ in range(depth):
        node = ad.add_const(node, 0.0)
    ad.backward(ad.reshape(node, ()))
    assert float(p.grad) == 1.0


# -- properties -------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    out = ad.softmax_rows(ad.Tensor(np.array(rows))).data
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
    assert (out >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_matmul_gradient_property(seed):
    rng = np.random.default_rng(seed)
    a = ad.Param(rng.normal(size=(2, 3)), name="a")
    b = ad.Param(rng.normal(size=(3, 2)), name="b")

    def forward():
        return ad.tsum(ad.square(ad.matmul(a, b)))

    ad.backward(forward())
    for p in (a, b):
        fd = fd_gradient(lambda: float(forward().data), p.data)
        assert grads_close(fd, p.grad)

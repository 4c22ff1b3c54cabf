"""Tape autodiff: forward values against scalar oracles, gradients against
central finite differences."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from spalmtl import autodiff as ad
from spalmtl.backbone import MASK_NEG, TOY
from spalmtl.errors import ContractError, ShapeError
from spalmtl.model import MtlModel
from spalmtl.tasks import head_forward, task_loss

from conftest import (attention_oracle, attention_weights, fd_gradient, graph_nodes,
                      grads_close, per_example_grads, tsum, two_task_suite)


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


@pytest.mark.parametrize("shapes", [((2, 3), (3, 2), (), ()), ((2, 3), (2, 3), (1,), ())],
                         ids=["branches", "scalar"])
def test_blend_shape_mismatch(shapes):
    with pytest.raises(ShapeError, match="blend shapes disagree"):
        ad.blend(*(ad.Tensor(np.zeros(shape)) for shape in shapes))


@pytest.mark.parametrize("rows", [None, 2], ids=["whole", "per_row"])
def test_blend_repeats_the_composed_float_operations(rows):
    """blend's value and a's and b's gradients hold the bits of the ops it
    fuses: sigmoid(a - b) = s, frozen * s + branch * (1 - s), and a gradient
    on s that sums frozen's share and branch's negated share before the
    sigmoid's g * s * (1 - s); per row in a per-row backward."""
    rng = np.random.default_rng(7)
    frozen, branch = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    a, b = ad.Param(np.array(0.3), name="a"), ad.Param(np.array(-1.1), name="b")
    out = ad.blend(ad.Tensor(frozen), ad.Tensor(branch), a, b)
    ad.backward(tsum(out), rows=rows)  # the blend's gradient is all ones
    s = 1.0 / (1.0 + np.exp(-(a.data - b.data)))
    assert out.data.tobytes() == (frozen * float(s) + branch * float(1.0 - s)).tobytes()
    gf, gb = (x.sum() if rows is None else x.reshape(rows, -1).sum(axis=1)
              for x in (frozen, branch))
    want = (gf + np.negative(gb)) * s * (1.0 - s)
    assert a.grad.shape == np.shape(want) == (() if rows is None else (rows,))
    assert a.grad.tobytes() == want.tobytes()
    assert b.grad.tobytes() == np.negative(want).tobytes()


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


def test_erf_equals_scipy_bit_for_bit_within_unit_interval():
    rng = np.random.default_rng(11)
    grid = np.linspace(-1.0, 1.0, 400_001)
    draws = rng.uniform(-1.0, 1.0, size=(300, 1000))  # 2-D, several chunks
    for x in (grid, draws, np.nextafter(grid, 0.0)):
        assert ad._erf(x).shape == x.shape
        assert ad._erf(x).tobytes() == erf(x).tobytes()


def test_erf_beyond_unit_interval_within_one_ulp_of_scipy():
    # Cephes' tail goes through exp, where numpy's and libm's may differ by an ulp
    rng = np.random.default_rng(12)
    wide = np.concatenate([np.linspace(-10.0, 10.0, 400_001), rng.normal(size=200_000)])
    assert np.abs(ad._erf(wide).view(np.int64) - erf(wide).view(np.int64)).max() <= 1


@pytest.mark.parametrize("value", [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, math.inf, -math.inf,
                                   math.nan, 1e-300, -1e-300, 1e200, -1e200])
def test_erf_special_values(value):
    x = np.array([value])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad._erf(x)
    if math.isnan(value):
        assert math.isnan(out[0])
    else:
        assert out[0].hex() == erf(x)[0].hex()  # sign of zero, and ±1.0 from |x| >= 8


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


def test_backward_of_a_loss_that_needs_no_gradient_is_a_no_op():
    w = ad.Param(np.eye(2), name="w", trainable=False)
    x = ad.Param(np.ones((1, 2)), name="x")
    frozen = tsum(ad.linear(ad.Tensor(np.ones((1, 2))), w))
    with ad.no_graph():
        untracked = tsum(ad.linear(x, w))
    for loss in (frozen, untracked):
        assert not loss.requires_grad
        ad.backward(loss)
    assert w.grad is None and x.grad is None


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
    "blend": (106, ("x", "y", "s", "r"),
              lambda t: ad.blend(t["x"], t["y"], t["s"], t["r"])),
    "scale": (107, ("x",), lambda t: ad.scale(t["x"], -1.7)),
    "add_const": (108, ("x",),
                  lambda t: ad.add_const(ad.add_const(t["x"], 0.3), np.arange(4.0))),
    "reshape": (111, ("x",), lambda t: ad.reshape(t["x"], (2, 6))),
    "layer_norm": (114, ("x", "gain", "bias"),
                   lambda t: ad.layer_norm(t["x"], t["gain"], t["bias"])),
    "gelu": (115, ("x",), lambda t: ad.gelu(t["x"])),
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
        "r": np.array(-0.4),
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


# -- per-row backward -------------------------------------------------------

@pytest.mark.parametrize("kind, frozen", [
    ("seq_regression", True), ("seq_classification", True),
    ("token_classification", True), ("seq_classification", False)],
    ids=["regression", "classification", "tagging", "unfrozen"])
def test_per_row_backward_matches_one_example_oracle(kind, frozen):
    """Row b of each trainable param's grad is example b's loss gradient, on
    a probed toy model and a batch of mixed lengths (padded rows). Unfrozen,
    the backbone's embedding and layer_norm params get per-row grads too.

    Each param's grad is held to 1e-12 of its norm, plus 1e-15 of the whole
    gradient's norm for round-off: two grads are sums whose terms cancel
    almost exactly. The attention key biases' exact gradient is zero (a
    shift of every key score leaves the softmax unchanged), and layer 0's
    probe scalars feed a layer_norm, which cancels all but about 1e-5 of
    their sum."""
    data = two_task_suite(kind=kind, num_classes=1 if kind == "seq_regression" else 3)
    spec, examples = data["alpha"].spec, data["alpha"].train[:6]
    assert len({ex.token_ids.size for ex in examples}) > 1
    model = MtlModel.build(TOY, [spec], spal_hidden=4, seed=5,
                           freeze_backbone=frozen, probe=True)
    rng = np.random.default_rng(0)
    for p in model.trunk_params().values():  # off the zero init, so every grad is nonzero
        if p.name.endswith(".up") or p.name.startswith("probe."):
            p.data = rng.normal(0.0, 0.5, p.data.shape)
    want = per_example_grads(model, spec, examples)

    logits = head_forward(model.encode_examples(examples), model.heads[spec.id])
    loss = task_loss(spec, logits, [ex.label for ex in examples])
    ad.backward(ad.scale(loss, len(examples)), rows=len(examples))
    got = {k: p.grad for k, p in model.all_params().items() if p.trainable}
    assert got.keys() == want[0].keys()
    assert ("backbone.word_emb" in got) != frozen
    for b, grads in enumerate(want):
        whole = np.linalg.norm(np.concatenate([g.ravel() for g in grads.values()]))
        for k, g in got.items():
            assert g.shape == (len(examples),) + grads[k].shape
            err = np.linalg.norm(g[b] - grads[k])
            assert err <= 1e-12 * np.linalg.norm(grads[k]) + 1e-15 * whole, (k, b)


def test_per_row_backward_refuses_a_param_without_a_per_row_rule():
    p = ad.Param(np.ones((2, 3)), name="no.rule")
    with pytest.raises(ContractError, match="no.rule"):
        ad.backward(tsum(ad.square(p)), rows=2)


def test_per_row_backward_refuses_a_row_count_that_is_not_the_batch():
    x, w = ad.Tensor(np.ones((4, 3))), _param(1, (3, 2))
    with pytest.raises(ShapeError, match="2 rows met a batch of 4"):
        ad.backward(tsum(ad.linear(x, w)), rows=2)


def test_per_row_mode_ends_when_a_vjp_raises():
    """Outside a backward, a vjp gives the whole batch's share again."""
    w = _param(1, (4, 2))
    (_, w_vjp), = ad.linear(ad.Tensor(np.ones((3, 4))), w)._parents

    def broken(g):
        raise KeyError("vjp")

    with pytest.raises(KeyError):
        ad.backward(ad.Tensor(np.zeros(()), ((w, broken),)), rows=3)
    assert np.array_equal(w_vjp(np.ones((3, 2))), np.full((4, 2), 3.0))


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
    h = ad.gelu(x)
    loss = ad.tmean(h)
    ad.backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        ad.backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        ad.scale(h, 2.0)
    with ad.no_graph():
        assert np.array_equal(ad.scale(h, 2.0).data, h.data * 2.0)
    ad.backward(ad.tmean(ad.gelu(x)))  # a new graph over the same Param
    cdf = 0.5 * (1 + erf(x.data / math.sqrt(2)))
    pdf = np.exp(-x.data ** 2 / 2) / math.sqrt(2 * math.pi)
    assert np.allclose(x.grad, 2 * (cdf + x.data * pdf) / 3)  # gelu' = cdf + x * pdf


def _aliased_same_input(x):
    return ad.tmean(ad.square(ad.add(x, x)))


def _aliased_shared_inputs(x):
    a, b = ad.scale(x, 1.5), ad.gelu(x)
    s, t = ad.add(a, b), ad.add(ad.square(a), ad.gelu(b))
    return ad.tmean(ad.square(ad.add(s, t)))


def _aliased_views(x):
    t = ad.reshape(x, (4, 3))
    r = ad.reshape(t, (2, 6))
    w = ad.Tensor(np.random.default_rng(5).normal(size=(3, 2)))
    return ad.add(ad.tmean(ad.square(r)), ad.tmean(ad.square(ad.linear(t, w))))


def _broadcast_mean(x):
    return ad.tmean(ad.gelu(ad.reshape(x, (12,))))


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

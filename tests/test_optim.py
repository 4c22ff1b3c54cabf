"""AdamW schedule fixed points and a scalar hand-oracle for the update."""

import math

import numpy as np
import pytest

from spalmtl.autodiff import Param
from spalmtl.errors import ContractError
from spalmtl.optim import BETA1, BETA2, EPS, OptimizerState, adamw_step, lr_at


def test_schedule_fixed_points():
    state = OptimizerState(total_steps=10000)
    assert lr_at(0, state) == 0.0
    assert lr_at(500, state) == pytest.approx(5e-5, abs=0)
    assert lr_at(10000, state) == 0.0
    assert lr_at(10001, state) == 0.0


def test_schedule_is_piecewise_linear():
    state = OptimizerState(total_steps=1000, base_lr=1e-3, warmup_steps=100)
    assert lr_at(50, state) == pytest.approx(0.5e-3)
    assert lr_at(550, state) == pytest.approx(0.5e-3)
    with pytest.raises(ContractError):
        lr_at(-1, state)


def test_frozen_param_bit_identical():
    p = Param(np.array([1.0, 2.0, 3.0]), name="p", trainable=False)
    before = p.data.copy()
    p.grad = np.ones(3)
    adamw_step([p], OptimizerState(total_steps=10))
    assert np.array_equal(p.data, before)


def test_zero_grad_zero_decay_unchanged():
    p = Param(np.array([1.0, -2.0]), name="p")
    p.grad = np.zeros(2)
    before = p.data.copy()
    adamw_step([p], OptimizerState(total_steps=10, weight_decay=0.0))
    assert np.array_equal(p.data, before)


def test_missing_gradient_is_contract_error():
    p = Param(np.array([1.0]), name="p")
    with pytest.raises(ContractError):
        adamw_step([p], OptimizerState(total_steps=10))


def test_single_step_matches_scalar_oracle():
    theta, g = 0.3, 0.7
    lr0, b1, b2, eps, wd = 2e-3, 0.9, 0.999, 1e-8, 0.01
    state = OptimizerState(total_steps=100, base_lr=lr0, warmup_steps=10,
                           weight_decay=wd)
    p = Param(np.array(theta), name="p")
    p.grad = np.array(g)
    adamw_step([p], state)

    # hand-rolled scalar AdamW, step t=1, lr from warmup
    lr = lr0 * 1 / 10
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    expected = theta - lr * (mhat / (math.sqrt(vhat) + eps) + wd * theta)
    assert float(p.data) == pytest.approx(expected, abs=1e-12)


def test_three_steps_match_scalar_oracle():
    lr0, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 0.05
    grads = [0.5, -1.2, 0.1]
    state = OptimizerState(total_steps=3, base_lr=lr0, warmup_steps=0,
                           weight_decay=wd)
    p = Param(np.array(1.0), name="p")
    theta, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.array(g)
        adamw_step([p], state)
        lr = lr0 * (3 - t) / 3
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * ((m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
                       + wd * theta)
        assert float(p.data) == pytest.approx(theta, abs=1e-12)


def test_moment_buffers_keyed_by_name():
    state = OptimizerState(total_steps=10)
    p = Param(np.zeros(2), name="layer.w")
    p.grad = np.ones(2)
    adamw_step([p], state)
    assert set(state.m) == {"layer.w"}
    assert state.m["layer.w"].shape == (2,)
    assert state.step == 1


def test_in_place_update_keeps_the_bits_of_the_plain_formula():
    """Five steps through warmup into decay, with weight decay, over params of
    several shapes: every byte of every param and moment equals the formula
    written with temporaries."""
    rng = np.random.default_rng(4)
    shapes = [(), (3,), (4, 5), (2, 3, 4)]
    params = [Param(rng.normal(size=s), name=f"p{i}") for i, s in enumerate(shapes)]
    ref = {p.name: [p.data.copy(), np.zeros(p.data.shape), np.zeros(p.data.shape)]
           for p in params}
    state = OptimizerState(total_steps=6, base_lr=3e-2, warmup_steps=2, weight_decay=0.05)
    for t in range(1, 6):
        lr, bc1, bc2 = lr_at(t, state), 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        for p in params:
            p.grad = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-6, 3)
            data, m, v = ref[p.name]
            m[...] = BETA1 * m + (1.0 - BETA1) * p.grad
            v[...] = BETA2 * v + (1.0 - BETA2) * (p.grad * p.grad)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            data -= lr * (update + state.weight_decay * data)
        adamw_step(params, state)
        for p in params:
            data, m, v = ref[p.name]
            assert p.data.tobytes() == data.tobytes()
            assert state.m[p.name].tobytes() == m.tobytes()
            assert state.v[p.name].tobytes() == v.tobytes()

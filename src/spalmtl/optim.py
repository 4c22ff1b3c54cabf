"""AdamW with linear warmup / linear decay.

Decoupled weight decay, beta=(0.9, 0.999), eps=1e-8. Only the learning rate,
warmup length and weight decay are exposed knobs, defaulting to `DEFAULT_*`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Param
from .errors import ContractError

DEFAULT_BASE_LR = 5e-5
DEFAULT_WARMUP_STEPS = 500
DEFAULT_WEIGHT_DECAY = 0.01
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimizerState:
    """Moment buffers plus schedule bookkeeping for AdamW."""

    total_steps: int
    base_lr: float = DEFAULT_BASE_LR
    warmup_steps: int = DEFAULT_WARMUP_STEPS
    weight_decay: float = DEFAULT_WEIGHT_DECAY
    step: int = 0
    # keyed by param name; populated lazily
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def lr_at(step: int, state: OptimizerState) -> float:
    """Linear warmup from 0 to base_lr, then linear decay to 0 at total_steps."""
    if step < 0:
        raise ContractError(f"negative step {step}")
    if step > state.total_steps:
        return 0.0
    if state.warmup_steps > 0 and step < state.warmup_steps:
        return state.base_lr * step / state.warmup_steps
    denom = max(state.total_steps - state.warmup_steps, 1)
    return state.base_lr * (state.total_steps - step) / denom


def adamw_step(params: list[Param], state: OptimizerState) -> None:
    """One optimizer step over the trainable members of ``params``.

    Frozen params are left bit-identical. A trainable param with no gradient
    is a contract violation: the caller forgot to run backward.
    """
    state.step += 1
    t = state.step
    lr = lr_at(t, state)
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p in params:
        if not p.trainable:
            continue
        if p.grad is None:
            raise ContractError(f"trainable param {p.name!r} has no gradient")
        key = p.name
        m = state.m.get(key)
        if m is None:
            m = state.m[key] = np.zeros_like(p.data)
        v = state.v.get(key)
        if v is None:
            v = state.v[key] = np.zeros_like(p.data)
        # in place through two scratch buffers, bit for bit (products commute)
        # p.data -= lr * ((m / bc1) / (sqrt(v / bc2) + EPS) + wd * p.data)
        a, b = np.empty_like(p.data), np.empty_like(p.data)
        np.multiply(p.grad, 1.0 - BETA1, out=a)
        m *= BETA1
        m += a
        np.multiply(p.grad, p.grad, out=a)
        a *= 1.0 - BETA2
        v *= BETA2
        v += a
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        np.divide(m, bc1, out=a)
        a /= b
        np.multiply(p.data, state.weight_decay, out=b)
        b += a
        b *= lr
        p.data -= b

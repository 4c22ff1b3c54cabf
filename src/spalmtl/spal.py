"""Shared parallel attention layers: a low-rank attention branch per encoder
layer, shared across all tasks.

Each layer is down_proj (d x h) -> multi-head attention in the h-dim space
(q, k, v, o all h x h) -> up_proj (h x d), no biases anywhere, so the
trainable cost per layer is exactly 4h^2 + 2hd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .backbone import Backbone, BackboneConfig, backbone_param_count, multi_head_attention
from .errors import ConfigError


@dataclass(frozen=True)
class SpalConfig:
    """The SPAL width h; the attention heads are the backbone's."""

    hidden_size: int

    def __post_init__(self):
        if self.hidden_size <= 0:
            raise ConfigError(f"spal_hidden must be positive, got {self.hidden_size}")


class SpalStack:
    """One SPAL per backbone layer; exactly one stack per model."""

    def __init__(self, config: SpalConfig, num_heads: int, params: dict[str, Param]):
        self.config = config
        self.num_heads = num_heads
        self.params = params

    def forward(self, layer: int, x: Tensor, mask: np.ndarray) -> Tensor:
        p = self.params
        pre = f"spal.layer{layer}"
        down = ad.matmul(x, p[f"{pre}.down"])
        attn = multi_head_attention(
            down, mask, self.num_heads,
            p[f"{pre}.q"], None, p[f"{pre}.k"], None,
            p[f"{pre}.v"], None, p[f"{pre}.o"], None)
        return ad.matmul(attn, p[f"{pre}.up"])


def attach_spals(backbone: Backbone, config: SpalConfig, seed: int) -> SpalStack:
    """Build one SPAL per backbone layer, all trainable.

    up_proj starts at zero so a fresh stack is an exact additive identity on
    the frozen encoder; the remaining projections use scaled-normal init.
    """
    count_spal_params(config, backbone.config)  # checks h against the heads
    rng = np.random.default_rng(seed)
    d = backbone.config.model_dim
    h = config.hidden_size
    std = 0.02
    params: dict[str, Param] = {}
    for i in range(backbone.config.num_layers):
        pre = f"spal.layer{i}"
        params[f"{pre}.down"] = Param(rng.normal(0.0, std, (d, h)), name=f"{pre}.down")
        for proj in ("q", "k", "v", "o"):
            params[f"{pre}.{proj}"] = Param(
                rng.normal(0.0, std, (h, h)), name=f"{pre}.{proj}")
        params[f"{pre}.up"] = Param(np.zeros((h, d)), name=f"{pre}.up")
    return SpalStack(config, backbone.config.num_heads, params)


def count_spal_params(config: SpalConfig, backbone: BackboneConfig) -> int:
    """L * (4h^2 + 2hd): four h x h attention projections plus down/up.
    Each SPAL attends with the backbone's heads, so they must divide h."""
    if config.hidden_size % backbone.num_heads != 0:
        raise ConfigError(
            f"spal_hidden {config.hidden_size} not divisible by the backbone's "
            f"num_heads {backbone.num_heads}")
    h, d = config.hidden_size, backbone.model_dim
    return backbone.num_layers * (4 * h * h + 2 * h * d)


def capacity_fraction(config: SpalConfig, backbone: BackboneConfig) -> float:
    """Trainable SPAL parameters as a fraction of total backbone parameters."""
    return count_spal_params(config, backbone) / backbone_param_count(backbone)

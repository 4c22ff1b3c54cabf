"""Toy BERT-style encoder: embeddings + L post-norm transformer layers.

Every layer's output is exposed so downstream diagnostics can inspect
intermediate representations. A global freeze switch flips the trainable
flag on every backbone parameter without touching SPALs or heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .errors import ConfigError, ContractError, DataError

if TYPE_CHECKING:
    from .spal import SpalStack
    from .model import ProbeWeights

MASK_NEG = -1e30


@dataclass(frozen=True)
class BackboneConfig:
    num_layers: int = 2
    model_dim: int = 64
    num_heads: int = 4
    ff_dim: int = 256
    vocab_size: int = 1000
    max_seq_len: int = 128
    padding_token_id: int = 0

    def __post_init__(self):
        for f in ("num_layers", "model_dim", "num_heads", "ff_dim",
                  "vocab_size", "max_seq_len"):
            if getattr(self, f) <= 0:
                raise ConfigError(f"BackboneConfig.{f} must be positive")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")


# d=768, L=12, H=12 matches the BERT-base geometry the architecture replicates.
BERT_BASE = BackboneConfig(
    num_layers=12, model_dim=768, num_heads=12, ff_dim=3072,
    vocab_size=30522, max_seq_len=512)

TOY = BackboneConfig(
    num_layers=2, model_dim=32, num_heads=4, ff_dim=64,
    vocab_size=256, max_seq_len=32)

PRESETS = {"bert-base": BERT_BASE, "toy": TOY}


@dataclass
class Encoding:
    """Per-layer [B, T, d] outputs of one forward pass over a padded batch."""

    per_layer_outputs: list[Tensor]
    attention_mask: np.ndarray  # [B, T], True at non-padding positions

    def final(self) -> Tensor:
        return self.per_layer_outputs[-1]

    def pooled_first(self) -> Tensor:
        """[B, d]: each row's first non-padding position of the final layer."""
        return ad.pick(self.final(), self.attention_mask.argmax(axis=1))

    def pooled_mean(self, layer: int) -> Tensor:
        """[B, d]: each row's mean over its non-padding positions of the
        given layer (1-based, 1..L)."""
        if not 1 <= layer <= len(self.per_layer_outputs):
            raise ContractError(
                f"layer {layer} outside 1..{len(self.per_layer_outputs)}")
        return ad.masked_mean_rows(self.per_layer_outputs[layer - 1], self.attention_mask)


class Backbone:
    def __init__(self, config: BackboneConfig, params: dict[str, Param]):
        self.config = config
        self.params = params

    def set_trainable(self, trainable: bool) -> None:
        for p in self.params.values():
            p.trainable = trainable


def backbone_shapes(config: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Every backbone tensor's name and shape, in creation (and draw) order."""
    d, ff = config.model_dim, config.ff_dim
    shapes = {"backbone.word_emb": (config.vocab_size, d),
              "backbone.pos_emb": (config.max_seq_len, d),
              "backbone.emb_ln.gain": (d,), "backbone.emb_ln.bias": (d,)}
    for i in range(config.num_layers):
        pre = f"backbone.layer{i}"
        shapes.update({f"{pre}.attn.w{x}": (d, d) for x in "qkvo"})
        shapes.update({f"{pre}.attn.b{x}": (d,) for x in "qkvo"})
        shapes.update({f"{pre}.ff.w1": (d, ff), f"{pre}.ff.b1": (ff,),
                       f"{pre}.ff.w2": (ff, d), f"{pre}.ff.b2": (d,)})
        shapes.update({f"{pre}.ln{j}.{p}": (d,) for j in "12" for p in ("gain", "bias")})
    return shapes


def backbone_param_count(config: BackboneConfig) -> int:
    """Total size of `backbone_shapes`, without allocating: tests count the
    full-size bert-base preset this way and never build it."""
    return sum(math.prod(shape) for shape in backbone_shapes(config).values())


def init_backbone(config: BackboneConfig, seed: int) -> Backbone:
    """Deterministic init over `backbone_shapes`: matrices drawn from
    N(0, 0.02^2) in table order, LayerNorm gains one, biases zero."""
    rng = np.random.default_rng(seed)
    params: dict[str, Param] = {}
    for name, shape in backbone_shapes(config).items():
        if len(shape) == 2:
            data = rng.normal(0.0, 0.02, size=shape)
        else:
            data = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        params[name] = Param(data, name=name)
    return Backbone(config, params)


def multi_head_attention(x: Tensor, mask: np.ndarray, num_heads: int,
                         wq: Param, bq, wk: Param, bk, wv: Param, bv,
                         wo: Param, bo) -> Tensor:
    """Scaled dot-product attention over [B, T, dim] input, padding keys
    masked by a large negative score bias. Biases may be None (the SPAL
    branch has none)."""
    q, k, v = (ad.linear(x, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    ctx = ad.attention(q, k, v, np.where(mask, 0.0, MASK_NEG), num_heads)
    return ad.linear(ctx, wo, bo)


def _backbone_layer(x: Tensor, mask: np.ndarray, bb: Backbone, i: int) -> Tensor:
    p = bb.params
    pre = f"backbone.layer{i}"
    attn = multi_head_attention(
        x, mask, bb.config.num_heads,
        p[f"{pre}.attn.wq"], p[f"{pre}.attn.bq"],
        p[f"{pre}.attn.wk"], p[f"{pre}.attn.bk"],
        p[f"{pre}.attn.wv"], p[f"{pre}.attn.bv"],
        p[f"{pre}.attn.wo"], p[f"{pre}.attn.bo"])
    x = ad.layer_norm(ad.add(x, attn), p[f"{pre}.ln1.gain"], p[f"{pre}.ln1.bias"])
    h = ad.gelu(ad.linear(x, p[f"{pre}.ff.w1"], p[f"{pre}.ff.b1"]))
    h = ad.linear(h, p[f"{pre}.ff.w2"], p[f"{pre}.ff.b2"])
    return ad.layer_norm(ad.add(x, h), p[f"{pre}.ln2.gain"], p[f"{pre}.ln2.bias"])


def encode(token_ids, backbone: Backbone,
           spals: "SpalStack | None" = None,
           probe: "ProbeWeights | None" = None) -> Encoding:
    """Run the encoder over right-padded [B, T] ids, returning every layer's
    [B, T, d] output. Padding-id positions are masked as attention keys, so
    a row's outputs depend neither on its padding nor on the other rows.

    With SPALs attached, layer l's output is backbone_layer_l(x) + spal_l(x)
    (a parallel residual branch on the layer input). With probing enabled the
    two branches are blended as w*frozen + (1-w)*spal instead.
    """
    cfg = backbone.config
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise DataError(f"token ids must be a [batch, seq] array, got shape {ids.shape}")
    mask = ids != cfg.padding_token_id
    if not mask.any(axis=1).all():
        raise DataError("sequence is empty after padding removal")
    bad = np.argwhere((ids < 0) | (ids >= cfg.vocab_size))
    if bad.size:
        r, pos = bad[0]
        raise DataError(f"token id {ids[r, pos]} out of range at position {pos} of row {r}")
    if ids.shape[1] > cfg.max_seq_len:
        raise DataError(f"sequence length {ids.shape[1]} exceeds max {cfg.max_seq_len}")

    p = backbone.params
    positions = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
    x = ad.add(ad.embedding(p["backbone.word_emb"], ids),
               ad.embedding(p["backbone.pos_emb"], positions))
    x = ad.layer_norm(x, p["backbone.emb_ln.gain"], p["backbone.emb_ln.bias"])

    outputs: list[Tensor] = []
    for i in range(cfg.num_layers):
        frozen_out = _backbone_layer(x, mask, backbone, i)
        if spals is None:
            x = frozen_out
        elif probe is None:
            x = ad.add(frozen_out, spals.forward(i, x, mask))
        else:
            w = probe.weight(i)
            x = ad.add(ad.scale_by_scalar(frozen_out, w),
                       ad.scale_by_scalar(spals.forward(i, x, mask), ad.one_minus(w)))
        outputs.append(x)
    return Encoding(outputs, mask)

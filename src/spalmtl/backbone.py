"""Toy BERT-style encoder: embeddings + L post-norm transformer layers.

Every layer's output is exposed so downstream diagnostics can inspect
intermediate representations. A global freeze switch flips the trainable
flag on every backbone parameter without touching SPALs or heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .errors import ConfigError, DataError

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

    def validate(self) -> None:
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
    """Per-layer outputs of one forward pass."""

    per_layer_outputs: list[Tensor]
    attention_mask: np.ndarray

    def final(self) -> Tensor:
        return self.per_layer_outputs[-1]

    def pooled_first(self) -> Tensor:
        """First non-padding position of the final layer."""
        idx = int(np.flatnonzero(self.attention_mask)[0])
        return ad.index_row(self.final(), idx)

    def pooled_mean(self, layer: int) -> Tensor:
        """Mean over non-padding positions of the given layer (1-based from 1..L)."""
        return ad.masked_mean_rows(self.per_layer_outputs[layer - 1], self.attention_mask)


class Backbone:
    def __init__(self, config: BackboneConfig, params: dict[str, Param]):
        self.config = config
        self.params = params

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def set_trainable(self, trainable: bool) -> None:
        for p in self.params.values():
            p.trainable = trainable

    @property
    def frozen(self) -> bool:
        return not any(p.trainable for p in self.params.values())


def backbone_param_count(config: BackboneConfig) -> int:
    """Closed-form total parameter count for a config, without instantiating.

    Must equal Backbone.param_count() of an initialized model; the big
    full-size bert-base preset is only ever counted, never allocated, in tests.
    """
    d, ff, L = config.model_dim, config.ff_dim, config.num_layers
    emb = config.vocab_size * d + config.max_seq_len * d + 2 * d
    per_layer = (4 * d * d + 4 * d) + (d * ff + ff) + (ff * d + d) + 4 * d
    return emb + L * per_layer


def init_backbone(config: BackboneConfig, seed: int) -> Backbone:
    """Deterministic init: scaled normal weights, zero biases, unit LN gains."""
    config.validate()
    rng = np.random.default_rng(seed)
    d, ff = config.model_dim, config.ff_dim
    std = 0.02
    params: dict[str, Param] = {}

    def w(name, shape):
        params[name] = Param(rng.normal(0.0, std, size=shape), name=name)

    def zeros(name, shape):
        params[name] = Param(np.zeros(shape), name=name)

    def ones(name, shape):
        params[name] = Param(np.ones(shape), name=name)

    w("backbone.word_emb", (config.vocab_size, d))
    w("backbone.pos_emb", (config.max_seq_len, d))
    ones("backbone.emb_ln.gain", (d,))
    zeros("backbone.emb_ln.bias", (d,))
    for i in range(config.num_layers):
        pre = f"backbone.layer{i}"
        for proj in ("wq", "wk", "wv", "wo"):
            w(f"{pre}.attn.{proj}", (d, d))
        for b in ("bq", "bk", "bv", "bo"):
            zeros(f"{pre}.attn.{b}", (d,))
        w(f"{pre}.ff.w1", (d, ff))
        zeros(f"{pre}.ff.b1", (ff,))
        w(f"{pre}.ff.w2", (ff, d))
        zeros(f"{pre}.ff.b2", (d,))
        ones(f"{pre}.ln1.gain", (d,))
        zeros(f"{pre}.ln1.bias", (d,))
        ones(f"{pre}.ln2.gain", (d,))
        zeros(f"{pre}.ln2.bias", (d,))
    return Backbone(config, params)


def multi_head_attention(x: Tensor, mask: np.ndarray, num_heads: int,
                         wq: Param, bq, wk: Param, bk, wv: Param, bv,
                         wo: Param, bo) -> Tensor:
    """Standard scaled dot-product attention over [seq, dim] input.

    Padding key positions get a large negative additive bias. Biases may be
    None (the SPAL branch has none).
    """
    seq, d_in = x.data.shape
    d_model = wq.data.shape[1]
    dh = d_model // num_heads

    def proj(wmat, bvec):
        y = ad.matmul(x, wmat)
        if bvec is not None:
            y = ad.add_bias(y, bvec)
        # [seq, d] -> [H, seq, dh]
        return ad.transpose(ad.reshape(y, (seq, num_heads, dh)), (1, 0, 2))

    q = proj(wq, bq)
    k = proj(wk, bk)
    v = proj(wv, bv)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    key_bias = np.where(np.asarray(mask, dtype=bool), 0.0, MASK_NEG)
    scores = ad.add_const(scores, key_bias[None, None, :])
    probs = ad.softmax_rows(scores)
    ctx = ad.matmul(probs, v)  # [H, seq, dh]
    ctx = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (seq, d_model))
    out = ad.matmul(ctx, wo)
    if bo is not None:
        out = ad.add_bias(out, bo)
    return out


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
    h = ad.gelu(ad.add_bias(ad.matmul(x, p[f"{pre}.ff.w1"]), p[f"{pre}.ff.b1"]))
    h = ad.add_bias(ad.matmul(h, p[f"{pre}.ff.w2"]), p[f"{pre}.ff.b2"])
    return ad.layer_norm(ad.add(x, h), p[f"{pre}.ln2.gain"], p[f"{pre}.ln2.bias"])


def encode(token_ids, mask, backbone: Backbone,
           spals: "SpalStack | None" = None,
           probe: "ProbeWeights | None" = None,
           force_probe_w: float | None = None) -> Encoding:
    """Run the encoder, returning every layer's [seq, d] output.

    With SPALs attached, layer l's output is backbone_layer_l(x) + spal_l(x)
    (a parallel residual branch on the layer input). With probing enabled the
    two branches are blended as w*frozen + (1-w)*spal instead.
    """
    cfg = backbone.config
    ids = np.asarray(token_ids, dtype=np.int64)
    if mask is None:
        mask = ids != cfg.padding_token_id
    mask = np.asarray(mask, dtype=bool)
    if ids.ndim != 1 or ids.shape != mask.shape:
        raise DataError(f"token/mask shapes disagree: {ids.shape} vs {mask.shape}")
    if not mask.any():
        raise DataError("sequence is empty after padding removal")
    bad = np.flatnonzero((ids < 0) | (ids >= cfg.vocab_size))
    if bad.size:
        pos = int(bad[0])
        raise DataError(f"token id {int(ids[pos])} out of range at position {pos}")
    if ids.shape[0] > cfg.max_seq_len:
        raise DataError(f"sequence length {ids.shape[0]} exceeds max {cfg.max_seq_len}")

    p = backbone.params
    x = ad.add(ad.embedding(p["backbone.word_emb"], ids),
               ad.embedding(p["backbone.pos_emb"], np.arange(ids.shape[0])))
    x = ad.layer_norm(x, p["backbone.emb_ln.gain"], p["backbone.emb_ln.bias"])

    outputs: list[Tensor] = []
    for i in range(cfg.num_layers):
        frozen_out = _backbone_layer(x, mask, backbone, i)
        if spals is None:
            x = frozen_out
        else:
            spal_out = spals.forward(i, x, mask)
            if probe is not None or force_probe_w is not None:
                if force_probe_w is not None:
                    w = ad.constant(np.array(force_probe_w))
                else:
                    w = probe.weight(i)
                x = ad.add(ad.scale_by_scalar(frozen_out, w),
                           ad.scale_by_scalar(spal_out, ad.one_minus(w)))
            else:
                x = ad.add(frozen_out, spal_out)
        outputs.append(x)
    return Encoding(outputs, mask)

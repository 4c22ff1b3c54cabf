"""Parallel attention adapters: parameter counts, additive-identity init,
attach preconditions, scalar attention oracle."""

import math

import numpy as np
import pytest

from spalmtl.backbone import BERT_BASE, BackboneConfig, encode, init_backbone
from spalmtl.errors import ConfigError
from spalmtl.spal import (SpalConfig, attach_spals, capacity_fraction,
                          count_spal_params)

from conftest import TINY


def test_attach_one_layer_per_backbone_layer():
    bb = init_backbone(TINY, seed=0)
    spals = attach_spals(bb, SpalConfig(4), seed=1)
    downs = [k for k in spals.params if k.endswith(".down")]
    assert len(downs) == TINY.num_layers
    # six tensors per layer: down, q, k, v, o, up
    assert len(spals.params) == 6 * TINY.num_layers


def test_same_seed_bit_identical_init():
    bb = init_backbone(TINY, seed=0)
    a = attach_spals(bb, SpalConfig(4), seed=9)
    b = attach_spals(bb, SpalConfig(4), seed=9)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_head_mismatch_rejected():
    # the SPAL heads are the backbone's, so h must be a multiple of them
    bb = init_backbone(TINY, seed=0)
    with pytest.raises(ConfigError, match="spal_hidden 5 .*num_heads 2"):
        attach_spals(bb, SpalConfig(5), seed=0)


def test_indivisible_hidden_rejected():
    with pytest.raises(ConfigError, match="divisible"):
        count_spal_params(SpalConfig(5), TINY)
    with pytest.raises(ConfigError, match="spal_hidden must be positive"):
        SpalConfig(0)


def test_fresh_stack_is_additive_identity():
    bb = init_backbone(TINY, seed=2)
    spals = attach_spals(bb, SpalConfig(4), seed=3)
    ids = np.array([[4, 9, 17], [5, 0, 0]])
    plain = encode(ids, bb)
    with_spal = encode(ids, bb, spals=spals)
    for a, b in zip(plain.per_layer_outputs, with_spal.per_layer_outputs):
        assert np.array_equal(a.data, b.data)


def test_param_counts_on_replica_geometry():
    assert count_spal_params(SpalConfig(12), BERT_BASE) == 228_096
    assert count_spal_params(SpalConfig(204), BERT_BASE) == 5_757_696
    assert count_spal_params(SpalConfig(816), BERT_BASE) == 47_001_600


def test_count_matches_enumeration():
    bb = init_backbone(TINY, seed=0)
    spals = attach_spals(bb, SpalConfig(6), seed=0)
    by_hand = sum(p.data.size for p in spals.params.values())
    assert by_hand == count_spal_params(SpalConfig(6), TINY)


def test_capacity_fractions():
    assert capacity_fraction(SpalConfig(816), BERT_BASE) == \
        pytest.approx(0.427, abs=0.005)
    assert capacity_fraction(SpalConfig(12), BERT_BASE) == \
        pytest.approx(0.002, abs=0.0005)


def test_capacity_fraction_toy_hand_ratio():
    cfg = SpalConfig(4)
    bb = init_backbone(TINY, seed=0)
    by_hand = sum(p.data.size for p in bb.params.values())
    expected = count_spal_params(cfg, TINY) / by_hand
    assert capacity_fraction(cfg, TINY) == pytest.approx(expected, abs=1e-15)


def test_forward_matches_scalar_attention_oracle():
    cfg = BackboneConfig(num_layers=1, model_dim=4, num_heads=1, ff_dim=4,
                         vocab_size=16, max_seq_len=8)
    bb = init_backbone(cfg, seed=1)
    spals = attach_spals(bb, SpalConfig(2), seed=2)
    rng = np.random.default_rng(5)
    spals.params["spal.layer0.up"].data = rng.normal(size=(2, 4))

    from spalmtl.autodiff import Tensor
    x = rng.normal(size=(2, 4))
    mask = np.array([[True, True]])
    out = spals.forward(0, Tensor(x[None]), mask).data[0]

    p = {k: v.data for k, v in spals.params.items()}
    down = x @ p["spal.layer0.down"]
    q = down @ p["spal.layer0.q"]
    k = down @ p["spal.layer0.k"]
    v = down @ p["spal.layer0.v"]
    ctx = np.zeros_like(down)
    for i in range(2):
        scores = [float(q[i] @ k[j]) / math.sqrt(2) for j in range(2)]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        tot = sum(exps)
        for j in range(2):
            ctx[i] += (exps[j] / tot) * v[j]
    oracle = (ctx @ p["spal.layer0.o"]) @ p["spal.layer0.up"]
    assert np.max(np.abs(out - oracle)) < 1e-10

"""Frozen encoder: init determinism, parameter counts, a scalar attention
oracle, masking and validation behavior."""

import math

import numpy as np
import pytest

from spalmtl import analysis, autodiff as ad
from spalmtl import backbone as bbmod
from spalmtl.backbone import (BERT_BASE, TOY, BackboneConfig, backbone_param_count,
                              backbone_shapes, encode, init_backbone)
from spalmtl.engine import Batch, evaluate_task, train_step
from spalmtl.errors import ConfigError, ContractError, DataError
from spalmtl.model import MtlModel
from spalmtl.optim import OptimizerState
from spalmtl.tasks import TaskExample, TaskSpec, head_forward, task_loss

from conftest import TINY


def _layer_norm_np(x, gain, bias, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _gelu_np(x):
    return x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def test_same_seed_bit_identical():
    a = init_backbone(TINY, seed=3)
    b = init_backbone(TINY, seed=3)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_different_seed_differs():
    a = init_backbone(TINY, seed=3)
    b = init_backbone(TINY, seed=4)
    assert not np.array_equal(a.params["backbone.word_emb"].data,
                              b.params["backbone.word_emb"].data)


def test_invalid_config_names_field():
    with pytest.raises(ConfigError, match="model_dim"):
        BackboneConfig(num_layers=1, model_dim=10, num_heads=3, ff_dim=8,
                       vocab_size=16, max_seq_len=8)
    with pytest.raises(ConfigError, match="num_layers"):
        BackboneConfig(num_layers=0, model_dim=8, num_heads=2, ff_dim=8,
                       vocab_size=16, max_seq_len=8)


def test_param_count_matches_enumeration():
    cfg = BackboneConfig(num_layers=2, model_dim=64, num_heads=4, ff_dim=256,
                         vocab_size=1000, max_seq_len=128)
    bb = init_backbone(cfg, seed=0)
    # enumerate-and-sum over the declared tensors
    by_hand = sum(p.data.size for p in bb.params.values())
    assert backbone_param_count(cfg) == by_hand


def _closed_form_param_count(config: BackboneConfig) -> int:
    """Embeddings and their LayerNorm, then per layer: attention (4 d x d
    projections with biases), the feed-forward pair and two LayerNorms."""
    d, ff, L = config.model_dim, config.ff_dim, config.num_layers
    emb = config.vocab_size * d + config.max_seq_len * d + 2 * d
    per_layer = (4 * d * d + 4 * d) + (d * ff + ff) + (ff * d + d) + 4 * d
    return emb + L * per_layer


def test_init_follows_shape_table():
    params = init_backbone(TOY, seed=0).params
    assert [(name, p.data.shape) for name, p in params.items()] == \
        list(backbone_shapes(TOY).items())
    for name, p in params.items():
        if p.data.ndim == 1:
            assert np.all(p.data == (1.0 if name.endswith(".gain") else 0.0)), name


@pytest.mark.parametrize("config", [TOY, BERT_BASE, BackboneConfig()],
                         ids=["toy", "bert-base", "default"])
def test_param_count_matches_closed_form(config):
    assert backbone_param_count(config) == _closed_form_param_count(config)


def test_replica_count_supports_capacity_bracket():
    total = backbone_param_count(BERT_BASE)
    assert 1.05e8 < total < 1.15e8
    frac = 47_001_600 / total
    assert 0.422 <= frac <= 0.432


def test_freeze_flag_flips_all_params():
    bb = init_backbone(TINY, seed=0)
    bb.set_trainable(False)
    assert not any(p.trainable for p in bb.params.values())
    bb.set_trainable(True)
    assert all(p.trainable for p in bb.params.values())


def test_encode_shapes_and_layer_count(tiny_config):
    bb = init_backbone(tiny_config, seed=0)
    ids = np.array([[4, 5, 6, 0, 0], [7, 0, 0, 0, 0]])
    enc = encode(ids, bb)
    assert len(enc.per_layer_outputs) == tiny_config.num_layers
    assert enc.final().data.shape == (2, 5, tiny_config.model_dim)
    assert np.array_equal(enc.attention_mask, [[True, True, True, False, False],
                                               [True, False, False, False, False]])


def test_one_dimensional_ids_rejected(tiny_config):
    bb = init_backbone(tiny_config, seed=0)
    with pytest.raises(DataError, match="batch, seq"):
        encode(np.array([4, 5, 6]), bb)


def test_out_of_range_token_reports_position(tiny_config):
    bb = init_backbone(tiny_config, seed=0)
    with pytest.raises(DataError, match=r"token id 999 outside the backbone's vocabulary "
                                        r"0\.\.127, at position 2 of row 1"):
        encode(np.array([[4, 5, 6], [4, 5, 999]]), bb)


def test_all_padding_rejected(tiny_config):
    bb = init_backbone(tiny_config, seed=0)
    with pytest.raises(DataError, match=r"tokens must hold a non-padding id \(the backbone "
                                        r"pads with 0\), but row 1 holds none"):
        encode(np.array([[4, 5, 6], [0, 0, 0]]), bb)


def test_too_long_sequence_rejected(tiny_config):
    bb = init_backbone(tiny_config, seed=0)
    with pytest.raises(DataError, match="17 tokens exceed the backbone's max_seq_len 16"):
        encode(np.full((1, tiny_config.max_seq_len + 1), 4), bb)


def test_one_layer_one_head_matches_scalar_oracle():
    cfg = BackboneConfig(num_layers=1, model_dim=4, num_heads=1, ff_dim=6,
                         vocab_size=16, max_seq_len=8)
    bb = init_backbone(cfg, seed=11)
    ids = np.array([4, 7])
    enc = encode(ids[None], bb)

    p = {k: v.data for k, v in bb.params.items()}
    x = p["backbone.word_emb"][ids] + p["backbone.pos_emb"][:2]
    x = _layer_norm_np(x, p["backbone.emb_ln.gain"], p["backbone.emb_ln.bias"])

    q = x @ p["backbone.layer0.attn.wq"] + p["backbone.layer0.attn.bq"]
    k = x @ p["backbone.layer0.attn.wk"] + p["backbone.layer0.attn.bk"]
    v = x @ p["backbone.layer0.attn.wv"] + p["backbone.layer0.attn.bv"]
    ctx = np.zeros_like(x)
    for i in range(2):
        scores = [float(q[i] @ k[j]) / math.sqrt(4) for j in range(2)]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        tot = sum(exps)
        for j in range(2):
            ctx[i] += (exps[j] / tot) * v[j]
    attn = ctx @ p["backbone.layer0.attn.wo"] + p["backbone.layer0.attn.bo"]
    x = _layer_norm_np(x + attn, p["backbone.layer0.ln1.gain"],
                       p["backbone.layer0.ln1.bias"])
    h = _gelu_np(x @ p["backbone.layer0.ff.w1"] + p["backbone.layer0.ff.b1"])
    h = h @ p["backbone.layer0.ff.w2"] + p["backbone.layer0.ff.b2"]
    oracle = _layer_norm_np(x + h, p["backbone.layer0.ln2.gain"],
                            p["backbone.layer0.ln2.bias"])

    assert np.max(np.abs(enc.final().data[0] - oracle)) < 1e-10


def test_padding_tokens_do_not_affect_content_positions(tiny_config):
    bb = init_backbone(tiny_config, seed=5)
    short = encode(np.array([[4, 5, 6]]), bb)
    padded = encode(np.array([[4, 5, 6, 0, 0]]), bb)
    a = short.final().data
    b = padded.final().data[:, :3]
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(short.pooled_first().data
                         - padded.pooled_first().data)) < 1e-12


_KINDS = {
    "reg": TaskSpec(id="reg", kind="seq_regression", metric="rmse"),
    "cls": TaskSpec(id="cls", kind="seq_classification", metric="accuracy",
                    num_classes=3),
    "tag": TaskSpec(id="tag", kind="token_classification", metric="token_accuracy",
                    num_classes=3, tag_names=("O", "B-E0", "I-E0")),
}


def _mixed_length_examples(rng):
    """Five examples of lengths 1 to 7, one with a leading and one with an
    interior padding id, labelled for every task kind."""
    ids = [np.array([9]), rng.integers(4, 128, 7), np.array([0, 5, 6, 7]),
           rng.integers(4, 128, 3), np.array([8, 9, 0, 10, 11, 12])]
    return [TaskExample(token_ids=t, label={
        "reg": float(rng.uniform(-1, 1)), "cls": int(rng.integers(3)),
        "tag": rng.integers(0, 3, t.size)}) for t in ids]


def _rows(model, examples, kind):
    """Per row: layer outputs at its own positions, pooled_first, pooled_mean
    of each layer, logits at its own positions and its loss."""
    enc = model.encode_examples(examples)
    logits = head_forward(enc, model.heads[kind]).data
    layers = range(1, len(enc.per_layer_outputs) + 1)
    rows = []
    for b, ex in enumerate(examples):
        n = ex.token_ids.size
        # the row's loss from its own (padded) logits alone
        loss = task_loss(model.heads[kind].spec, ad.Tensor(logits[b:b + 1]), [ex.label[kind]])
        rows.append([out.data[b, :n] for out in enc.per_layer_outputs]
                    + [enc.pooled_first().data[b]]
                    + [enc.pooled_mean(layer).data[b] for layer in layers]
                    + [logits[b, :n] if kind == "tag" else logits[b], loss.data])
    return rows


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_mixed_length_batch_matches_single_examples(kind):
    model = MtlModel.build(TINY, list(_KINDS.values()), spal_hidden=4, seed=3,
                           probe=True)
    rng = np.random.default_rng(17)
    for p in list(model.spals.params.values()) + list(model.probe.params.values()):
        p.data = rng.normal(0.0, 0.3, p.data.shape)
    examples = _mixed_length_examples(rng)
    with ad.no_graph():
        batched = _rows(model, examples, kind)
        singles = [_rows(model, [ex], kind)[0] for ex in examples]
        # four of the rows in another order and company, padded to length 6
        order = [4, 3, 2, 0]
        others = _rows(model, [examples[i] for i in order], kind)
    for i, got in enumerate(batched):
        for a, c in zip(got, singles[i]):
            assert np.shape(a) == np.shape(c)
            assert np.max(np.abs(a - c)) <= 1e-12
    for i, got in zip(order, others):
        for a, c in zip(got, singles[i]):
            assert np.max(np.abs(a - c)) <= 1e-12


def test_pooled_mean_over_non_padding(tiny_config):
    bb = init_backbone(tiny_config, seed=5)
    enc = encode(np.array([[4, 5, 0], [0, 6, 7]]), bb)
    expected = [enc.per_layer_outputs[0].data[0, :2].mean(axis=0),
                enc.per_layer_outputs[0].data[1, 1:].mean(axis=0)]
    assert np.max(np.abs(enc.pooled_mean(1).data - expected)) < 1e-12
    assert np.array_equal(enc.pooled_first().data,
                          enc.final().data[[0, 1], [0, 1]])


@pytest.mark.parametrize("layer", [0, 3])
def test_pooled_mean_rejects_layer_outside_stack(tiny_config, layer):
    enc = encode(np.array([[4, 5]]), init_backbone(tiny_config, seed=5))
    with pytest.raises(ContractError, match="outside 1..2"):
        enc.pooled_mean(layer)


# ---------------------------------------------------------------------------
# the frozen-prefix store: layer 0's frozen branch, kept per id array
# ---------------------------------------------------------------------------

def _store_model(seed, spal_hidden=4, probe=True):
    """A model whose SPAL and probe params are drawn away from their init."""
    model = MtlModel.build(TINY, list(_KINDS.values()), spal_hidden=spal_hidden,
                           seed=seed, probe=probe)
    rng = np.random.default_rng(seed + 100)
    for name, p in sorted(model.all_params().items()):
        if name.startswith(("spal.", "probe.")):
            p.data = rng.normal(0.0, 0.3, p.data.shape)
    return model


def _cls_examples():
    return [TaskExample(token_ids=ex.token_ids, label=ex.label["cls"])
            for ex in _mixed_length_examples(np.random.default_rng(17))]


def _count_frozen_layers(monkeypatch):
    calls = []
    real = bbmod._backbone_layer
    monkeypatch.setattr(bbmod, "_backbone_layer",
                        lambda x, mask, bb, i: calls.append(i) or real(x, mask, bb, i))
    return calls


@pytest.mark.parametrize("spal_hidden,probe", [(None, False), (4, False), (4, True)],
                         ids=["no-spal", "spal", "probe"])
def test_stored_layer0_reproduces_a_fresh_model(monkeypatch, spal_hidden, probe):
    examples = _mixed_length_examples(np.random.default_rng(17))
    model = _store_model(3, spal_hidden, probe)
    calls = _count_frozen_layers(monkeypatch)
    with ad.no_graph():
        model.encode_examples(examples)
        assert calls == [0, 1] and len(model.backbone.prefix_store) == 1
        hit = model.encode_examples(examples)
        assert calls == [0, 1, 1]  # layer 0 read back, not recomputed
        fresh = _store_model(3, spal_hidden, probe).encode_examples(examples)
    assert len(hit.per_layer_outputs) == len(fresh.per_layer_outputs) == TINY.num_layers
    for got, want in zip(hit.per_layer_outputs, fresh.per_layer_outputs):
        assert np.array_equal(got.data, want.data)


def test_each_backbone_keeps_its_own_layer0():
    examples = _mixed_length_examples(np.random.default_rng(17))
    a, b = _store_model(3), _store_model(4)
    with ad.no_graph():
        a.encode_examples(examples)
        got = b.encode_examples(examples)
    want = b.encode_examples(examples)  # records a graph, so reads no store
    assert a.backbone.prefix_store is not b.backbone.prefix_store
    for g, w in zip(got.per_layer_outputs, want.per_layer_outputs):
        assert np.array_equal(g.data, w.data)
    assert not np.array_equal(got.final().data, a.encode_examples(examples).final().data)


def test_graph_recording_forwards_store_nothing():
    model = _store_model(3)
    spec, examples = model.heads["cls"].spec, _cls_examples()
    train_step(model, Batch("cls", examples), {"cls": spec}, OptimizerState(total_steps=1))
    list(analysis._chunk_grads(model, spec, examples, 2))
    list(analysis._chunk_grads(model, spec, examples, 2, per_row=True))
    assert model.backbone.prefix_store == {}
    evaluate_task(model, spec, examples)
    assert len(model.backbone.prefix_store) == 1


def _filled(model, ids=((4, 5, 6), (7, 8, 0))):
    with ad.no_graph():
        model.encode(np.array(ids))
    assert len(model.backbone.prefix_store) == 1
    return model


def test_store_is_dropped_when_the_backbone_may_change():
    model = _filled(_store_model(3))
    model.backbone.set_trainable(False)
    assert model.backbone.prefix_store == {}
    _filled(model).restore(model.snapshot())
    assert model.backbone.prefix_store == {}
    _filled(model).backbone.params["backbone.layer1.ff.b2"].trainable = True
    with ad.no_graph():
        model.encode(np.array([[4, 5, 6], [7, 8, 0]]))
    assert model.backbone.prefix_store == {}


def test_store_keys_on_the_id_array_shape_too():
    model = _filled(_store_model(3))
    ids = np.array([[4, 5, 6, 7, 8, 0]])  # the stored [2, 3] array's bytes
    with ad.no_graph():
        got = model.encode(ids)
    assert len(model.backbone.prefix_store) == 2
    for g, w in zip(got.per_layer_outputs, model.encode(ids).per_layer_outputs):
        assert np.array_equal(g.data, w.data)


def test_stored_arrays_are_read_only():
    model = _filled(_store_model(3, spal_hidden=None, probe=False))
    [stored] = model.backbone.prefix_store.values()
    with pytest.raises(ValueError, match="read-only"):
        stored[0, 0, 0] = 1.0
    with ad.no_graph():
        enc = model.encode(np.array([[4, 5, 6], [7, 8, 0]]))
    assert enc.per_layer_outputs[0].data is stored  # a hit hands out the stored array


def test_store_stops_at_its_budget(monkeypatch):
    examples = _mixed_length_examples(np.random.default_rng(17))
    with ad.no_graph():
        want = _store_model(3).encode_examples(examples)
        monkeypatch.setattr(bbmod, "PREFIX_STORE_BYTES", 8)
        model = _store_model(3)
        model.encode_examples(examples)
        got = model.encode_examples(examples)
        assert model.backbone.prefix_store == {}
        one = 2 * 3 * TINY.model_dim * 8  # one [2, 3, d] float64 output
        monkeypatch.setattr(bbmod, "PREFIX_STORE_BYTES", one)
        _filled(model)
        model.encode(np.array([[4, 5, 6], [7, 9, 0]]))
    assert len(model.backbone.prefix_store) == 1
    for g, w in zip(got.per_layer_outputs, want.per_layer_outputs):
        assert np.array_equal(g.data, w.data)

"""Diagnostics: representation generalization, gradient snapshots and
similarity, contribution probing, task and text embeddings, and the
no-graph inference they share with evaluation."""

import contextlib
import math

import numpy as np
import pytest

from spalmtl import analysis as an
from spalmtl import autodiff as ad
from spalmtl.engine import evaluate_task
from spalmtl.errors import ContractError
from spalmtl.model import MtlModel
from spalmtl.tasks import TaskExample

from conftest import TINY, copy_all_params, fd_gradient, grads_close, two_task_suite


def _build(data, seed=1, probe=False):
    specs = [data[tid].spec for tid in sorted(data)]
    return MtlModel.build(TINY, specs, spal_hidden=4, seed=seed,
                          freeze_backbone=True, probe=probe)


# -- representation generalization ------------------------------------------

def test_single_example_mean_is_that_example(tiny_model):
    model, _ = tiny_model
    ex = TaskExample(token_ids=np.array([4, 5, 6]), label=0)
    (summary,) = an.task_mean_representation(model, [ex], "t", layers=[2])
    enc = model.encode(ex.token_ids[None])
    pooled = enc.per_layer_outputs[1].data[0].mean(axis=0)
    assert summary.layer == 2
    assert np.max(np.abs(summary.vector - pooled)) < 1e-15


def test_mean_representation_matches_scalar_oracle(tiny_model):
    model, _ = tiny_model
    examples = [TaskExample(token_ids=np.array([4, 5, 6, 0]), label=0),
                TaskExample(token_ids=np.array([9, 7]), label=1),
                TaskExample(token_ids=np.array([11, 12, 13]), label=0)]
    summaries = an.task_mean_representation(model, examples, "t", layers=[2, 1])
    assert [s.layer for s in summaries] == [2, 1]
    d = TINY.model_dim
    for summary in summaries:
        oracle = np.zeros(d)
        for ex in examples:
            enc = model.encode(ex.token_ids[None])
            rows = enc.per_layer_outputs[summary.layer - 1].data[enc.attention_mask]
            pooled = [sum(rows[i][j] for i in range(rows.shape[0])) / rows.shape[0]
                      for j in range(d)]
            oracle += np.array(pooled)
        oracle /= len(examples)
        assert np.max(np.abs(summary.vector - oracle)) < 1e-10


def test_identical_summaries_give_unit_generalization():
    v = np.array([1.0, 2.0, 3.0])
    sums = [an.RepSummary(task_id=str(i), layer=1, vector=v.copy())
            for i in range(3)]
    assert an.representation_generalization(sums) == pytest.approx(1.0, abs=1e-12)


def test_generalization_matches_brute_force_six_pairs():
    rng = np.random.default_rng(0)
    vecs = [rng.normal(size=8) for _ in range(4)]
    sums = [an.RepSummary(task_id=str(i), layer=3, vector=v)
            for i, v in enumerate(vecs)]
    g = an.representation_generalization(sums)
    pair_vals = []
    for i in range(4):
        for j in range(i + 1, 4):
            num = sum(vecs[i][k] * vecs[j][k] for k in range(8))
            ni = math.sqrt(sum(x * x for x in vecs[i]))
            nj = math.sqrt(sum(x * x for x in vecs[j]))
            pair_vals.append(num / (ni * nj))
    assert len(pair_vals) == 6
    assert g == pytest.approx(sum(pair_vals) / 6, abs=1e-12)
    assert -1.0 <= g <= 1.0


def test_generalization_requires_single_layer():
    v = np.ones(3)
    mixed = [an.RepSummary("a", 1, v), an.RepSummary("b", 2, v)]
    with pytest.raises(ContractError):
        an.representation_generalization(mixed)
    with pytest.raises(ContractError):
        an.representation_generalization([an.RepSummary("a", 1, v)])


def test_rep_gen_at_layers_matches_manual():
    data = two_task_suite()
    model = _build(data)
    by_layer = an.rep_gen_at_layers(model, data, [1, 2])
    for layer in (1, 2):
        sums = []
        for tid in sorted(data):
            pooled = [model.encode(ex.token_ids[None]).pooled_mean(layer).data[0]
                      for ex in data[tid].train]
            sums.append(an.RepSummary(tid, layer, np.mean(pooled, axis=0)))
        assert by_layer[layer] == pytest.approx(
            an.representation_generalization(sums), abs=1e-12)


def test_rep_gen_encodes_each_example_once(monkeypatch):
    data = two_task_suite()
    model = _build(data)
    encode, rows = model.encode, []

    def spy(ids, *args, **kwargs):
        rows.extend(tuple(row[row != 0]) for row in ids)
        return encode(ids, *args, **kwargs)

    monkeypatch.setattr(model, "encode", spy)
    by_layer = an.rep_gen_at_layers(model, data, [1, 2])
    examples = [tuple(ex.token_ids) for tid in data for ex in data[tid].train]
    assert sorted(rows) == sorted(examples)
    for layer in (1, 2):
        one_layer = an.rep_gen_at_layers(model, data, [layer])
        assert one_layer[layer].hex() == by_layer[layer].hex()


def test_reported_layers_upper_half():
    assert an.reported_layers(12) == [7, 8, 9, 10, 11, 12]
    assert an.reported_layers(2) == [2]


# -- gradient snapshots ------------------------------------------------------

def test_cosine_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    for _ in range(3):
        a, b = rng.normal(size=5), rng.normal(size=5)
        num = sum(float(x * y) for x, y in zip(a, b))
        na = math.sqrt(sum(float(x * x) for x in a))
        nb = math.sqrt(sum(float(y * y) for y in b))
        assert an.cosine(a, b) == pytest.approx(num / (na * nb), abs=1e-12)


def test_cosine_zero_norm_is_contract_error():
    with pytest.raises(ContractError):
        an.cosine(np.zeros(3), np.ones(3))


def test_snapshot_leaves_model_and_grads_untouched():
    data = two_task_suite()
    model = _build(data)
    before = copy_all_params(model)
    snap = an.snapshot_task_gradient(model, data["alpha"].spec,
                                     data["alpha"].train, step=7)
    after = copy_all_params(model)
    assert snap.step == 7
    assert snap.vector.size == model.shared_trainable_size()
    for name in before:
        assert np.array_equal(before[name], after[name]), name
    assert all(p.grad is None for p in model.all_params().values())


def test_snapshot_is_deterministic():
    data = two_task_suite()
    model = _build(data)
    s1 = an.snapshot_task_gradient(model, data["alpha"].spec,
                                   data["alpha"].train, 0)
    s2 = an.snapshot_task_gradient(model, data["alpha"].spec,
                                   data["alpha"].train, 0)
    assert np.array_equal(s1.vector, s2.vector)


@pytest.mark.parametrize("n", [10, 3], ids=["10_at_batch_4", "3_at_batch_4"])
def test_snapshot_equals_single_graph_mean_loss_gradient(n):
    data = two_task_suite(batch_size=4)
    model = _build(data)
    spec, examples = data["alpha"].spec, data["alpha"].train[:n]
    snap = an.snapshot_task_gradient(model, spec, examples, 0)

    from spalmtl.tasks import head_forward, task_loss

    # one graph over the whole split, one backward of the mean loss
    logits = head_forward(model.encode_examples(examples), model.heads["alpha"])
    ad.backward(task_loss(spec, logits, [ex.label for ex in examples]))
    ref = np.concatenate([p.grad.ravel() for p in model.shared_trainable_params()])
    model.zero_grads()
    assert np.linalg.norm(ref) > 0
    assert np.linalg.norm(snap.vector - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("diagnostic", ["snapshot", "task_embedding"])
def test_gradient_diagnostics_backpropagate_training_sized_chunks(monkeypatch, diagnostic):
    """Encodes and backward passes alternate. A snapshot encodes batches of
    at most ``batch_size`` rows that cover the split once; the task
    embedding encodes one example per backward. No gradient is left over."""
    data = two_task_suite(batch_size=4)
    model = _build(data)
    spec, examples = data["alpha"].spec, data["alpha"].train[:10]
    pad = model.backbone.config.padding_token_id
    calls, rows = [], []
    encode, backward = model.encode, ad.backward

    def unpadded(ids):
        return tuple(int(t) for t in ids if t != pad)

    def spy_encode(token_ids, *args, **kwargs):
        calls.append("encode")
        rows.append([unpadded(r) for r in token_ids])
        return encode(token_ids, *args, **kwargs)

    def spy_backward(loss):
        calls.append("backward")
        backward(loss)

    monkeypatch.setattr(model, "encode", spy_encode)
    monkeypatch.setattr(ad, "backward", spy_backward)
    if diagnostic == "snapshot":
        an.snapshot_task_gradient(model, spec, examples, 0)
        assert all(len(r) <= spec.batch_size for r in rows)
        assert len(rows) == -(-len(examples) // spec.batch_size)
    else:
        an.task_embedding(model, spec, examples)
        assert all(len(r) == 1 for r in rows)
        assert len(rows) == len(examples)
    assert calls == ["encode", "backward"] * len(rows)
    encoded = sorted(r for chunk in rows for r in chunk)
    assert encoded == sorted(unpadded(ex.token_ids) for ex in examples)
    assert all(p.grad is None for p in model.all_params().values())


def test_snapshot_matches_finite_differences_single_example():
    data = two_task_suite()
    model = _build(data)
    ex = data["alpha"].train[0]
    snap = an.snapshot_task_gradient(model, data["alpha"].spec, [ex], 0)

    from spalmtl.tasks import head_forward, task_loss

    def loss_value():
        enc = model.encode_examples([ex])
        preds = head_forward(enc, model.heads["alpha"])
        return float(task_loss(data["alpha"].spec, preds, [ex.label]).data)

    # check one small trainable tensor end to end
    p = model.spals.params["spal.layer1.up"]
    at = 0
    for q in model.shared_trainable_params():
        if q is p:
            break
        at += q.data.size
    fd = fd_gradient(loss_value, p.data)
    assert grads_close(fd, snap.vector[at:at + p.data.size].reshape(p.data.shape))


def test_identical_gradients_similarity_one():
    v = np.array([1.0, -2.0, 0.5])
    snaps = [an.GradientSnapshot(t, 0, v.copy()) for t in ("a", "b")]
    sim = an.gradient_similarity_matrix(snaps)
    assert sim.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_gradients_similarity_zero():
    snaps = [an.GradientSnapshot("a", 0, np.array([1.0, 0.0])),
             an.GradientSnapshot("b", 0, np.array([0.0, 1.0]))]
    sim = an.gradient_similarity_matrix(snaps)
    assert sim.matrix[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_similarity_matrix_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(2)
    snaps = [an.GradientSnapshot(str(i), 0, rng.normal(size=6)) for i in range(3)]
    sim = an.gradient_similarity_matrix(snaps)
    assert np.array_equal(sim.matrix, sim.matrix.T)
    assert np.allclose(np.diag(sim.matrix), 1.0)
    assert sim.missing == []


def test_zero_norm_vector_reported_missing():
    snaps = [an.GradientSnapshot("a", 0, np.zeros(4)),
             an.GradientSnapshot("b", 0, np.ones(4))]
    sim = an.gradient_similarity_matrix(snaps)
    assert np.isnan(sim.matrix[0, 1])
    assert sim.missing == [("a", "b")]


def test_snapshots_must_share_step_and_length():
    with pytest.raises(ContractError):
        an.gradient_similarity_matrix([an.GradientSnapshot("a", 0, np.ones(3)),
                                       an.GradientSnapshot("b", 1, np.ones(3))])
    with pytest.raises(ContractError):
        an.gradient_similarity_matrix([an.GradientSnapshot("a", 0, np.ones(3)),
                                       an.GradientSnapshot("b", 0, np.ones(4))])


def test_skill_level_similarity_partitions_pairs():
    labels = ["a", "b", "c"]
    mat = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.4], [0.2, 0.4, 1.0]])
    sim = an.SimilarityMatrix(labels=labels, matrix=mat, missing=[])
    out = an.skill_level_similarity(sim, {"a": "s1", "b": "s1", "c": "s2"})
    assert out["intra_skill"] == pytest.approx(0.8)
    assert out["inter_skill"] == pytest.approx(0.3)


# -- probing -----------------------------------------------------------------

def test_probe_weights_start_at_half():
    data = two_task_suite()
    model = _build(data, probe=True)
    w = an.probe_contributions(model)
    assert len(w) == TINY.num_layers
    assert all(v == pytest.approx(0.5, abs=1e-15) for v in w)


def test_probe_weight_pairs_sum_to_one():
    data = two_task_suite()
    model = _build(data, probe=True)
    rng = np.random.default_rng(0)
    for p in model.probe.params.values():
        p.data = rng.normal(size=())
    for i in range(TINY.num_layers):
        w = float(model.probe.weight(i).data)
        assert w + (1.0 - w) == 1.0
        assert 0.0 < w < 1.0


def test_probe_a1_b0_matches_softmax_oracle():
    data = two_task_suite()
    model = _build(data, probe=True)
    model.probe.params["probe.layer0.a"].data = np.array(1.0)
    w = float(model.probe.weight(0).data)
    e = math.exp(1.0)
    assert w == pytest.approx(e / (e + 1.0), abs=1e-12)
    assert w == pytest.approx(0.7311, abs=5e-5)


def test_forced_unit_weight_with_zero_spals_is_frozen_path():
    data = two_task_suite()
    model = _build(data, probe=True)
    ids = data["alpha"].train[0].token_ids
    plain = MtlModel(model.backbone).encode(ids[None])
    forced = model.encode(ids[None], force_probe_w=1.0)
    for a, b in zip(plain.per_layer_outputs, forced.per_layer_outputs):
        assert np.array_equal(a.data, b.data)


def test_probe_contributions_require_probe():
    data = two_task_suite()
    with pytest.raises(ContractError):
        an.probe_contributions(_build(data, probe=False))


# -- embeddings --------------------------------------------------------------

def test_constant_loss_task_embedding_is_zero():
    data = two_task_suite()
    model = _build(data)
    ex = data["alpha"].train[0]
    # make the regression target equal the current prediction: zero gradient
    from spalmtl.tasks import TaskSpec, Head, head_forward
    spec = TaskSpec(id="flat", kind="seq_regression", metric="rmse")
    model.heads["flat"] = Head(spec, TINY.model_dim, seed=0)
    pred = float(head_forward(model.encode_examples([ex]),
                              model.heads["flat"]).data[0])
    flat_ex = TaskExample(token_ids=ex.token_ids.copy(), label=pred)
    emb = an.task_embedding(model, spec, [flat_ex])
    assert np.array_equal(emb, np.zeros(model.shared_trainable_size()))


def test_task_embedding_matches_squared_finite_differences():
    data = two_task_suite()
    model = _build(data)
    ex = data["alpha"].train[0]
    emb = an.task_embedding(model, data["alpha"].spec, [ex])

    from spalmtl.tasks import head_forward, task_loss

    def loss_value():
        enc = model.encode_examples([ex])
        preds = head_forward(enc, model.heads["alpha"])
        return float(task_loss(data["alpha"].spec, preds, [ex.label]).data)

    p = model.spals.params["spal.layer0.up"]
    at = 0
    for q in model.shared_trainable_params():
        if q is p:
            break
        at += q.data.size
    fd_sq = fd_gradient(loss_value, p.data) ** 2
    got = emb[at:at + p.data.size].reshape(p.data.shape)
    assert np.all(np.abs(fd_sq - got) <= 1e-9 + 1e-3 * np.maximum(np.abs(fd_sq),
                                                                  np.abs(got)))


def test_task_embedding_averages_over_examples():
    data = two_task_suite()
    model = _build(data)
    spec = data["alpha"].spec
    exs = data["alpha"].train[:2]
    per = [an.task_embedding(model, spec, [e]) for e in exs]
    both = an.task_embedding(model, spec, exs)
    assert np.max(np.abs(both - (per[0] + per[1]) / 2)) < 1e-12


def test_text_embedding_single_example_and_self_cosine():
    data = two_task_suite()
    model = _build(data)
    ex = data["alpha"].train[0]
    emb = an.text_embedding(model, [ex])
    enc = model.encode(ex.token_ids[None])
    pooled = enc.final().data[enc.attention_mask].mean(axis=0)
    assert np.array_equal(emb, pooled)
    assert an.cosine(emb, an.text_embedding(model, [ex])) == pytest.approx(1.0)


def test_text_embedding_two_example_oracle():
    data = two_task_suite()
    model = _build(data)
    exs = data["alpha"].train[:2]
    emb = an.text_embedding(model, exs)
    oracle = np.zeros(TINY.model_dim)
    for ex in exs:
        enc = model.encode(ex.token_ids[None])
        rows = enc.final().data[enc.attention_mask]
        oracle += np.array([sum(rows[i][j] for i in range(rows.shape[0]))
                            / rows.shape[0] for j in range(TINY.model_dim)])
    oracle /= 2
    assert np.max(np.abs(emb - oracle)) < 1e-10


def test_embedding_similarity_matrix_labels_sorted():
    sim = an.embedding_similarity_matrix({"b": np.ones(3), "a": np.ones(3)})
    assert sim.labels == ["a", "b"]
    assert sim.matrix[0, 1] == pytest.approx(1.0)


# -- no-graph inference ------------------------------------------------------

def test_no_graph_encoding_has_no_parents():
    data = two_task_suite()
    model = _build(data, probe=True)
    ids = data["alpha"].train[0].token_ids[None]
    assert model.encode(ids).final().requires_grad
    with ad.no_graph():
        enc = model.encode(ids)
    for t in enc.per_layer_outputs:
        assert t._parents == () and not t.requires_grad


def test_inference_matches_graph_mode(monkeypatch):
    data = two_task_suite()
    model = _build(data, probe=True)
    graphs = []     # whether each encoding built a graph
    encode = model.encode

    def spy(*args, **kwargs):
        enc = encode(*args, **kwargs)
        graphs.append(enc.final().requires_grad)
        return enc

    monkeypatch.setattr(model, "encode", spy)

    def infer():
        return ([evaluate_task(model, data[t].spec, data[t].dev) for t in sorted(data)],
                an.rep_gen_at_layers(model, data, [1, 2]),
                [an.text_embedding(model, data[t].train).tobytes() for t in sorted(data)],
                model.probe.values())

    no_graph = infer()
    assert graphs and not any(graphs)
    graphs.clear()
    with monkeypatch.context() as m:
        m.setattr(ad, "no_graph", contextlib.nullcontext)
        with_graph = infer()
    assert graphs and all(graphs)
    assert no_graph == with_graph

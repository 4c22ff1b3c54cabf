"""Training engine: batch mixing law, update scoping, gradient scoping,
determinism, divergence, checkpoint selection and seed aggregation."""

import dataclasses
import inspect

import numpy as np
import pytest

from spalmtl import autodiff as ad
from spalmtl import engine
from spalmtl.backbone import TOY
from spalmtl.engine import (Batch, RunRecord, TrainPlan, aggregate_seeds,
                            batch_loss, build_mixed_batches, build_stream,
                            run_training, train_step,
                            transfer_finetune)
from spalmtl.errors import ConfigError, ContractError, SpalMtlError
from spalmtl.model import MtlModel
from spalmtl.optim import OptimizerState
from spalmtl.synthdata import findata_shaped_suite, gen_synthetic_suite

from conftest import TINY, copy_all_params, graph_nodes, two_task_suite


def _shares(stream):
    counts = {}
    for b in stream:
        counts[b.task_id] = counts.get(b.task_id, 0) + 1
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def test_single_task_stream_is_pure():
    stream = build_mixed_batches({"only": list(range(40))}, {"only": 8}, seed=0)
    assert len(stream) == 5
    assert all(b.task_id == "only" for b in stream)


def test_proportional_shares_at_unit_temperature():
    datasets = {"a": list(range(1000)), "b": list(range(3000))}
    sizes = {"a": 10, "b": 10}
    counts = {"a": 0, "b": 0}
    total = 0
    seed = 0
    while total < 10_000:
        stream = build_mixed_batches(datasets, sizes, seed=seed)
        for b in stream:
            counts[b.task_id] += 1
        total += len(stream)
        seed += 1
    assert abs(counts["a"] / total - 0.25) < 0.02
    assert abs(counts["b"] / total - 0.75) < 0.02


def test_high_temperature_approaches_uniform():
    datasets = {"a": list(range(1000)), "b": list(range(3000))}
    sizes = {"a": 10, "b": 10}
    counts = {"a": 0, "b": 0}
    total = 0
    seed = 0
    while total < 10_000:
        stream = build_mixed_batches(datasets, sizes, seed=seed, temperature=64.0)
        for b in stream:
            counts[b.task_id] += 1
        total += len(stream)
        seed += 1
    assert abs(counts["a"] / total - 0.5) < 0.02
    assert abs(counts["b"] / total - 0.5) < 0.02


def test_temperature_preserves_stream_length():
    datasets = {"a": list(range(100)), "b": list(range(300))}
    sizes = {"a": 10, "b": 10}
    t1 = build_mixed_batches(datasets, sizes, seed=3)
    t8 = build_mixed_batches(datasets, sizes, seed=3, temperature=8.0)
    assert len(t8) == len(t1) == 40


def test_empty_dataset_rejected():
    with pytest.raises(ConfigError, match="empty"):
        build_mixed_batches({"a": []}, {"a": 4}, seed=0)


def test_stream_is_deterministic():
    datasets = {"a": list(range(50)), "b": list(range(70))}
    sizes = {"a": 8, "b": 8}
    s1 = build_mixed_batches(datasets, sizes, seed=5)
    s2 = build_mixed_batches(datasets, sizes, seed=5)
    assert [(b.task_id, b.examples) for b in s1] == \
        [(b.task_id, b.examples) for b in s2]


# -- stepping ---------------------------------------------------------------

def _build(data, seed=1, spal_hidden=4, probe=False):
    specs = [data[tid].spec for tid in sorted(data)]
    return MtlModel.build(TINY, specs, spal_hidden=spal_hidden, seed=seed,
                          freeze_backbone=True, probe=probe)


def test_task_weight_scales_batch_loss():
    data = two_task_suite()
    model = _build(data)
    spec = data["alpha"].spec
    examples = data["alpha"].train[:4]
    base = float(batch_loss(model, spec, examples).data)
    doubled = float(batch_loss(model, dataclasses.replace(spec, weight=2.0),
                               examples).data)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_train_step_updates_only_trunk_and_sampled_head():
    data = two_task_suite()
    model = _build(data)
    specs = {tid: data[tid].spec for tid in data}
    before = copy_all_params(model)
    state = OptimizerState(total_steps=10)
    train_step(model, Batch("alpha", data["alpha"].train[:4]), specs, state)
    after = copy_all_params(model)
    for name in before:
        changed = not np.array_equal(before[name], after[name])
        if name.startswith("backbone.") or name.startswith("head.beta"):
            assert not changed, name
        elif name.startswith("head.alpha") or name.startswith("spal."):
            assert changed, name


def test_unregistered_task_is_contract_error():
    data = two_task_suite()
    model = _build(data)
    specs = {tid: data[tid].spec for tid in data}
    with pytest.raises(ContractError):
        train_step(model, Batch("ghost", data["alpha"].train[:2]), specs,
                   OptimizerState(total_steps=5))


# -- which params receive gradients -----------------------------------------

def _batch_grads(model, spec, examples):
    model.zero_grads()
    ad.backward(batch_loss(model, spec, examples))
    grads = {k: p.grad for k, p in model.all_params().items()}
    model.zero_grads()
    return grads


@pytest.mark.parametrize("probe", [False, True])
def test_frozen_backbone_gets_no_gradient(probe):
    data = two_task_suite()
    model = _build(data, probe=probe)
    grads = _batch_grads(model, data["alpha"].spec, data["alpha"].train[:4])
    for name, g in grads.items():
        if name.startswith("backbone.") or name.startswith("head.beta"):
            assert g is None, name
        else:
            assert g is not None, name


def test_adapter_and_head_gradients_do_not_depend_on_freezing():
    data = two_task_suite()
    model = _build(data, probe=True)
    spec, examples = data["alpha"].spec, data["alpha"].train[:4]
    frozen = _batch_grads(model, spec, examples)
    model.backbone.set_trainable(True)
    unfrozen = _batch_grads(model, spec, examples)
    assert all(unfrozen[k] is not None for k in model.backbone.params)
    trained = [k for k, g in frozen.items() if g is not None]
    assert trained
    for k in trained:
        assert frozen[k].tobytes() == unfrozen[k].tobytes(), k


def test_trainable_flag_is_read_when_the_graph_is_built():
    data = two_task_suite()
    model = _build(data)
    spec, examples = data["alpha"].spec, data["alpha"].train[:4]
    loss = batch_loss(model, spec, examples)
    model.backbone.set_trainable(True)     # after the graph was built
    ad.backward(loss)
    assert all(p.grad is None for p in model.backbone.params.values())
    model.zero_grads()

    model.backbone.set_trainable(False)
    specs = {tid: data[tid].spec for tid in data}
    state = OptimizerState(total_steps=10)
    before = copy_all_params(model)
    train_step(model, Batch("alpha", examples), specs, state)
    model.backbone.set_trainable(True)     # between two steps
    grads = _batch_grads(model, spec, examples)
    assert all(grads[k] is not None for k in model.backbone.params)
    train_step(model, Batch("alpha", examples), specs, state)
    for k, p in model.backbone.params.items():
        assert not np.array_equal(before[k], p.data), k


def test_train_step_graph_size_is_pinned():
    """One toy train step's graph (frozen backbone, SPAL hidden 4): 14
    trainable Params (6 per SPAL, 2 in the head) and one node per op. Layer
    1 records 20 ops: two attention blocks of 5 (q, k, v and output linears
    around one fused attention), the SPAL's down and up linears, the
    backbone's two residual adds, two layer norms, two feed-forward linears
    and gelu, and the SPAL sum. Layer 0's backbone branch reads only frozen
    values, so that layer records its SPAL and the sum (8). A sequence
    classifier's loss adds pick, linear, cross_entropy, tmean and scale:
    14 + 20 + 8 + 5 = 47. With the probe on, each layer's sum is one blend
    node instead, and the two layers' (a, b) scalars add 4 Params: 47 + 4 =
    51."""
    data = gen_synthetic_suite(findata_shaped_suite(seed=0))
    want = {False: {"seq_regression": 49, "seq_classification": 47, "token_classification": 48},
            True: {"seq_regression": 53, "seq_classification": 51, "token_classification": 52}}
    for probe in (False, True):
        model = MtlModel.build(TOY, [td.spec for td in data.values()], spal_hidden=4,
                               seed=1, probe=probe)
        counts = {}
        for tid in ("tsa", "sc", "fsrl"):
            spec = data[tid].spec
            loss = batch_loss(model, spec, data[tid].train[:spec.batch_size])
            counts[spec.kind] = len(graph_nodes(loss))
        assert counts == want[probe], probe


def test_diverging_run_stops_at_first_non_finite_loss():
    data = two_task_suite()
    model = _build(data)
    # At this rate weight decay multiplies every weight by -9 a step, so the
    # logits overflow within a few dozen steps. (At lr 1.0 the fused
    # cross-entropy stays finite: the run does not diverge.)
    plan = TrainPlan(epochs=4, eval_interval=2, seed=1, base_lr=1e3, warmup_steps=0)
    record = RunRecord(seed=1, task_ids=sorted(data), plan_fingerprint=plan.fingerprint())
    with pytest.raises(SpalMtlError, match="non-finite loss") as err, \
            np.errstate(over="ignore", invalid="ignore"):
        run_training(plan, model, data, record=record)
    step = len(record.losses) + 1
    assert f"step {step} on task" in str(err.value)
    assert step < len(build_stream(plan, data))
    assert all(np.isfinite(loss) for _, _, loss in record.losses)


def test_frozen_backbone_bits_survive_training():
    data = two_task_suite()
    model = _build(data)
    before = {k: v.data.copy() for k, v in model.backbone.params.items()}
    plan = TrainPlan(epochs=2, eval_interval=6, seed=1)
    run_training(plan, model, data)
    for name, arr in before.items():
        assert np.array_equal(arr, model.backbone.params[name].data), name


def test_eval_cadence_and_final_step():
    data = two_task_suite()
    model = _build(data)
    plan = TrainPlan(epochs=2, eval_interval=5, seed=1)
    record = run_training(plan, model, data)
    total = record.total_steps
    steps = [s for s, _ in record.evals]
    expected = sorted(set(list(range(5, total + 1, 5)) + [total]))
    assert steps == expected


def test_run_is_deterministic_per_seed():
    data = two_task_suite()
    plan = TrainPlan(epochs=2, eval_interval=6, seed=3)
    r1 = run_training(plan, _build(data), data)
    r2 = run_training(plan, _build(data), data)
    assert r1.losses == r2.losses
    assert r1.evals == r2.evals


def test_resume_midway_matches_uninterrupted():
    data = two_task_suite()
    plan = TrainPlan(epochs=2, eval_interval=6, seed=4)
    full = run_training(plan, _build(data), data)

    model = _build(data)
    stream_len = len(build_stream(plan, data))
    half = stream_len // 2
    partial = run_training(plan, model, data, max_steps=half)
    resumed = run_training(plan, model, data, record=partial)
    assert resumed.losses == full.losses
    assert resumed.evals == full.evals


# -- selection and aggregation ----------------------------------------------

def _best_under_scripted_scores(monkeypatch, kind, metric, scores):
    """Run a one-task plan whose evaluations return ``scores`` in order and
    return ``record.best`` for the task."""
    solo = {"alpha": two_task_suite(kind=kind)["alpha"]}
    assert solo["alpha"].spec.metric == metric
    script = iter(scores)
    monkeypatch.setattr(engine, "evaluate_task", lambda model, spec, examples: next(script))
    plan = TrainPlan(epochs=len(scores), eval_interval=6, seed=1)
    record = run_training(plan, _build(solo), solo)
    assert [s for s, _ in record.evals] == [6 * (i + 1) for i in range(len(scores))]
    return record.best["alpha"]


def test_best_keeps_maximum_accuracy(monkeypatch):
    best = _best_under_scripted_scores(monkeypatch, "seq_classification",
                                       "accuracy", [80.0, 85.0, 83.0])
    assert best == {"step": 12, "score": 85.0, "checkpoint_id": "alpha-step12"}


def test_best_tie_keeps_earliest_step(monkeypatch):
    best = _best_under_scripted_scores(monkeypatch, "seq_classification",
                                       "accuracy", [85.0, 85.0])
    assert best == {"step": 6, "score": 85.0, "checkpoint_id": "alpha-step6"}


def test_best_keeps_minimum_rmse(monkeypatch):
    best = _best_under_scripted_scores(monkeypatch, "seq_regression", "rmse",
                                       [0.5, 0.2, 0.3])
    assert best == {"step": 12, "score": 0.2, "checkpoint_id": "alpha-step12"}


def _record_with_best(seed, score, task="t"):
    return RunRecord(seed=seed, task_ids=[task], plan_fingerprint={"p": 1},
                     best={task: {"step": 1, "score": score,
                                  "checkpoint_id": "x"}})


def test_aggregate_two_seeds():
    agg = aggregate_seeds([_record_with_best(1, 86.0), _record_with_best(2, 88.0)])
    assert agg.per_task["t"]["mean"] == pytest.approx(87.0)
    assert agg.per_task["t"]["std"] == pytest.approx(1.0)


def test_aggregate_identical_scores_zero_std():
    agg = aggregate_seeds([_record_with_best(s, 90.0) for s in (1, 2, 3)])
    assert agg.per_task["t"]["std"] == 0.0


def test_aggregate_matches_scalar_oracle():
    scores = [81.2, 79.5, 84.0, 80.1, 82.7]
    agg = aggregate_seeds([_record_with_best(i, s) for i, s in enumerate(scores)])
    mean = sum(scores) / 5
    var = sum((s - mean) ** 2 for s in scores) / 5
    assert agg.per_task["t"]["mean"] == pytest.approx(mean, abs=1e-12)
    assert agg.per_task["t"]["std"] == pytest.approx(var ** 0.5, abs=1e-12)


def test_aggregate_needs_two_matching_records():
    with pytest.raises(ContractError):
        aggregate_seeds([_record_with_best(1, 80.0)])
    other = _record_with_best(2, 81.0)
    other.plan_fingerprint = {"p": 2}
    with pytest.raises(ContractError):
        aggregate_seeds([_record_with_best(1, 80.0), other])


# -- transfer ---------------------------------------------------------------

def test_transfer_defaults_match_protocol():
    sig = inspect.signature(transfer_finetune)
    assert sig.parameters["train_shots"].default == 400
    assert sig.parameters["dev_shots"].default == 400
    assert sig.parameters["epochs"].default == 10


def test_transfer_rejects_oversized_shots():
    data = two_task_suite()
    model = _build(data)
    with pytest.raises(ConfigError, match="exceed"):
        transfer_finetune(model, data["alpha"], TrainPlan(seed=1),
                          train_shots=1000, dev_shots=8, epochs=1)


def test_transfer_attaches_fresh_head_and_keeps_trunk_frozen():
    data = two_task_suite()
    model = _build(data)
    old_head_w = model.heads["alpha"].w.data.copy()
    backbone_before = {k: v.data.copy() for k, v in model.backbone.params.items()}
    record = transfer_finetune(model, data["alpha"], TrainPlan(seed=1),
                               train_shots=8, dev_shots=4, epochs=1)
    assert set(model.heads) == {"alpha"}
    assert not np.array_equal(model.heads["alpha"].w.data, old_head_w)
    for name, arr in backbone_before.items():
        assert np.array_equal(arr, model.backbone.params[name].data)
    assert "alpha" in record.best

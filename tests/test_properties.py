"""Cross-module property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spalmtl.checkpoint import load_checkpoint, save_checkpoint
from spalmtl.engine import Batch, train_step
from spalmtl.model import MtlModel
from spalmtl.optim import OptimizerState, lr_at
from spalmtl.tasks import TaskSpec, insert_target_markers

from conftest import (TINY, attention_weights, copy_all_params, strip_target_markers,
                      two_task_suite)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_checkpoint_round_trip_random_models(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    spec = TaskSpec(id="t", kind="seq_classification", metric="accuracy",
                    num_classes=int(rng.integers(2, 5)))
    model = MtlModel.build(TINY, [spec], spal_hidden=int(rng.choice([2, 4])),
                           seed=seed, freeze_backbone=bool(rng.integers(2)),
                           probe=bool(rng.integers(2)))
    for p in model.all_params().values():
        p.data = rng.normal(size=p.data.shape)
    path = tmp_path_factory.mktemp("ckpt") / "m.spal"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    pa, pb = model.all_params(), loaded.all_params()
    assert set(pa) == set(pb)
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data)
        assert pa[name].trainable == pb[name].trainable


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1_000))
def test_frozen_backbone_invariant_under_steps(seed):
    data = two_task_suite(seed=seed % 7)
    specs = {tid: data[tid].spec for tid in data}
    model = MtlModel.build(TINY, list(specs.values()), spal_hidden=4,
                           seed=seed, freeze_backbone=True)
    before = {k: v.data.copy() for k, v in model.backbone.params.items()}
    state = OptimizerState(total_steps=4)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        tid = ["alpha", "beta"][int(rng.integers(2))]
        batch = Batch(tid, list(rng.choice(data[tid].train, size=2)))
        train_step(model, batch, specs, state)
    for name, arr in before.items():
        assert np.array_equal(arr, model.backbone.params[name].data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_marker_insert_strip_inverse(data):
    length = data.draw(st.integers(1, 10))
    ids = np.array(data.draw(st.lists(st.integers(4, 50), min_size=length,
                                      max_size=length)))
    start = data.draw(st.integers(0, length - 1))
    end = data.draw(st.integers(start, length - 1))
    kind = data.draw(st.sampled_from(["company", "number"]))
    marked = insert_target_markers(ids, (start, end), kind)
    assert len(marked) == length + 2
    assert np.array_equal(strip_target_markers(marked), ids)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5000), st.integers(0, 6000))
def test_lr_schedule_bounds(total, step):
    state = OptimizerState(total_steps=total, warmup_steps=min(500, total))
    lr = lr_at(step, state)
    assert 0.0 <= lr <= state.base_lr + 1e-18


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
       st.floats(-100, 100))
def test_softmax_shift_invariance(logits, shift):
    x = np.array([logits])
    a = attention_weights(x)
    b = attention_weights(x + shift)
    assert np.max(np.abs(a - b)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_snapshot_restore_round_trip(seed):
    spec = TaskSpec(id="t", kind="seq_regression", metric="rmse")
    model = MtlModel.build(TINY, [spec], spal_hidden=2, seed=seed)
    snap = copy_all_params(model)
    rng = np.random.default_rng(seed)
    for p in model.all_params().values():
        p.data = rng.normal(size=p.data.shape)
    model.restore(snap)
    for name, p in model.all_params().items():
        assert np.array_equal(p.data, snap[name])


def test_snapshot_copies_only_trainable_params():
    spec = TaskSpec(id="t", kind="seq_regression", metric="rmse")
    model = MtlModel.build(TINY, [spec], spal_hidden=2, seed=0, probe=True)
    snap = model.snapshot()
    assert set(snap) == {k for k, p in model.all_params().items()
                         if not k.startswith("backbone.")}
    model.backbone.set_trainable(True)
    assert set(model.snapshot()) == set(model.all_params())

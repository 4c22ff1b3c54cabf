"""End-to-end acceptance suite.

Each test prints one PASS line on success; a failed assertion marks the
criterion failed. Everything here is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from spalmtl import autodiff as ad
from spalmtl.backbone import BERT_BASE, PRESETS, BackboneConfig
from spalmtl.checkpoint import load_checkpoint, save_checkpoint
from spalmtl.cli import main
from spalmtl.engine import (Batch, TrainPlan, build_mixed_batches, build_stream,
                            evaluate_task, run_training, train_step)
from spalmtl.model import MtlModel
from spalmtl.optim import OptimizerState
from spalmtl.spal import SpalConfig, capacity_fraction, count_spal_params
from spalmtl.synthdata import (GeneratorSpec, SynthTaskSpec,
                               findata_shaped_suite, gen_synthetic_suite)
from spalmtl.tasks import TaskSpec, head_forward, task_loss

from conftest import copy_all_params, read_matrix_csv


def _passed(n: int, desc: str) -> None:
    print(f"[ACCEPTANCE {n}] {desc}: PASS")


# ---------------------------------------------------------------------------

def test_criterion_01_parameter_count_exactness():
    t0 = time.time()
    assert count_spal_params(SpalConfig(12), BERT_BASE) == 228_096
    assert count_spal_params(SpalConfig(204), BERT_BASE) == 5_757_696
    assert count_spal_params(SpalConfig(816), BERT_BASE) == 47_001_600
    frac = capacity_fraction(SpalConfig(816), BERT_BASE)
    assert 0.422 <= frac <= 0.432
    assert time.time() - t0 < 1.0
    _passed(1, "parameter counts exact, capacity fraction in bracket")


def test_criterion_02_gradient_oracle():
    t0 = time.time()
    eps = 1e-5
    kinds = [
        ("seq_regression", "rmse", 1, ()),
        ("seq_classification", "accuracy", 3, ()),
        ("token_classification", "token_accuracy", 3, ("O", "B-E0", "I-E0")),
    ]
    n_checked = 0
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        layers = int(rng.integers(1, 3))
        heads = int(rng.choice([1, 2]))
        d = int(rng.choice([4, 8]))
        cfg = BackboneConfig(num_layers=layers, model_dim=d, num_heads=heads,
                             ff_dim=2 * d, vocab_size=24, max_seq_len=8)
        kind, metric, k, tags = kinds[case % 3]
        spec = TaskSpec(id="t", kind=kind, metric=metric,
                        num_classes=k if kind != "seq_regression" else 1,
                        tag_names=tags)
        model = MtlModel.build(cfg, [spec], spal_hidden=2 * heads, seed=case,
                               freeze_backbone=False, probe=bool(case % 2))
        for p in model.spals.params.values():
            p.data = rng.normal(0.0, 0.02, p.data.shape)
        ids = rng.integers(4, 24, size=int(rng.integers(2, 4)))
        if kind == "seq_regression":
            label = float(rng.uniform(-1, 1))
        elif kind == "seq_classification":
            label = int(rng.integers(k))
        else:
            label = rng.integers(0, k, size=ids.size)

        def loss_value():
            enc = model.encode(ids[None])
            return float(task_loss(spec, head_forward(enc, model.heads["t"]),
                                   [label]).data)

        model.zero_grads()
        ad.backward(task_loss(spec, head_forward(model.encode(ids[None]),
                                                 model.heads["t"]), [label]))
        for name, p in model.all_params().items():
            g = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                lp = loss_value()
                flat[i] = old - eps
                lm = loss_value()
                flat[i] = old
                fd = (lp - lm) / (2 * eps)
                # relative error with an absolute floor: components below the
                # finite-difference noise floor are compared absolutely
                err = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-5)
                assert err < 1e-4, (case, name, i, fd, g[i])
                n_checked += 1
        model.zero_grads()
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _passed(2, f"{n_checked} gradient components across 20 configs within "
               f"1e-4 of finite differences in {elapsed:.1f}s")


def test_criterion_03_freeze_invariance():
    t0 = time.time()
    data = gen_synthetic_suite(findata_shaped_suite(seed=0))
    toy = PRESETS["toy"]
    model = MtlModel.build(toy, [data[t].spec for t in sorted(data)],
                           spal_hidden=4, seed=1, freeze_backbone=True)
    before = copy_all_params(model)
    plan = TrainPlan(epochs=11, eval_interval=10**9, seed=1)
    record = run_training(plan, model, data, max_steps=1000)
    assert len(record.losses) == 1000
    sampled = {tid for _, tid, _ in record.losses}
    assert sampled == set(data)
    after = copy_all_params(model)
    changed = {k for k in before if not np.array_equal(before[k], after[k])}
    backbone_names = {k for k in before if k.startswith("backbone.")}
    expected = {k for k in before
                if k.startswith("spal.") or k.startswith("head.")}
    assert changed.isdisjoint(backbone_names)
    assert changed == expected
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _passed(3, f"backbone bit-identical over 1000 steps; changed set is "
               f"exactly adapters plus heads ({elapsed:.1f}s)")


def test_criterion_04_singleton_equivalence():
    bb = BackboneConfig(num_layers=2, model_dim=8, num_heads=2, ff_dim=16,
                        vocab_size=128, max_seq_len=16)
    task = SynthTaskSpec("solo", "seq_classification", (200, 24, 24), 1.0,
                         num_classes=2, batch_size=8)
    data = gen_synthetic_suite(GeneratorSpec(tasks=(task,), vocab_size=96,
                                             seq_len=(6, 8), latent_dim=3,
                                             bins=6, seed=0))
    plan = TrainPlan(epochs=20, eval_interval=100, seed=2)
    assert len(build_stream(plan, data)) == 500
    specs = {"solo": data["solo"].spec}
    joint_model = MtlModel.build(bb, list(specs.values()), 4, seed=2)
    joint = run_training(plan, joint_model, data)

    # Plain single-task training: each epoch shuffles the task's own
    # examples into batches of its batch size, shuffles the batch order,
    # and takes one train_step per batch.
    solo = data["solo"]
    model = MtlModel.build(bb, list(specs.values()), 4, seed=2)
    state = OptimizerState(total_steps=500, base_lr=plan.base_lr,
                           warmup_steps=plan.warmup_steps,
                           weight_decay=plan.weight_decay)
    losses, evals, step = [], [], 0
    for epoch in range(plan.epochs):
        rng = np.random.default_rng([plan.seed, epoch, 0x5A1])
        order = rng.permutation(len(solo.train))
        batches = [[solo.train[i] for i in order[k:k + solo.spec.batch_size]]
                   for k in range(0, len(order), solo.spec.batch_size)]
        for j in rng.permutation(len(batches)):
            loss = train_step(model, Batch("solo", batches[j]), specs, state)
            step += 1
            losses.append((step, "solo", loss))
            if step % plan.eval_interval == 0:
                evals.append((step, {"solo": evaluate_task(model, solo.spec, solo.dev)}))
    assert joint.losses == losses
    assert joint.evals == evals
    for name, p in joint_model.all_params().items():
        assert p.data.tobytes() == model.all_params()[name].data.tobytes(), name
    _passed(4, "single-task joint training reproduces an explicit "
               "train_step loop bit-identically over 500 steps")


def test_criterion_05_generalization_oracle():
    from spalmtl import analysis as an

    bb = BackboneConfig(num_layers=2, model_dim=8, num_heads=2, ff_dim=16,
                        vocab_size=128, max_seq_len=16)
    tasks = tuple(SynthTaskSpec(t, "seq_classification", (6, 2, 2), 1.0,
                                num_classes=2, batch_size=2)
                  for t in ("t1", "t2", "t3", "t4"))
    data = gen_synthetic_suite(GeneratorSpec(tasks=tasks, vocab_size=96,
                                             seq_len=(6, 8), latent_dim=3,
                                             bins=6, seed=5))
    model = MtlModel.build(bb, [data[t].spec for t in sorted(data)],
                           spal_hidden=4, seed=9)
    rng = np.random.default_rng(7)
    for p in model.spals.params.values():
        p.data = rng.normal(0.0, 0.02, p.data.shape)

    # independent plain-numpy forward pass
    P = {k: v.data for k, v in model.backbone.params.items()}
    S = {k: v.data for k, v in model.spals.params.items()}
    erf = np.vectorize(math.erf)

    def ln(x, gain, bias):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-12) * gain + bias

    def mha(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads):
        seq, _ = x.shape
        dm = wq.shape[1]
        dh = dm // num_heads
        q = (x @ wq + bq).reshape(seq, num_heads, dh).transpose(1, 0, 2)
        k = (x @ wk + bk).reshape(seq, num_heads, dh).transpose(1, 0, 2)
        v = (x @ wv + bv).reshape(seq, num_heads, dh).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        ctx = (probs @ v).transpose(1, 0, 2).reshape(seq, dm)
        return ctx @ wo + bo

    def oracle_layer_outputs(ids):
        x = P["backbone.word_emb"][ids] + P["backbone.pos_emb"][:len(ids)]
        x = ln(x, P["backbone.emb_ln.gain"], P["backbone.emb_ln.bias"])
        outs = []
        for i in range(bb.num_layers):
            pre = f"backbone.layer{i}"
            attn = mha(x, P[f"{pre}.attn.wq"], P[f"{pre}.attn.bq"],
                       P[f"{pre}.attn.wk"], P[f"{pre}.attn.bk"],
                       P[f"{pre}.attn.wv"], P[f"{pre}.attn.bv"],
                       P[f"{pre}.attn.wo"], P[f"{pre}.attn.bo"], bb.num_heads)
            y = ln(x + attn, P[f"{pre}.ln1.gain"], P[f"{pre}.ln1.bias"])
            h = y @ P[f"{pre}.ff.w1"] + P[f"{pre}.ff.b1"]
            h = h * 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
            h = h @ P[f"{pre}.ff.w2"] + P[f"{pre}.ff.b2"]
            frozen = ln(y + h, P[f"{pre}.ln2.gain"], P[f"{pre}.ln2.bias"])
            spre = f"spal.layer{i}"
            down = x @ S[f"{spre}.down"]
            hdim = down.shape[1]
            sattn = mha(down, S[f"{spre}.q"], 0.0, S[f"{spre}.k"], 0.0,
                        S[f"{spre}.v"], 0.0, S[f"{spre}.o"], 0.0, bb.num_heads)
            assert sattn.shape == (len(ids), hdim)
            x = frozen + sattn @ S[f"{spre}.up"]
            outs.append(x)
        return outs

    layer = 2
    means = {}
    for tid in sorted(data):
        acc = np.zeros(bb.model_dim)
        for ex in data[tid].train:
            acc += oracle_layer_outputs(ex.token_ids)[layer - 1].mean(axis=0)
        means[tid] = acc / len(data[tid].train)

    # explicit 6-pair cosine enumeration
    tids = sorted(means)
    pair_vals = []
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = means[tids[i]], means[tids[j]]
            pair_vals.append(float(a @ b)
                             / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b))))
    assert len(pair_vals) == 6
    g_oracle = sum(pair_vals) / 6.0

    g = an.rep_gen_at_layers(model, data, [layer])[layer]
    assert abs(g - g_oracle) < 1e-10
    assert -1.0 <= g <= 1.0
    _passed(5, f"generalization score matches brute-force oracle "
               f"(|diff| = {abs(g - g_oracle):.2e})")


def test_criterion_06_sampling_law():
    sizes = [91, 387, 667, 719, 90, 67]
    names = [f"t{i}" for i in range(6)]
    datasets = {n: list(range(s)) for n, s in zip(names, sizes)}
    batch_sizes = {n: 16 for n in names}
    total_examples = sum(sizes)

    for temperature, target in ((1.0, {n: s / total_examples
                                       for n, s in zip(names, sizes)}),
                                (64.0, {n: 1 / 6 for n in names})):
        counts = {n: 0 for n in names}
        seen = 0
        seed = 0
        while seen < 10_000:
            stream = build_mixed_batches(datasets, batch_sizes, seed=seed,
                                         temperature=temperature)
            for b in stream:
                counts[b.task_id] += 1
            seen += len(stream)
            seed += 1
        for n in names:
            share = counts[n] / seen
            assert abs(share - target[n]) < 0.02, (temperature, n, share)
    _passed(6, "task-batch shares match the size-proportional law at T=1 "
               "and the uniform limit at T=64 within 2 points")


def test_criterion_07_probe_contracts():
    bb = BackboneConfig(num_layers=2, model_dim=8, num_heads=2, ff_dim=16,
                        vocab_size=128, max_seq_len=16)
    spec = TaskSpec(id="t", kind="seq_classification", metric="accuracy",
                    num_classes=2)
    model = MtlModel.build(bb, [spec], spal_hidden=4, seed=3, probe=True)
    rng = np.random.default_rng(0)
    for p in model.probe.params.values():
        p.data = rng.normal(size=())
    for i in range(bb.num_layers):
        w = model.probe.values()[i]
        assert w + (1.0 - w) == 1.0

    for p in model.probe.params.values():
        p.data = np.array(0.31)  # a == b
    assert all(v == 0.5 for v in model.probe.values())

    for p in model.spals.params.values():
        p.data = np.zeros_like(p.data)
    ids = np.array([[4, 9, 17]])
    frozen = MtlModel(model.backbone).encode(ids)
    for i in range(bb.num_layers):  # sigmoid(40 - 0.31) rounds to exactly 1
        model.probe.params[f"probe.layer{i}.a"].data = np.array(40.0)
    assert model.probe.values() == [1.0] * bb.num_layers
    forced = model.encode(ids)
    for a, b in zip(frozen.per_layer_outputs, forced.per_layer_outputs):
        assert np.array_equal(a.data, b.data)
    _passed(7, "blend weights are a proper softmax pair and the forced "
               "frozen path is bitwise identical")


def test_criterion_08_checkpoint_integrity(tmp_path):
    bb = BackboneConfig(num_layers=1, model_dim=4, num_heads=1, ff_dim=8,
                        vocab_size=16, max_seq_len=8)
    kinds = [("seq_regression", "rmse", 1, ()),
             ("seq_classification", "accuracy", 2, ()),
             ("token_classification", "token_accuracy", 3,
              ("O", "B-E0", "I-E0"))]
    path = tmp_path / "m.spal"
    for trial in range(100):
        rng = np.random.default_rng(trial)
        kind, metric, k, tags = kinds[trial % 3]
        spec = TaskSpec(id=f"t{trial}", kind=kind, metric=metric,
                        num_classes=k, tag_names=tags)
        model = MtlModel.build(
            bb, [spec], spal_hidden=None if trial % 4 == 0 else 2, seed=trial,
            freeze_backbone=bool(trial % 2),
            probe=bool(trial % 4 == 2))
        for p in model.all_params().values():
            p.data = rng.normal(size=p.data.shape)
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        pa, pb = model.all_params(), loaded.all_params()
        assert set(pa) == set(pb)
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data), (trial, name)
            assert pa[name].trainable == pb[name].trainable, (trial, name)

    # resumed training continues the uninterrupted trajectory exactly
    tasks = tuple(SynthTaskSpec(t, "seq_classification", (24, 8, 8), 1.0,
                                num_classes=2, batch_size=4)
                  for t in ("a", "b"))
    data = gen_synthetic_suite(GeneratorSpec(tasks=tasks, vocab_size=96,
                                             seq_len=(6, 8), latent_dim=3,
                                             bins=6, seed=1))
    big = BackboneConfig(num_layers=2, model_dim=8, num_heads=2, ff_dim=16,
                         vocab_size=128, max_seq_len=16)
    specs = [data[t].spec for t in sorted(data)]
    plan = TrainPlan(epochs=2, eval_interval=6, seed=4)
    full = run_training(plan, MtlModel.build(big, specs, 4, seed=4), data)

    model = MtlModel.build(big, specs, 4, seed=4)
    half = len(build_stream(plan, data)) // 2
    partial = run_training(plan, model, data, max_steps=half)
    save_checkpoint(model, path, optimizer=partial.optimizer_state)
    restored, partial.optimizer_state = load_checkpoint(path)
    resumed = run_training(plan, restored, data, record=partial)
    assert resumed.losses == full.losses
    assert resumed.evals == full.evals
    _passed(8, "100 random models round trip bit-exactly; resumed run "
               "matches the uninterrupted trajectory")


def test_criterion_09_capacity_sweep_pipeline(tmp_path):
    t0 = time.time()
    cfg = {
        "backbone": "toy",
        "spal_hidden": 12,
        "plan": {"epochs": 3, "eval_interval": 8, "seed": 1},
        "data": {"generator": {
            "tasks": [
                {"id": "a", "kind": "seq_classification", "sizes": [32, 8, 8],
                 "num_classes": 2, "batch_size": 8},
                {"id": "b", "kind": "seq_classification", "sizes": [32, 8, 8],
                 "num_classes": 2, "batch_size": 8},
            ],
            "seed": 0,
        }},
        "analysis": {"rep_gen": True, "grad_snapshots": True,
                     "snapshot_cadence": 2000},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert main(["sweep-capacity", "--config", str(cfg_path),
                 "--hidden", "12,204,816", "--seeds", "1-3",
                 "--out", str(out)]) == 0
    for h in (12, 204, 816):
        agg = json.loads((out / f"h{h}" / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2, 3]
        for tid in ("a", "b"):
            stats = agg["per_task"][tid]
            assert {"mean", "std", "scores"} <= set(stats)
            assert len(stats["scores"]) == 3
        for seed in (1, 2, 3):
            run_dir = out / f"h{h}" / f"seed{seed}"
            rep_rows = (run_dir / "repgen.csv").read_text().strip().splitlines()
            assert rep_rows[0] == "step,layer,G" and len(rep_rows) >= 2
            sim = read_matrix_csv(run_dir / "gradsim_step0.csv")
            assert sim.labels == ["a", "b"]
            assert np.array_equal(sim.matrix, sim.matrix.T)
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    _passed(9, f"capacity sweep over three widths and three seeds emitted "
               f"aggregates, generalization curves and gradient-similarity "
               f"matrices in {elapsed:.0f}s")


def test_criterion_10_positive_transfer_sanity():
    bb = BackboneConfig(num_layers=2, model_dim=16, num_heads=2, ff_dim=32,
                        vocab_size=128, max_seq_len=16)
    tasks = tuple(SynthTaskSpec(t, "seq_classification", (64, 32, 32), 1.0,
                                num_classes=2, batch_size=8)
                  for t in ("alpha", "beta"))
    data = gen_synthetic_suite(GeneratorSpec(tasks=tasks, vocab_size=96,
                                             seq_len=(6, 8), latent_dim=3,
                                             bins=6, seed=0))
    mtl_scores, stl_scores = [], []
    for seed in range(1, 6):
        plan = TrainPlan(epochs=40, eval_interval=16, seed=seed,
                         base_lr=1e-2, warmup_steps=20)
        model = MtlModel.build(bb, [data[t].spec for t in sorted(data)],
                               spal_hidden=8, seed=seed)
        rec = run_training(plan, model, data)
        mtl_scores.append(rec.best["alpha"]["score"])

        solo = {"alpha": data["alpha"]}
        stl_model = MtlModel.build(bb, [data["alpha"].spec], spal_hidden=8,
                                   seed=seed)
        rec_stl = run_training(plan, stl_model, solo)
        stl_scores.append(rec_stl.best["alpha"]["score"])
    mtl_mean = float(np.mean(mtl_scores))
    stl_mean = float(np.mean(stl_scores))
    assert mtl_mean >= stl_mean - 0.5, (mtl_scores, stl_scores)
    _passed(10, f"joint training mean best dev accuracy {mtl_mean:.2f} vs "
                f"single-task {stl_mean:.2f} over seeds 1-5")

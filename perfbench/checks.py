"""Output checks that gate every run, and the known-answer training run.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
import json
from pathlib import Path

import numpy as np

from spalmtl import engine
from spalmtl.engine import Batch
from spalmtl.model import MtlModel
from spalmtl.optim import OptimizerState
from spalmtl.synthdata import GeneratorSpec, SynthTaskSpec, gen_synthetic_suite
from spalmtl.tasks import Head

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Cosines of unit-norm vectors can round past 1 by a few ulps.
COSINE_SLACK = 1e-12

# Known-answer run: three tasks (one per loss kind), two passes over one
# two-example batch each. Batches are small because at bert-base geometry
# each example's backward costs ~0.5 s.
KAT_SUITE = GeneratorSpec(tasks=(
    SynthTaskSpec("reg", "seq_regression", (2, 1, 1), batch_size=2),
    SynthTaskSpec("cls", "seq_classification", (2, 1, 1), num_classes=3, batch_size=2),
    SynthTaskSpec("tag", "token_classification", (2, 1, 1), num_classes=5, batch_size=2),
), seed=0)
KAT_PASSES = 2
KAT_LR = 1e-3
# Relative tolerance on the known-answer figures. Reordering a float64 sum
# moves them by ~1e-15 and six steps do not amplify that past 1e-12. Losses
# alone would miss a gradient that is wrong by a constant factor, because
# AdamW's update is nearly invariant to gradient scale; so every step also
# checks each parameter's gradient: its norm and a fixed random projection.
KAT_RTOL = 1e-9


def similarity_matrix(name: str, sim, vectors: list[np.ndarray]) -> list[str]:
    """Symmetric, unit diagonal, entries in [-1, 1], NaN exactly where one of
    the two vectors has zero norm."""
    m = sim.matrix
    zero = [not np.any(v) for v in vectors]
    problems = []
    if m.shape != (len(vectors), len(vectors)):
        return [f"{name}: shape {m.shape} for {len(vectors)} vectors"]
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            v, undefined = m[i, j], zero[i] or zero[j]
            if np.isnan(v) != undefined:
                problems.append(f"{name}[{i},{j}] = {v} (zero norm: {undefined})")
            elif not undefined:
                if i == j and v != 1.0:
                    problems.append(f"{name}[{i},{i}] = {v}, not 1")
                if abs(v) > 1.0 + COSINE_SLACK:
                    problems.append(f"{name}[{i},{j}] = {v} outside [-1, 1]")
                if v != m[j, i]:
                    problems.append(f"{name} not symmetric at [{i},{j}]")
    return problems


def rep_gen_values(name: str, g: dict) -> list[str]:
    return [f"{name} G at layer {layer} = {v}" for layer, v in g.items()
            if not (math.isfinite(v) and abs(v) <= 1.0 + COSINE_SLACK)]


def probe_weights(name: str, weights: list[float]) -> list[str]:
    return [f"{name} weight {w}" for w in weights if not 0.0 < w < 1.0]


def same_params(name: str, model: MtlModel, other: MtlModel) -> list[str]:
    """Every parameter bit-identical, trainable flags equal."""
    a, b = model.all_params(), other.all_params()
    if set(a) != set(b):
        return [f"{name}: parameter names differ"]
    return [f"{name}: {k} differs" for k in sorted(a)
            if a[k].trainable != b[k].trainable
            or a[k].data.shape != b[k].data.shape
            or a[k].data.tobytes() != b[k].data.tobytes()]


def same_optimizer(name: str, state: OptimizerState, other: OptimizerState) -> list[str]:
    if other is None:
        return [f"{name}: optimizer state missing after load"]
    problems = [f"{name}: optimizer {f} differs" for f in
                ("step", "base_lr", "warmup_steps", "total_steps", "weight_decay")
                if getattr(state, f) != getattr(other, f)]
    if set(state.m) != set(other.m):
        return problems + [f"{name}: optimizer moment names differ"]
    return problems + [f"{name}: moments of {k} differ" for k in sorted(state.m)
                       if state.m[k].tobytes() != other.m[k].tobytes()
                       or state.v[k].tobytes() != other.v[k].tobytes()]


def params_digest(params: dict) -> dict[str, str]:
    """Digest of each parameter's bytes: detects any bit change without
    holding a second copy of a bert-base backbone."""
    return {k: hashlib.sha1(np.ascontiguousarray(p.data).view(np.uint8)).hexdigest()
            for k, p in sorted(params.items())}


def unchanged(name: str, before: dict[str, str], params: dict) -> list[str]:
    after = params_digest(params)
    return [f"{name}: {k} changed" for k in before if before[k] != after.get(k)]


# ---------------------------------------------------------------------------
# known-answer run
# ---------------------------------------------------------------------------

def known_answer_run(model: MtlModel) -> list[dict]:
    """Train fresh heads for the known-answer suite on top of ``model``'s
    backbone, SPALs and probe. Returns, per step, the loss and, for each
    parameter AdamW updates, its gradient's norm and projection on a fixed
    random unit vector. Mutates the SPAL and probe parameters: run it last,
    on their initial values."""
    data = gen_synthetic_suite(KAT_SUITE)
    d = model.backbone.config.model_dim
    heads = {tid: Head(data[tid].spec, d, 100 + i) for i, tid in enumerate(sorted(data))}
    kat = MtlModel(model.backbone, model.spals, heads, model.probe)
    specs = {tid: td.spec for tid, td in data.items()}
    batches = [Batch(tid, data[tid].train) for tid in sorted(data)] * KAT_PASSES
    state = OptimizerState(total_steps=len(batches) + 1, base_lr=KAT_LR, warmup_steps=0)
    grads = []
    adamw = engine.adamw_step

    def fingerprint(params, st):
        figures = {}
        for i, p in enumerate(p for p in params if p.trainable):
            g = p.grad.ravel()
            r = np.random.default_rng([len(grads), i]).standard_normal(g.size)
            figures[p.name] = [float(np.linalg.norm(g)), float(g @ r / np.linalg.norm(r))]
        grads.append(figures)
        return adamw(params, st)

    engine.adamw_step = fingerprint  # train_step looks it up here
    try:
        losses = [engine.train_step(kat, b, specs, state) for b in batches]
    finally:
        engine.adamw_step = adamw
    return [{"loss": loss, "grads": g} for loss, g in zip(losses, grads)]


def reference_key(model: MtlModel) -> str:
    bb = model.backbone.config
    key = f"L{bb.num_layers}-d{bb.model_dim}-h{model.spals.config.hidden_size}"
    return key + ("-probe" if model.probe is not None else "")


def known_answer(model: MtlModel) -> list[str]:
    key = reference_key(model)
    ref = json.loads(REFERENCE_PATH.read_text()).get(key)
    if ref is None:
        return [f"no reference for {key}"]
    got = known_answer_run(model)
    if len(got) != len(ref):
        return [f"known-answer run gave {len(got)} steps, reference has {len(ref)}"]

    def off(value, want, scale):
        return not abs(value - want) <= KAT_RTOL * abs(scale)

    problems = []
    for i, (step, want) in enumerate(zip(got, ref), start=1):
        if off(step["loss"], want["loss"], want["loss"]):
            problems.append(f"known-answer step {i}: loss {step['loss']!r}, "
                            f"reference {want['loss']!r}")
        if set(step["grads"]) != set(want["grads"]):
            problems.append(f"known-answer step {i}: updated {sorted(step['grads'])}, "
                            f"reference {sorted(want['grads'])}")
            continue
        for name, (norm, proj) in step["grads"].items():
            ref_norm, ref_proj = want["grads"][name]
            if off(norm, ref_norm, ref_norm) or off(proj, ref_proj, ref_norm):
                problems.append(f"known-answer step {i}: gradient of {name} has norm "
                                f"{norm!r} and projection {proj!r}, reference "
                                f"{ref_norm!r} and {ref_proj!r}")
    return problems

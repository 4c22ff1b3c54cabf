"""Diagnostics: representation generalization, gradient snapshots and
similarity, contribution probing, task/text embeddings.

All functions here are read-only over the model: parameters and optimizer
state are left bit-unchanged (gradient buffers are scratch space and are
zeroed before returning).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .model import MtlModel
from .tasks import TaskData, TaskSpec, head_forward, task_loss

THREADS_ENV = "SPALMTL_THREADS"


def _max_workers() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


@dataclass
class RepSummary:
    task_id: str
    layer: int
    vector: np.ndarray


@dataclass
class GenCurve:
    layer: int
    points: list  # (step, G)


@dataclass
class GradientSnapshot:
    task_id: str
    step: int
    vector: np.ndarray


@dataclass
class SimilarityMatrix:
    labels: list[str]
    matrix: np.ndarray  # entries may be nan where undefined (zero-norm vector)
    missing: list[tuple[str, str]]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ContractError("cosine undefined for zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


# ---------------------------------------------------------------------------
# representation generalization
# ---------------------------------------------------------------------------

def task_mean_representation(model: MtlModel, examples: list, task_id: str,
                             layer: int) -> RepSummary:
    """Mean over the dataset of the layer's mean-pooled (non-padding)
    representation. ``layer`` is 1-based (1..L)."""
    if not examples:
        raise ContractError("task_mean_representation needs a non-empty dataset")
    acc = None
    with ad.no_graph():
        for ex in examples:
            enc = model.encode(ex.token_ids)
            pooled = enc.per_layer_outputs[layer - 1].data[enc.attention_mask].mean(axis=0)
            acc = pooled if acc is None else acc + pooled
    return RepSummary(task_id=task_id, layer=layer, vector=acc / len(examples))


def representation_generalization(summaries: list[RepSummary]) -> float:
    """Mean pairwise cosine similarity over all unordered task pairs."""
    if len(summaries) < 2:
        raise ContractError("representation_generalization needs >= 2 tasks")
    layers = {s.layer for s in summaries}
    if len(layers) != 1:
        raise ContractError("summaries must come from a single layer")
    vals = []
    for i in range(len(summaries)):
        for j in range(i + 1, len(summaries)):
            vals.append(cosine(summaries[i].vector, summaries[j].vector))
    return float(np.mean(vals))


def rep_gen_at_layers(model: MtlModel, data: dict[str, TaskData],
                      layers: list[int], split: str = "train") -> dict[int, float]:
    """G value per requested layer, using each task's chosen split."""
    def summaries_for(layer):
        return [task_mean_representation(model, data[tid].split(split), tid, layer)
                for tid in sorted(data)]

    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_layer = list(pool.map(summaries_for, layers))
    else:
        per_layer = [summaries_for(l) for l in layers]
    return {layer: representation_generalization(s)
            for layer, s in zip(layers, per_layer)}


def reported_layers(num_layers: int) -> list[int]:
    """Upper half of the stack (layers 7..12 on the 12-layer preset)."""
    return list(range(num_layers // 2 + 1, num_layers + 1))


# ---------------------------------------------------------------------------
# gradient snapshots
# ---------------------------------------------------------------------------

def _flatten_shared_grads(model: MtlModel) -> np.ndarray:
    parts = []
    for p in model.shared_trainable_params():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        parts.append(g.ravel().copy())
    return np.concatenate(parts) if parts else np.zeros(0)


def snapshot_task_gradient(model: MtlModel, spec: TaskSpec, examples: list,
                           step: int) -> GradientSnapshot:
    """Gradient of the task's mean loss over its full training split with
    respect to shared trainable params, flattened in name-sorted order.
    No optimizer step happens; params are untouched."""
    if not examples:
        raise ContractError("snapshot_task_gradient needs a non-empty split")
    model.zero_grads()
    nodes = []
    for ex in examples:
        enc = model.encode(ex.token_ids)
        preds = head_forward(enc, model.heads[spec.id])
        nodes.append(task_loss(spec, preds, ex.label))
    ad.backward(ad.mean_of(nodes))
    vec = _flatten_shared_grads(model)
    model.zero_grads()
    return GradientSnapshot(task_id=spec.id, step=step, vector=vec)


def gradient_similarity_matrix(snapshots: list[GradientSnapshot]) -> SimilarityMatrix:
    """Pairwise cosine similarities at one step. Zero-norm vectors yield
    missing (nan) entries rather than NaN propagation surprises."""
    steps = {s.step for s in snapshots}
    if len(steps) != 1:
        raise ContractError("snapshots must share a step")
    lens = {s.vector.size for s in snapshots}
    if len(lens) != 1:
        raise ContractError("snapshots must share the parameter ordering")
    labels = [s.task_id for s in snapshots]
    n = len(snapshots)
    mat = np.full((n, n), np.nan)
    missing = []
    norms = [np.linalg.norm(s.vector) for s in snapshots]
    for i in range(n):
        if norms[i] > 0:
            mat[i, i] = 1.0
        for j in range(i + 1, n):
            if norms[i] == 0.0 or norms[j] == 0.0:
                missing.append((labels[i], labels[j]))
                continue
            c = float(np.dot(snapshots[i].vector, snapshots[j].vector)
                      / (norms[i] * norms[j]))
            mat[i, j] = mat[j, i] = c
    return SimilarityMatrix(labels=labels, matrix=mat, missing=missing)


def skill_level_similarity(sim: SimilarityMatrix,
                           skills: dict[str, str]) -> dict[str, float]:
    """Mean intra-skill vs inter-skill similarity from a task->skill map."""
    intra, inter = [], []
    for i, a in enumerate(sim.labels):
        for j in range(i + 1, len(sim.labels)):
            b = sim.labels[j]
            v = sim.matrix[i, j]
            if np.isnan(v):
                continue
            (intra if skills.get(a) == skills.get(b) else inter).append(v)
    out = {}
    if intra:
        out["intra_skill"] = float(np.mean(intra))
    if inter:
        out["inter_skill"] = float(np.mean(inter))
    return out


# ---------------------------------------------------------------------------
# contribution probing
# ---------------------------------------------------------------------------

def probe_contributions(model: MtlModel) -> list[float]:
    """Per-layer softmaxed weight of the frozen branch after training."""
    if model.probe is None:
        raise ContractError("model was built without contribution probing")
    return model.probe.values()


# ---------------------------------------------------------------------------
# task / text embeddings
# ---------------------------------------------------------------------------

def task_embedding(model: MtlModel, spec: TaskSpec, examples: list) -> np.ndarray:
    """Diagonal empirical Fisher over shared trainable params: mean of the
    squared per-example loss gradient, flattened canonically."""
    if not examples:
        raise ContractError("task_embedding needs a non-empty dataset")
    acc = None
    for ex in examples:
        model.zero_grads()
        enc = model.encode(ex.token_ids)
        preds = head_forward(enc, model.heads[spec.id])
        ad.backward(task_loss(spec, preds, ex.label))
        g = _flatten_shared_grads(model)
        sq = g * g
        acc = sq if acc is None else acc + sq
    model.zero_grads()
    return acc / len(examples)


def text_embedding(model: MtlModel, examples: list) -> np.ndarray:
    """Mean final-layer pooled representation over the dataset."""
    if not examples:
        raise ContractError("text_embedding needs a non-empty dataset")
    acc = None
    with ad.no_graph():
        for ex in examples:
            enc = model.encode(ex.token_ids)
            pooled = enc.final().data[enc.attention_mask].mean(axis=0)
            acc = pooled if acc is None else acc + pooled
    return acc / len(examples)


def embedding_similarity_matrix(vectors: dict[str, np.ndarray]) -> SimilarityMatrix:
    snaps = [GradientSnapshot(task_id=k, step=0, vector=v)
             for k, v in sorted(vectors.items())]
    return gradient_similarity_matrix(snaps)

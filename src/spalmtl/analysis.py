"""Diagnostics: representation generalization, gradient snapshots and
similarity, contribution probing, task/text embeddings.

All functions here are read-only over the model: parameters and optimizer
state are left bit-unchanged (gradient buffers are scratch space and are
zeroed before returning).

Diagnostics share training's batched forward (``MtlModel.encode_examples``).
``task_mean_representation`` encodes each example once, in no-graph padded
batches of ``FORWARD_CHUNK``, and pools every requested layer; rep-gen and
the text embedding use it. ``_mean_loss_gradient`` backpropagates a task's
mean loss in chunks of at most ``spec.batch_size`` examples, so no graph is
larger than a training step on that task: the gradient snapshot is one call
over the split, the task embedding one call per example (its squares need
per-example gradients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .model import FORWARD_CHUNK, MtlModel
from .tasks import TaskData, TaskSpec, head_forward, task_loss

@dataclass
class RepSummary:
    task_id: str
    layer: int
    vector: np.ndarray


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
                             layers: list[int]) -> list[RepSummary]:
    """Mean over the dataset of each layer's mean-pooled (non-padding)
    representation, one summary per requested layer (1-based, 1..L). Each
    example is encoded once, whatever the number of layers."""
    if not examples:
        raise ContractError("task_mean_representation needs a non-empty dataset")
    acc = [0.0] * len(layers)
    with ad.no_graph():
        for start in range(0, len(examples), FORWARD_CHUNK):
            enc = model.encode_examples(examples[start:start + FORWARD_CHUNK])
            for i, layer in enumerate(layers):
                acc[i] = acc[i] + enc.pooled_mean(layer).data.sum(axis=0)
    return [RepSummary(task_id=task_id, layer=layer, vector=a / len(examples))
            for layer, a in zip(layers, acc)]


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
    per_task = [task_mean_representation(model, data[tid].split(split), tid, layers)
                for tid in sorted(data)]
    return {layer: representation_generalization([s[i] for s in per_task])
            for i, layer in enumerate(layers)}


def reported_layers(num_layers: int) -> list[int]:
    """Upper half of the stack (layers 7..12 on the 12-layer preset)."""
    return list(range(num_layers // 2 + 1, num_layers + 1))


# ---------------------------------------------------------------------------
# gradient snapshots
# ---------------------------------------------------------------------------

def _mean_loss_gradient(model: MtlModel, spec: TaskSpec, examples: list) -> np.ndarray:
    """Gradient of the task's mean loss over the examples with respect to
    the shared trainable params, flattened in name-sorted order. Each chunk
    of at most ``spec.batch_size`` examples is one forward and backward (as
    in ``engine.batch_loss``), its loss weighted by its share of the
    examples; the grad buffers are zeroed before and after."""
    model.zero_grads()
    for start in range(0, len(examples), spec.batch_size):
        chunk = examples[start:start + spec.batch_size]
        logits = head_forward(model.encode_examples(chunk), model.heads[spec.id])
        loss = task_loss(spec, logits, [ex.label for ex in chunk])
        ad.backward(ad.scale(loss, len(chunk) / len(examples)))
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
             for p in model.shared_trainable_params()]
    vec = np.concatenate([g.ravel() for g in grads]) if grads else np.zeros(0)
    model.zero_grads()
    return vec


def snapshot_task_gradient(model: MtlModel, spec: TaskSpec, examples: list,
                           step: int) -> GradientSnapshot:
    """Gradient of the task's mean loss over its full training split with
    respect to shared trainable params, flattened in name-sorted order.
    No optimizer step happens; params are untouched."""
    if not examples:
        raise ContractError("snapshot_task_gradient needs a non-empty split")
    return GradientSnapshot(task_id=spec.id, step=step,
                            vector=_mean_loss_gradient(model, spec, examples))


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
    squared per-example loss gradient, flattened canonically. Each example
    is its own backward: a batch backward yields only the summed gradient."""
    if not examples:
        raise ContractError("task_embedding needs a non-empty dataset")
    return sum(_mean_loss_gradient(model, spec, [ex]) ** 2 for ex in examples) / len(examples)


def text_embedding(model: MtlModel, examples: list) -> np.ndarray:
    """Mean final-layer pooled representation over the dataset."""
    if not examples:
        raise ContractError("text_embedding needs a non-empty dataset")
    final = model.backbone.config.num_layers
    return task_mean_representation(model, examples, "", [final])[0].vector


def embedding_similarity_matrix(vectors: dict[str, np.ndarray]) -> SimilarityMatrix:
    snaps = [GradientSnapshot(task_id=k, step=0, vector=v)
             for k, v in sorted(vectors.items())]
    return gradient_similarity_matrix(snaps)

"""Diagnostics: representation generalization, gradient snapshots and
similarity, contribution probing, task/text embeddings.

All functions here are read-only over the model: parameters and optimizer
state are left bit-unchanged (gradient buffers are scratch space and are
zeroed before returning).

Diagnostics share training's batched forward (``MtlModel.encode_examples``).
``task_mean_representation`` encodes each example once, in no-graph padded
batches of ``FORWARD_CHUNK``, and pools every requested layer; rep-gen and
the text embedding use it, and over a frozen backbone a repeated chunk reads
layer 0 back from the backbone's store (see ``backbone``). ``_chunk_grads``
records a graph, so it never uses that store. It backpropagates a task's
loss in chunks of at most ``spec.batch_size`` examples, so no graph
outgrows a training step on that task: the gradient snapshot sums the
chunks' mean-loss shares, and the task embedding takes each chunk as one
per-row backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .model import FORWARD_CHUNK, GRAD_ROW_BYTES, MtlModel
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


def _cosine_matrix(labels: list[str], vectors: list[np.ndarray]) -> SimilarityMatrix:
    """Pairwise cosine similarities. A zero-norm vector has no cosine: its
    entries are nan and its pairs are listed as missing."""
    n = len(vectors)
    mat = np.full((n, n), np.nan)
    missing = []
    norms = [np.linalg.norm(v) for v in vectors]
    for i in range(n):
        if norms[i] > 0:
            mat[i, i] = 1.0
        for j in range(i + 1, n):
            if norms[i] == 0.0 or norms[j] == 0.0:
                missing.append((labels[i], labels[j]))
                continue
            mat[i, j] = mat[j, i] = float(np.dot(vectors[i], vectors[j])
                                          / (norms[i] * norms[j]))
    return SimilarityMatrix(labels=labels, matrix=mat, missing=missing)


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
    sim = _cosine_matrix([s.task_id for s in summaries], [s.vector for s in summaries])
    if sim.missing:
        raise ContractError(f"cosine undefined for zero-norm summary in {sim.missing}")
    return float(np.mean(sim.matrix[np.triu_indices(len(summaries), 1)]))


def rep_gen_at_layers(model: MtlModel, data: dict[str, TaskData],
                      layers: list[int]) -> dict[int, float]:
    """G value per requested layer, over each task's training split."""
    per_task = [task_mean_representation(model, data[tid].train, tid, layers)
                for tid in sorted(data)]
    return {layer: representation_generalization([s[i] for s in per_task])
            for i, layer in enumerate(layers)}


def reported_layers(num_layers: int) -> list[int]:
    """Upper half of the stack (layers 7..12 on the 12-layer preset)."""
    return list(range(num_layers // 2 + 1, num_layers + 1))


# ---------------------------------------------------------------------------
# gradient snapshots
# ---------------------------------------------------------------------------

def _chunk_grads(model: MtlModel, spec: TaskSpec, examples: list, size: int,
                 per_row: bool = False):
    """One forward and backward per chunk of at most ``size`` examples (as
    in ``engine.batch_loss``), yielding the shared trainable params' grads
    after each. By default a chunk adds its share of the examples' mean loss
    gradient; with ``per_row``, row b of a chunk's grads is its example b's
    loss gradient. Grad buffers are zeroed before and after."""
    params = model.shared_trainable_params()
    model.zero_grads()
    for start in range(0, len(examples), size):
        chunk = examples[start:start + size]
        logits = head_forward(model.encode_examples(chunk), model.heads[spec.id])
        loss = task_loss(spec, logits, [ex.label for ex in chunk])
        weight, rows = (len(chunk), len(chunk)) if per_row else (len(chunk) / len(examples), None)
        ad.backward(ad.scale(loss, weight), rows=rows)
        yield [np.zeros((len(chunk),) * per_row + p.data.shape) if p.grad is None
               else p.grad for p in params]
        if per_row:
            model.zero_grads()
    model.zero_grads()


def snapshot_task_gradient(model: MtlModel, spec: TaskSpec, examples: list,
                           step: int) -> GradientSnapshot:
    """Gradient of the task's mean loss over its full training split with
    respect to shared trainable params, flattened in name-sorted order.
    No optimizer step happens; params are untouched."""
    if not examples:
        raise ContractError("snapshot_task_gradient needs a non-empty split")
    *_, grads = _chunk_grads(model, spec, examples, spec.batch_size)
    return GradientSnapshot(task_id=spec.id, step=step,
                            vector=np.concatenate([np.zeros(0)] + [g.ravel() for g in grads]))


def gradient_similarity_matrix(snapshots: list[GradientSnapshot]) -> SimilarityMatrix:
    """Pairwise cosine similarities at one step. Zero-norm vectors yield
    missing (nan) entries rather than NaN propagation surprises."""
    steps = {s.step for s in snapshots}
    if len(steps) != 1:
        raise ContractError("snapshots must share a step")
    lens = {s.vector.size for s in snapshots}
    if len(lens) != 1:
        raise ContractError("snapshots must share the parameter ordering")
    return _cosine_matrix([s.task_id for s in snapshots], [s.vector for s in snapshots])


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

def embedding_chunk(batch_size: int, num_params: int) -> int:
    """Examples per task-embedding backward: a batch, or as many as fit
    ``GRAD_ROW_BYTES`` of float64 per-row gradients."""
    return min(batch_size, max(1, GRAD_ROW_BYTES // (8 * max(num_params, 1))))


def task_embedding(model: MtlModel, spec: TaskSpec, examples: list) -> np.ndarray:
    """Diagonal empirical Fisher over shared trainable params: mean of the
    squared per-example loss gradient, flattened canonically. Each chunk is
    one per-row backward, whose squared rows are summed per parameter."""
    if not examples:
        raise ContractError("task_embedding needs a non-empty dataset")
    sq = [np.zeros_like(p.data) for p in model.shared_trainable_params()]
    size = embedding_chunk(spec.batch_size, sum(s.size for s in sq))
    for grads in _chunk_grads(model, spec, examples, size, per_row=True):
        for s, g in zip(sq, grads):
            s += (g * g).sum(axis=0)
    return np.concatenate([np.zeros(0)] + [s.ravel() for s in sq]) / len(examples)


def text_embedding(model: MtlModel, examples: list) -> np.ndarray:
    """Mean final-layer pooled representation over the dataset."""
    if not examples:
        raise ContractError("text_embedding needs a non-empty dataset")
    final = model.backbone.config.num_layers
    return task_mean_representation(model, examples, "", [final])[0].vector


def embedding_similarity_matrix(vectors: dict[str, np.ndarray]) -> SimilarityMatrix:
    """Pairwise cosine similarities, labels in sorted order."""
    labels = sorted(vectors)
    return _cosine_matrix(labels, [vectors[k] for k in labels])

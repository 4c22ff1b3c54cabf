import csv

import numpy as np
import pytest

from spalmtl import autodiff as ad
from spalmtl.analysis import SimilarityMatrix
from spalmtl.backbone import BackboneConfig
from spalmtl.model import MtlModel
from spalmtl.synthdata import GeneratorSpec, SynthTaskSpec, gen_synthetic_suite
from spalmtl.tasks import MARKER_IDS, TaskSpec, head_forward, task_loss


TINY = BackboneConfig(num_layers=2, model_dim=8, num_heads=2, ff_dim=16,
                      vocab_size=128, max_seq_len=16)


def fd_gradient(f, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. arr, in place."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        lp = f()
        flat[i] = old - eps
        lm = f()
        flat[i] = old
        gflat[i] = (lp - lm) / (2 * eps)
    return g


def copy_all_params(model) -> dict[str, np.ndarray]:
    """A copy of every parameter, frozen ones included (``MtlModel.snapshot``
    copies only the trainable ones)."""
    return {k: p.data.copy() for k, p in model.all_params().items()}


def tsum(x: ad.Tensor) -> ad.Tensor:
    """Scalar sum of a tensor: a test loss whose gradient is all ones."""
    return ad.Tensor(np.array(x.data.sum()), ((x, lambda g: g),))


def graph_nodes(loss: ad.Tensor) -> list[ad.Tensor]:
    """Every recorded node reachable from loss, in backward's topological
    order (inputs first)."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack += [(p, False) for p, _ in node._parents if id(p) not in seen]
    return topo


def per_example_grads(model, spec, examples) -> list[dict[str, np.ndarray]]:
    """The one-example oracle: for each example, one forward and one
    backward of its loss alone, and every trainable param's grad (zeros
    where nothing reached it)."""
    out = []
    for ex in examples:
        model.zero_grads()
        logits = head_forward(model.encode_examples([ex]), model.heads[spec.id])
        ad.backward(task_loss(spec, logits, [ex.label]))
        out.append({k: np.zeros_like(p.data) if p.grad is None else p.grad
                    for k, p in model.all_params().items() if p.trainable})
    model.zero_grads()
    return out


def task_embedding_oracle(model, spec, examples) -> np.ndarray:
    """The task embedding from one backward per example: the mean over the
    examples of the squared shared-trainable gradient, flattened in
    name-sorted order."""
    names = sorted(k for k, p in model.trunk_params().items() if p.trainable)
    return sum(np.concatenate([grads[k].ravel() for k in names]) ** 2
               for grads in per_example_grads(model, spec, examples)) / len(examples)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_oracle(q, k, v, key_bias, num_heads) -> np.ndarray:
    """Multi-head attention over [B, T, d] arrays, composed from numpy steps
    in the order ``autodiff.attention`` evaluates them: split the heads,
    scale q k^T, add the key bias, softmax, weight v, merge the heads."""
    b, t, d = q.shape
    dh = d // num_heads
    qh, kh, vh = (a.reshape(b, t, num_heads, dh).transpose(0, 2, 1, 3) for a in (q, k, v))
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh))
    probs = softmax(scores + key_bias[:, None, None, :])
    return np.matmul(probs, vh).transpose(0, 2, 1, 3).reshape(b, t, d)


def attention_weights(scores: np.ndarray) -> np.ndarray:
    """The weights ``autodiff.attention`` puts on each key for [B, T] key
    scores: with zero queries every score is the key bias, and values that
    are unit vectors copy the weights out."""
    b, t = scores.shape
    zeros = ad.Tensor(np.zeros((b, t, t)))
    eye = ad.Tensor(np.tile(np.eye(t), (b, 1, 1)))
    return ad.attention(zeros, zeros, eye, scores, 1).data[:, 0]


def strip_target_markers(token_ids) -> np.ndarray:
    """Remove all marker tokens; inverse of ``tasks.insert_target_markers``."""
    ids = np.asarray(token_ids, dtype=np.int64)
    return ids[~np.isin(ids, list(MARKER_IDS.values()))]


def read_matrix_csv(path) -> SimilarityMatrix:
    """Read back a CSV written by ``reporting.write_matrix_csv``."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows and rows[0][0] == "task", f"{path}: not a similarity-matrix CSV"
    mat = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return SimilarityMatrix(labels=rows[0][1:], matrix=mat, missing=[])


def grads_close(fd: np.ndarray, g: np.ndarray, rtol: float = 1e-4,
                atol: float = 1e-9) -> bool:
    return bool(np.all(np.abs(fd - g) <= atol + rtol * np.maximum(np.abs(fd), np.abs(g))))


@pytest.fixture
def tiny_config():
    return TINY


@pytest.fixture
def tiny_model():
    spec = TaskSpec(id="clf", kind="seq_classification", metric="accuracy",
                    num_classes=3, batch_size=4)
    model = MtlModel.build(TINY, [spec], spal_hidden=4, seed=7,
                           freeze_backbone=True)
    return model, spec


def two_task_suite(seed=0, kind="seq_classification", sizes=(24, 8, 8),
                   rho=1.0, num_classes=2, batch_size=4):
    tasks = tuple(
        SynthTaskSpec(tid, kind, sizes, rho, num_classes=num_classes,
                      batch_size=batch_size)
        for tid in ("alpha", "beta"))
    gen = GeneratorSpec(tasks=tasks, vocab_size=96, seq_len=(6, 8),
                        latent_dim=3, bins=6, seed=seed)
    return gen_synthetic_suite(gen)

"""Task definitions: kinds, preprocessing markers, BIO conversion, heads,
losses and evaluation metrics.

Task kinds are sequence regression (scalar score in [-1, 1]), sequence
classification (k classes) and token classification (k tags). Each task owns
a single affine head over the encoder output. Heads return logits for a
whole batch; the classification losses apply the softmax inside one fused
cross-entropy, and the metrics read the argmax of the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .backbone import Encoding
from .errors import ConfigError, ContractError, DataError

# Reserved vocabulary ids, after the presets' padding id 0. Content tokens
# start at FIRST_CONTENT_ID.
UNK_ID = 1
COMPANY_MARKER_ID = 2
NUMBER_MARKER_ID = 3
FIRST_CONTENT_ID = 4

MARKER_IDS = {"company": COMPANY_MARKER_ID, "number": NUMBER_MARKER_ID}

KINDS = ("seq_regression", "seq_classification", "token_classification")
METRICS = ("rmse", "accuracy", "token_accuracy", "entity_macro_f1")

_METRIC_KINDS = {
    "rmse": ("seq_regression",),
    "accuracy": ("seq_classification",),
    "token_accuracy": ("token_classification",),
    "entity_macro_f1": ("token_classification",),
}

# Metrics where lower is better (checkpoint selection uses argmin).
LOWER_IS_BETTER = {"rmse"}


@dataclass(frozen=True)
class TaskSpec:
    id: str
    kind: str
    metric: str
    num_classes: int = 1
    batch_size: int = 16
    weight: float = 1.0
    tag_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.kind not in _METRIC_KINDS[self.metric]:
            raise ConfigError(
                f"metric {self.metric!r} incompatible with kind {self.kind!r}")
        if self.kind != "seq_regression" and self.num_classes < 2:
            raise ConfigError("classification kinds need num_classes >= 2")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.weight <= 0:
            raise ConfigError("task weight must be positive")
        if self.kind == "token_classification":
            if len(self.tag_names) != self.num_classes:
                raise ConfigError("tag_names must have num_classes entries")

    @property
    def output_dim(self) -> int:
        return 1 if self.kind == "seq_regression" else self.num_classes


@dataclass
class TaskExample:
    token_ids: np.ndarray
    label: object  # float | int | np.ndarray of tag indices
    target_span: tuple[int, int] | None = None
    spans: list | None = None  # (start, end, label_idx) provenance for tag tasks
    latent: np.ndarray | None = None

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)


def validate_example(spec: TaskSpec, ex: TaskExample) -> TaskExample:
    """Check the label's shape and range; nothing is clamped."""
    if spec.kind == "seq_regression":
        if not -1.0 <= ex.label <= 1.0:
            raise DataError(f"regression label {ex.label} outside [-1, 1] for task {spec.id}")
        ex.label = float(ex.label)
    elif spec.kind == "seq_classification":
        lbl = int(ex.label)
        if not 0 <= lbl < spec.num_classes:
            raise DataError(f"class label {lbl} out of range for task {spec.id}")
        ex.label = lbl
    else:
        tags = np.asarray(ex.label, dtype=np.int64)
        if tags.shape != ex.token_ids.shape:
            raise DataError(
                f"tag sequence length {tags.shape} != token length "
                f"{ex.token_ids.shape} for task {spec.id}")
        if tags.size and (tags.min() < 0 or tags.max() >= spec.num_classes):
            raise DataError(f"tag index out of range for task {spec.id}")
        ex.label = tags
    return ex


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def insert_target_markers(token_ids, span: tuple[int, int], marker_kind: str):
    """Wrap the inclusive span [start, end] with reserved marker tokens."""
    ids = np.asarray(token_ids, dtype=np.int64)
    start, end = span
    if marker_kind not in MARKER_IDS:
        raise DataError(f"unknown marker kind {marker_kind!r}")
    if start > end:
        raise DataError(f"empty or inverted span ({start}, {end})")
    if start < 0 or end >= ids.shape[0]:
        raise DataError(f"span ({start}, {end}) out of bounds for length {ids.shape[0]}")
    m = MARKER_IDS[marker_kind]
    return np.concatenate([ids[:start], [m], ids[start:end + 1], [m], ids[end + 1:]])


def spans_to_bio(length: int, spans: list[tuple[int, int, str]]) -> list[str]:
    """Inclusive (start, end, label) spans -> BIO tag strings."""
    tags = ["O"] * length
    seen: list[tuple[int, int, str]] = []
    for start, end, label in sorted(spans):
        if start > end or start < 0 or end >= length:
            raise DataError(f"span ({start}, {end}) invalid for length {length}")
        for s2, e2, l2 in seen:
            if start <= e2 and s2 <= end:
                raise DataError(
                    f"overlapping spans ({s2}, {e2}, {l2!r}) and "
                    f"({start}, {end}, {label!r})")
        seen.append((start, end, label))
        tags[start] = f"B-{label}"
        for i in range(start + 1, end + 1):
            tags[i] = f"I-{label}"
    return tags


def bio_to_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    """Extract (start, end, label) chunks from BIO tags, seqeval-style:
    an I-X without a live X chunk opens a new one."""
    spans: list[tuple[int, int, str]] = []
    start, label = None, None
    for i, tag in enumerate(tags + ["O"]):
        if tag.startswith("B-"):
            if start is not None:
                spans.append((start, i - 1, label))
            start, label = i, tag[2:]
        elif tag.startswith("I-"):
            if start is None or tag[2:] != label:
                if start is not None:
                    spans.append((start, i - 1, label))
                start, label = i, tag[2:]
        else:
            if start is not None:
                spans.append((start, i - 1, label))
            start, label = None, None
    return spans


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

class Head:
    """Single affine projection d -> output_dim for one task."""

    def __init__(self, spec: TaskSpec, model_dim: int, seed: int):
        rng = np.random.default_rng(seed)
        name = f"head.{spec.id}"
        self.spec = spec
        self.w = Param(rng.normal(0.0, 0.02, (model_dim, spec.output_dim)),
                       name=f"{name}.w")
        self.b = Param(np.zeros(spec.output_dim), name=f"{name}.b")

    @property
    def params(self) -> dict[str, Param]:
        return {self.w.name: self.w, self.b.name: self.b}


def head_forward(encoding: Encoding, head: Head) -> Tensor:
    """Logits for a batch: [B] for seq_regression, [B, k] for
    seq_classification, [B, T, k] for token_classification."""
    spec = head.spec
    if spec.kind == "token_classification":
        return ad.linear(encoding.final(), head.w, head.b)
    logits = ad.linear(encoding.pooled_first(), head.w, head.b)
    if spec.kind == "seq_regression":
        return ad.reshape(logits, (-1,))
    return logits


def task_loss(spec: TaskSpec, logits: Tensor, labels: list) -> Tensor:
    """Scalar loss of a batch: the mean of its per-example losses, which are
    squared error for regression, cross-entropy for sequence classification,
    and for token classification the mean token cross-entropy over the
    example's own length (its label count)."""
    if spec.kind == "seq_regression":
        return ad.tmean(ad.square(ad.add_const(logits, -np.asarray(labels, dtype=np.float64))))
    if spec.kind == "seq_classification":
        y = np.asarray(labels, dtype=np.int64)
        if y.min() < 0 or y.max() >= spec.num_classes:
            raise DataError(f"label out of class range for task {spec.id}")
        return ad.tmean(ad.cross_entropy(logits, y))
    own = np.arange(logits.data.shape[1]) < np.array([len(y) for y in labels])[:, None]
    tags = np.zeros(own.shape, dtype=np.int64)
    tags[own] = np.concatenate(labels)
    if tags.min() < 0 or tags.max() >= spec.num_classes:
        raise DataError(f"tag index out of class range for task {spec.id}")
    per_token = ad.reshape(ad.cross_entropy(logits, tags), own.shape + (1,))
    return ad.tmean(ad.masked_mean_rows(per_token, own))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def entity_macro_f1(gold_tag_seqs: list[list[str]],
                    pred_tag_seqs: list[list[str]]) -> float:
    """Exact-boundary, exact-label chunk matching, macro-averaged over
    entity labels present in gold or predictions."""
    gold: dict[str, set] = {}
    pred: dict[str, set] = {}
    for si, (g, p) in enumerate(zip(gold_tag_seqs, pred_tag_seqs)):
        for start, end, label in bio_to_spans(list(g)):
            gold.setdefault(label, set()).add((si, start, end))
        for start, end, label in bio_to_spans(list(p)):
            pred.setdefault(label, set()).add((si, start, end))
    labels = sorted(set(gold) | set(pred))
    if not labels:
        return 0.0
    f1s = []
    for lbl in labels:
        g = gold.get(lbl, set())
        p = pred.get(lbl, set())
        tp = len(g & p)
        prec = tp / len(p) if p else 0.0
        rec = tp / len(g) if g else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        f1s.append(f1)
    return float(np.mean(f1s))


def task_metric(spec: TaskSpec, predictions: list, labels: list) -> float:
    """Evaluate a full split. predictions/labels are parallel per-example
    lists of plain numpy values (no autodiff nodes)."""
    if not predictions:
        raise ContractError("task_metric requires a non-empty split")
    if len(predictions) != len(labels):
        raise ContractError("predictions/labels length mismatch")
    if spec.metric == "rmse":
        preds = np.asarray(predictions, dtype=np.float64)
        gold = np.asarray(labels, dtype=np.float64)
        return float(np.sqrt(np.mean((preds - gold) ** 2)))
    if spec.metric == "accuracy":
        hits = sum(int(np.argmax(p) == int(y)) for p, y in zip(predictions, labels))
        return 100.0 * hits / len(predictions)
    if spec.metric == "token_accuracy":
        correct = total = 0
        for p, y in zip(predictions, labels):
            y = np.asarray(y, dtype=np.int64)
            correct += int((np.argmax(p, axis=-1) == y).sum())
            total += y.size
        return 100.0 * correct / total
    # entity_macro_f1
    gold_seqs, pred_seqs = [], []
    for p, y in zip(predictions, labels):
        y = np.asarray(y, dtype=np.int64)
        gold_seqs.append([spec.tag_names[t] for t in y])
        pred_seqs.append([spec.tag_names[t] for t in np.argmax(p, axis=-1)])
    return 100.0 * entity_macro_f1(gold_seqs, pred_seqs)


@dataclass
class TaskData:
    """One task's spec plus its train/dev/test splits."""

    spec: TaskSpec
    train: list = field(default_factory=list)
    dev: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def split(self, name: str) -> list:
        return getattr(self, name)


def better(spec: TaskSpec, a: float, b: float) -> bool:
    """True if score a is strictly better than b under the task's metric."""
    if spec.metric in LOWER_IS_BETTER:
        return a < b
    return a > b

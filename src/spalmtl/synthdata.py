"""Synthetic multi-task corpora with a per-task `relatedness` rho.

Every example is driven by a latent vector u = rho * z_shared + (1 - rho) *
z_private, both drawn per example. The first latent_dim tokens quantize u
(so labels are learnable from tokens alone); the rest is filler. Label
functions depend only on the generator seed, task kind and class count, so
tasks alike in kind and count share one labeling function at every rho: for
now rho only rescales u (ROADMAP item 1 is to make it enter the labels).
Latents (and planted spans) are stored on each example: labels can always be
re-derived, the generator ships its own oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tasks import (FIRST_CONTENT_ID, KINDS, TaskData, TaskExample, TaskSpec,
                    spans_to_bio, validate_example)

ENTITY_TOKEN_RANGE = 4  # vocab ids reserved per entity label for span tokens


@dataclass(frozen=True)
class SynthTaskSpec:
    id: str
    kind: str
    sizes: tuple[int, int, int] = (64, 16, 16)  # train/dev/test
    relatedness: float = 1.0
    num_classes: int = 2
    batch_size: int = 16
    weight: float = 1.0
    metric: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if not 0.0 <= self.relatedness <= 1.0:
            raise ConfigError(f"relatedness must be in [0, 1], got {self.relatedness}")
        if any(s <= 0 for s in self.sizes):
            raise ConfigError("all split sizes must be positive")

    def resolved_metric(self) -> str:
        if self.metric:
            return self.metric
        return {"seq_regression": "rmse", "seq_classification": "accuracy",
                "token_classification": "token_accuracy"}[self.kind]


@dataclass(frozen=True)
class GeneratorSpec:
    tasks: tuple[SynthTaskSpec, ...]
    vocab_size: int = 160
    seq_len: tuple[int, int] = (8, 12)
    latent_dim: int = 4
    bins: int = 8
    seed: int = 0

    def __post_init__(self):
        if not self.tasks:
            raise ConfigError("a generator needs at least one task")
        need = FIRST_CONTENT_ID + self.latent_dim * self.bins + 8
        if self.vocab_size < need:
            raise ConfigError(
                f"vocab_size {self.vocab_size} too small; need >= {need}")
        if self.seq_len[0] < self.latent_dim + 2 or self.seq_len[1] < self.seq_len[0]:
            raise ConfigError("invalid seq_len range")
        if self.seed < 0:
            raise ConfigError(f"generator seed must be non-negative, got {self.seed}")
        filler_lo = FIRST_CONTENT_ID + self.latent_dim * self.bins
        for t in self.tasks:  # span tokens are drawn from the top of the filler ids
            if t.kind == "token_classification":
                need = filler_lo + _entity_labels(t.num_classes) * ENTITY_TOKEN_RANGE
                if self.vocab_size < need:
                    raise ConfigError(
                        f"vocab_size {self.vocab_size} too small for task {t.id!r}: its "
                        f"span tokens would start below the first filler id {filler_lo}; "
                        f"need >= {need}")


def _entity_labels(num_classes: int) -> int:
    # tag set is O + (B-, I-) per entity label
    if num_classes < 3 or num_classes % 2 == 0:
        raise ConfigError(
            "token_classification num_classes must be odd and >= 3 (O + B/I pairs)")
    return (num_classes - 1) // 2


def tag_names_for(num_classes: int) -> tuple[str, ...]:
    n = _entity_labels(num_classes)
    names = ["O"]
    for i in range(n):
        names += [f"B-E{i}", f"I-E{i}"]
    return tuple(names)


def task_spec_of(spec: GeneratorSpec, t: SynthTaskSpec) -> TaskSpec:
    tags = tag_names_for(t.num_classes) if t.kind == "token_classification" else ()
    return TaskSpec(id=t.id, kind=t.kind, metric=t.resolved_metric(),
                    num_classes=t.num_classes if t.kind != "seq_regression" else 1,
                    batch_size=t.batch_size, weight=t.weight, tag_names=tags)


def _label_weights(spec: GeneratorSpec, kind: str, num_classes: int) -> np.ndarray:
    """Label-function weights shared by all tasks of a (kind, k) pair."""
    rng = np.random.default_rng([spec.seed, 0xAB, KINDS.index(kind), num_classes])
    if kind == "seq_regression":
        w = rng.normal(size=spec.latent_dim)
        return w / np.linalg.norm(w)
    if kind == "seq_classification":
        return rng.normal(size=(num_classes, spec.latent_dim))
    return rng.normal(size=(_entity_labels(num_classes), spec.latent_dim))


def derive_label(spec: GeneratorSpec, task: SynthTaskSpec, u: np.ndarray,
                 spans=None, length: int | None = None):
    """The generator's own labeling oracle: label as a pure function of the
    latent (and planted span positions for tag tasks)."""
    w = _label_weights(spec, task.kind, task.num_classes)
    if task.kind == "seq_regression":
        return float(np.tanh(w @ u))
    if task.kind == "seq_classification":
        return int(np.argmax(w @ u))
    tag_spans = []
    for slot, (start, end, _old) in enumerate(spans):
        scores = w @ u + 0.37 * slot  # slot offset decorrelates multi-span labels
        tag_spans.append((start, end, int(np.argmax(scores))))
    names = tag_names_for(task.num_classes)
    bio = spans_to_bio(length, [(s, e, f"E{l}") for s, e, l in tag_spans])
    return np.array([names.index(t) for t in bio], dtype=np.int64)


def _gen_example(spec: GeneratorSpec, task: SynthTaskSpec, rng) -> TaskExample:
    k = spec.latent_dim
    z_shared = rng.normal(size=k)
    z_priv = rng.normal(size=k)
    rho = task.relatedness
    u = rho * z_shared + (1.0 - rho) * z_priv

    length = int(rng.integers(spec.seq_len[0], spec.seq_len[1] + 1))
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in u.tolist()])  # Phi(u)
    buckets = np.minimum((phi * spec.bins).astype(np.int64), spec.bins - 1)
    prefix = FIRST_CONTENT_ID + np.arange(k) * spec.bins + buckets

    filler_lo = FIRST_CONTENT_ID + k * spec.bins
    tokens = np.empty(length, dtype=np.int64)
    tokens[:k] = prefix
    tokens[k:] = rng.integers(filler_lo, spec.vocab_size, size=length - k)

    spans = None
    label: object
    if task.kind == "token_classification":
        # plant 1-2 non-overlapping spans in the filler region
        n_spans = int(rng.integers(1, 3))
        spans = []
        cursor = k
        for _ in range(n_spans):
            if cursor >= length - 1:
                break
            span_len = int(rng.integers(1, min(3, length - cursor) + 1))
            start = cursor
            end = start + span_len - 1
            spans.append((start, end, 0))
            cursor = end + 2
        label = derive_label(spec, task, u, spans=spans, length=length)
        # span tokens come from per-entity-label vocab ranges so the tags are
        # recoverable from the surface form
        n_ent = _entity_labels(task.num_classes)
        ent_lo = spec.vocab_size - n_ent * ENTITY_TOKEN_RANGE
        for start, end, _ in spans:
            ent = (int(label[start]) - 1) // 2
            tokens[start:end + 1] = rng.integers(
                ent_lo + ent * ENTITY_TOKEN_RANGE,
                ent_lo + (ent + 1) * ENTITY_TOKEN_RANGE, size=end - start + 1)
    else:
        label = derive_label(spec, task, u)

    return TaskExample(token_ids=tokens, label=label, spans=spans, latent=u)


def gen_synthetic_suite(spec: GeneratorSpec) -> dict[str, TaskData]:
    """Deterministic datasets for every task in the generator spec."""
    out: dict[str, TaskData] = {}
    for ti, task in enumerate(spec.tasks):
        tspec = task_spec_of(spec, task)
        splits = {}
        for si, (name, n) in enumerate(zip(("train", "dev", "test"), task.sizes)):
            rng = np.random.default_rng([spec.seed, ti, si, 0xDA7A])
            splits[name] = [validate_example(tspec, _gen_example(spec, task, rng))
                            for _ in range(n)]
        out[task.id] = TaskData(spec=tspec, **splits)
    return out


def findata_shaped_suite(seed: int = 0, scale_sizes: float = 1.0,
                         relatedness: float = 1.0) -> GeneratorSpec:
    """Six tasks mirroring the FinDATA roles, split sizes at 1/10 scale."""
    def sz(a, b, c):
        return (max(1, round(a * scale_sizes)), max(1, round(b * scale_sizes)),
                max(1, round(c * scale_sizes)))

    tasks = (
        SynthTaskSpec("tsa", "seq_regression", sz(91, 23, 56),
                      relatedness, batch_size=16),
        SynthTaskSpec("sc", "seq_classification", sz(387, 48, 48),
                      relatedness, num_classes=3, batch_size=16),
        SynthTaskSpec("nc", "seq_classification", sz(667, 167, 119),
                      relatedness, num_classes=6, batch_size=24),
        SynthTaskSpec("nad", "seq_classification", sz(719, 104, 211),
                      relatedness, num_classes=2, batch_size=32),
        SynthTaskSpec("fsrl", "token_classification", sz(90, 10, 10),
                      relatedness, num_classes=9, batch_size=16,
                      metric="entity_macro_f1"),
        SynthTaskSpec("cd", "token_classification", sz(67, 23, 23),
                      relatedness, num_classes=5, batch_size=16),
    )
    return GeneratorSpec(tasks=tasks, seed=seed)

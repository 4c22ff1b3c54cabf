"""Joint multi-task training loop: temperature-based batch mixing, per-task
best-checkpoint selection, few-shot transfer, seed aggregation.

One "epoch" is one pass over the concatenated mixed batch stream; a run
with a single task is plain single-task training. Everything is
deterministic given the plan seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, SpalMtlError
from .model import FORWARD_CHUNK, MtlModel
from .optim import (DEFAULT_BASE_LR, DEFAULT_WARMUP_STEPS, DEFAULT_WEIGHT_DECAY,
                    OptimizerState, adamw_step)
from .tasks import Head, TaskData, TaskSpec, better, head_forward, task_loss, task_metric

DEFAULT_EVAL_INTERVAL_MTL = 200
DEFAULT_EVAL_INTERVAL_STL = 50


@dataclass
class TrainPlan:
    epochs: int = 40
    eval_interval: int = DEFAULT_EVAL_INTERVAL_MTL
    seed: int = 1
    temperature: float = 1.0
    freeze_backbone: bool = True
    base_lr: float = DEFAULT_BASE_LR
    warmup_steps: int = DEFAULT_WARMUP_STEPS
    weight_decay: float = DEFAULT_WEIGHT_DECAY

    def __post_init__(self):
        if self.epochs <= 0:
            raise ConfigError("epochs must be positive")
        if self.eval_interval <= 0:
            raise ConfigError("eval_interval must be positive")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        for name in ("seed", "base_lr", "warmup_steps", "weight_decay"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value!r}")

    def fingerprint(self) -> dict:
        """Plan identity minus the seed, for seed-aggregation checks."""
        return {k: v for k, v in asdict(self).items() if k != "seed"}


@dataclass
class Batch:
    task_id: str
    examples: list


@dataclass
class RunRecord:
    seed: int
    task_ids: list[str]
    plan_fingerprint: dict
    losses: list = field(default_factory=list)       # (step, task_id, loss)
    evals: list = field(default_factory=list)        # (step, {task: score})
    best: dict = field(default_factory=dict)         # task -> {step, score, checkpoint_id}
    best_snapshots: dict = field(default_factory=dict)  # task -> param snapshot
    total_steps: int = 0
    optimizer_state: OptimizerState | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "task_ids": self.task_ids,
            "plan": self.plan_fingerprint,
            "total_steps": self.total_steps,
            "losses": [[s, t, l] for s, t, l in self.losses],
            "evals": [[s, m] for s, m in self.evals],
            "best": self.best,
        }


@dataclass
class SeedAggregate:
    seeds: list[int]
    per_task: dict  # task -> {"mean": float, "std": float, "scores": [...]}

    def to_dict(self) -> dict:
        return {"seeds": self.seeds, "per_task": self.per_task}


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _batchify(examples: list, batch_size: int, rng) -> list[list]:
    order = rng.permutation(len(examples))
    shuffled = [examples[i] for i in order]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]


def build_mixed_batches(datasets: dict[str, list], batch_sizes: dict[str, int],
                        seed, temperature: float = 1.0) -> list[Batch]:
    """Per-task random batchification, then a global shuffle of mini-batches.

    At temperature 1 the task share of the stream is exactly proportional to
    its batch count (hence data size for equal batch sizes). For other
    temperatures, tasks are drawn with probability proportional to
    |D_t|^(1/T) while the stream length stays that of the T=1 stream.
    """
    for tid, examples in datasets.items():
        if not examples:
            raise ConfigError(f"dataset for task {tid!r} is empty")
    rng = np.random.default_rng(seed)
    tids = sorted(datasets)
    per_task = {tid: _batchify(datasets[tid], batch_sizes[tid], rng) for tid in tids}
    total = sum(len(b) for b in per_task.values())
    if temperature == 1.0:
        pool = [Batch(tid, b) for tid in tids for b in per_task[tid]]
        order = rng.permutation(len(pool))
        return [pool[i] for i in order]

    sizes = np.array([len(datasets[tid]) for tid in tids], dtype=np.float64)
    probs = sizes ** (1.0 / temperature)
    probs /= probs.sum()
    cursors = {tid: 0 for tid in tids}
    stream: list[Batch] = []
    picks = rng.choice(len(tids), size=total, p=probs)
    for k in picks:
        tid = tids[int(k)]
        batches = per_task[tid]
        if cursors[tid] >= len(batches):
            per_task[tid] = batches = _batchify(datasets[tid], batch_sizes[tid], rng)
            cursors[tid] = 0
        stream.append(Batch(tid, batches[cursors[tid]]))
        cursors[tid] += 1
    return stream


# ---------------------------------------------------------------------------
# steps and evaluation
# ---------------------------------------------------------------------------

def batch_loss(model: MtlModel, spec: TaskSpec, examples: list) -> ad.Tensor:
    """w_t-weighted mean per-example loss over one batch, from one forward
    pass over the padded batch."""
    logits = head_forward(model.encode_examples(examples), model.heads[spec.id])
    return ad.scale(task_loss(spec, logits, [ex.label for ex in examples]), spec.weight)


def train_step(model: MtlModel, batch: Batch, specs: dict[str, TaskSpec],
               state: OptimizerState) -> float:
    """One optimizer step on one task's batch. Only the shared trunk and the
    sampled task's head can change."""
    if batch.task_id not in specs or batch.task_id not in model.heads:
        raise ContractError(f"task {batch.task_id!r} is not registered")
    spec = specs[batch.task_id]
    loss = batch_loss(model, spec, batch.examples)
    ad.backward(loss)
    active = [p for p in model.trunk_params().values() if p.trainable]
    active += [p for p in model.heads[batch.task_id].params.values()]
    adamw_step(active, state)
    model.zero_grads()
    return float(loss.data)


def evaluate_task(model: MtlModel, spec: TaskSpec, examples: list) -> float:
    if not examples:
        raise ContractError(f"empty evaluation split for task {spec.id!r}")
    preds = []
    with ad.no_graph():
        for i in range(0, len(examples), FORWARD_CHUNK):
            chunk = examples[i:i + FORWARD_CHUNK]
            logits = head_forward(model.encode_examples(chunk), model.heads[spec.id]).data
            if spec.kind == "token_classification":
                preds += [row[:ex.token_ids.size] for row, ex in zip(logits, chunk)]
            else:
                preds += list(logits)
    return task_metric(spec, preds, [ex.label for ex in examples])


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def build_stream(plan: TrainPlan, data: dict[str, TaskData]) -> list[Batch]:
    """The full deterministic batch stream for a run (all epochs)."""
    splits = {tid: td.train for tid, td in data.items()}
    sizes = {tid: td.spec.batch_size for tid, td in data.items()}
    stream: list[Batch] = []
    for epoch in range(plan.epochs):
        stream.extend(build_mixed_batches(
            splits, sizes, [plan.seed, epoch, 0x5A1], plan.temperature))
    return stream


def run_training(plan: TrainPlan, model: MtlModel, data: dict[str, TaskData],
                 max_steps: int | None = None,
                 on_step: Callable[[int, MtlModel], None] | None = None,
                 record: RunRecord | None = None) -> RunRecord:
    """Execute the plan. Resume by passing the record so far: training
    continues after the ``step`` of its optimizer state. A record without
    one starts at step 0."""
    if set(model.heads) != set(data):
        raise ContractError("model heads and datasets disagree on task set")
    specs = {tid: td.spec for tid, td in data.items()}
    model.backbone.set_trainable(not plan.freeze_backbone)

    stream = build_stream(plan, data)
    total = len(stream)
    if record is None:
        record = RunRecord(seed=plan.seed, task_ids=sorted(data),
                           plan_fingerprint=plan.fingerprint(), total_steps=total)
    if record.optimizer_state is None:
        record.optimizer_state = OptimizerState(
            total_steps=total, base_lr=plan.base_lr,
            warmup_steps=plan.warmup_steps, weight_decay=plan.weight_decay)
    optimizer_state = record.optimizer_state

    stop_at = total if max_steps is None else min(total, max_steps)

    def run_eval(step: int) -> None:
        scores = {tid: evaluate_task(model, specs[tid], data[tid].dev)
                  for tid in sorted(data)}
        record.evals.append((step, scores))
        for tid, score in scores.items():
            cur = record.best.get(tid)
            # strictly better only: a tie keeps the earliest step
            if cur is None or better(specs[tid], score, cur["score"]):
                record.best[tid] = {
                    "step": step, "score": score,
                    "checkpoint_id": f"{tid}-step{step}",
                }
                record.best_snapshots[tid] = model.snapshot()

    for idx in range(optimizer_state.step, stop_at):
        if on_step is not None:
            on_step(idx, model)
        batch = stream[idx]
        loss = train_step(model, batch, specs, optimizer_state)
        step = idx + 1
        if not math.isfinite(loss):
            raise SpalMtlError(
                f"non-finite loss {loss} at step {step} on task {batch.task_id!r}")
        record.losses.append((step, batch.task_id, loss))
        if step % plan.eval_interval == 0 or step == total:
            run_eval(step)
    if on_step is not None:
        on_step(stop_at, model)
    if not record.evals and stop_at == total:
        run_eval(stop_at)
    return record


def aggregate_seeds(records: list[RunRecord]) -> SeedAggregate:
    """Per-task mean and population std of best dev scores across seeds."""
    if len(records) < 2:
        raise ContractError("aggregate_seeds needs at least two records")
    ref = records[0]
    for r in records[1:]:
        if r.plan_fingerprint != ref.plan_fingerprint or r.task_ids != ref.task_ids:
            raise ContractError("records come from differing plans")
    per_task = {}
    for tid in ref.task_ids:
        scores = [r.best[tid]["score"] for r in records]
        per_task[tid] = {
            "mean": float(np.mean(scores)),
            "std": float(np.std(scores)),
            "scores": [float(s) for s in scores],
        }
    return SeedAggregate(seeds=[r.seed for r in records], per_task=per_task)


def transfer_finetune(model: MtlModel, task: TaskData, plan: TrainPlan,
                      train_shots: int = 400, dev_shots: int = 400,
                      epochs: int = 10) -> RunRecord:
    """Few-shot fine-tuning of a pre-trained shared trunk on a new task.

    The trunk (backbone + SPALs) is used as-is; a fresh head is attached.
    """
    if train_shots <= 0 or dev_shots <= 0:
        raise ConfigError("shot counts must be positive")
    if train_shots > len(task.train) or dev_shots > len(task.dev):
        raise ConfigError(
            f"shots ({train_shots}/{dev_shots}) exceed dataset sizes "
            f"({len(task.train)}/{len(task.dev)})")
    rng = np.random.default_rng([plan.seed, 0xF5])
    train = [task.train[i] for i in rng.choice(len(task.train), train_shots, replace=False)]
    dev = [task.dev[i] for i in rng.choice(len(task.dev), dev_shots, replace=False)]

    model.heads = {task.spec.id: Head(task.spec, model.backbone.config.model_dim,
                                      plan.seed + 9000)}
    few_plan = replace(plan, epochs=epochs, temperature=1.0,
                       eval_interval=DEFAULT_EVAL_INTERVAL_STL)
    few_data = {task.spec.id: TaskData(spec=task.spec, train=train, dev=dev,
                                       test=task.test)}
    return run_training(few_plan, model, few_data)

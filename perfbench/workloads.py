"""The three workloads. Each has a set-up, a timed episode that can be run
again and again with identical work, and checks of what it produced.

Every call into the package goes through a module attribute
(``engine.run_training``, ``an.rep_gen_at_layers``, ...) so that the traced
run's wrappers see it.
"""

from __future__ import annotations

import math
import traceback
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from spalmtl import analysis as an
from spalmtl import checkpoint, engine, reporting, synthdata
from spalmtl.backbone import BERT_BASE, PRESETS
from spalmtl.engine import RunRecord, TrainPlan, build_stream
from spalmtl.model import MtlModel
from spalmtl.tasks import TaskData

import checks
from metrics import Tally

MODEL_SEED = 1  # fixed, so the known-answer run sees the same initial model


@dataclass
class Episode:
    """What one pass of a workload's timed phase measured."""

    start: float = 0.0
    wall: float = 0.0
    steps: list = field(default_factory=list)   # (s, examples) per train_step call
    first_step: float | None = None             # bert-base: the warm-up step, kept apart
    evals: list = field(default_factory=list)   # (s, examples) per evaluate_task call
    diagnostics: float = 0.0
    losses: list = field(default_factory=list)
    deferred: list = field(default_factory=list)  # (check name, problems thunk)


@dataclass
class State:
    """A set-up workload: data, model and what the episodes need."""

    data: dict
    model: MtlModel
    seed: int
    tmp: Path
    record: RunRecord | None = None               # toy_analyze: the pre-training run
    setup_steps: list = field(default_factory=list)
    episodes: int = 0
    init: dict = field(init=False)                # trainable params after build

    def __post_init__(self):
        self.init = {k: p.data.copy() for k, p in self.model.all_params().items()
                     if p.trainable}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path, Tally], State]
    episode: Callable[[State, Tally], Episode]
    frozen: Callable[[MtlModel], dict]   # params no episode may change
    tail_cap: float                       # highest step percentile to report
    setups: int                           # set-ups per run; setup_s is their median


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

@contextmanager
def timed_evals(tally: Tally, log: list):
    """Time and count every ``engine.evaluate_task`` call, including those
    ``run_training`` makes."""
    inner = engine.evaluate_task

    def timed(model, spec, examples):
        t0 = perf_counter()
        try:
            score = inner(model, spec, examples)
        except Exception:
            tally.record(f"evaluate_task {spec.id}", False, traceback.format_exc(limit=4))
            raise
        log.append((perf_counter() - t0, len(examples)))
        tally.record(f"evaluate_task {spec.id}", math.isfinite(score), f"score {score}")
        return score

    engine.evaluate_task = timed
    try:
        yield
    finally:
        engine.evaluate_task = inner


@contextmanager
def timed_steps(log: list):
    """Time every ``engine.train_step`` call, as ``run_training`` makes it,
    into ``log`` as (seconds, examples)."""
    inner = engine.train_step

    def timed(model, batch, specs, state):
        t0 = perf_counter()
        loss = inner(model, batch, specs, state)
        log.append((perf_counter() - t0, len(batch.examples)))
        return loss

    engine.train_step = timed
    try:
        yield
    finally:
        engine.train_step = inner


def train(st: State, tally: Tally, plan: TrainPlan, data: dict, max_steps: int | None,
          ep: Episode, warmup: int = 0,
          between: Callable[[int], None] | None = None) -> RunRecord:
    """``run_training`` on ``data`` with each ``train_step`` call timed, so
    that a step's time holds no evaluation and every step of the stream is
    sampled. ``between(i)`` runs before step i and after the last, as
    ``spalmtl train`` runs diagnostics at a cadence. The first ``warmup``
    steps are timed into ``ep.first_step`` instead of ``ep.steps``. Each
    step is one operation and fails if its loss is not finite.
    """
    steps: list = []
    on_step = None if between is None else (lambda i, model: between(i))
    record = RunRecord(seed=plan.seed, task_ids=sorted(data),
                       plan_fingerprint=plan.fingerprint(),
                       total_steps=len(build_stream(plan, data)))
    with timed_evals(tally, ep.evals), timed_steps(steps):
        try:
            engine.run_training(plan, st.model, data, max_steps=max_steps,
                                on_step=on_step, record=record)
        except Exception:
            tally.record("run_training", False, traceback.format_exc(limit=4))
    for step, _, loss in record.losses:
        tally.record(f"train step {step}", math.isfinite(loss), f"loss {loss}")
        ep.losses.append(loss)
    if warmup:
        ep.first_step = sum(s for s, _ in steps[:warmup])
    ep.steps.extend(steps[warmup:])
    return record


def diagnose(st: State, ep: Episode, tally: Tally, data: dict, embed_data: dict,
             layers: list[int], step: int,
             between: Callable[[], None] | None = None) -> dict:
    """The paper's diagnostics, timed into ``ep.diagnostics``: rep-gen and
    gradient snapshots on ``data``, task and text embeddings on
    ``embed_data`` (train splits). ``between()`` runs after each diagnostic
    call, outside its time. Returns ``emit_metrics``' keyword arguments."""
    model, tids = st.model, sorted(data)
    out: dict = {}

    def call(name, fn, *args):
        t0 = perf_counter()
        ok, result = tally.run(name, fn, *args)
        ep.diagnostics += perf_counter() - t0
        if between is not None:
            between()
        return ok, result

    def similarity(kind, make, vectors):
        ok, sim = call(f"{kind} similarity", make)
        if ok:
            ep.deferred.append((f"{kind} similarity", lambda: checks.similarity_matrix(
                f"{kind} similarity", sim, vectors)))
        return sim

    ok, g = call("rep_gen_at_layers", an.rep_gen_at_layers, model, data, layers)
    if ok:
        ep.deferred.append(("rep-gen G", lambda: checks.rep_gen_values("G", g)))
        out["repgen"] = [(step, layer, v) for layer, v in g.items()]

    snaps = [call(f"snapshot_task_gradient {t}", an.snapshot_task_gradient,
                  model, data[t].spec, data[t].train, step) for t in tids]
    if all(ok for ok, _ in snaps):
        snaps = [s for _, s in snaps]
        out["gradsim"] = {step: similarity(
            "gradient", lambda: an.gradient_similarity_matrix(snaps),
            [s.vector for s in snaps])}

    task = [call(f"task_embedding {t}", an.task_embedding, model, embed_data[t].spec,
                 embed_data[t].train) for t in tids]
    text = [call(f"text_embedding {t}", an.text_embedding, model, embed_data[t].train)
            for t in tids]
    for kind, vecs in (("task", task), ("text", text)):
        if all(ok for ok, _ in vecs):
            vectors = {t: v for t, (_, v) in zip(tids, vecs)}
            out[f"{kind}_sim"] = similarity(
                f"{kind} embedding", lambda: an.embedding_similarity_matrix(vectors),
                [vectors[t] for t in tids])

    if model.probe is not None:
        ok, w = call("probe_contributions", an.probe_contributions, model)
        if ok:
            ep.deferred.append(("probe weights", lambda: checks.probe_weights("probe", w)))
            out["probe"] = w
    return out


def diagnostic_calls(tasks: int, probe: bool) -> int:
    """How many calls ``diagnose`` makes when none fails: rep-gen, a
    gradient snapshot, a task and a text embedding per task, three
    similarity matrices and, with a probe, its weights."""
    return 1 + 3 * tasks + 3 + probe


def episode_dir(st: State) -> Path:
    out = st.tmp / f"episode{st.episodes}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def round_trip(st: State, ep: Episode, tally: Tally, record: RunRecord, out: Path) -> None:
    """Save the model and optimizer as ``spalmtl train`` does at the end of
    a run, and load them back; the check that they match is deferred."""
    path = out / "ckpt_final.spal"
    ok, _ = tally.run("save_checkpoint", checkpoint.save_checkpoint, st.model, path,
                      optimizer=record.optimizer_state)
    if not ok:
        return
    ok, loaded = tally.run("load_checkpoint", checkpoint.load_checkpoint, path)
    path.unlink()  # ~1 GB at bert-base geometry
    if ok:
        model, state = st.model, record.optimizer_state
        ep.deferred.append(("checkpoint round trip", lambda: (
            checks.same_params("checkpoint", model, loaded[0])
            + checks.same_optimizer("checkpoint", state, loaded[1]))))


def reset(st: State) -> None:
    """Put the trainable params back to their values after the build."""
    params = st.model.all_params()
    for k, arr in st.init.items():
        params[k].data = arr.copy()


def first(data: dict, n: int, split: str = "train") -> dict:
    """The first ``n`` examples of each task's ``split``, as a train split."""
    return {t: TaskData(spec=td.spec, train=td.split(split)[:n]) for t, td in data.items()}


def build(preset, data: dict, spal_hidden: int, probe: bool = False) -> MtlModel:
    return MtlModel.build(preset, [data[t].spec for t in sorted(data)],
                          spal_hidden=spal_hidden, seed=MODEL_SEED,
                          freeze_backbone=True, probe=probe)


def backbone_params(model: MtlModel) -> dict:
    return model.backbone.params


def all_params(model: MtlModel) -> dict:
    return model.all_params()


# ---------------------------------------------------------------------------
# toy_train: the criterion-3 training configuration
# ---------------------------------------------------------------------------

# A whole epoch, so that every seed trains on the same mix of batch sizes;
# a run repeats it, and two episodes give over 100 step samples, enough
# for p90. Evaluating and diagnosing six times an epoch, every second or
# two, spreads their time over the run, which steadies their figures on a
# machine whose speed drifts from one second to the next.
TOY_TRAIN_EPOCHS = 1
TOY_EVALS_PER_EPOCH = 6
TOY_DIAG_EXAMPLES = 8       # diagnostics on the first dev examples of each task


def steps_per_epoch(data: dict) -> int:
    return sum(-(-len(td.train) // td.spec.batch_size) for td in data.values())


def toy_train_setup(seed: int, tmp: Path, tally: Tally) -> State:
    data = synthdata.gen_synthetic_suite(synthdata.findata_shaped_suite(seed=seed))
    return State(data, build(PRESETS["toy"], data, spal_hidden=4), seed, tmp)


def toy_train_episode(st: State, tally: Tally) -> Episode:
    reset(st)
    ep = Episode()
    epoch = steps_per_epoch(st.data)
    interval = epoch // TOY_EVALS_PER_EPOCH
    # epochs=11 is the criterion-3 plan; it sets the learning-rate schedule.
    plan = TrainPlan(epochs=11, eval_interval=interval, seed=st.seed)
    dev = first(st.data, TOY_DIAG_EXAMPLES, "dev")
    layers = an.reported_layers(st.model.backbone.config.num_layers)
    diag: dict = {"repgen": [], "gradsim": {}}

    def at_cadence(step):  # what `spalmtl train` does with its analysis on
        if step and step % interval == 0:
            out = diagnose(st, ep, tally, dev, dev, layers, step)
            diag["repgen"] += out.pop("repgen", [])
            diag["gradsim"].update(out.pop("gradsim", {}))
            diag.update(out)

    ep.start = perf_counter()
    record = train(st, tally, plan, st.data, TOY_TRAIN_EPOCHS * epoch, ep,
                   between=at_cadence)
    out = episode_dir(st)
    tally.run("emit_metrics", reporting.emit_metrics, record, out, **diag)
    round_trip(st, ep, tally, record, out)
    ep.wall = perf_counter() - ep.start
    return ep


# ---------------------------------------------------------------------------
# toy_analyze: every diagnostic on a pre-trained probing model
# ---------------------------------------------------------------------------

PRETRAIN_SHARE = 4          # pre-train one epoch on a quarter of each train split


def toy_analyze_setup(seed: int, tmp: Path, tally: Tally) -> State:
    data = synthdata.gen_synthetic_suite(synthdata.findata_shaped_suite(seed=seed))
    st = State(data, build(PRESETS["toy"], data, spal_hidden=4, probe=True), seed, tmp)
    # A short run at a high learning rate moves the adapters and probe
    # weights well away from their initial values; it ends with one
    # evaluation. Its steps are this workload's train-step samples. A whole
    # epoch of a fixed share keeps the mix of batch sizes the same per seed.
    part = {t: TaskData(spec=td.spec, train=td.train[:len(td.train) // PRETRAIN_SHARE],
                        dev=td.dev) for t, td in data.items()}
    plan = TrainPlan(epochs=1, eval_interval=steps_per_epoch(part), seed=seed,
                     base_lr=1e-3, warmup_steps=0)
    pre = Episode()
    st.record = train(st, tally, plan, part, None, pre)
    st.setup_steps = pre.steps
    return st


EVAL_CHUNK = 32            # examples per evaluate_task call in toy_analyze


def evaluate(tally: Tally, ep: Episode, model: MtlModel, spec, examples: list) -> None:
    with timed_evals(tally, ep.evals), suppress(Exception):  # timed_evals counts a failure
        engine.evaluate_task(model, spec, examples)


def toy_analyze_episode(st: State, tally: Tally) -> Episode:
    ep = Episode()
    model, data = st.model, st.data
    layers = list(range(1, model.backbone.config.num_layers + 1))
    out = episode_dir(st)
    ep.start = perf_counter()
    round_trip(st, ep, tally, st.record, out)
    # Every dev, train and test split of every task is evaluated, in calls of
    # at most EVAL_CHUNK examples spread evenly over the gaps between the
    # diagnostic calls, so that the evaluation figure samples the machine's
    # speed across the whole episode rather than during a few short windows.
    pending = [(data[t].spec, examples[i:i + EVAL_CHUNK])
               for split in ("dev", "train", "test") for t in sorted(data)
               for examples in [data[t].split(split)]
               for i in range(0, len(examples), EVAL_CHUNK)]
    gaps = diagnostic_calls(len(data), model.probe is not None)

    def evaluate_some():
        nonlocal gaps
        for _ in range(-(-len(pending) // max(gaps, 1))):
            evaluate(tally, ep, model, *pending.pop(0))
        gaps -= 1

    diag = diagnose(st, ep, tally, data, data, layers, st.record.total_steps,
                    between=evaluate_some)
    while pending:  # left over only if a diagnostic call failed
        evaluate(tally, ep, model, *pending.pop(0))
    tally.run("emit_metrics", reporting.emit_metrics, st.record, out, **diag)
    ep.wall = perf_counter() - ep.start
    return ep


# ---------------------------------------------------------------------------
# bertbase_train: a few steps and diagnostics at bert-base geometry
# ---------------------------------------------------------------------------

BB_TRAIN = 16               # examples per task: 8 batches of 4 in the stream
BB_STEPS = 7                # one warm-up step and six more
BB_EVAL_INTERVAL = 4        # steps 5 to 7 run while the best snapshots are held
BB_DIAG_EXAMPLES = 2
BB_EMBED_EXAMPLES = 1


def bertbase_suite(seed: int) -> synthdata.GeneratorSpec:
    return synthdata.GeneratorSpec(tasks=(
        synthdata.SynthTaskSpec("cls", "seq_classification", (BB_TRAIN, 4, 4),
                                num_classes=3, batch_size=4),
        synthdata.SynthTaskSpec("tag", "token_classification", (BB_TRAIN, 4, 4),
                                num_classes=5, batch_size=4),
    ), seq_len=(32, 32), seed=seed)


def bertbase_setup(seed: int, tmp: Path, tally: Tally) -> State:
    data = synthdata.gen_synthetic_suite(bertbase_suite(seed))
    return State(data, build(BERT_BASE, data, spal_hidden=204), seed, tmp)


def bertbase_episode(st: State, tally: Tally) -> Episode:
    reset(st)
    ep = Episode()
    plan = TrainPlan(epochs=1, eval_interval=BB_EVAL_INTERVAL, seed=st.seed)
    few = first(st.data, BB_DIAG_EXAMPLES)
    fewer = first(st.data, BB_EMBED_EXAMPLES)
    layers = an.reported_layers(st.model.backbone.config.num_layers)
    ep.start = perf_counter()
    record = train(st, tally, plan, st.data, BB_STEPS, ep, warmup=1)
    # The best snapshots were held through the last steps; drop them before
    # the diagnostics, as a run that has saved its best checkpoints would.
    record.best_snapshots.clear()
    diag = diagnose(st, ep, tally, few, fewer, layers, BB_STEPS)
    out = episode_dir(st)
    tally.run("emit_metrics", reporting.emit_metrics, record, out, **diag)
    round_trip(st, ep, tally, record, out)
    ep.wall = perf_counter() - ep.start
    return ep


WORKLOADS = {w.name: w for w in (
    Workload("toy_train", toy_train_setup, toy_train_episode, backbone_params, 90.0, 11),
    Workload("toy_analyze", toy_analyze_setup, toy_analyze_episode, all_params, 75.0, 3),
    Workload("bertbase_train", bertbase_setup, bertbase_episode, backbone_params, 50.0, 2),
)}

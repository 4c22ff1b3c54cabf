"""Command-line surface: gen-data, train, eval, sweep-capacity,
ablate-tasks, transfer, analyze."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path
from typing import NamedTuple

from . import analysis as an
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import from_json, read_json, save_jsonl_dataset
from .engine import (RunRecord, aggregate_seeds, evaluate_task,
                     run_training, transfer_finetune)
from .errors import ConfigError, SpalMtlError
from .model import MtlModel
from .reporting import emit_metrics, write_aggregate_json
from .runcfg import AnalysisConfig, RunConfig, load_run_config
from .synthdata import GeneratorSpec, gen_synthetic_suite
from .tasks import TaskData

DEFAULT_SWEEP_HIDDEN = (12, 60, 204, 408, 816)
DEFAULT_SWEEP_SEEDS = (1, 2, 3, 4, 5)


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Accept '1,2,3' and '1-5' forms; no range may be empty, no value repeat."""
    out: list[int] = []
    for part in text.split(","):
        lo, dash, hi = part.strip().partition("-")
        try:
            span = range(int(lo), int(hi if dash else lo) + 1)
        except ValueError:
            raise ConfigError(f"{flag} takes integers or ranges (1-5), got {text!r}") from None
        if not span:
            raise ConfigError(f"{flag} range {part.strip()!r} is empty")
        if twice := set(out).intersection(span):
            raise ConfigError(f"{flag} names {min(twice)} twice, in {text!r}")
        out.extend(span)
    return out


def _parse_shots(text: str) -> tuple[int, int]:
    """'TRAIN,DEV' as two integers."""
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
        raise ConfigError(f"--shots must be TRAIN,DEV (two integers), got {text!r}")
    return int(parts[0]), int(parts[1])


def _load_for_tasks(path, data: dict[str, TaskData]) -> MtlModel:
    """Load a checkpoint whose heads match the config's tasks: a head for
    every task, of the same kind, classes and tag names."""
    model, _ = load_checkpoint(path)
    missing = sorted(set(data) - set(model.heads))
    if missing:
        raise ConfigError(f"checkpoint {path} has no head for config task(s) "
                          f"{missing}; its tasks are {sorted(model.heads)}")
    for tid in sorted(data):
        for key in ("kind", "num_classes", "tag_names"):
            got, want = getattr(model.heads[tid].spec, key), getattr(data[tid].spec, key)
            if got != want:
                raise ConfigError(f"checkpoint {path} head {tid!r} has {key} {got!r}, "
                                  f"but the config's task has {want!r}")
    return model


def _step_diagnostics(model: MtlModel, data: dict[str, TaskData], step: int,
                      analysis: AnalysisConfig, repgen: list, gradsim: dict) -> None:
    """Append the rep-gen rows and the gradient-similarity matrix at `step`,
    as `analysis` enables them. G is over task pairs: one task adds no row."""
    if analysis.rep_gen and len(data) > 1:
        layers = analysis.layers or an.reported_layers(model.backbone.config.num_layers)
        repgen += [(step, layer, g)
                   for layer, g in an.rep_gen_at_layers(model, data, layers).items()]
    if analysis.grad_snapshots:
        gradsim[step] = an.gradient_similarity_matrix(
            [an.snapshot_task_gradient(model, td.spec, td.train, step)
             for _, td in sorted(data.items())])


def _final_diagnostics(model: MtlModel, data: dict[str, TaskData], embeddings: bool) -> dict:
    """Probe weights and, with `embeddings`, the task and text embedding
    similarities, as `emit_metrics` keywords."""
    out = {"probe": an.probe_contributions(model) if model.probe is not None else None}
    if embeddings:
        out["task_sim"], out["text_sim"] = (
            an.embedding_similarity_matrix({tid: embed(td) for tid, td in sorted(data.items())})
            for embed in (lambda td: an.task_embedding(model, td.spec, td.train),
                          lambda td: an.text_embedding(model, td.train)))
    return out


def execute_run(cfg: RunConfig, seed: int, out: Path | None,
                data: dict[str, TaskData] | None = None) -> RunRecord:
    """Train one model under the config, collecting any configured
    diagnostics, and emit all artifacts to `out`, which is created first."""
    plan = dataclasses.replace(cfg.plan, seed=seed)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    if data is None:
        data = cfg.build_data()
    model = cfg.build_model(data, seed)
    analysis, repgen, gradsim = cfg.analysis, [], {}

    def on_step(step: int, m: MtlModel) -> None:
        if step % analysis.snapshot_cadence == 0:
            _step_diagnostics(m, data, step, analysis, repgen, gradsim)

    record = run_training(plan, model, data, on_step=on_step)
    final = _final_diagnostics(model, data, analysis.embeddings)
    if out is not None:
        emit_metrics(record, out, repgen=repgen if analysis.rep_gen else None,
                     gradsim=gradsim if analysis.grad_snapshots else None, **final)
        save_checkpoint(model, out / "ckpt_final.spal",
                        optimizer=record.optimizer_state)
        for tid, snap in record.best_snapshots.items():
            model.restore(snap)
            save_checkpoint(model, out / f"ckpt_{record.best[tid]['checkpoint_id']}.spal")
    return record


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    spec = from_json(GeneratorSpec, read_json(args.config), "generator")
    out = Path(args.out)
    for t in spec.tasks:
        (out / t.id).mkdir(parents=True, exist_ok=True)
    for tid, td in sorted(gen_synthetic_suite(spec).items()):
        for split in ("train", "dev", "test"):
            save_jsonl_dataset(out / tid / f"{split}.jsonl", td.split(split))
        print(f"{tid}: train={len(td.train)} dev={len(td.dev)} test={len(td.test)}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    seed = args.seed if args.seed is not None else cfg.plan.seed
    record = execute_run(cfg, seed, Path(args.out) if args.out else None)
    for tid in record.task_ids:
        b = record.best[tid]
        print(f"{tid}: best {b['score']:.4f} at step {b['step']}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg.build_data()
    model = _load_for_tasks(args.checkpoint, data)
    scores = {tid: evaluate_task(model, data[tid].spec, data[tid].split(args.split))
              for tid in sorted(data) if data[tid].split(args.split)}
    print(json.dumps(scores, sort_keys=True, indent=1))
    return 0


class Cell(NamedTuple):
    """One run of a grid: a task subset (in the config's task order) at a
    SPAL hidden size and a seed, written to its own directory."""

    tasks: tuple[str, ...]
    spal_hidden: int | None
    seed: int
    out: Path


def _run_grid(cfg: RunConfig, data: dict[str, TaskData], cells: list[Cell]):
    """Run the cells in order and yield each group's (tasks, spal_hidden,
    records) once its last cell has run. A group is a run of consecutive
    cells that share tasks and hidden size; one of two or more seeds gets an
    `aggregate.json` in the parent of its cells' directories."""
    cfgs = {h: dataclasses.replace(cfg, spal_hidden=h)  # checks each h before any run
            for h in dict.fromkeys(c.spal_hidden for c in cells)}
    for (tasks, h), group in itertools.groupby(cells, key=lambda c: (c.tasks, c.spal_hidden)):
        group = list(group)
        records = [execute_run(cfgs[h], c.seed, c.out,
                               data={tid: data[tid] for tid in tasks}) for c in group]
        if len(records) >= 2:
            write_aggregate_json(aggregate_seeds(records), group[0].out.parent)
        yield tasks, h, records


def cmd_sweep_capacity(args) -> int:
    cfg = load_run_config(args.config)
    hiddens = (DEFAULT_SWEEP_HIDDEN if args.hidden is None
               else _parse_int_list(args.hidden, "--hidden"))
    seeds = DEFAULT_SWEEP_SEEDS if args.seeds is None else _parse_int_list(args.seeds, "--seeds")
    out = Path(args.out or "sweep")
    data = cfg.build_data()
    cells = [Cell(tuple(data), h, seed, out / f"h{h}" / f"seed{seed}")
             for h in hiddens for seed in seeds]
    for _, h, records in _run_grid(cfg, data, cells):
        for tid in records[0].task_ids:
            scores = [r.best[tid]["score"] for r in records]
            print(f"h={h} {tid}: " + " ".join(f"{s:.4f}" for s in scores))
    return 0


def cmd_ablate_tasks(args) -> int:
    """Stage i runs the config's tasks less the first i of --order. With
    --seeds, each stage runs once per seed into `seed{S}/` and prints each
    task's scores as a list; without, it runs the plan's seed in place."""
    cfg = load_run_config(args.config)
    seeds = None if args.seeds is None else _parse_int_list(args.seeds, "--seeds")
    data = cfg.build_data()
    order = [t.strip() for t in args.order.split(",")]
    for i, tid in enumerate(order):
        if tid not in data:
            raise ConfigError(f"--order names unknown task {tid!r}")
        if tid in order[:i]:
            raise ConfigError(f"--order names task {tid!r} twice")
    out = Path(args.out or "ablation")
    cells = []
    for stage in range(min(len(order), len(data) - 1) + 1):
        tasks = tuple(tid for tid in data if tid not in order[:stage])
        stage_dir = out / f"stage{stage}_{'-'.join(sorted(tasks))}"
        cells += ([Cell(tasks, cfg.spal_hidden, cfg.plan.seed, stage_dir)] if seeds is None
                  else [Cell(tasks, cfg.spal_hidden, s, stage_dir / f"seed{s}") for s in seeds])
    for stage, (tasks, _, records) in enumerate(_run_grid(cfg, data, cells)):
        best = {tid: [r.best[tid]["score"] for r in records] for tid in records[0].task_ids}
        if seeds is None:
            best = {tid: scores[0] for tid, scores in best.items()}
        print(f"stage {stage} ({sorted(tasks)}): " + json.dumps(best, sort_keys=True))
    return 0


def cmd_transfer(args) -> int:
    cfg = load_run_config(args.config)
    train_shots, dev_shots = _parse_shots(args.shots)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    data = cfg.build_data()
    if args.task not in data:
        raise ConfigError(f"--task names unknown task {args.task!r}")
    model, _ = load_checkpoint(args.checkpoint)
    record = transfer_finetune(model, data[args.task], cfg.plan,
                               train_shots=train_shots, dev_shots=dev_shots,
                               epochs=args.epochs)
    if args.out:
        emit_metrics(record, Path(args.out))
    b = record.best[args.task]
    print(f"{args.task}: best {b['score']:.4f} at step {b['step']}")
    return 0


def cmd_analyze(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg.build_data()
    model = _load_for_tasks(args.checkpoint, data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    repgen, gradsim = [], {}
    _step_diagnostics(model, data, 0, dataclasses.replace(
        cfg.analysis, rep_gen=True, grad_snapshots=True), repgen, gradsim)
    record = RunRecord(seed=cfg.plan.seed, task_ids=sorted(data),
                       plan_fingerprint=cfg.plan.fingerprint())
    emit_metrics(record, out, repgen=repgen, gradsim=gradsim,
                 **_final_diagnostics(model, data, embeddings=True))
    print(f"analysis artifacts written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spalmtl",
        description="Multi-task training with shared parallel attention layers")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write synthetic JSONL datasets")
    g.add_argument("--config", required=True, help="generator spec JSON")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="run one training job")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", default="dev", choices=("train", "dev", "test"))
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("sweep-capacity", help="hidden-size sweep across seeds")
    s.add_argument("--config", required=True)
    s.add_argument("--hidden", default=None, help="e.g. 12,60,204,408,816")
    s.add_argument("--seeds", default=None, help="e.g. 1-5 or 1,2,3")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_sweep_capacity)

    a = sub.add_parser("ablate-tasks", help="cumulative leave-out schedule")
    a.add_argument("--config", required=True)
    a.add_argument("--order", required=True, help="comma-separated drop order")
    a.add_argument("--seeds", default=None, help="e.g. 1-5 or 1,2,3")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_ablate_tasks)

    tr = sub.add_parser("transfer", help="few-shot transfer from a trunk checkpoint")
    tr.add_argument("--config", required=True)
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--task", required=True)
    tr.add_argument("--shots", default="400,400")
    tr.add_argument("--epochs", type=int, default=10)
    tr.add_argument("--out", default=None)
    tr.set_defaults(fn=cmd_transfer)

    an_p = sub.add_parser("analyze", help="diagnostics from a stored checkpoint")
    an_p.add_argument("--config", required=True)
    an_p.add_argument("--checkpoint", required=True)
    an_p.add_argument("--out", required=True)
    an_p.set_defaults(fn=cmd_analyze)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpalMtlError, OSError) as e:  # the one place an error becomes `error: …`
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

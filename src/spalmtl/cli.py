"""Command-line surface: gen-data, train, eval, sweep-capacity,
ablate-tasks, transfer, analyze."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import analysis as an
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import save_jsonl_dataset
from .engine import (RunRecord, TrainPlan, aggregate_seeds, evaluate_task,
                     run_training, transfer_finetune)
from .errors import ConfigError, SpalMtlError
from .model import MtlModel
from .reporting import emit_metrics, write_aggregate_json
from .runcfg import RunConfig, load_run_config, parse_generator
from .synthdata import gen_synthetic_suite
from .tasks import TaskData

DEFAULT_SWEEP_HIDDEN = (12, 60, 204, 408, 816)
DEFAULT_SWEEP_SEEDS = (1, 2, 3, 4, 5)


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Accept '1,2,3' and '1-5' forms; a range must not be empty."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        try:
            span = range(int(lo), int(hi or lo) + 1)
        except ValueError:
            raise ConfigError(f"{flag} takes integers or ranges (1-5), got {text!r}") from None
        if not span:
            raise ConfigError(f"{flag} range {part.strip()!r} is empty")
        out.extend(span)
    return out


def _parse_shots(text: str) -> tuple[int, int]:
    """'TRAIN,DEV' as two integers."""
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
        raise ConfigError(f"--shots must be TRAIN,DEV (two integers), got {text!r}")
    return int(parts[0]), int(parts[1])


def _load_for_tasks(path, data: dict[str, TaskData]) -> MtlModel:
    """Load a checkpoint that has a head for every task of the config."""
    model, _ = load_checkpoint(path)
    missing = sorted(set(data) - set(model.heads))
    if missing:
        raise ConfigError(f"checkpoint {path} has no head for config task(s) "
                          f"{missing}; its tasks are {sorted(model.heads)}")
    return model


def execute_run(cfg: RunConfig, seed: int, out_dir: Path | None,
                data: dict[str, TaskData] | None = None,
                model: MtlModel | None = None) -> tuple[RunRecord, MtlModel]:
    """Train one model under the config, collecting any configured
    diagnostics, and emit all artifacts to out_dir."""
    plan = dataclasses.replace(cfg.plan, seed=seed)
    if data is None:
        data = cfg.build_data()
    if model is None:
        model = cfg.build_model(data, seed)

    cadence = cfg.analysis.snapshot_cadence
    layers = cfg.analysis.layers or an.reported_layers(cfg.backbone.num_layers)
    repgen_rows: list[tuple[int, int, float]] = []
    gradsim: dict[int, an.SimilarityMatrix] = {}
    seen_steps: set[int] = set()

    def on_step(step: int, m: MtlModel) -> None:
        if step % cadence != 0 or step in seen_steps:
            return
        seen_steps.add(step)
        if cfg.analysis.rep_gen:
            for layer, g in an.rep_gen_at_layers(m, data, layers).items():
                repgen_rows.append((step, layer, g))
        if cfg.analysis.grad_snapshots:
            snaps = [an.snapshot_task_gradient(m, data[tid].spec,
                                               data[tid].train, step)
                     for tid in sorted(data)]
            gradsim[step] = an.gradient_similarity_matrix(snaps)

    need_hook = cfg.analysis.rep_gen or cfg.analysis.grad_snapshots
    record = run_training(plan, model, data,
                          on_step=on_step if need_hook else None)

    probe_w = an.probe_contributions(model) if cfg.probe else None
    task_sim = text_sim = None
    if cfg.analysis.embeddings:
        task_sim = an.embedding_similarity_matrix(
            {tid: an.task_embedding(model, data[tid].spec, data[tid].train)
             for tid in sorted(data)})
        text_sim = an.embedding_similarity_matrix(
            {tid: an.text_embedding(model, data[tid].train)
             for tid in sorted(data)})

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_metrics(record, out_dir,
                     repgen=repgen_rows if cfg.analysis.rep_gen else None,
                     gradsim=gradsim if cfg.analysis.grad_snapshots else None,
                     probe=probe_w, task_sim=task_sim, text_sim=text_sim)
        current = model.snapshot()
        for tid, snap in record.best_snapshots.items():
            model.restore(snap)
            save_checkpoint(model, out_dir / f"ckpt_{record.best[tid]['checkpoint_id']}.spal")
        model.restore(current)
        save_checkpoint(model, out_dir / "ckpt_final.spal",
                        optimizer=record.optimizer_state)
    return record, model


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    spec_obj = json.loads(Path(args.config).read_text())
    gen = parse_generator(spec_obj)
    data = gen_synthetic_suite(gen)
    out = Path(args.out)
    for tid, td in sorted(data.items()):
        for split in ("train", "dev", "test"):
            save_jsonl_dataset(out / tid / f"{split}.jsonl", td.split(split))
        print(f"{tid}: train={len(td.train)} dev={len(td.dev)} test={len(td.test)}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    seed = args.seed if args.seed is not None else cfg.plan.seed
    out = Path(args.out) if args.out else (
        Path(cfg.out_dir) if cfg.out_dir else None)
    record, _ = execute_run(cfg, seed, out)
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


def cmd_sweep_capacity(args) -> int:
    cfg = load_run_config(args.config)
    hiddens = _parse_int_list(args.hidden, "--hidden") if args.hidden else DEFAULT_SWEEP_HIDDEN
    seeds = _parse_int_list(args.seeds, "--seeds") if args.seeds else DEFAULT_SWEEP_SEEDS
    out = Path(args.out) if args.out else Path(cfg.out_dir or "sweep")
    data = cfg.build_data()
    for h in hiddens:
        records = []
        for seed in seeds:
            run_cfg = dataclasses.replace(cfg, spal_hidden=h)
            run_dir = out / f"h{h}" / f"seed{seed}"
            record, _ = execute_run(run_cfg, seed, run_dir, data=data)
            records.append(record)
        if len(records) >= 2:
            write_aggregate_json(aggregate_seeds(records), out / f"h{h}")
        for tid in records[0].task_ids:
            scores = [r.best[tid]["score"] for r in records]
            print(f"h={h} {tid}: " + " ".join(f"{s:.4f}" for s in scores))
    return 0


def cmd_ablate_tasks(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg.build_data()
    order = [t.strip() for t in args.order.split(",")]
    for tid in order:
        if tid not in data:
            raise ConfigError(f"--order names unknown task {tid!r}")
    out = Path(args.out) if args.out else Path(cfg.out_dir or "ablation")
    remaining = dict(data)
    stage = 0
    while len(remaining) >= 1:
        stage_dir = out / f"stage{stage}_{'-'.join(sorted(remaining))}"
        record, _ = execute_run(cfg, cfg.plan.seed, stage_dir, data=dict(remaining))
        best = {tid: record.best[tid]["score"] for tid in record.task_ids}
        print(f"stage {stage} ({sorted(remaining)}): "
              + json.dumps(best, sort_keys=True))
        if stage >= len(order) or len(remaining) == 1:
            break
        remaining.pop(order[stage], None)
        stage += 1
    return 0


def cmd_transfer(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg.build_data()
    if args.task not in data:
        raise ConfigError(f"--task names unknown task {args.task!r}")
    model, _ = load_checkpoint(args.checkpoint)
    train_shots, dev_shots = _parse_shots(args.shots)
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
    layers = cfg.analysis.layers or an.reported_layers(model.backbone.config.num_layers)
    repgen = [(0, layer, g)
              for layer, g in an.rep_gen_at_layers(model, data, layers).items()]
    snaps = [an.snapshot_task_gradient(model, data[tid].spec, data[tid].train, 0)
             for tid in sorted(data)]
    gradsim = {0: an.gradient_similarity_matrix(snaps)}
    probe_w = an.probe_contributions(model) if model.probe is not None else None
    task_sim = an.embedding_similarity_matrix(
        {tid: an.task_embedding(model, data[tid].spec, data[tid].train)
         for tid in sorted(data)})
    text_sim = an.embedding_similarity_matrix(
        {tid: an.text_embedding(model, data[tid].train) for tid in sorted(data)})
    record = RunRecord(seed=cfg.plan.seed, task_ids=sorted(data),
                       plan_fingerprint=cfg.plan.fingerprint())
    emit_metrics(record, out, repgen=repgen, gradsim=gradsim, probe=probe_w,
                 task_sim=task_sim, text_sim=text_sim)
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
    except SpalMtlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

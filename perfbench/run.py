#!/usr/bin/env python3
"""spalmtl benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 50 --trace 0

Builds nothing: it imports the package from ``src/`` next to this directory
and exits with an error if it is not there. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The lines before it give the environment and the details
behind each metric. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("toy_train", "toy_analyze", "bertbase_train")
LAYERS = ("synthdata", "backbone", "spal", "model", "tasks", "autodiff", "optim",
          "engine", "analysis", "checkpoint", "reporting")
MIB = 2.0 ** 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run as many whole timed episodes as fit in this time (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int, spalmtl_threads_given) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "SPALMTL_THREADS": None,
        "SPALMTL_THREADS_given": spalmtl_threads_given,
        "git_commit": git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


def run_episodes(wl, st, tally, seconds: float) -> list:
    """Whole episodes, each checked as it ends, as many as fit in
    ``seconds`` and at least one: another one starts only if an average
    episode would end in time."""
    episodes = []
    t0 = perf_counter()
    while not episodes or (perf_counter() - t0
                           + sum(ep.wall for ep in episodes) / len(episodes)) <= seconds:
        episodes.append(run_episode(wl, st, tally))
    return episodes


def run_episode(wl, st, tally):
    ep = wl.episode(st, tally)
    st.episodes += 1
    for name, find in ep.deferred:
        tally.check(name, find)
    ep.deferred.clear()  # checks may hold a loaded model
    return ep


def final_checks(wl, st, tally, episodes, frozen_digest) -> None:
    import checks
    from workloads import reset

    losses = [ep.losses for ep in episodes if ep.losses]
    if len(losses) > 1:
        tally.check("episodes repeat their losses bit for bit", lambda: [
            f"episode {i + 1} losses differ from episode 1"
            for i, ls in enumerate(losses) if ls != losses[0]])
    tally.check("frozen params unchanged",
                lambda: checks.unchanged(wl.name, frozen_digest, wl.frozen(st.model)))
    reset(st)
    tally.check("known-answer losses", lambda: checks.known_answer(st.model))


def end_to_end(wl, setup_times, setup_steps, episodes) -> tuple[dict, dict]:
    from metrics import median, tail

    steps = [s for ep in episodes for s in ep.steps] or setup_steps
    step_s = [s for s, _ in steps]
    # A step's time over its batch size: the toy stream mixes batches of 16,
    # 24 and 32 examples, so raw step times are bimodal with the median
    # falling between the modes, where it moves far more than throughput
    # between identical episodes; per example, steps of every size take
    # about the same time.
    per_example = [s / n for s, n in steps]
    evals = [e for ep in episodes for e in ep.evals]
    label, tail_ex = tail(per_example, wl.tail_cap) if steps else ("none", None)
    tail_step = tail(step_s, wl.tail_cap)[1] if steps else None

    def ms(x):
        return None if x is None else 1e3 * x

    metrics = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median([ep.wall for ep in episodes]), "s"),
        "train_ms_per_example_p50": (ms(median(per_example)) if steps else None, "ms"),
        "train_ms_per_example_tail": (ms(tail_ex), "ms"),
        "train_examples_per_s": (sum(n for _, n in steps) / sum(step_s) if step_s else None, "1/s"),
        "eval_examples_per_s": (sum(n for _, n in evals) / sum(s for s, _ in evals)
                                if evals else None, "1/s"),
        "diagnostics_s": (median([ep.diagnostics for ep in episodes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    firsts = [ep.first_step for ep in episodes if ep.first_step is not None]
    detail = {
        "setups": len(setup_times),
        "episodes": len(episodes),
        "train_steps_sampled": len(step_s),
        "train_steps_from": "timed episodes" if any(ep.steps for ep in episodes)
                            else "set-up pre-training",
        "train_tail_is": label,
        "train_step_ms_p50": ms(median(step_s)) if steps else None,
        "train_step_ms_tail": ms(tail_step),
        "warmup_step_ms": [1e3 * f for f in firsts],
        "eval_calls": len(evals),
        "eval_examples": sum(n for _, n in evals),
    }
    return metrics, detail


def per_layer(tracer, traced, untraced) -> tuple[dict, dict]:
    from metrics import layer_self_times, median, self_times, unaccounted, within

    spans = tracer.finished()
    own = self_times(spans)

    def named(name, run=None):
        return [s for s in spans if s.name == name and (run is None or s.run == run)]

    def total(name, run=None):
        return sum(s.end - s.start for s in named(name, run))

    def self_ms(name):
        return 1e3 * sum(own[s.id] for s in named(name))

    def ratio(a, b):
        return a / b if b else None

    steps = named("engine.train_step")
    evals = named("engine.evaluate_task")
    rep_gen = named("analysis.rep_gen_at_layers")
    snaps = named("model.snapshot")
    saves = named("checkpoint.save_checkpoint")
    layers = layer_self_times(spans)
    window = [s for s in spans if s.run == "episode"]
    busy = [ep.wall - (ep.first_step or 0.0) for ep in untraced]

    metrics = {
        "synthdata.gen_s": (total("synthdata.gen_synthetic_suite", "setup"), "s"),
        "backbone.init_s": (total("backbone.init_backbone", "setup"), "s"),
        "backbone.encode_self_ms": (self_ms("backbone.encode"), "ms"),
        "backbone.encode_calls": (len(named("backbone.encode")), "count"),
        "spal.forward_ms": (self_ms("spal.forward"), "ms"),
        "spal.forward_calls": (len(named("spal.forward")), "count"),
        "tasks.head_ms": (self_ms("tasks.head_forward"), "ms"),
        "tasks.loss_ms": (self_ms("tasks.task_loss"), "ms"),
        "tasks.metric_ms": (self_ms("tasks.task_metric"), "ms"),
        "autodiff.backward_ms": (self_ms("autodiff.backward"), "ms"),
        "autodiff.backward_calls": (len(named("autodiff.backward")), "count"),
        "autodiff.nodes_per_train_step": (ratio(sum(s.nodes for s in steps), len(steps)), "count"),
        "autodiff.nodes_per_eval_example": (ratio(sum(s.nodes for s in evals),
                                                  sum(s.items for s in evals)), "count"),
        "autodiff.grad_useful_frac": (ratio(tracer.grad_trainable, tracer.grad_total), "ratio"),
        "optim.adamw_ms": (self_ms("optim.adamw_step"), "ms"),
        "optim.params_updated": (ratio(tracer.params_updated, tracer.adamw_calls), "count"),
        "model.zero_grads_ms": (self_ms("model.zero_grads"), "ms"),
        "model.snapshot_ms": (self_ms("model.snapshot"), "ms"),
        "model.snapshot_mb": (ratio(sum(s.items for s in snaps) / MIB, len(snaps)), "MB"),
        "model.snapshot_calls": (len(snaps), "count"),
        "engine.eval_ms": (1e3 * total("engine.evaluate_task"), "ms"),
        "engine.build_stream_ms": (1e3 * total("engine.build_stream"), "ms"),
        "analysis.rep_gen_s": (total("analysis.rep_gen_at_layers"), "s"),
        "analysis.rep_gen_encodes_per_example": (ratio(
            within(spans, "analysis.rep_gen_at_layers", "backbone.encode"),
            sum(s.items for s in rep_gen)), "count"),
        "analysis.grad_snapshot_s": (total("analysis.snapshot_task_gradient"), "s"),
        "analysis.task_embedding_s": (total("analysis.task_embedding"), "s"),
        "analysis.text_embedding_s": (total("analysis.text_embedding"), "s"),
        "checkpoint.save_s": (total("checkpoint.save_checkpoint"), "s"),
        "checkpoint.load_s": (total("checkpoint.load_checkpoint"), "s"),
        "checkpoint.mb": (saves[-1].items / MIB if saves else None, "MB"),
        "reporting.emit_s": (total("reporting.emit_metrics"), "s"),
        **{f"{layer}.self_s": (layers.get(layer, 0.0), "s") for layer in LAYERS},
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_pct": (100.0 * ((traced.wall - (traced.first_step or 0.0))
                                        / median(busy) - 1.0), "%"),
        "trace.unaccounted_pct": (100.0 * unaccounted(window, traced.start,
                                                      traced.start + traced.wall)
                                  / traced.wall, "%"),
    }
    detail = {
        "per_layer_scope": "totals over one traced set-up and one traced episode",
        "spans": len(spans),
        "untraced_episodes": len(untraced),
        "layer_self_s": layers,
    }
    return metrics, detail


def measure(args, tmp: Path, tally, env: dict) -> tuple[dict, dict]:
    import checks
    from tracing import Tracer
    from workloads import WORKLOADS

    import spalmtl

    wl = WORKLOADS[args.workload]
    tracer = Tracer(spalmtl) if args.trace else None
    setup_times, setup_steps = [], []

    def set_up():
        t0 = perf_counter()
        st = wl.setup(args.seed, tmp, tally)
        setup_times.append(perf_counter() - t0)
        setup_steps.extend(st.setup_steps)
        return st

    if tracer:
        with tracer.active("setup"):
            st = set_up()
    else:
        # Half the set-ups come before the episodes and half after, so that
        # their median does not hang on how fast the machine is at start-up.
        for _ in range(wl.setups - wl.setups // 2):
            st = None  # free the previous set-up before building the next
            st = set_up()
    frozen_digest = checks.params_digest(wl.frozen(st.model))

    episodes = run_episodes(wl, st, tally, args.seconds)
    if tracer:
        with tracer.active("episode"):
            traced = run_episode(wl, st, tally)
    final_checks(wl, st, tally, episodes, frozen_digest)

    if tracer:
        metrics, detail = per_layer(tracer, traced, episodes)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(path, {"env": env, "workload": args.workload})
        detail["spans_file"] = str(path.relative_to(ROOT))
        return metrics, detail
    st = None  # release the model before the remaining set-ups
    for _ in range(wl.setups // 2):
        set_up()
    return end_to_end(wl, setup_times, setup_steps, episodes)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS threads are capped before numpy is first imported; the package's
    # optional rep-gen thread pool stays off, so the serial path is measured.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    spalmtl_threads_given = os.environ.pop("SPALMTL_THREADS", None)

    src = ROOT / "src"
    if not (src / "spalmtl" / "__init__.py").is_file():
        print(f"error: the spalmtl package is not under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spalmtl

    if Path(spalmtl.__file__).resolve().parent != src / "spalmtl":
        print(f"error: imported spalmtl from {spalmtl.__file__}, not {src}", file=sys.stderr)
        return 2

    from metrics import Tally

    env = environment(args.seed, spalmtl_threads_given)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        metrics, detail = measure(args, tmp, tally, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    detail.update(workload=args.workload, trace=args.trace,
                  error_rate=tally.error_rate, failures=tally.failures[:20])
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    missing = [k for k, (v, _) in metrics.items() if v is None]
    correct = tally.failed == 0 and not missing
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

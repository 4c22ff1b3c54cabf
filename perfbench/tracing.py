"""Spans around calls into the package's public functions.

Each function is wrapped where its caller looks it up (a module global or a
class attribute), so the package itself is unchanged. Spans are kept in
memory and written out when the benchmark ends.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter

from metrics import Span


def _n_examples(args, kwargs, result):
    return len(args[2])


def _n_split_examples(args, kwargs, result):
    split = args[3] if len(args) > 3 else kwargs.get("split", "train")
    return sum(len(td.split(split)) for td in args[1].values())


def _snapshot_bytes(args, kwargs, result):
    return sum(a.nbytes for a in result.values())


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def targets(spalmtl):
    """(owner, attribute, span name, size function) for every wrapped call."""
    m = spalmtl
    return [
        (m.synthdata, "gen_synthetic_suite", "synthdata.gen_synthetic_suite", None),
        (m.model, "init_backbone", "backbone.init_backbone", None),
        (m.model, "encode", "backbone.encode", None),
        (m.spal.SpalStack, "forward", "spal.forward", None),
        (m.engine, "head_forward", "tasks.head_forward", None),
        (m.engine, "task_loss", "tasks.task_loss", None),
        (m.engine, "task_metric", "tasks.task_metric", None),
        (m.analysis, "head_forward", "tasks.head_forward", None),
        (m.analysis, "task_loss", "tasks.task_loss", None),
        (m.autodiff, "backward", "autodiff.backward", None),
        (m.engine, "adamw_step", "optim.adamw_step", None),
        (m.model.MtlModel, "zero_grads", "model.zero_grads", None),
        (m.model.MtlModel, "snapshot", "model.snapshot", _snapshot_bytes),
        (m.engine, "run_training", "engine.run_training", None),
        (m.engine, "build_stream", "engine.build_stream", None),
        (m.engine, "train_step", "engine.train_step", None),
        (m.engine, "batch_loss", "engine.batch_loss", None),
        (m.engine, "evaluate_task", "engine.evaluate_task", _n_examples),
        (m.analysis, "rep_gen_at_layers", "analysis.rep_gen_at_layers", _n_split_examples),
        (m.analysis, "snapshot_task_gradient", "analysis.snapshot_task_gradient", None),
        (m.analysis, "gradient_similarity_matrix", "analysis.gradient_similarity_matrix", None),
        (m.analysis, "task_embedding", "analysis.task_embedding", None),
        (m.analysis, "text_embedding", "analysis.text_embedding", None),
        (m.analysis, "embedding_similarity_matrix", "analysis.embedding_similarity_matrix", None),
        (m.analysis, "probe_contributions", "analysis.probe_contributions", None),
        (m.checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
        (m.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (m.reporting, "emit_metrics", "reporting.emit_metrics", None),
    ]


class Tracer:
    """Records spans (name, start, end, parent, run id), counts autodiff
    nodes, and samples the gradient elements held at each optimizer step."""

    def __init__(self, spalmtl):
        self.spalmtl = spalmtl
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.run = "setup"
        self.nodes = 0
        self.model = None            # the model of the train step under way
        self.grad_trainable = 0
        self.grad_total = 0
        self.params_updated = 0
        self.adamw_calls = 0

    def _wrap(self, fn, name, size_of):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(sid)
            n0, t0 = self.nodes, perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                self.stack.pop()
                items = size_of(args, kwargs, result) if ok and size_of is not None else 0
                self.spans[sid] = Span(sid, name, t0, t1, parent, self.run,
                                       self.nodes - n0, items)
        return traced

    def _note_model(self, train_step):
        def noted(model, *args, **kwargs):
            self.model = model
            return train_step(model, *args, **kwargs)
        return noted

    def _count_grads(self, adamw):
        def counted(params, state):
            # Outside the optimizer span: gradients the step's backward left
            # on every parameter, against those on trainable ones.
            for p in self.model.all_params().values():
                if p.grad is not None:
                    self.grad_total += p.grad.size
                    if p.trainable:
                        self.grad_trainable += p.grad.size
            self.params_updated += sum(1 for p in params if p.trainable)
            self.adamw_calls += 1
            return adamw(params, state)
        return counted

    @contextmanager
    def active(self, run: str):
        """Wrap every target for the duration of the block."""
        self.run = run
        saved = []
        tensor = self.spalmtl.autodiff.Tensor
        init = tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.nodes += 1
            init(obj, *args, **kwargs)

        saved.append((tensor, "__init__", init))
        tensor.__init__ = counting_init
        for owner, attr, name, size_of in targets(self.spalmtl):
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            wrapped = self._wrap(fn, name, size_of)
            if name == "optim.adamw_step":
                wrapped = self._count_grads(wrapped)
            elif name == "engine.train_step":
                wrapped = self._note_model(wrapped)
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.finished():
                f.write(json.dumps(s._asdict()) + "\n")

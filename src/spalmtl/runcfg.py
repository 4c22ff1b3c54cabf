"""Run configuration: strict JSON parsing plus builders for data, model and
plan. Unknown keys are hard errors; silent typos corrupt experiments."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import BackboneConfig, PRESETS
from .dataio import load_jsonl_dataset
from .engine import TrainPlan
from .errors import ConfigError
from .model import MtlModel
from .synthdata import GeneratorSpec, SynthTaskSpec, gen_synthetic_suite
from .tasks import TaskData, TaskSpec, task_spec_from_dict

_TOP_KEYS = {"backbone", "spal_hidden", "freeze_backbone", "probe", "plan",
             "data", "analysis", "out_dir"}
_PLAN_KEYS = {"epochs", "eval_interval", "seed", "temperature", "base_lr",
              "warmup_steps", "weight_decay"}
_DATA_KEYS = {"generator", "jsonl"}
_GEN_KEYS = {"tasks", "vocab_size", "seq_len", "latent_dim", "bins", "seed"}
_GEN_TASK_KEYS = {"id", "kind", "sizes", "relatedness", "num_classes",
                  "batch_size", "weight", "metric"}
_JSONL_TASK_KEYS = {"id", "kind", "metric", "num_classes", "batch_size",
                    "weight", "tag_names", "train", "dev", "test", "marker"}
_ANALYSIS_KEYS = {"rep_gen", "grad_snapshots", "embeddings", "snapshot_cadence",
                  "layers"}
_PLAN_NUMBERS = {"temperature", "base_lr", "weight_decay"}  # the rest are integers
_GEN_INTEGERS = {"vocab_size", "latent_dim", "bins", "seed"}
_GEN_TASK_INTEGERS = {"num_classes", "batch_size"}
_GEN_TASK_NUMBERS = {"relatedness", "weight"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _check_number(where: str, value, integer: bool = True) -> None:
    if type(value) is not int and (integer or type(value) is not float):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")


def _check_int_list(where: str, value, length: int) -> None:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{where} must be a list of {length} integers, got {value!r}")
    for v in value:
        _check_number(where, v)


@dataclass
class AnalysisConfig:
    rep_gen: bool = False
    grad_snapshots: bool = False
    embeddings: bool = False
    snapshot_cadence: int = 2000
    layers: list[int] | None = None


@dataclass
class RunConfig:
    backbone: BackboneConfig
    spal_hidden: int | None
    probe: bool
    plan: TrainPlan
    generator: GeneratorSpec | None
    jsonl_tasks: list[dict]
    analysis: AnalysisConfig
    out_dir: str | None
    base_dir: Path = field(default_factory=Path)

    def build_data(self) -> dict[str, TaskData]:
        if self.generator is not None:
            return gen_synthetic_suite(self.generator)
        out: dict[str, TaskData] = {}
        for t in self.jsonl_tasks:
            spec = task_spec_from_dict(t)
            marker = t.get("marker")
            splits = {}
            for name in ("train", "dev", "test"):
                if t.get(name):
                    splits[name] = load_jsonl_dataset(
                        self.base_dir / t[name], spec, marker_kind=marker)
                else:
                    splits[name] = []
            out[spec.id] = TaskData(spec=spec, **splits)
        return out

    def task_specs(self, data: dict[str, TaskData]) -> list[TaskSpec]:
        return [data[tid].spec for tid in sorted(data)]

    def build_model(self, data: dict[str, TaskData], seed: int) -> MtlModel:
        return MtlModel.build(
            self.backbone, self.task_specs(data), spal_hidden=self.spal_hidden,
            seed=seed, freeze_backbone=self.plan.freeze_backbone, probe=self.probe)


def parse_generator(obj: dict) -> GeneratorSpec:
    _check_keys(obj, _GEN_KEYS, "data.generator")
    if "tasks" not in obj or not obj["tasks"]:
        raise ConfigError("data.generator.tasks must be a non-empty list")
    tasks = []
    for i, t in enumerate(obj["tasks"]):
        where = f"data.generator.tasks[{i}]"
        _check_keys(t, _GEN_TASK_KEYS, where)
        if "id" not in t or "kind" not in t:
            raise ConfigError(f"{where} needs 'id' and 'kind'")
        for k in sorted(t.keys() & (_GEN_TASK_INTEGERS | _GEN_TASK_NUMBERS)):
            _check_number(f"{where}.{k}", t[k], integer=k in _GEN_TASK_INTEGERS)
        kwargs = dict(t)
        if "sizes" in kwargs:
            _check_int_list(f"{where}.sizes", t["sizes"], 3)
            kwargs["sizes"] = tuple(kwargs["sizes"])
        tasks.append(SynthTaskSpec(**kwargs))
    kwargs = {k: v for k, v in obj.items() if k != "tasks"}
    for k in sorted(kwargs.keys() & _GEN_INTEGERS):
        _check_number(f"data.generator.{k}", kwargs[k])
    if "seq_len" in kwargs:
        _check_int_list("data.generator.seq_len", kwargs["seq_len"], 2)
        kwargs["seq_len"] = tuple(kwargs["seq_len"])
    return GeneratorSpec(tasks=tuple(tasks), **kwargs)


def parse_run_config(obj: dict, base_dir: Path = Path(".")) -> RunConfig:
    _check_keys(obj, _TOP_KEYS, "run config")
    bb = obj.get("backbone", "toy")
    if isinstance(bb, str):
        if bb not in PRESETS:
            raise ConfigError(f"unknown backbone preset {bb!r}")
        backbone = PRESETS[bb]
    elif isinstance(bb, dict):
        try:
            backbone = BackboneConfig(**bb)
        except TypeError as e:
            raise ConfigError(f"bad backbone config: {e}") from e
        for k, v in bb.items():
            _check_number(f"backbone.{k}", v)
        backbone.validate()
    else:
        raise ConfigError("backbone must be a preset name or a config object")

    flags = {"freeze_backbone": obj.get("freeze_backbone", True),
             "probe": obj.get("probe", False)}
    for k, v in flags.items():
        if not isinstance(v, bool):
            raise ConfigError(f"{k} must be true or false, got {v!r}")

    # The plan alone decides whether the backbone trains: run_training
    # re-applies it, and run.json records it.
    plan_obj = obj.get("plan", {})
    _check_keys(plan_obj, _PLAN_KEYS, "plan")
    for k, v in plan_obj.items():
        _check_number(f"plan.{k}", v, integer=k not in _PLAN_NUMBERS)
    plan = TrainPlan(**plan_obj, freeze_backbone=flags["freeze_backbone"])

    data_obj = obj.get("data")
    if not data_obj:
        raise ConfigError("run config needs a 'data' section")
    _check_keys(data_obj, _DATA_KEYS, "data")
    generator = None
    jsonl_tasks: list[dict] = []
    if "generator" in data_obj:
        generator = parse_generator(data_obj["generator"])
    elif "jsonl" in data_obj:
        for i, t in enumerate(data_obj["jsonl"]):
            _check_keys(t, _JSONL_TASK_KEYS, f"data.jsonl[{i}]")
            missing = [k for k in ("id", "kind", "metric") if k not in t]
            if missing:
                raise ConfigError(f"data.jsonl[{i}] needs {missing}")
            jsonl_tasks.append(t)
    else:
        raise ConfigError("data section needs 'generator' or 'jsonl'")

    an_obj = obj.get("analysis", {})
    _check_keys(an_obj, _ANALYSIS_KEYS, "analysis")
    analysis = AnalysisConfig(**an_obj)
    _check_number("analysis.snapshot_cadence", analysis.snapshot_cadence)
    if analysis.snapshot_cadence <= 0:
        raise ConfigError("analysis.snapshot_cadence must be positive")
    layers, num_layers = analysis.layers, backbone.num_layers
    if layers is not None and not (isinstance(layers, list) and all(
            type(x) is int and 1 <= x <= num_layers for x in layers)):
        raise ConfigError(f"analysis.layers must be in 1..{num_layers}, got {layers!r}")

    spal_hidden = obj.get("spal_hidden")
    if spal_hidden is not None:
        _check_number("spal_hidden", spal_hidden)
    return RunConfig(
        backbone=backbone, spal_hidden=spal_hidden, probe=flags["probe"], plan=plan,
        generator=generator, jsonl_tasks=jsonl_tasks, analysis=analysis,
        out_dir=obj.get("out_dir"), base_dir=base_dir)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return parse_run_config(obj, base_dir=path.parent)

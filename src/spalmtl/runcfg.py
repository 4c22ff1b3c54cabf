"""Run configuration: strict JSON reading plus builders for data, model and
plan. Every config object is read through its dataclass by `from_json`, so
each section accepts exactly its dataclass's fields, at their annotated
types, and the dataclass checks ranges. Unknown keys are hard errors; silent
typos corrupt experiments. Generator specs and checkpoint headers are read
the same way."""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import BackboneConfig, PRESETS
from .dataio import load_jsonl_dataset
from .engine import TrainPlan
from .errors import ConfigError
from .model import MtlModel
from .spal import SpalConfig, count_spal_params
from .synthdata import GeneratorSpec, gen_synthetic_suite
from .tasks import TaskData, TaskSpec

_TOP_KEYS = {"backbone", "spal_hidden", "freeze_backbone", "probe", "plan",
             "data", "analysis", "out_dir"}
_DATA_KEYS = {"generator", "jsonl"}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


def _check_keys(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _read_value(value, hint, where: str):
    """`value` checked against the annotation `hint`. No number is converted:
    JSON lists become tuples where the hint is a tuple, and objects become
    the dataclass the hint names."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _read_value(value, hint, where)
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, where)
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            size = f" of {len(args)} items" if fixed else ""
            raise ConfigError(f"{where} must be a list{size}, got {value!r}")
        items = [_read_value(v, args[i] if fixed else args[0], f"{where}[{i}]")
                 for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if type(value) is hint or (hint is float and type(value) is int):
        return value
    raise ConfigError(f"{where} must be {_TYPE_NAMES[hint]}, got {value!r}")


def from_json(cls, obj, where: str, **given):
    """The dataclass `cls` built from the JSON object `obj`, which holds
    exactly the fields of `cls` other than those in `given`, each at its
    annotated type. `where` names `obj` in error messages."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _check_keys(obj, [f.name for f in fields], where)
    missing = [f.name for f in fields if f.name not in obj
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where} needs {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _read_value(obj[f.name], hints[f.name], f"{where}.{f.name}")
                  for f in fields if f.name in obj}, **given)


def read_json(path):
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e


@dataclass
class AnalysisConfig:
    rep_gen: bool = False
    grad_snapshots: bool = False
    embeddings: bool = False
    snapshot_cadence: int = 2000
    layers: list[int] | None = None


@dataclass(frozen=True)
class JsonlTask(TaskSpec):
    """One `data.jsonl` entry: a task spec plus its split files (relative
    to the config) and the target-marker kind inserted on load."""

    train: str | None = None
    dev: str | None = None
    test: str | None = None
    marker: str | None = None

    def spec(self) -> TaskSpec:
        return TaskSpec(**{f.name: getattr(self, f.name)
                           for f in dataclasses.fields(TaskSpec)})


@dataclass
class RunConfig:
    backbone: BackboneConfig
    plan: TrainPlan
    generator: GeneratorSpec | None
    jsonl_tasks: list[JsonlTask]
    analysis: AnalysisConfig
    spal_hidden: int | None = None
    probe: bool = False
    out_dir: str | None = None
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        if self.spal_hidden is not None:  # positive and a multiple of the heads
            count_spal_params(SpalConfig(self.spal_hidden), self.backbone)

    def build_data(self) -> dict[str, TaskData]:
        if self.generator is not None:
            return gen_synthetic_suite(self.generator)
        out: dict[str, TaskData] = {}
        for t in self.jsonl_tasks:
            spec = t.spec()
            splits = {}
            for name in ("train", "dev", "test"):
                path = getattr(t, name)
                splits[name] = load_jsonl_dataset(
                    self.base_dir / path, spec, marker_kind=t.marker) if path else []
            out[spec.id] = TaskData(spec=spec, **splits)
        return out

    def build_model(self, data: dict[str, TaskData], seed: int) -> MtlModel:
        return MtlModel.build(
            self.backbone, [data[tid].spec for tid in sorted(data)],
            spal_hidden=self.spal_hidden, seed=seed,
            freeze_backbone=self.plan.freeze_backbone, probe=self.probe)


def parse_run_config(obj: dict, base_dir: Path = Path(".")) -> RunConfig:
    _check_keys(obj, _TOP_KEYS, "run config")
    bb = obj.get("backbone", "toy")
    if isinstance(bb, str):
        if bb not in PRESETS:
            raise ConfigError(f"unknown backbone preset {bb!r}")
        backbone = PRESETS[bb]
    else:
        backbone = from_json(BackboneConfig, bb, "backbone")

    # The plan alone decides whether the backbone trains: run_training
    # re-applies it, and run.json records it.
    freeze = _read_value(obj.get("freeze_backbone", True), bool, "freeze_backbone")
    plan = from_json(TrainPlan, obj.get("plan", {}), "plan", freeze_backbone=freeze)

    data_obj = obj.get("data")
    if not data_obj:
        raise ConfigError("run config needs a 'data' section")
    _check_keys(data_obj, _DATA_KEYS, "data")
    if len(data_obj) > 1:
        raise ConfigError("data takes 'generator' or 'jsonl', not both")
    generator = None
    if "generator" in data_obj:
        generator = from_json(GeneratorSpec, data_obj["generator"], "data.generator")
    jsonl_tasks = _read_value(data_obj.get("jsonl", []), list[JsonlTask], "data.jsonl")
    if generator is None and not jsonl_tasks:
        raise ConfigError("data section needs 'generator' or a non-empty 'jsonl'")

    analysis = from_json(AnalysisConfig, obj.get("analysis", {}), "analysis")
    if analysis.snapshot_cadence <= 0:
        raise ConfigError("analysis.snapshot_cadence must be positive")
    layers, num_layers = analysis.layers, backbone.num_layers
    if layers is not None and not all(1 <= x <= num_layers for x in layers):
        raise ConfigError(f"analysis.layers must be in 1..{num_layers}, got {layers!r}")

    hints = typing.get_type_hints(RunConfig)
    top = {k: _read_value(obj[k], hints[k], k)
           for k in ("spal_hidden", "probe", "out_dir") if k in obj}
    return RunConfig(backbone=backbone, plan=plan, generator=generator,
                     jsonl_tasks=jsonl_tasks, analysis=analysis,
                     base_dir=base_dir, **top)


def load_run_config(path) -> RunConfig:
    return parse_run_config(read_json(path), base_dir=Path(path).parent)

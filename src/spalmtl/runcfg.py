"""Run configuration: strict JSON reading plus builders for data, model and
plan. Every config object is read through its dataclass by
`dataio.from_json`, so each section accepts exactly its dataclass's fields,
at their annotated types, and the dataclass checks ranges."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import BackboneConfig, PRESETS
from .dataio import check_keys, from_json, load_jsonl_dataset, read_json, read_value
from .engine import TrainPlan
from .errors import ConfigError
from .model import MtlModel
from .spal import SpalConfig, count_spal_params
from .synthdata import GeneratorSpec, gen_synthetic_suite
from .tasks import FIRST_CONTENT_ID, TaskData, TaskSpec

_TOP_KEYS = {"backbone", "spal_hidden", "freeze_backbone", "probe", "plan",
             "data", "analysis", "out_dir"}
_DATA_KEYS = {"generator", "jsonl"}


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
        gen, bb = self.generator, self.backbone
        if gen is not None and gen.vocab_size > bb.vocab_size:
            raise ConfigError(f"data.generator.vocab_size {gen.vocab_size} exceeds "
                              f"the backbone's vocab_size {bb.vocab_size}")
        if gen is not None and gen.seq_len[1] > bb.max_seq_len:
            raise ConfigError(f"data.generator.seq_len {list(gen.seq_len)} exceeds "
                              f"the backbone's max_seq_len {bb.max_seq_len}")
        if gen is not None and FIRST_CONTENT_ID <= bb.padding_token_id < gen.vocab_size:
            raise ConfigError(f"padding_token_id {bb.padding_token_id} is a data.generator "
                              f"content id ({FIRST_CONTENT_ID}..{gen.vocab_size - 1})")

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
                    self.base_dir / path, spec, self.backbone,
                    marker_kind=t.marker) if path else []
            out[spec.id] = TaskData(spec=spec, **splits)
        return out

    def build_model(self, data: dict[str, TaskData], seed: int) -> MtlModel:
        return MtlModel.build(
            self.backbone, [data[tid].spec for tid in sorted(data)],
            spal_hidden=self.spal_hidden, seed=seed,
            freeze_backbone=self.plan.freeze_backbone, probe=self.probe)


def parse_run_config(obj: dict, base_dir: Path = Path(".")) -> RunConfig:
    check_keys(obj, _TOP_KEYS, "run config")
    bb = obj.get("backbone", "toy")
    if isinstance(bb, str):
        if bb not in PRESETS:
            raise ConfigError(f"unknown backbone preset {bb!r}")
        backbone = PRESETS[bb]
    else:
        backbone = from_json(BackboneConfig, bb, "backbone")

    # The plan alone decides whether the backbone trains: run_training
    # re-applies it, and run.json records it.
    freeze = read_value(obj.get("freeze_backbone", True), bool, "freeze_backbone")
    plan = from_json(TrainPlan, obj.get("plan", {}), "plan", freeze_backbone=freeze)

    data_obj = obj.get("data")
    if not data_obj:
        raise ConfigError("run config needs a 'data' section")
    check_keys(data_obj, _DATA_KEYS, "data")
    if len(data_obj) > 1:
        raise ConfigError("data takes 'generator' or 'jsonl', not both")
    generator = None
    if "generator" in data_obj:
        generator = from_json(GeneratorSpec, data_obj["generator"], "data.generator")
    jsonl_tasks = read_value(data_obj.get("jsonl", []), list[JsonlTask], "data.jsonl")
    if generator is None and not jsonl_tasks:
        raise ConfigError("data section needs 'generator' or a non-empty 'jsonl'")

    analysis = from_json(AnalysisConfig, obj.get("analysis", {}), "analysis")
    if analysis.snapshot_cadence <= 0:
        raise ConfigError("analysis.snapshot_cadence must be positive")
    layers, num_layers = analysis.layers, backbone.num_layers
    if layers is not None and not all(1 <= x <= num_layers for x in layers):
        raise ConfigError(f"analysis.layers must be in 1..{num_layers}, got {layers!r}")

    hints = typing.get_type_hints(RunConfig)
    top = {k: read_value(obj[k], hints[k], k)
           for k in ("spal_hidden", "probe", "out_dir") if k in obj}
    return RunConfig(backbone=backbone, plan=plan, generator=generator,
                     jsonl_tasks=jsonl_tasks, analysis=analysis,
                     base_dir=base_dir, **top)


def load_run_config(path) -> RunConfig:
    return parse_run_config(read_json(path), base_dir=Path(path).parent)

"""Run configuration: strict JSON reading plus builders for data, model and
plan. A run config file is read through `RunConfig` by `dataio.from_json`,
so each section accepts exactly its dataclass's fields, at their annotated
types, and the dataclass that owns a field checks its range."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import BackboneConfig, PRESETS
from .dataio import from_json, load_jsonl_dataset, read_json
from .engine import TrainPlan
from .errors import ConfigError
from .model import MtlModel
from .spal import SpalConfig, count_spal_params
from .synthdata import GeneratorSpec, gen_synthetic_suite
from .tasks import FIRST_CONTENT_ID, MARKER_IDS, TaskData, TaskSpec


@dataclass
class AnalysisConfig:
    rep_gen: bool = False
    grad_snapshots: bool = False
    embeddings: bool = False
    snapshot_cadence: int = 2000
    layers: list[int] | None = None

    def __post_init__(self):
        if self.snapshot_cadence <= 0:
            raise ConfigError("analysis.snapshot_cadence must be positive")
        if self.layers is not None and not self.layers:
            raise ConfigError("analysis.layers must name at least one layer, got []")


@dataclass(frozen=True)
class JsonlTask(TaskSpec):
    """One `data.jsonl` entry: a task spec plus its split files (relative
    to the config) and the target-marker kind inserted on load."""

    train: str | None = None
    dev: str | None = None
    test: str | None = None
    marker: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.marker is not None and self.marker not in MARKER_IDS:
            raise ConfigError(f"data.jsonl task {self.id!r} has unknown marker "
                              f"{self.marker!r}, not one of {sorted(MARKER_IDS)}")

    def spec(self) -> TaskSpec:
        return TaskSpec(**{f.name: getattr(self, f.name)
                           for f in dataclasses.fields(TaskSpec)})


@dataclass
class DataConfig:
    """The `data` section. None marks an absent key; neither key takes null."""

    generator: GeneratorSpec = None
    jsonl: list[JsonlTask] = None

    def __post_init__(self):
        if self.generator is not None and self.jsonl is not None:
            raise ConfigError("data takes 'generator' or 'jsonl', not both")
        if self.generator is None and not self.jsonl:
            raise ConfigError("data section needs 'generator' or a non-empty 'jsonl'")


@dataclass
class RunConfig:
    """A run config file. `backbone` may name a preset in `PRESETS`;
    `base_dir`, which `data.jsonl` paths resolve against, is not a file key."""

    data: DataConfig
    backbone: BackboneConfig | str = "toy"
    plan: TrainPlan = field(default_factory=TrainPlan)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    spal_hidden: int | None = None
    probe: bool = False
    out_dir: str | None = None
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        if isinstance(self.backbone, str):
            if self.backbone not in PRESETS:
                raise ConfigError(f"unknown backbone preset {self.backbone!r}")
            self.backbone = PRESETS[self.backbone]
        bb, gen, layers = self.backbone, self.data.generator, self.analysis.layers
        if layers is not None and not all(1 <= x <= bb.num_layers for x in layers):
            raise ConfigError(f"analysis.layers must be in 1..{bb.num_layers}, got {layers!r}")
        if self.spal_hidden is not None:  # positive and a multiple of the heads
            count_spal_params(SpalConfig(self.spal_hidden), bb)
        if gen is not None and gen.vocab_size > bb.vocab_size:
            raise ConfigError(f"data.generator.vocab_size {gen.vocab_size} exceeds "
                              f"the backbone's vocab_size {bb.vocab_size}")
        if gen is not None and gen.seq_len[1] > bb.max_seq_len:
            raise ConfigError(f"data.generator.seq_len {list(gen.seq_len)} exceeds "
                              f"the backbone's max_seq_len {bb.max_seq_len}")
        if gen is not None and FIRST_CONTENT_ID <= bb.padding_token_id < gen.vocab_size:
            raise ConfigError(f"padding_token_id {bb.padding_token_id} is a data.generator "
                              f"content id ({FIRST_CONTENT_ID}..{gen.vocab_size - 1})")
        for t in self.data.jsonl or ():
            if MARKER_IDS.get(t.marker) == bb.padding_token_id:
                raise ConfigError(f"padding_token_id {bb.padding_token_id} is the id of "
                                  f"marker {t.marker!r} of data.jsonl task {t.id!r}")

    def build_data(self) -> dict[str, TaskData]:
        if self.data.generator is not None:
            return gen_synthetic_suite(self.data.generator)
        out: dict[str, TaskData] = {}
        for t in self.data.jsonl:
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
    return from_json(RunConfig, obj, "", base_dir=base_dir)


def load_run_config(path) -> RunConfig:
    return parse_run_config(read_json(path), base_dir=Path(path).parent)

"""The full multi-task model: backbone + optional SPAL stack + per-task
heads + optional contribution-probing weights."""

from __future__ import annotations

import numpy as np

from .autodiff import Param
from .backbone import Backbone, BackboneConfig, Encoding, encode, init_backbone
from .errors import ConfigError
from .spal import SpalConfig, SpalStack, attach_spals
from .tasks import Head, TaskSpec

FORWARD_CHUNK = 64  # examples per no-graph forward (evaluation, rep-gen)
GRAD_ROW_BYTES = 1 << 25  # per-row gradients held by one task-embedding backward


class ProbeWeights:
    """Per-layer scalar pair (a, b); the blend weight is softmax(a, b)[0],
    computed as sigmoid(a - b). Both start at 0, i.e. w = 0.5."""

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self.params: dict[str, Param] = {}
        for i in range(num_layers):
            for nm in ("a", "b"):
                name = f"probe.layer{i}.{nm}"
                self.params[name] = Param(np.zeros(()), name=name)

    def values(self) -> list[float]:
        """Each layer's w, with the float operations of `autodiff.blend`."""
        p = [self.params[f"probe.layer{i}.{n}"].data for i in range(self.num_layers) for n in "ab"]
        return [float(1.0 / (1.0 + np.exp(-(a - b)))) for a, b in zip(p[::2], p[1::2])]


class MtlModel:
    def __init__(self, backbone: Backbone, spals: SpalStack | None = None,
                 heads: dict[str, Head] | None = None,
                 probe: ProbeWeights | None = None):
        if probe is not None and spals is None:
            raise ConfigError("contribution probing requires SPALs")
        self.backbone = backbone
        self.spals = spals
        self.heads = heads or {}
        self.probe = probe

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, backbone_config: BackboneConfig, task_specs: list[TaskSpec],
              spal_hidden: int | None, seed: int, freeze_backbone: bool = True,
              probe: bool = False) -> "MtlModel":
        backbone = init_backbone(backbone_config, seed)
        backbone.set_trainable(not freeze_backbone)
        return cls.around(backbone, task_specs, spal_hidden, seed, probe)

    @classmethod
    def around(cls, backbone: Backbone, task_specs: list[TaskSpec],
               spal_hidden: int | None, seed: int, probe: bool) -> "MtlModel":
        """SPALs (seed + 1), heads (seed + 2 + i) and probe wired around `backbone`."""
        spals = None if spal_hidden is None else attach_spals(
            backbone, SpalConfig(spal_hidden), seed + 1)
        heads = {spec.id: Head(spec, backbone.config.model_dim, seed + 2 + i)
                 for i, spec in enumerate(task_specs)}
        return cls(backbone, spals, heads,
                   ProbeWeights(backbone.config.num_layers) if probe else None)

    # -- forward ------------------------------------------------------------

    def encode(self, token_ids) -> Encoding:
        """Encode right-padded [B, T] token ids."""
        return encode(token_ids, self.backbone, spals=self.spals, probe=self.probe)

    def encode_examples(self, examples: list) -> Encoding:
        """Encode the examples as one batch, each right-padded to the
        longest one; row b is examples[b]."""
        ids = np.full((len(examples), max(ex.token_ids.size for ex in examples)),
                      self.backbone.config.padding_token_id, dtype=np.int64)
        for row, ex in zip(ids, examples):
            row[:ex.token_ids.size] = ex.token_ids
        return self.encode(ids)

    # -- parameter views ----------------------------------------------------

    def trunk_params(self) -> dict[str, Param]:
        out = dict(self.backbone.params)
        if self.spals is not None:
            out.update(self.spals.params)
        if self.probe is not None:
            out.update(self.probe.params)
        return out

    def all_params(self) -> dict[str, Param]:
        out = self.trunk_params()
        for head in self.heads.values():
            out.update(head.params)
        return out

    def shared_trainable_params(self) -> list[Param]:
        """Trainable trunk params in canonical (name-sorted) order."""
        trunk = self.trunk_params()
        return [trunk[k] for k in sorted(trunk) if trunk[k].trainable]

    def zero_grads(self) -> None:
        for p in self.all_params().values():
            p.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the trainable params: all that training can change."""
        return {k: p.data.copy() for k, p in self.all_params().items() if p.trainable}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        self.backbone.prefix_store.clear()
        params = self.all_params()
        for k, arr in snap.items():
            params[k].data = arr.copy()

"""Versioned binary checkpoint container.

Layout (integers little-endian):

    4s    magic b"SPAL"
    u32   format version (2)
    u32   header length, then that many bytes of UTF-8 JSON:
          {"config": {...}, "digest": sha256-hex of the canonical config JSON,
           "tensors": [[name, [dims...], trainable], ...] in name order,
           "optimizer": null or {"step", "base_lr", "warmup_steps",
                         "total_steps", "weight_decay", "moments": [name, ...]}}
    then raw little-endian float64: each tensor in header order, then each
    named moment's m and v, shaped like its tensor; nothing after.

The header is read through `ModelConfig` and `Layout` like every JSON input.
The load allocates the backbone from `backbone_shapes` without drawing it,
then reads each tensor of the table (listed once, at the model's shape) into
place. Round trips are bit-exact. The version is checked before anything
else is read; files of any other version (v1 included) are refused.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from typing import BinaryIO

import numpy as np

from .autodiff import Param
from .backbone import Backbone, BackboneConfig, backbone_shapes
from .dataio import from_json, parse_json
from .errors import (CheckpointDigestError, CheckpointError, CheckpointFormatError,
                     CheckpointTruncatedError, CheckpointVersionError, ConfigError)
from .model import MtlModel
from .optim import OptimizerState
from .tasks import TaskSpec

MAGIC = b"SPAL"
VERSION = 2


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ModelConfig:
    """The header's "config" entry: all that rebuilding the model needs."""

    backbone: BackboneConfig
    spal_hidden: int | None
    probe: bool
    tasks: tuple[TaskSpec, ...]


@dataclass(frozen=True)
class OptimizerHeader:
    """The header's "optimizer" entry: AdamW's scalars, and the tensors
    whose moments follow the tensors' data."""

    step: int
    base_lr: float
    warmup_steps: int
    total_steps: int
    weight_decay: float
    moments: tuple[str, ...]


@dataclass(frozen=True)
class Layout:
    """The header's entries besides the config and its digest: what the
    body holds, in order."""

    tensors: tuple[tuple[str, tuple[int, ...], bool], ...]
    optimizer: OptimizerHeader | None


def model_config(model: MtlModel) -> dict:
    return asdict(ModelConfig(
        backbone=model.backbone.config,
        spal_hidden=None if model.spals is None else model.spals.config.hidden_size,
        probe=model.probe is not None,
        tasks=tuple(sorted((h.spec for h in model.heads.values()), key=lambda s: s.id))))


def _read(f: BinaryIO, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointTruncatedError(
            f"expected {n} bytes, got {len(data)}: file is truncated")
    return data


def _read_into(f: BinaryIO, arr: np.ndarray) -> np.ndarray:
    """`arr` filled in place from the next `arr.nbytes` bytes, which hold
    little-endian float64."""
    arr = arr.view("<f8")
    got = f.readinto(arr)
    if got != arr.nbytes:
        raise CheckpointTruncatedError(
            f"expected {arr.nbytes} bytes, got {got}: file is truncated")
    return arr


def save_checkpoint(model: MtlModel, path,
                    optimizer: OptimizerState | None = None) -> None:
    config = model_config(model)
    params = model.all_params()
    names = sorted(params)
    arrays = [params[name].data for name in names]
    header = {"config": config, "digest": config_digest(config),
              "tensors": [[name, list(params[name].data.shape), params[name].trainable]
                          for name in names],
              "optimizer": None}
    if optimizer is not None:
        moments = sorted(optimizer.m)
        arrays += [a for name in moments for a in (optimizer.m[name], optimizer.v[name])]
        header["optimizer"] = {
            "step": optimizer.step, "base_lr": optimizer.base_lr,
            "warmup_steps": optimizer.warmup_steps,
            "total_steps": optimizer.total_steps,
            "weight_decay": optimizer.weight_decay, "moments": moments}
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", VERSION, len(header_bytes)))
        f.write(header_bytes)
        for arr in arrays:  # written through the array's buffer: no copy
            f.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path) -> tuple[MtlModel, OptimizerState | None]:
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        magic, version, hlen = struct.unpack("<4sII", _read(f, 12))
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic bytes {magic!r}")
        if version != VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (expected {VERSION})")
        try:
            header = parse_json(_read(f, hlen))
        except ConfigError as e:
            raise CheckpointFormatError(f"unparseable header: {e}") from e
        if not isinstance(header, dict) or "config" not in header:
            raise CheckpointFormatError("checkpoint header has no 'config' entry")
        config, digest = header.pop("config"), header.pop("digest", None)
        if config_digest(config) != digest:
            raise CheckpointDigestError("stored digest does not match stored config")
        try:
            mc = from_json(ModelConfig, config, "checkpoint config")
            layout = from_json(Layout, header, "checkpoint header")
            backbone = Backbone(mc.backbone, {  # every array is filled below
                name: Param(np.empty(shape), name=name)
                for name, shape in backbone_shapes(mc.backbone).items()})
            model = MtlModel.around(backbone, list(mc.tasks), mc.spal_hidden,
                                    seed=0, probe=mc.probe)
        except ConfigError as e:
            raise CheckpointFormatError(str(e)) from e

        params = model.all_params()
        _check_table(layout.tensors, params)
        for name, _, trainable in layout.tensors:
            params[name].data = _read_into(f, params[name].data)
            params[name].trainable = trainable

        optimizer = None
        if (opt := layout.optimizer) is not None:
            optimizer = OptimizerState(
                total_steps=opt.total_steps, base_lr=opt.base_lr,
                warmup_steps=opt.warmup_steps, weight_decay=opt.weight_decay,
                step=opt.step)
            for name in opt.moments:
                if name not in params or name in optimizer.m:
                    raise CheckpointFormatError(
                        f"moment {name!r} names no stored tensor, or repeats")
                shape = params[name].data.shape
                optimizer.m[name] = _read_into(f, np.empty(shape))
                optimizer.v[name] = _read_into(f, np.empty(shape))
        if f.read(1):
            raise CheckpointFormatError("trailing bytes after the last array")
    return model, optimizer


def _check_table(tensors, params: dict) -> None:
    """The header's tensor table lists each of `params` once, at its shape."""
    seen: set[str] = set()
    for name, shape, _ in tensors:
        if name not in params:
            raise CheckpointFormatError(f"unknown tensor {name!r} in checkpoint")
        if name in seen:
            raise CheckpointFormatError(f"tensor {name!r} appears twice in checkpoint")
        seen.add(name)
        if shape != params[name].data.shape:
            raise CheckpointFormatError(
                f"tensor {name!r} shape {shape} != expected {params[name].data.shape}")
    missing = sorted(set(params) - seen)
    if missing:
        raise CheckpointFormatError(f"checkpoint lacks tensor(s) {missing}")

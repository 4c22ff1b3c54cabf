"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    4s    magic b"SPAL"
    u32   format version
    u32   header length, then that many bytes of UTF-8 JSON:
          {"config": {...}, "digest": sha256-hex of the canonical config JSON}
    u32   tensor count, then per tensor:
          u16 name length, name bytes, u8 trainable flag, u8 ndim,
          u32 dims..., raw float64 data
    u8    optimizer-state flag; if set: u64 step, f64 base_lr, u32 warmup,
          u32 total_steps, f64 weight_decay, u32 moment-pair count, then per
          pair: u16 name length, name, u8 ndim, u32 dims..., m data, v data

Round trips are bit-exact; the version is checked before any tensor bytes
are read.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from typing import BinaryIO

import numpy as np

from .backbone import BackboneConfig
from .dataio import from_json, parse_json
from .errors import (CheckpointDigestError, CheckpointFormatError,
                     CheckpointTruncatedError, CheckpointVersionError, ConfigError)
from .model import MtlModel
from .optim import OptimizerState
from .tasks import TaskSpec

MAGIC = b"SPAL"
VERSION = 1


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


def _read_name(f: BinaryIO) -> str:
    try:
        return _read(f, struct.unpack("<H", _read(f, 2))[0]).decode()
    except UnicodeDecodeError as e:
        raise CheckpointFormatError(f"tensor name is not UTF-8: {e}") from e


def _write_array(f: BinaryIO, arr: np.ndarray) -> None:
    f.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<I", d))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(f: BinaryIO) -> np.ndarray:
    (ndim,) = struct.unpack("<B", _read(f, 1))
    shape = tuple(struct.unpack("<I", _read(f, 4))[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    raw = _read(f, count * 8)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def save_checkpoint(model: MtlModel, path,
                    optimizer: OptimizerState | None = None) -> None:
    config = model_config(model)
    header = {"config": config, "digest": config_digest(config)}
    header_bytes = json.dumps(header, sort_keys=True).encode()
    params = model.all_params()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        f.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            p = params[name]
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", 1 if p.trainable else 0))
            _write_array(f, p.data)
        if optimizer is None:
            f.write(struct.pack("<B", 0))
        else:
            f.write(struct.pack("<B", 1))
            f.write(struct.pack("<Q", optimizer.step))
            f.write(struct.pack("<d", optimizer.base_lr))
            f.write(struct.pack("<I", optimizer.warmup_steps))
            f.write(struct.pack("<I", optimizer.total_steps))
            f.write(struct.pack("<d", optimizer.weight_decay))
            names = sorted(optimizer.m)
            f.write(struct.pack("<I", len(names)))
            for name in names:
                nb = name.encode()
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                _write_array(f, optimizer.m[name])
                _write_array(f, optimizer.v[name])


def load_checkpoint(path) -> tuple[MtlModel, OptimizerState | None]:
    with open(path, "rb") as f:
        magic = _read(f, 4)
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic bytes {magic!r}")
        (version,) = struct.unpack("<I", _read(f, 4))
        if version != VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (expected {VERSION})")
        (hlen,) = struct.unpack("<I", _read(f, 4))
        try:
            header = parse_json(_read(f, hlen))
        except ConfigError as e:
            raise CheckpointFormatError(f"unparseable header: {e}") from e
        if not isinstance(header, dict) or "config" not in header:
            raise CheckpointFormatError("checkpoint header has no 'config' entry")
        config = header["config"]
        if config_digest(config) != header.get("digest"):
            raise CheckpointDigestError("stored digest does not match stored config")

        model = _build_from_config(config)
        params = model.all_params()
        seen: set[str] = set()
        (n_tensors,) = struct.unpack("<I", _read(f, 4))
        for _ in range(n_tensors):
            name = _read_name(f)
            (trainable,) = struct.unpack("<B", _read(f, 1))
            arr = _read_array(f)
            if name not in params:
                raise CheckpointFormatError(f"unknown tensor {name!r} in checkpoint")
            if name in seen:
                raise CheckpointFormatError(f"tensor {name!r} appears twice in checkpoint")
            seen.add(name)
            p = params[name]
            if p.data.shape != arr.shape:
                raise CheckpointFormatError(
                    f"tensor {name!r} shape {arr.shape} != expected {p.data.shape}")
            p.data = arr
            p.trainable = bool(trainable)
        missing = sorted(set(params) - seen)
        if missing:
            raise CheckpointFormatError(f"checkpoint lacks tensor(s) {missing}")

        (has_opt,) = struct.unpack("<B", _read(f, 1))
        optimizer = None
        if has_opt:
            (step,) = struct.unpack("<Q", _read(f, 8))
            (base_lr,) = struct.unpack("<d", _read(f, 8))
            (warmup,) = struct.unpack("<I", _read(f, 4))
            (total,) = struct.unpack("<I", _read(f, 4))
            (wd,) = struct.unpack("<d", _read(f, 8))
            optimizer = OptimizerState(
                total_steps=total, base_lr=base_lr, warmup_steps=warmup,
                weight_decay=wd, step=step)
            (n_pairs,) = struct.unpack("<I", _read(f, 4))
            for _ in range(n_pairs):
                name = _read_name(f)
                optimizer.m[name] = _read_array(f)
                optimizer.v[name] = _read_array(f)
    return model, optimizer


def _build_from_config(config: dict) -> MtlModel:
    try:
        mc = from_json(ModelConfig, config, "checkpoint config")
        return MtlModel.build(mc.backbone, list(mc.tasks), spal_hidden=mc.spal_hidden,
                              seed=0, freeze_backbone=False, probe=mc.probe)
    except ConfigError as e:
        raise CheckpointFormatError(str(e)) from e

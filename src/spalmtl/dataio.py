"""Strict JSON input, and dataset JSONL ingestion and emission.

Every JSON input (run configs, generator specs, checkpoint headers, dataset
lines) is parsed by `parse_json`, which rejects non-finite numbers, and read
through a dataclass by `from_json`. A dataset file holds one object per line:
{"tokens": [...], "label": ...} plus optional "target_span", "spans" and
"latent" (generator provenance). Each line's ids, markers included, pass
`backbone.check_token_ids`, as every batch does before `encode`. Bad lines
are reported as `path:line`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import types
import typing
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, check_token_ids
from .errors import ConfigError, DataError, SpalMtlError
from .tasks import TaskExample, TaskSpec, insert_target_markers, validate_example

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)  # once per dataclass, not per line


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


def parse_json(text: str | bytes):
    """JSON text parsed strictly: NaN, ±Infinity and literals that overflow
    a float (1e400) are errors, as they are on output."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as e:  # also JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"invalid JSON: {e}") from e


def read_json(path):
    try:
        return parse_json(Path(path).read_bytes())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def check_keys(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def read_value(value, hint, where: str):
    """`value` checked against the annotation `hint`. No number is converted:
    JSON lists become tuples where the hint is a tuple, and objects become
    the dataclass the hint names."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None, or a dataclass | str
        if value is None and type(None) in args:
            return None
        hint, *alt = [a for a in args if a is not type(None)]
        if alt == [str] and type(value) is str:  # a name in place of the object
            hint = str
        return read_value(value, hint, where)
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, where)
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            size = f" of {len(args)} items" if fixed else ""
            raise ConfigError(f"{where} must be a list{size}, got {value!r}")
        items = [read_value(v, args[i] if fixed else args[0], f"{where}[{i}]")
                 for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if type(value) is hint or (hint is float and type(value) is int):
        return value
    raise ConfigError(f"{where} must be {_TYPE_NAMES[hint]}, got {value!r}")


def from_json(cls, obj, where: str, **given):
    """The dataclass `cls` built from the JSON object `obj`, which holds
    exactly the fields of `cls` other than those in `given`, each at its
    annotated type. `where` names `obj` in error messages. An empty `where`
    marks a whole document (a run config, a dataset line): its fields are
    named bare, and the document after its class (`RunConfig`: "run config")."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    name = where or " ".join(re.findall("[A-Z][a-z]*", cls.__name__)).lower()
    check_keys(obj, [f.name for f in fields], name)
    missing = [f.name for f in fields if f.name not in obj
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{name} needs {missing}")
    hints, prefix = _type_hints(cls), f"{where}." if where else ""
    return cls(**{f.name: read_value(obj[f.name], hints[f.name], prefix + f.name)
                  for f in fields if f.name in obj}, **given)


# A dataset line, with the label's type picked by the task kind.
_LINES = {kind: dataclasses.make_dataclass("Line", [
    ("tokens", list[int]), ("label", label),
    ("target_span", tuple[int, int] | None, None),
    ("spans", list[tuple[int, int, int]] | None, None),
    ("latent", list[float] | None, None)])
    for kind, label in (("seq_regression", float), ("seq_classification", int),
                        ("token_classification", list[int]))}


def load_jsonl_dataset(path, spec: TaskSpec, backbone: BackboneConfig,
                       marker_kind: str | None = None) -> list[TaskExample]:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read dataset file {path}: {e}") from e
    examples: list[TaskExample] = []
    for lineno, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            line = from_json(_LINES[spec.kind], parse_json(text), "")
            latent = None if line.latent is None else np.array(line.latent, dtype=np.float64)
            ex = TaskExample(line.tokens, line.label, line.target_span, line.spans, latent)
            if marker_kind is not None and ex.target_span is not None:
                ex.token_ids = insert_target_markers(
                    ex.token_ids, ex.target_span, marker_kind)
            check_token_ids(ex.token_ids[None], backbone)
            examples.append(validate_example(spec, ex))
        except (SpalMtlError, OverflowError) as e:  # an id beyond int64
            raise DataError(f"{path}:{lineno}: {e}") from e
    return examples


def save_jsonl_dataset(path, examples: list[TaskExample]) -> None:
    with open(path, "w") as f:
        for ex in examples:
            obj = {"tokens": [int(t) for t in ex.token_ids]}
            if isinstance(ex.label, np.ndarray):
                obj["label"] = [int(t) for t in ex.label]
            else:
                obj["label"] = ex.label
            if ex.target_span is not None:
                obj["target_span"] = list(ex.target_span)
            if ex.spans is not None:
                obj["spans"] = [list(s) for s in ex.spans]
            if ex.latent is not None:
                obj["latent"] = [float(v) for v in ex.latent]
            f.write(json.dumps(obj) + "\n")

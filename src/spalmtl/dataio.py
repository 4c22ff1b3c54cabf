"""Dataset JSONL ingestion and emission.

One JSON object per line: {"tokens": [...], "label": ...} plus optional
"spans", "target_span" and "latent" (generator provenance). Malformed lines
are reported with their line number.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .tasks import TaskExample, TaskSpec, insert_target_markers, validate_example

_ALLOWED_KEYS = {"tokens", "label", "spans", "target_span", "latent"}


def _array(value, key: str, dtype=np.int64) -> np.ndarray:
    """A JSON list of integers (of numbers for float64) as an array. Nothing
    is converted, so 5.7 is an error, not token 5."""
    types = (int,) if dtype is np.int64 else (int, float)
    if not isinstance(value, list) or not all(type(v) in types for v in value):
        what = "integers" if dtype is np.int64 else "numbers"
        raise DataError(f"'{key}' must be a list of {what}, got {value!r}")
    return np.array(value, dtype=dtype)


def load_jsonl_dataset(path, spec: TaskSpec,
                       marker_kind: str | None = None) -> list[TaskExample]:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise DataError(f"cannot read dataset file {path}: {e}") from e
    examples: list[TaskExample] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from e
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        unknown = set(obj) - _ALLOWED_KEYS
        if unknown:
            raise DataError(f"{path}:{lineno}: unknown keys {sorted(unknown)}")
        if "tokens" not in obj or "label" not in obj:
            raise DataError(f"{path}:{lineno}: missing required 'tokens'/'label'")
        label, regression = obj["label"], spec.kind == "seq_regression"
        try:
            if spec.kind == "token_classification":
                label = _array(label, "label")
            elif type(label) not in ((int, float) if regression else (int,)):
                want = "a number" if regression else "an integer class"
                raise DataError(f"'label' must be {want}, got {label!r}")
            ex = TaskExample(
                token_ids=_array(obj["tokens"], "tokens"), label=label,
                target_span=tuple(obj["target_span"]) if obj.get("target_span") else None,
                spans=[tuple(s) for s in obj["spans"]] if obj.get("spans") else None,
                latent=_array(obj["latent"], "latent", np.float64)
                if obj.get("latent") is not None else None)
            if not ex.token_ids.size:
                raise DataError("'tokens' is empty")
            if marker_kind is not None and ex.target_span is not None:
                ex.token_ids = insert_target_markers(
                    ex.token_ids, ex.target_span, marker_kind)
            ex = validate_example(spec, ex)
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        examples.append(ex)
    return examples


def save_jsonl_dataset(path, examples: list[TaskExample]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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

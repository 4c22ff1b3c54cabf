"""Metrics emission: run.json plus self-describing CSV artifacts.

run.json is byte-identical across invocations of the same (config, seed);
nothing time-dependent is written here.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .analysis import SimilarityMatrix
from .engine import RunRecord
from .errors import SpalMtlError


def _fmt(x: float) -> str:
    if np.isnan(x):
        return "nan"
    return repr(float(x))


def _write_json(obj: dict, path: Path) -> Path:
    """Strict JSON: a NaN or infinity is an error, not a bare token."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as e:
        raise SpalMtlError(f"{path.name}: {e}") from e
    path.write_text(text + "\n")
    return path


def write_run_json(record: RunRecord, outdir: Path) -> Path:
    return _write_json(record.to_dict(), outdir / "run.json")


def _write_csv(path: Path, header: list, rows) -> Path:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path


def write_repgen_csv(curves: list[tuple[int, int, float]], outdir: Path) -> Path:
    """Rows of (step, layer, G)."""
    return _write_csv(outdir / "repgen.csv", ["step", "layer", "G"],
                      ([step, layer, _fmt(g)] for step, layer, g in curves))


def write_matrix_csv(sim: SimilarityMatrix, path: Path) -> Path:
    return _write_csv(path, ["task"] + sim.labels,
                      ([label] + [_fmt(v) for v in sim.matrix[i]]
                       for i, label in enumerate(sim.labels)))


def write_gradsim_csvs(matrices: dict[int, SimilarityMatrix], outdir: Path) -> list[Path]:
    return [write_matrix_csv(m, outdir / f"gradsim_step{step}.csv")
            for step, m in sorted(matrices.items())]


def write_probe_csv(weights: list[float], outdir: Path) -> Path:
    return _write_csv(outdir / "probe.csv", ["layer", "w"],
                      ([i, _fmt(w)] for i, w in enumerate(weights, start=1)))


def write_embeddings_csv(task_sim: SimilarityMatrix | None,
                         text_sim: SimilarityMatrix | None, outdir: Path) -> Path:
    """Long-form cosine similarities for task and text embeddings."""
    return _write_csv(outdir / "embeddings.csv", ["kind", "task_a", "task_b", "cosine"],
                      ([kind, a, b, _fmt(sim.matrix[i, j])]
                       for kind, sim in (("task", task_sim), ("text", text_sim))
                       if sim is not None
                       for i, a in enumerate(sim.labels)
                       for j, b in enumerate(sim.labels)))


def write_aggregate_json(aggregate, outdir: Path) -> Path:
    return _write_json(aggregate.to_dict(), outdir / "aggregate.json")


def emit_metrics(record: RunRecord, outdir,
                 repgen: list[tuple[int, int, float]] | None = None,
                 gradsim: dict[int, SimilarityMatrix] | None = None,
                 probe: list[float] | None = None,
                 task_sim: SimilarityMatrix | None = None,
                 text_sim: SimilarityMatrix | None = None) -> None:
    outdir = Path(outdir)
    write_run_json(record, outdir)
    if repgen is not None:
        write_repgen_csv(repgen, outdir)
    if gradsim is not None:
        write_gradsim_csvs(gradsim, outdir)
    if probe is not None:
        write_probe_csv(probe, outdir)
    if task_sim is not None or text_sim is not None:
        write_embeddings_csv(task_sim, text_sim, outdir)

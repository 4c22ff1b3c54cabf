"""Metrics artifacts: stable run.json, CSV emission and parse-back."""

import numpy as np

from spalmtl.analysis import SimilarityMatrix
from spalmtl.engine import RunRecord
from spalmtl.reporting import (emit_metrics, write_matrix_csv,
                               write_repgen_csv, write_run_json)

from conftest import read_matrix_csv


def _record():
    return RunRecord(seed=1, task_ids=["a", "b"], plan_fingerprint={"epochs": 1},
                     losses=[(1, "a", 0.5)], evals=[(5, {"a": 80.0, "b": 0.1})],
                     best={"a": {"step": 5, "score": 80.0,
                                 "checkpoint_id": "a-step5"}},
                     total_steps=5)


def test_run_json_byte_identical(tmp_path):
    p1 = write_run_json(_record(), tmp_path)
    first = p1.read_bytes()
    p2 = write_run_json(_record(), tmp_path)
    assert p2.read_bytes() == first


def test_run_json_has_no_timestamps(tmp_path):
    text = write_run_json(_record(), tmp_path).read_text()
    assert "time" not in text.lower()
    assert "date" not in text.lower()


def test_matrix_csv_parse_back(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    sim = SimilarityMatrix(labels=["a", "b", "c"], matrix=m, missing=[])
    path = write_matrix_csv(sim, tmp_path / "m.csv")
    back = read_matrix_csv(path)
    assert back.labels == sim.labels
    assert np.max(np.abs(back.matrix - m)) < 1e-9


def test_matrix_csv_preserves_nan(tmp_path):
    m = np.array([[1.0, np.nan], [np.nan, 1.0]])
    sim = SimilarityMatrix(labels=["a", "b"], matrix=m, missing=[("a", "b")])
    back = read_matrix_csv(write_matrix_csv(sim, tmp_path / "m.csv"))
    assert np.isnan(back.matrix[0, 1])
    assert back.matrix[0, 0] == 1.0


def test_emitted_gradsim_symmetric(tmp_path):
    m = np.array([[1.0, 0.3], [0.3, 1.0]])
    sim = SimilarityMatrix(labels=["a", "b"], matrix=m, missing=[])
    emit_metrics(_record(), tmp_path, gradsim={2000: sim})
    back = read_matrix_csv(tmp_path / "gradsim_step2000.csv")
    assert np.array_equal(back.matrix, back.matrix.T)


def test_repgen_csv_rows(tmp_path):
    path = write_repgen_csv([(0, 1, 0.5), (0, 2, 0.75)], tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,layer,G"
    assert lines[1] == "0,1,0.5"
    assert len(lines) == 3


def test_emit_metrics_writes_requested_artifacts(tmp_path):
    sim = SimilarityMatrix(labels=["a"], matrix=np.array([[1.0]]), missing=[])
    emit_metrics(_record(), tmp_path, repgen=[(0, 1, 0.1)], gradsim={0: sim},
                 probe=[0.5, 0.6], task_sim=sim, text_sim=sim)
    for name in ("run.json", "repgen.csv", "gradsim_step0.csv", "probe.csv",
                 "embeddings.csv"):
        assert (tmp_path / name).exists(), name
    probe_lines = (tmp_path / "probe.csv").read_text().strip().splitlines()
    assert probe_lines[0] == "layer,w"
    assert probe_lines[1].startswith("1,")

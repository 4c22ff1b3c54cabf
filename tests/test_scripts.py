"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_positive_transfer(capsys):
    assert _script("run_positive_transfer").main(["--seeds", "1", "--epochs", "1"]) == 0
    out = capsys.readouterr().out
    assert "seed 1: joint" in out and "mean single" in out


def test_capacity_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert _script("run_capacity_sweep").main(
        ["--out", str(out), "--hidden", "4", "--seeds", "1-2", "--epochs", "1",
         "--scale", "0.05"]) == 0
    assert json.loads((out / "config.json").read_text())["plan"]["epochs"] == 1
    agg = json.loads((out / "h4" / "aggregate.json").read_text())
    assert agg["seeds"] == [1, 2]
    assert (out / "h4" / "seed2" / "repgen.csv").exists()


def test_diagnostics(tmp_path, capsys):
    out = tmp_path / "diag"
    assert _script("run_diagnostics").main(["--out", str(out), "--epochs", "1"]) == 0
    assert json.loads((out / "config.json").read_text())["plan"]["epochs"] == 1
    for name in ("run.json", "repgen.csv", "probe.csv", "embeddings.csv",
                 "ckpt_final.spal"):
        assert (out / name).exists(), name
    assert "artifacts:" in capsys.readouterr().out

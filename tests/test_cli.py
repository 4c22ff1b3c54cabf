"""Command-line surface and strict run-config parsing."""

import json
import struct

import numpy as np
import pytest

from spalmtl.checkpoint import load_checkpoint
from spalmtl.cli import main
from spalmtl.engine import run_training
from spalmtl.errors import ConfigError
from spalmtl.reporting import read_matrix_csv
from spalmtl.runcfg import load_run_config, parse_run_config

BACKBONE = {"num_layers": 2, "model_dim": 8, "num_heads": 2, "ff_dim": 16,
            "vocab_size": 128, "max_seq_len": 16}

GENERATOR = {
    "tasks": [
        {"id": "alpha", "kind": "seq_classification", "sizes": [16, 6, 6],
         "num_classes": 2, "batch_size": 4},
        {"id": "beta", "kind": "seq_classification", "sizes": [16, 6, 6],
         "num_classes": 2, "batch_size": 4},
    ],
    "vocab_size": 96, "seq_len": [6, 8], "latent_dim": 3, "bins": 6, "seed": 0,
}


def _config(**overrides):
    cfg = {
        "backbone": dict(BACKBONE),
        "spal_hidden": 4,
        "plan": {"epochs": 1, "eval_interval": 5, "seed": 1},
        "data": {"generator": json.loads(json.dumps(GENERATOR))},
    }
    cfg.update(overrides)
    return cfg


def _generator(task=True, **fields):
    """A data section whose generator (or its first task) has these fields."""
    gen = json.loads(json.dumps(GENERATOR))
    (gen["tasks"][0] if task else gen).update(fields)
    return {"data": {"generator": gen}}


def _jsonl_without(key):
    task = {"id": "j", "kind": "seq_classification", "metric": "accuracy",
            "num_classes": 2}
    del task[key]
    return {"data": {"jsonl": [task]}}


def _write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_config(**overrides)))
    return path


# -- config parsing ----------------------------------------------------------

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="typo"):
        parse_run_config(_config(typo=1))


def test_unknown_plan_key_rejected():
    cfg = _config()
    cfg["plan"]["learning_rate"] = 1e-3
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_run_config(cfg)


def test_unknown_generator_task_key_rejected():
    cfg = _config()
    cfg["data"]["generator"]["tasks"][0]["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        parse_run_config(cfg)


def test_unknown_analysis_key_rejected():
    with pytest.raises(ConfigError, match="cadence_typo"):
        parse_run_config(_config(analysis={"cadence_typo": 5}))


def test_backbone_preset_by_name():
    cfg = parse_run_config(_config(backbone="toy"))
    assert cfg.backbone.model_dim == 32
    with pytest.raises(ConfigError, match="preset"):
        parse_run_config(_config(backbone="huge"))


def test_data_section_required():
    cfg = _config()
    del cfg["data"]
    with pytest.raises(ConfigError, match="data"):
        parse_run_config(cfg)


def test_jsonl_tasks_resolve_relative_to_config(tmp_path):
    (tmp_path / "train.jsonl").write_text('{"tokens": [4, 5], "label": 1}\n')
    cfg = _config()
    cfg["data"] = {"jsonl": [{"id": "j", "kind": "seq_classification",
                              "metric": "accuracy", "num_classes": 2,
                              "train": "train.jsonl"}]}
    path = _write_config(tmp_path)
    path.write_text(json.dumps(cfg))
    from spalmtl.runcfg import load_run_config
    data = load_run_config(path).build_data()
    assert len(data["j"].train) == 1


# -- subcommands -------------------------------------------------------------

def test_gen_data_writes_jsonl(tmp_path, capsys):
    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps(GENERATOR))
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(spec), "--out", str(out)]) == 0
    for tid in ("alpha", "beta"):
        for split in ("train", "dev", "test"):
            assert (out / tid / f"{split}.jsonl").exists()
    assert "alpha: train=16" in capsys.readouterr().out


def test_train_emits_stable_run_json(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()
    assert (out1 / "ckpt_final.spal").exists()
    record = json.loads((out1 / "run.json").read_text())
    assert set(record["best"]) == {"alpha", "beta"}


def test_train_with_analysis_artifacts(tmp_path):
    cfg = _write_config(
        tmp_path, probe=True,
        analysis={"rep_gen": True, "grad_snapshots": True, "embeddings": True,
                  "snapshot_cadence": 4, "layers": [1, 2]})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "repgen.csv").exists()
    assert (out / "probe.csv").exists()
    assert (out / "embeddings.csv").exists()
    sim = read_matrix_csv(out / "gradsim_step0.csv")
    assert sim.labels == ["alpha", "beta"]
    assert np.array_equal(sim.matrix, sim.matrix.T)
    lines = (out / "repgen.csv").read_text().strip().splitlines()
    layers_at_step0 = [l.split(",")[1] for l in lines[1:] if l.startswith("0,")]
    assert layers_at_step0 == ["1", "2"]


@pytest.mark.parametrize("freeze", [True, False])
def test_freeze_backbone_key_decides_whether_the_backbone_trains(tmp_path, freeze):
    cfg_path = _write_config(tmp_path, freeze_backbone=freeze)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["plan"]["freeze_backbone"] is freeze
    cfg = load_run_config(cfg_path)
    initial = cfg.build_model(cfg.build_data(), seed=1).all_params()
    trained = load_checkpoint(out / "ckpt_final.spal")[0].all_params()
    w = "backbone.layer0.ff.w1"
    assert trained[w].trainable is not freeze
    assert (trained[w].data.tobytes() == initial[w].data.tobytes()) is freeze


def test_best_checkpoints_saved_per_task(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    record = json.loads((out / "run.json").read_text())
    for tid in ("alpha", "beta"):
        ckpt = record["best"][tid]["checkpoint_id"]
        assert (out / f"ckpt_{ckpt}.spal").exists()


def test_best_checkpoint_holds_params_after_its_step(tmp_path):
    cfg_path = _write_config(tmp_path, plan={"epochs": 2, "eval_interval": 3, "seed": 1})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    record = json.loads((out / "run.json").read_text())
    cfg = load_run_config(cfg_path)
    data = cfg.build_data()
    steps = {b["step"] for b in record["best"].values()}
    assert steps != {record["total_steps"]}   # at least one best is not the final model
    for tid, best in record["best"].items():
        model = cfg.build_model(data, seed=1)
        run_training(cfg.plan, model, data, max_steps=best["step"])
        saved, _ = load_checkpoint(out / f"ckpt_{best['checkpoint_id']}.spal")
        want = model.all_params()
        for name, p in saved.all_params().items():
            assert p.data.tobytes() == want[name].data.tobytes(), (tid, name)


def test_eval_reports_scores(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg),
                 "--checkpoint", str(out / "ckpt_final.spal"),
                 "--split", "dev"]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert set(scores) == {"alpha", "beta"}


def test_unknown_config_key_is_cli_error(tmp_path, capsys):
    path = _write_config(tmp_path, typo=1)
    assert main(["train", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_integer_spal_hidden_is_cli_error(tmp_path, capsys):
    path = _write_config(tmp_path, spal_hidden="4")
    assert main(["train", "--config", str(path)]) == 1
    assert "error: spal_hidden" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,message", [
    ({"analysis": {"rep_gen": True, "layers": [0]}}, "analysis.layers"),
    ({"analysis": {"rep_gen": True, "layers": [9]}}, "analysis.layers"),
    ({"analysis": {"rep_gen": True, "snapshot_cadence": 0}}, "analysis.snapshot_cadence"),
    ({"plan": {"epochs": "1", "eval_interval": 5, "seed": 1}}, "plan.epochs"),
    ({"plan": {"epochs": 1, "seed": -1}}, "seed must be non-negative"),
    ({"plan": {"epochs": 1, "warmup_steps": -5}}, "warmup_steps must be non-negative"),
    ({"plan": {"epochs": 1, "base_lr": -1e-3}}, "base_lr must be non-negative"),
    ({"plan": {"epochs": 1, "weight_decay": -0.01}}, "weight_decay must be non-negative"),
    (_generator(sizes=[8, 4]), "data.generator.tasks[0].sizes"),
    (_generator(sizes=[8, 4, 4.0]), "data.generator.tasks[0].sizes"),
    (_generator(relatedness="x"), "data.generator.tasks[0].relatedness"),
    (_generator(batch_size="4"), "data.generator.tasks[0].batch_size"),
    (_generator(num_classes=2.0), "data.generator.tasks[0].num_classes"),
    (_generator(seq_len=[8], task=False), "data.generator.seq_len"),
    (_generator(vocab_size="96", task=False), "data.generator.vocab_size"),
    (_generator(latent_dim=3.0, task=False), "data.generator.latent_dim"),
    (_generator(bins="6", task=False), "data.generator.bins"),
    (_generator(seed="0", task=False), "data.generator.seed"),
    (_generator(seed=-3, task=False), "generator seed must be non-negative"),
    ({"backbone": dict(BACKBONE, num_layers="2")}, "backbone.num_layers"),
    (_jsonl_without("id"), "data.jsonl[0] needs ['id']"),
    (_jsonl_without("kind"), "data.jsonl[0] needs ['kind']"),
    (_jsonl_without("metric"), "data.jsonl[0] needs ['metric']"),
], ids=["layer0", "layer9", "cadence0", "epochs_str", "seed_negative",
        "warmup_negative", "lr_negative", "decay_negative", "sizes_short",
        "sizes_float", "relatedness_str", "batch_size_str", "num_classes_float",
        "seq_len_short", "vocab_size_str", "latent_dim_float", "bins_str",
        "gen_seed_str", "gen_seed_negative", "backbone_str", "jsonl_no_id",
        "jsonl_no_kind", "jsonl_no_metric"])
def test_invalid_run_config_is_cli_error(tmp_path, capsys, overrides, message):
    path = _write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_negative_seed_flag_is_cli_error(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["train", "--config", str(path), "--seed", "-2"]) == 1
    assert "error: seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--hidden", "x"), ("--seeds", "5-1")])
def test_bad_sweep_list_is_cli_error(tmp_path, capsys, flag, value):
    cfg = _write_config(tmp_path)
    assert main(["sweep-capacity", "--config", str(cfg), flag, value,
                 "--out", str(tmp_path / "sweep")]) == 1
    assert f"error: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_capacity_emits_aggregates(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep-capacity", "--config", str(cfg), "--hidden", "2,4",
                 "--seeds", "1-2", "--out", str(out)]) == 0
    for h in (2, 4):
        assert (out / f"h{h}" / "aggregate.json").exists()
        for seed in (1, 2):
            assert (out / f"h{h}" / f"seed{seed}" / "run.json").exists()
        agg = json.loads((out / f"h{h}" / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2]
        assert set(agg["per_task"]) == {"alpha", "beta"}


def test_ablate_tasks_runs_cumulative_stages(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "ablate"
    assert main(["ablate-tasks", "--config", str(cfg), "--order", "alpha",
                 "--out", str(out)]) == 0
    stages = sorted(p.name for p in out.iterdir())
    assert stages == ["stage0_alpha-beta", "stage1_beta"]


def test_transfer_finetunes_from_checkpoint(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["transfer", "--config", str(cfg),
                 "--checkpoint", str(out / "ckpt_final.spal"),
                 "--task", "alpha", "--shots", "8,4", "--epochs", "1"]) == 0
    assert "alpha: best" in capsys.readouterr().out


def test_malformed_shots_is_cli_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    for shots in ("4", "4,x", "4,4,4"):
        assert main(["transfer", "--config", str(cfg),
                     "--checkpoint", str(out / "ckpt_final.spal"),
                     "--task", "alpha", "--shots", shots]) == 1
        assert "error: --shots" in capsys.readouterr().err


def test_analyze_from_checkpoint(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    adir = tmp_path / "analysis"
    assert main(["analyze", "--config", str(cfg),
                 "--checkpoint", str(out / "ckpt_final.spal"),
                 "--out", str(adir)]) == 0
    assert (adir / "repgen.csv").exists()
    assert (adir / "gradsim_step0.csv").exists()
    assert (adir / "embeddings.csv").exists()


def test_plan_mode_is_an_unknown_key():
    cfg = _config()
    cfg["plan"]["mode"] = "stl"
    with pytest.raises(ConfigError, match="unknown keys \\['mode'\\] in plan"):
        parse_run_config(cfg)


def test_eval_with_checkpoint_missing_a_config_task_is_cli_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    other = _config()
    other["data"]["generator"]["tasks"][1]["id"] = "gamma"
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    capsys.readouterr()
    assert main(["eval", "--config", str(other_path),
                 "--checkpoint", str(out / "ckpt_final.spal")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint") and "['gamma']" in err


def test_checkpoint_header_without_config_is_cli_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    path = out / "ckpt_final.spal"
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    del header["config"]
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(path)]) == 1
    assert "error: checkpoint header has no 'config' entry" in capsys.readouterr().err

"""Command-line surface and strict run-config parsing."""

import argparse
import json
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from spalmtl.backbone import TOY, BackboneConfig
from spalmtl.checkpoint import config_digest, load_checkpoint
from spalmtl.cli import _parse_int_list, build_parser, main
from spalmtl.dataio import read_json
from spalmtl.engine import TrainPlan, run_training
from spalmtl.errors import ConfigError
from spalmtl.runcfg import load_run_config, parse_run_config
from spalmtl.synthdata import GeneratorSpec, SynthTaskSpec, findata_shaped_suite

from conftest import read_matrix_csv

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

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


JSONL_TASK = {"id": "j", "kind": "seq_classification", "metric": "accuracy",
              "num_classes": 2}


def _jsonl(task):
    return {"data": {"jsonl": [task]}}


def _jsonl_without(key):
    return _jsonl({k: v for k, v in JSONL_TASK.items() if k != key})


def _write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_config(**overrides)))
    return path


# -- config parsing ----------------------------------------------------------

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="typo"):
        parse_run_config(_config(typo=1))


def test_criterion3_config_is_the_findata_shaped_suite():
    path = CONFIGS / "criterion3_toy.json"
    cfg = parse_run_config(read_json(path), base_dir=path.parent)
    assert cfg.data.generator == findata_shaped_suite(seed=0)
    assert (cfg.backbone, cfg.spal_hidden, cfg.plan.epochs, cfg.plan.seed) == (TOY, 4, 11, 1)


def test_findata_config_is_the_scanned_plan_on_the_findata_shaped_suite():
    """The learning-rate scan's choice (ROADMAP item 1): the largest base_lr
    at which no cell collapsed, with a warmup of about 5% of the run."""
    cfg = load_run_config(CONFIGS / "findata_toy.json")
    assert cfg.data.generator == findata_shaped_suite(seed=0)
    assert (cfg.backbone, cfg.spal_hidden, cfg.probe) == (TOY, 16, False)
    assert cfg.plan == TrainPlan(epochs=11, seed=1, base_lr=3e-3, warmup_steps=50)


@pytest.mark.parametrize("name,plan", [
    ("capacity_sweep_toy.json",
     TrainPlan(epochs=20, eval_interval=20, seed=1, base_lr=3e-3, warmup_steps=15)),
    ("diagnostics_toy.json",
     TrainPlan(epochs=15, eval_interval=10, seed=1, base_lr=1e-2, warmup_steps=12)),
], ids=["capacity_sweep", "diagnostics"])
def test_short_toy_config_plan_is_the_scanned_plan(name, plan):
    """ROADMAP item 1: the largest scanned base_lr at which no cell diverged,
    a warmup of about 5% and a run long enough to train."""
    assert load_run_config(CONFIGS / name).plan == plan


def test_positive_transfer_config_is_criterion_10s_setup():
    cfg = load_run_config(CONFIGS / "positive_transfer_toy.json")
    assert cfg.backbone == BackboneConfig(num_layers=2, model_dim=16, num_heads=2, ff_dim=32,
                                          vocab_size=128, max_seq_len=16)
    assert (cfg.spal_hidden, cfg.probe) == (8, False)
    assert cfg.plan == TrainPlan(epochs=40, eval_interval=16, seed=1, base_lr=1e-2,
                                 warmup_steps=20)
    tasks = tuple(SynthTaskSpec(t, "seq_classification", (64, 32, 32), 1.0,
                                num_classes=2, batch_size=8) for t in ("alpha", "beta"))
    assert cfg.data.generator == GeneratorSpec(tasks=tasks, vocab_size=96, seq_len=(6, 8),
                                               latent_dim=3, bins=6, seed=0)


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


def test_readme_minimal_config_parses():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("A minimal config:\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_run_config(json.loads(block))
    assert cfg.spal_hidden == 12 and cfg.analysis.rep_gen
    assert sorted(cfg.build_data()) == ["a", "b"]


def test_readme_cli_block_names_every_subcommand():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("spalmtl ")]
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert named == list(sub.choices)


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
    cfg_path = _write_config(tmp_path, plan={"epochs": 1, "eval_interval": 5, "seed": 1,
                                             "freeze_backbone": freeze})
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
    ({"analysis": {"rep_gen": True, "layers": []}}, "analysis.layers must name at least one"),
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
    (_generator(tasks=[1], task=False), "data.generator.tasks[0] must be an object"),
    (_generator(kind="seq_ranking"), "unknown task kind 'seq_ranking'"),
    (_jsonl(1), "data.jsonl[0] must be an object"),
    (_jsonl(dict(JSONL_TASK, batch_size="4")), "data.jsonl[0].batch_size"),
    (_jsonl(dict(JSONL_TASK, num_classes="2")), "data.jsonl[0].num_classes"),
    (_jsonl(dict(JSONL_TASK, train=1)), "data.jsonl[0].train"),
    ({"analysis": {"rep_gen": 1}}, "analysis.rep_gen"),
    ({"out_dir": 3}, "out_dir"),
    ({"analysis": {"rep_gen": True, "layers": [True]}}, "analysis.layers"),
    ({"spal_hidden": 0}, "spal_hidden must be positive, got 0"),
    ({"spal_hidden": -1}, "spal_hidden must be positive, got -1"),
    ({"spal_hidden": 3}, "spal_hidden 3 not divisible by the backbone's num_heads 2"),
    ({"data": {"generator": GENERATOR, "jsonl": [JSONL_TASK]}},
     "data takes 'generator' or 'jsonl', not both"),
    (_generator(vocab_size=200, task=False),
     "data.generator.vocab_size 200 exceeds the backbone's vocab_size 128"),
    (_generator(seq_len=[6, 20], task=False),
     "data.generator.seq_len [6, 20] exceeds the backbone's max_seq_len 16"),
    ({"backbone": dict(BACKBONE, padding_token_id=7)},
     "padding_token_id 7 is a data.generator content id (4..95)"),
    (dict(_jsonl(dict(JSONL_TASK, marker="company")),
          backbone=dict(BACKBONE, padding_token_id=2)),
     "padding_token_id 2 is the id of marker 'company' of data.jsonl task 'j'"),
    (_jsonl(dict(JSONL_TASK, marker="compnay")),
     "data.jsonl task 'j' has unknown marker 'compnay', not one of ['company', 'number']"),
    ({"freeze_backbone": False}, "unknown keys ['freeze_backbone'] in run config"),
], ids=["layer0", "layer9", "layers_empty", "cadence0", "epochs_str", "seed_negative",
        "warmup_negative", "lr_negative", "decay_negative", "sizes_short",
        "sizes_float", "relatedness_str", "batch_size_str", "num_classes_float",
        "seq_len_short", "vocab_size_str", "latent_dim_float", "bins_str",
        "gen_seed_str", "gen_seed_negative", "backbone_str", "jsonl_no_id",
        "jsonl_no_kind", "jsonl_no_metric", "gen_task_int",
        "gen_kind_unknown", "jsonl_task_int", "jsonl_batch_size_str",
        "jsonl_num_classes_str", "jsonl_train_int", "rep_gen_int", "out_dir_int",
        "layers_bool", "spal_hidden_0", "spal_hidden_negative",
        "spal_hidden_indivisible", "data_both", "gen_vocab_above_backbone",
        "gen_seq_len_above_backbone", "gen_content_holds_padding_id",
        "jsonl_marker_is_padding_id", "jsonl_marker_unknown",
        "freeze_backbone_top_level"])
def test_invalid_run_config_is_cli_error(tmp_path, capsys, overrides, message):
    path = _write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ('{"tasks": [', "invalid JSON"),
    (None, "cannot read config"),
    (json.dumps(dict(GENERATOR, seed="0")), "generator.seed must be an integer"),
], ids=["truncated", "missing", "seed_str"])
def test_bad_generator_spec_is_cli_error(tmp_path, capsys, text, message):
    spec = tmp_path / "gen.json"
    if text is not None:
        spec.write_text(text)
    assert main(["gen-data", "--config", str(spec), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "data").exists()


def test_negative_seed_flag_is_cli_error(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["train", "--config", str(path), "--seed", "-2"]) == 1
    assert "error: seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--hidden", "x"), ("--seeds", "5-1"),
    ("--seeds", "1,1"), ("--hidden", "4,4"), ("--hidden", "2-6,4"),
    ("--hidden", ""), ("--seeds", ""), ("--seeds", "1-")])
def test_bad_sweep_list_is_cli_error(tmp_path, capsys, flag, value):
    """ablate-tasks reads --seeds as sweep-capacity does."""
    cfg = _write_config(tmp_path)
    commands = [["sweep-capacity"]]
    if flag == "--seeds":
        commands.append(["ablate-tasks", "--order", "alpha"])
    for command in commands:
        assert main(command + ["--config", str(cfg), flag, value,
                               "--out", str(tmp_path / "sweep")]) == 1
        assert f"error: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


def test_sweep_zero_hidden_is_cli_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sweep-capacity", "--config", str(cfg), "--hidden", "2,0",
                 "--seeds", "1", "--out", str(tmp_path / "sweep")]) == 1
    assert "error: spal_hidden must be positive, got 0" in capsys.readouterr().err
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


def test_ablate_order_naming_a_task_twice_is_cli_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "ablate"
    assert main(["ablate-tasks", "--config", str(cfg), "--order", "alpha,alpha",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --order names task 'alpha' twice\n"
    assert not out.exists()


def _same_files(a: Path, b: Path) -> None:
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
    for p in a.iterdir():
        assert p.read_bytes() == (b / p.name).read_bytes(), p.name


def test_sweep_cell_is_a_plain_train(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep-capacity", "--config", str(_write_config(tmp_path)),
                 "--hidden", "2,4", "--seeds", "1-2", "--out", str(out)]) == 0
    lone = _write_config(tmp_path, "h2.json", spal_hidden=2)
    assert main(["train", "--config", str(lone), "--seed", "2",
                 "--out", str(tmp_path / "train")]) == 0
    _same_files(out / "h2" / "seed2", tmp_path / "train")


def test_ablate_stage_is_a_plain_train_of_the_leading_tasks(tmp_path, capsys):
    """The generator seeds each task by its list index, so only a trailing
    drop leaves the other tasks' data as it was."""
    out = tmp_path / "ablate"
    assert main(["ablate-tasks", "--config", str(_write_config(tmp_path)),
                 "--order", "beta", "--seeds", "1-2", "--out", str(out)]) == 0
    stage1 = capsys.readouterr().out.splitlines()[1]
    assert stage1.startswith("stage 1 (['alpha']): {\"alpha\": [")
    for stage in ("stage0_alpha-beta", "stage1_alpha"):
        assert json.loads((out / stage / "aggregate.json").read_text())["seeds"] == [1, 2]
    gen = json.loads(json.dumps(GENERATOR))
    del gen["tasks"][1]
    lone = _write_config(tmp_path, "alpha.json", data={"generator": gen})
    assert main(["train", "--config", str(lone), "--seed", "2",
                 "--out", str(tmp_path / "train")]) == 0
    _same_files(out / "stage1_alpha" / "seed2", tmp_path / "train")


def _readme_config_commands() -> dict[str, list[str]]:
    """README's experiment-config commands as argv, by config file name."""
    section = (ROOT / "README.md").read_text().split("## Experiment configs", 1)[1]
    commands = [shlex.split(line)[1:] for line in section.splitlines()
                if line.startswith("spalmtl ")]
    return {Path(argv[argv.index("--config") + 1]).name: argv for argv in commands}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_checked_in_config_runs_its_readme_command(tmp_path, monkeypatch, name):
    """At one epoch, the first seed and the smallest hidden size."""
    argv = _readme_config_commands()[name]
    cfg = read_json(CONFIGS / name)
    cfg["plan"]["epochs"] = 1
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    argv[argv.index("--config") + 1] = str(path)
    for flag in ("--seeds", "--hidden"):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(min(_parse_int_list(argv[i], flag)))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert list(tmp_path.rglob("run.json"))


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


def test_checkpoint_header_of_wrong_type_is_cli_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    path = out / "ckpt_final.spal"
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    header["config"]["tasks"][0]["batch_size"] = "4"
    header["digest"] = config_digest(header["config"])
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(path)]) == 1
    assert "error: checkpoint config.tasks[0].batch_size" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400"])
def test_non_finite_config_number_is_cli_error(tmp_path, capsys, literal):
    path = _write_config(tmp_path, plan={"epochs": 1, "seed": 1, "temperature": 7.5})
    path.write_text(path.read_text().replace("7.5", literal))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON: non-finite number {literal}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line,message", [
    ('{"tokens": [4, 5], "label": 0.5, "target_span": [0]}',
     "target_span must be a list of 2 items, got [0]"),
    ('{"tokens": [4, 5], "label": 0.5, "target_span": 5}',
     "target_span must be a list of 2 items, got 5"),
    ('{"tokens": [4, 5], "label": 0.5, "spans": [1]}', "spans[0] must be a list of 3 items"),
    ('{"tokens": [4, 5], "label": NaN}', "invalid JSON: non-finite number NaN"),
    ('{"tokens": [4, 128], "label": 0.5}',
     "token id 128 outside the backbone's vocabulary 0..127"),
], ids=["target_span_short", "target_span_int", "spans_int", "label_nan",
        "token_above_vocab"])
def test_malformed_dataset_line_is_cli_error(tmp_path, capsys, line, message):
    data = tmp_path / "train.jsonl"
    data.write_text('{"tokens": [4, 5], "label": 0.5, "target_span": [0, 1]}\n' + line + "\n")
    task = {"id": "j", "kind": "seq_regression", "metric": "rmse", "marker": "company",
            "train": "train.jsonl"}
    path = _write_config(tmp_path, data={"jsonl": [task]})
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data}:2: {message}")


@pytest.mark.parametrize("fields,message", [
    ({"num_classes": 3}, "head 'alpha' has num_classes 2, but the config's task has 3"),
    ({"kind": "token_classification", "num_classes": 3},
     "head 'alpha' has kind 'seq_classification', but the config's task has "
     "'token_classification'"),
], ids=["num_classes", "kind"])
def test_checkpoint_head_unlike_config_task_is_cli_error(tmp_path, capsys, fields, message):
    out = tmp_path / "run"
    main(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)])
    other = _write_config(tmp_path, "other.json", **_generator(**fields))
    ckpt = str(out / "ckpt_final.spal")
    for argv in (["eval"], ["analyze", "--out", str(tmp_path / "analysis")]):
        capsys.readouterr()
        assert main(argv + ["--config", str(other), "--checkpoint", ckpt]) == 1
        assert capsys.readouterr().err == f"error: checkpoint {ckpt} {message}\n"
    assert not (tmp_path / "analysis").exists()


def test_ablating_to_one_task_with_rep_gen_writes_no_g_rows(tmp_path, capsys):
    cfg = _write_config(tmp_path, analysis={"rep_gen": True, "snapshot_cadence": 4})
    out = tmp_path / "ablate"
    assert main(["ablate-tasks", "--config", str(cfg), "--order", "alpha",
                 "--out", str(out)]) == 0
    pair = (out / "stage0_alpha-beta" / "repgen.csv").read_text().splitlines()
    assert pair[0] == "step,layer,G" and len(pair) > 1
    assert (out / "stage1_beta" / "repgen.csv").read_text().splitlines() == ["step,layer,G"]


def test_analyze_single_task_writes_no_g_rows(tmp_path):
    gen = json.loads(json.dumps(GENERATOR))
    del gen["tasks"][1]
    cfg = _write_config(tmp_path, data={"generator": gen})
    out, adir = tmp_path / "run", tmp_path / "analysis"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["analyze", "--config", str(cfg), "--checkpoint",
                 str(out / "ckpt_final.spal"), "--out", str(adir)]) == 0
    assert (adir / "repgen.csv").read_text().splitlines() == ["step,layer,G"]
    assert read_matrix_csv(adir / "gradsim_step0.csv").labels == ["alpha"]


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "{cfg}", "--checkpoint", "{absent}"],
    ["analyze", "--config", "{cfg}", "--checkpoint", "{absent}", "--out", "{tmp}/analysis"],
    ["transfer", "--config", "{cfg}", "--checkpoint", "{absent}", "--task", "alpha"],
    ["train", "--config", "{cfg}", "--out", "{file}/run"],
    ["analyze", "--config", "{cfg}", "--checkpoint", "{ckpt}", "--out", "{file}/analysis"],
    ["gen-data", "--config", "{gen}", "--out", "{file}/data"],
], ids=["eval_missing_checkpoint", "analyze_missing_checkpoint",
        "transfer_missing_checkpoint", "train_out_below_file", "analyze_out_below_file",
        "gen_data_out_below_file"])
def test_bad_file_path_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    """A missing checkpoint, or an --out below a regular file, ends the
    command with one `error: …` line naming the path, before any training."""
    paths = {"cfg": _write_config(tmp_path), "gen": tmp_path / "gen.json",
             "file": tmp_path / "file", "absent": tmp_path / "absent.spal",
             "ckpt": tmp_path / "run" / "ckpt_final.spal", "tmp": tmp_path}
    paths["gen"].write_text(json.dumps(GENERATOR))
    paths["file"].write_text("")
    if "{ckpt}" in argv:
        assert main(["train", "--config", str(paths["cfg"]), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    trained = []
    monkeypatch.setattr("spalmtl.cli.run_training", lambda *a, **k: trained.append(a))
    missing_checkpoint = "{absent}" in argv
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if missing_checkpoint:
        assert err.startswith(f"error: cannot read checkpoint {paths['absent']}: ")
    else:
        assert f"'{argv[argv.index('--out') + 1]}" in err  # the --out path, or one below it
    assert trained == []

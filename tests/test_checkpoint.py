"""Checkpoint container: bit-exact round trips, error taxonomy, resume."""

import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spalmtl.checkpoint import (MAGIC, VERSION, config_digest, load_checkpoint,
                                model_config, save_checkpoint)
from spalmtl.engine import TrainPlan, build_stream, run_training
from spalmtl.errors import (CheckpointDigestError, CheckpointFormatError,
                            CheckpointTruncatedError, CheckpointVersionError)
from spalmtl.model import MtlModel
from spalmtl.optim import OptimizerState

from conftest import TINY, two_task_suite


def _random_model(seed, probe=False, spal_hidden=4):
    data = two_task_suite()
    specs = [data[tid].spec for tid in sorted(data)]
    model = MtlModel.build(TINY, specs, spal_hidden=spal_hidden, seed=seed,
                           freeze_backbone=bool(seed % 2), probe=probe)
    rng = np.random.default_rng(seed + 100)
    for p in model.all_params().values():
        p.data = rng.normal(size=p.data.shape)
    return model


def _assert_models_equal(a: MtlModel, b: MtlModel):
    pa, pb = a.all_params(), b.all_params()
    assert set(pa) == set(pb)
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data), name
        assert pa[name].trainable == pb[name].trainable, name


def test_round_trip_bit_exact(tmp_path):
    model = _random_model(1, probe=True)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    loaded, opt = load_checkpoint(path)
    assert opt is None
    _assert_models_equal(model, loaded)


def test_round_trip_without_spals(tmp_path):
    model = _random_model(2, spal_hidden=None)
    save_checkpoint(model, tmp_path / "m.spal")
    loaded, _ = load_checkpoint(tmp_path / "m.spal")
    assert loaded.spals is None
    _assert_models_equal(model, loaded)


def test_round_trip_many_random_models(tmp_path):
    for seed in range(10):
        model = _random_model(seed, probe=bool(seed % 3 == 0))
        path = tmp_path / f"m{seed}.spal"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        _assert_models_equal(model, loaded)


def test_optimizer_state_round_trip(tmp_path):
    model = _random_model(3)
    rng = np.random.default_rng(0)
    opt = OptimizerState(total_steps=777, base_lr=3e-4, warmup_steps=55,
                         weight_decay=0.07, step=123)
    for name, p in model.all_params().items():
        if p.trainable:
            opt.m[name] = rng.normal(size=p.data.shape)
            opt.v[name] = rng.normal(size=p.data.shape) ** 2
    path = tmp_path / "m.spal"
    save_checkpoint(model, path, optimizer=opt)
    _, loaded = load_checkpoint(path)
    assert loaded.step == 123
    assert loaded.total_steps == 777
    assert loaded.base_lr == 3e-4
    assert loaded.warmup_steps == 55
    assert loaded.weight_decay == 0.07
    assert set(loaded.m) == set(opt.m)
    for name in opt.m:
        assert np.array_equal(loaded.m[name], opt.m[name])
        assert np.array_equal(loaded.v[name], opt.v[name])


def test_freeze_flags_round_trip(tmp_path):
    model = _random_model(4)
    model.backbone.set_trainable(False)
    save_checkpoint(model, tmp_path / "m.spal")
    loaded, _ = load_checkpoint(tmp_path / "m.spal")
    assert not any(p.trainable for p in loaded.backbone.params.values())
    assert all(p.trainable for p in loaded.spals.params.values())


def test_corrupted_magic_rejected_before_tensors(tmp_path):
    model = _random_model(5)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    model = _random_model(6)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_digest_mismatch_rejected(tmp_path):
    model = _random_model(7)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    other = model_config(model)
    other["spal_hidden"] = 8
    raw = path.read_bytes()
    stored = config_digest(model_config(model)).encode()
    assert raw.count(stored) == 1
    path.write_bytes(raw.replace(stored, config_digest(other).encode()))
    with pytest.raises(CheckpointDigestError):
        load_checkpoint(path)


def test_tampered_header_fails_digest(tmp_path):
    model = _random_model(8)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = raw[12:12 + hlen]
    tampered = header.replace(b'"probe": false', b'"probe": true ')
    assert tampered != header
    path.write_bytes(raw[:12] + tampered + raw[12 + hlen:])
    with pytest.raises(CheckpointDigestError):
        load_checkpoint(path)


def _split(raw: bytes) -> tuple[dict, bytes]:
    """The header and the body of a checkpoint file."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + hlen]), raw[12 + hlen:]


def _join(raw: bytes, header: dict, body: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + body


def _tensor_spans(header: dict) -> dict:
    """Each tensor's byte span in the body, by name."""
    spans, pos = {}, 0
    for name, shape, _ in header["tensors"]:
        spans[name] = (pos, pos + 8 * int(np.prod(shape)))
        pos = spans[name][1]
    return spans


def _optimizer_for(model, names=("spal.layer0.up",)):
    opt = OptimizerState(total_steps=10)
    for name in names:
        opt.m[name] = np.ones_like(model.all_params()[name].data)
        opt.v[name] = opt.m[name] * 2
    return opt


@pytest.mark.parametrize("copies,message", [(0, "lacks"), (2, "twice")])
def test_each_param_stored_exactly_once(tmp_path, copies, message):
    """A table that drops or repeats a tensor, together with its bytes, is
    refused by name."""
    model = _random_model(11)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    header, body = _split(raw)
    name = "spal.layer0.up"
    start, end = _tensor_spans(header)[name]
    at = [entry[0] for entry in header["tensors"]].index(name)
    header["tensors"][at:at + 1] = header["tensors"][at:at + 1] * copies
    path.write_bytes(_join(raw, header, body[:start] + body[start:end] * copies
                           + body[end:]))
    with pytest.raises(CheckpointFormatError, match=message) as err:
        load_checkpoint(path)
    assert repr(name) in str(err.value)


@pytest.mark.parametrize("record", ["tensor", "moment"])
def test_non_utf8_name_rejected(tmp_path, record):
    model = _random_model(12)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path, optimizer=_optimizer_for(model))
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = raw[12:12 + hlen]
    # "optimizer" sorts before "tensors": the moment list comes first
    at = 12 + (header.find if record == "moment" else header.rfind)(b"spal.layer0.up")
    raw[at] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="unparseable header.*utf-8"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    model = _random_model(13)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path, optimizer=_optimizer_for(model))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointFormatError, match="trailing bytes"):
        load_checkpoint(path)


def test_moment_naming_no_stored_tensor_rejected(tmp_path):
    model = _random_model(14)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path, optimizer=_optimizer_for(model))
    raw = path.read_bytes()
    header, body = _split(raw)
    header["optimizer"]["moments"] = ["spal.layer9.up"]
    path.write_bytes(_join(raw, header, body))
    with pytest.raises(CheckpointFormatError, match="'spal.layer9.up' names no stored tensor"):
        load_checkpoint(path)


def test_header_shape_unlike_config_rejected(tmp_path):
    model = _random_model(15)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    header, body = _split(raw)
    entry = next(e for e in header["tensors"] if e[0] == "spal.layer0.up")
    entry[1] = entry[1][::-1]  # same size, transposed shape
    assert entry[1][0] != entry[1][1]
    path.write_bytes(_join(raw, header, body))
    with pytest.raises(CheckpointFormatError, match="'spal.layer0.up' shape"):
        load_checkpoint(path)


def test_version_1_file_rejected(tmp_path):
    model = _random_model(16)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(CheckpointVersionError, match="version 1"):
        load_checkpoint(path)


def test_optimizer_counters_beyond_u32_round_trip(tmp_path):
    model = _random_model(17)
    opt = _optimizer_for(model)
    opt.step, opt.warmup_steps, opt.total_steps = 2**32 + 5, 2**32, 2**40
    path = tmp_path / "m.spal"
    save_checkpoint(model, path, optimizer=opt)
    _, loaded = load_checkpoint(path)
    assert (loaded.step, loaded.warmup_steps, loaded.total_steps) == (2**32 + 5, 2**32, 2**40)


def test_save_and_load_hold_no_transient_copy_of_a_tensor(tmp_path):
    """Each array goes to and from the file through its own buffer: beyond
    what it leaves allocated, neither call peaks by as much as the largest
    tensor (a bytes copy, or a second array, would)."""
    big = replace(TINY, vocab_size=16384)  # 1 MiB word embedding, the rest is small
    model = MtlModel.build(big, [d.spec for d in two_task_suite().values()], spal_hidden=4,
                           seed=0)
    largest = max(p.data.nbytes for p in model.all_params().values())
    assert largest == 16384 * TINY.model_dim * 8
    opt = _optimizer_for(model, ["backbone.word_emb"])
    path = tmp_path / "m.spal"

    def excess(call):
        tracemalloc.start()
        try:
            result = call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current, result

    saved, _ = excess(lambda: save_checkpoint(model, path, optimizer=opt))
    loaded, (restored, state) = excess(lambda: load_checkpoint(path))
    assert saved < largest / 4
    assert loaded < largest / 4
    _assert_models_equal(model, restored)
    assert np.array_equal(state.v["backbone.word_emb"], opt.v["backbone.word_emb"])


def test_load_draws_no_backbone_values(tmp_path, monkeypatch):
    """The backbone is allocated from its shape table and read from the
    file, not drawn and then overwritten: all that the load draws (SPALs
    and heads) is less than the word embedding alone."""
    model = _random_model(18, probe=True)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    drawn = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def __getattr__(self, attr):
            def counted(*args, **kwargs):
                values = getattr(self._rng, attr)(*args, **kwargs)
                drawn.append(np.size(values))
                return values
            return counted

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    loaded, _ = load_checkpoint(path)
    monkeypatch.undo()
    assert 0 < sum(drawn) < loaded.backbone.params["backbone.word_emb"].data.size
    _assert_models_equal(model, loaded)


def test_truncated_file_rejected(tmp_path):
    model = _random_model(9)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", ["prefix", "header"])
def test_file_cut_before_its_arrays_rejected(tmp_path, cut):
    """A file that ends inside its 12-byte prefix or its JSON header."""
    model = _random_model(19)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    for end in ((0, 4, 11) if cut == "prefix" else (12, 12 + hlen // 2, 11 + hlen)):
        path.write_bytes(raw[:end])
        with pytest.raises(CheckpointTruncatedError, match="file is truncated"):
            load_checkpoint(path)


def test_table_naming_an_unknown_tensor_rejected(tmp_path):
    model = _random_model(20)
    path = tmp_path / "m.spal"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    header, body = _split(raw)
    entry = next(e for e in header["tensors"] if e[0] == "spal.layer0.up")
    entry[0] = "spal.layer9.up"
    path.write_bytes(_join(raw, header, body))
    with pytest.raises(CheckpointFormatError, match="unknown tensor 'spal.layer9.up'"):
        load_checkpoint(path)


def test_config_digest_is_key_order_independent():
    assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
    assert config_digest({"a": 1}) != config_digest({"a": 2})


def test_resume_from_checkpoint_matches_uninterrupted(tmp_path):
    data = two_task_suite()
    specs = [data[tid].spec for tid in sorted(data)]
    plan = TrainPlan(epochs=2, eval_interval=6, seed=8)

    def fresh():
        return MtlModel.build(TINY, specs, spal_hidden=4, seed=plan.seed,
                              freeze_backbone=True)

    full = run_training(plan, fresh(), data)

    model = fresh()
    half = len(build_stream(plan, data)) // 2
    partial = run_training(plan, model, data, max_steps=half)
    path = tmp_path / "mid.spal"
    save_checkpoint(model, path, optimizer=partial.optimizer_state)

    restored, partial.optimizer_state = load_checkpoint(path)
    resumed = run_training(plan, restored, data, record=partial)
    assert resumed.losses == full.losses
    assert resumed.evals == full.evals
    final_full = run_training(plan, fresh(), data)  # sanity: determinism held
    assert final_full.losses == full.losses

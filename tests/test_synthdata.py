"""Synthetic corpus generator: determinism, relatedness semantics, label
re-derivation, suite geometry."""

import numpy as np
import pytest
from scipy.special import ndtr

from spalmtl.errors import ConfigError
from spalmtl.synthdata import (GeneratorSpec, SynthTaskSpec, derive_label,
                               findata_shaped_suite, gen_synthetic_suite,
                               tag_names_for)
from spalmtl.tasks import FIRST_CONTENT_ID, bio_to_spans

from conftest import two_task_suite


def test_same_spec_and_seed_bit_identical():
    a = two_task_suite(seed=5)
    b = two_task_suite(seed=5)
    for tid in a:
        for split in ("train", "dev", "test"):
            for ea, eb in zip(a[tid].split(split), b[tid].split(split)):
                assert np.array_equal(ea.token_ids, eb.token_ids)
                assert np.array_equal(np.asarray(ea.label), np.asarray(eb.label))


def test_different_seeds_differ():
    a = two_task_suite(seed=1)
    b = two_task_suite(seed=2)
    assert not all(np.array_equal(ea.token_ids, eb.token_ids)
                   for ea, eb in zip(a["alpha"].train, b["alpha"].train))


def test_invalid_relatedness_rejected():
    with pytest.raises(ConfigError, match="relatedness"):
        SynthTaskSpec("t", "seq_classification", relatedness=1.5)


def test_vocab_too_small_rejected():
    with pytest.raises(ConfigError, match="vocab_size"):
        GeneratorSpec(tasks=(SynthTaskSpec("t", "seq_classification"),),
                      vocab_size=10)


@pytest.mark.parametrize("num_classes,vocab_size", [(23, 44), (9, 44), (9, 51)])
def test_span_tokens_below_the_filler_ids_rejected(num_classes, vocab_size):
    """Filler ids start at 4 + latent_dim * bins = 36; a tag task's span
    tokens take 4 ids per entity label from the top of the vocabulary."""
    tasks = (SynthTaskSpec("a", "seq_classification"),
             SynthTaskSpec("tags", "token_classification", num_classes=num_classes))
    with pytest.raises(ConfigError, match="vocab_size .* too small for task 'tags'"):
        GeneratorSpec(tasks=tasks, vocab_size=vocab_size)


def test_span_tokens_at_the_bound_stay_in_the_filler_ids():
    task = SynthTaskSpec("tags", "token_classification", (200, 1, 1), num_classes=9)
    spec = GeneratorSpec(tasks=(task,), vocab_size=36 + 4 * 4)
    span_ids = [ex.token_ids[s:e + 1] for ex in gen_synthetic_suite(spec)["tags"].train
                for s, e, _ in ex.spans]
    assert min(ids.min() for ids in span_ids) == 36


def test_tag_names_odd_class_counts_only():
    assert tag_names_for(5) == ("O", "B-E0", "I-E0", "B-E1", "I-E1")
    with pytest.raises(ConfigError):
        tag_names_for(4)


def test_labels_rederivable_from_stored_latents():
    data = two_task_suite(seed=3)
    tasks = {"alpha": 0, "beta": 1}
    gen = GeneratorSpec(
        tasks=tuple(SynthTaskSpec(t, "seq_classification", (24, 8, 8), 1.0,
                                  num_classes=2, batch_size=4)
                    for t in tasks),
        vocab_size=96, seq_len=(6, 8), latent_dim=3, bins=6, seed=3)
    for tid in tasks:
        task = gen.tasks[tasks[tid]]
        for ex in data[tid].train:
            assert ex.label == derive_label(gen, task, ex.latent)


def test_rho_one_same_kind_tasks_share_label_function():
    data = two_task_suite(seed=7, rho=1.0)
    gen = GeneratorSpec(
        tasks=tuple(SynthTaskSpec(t, "seq_classification", (24, 8, 8), 1.0,
                                  num_classes=2, batch_size=4)
                    for t in ("alpha", "beta")),
        vocab_size=96, seq_len=(6, 8), latent_dim=3, bins=6, seed=7)
    # same latent gets the same label regardless of which task derives it
    for ex in data["alpha"].train:
        assert derive_label(gen, gen.tasks[0], ex.latent) == \
            derive_label(gen, gen.tasks[1], ex.latent)


def test_token_task_tags_round_trip_planted_spans():
    suite = two_task_suite(seed=4, kind="token_classification", num_classes=3)
    names = tag_names_for(3)
    for ex in suite["alpha"].train:
        tags = [names[t] for t in ex.label]
        decoded = bio_to_spans(tags)
        planted = sorted((s, e) for s, e, _ in ex.spans)
        assert sorted((s, e) for s, e, _ in decoded) == planted


def test_regression_labels_bounded():
    suite = two_task_suite(seed=6, kind="seq_regression")
    for ex in suite["alpha"].train:
        assert -1.0 <= ex.label <= 1.0


def test_findata_shaped_suite_geometry():
    gen = findata_shaped_suite(seed=0)
    by_id = {t.id: t for t in gen.tasks}
    assert set(by_id) == {"tsa", "sc", "nc", "nad", "fsrl", "cd"}
    assert by_id["tsa"].kind == "seq_regression"
    assert by_id["tsa"].sizes == (91, 23, 56)
    assert by_id["nc"].batch_size == 24
    assert by_id["nad"].batch_size == 32
    assert by_id["nad"].sizes == (719, 104, 211)
    assert by_id["fsrl"].resolved_metric() == "entity_macro_f1"
    assert by_id["cd"].resolved_metric() == "token_accuracy"


def test_findata_suite_generates():
    gen = findata_shaped_suite(seed=1, scale_sizes=0.05)
    data = gen_synthetic_suite(gen)
    assert set(data) == {"tsa", "sc", "nc", "nad", "fsrl", "cd"}
    for td in data.values():
        assert td.train and td.dev and td.test


@pytest.mark.parametrize("bins", [2, 7, 8, 64])
def test_latent_buckets_match_scipy_ndtr(bins):
    """The prefix tokens quantize Phi(u): 4,000 examples x 25 latents, 1e5
    draws, bucket for bucket as scipy.special.ndtr would give them."""
    k = 25
    spec = GeneratorSpec(tasks=(SynthTaskSpec("t", "seq_regression", sizes=(4000, 1, 1)),),
                         vocab_size=FIRST_CONTENT_ID + k * bins + 8, seq_len=(k + 2, k + 2),
                         latent_dim=k, bins=bins, seed=bins)
    train = gen_synthetic_suite(spec)["t"].train
    u = np.stack([ex.latent for ex in train])
    tokens = np.stack([ex.token_ids[:k] for ex in train])
    expected = np.minimum((ndtr(u) * bins).astype(np.int64), bins - 1)
    assert np.array_equal(tokens - FIRST_CONTENT_ID - np.arange(k) * bins, expected)
    assert len(np.unique(expected)) == bins

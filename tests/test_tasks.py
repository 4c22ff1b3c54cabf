"""Task layer: markers, BIO conversion, heads, losses and metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spalmtl import autodiff as ad
from spalmtl.backbone import Encoding
from spalmtl.errors import ConfigError, ContractError, DataError
from spalmtl.tasks import (COMPANY_MARKER_ID, NUMBER_MARKER_ID, Head, TaskExample,
                           TaskSpec, bio_to_spans, entity_macro_f1, better,
                           head_forward, insert_target_markers, spans_to_bio,
                           task_loss, task_metric, validate_example)

from conftest import fd_gradient, grads_close, strip_target_markers


def _encoding(x: np.ndarray, mask=None) -> Encoding:
    """A batch of one example whose final layer is x [T, d]."""
    if mask is None:
        mask = np.ones(x.shape[0], dtype=bool)
    return Encoding([ad.Tensor(x[None])], np.asarray(mask, dtype=bool)[None])


# -- spec validation --------------------------------------------------------

def test_spec_rejects_bad_combinations():
    with pytest.raises(ConfigError):
        TaskSpec(id="t", kind="seq_regression", metric="accuracy")
    with pytest.raises(ConfigError):
        TaskSpec(id="t", kind="seq_classification", metric="accuracy", num_classes=1)
    with pytest.raises(ConfigError):
        TaskSpec(id="t", kind="token_classification", metric="token_accuracy",
                 num_classes=3, tag_names=("O",))


def test_regression_labels_outside_unit_interval_rejected():
    spec = TaskSpec(id="r", kind="seq_regression", metric="rmse")
    for label in (3.7, -2.0, float("nan")):
        with pytest.raises(DataError, match="outside \\[-1, 1\\]"):
            validate_example(spec, TaskExample(token_ids=np.array([4]), label=label))
    for label in (1, -1.0, 0.25):
        ex = validate_example(spec, TaskExample(token_ids=np.array([4]), label=label))
        assert type(ex.label) is float and ex.label == label


def test_tag_length_mismatch_rejected():
    spec = TaskSpec(id="t", kind="token_classification", metric="token_accuracy",
                    num_classes=3, tag_names=("O", "B-E0", "I-E0"))
    with pytest.raises(DataError, match="length"):
        validate_example(spec, TaskExample(token_ids=np.array([4, 5, 6]),
                                           label=np.array([0, 1])))


# -- markers ----------------------------------------------------------------

def test_insert_company_markers_wraps_span():
    # "ICE considers offer" with the first token as the target company
    ids = np.array([10, 11, 12])
    out = insert_target_markers(ids, (0, 0), "company")
    assert list(out) == [COMPANY_MARKER_ID, 10, COMPANY_MARKER_ID, 11, 12]


def test_insert_number_markers_inclusive_span():
    out = insert_target_markers(np.array([10, 11, 12, 13]), (1, 2), "number")
    assert list(out) == [10, NUMBER_MARKER_ID, 11, 12, NUMBER_MARKER_ID, 13]


def test_strip_markers_is_inverse():
    ids = np.array([10, 11, 12, 13])
    out = insert_target_markers(ids, (1, 2), "company")
    assert np.array_equal(strip_target_markers(out), ids)


def test_empty_span_rejected():
    with pytest.raises(DataError):
        insert_target_markers(np.array([10, 11]), (1, 0), "company")
    with pytest.raises(DataError):
        insert_target_markers(np.array([10, 11]), (0, 2), "company")


# -- BIO --------------------------------------------------------------------

def test_spans_to_bio_cause_example():
    assert spans_to_bio(4, [(1, 2, "CAUSE")]) == ["O", "B-CAUSE", "I-CAUSE", "O"]


def test_no_spans_all_outside():
    assert spans_to_bio(3, []) == ["O", "O", "O"]


def test_overlapping_spans_rejected_with_both_named():
    with pytest.raises(DataError, match="overlap"):
        spans_to_bio(5, [(0, 2, "A"), (2, 3, "B")])


def test_bio_to_spans_orphan_inside_opens_chunk():
    assert bio_to_spans(["O", "I-A", "I-A", "O"]) == [(1, 2, "A")]


def test_bio_to_spans_adjacent_chunks():
    assert bio_to_spans(["B-A", "B-A", "I-B"]) == [(0, 0, "A"), (1, 1, "A"), (2, 2, "B")]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bio_round_trip_property(data):
    length = data.draw(st.integers(1, 12))
    spans = []
    cursor = 0
    while cursor < length and data.draw(st.booleans()):
        start = data.draw(st.integers(cursor, length - 1))
        end = data.draw(st.integers(start, length - 1))
        spans.append((start, end, data.draw(st.sampled_from(["A", "B", "C"]))))
        cursor = end + 2  # gap so adjacent spans stay distinguishable
    assert bio_to_spans(spans_to_bio(length, spans)) == sorted(spans)


# -- heads and losses -------------------------------------------------------

def _head(kind, num_classes, model_dim=4, metric=None, seed=0):
    metric = metric or {"seq_regression": "rmse", "seq_classification": "accuracy",
                        "token_classification": "token_accuracy"}[kind]
    tags = tuple(["O"] + [t for i in range((num_classes - 1) // 2)
                          for t in (f"B-E{i}", f"I-E{i}")]) \
        if kind == "token_classification" else ()
    spec = TaskSpec(id="t", kind=kind, metric=metric,
                    num_classes=num_classes if kind != "seq_regression" else 1,
                    tag_names=tags)
    return Head(spec, model_dim, seed)


def test_zero_head_gives_uniform_classes():
    head = _head("seq_classification", 4)
    head.w.data[:] = 0.0
    out = head_forward(_encoding(np.ones((3, 4))), head)
    assert np.allclose(ad.softmax_rows(out).data, 0.25, atol=1e-15)


def test_token_head_gives_per_token_logits():
    head = _head("token_classification", 3)
    x = np.random.default_rng(0).normal(size=(5, 4))
    out = head_forward(_encoding(x), head)
    assert out.data.shape == (1, 5, 3)
    assert np.max(np.abs(out.data[0] - (x @ head.w.data + head.b.data))) < 1e-12


def test_classification_matches_affine_softmax_oracle():
    head = _head("seq_classification", 3, seed=4)
    x = np.random.default_rng(1).normal(size=(2, 4))
    out = ad.softmax_rows(head_forward(_encoding(x), head)).data[0]
    logits = x[0] @ head.w.data + head.b.data
    exps = [math.exp(v - max(logits)) for v in logits]
    oracle = np.array(exps) / sum(exps)
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_regression_head_is_affine_only():
    head = _head("seq_regression", 1)
    x = np.random.default_rng(2).normal(size=(2, 4))
    out = head_forward(_encoding(x), head)
    assert out.data.shape == (1,)
    assert out.data[0] == pytest.approx(
        float((x[0] @ head.w.data + head.b.data)[0]), abs=1e-12)


def test_pooling_uses_first_non_padding_position():
    head = _head("seq_regression", 1)
    x = np.random.default_rng(3).normal(size=(3, 4))
    out = head_forward(_encoding(x, [False, True, True]), head)
    assert out.data[0] == pytest.approx(
        float((x[1] @ head.w.data + head.b.data)[0]), abs=1e-12)


def test_perfect_regression_loss_zero():
    head = _head("seq_regression", 1)
    enc = _encoding(np.ones((1, 4)))
    pred = head_forward(enc, head)
    loss = task_loss(head.spec, pred, [pred.data[0]])
    assert float(loss.data) == 0.0


def test_uniform_classification_loss_is_ln_k():
    head = _head("seq_classification", 5)
    head.w.data[:] = 0.0
    pred = head_forward(_encoding(np.ones((2, 4))), head)
    loss = task_loss(head.spec, pred, [3])
    assert float(loss.data) == pytest.approx(math.log(5), abs=1e-12)


def test_token_loss_masks_padding():
    head = _head("token_classification", 3)
    x = np.random.default_rng(5).normal(size=(3, 4))
    pred = head_forward(_encoding(x), head)
    # a two-tag example padded to three positions: the third is not counted
    loss = task_loss(head.spec, pred, [np.array([0, 1])])
    probs = ad.softmax_rows(pred).data[0]
    per_tok = -np.log(probs[np.arange(2), [0, 1]])
    assert float(loss.data) == pytest.approx(per_tok.mean(), abs=1e-12)


def test_batch_loss_is_mean_of_example_losses():
    head = _head("token_classification", 3, seed=2)
    x = np.random.default_rng(6).normal(size=(2, 3, 4))
    enc = Encoding([ad.Tensor(x)], np.ones((2, 3), dtype=bool))
    labels = [np.array([2, 0, 1]), np.array([1])]
    pred = head_forward(enc, head)
    both = float(task_loss(head.spec, pred, labels).data)
    each = [float(task_loss(head.spec, head_forward(_encoding(x[b, :n]), head),
                            [labels[b]]).data) for b, n in ((0, 3), (1, 1))]
    assert both == pytest.approx(sum(each) / 2, abs=1e-12)


@pytest.mark.parametrize("kind", ["seq_classification", "token_classification"])
def test_large_logit_gap_gives_finite_loss_and_gradient(kind):
    head = _head(kind, 3)
    head.w.data[:] = 0.0
    head.b.data[:] = [0.0, 1e4, 0.0]  # class 0 is 1e4 below the top logit
    pred = head_forward(_encoding(np.ones((2, 4))), head)
    label = 0 if kind == "seq_classification" else np.array([0, 0])
    loss = task_loss(head.spec, pred, [label])
    ad.backward(loss)
    assert float(loss.data) == pytest.approx(1e4, rel=1e-12)
    assert np.all(np.isfinite(head.w.grad)) and np.all(np.isfinite(head.b.grad))
    assert head.b.grad == pytest.approx([-1.0, 1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("kind,num_classes,label", [
    ("seq_regression", 1, 0.4),
    ("seq_classification", 3, 2),
    ("token_classification", 3, np.array([0, 1, 2])),
])
def test_loss_gradient_through_head(kind, num_classes, label):
    head = _head(kind, num_classes, seed=8)
    x = np.random.default_rng(9).normal(size=(3, 4))

    def forward():
        pred = head_forward(_encoding(x), head)
        return task_loss(head.spec, pred, [label])

    ad.backward(forward())
    for p in (head.w, head.b):
        fd = fd_gradient(lambda: float(forward().data), p.data)
        assert grads_close(fd, p.grad), p.name


# -- metrics ----------------------------------------------------------------

def test_all_correct_accuracy_100():
    spec = TaskSpec(id="c", kind="seq_classification", metric="accuracy",
                    num_classes=2)
    preds = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
    assert task_metric(spec, preds, [0, 1]) == 100.0


def test_perfect_regression_rmse_zero():
    spec = TaskSpec(id="r", kind="seq_regression", metric="rmse")
    assert task_metric(spec, [0.1, -0.5], [0.1, -0.5]) == 0.0


def test_rmse_hand_value():
    spec = TaskSpec(id="r", kind="seq_regression", metric="rmse")
    assert task_metric(spec, [0.0, 1.0], [1.0, 1.0]) == \
        pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_token_accuracy_counts_positions():
    spec = TaskSpec(id="t", kind="token_classification", metric="token_accuracy",
                    num_classes=3, tag_names=("O", "B-E0", "I-E0"))
    onehot = np.eye(3)
    preds = [onehot[[0, 1, 1]], onehot[[2, 2]]]
    labels = [np.array([0, 1, 2]), np.array([2, 2])]
    assert task_metric(spec, preds, labels) == pytest.approx(80.0)


def test_macro_f1_hand_chunked_case():
    gold = [["B-A", "I-A", "O"], ["B-B", "O", "O"], ["O", "O", "O"]]
    # boundary error on the B span, A span exact
    pred = [["B-A", "I-A", "O"], ["B-B", "I-B", "O"], ["O", "O", "O"]]
    # A: tp=1 -> F1 1.0; B: tp=0 with one gold and one predicted span -> 0.0
    assert entity_macro_f1(gold, pred) == pytest.approx(0.5, abs=1e-12)


def test_macro_f1_labels_union_gold_and_pred():
    gold = [["B-A", "O"]]
    pred = [["O", "B-C"]]
    # A: 0, C: 0 -> macro over both labels
    assert entity_macro_f1(gold, pred) == 0.0
    assert entity_macro_f1([["O"]], [["O"]]) == 0.0


def test_empty_split_is_contract_error():
    spec = TaskSpec(id="r", kind="seq_regression", metric="rmse")
    with pytest.raises(ContractError):
        task_metric(spec, [], [])


def test_better_respects_metric_direction():
    rmse = TaskSpec(id="r", kind="seq_regression", metric="rmse")
    acc = TaskSpec(id="c", kind="seq_classification", metric="accuracy",
                   num_classes=2)
    assert better(rmse, 0.1, 0.2)
    assert not better(rmse, 0.2, 0.1)
    assert better(acc, 90.0, 80.0)

"""JSONL ingestion: golden fixture, validation with line numbers, emission
round trip."""

import json
from dataclasses import replace

import numpy as np
import pytest

from spalmtl.backbone import encode, init_backbone
from spalmtl.dataio import load_jsonl_dataset, save_jsonl_dataset
from spalmtl.errors import DataError
from spalmtl.tasks import COMPANY_MARKER_ID, TaskExample, TaskSpec

from conftest import TINY

CLS = TaskSpec(id="c", kind="seq_classification", metric="accuracy",
               num_classes=3)
REG = TaskSpec(id="r", kind="seq_regression", metric="rmse")
TOK = TaskSpec(id="t", kind="token_classification", metric="token_accuracy",
               num_classes=3, tag_names=("O", "B-E0", "I-E0"))


def test_golden_three_line_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"tokens": [4, 5, 6], "label": 0}\n'
        '{"tokens": [7, 8], "label": 2, "target_span": [0, 0]}\n'
        '{"tokens": [9], "label": 1, "latent": [0.5, -0.5]}\n')
    exs = load_jsonl_dataset(path, CLS, TINY)
    assert len(exs) == 3
    assert list(exs[0].token_ids) == [4, 5, 6] and exs[0].label == 0
    assert exs[1].target_span == (0, 0) and exs[1].label == 2
    assert np.array_equal(exs[2].latent, [0.5, -0.5])


def test_marker_insertion_on_load(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [10, 11], "label": 1, "target_span": [0, 0]}\n')
    exs = load_jsonl_dataset(path, CLS, TINY, marker_kind="company")
    assert list(exs[0].token_ids) == [COMPANY_MARKER_ID, 10, COMPANY_MARKER_ID, 11]


def test_markers_count_towards_max_seq_len(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [%s], "label": 1, "target_span": [0, 0]}\n'
                    % ", ".join(["10"] * TINY.max_seq_len))
    assert len(load_jsonl_dataset(path, CLS, TINY)[0].token_ids) == TINY.max_seq_len
    with pytest.raises(DataError, match=":1: 18 tokens .* max_seq_len 16"):
        load_jsonl_dataset(path, CLS, TINY, marker_kind="company")


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('\n{"tokens": [4], "label": 0}\n\n')
    assert len(load_jsonl_dataset(path, CLS, TINY)) == 1


def test_empty_file_gives_empty_dataset(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    assert load_jsonl_dataset(path, CLS, TINY) == []


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_jsonl_dataset(tmp_path / "absent.jsonl", CLS, TINY)


def test_invalid_json_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [4], "label": 0}\n{broken\n')
    with pytest.raises(DataError, match=":2:"):
        load_jsonl_dataset(path, CLS, TINY)


def test_unknown_key_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [4], "label": 0, "surprise": 1}\n')
    with pytest.raises(DataError, match=":1:.*surprise"):
        load_jsonl_dataset(path, CLS, TINY)


def test_missing_required_keys_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [4]}\n')
    with pytest.raises(DataError, match="label"):
        load_jsonl_dataset(path, CLS, TINY)


def test_tag_length_mismatch_reports_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [4, 5, 6], "label": [0, 1]}\n')
    with pytest.raises(DataError, match=":1:"):
        load_jsonl_dataset(path, TOK, TINY)


def test_out_of_range_class_label_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [4], "label": 9}\n')
    with pytest.raises(DataError, match=":1:"):
        load_jsonl_dataset(path, CLS, TINY)


@pytest.mark.parametrize("spec,line,message", [
    (CLS, '{"tokens": "abc", "label": 0}', "tokens must be a list"),
    (CLS, '{"tokens": [[5, 6], [7, 8]], "label": 0}', r"tokens\[0\] must be an integer"),
    (CLS, '{"tokens": [5.7, 6], "label": 0}', r"tokens\[0\] must be an integer"),
    (CLS, '{"tokens": [], "label": 0}', "tokens must hold a non-padding id"),
    (CLS, '{"tokens": [4], "label": "x"}', "label must be an integer"),
    (CLS, '{"tokens": [4], "label": null}', "label must be an integer"),
    (CLS, '{"tokens": [4], "label": 1.9}', "label must be an integer"),
    (CLS, '{"tokens": [4], "label": 0, "latent": ["q"]}',
     r"latent\[0\] must be a number"),
    (TOK, '{"tokens": [4, 5], "label": [0, 1.5]}', r"label\[1\] must be an integer"),
    (CLS, '{"tokens": [0, 0], "label": 0}', "tokens must hold a non-padding id"),
    (REG, '{"tokens": [4], "label": 3.5}', r"regression label 3.5 outside \[-1, 1\]"),
    (REG, '{"tokens": [4], "label": NaN}', "invalid JSON: non-finite number NaN"),
    (REG, '{"tokens": [4], "label": -1e400}', "invalid JSON: non-finite number -1e400"),
    (CLS, '{"tokens": [4], "label": 0, "target_span": [0]}',
     "target_span must be a list of 2 items"),
    (CLS, '{"tokens": [4], "label": 0, "target_span": 5}',
     "target_span must be a list of 2 items"),
    (TOK, '{"tokens": [4], "label": [0], "spans": [1]}',
     r"spans\[0\] must be a list of 3 items"),
    (CLS, '{"tokens": [4, 128], "label": 0}',
     r"token id 128 outside the backbone's vocabulary 0\.\.127"),
    (CLS, '{"tokens": [-1, 4], "label": 0}',
     r"token id -1 outside the backbone's vocabulary 0\.\.127"),
    (CLS, '{"tokens": [%s], "label": 0}' % ", ".join(["4"] * 17),
     "17 tokens exceed the backbone's max_seq_len 16"),
], ids=["tokens_str", "tokens_2d", "tokens_float", "tokens_empty", "label_str",
        "label_null", "label_float", "latent_str", "tag_float", "tokens_all_padding",
        "regression_out_of_range", "label_nan", "label_overflow", "target_span_short",
        "target_span_int", "spans_int", "token_above_vocab", "token_negative",
        "above_max_seq_len"])
def test_malformed_value_reports_line(tmp_path, spec, line, message):
    good = '{"tokens": [4], "label": [0]}' if spec is TOK else '{"tokens": [4], "label": 0}'
    path = tmp_path / "d.jsonl"
    path.write_text(good + "\n" + line + "\n")
    with pytest.raises(DataError, match=f"d.jsonl:2: {message}"):
        load_jsonl_dataset(path, spec, TINY)


PADS_WITH_7 = replace(TINY, padding_token_id=7)


def test_line_of_the_backbones_padding_id_only_reports_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [4], "label": 0}\n{"tokens": [7, 7], "label": 0}\n')
    with pytest.raises(DataError, match=r"d.jsonl:2: tokens must hold a non-padding id "
                                        r"\(the backbone pads with 7\)"):
        load_jsonl_dataset(path, CLS, PADS_WITH_7)


@pytest.mark.parametrize("tokens,backbone", [
    ([4, 128], TINY), ([-1, 4], TINY), ([0, 0], TINY), ([], TINY), ([4] * 17, TINY),
    ([7, 7], PADS_WITH_7),
], ids=["above_vocab", "negative", "all_padding", "empty", "above_max_seq_len",
        "all_padding_of_another_id"])
def test_dataset_line_and_encode_refuse_ids_with_one_message(tmp_path, tokens, backbone):
    """A line is refused exactly as `encode` refuses the same ids as a
    batch of one row: both run `backbone.check_token_ids`."""
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"tokens": tokens, "label": 0}) + "\n")
    with pytest.raises(DataError) as line_error:
        load_jsonl_dataset(path, CLS, backbone)
    with pytest.raises(DataError) as batch_error:
        encode(np.array([tokens], dtype=np.int64), init_backbone(backbone, seed=0))
    assert str(line_error.value) == f"{path}:1: {batch_error.value}"


def test_id_0_is_content_for_a_backbone_that_pads_with_another(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [0, 0], "label": 1}\n')
    (ex,) = load_jsonl_dataset(path, CLS, PADS_WITH_7)
    assert ex.token_ids.tolist() == [0, 0] and ex.label == 1


def test_integer_regression_label_accepted(tmp_path):
    spec = TaskSpec(id="r", kind="seq_regression", metric="rmse")
    path = tmp_path / "d.jsonl"
    path.write_text('{"tokens": [4], "label": 1}\n{"tokens": [4], "label": -0.25}\n')
    assert [ex.label for ex in load_jsonl_dataset(path, spec, TINY)] == [1.0, -0.25]


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "d.jsonl"
    exs = [
        TaskExample(token_ids=np.array([4, 5]), label=1),
        TaskExample(token_ids=np.array([6, 7, 8]), label=2,
                    target_span=(1, 2), latent=np.array([0.25, -1.5])),
    ]
    save_jsonl_dataset(path, exs)
    back = load_jsonl_dataset(path, CLS, TINY)
    assert len(back) == 2
    for a, b in zip(exs, back):
        assert np.array_equal(a.token_ids, b.token_ids)
        assert a.label == b.label
    assert back[1].target_span == (1, 2)
    assert np.array_equal(back[1].latent, exs[1].latent)


def test_save_token_labels_as_lists(tmp_path):
    path = tmp_path / "d.jsonl"
    ex = TaskExample(token_ids=np.array([4, 5]), label=np.array([0, 1]),
                     spans=[(1, 1, 0)])
    save_jsonl_dataset(path, [ex])
    obj = json.loads(path.read_text().splitlines()[0])
    assert obj["label"] == [0, 1]
    assert obj["spans"] == [[1, 1, 0]]
    back = load_jsonl_dataset(path, TOK, TINY)
    assert np.array_equal(back[0].label, [0, 1])

"""Tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m pytest perfbench
"""

import math

import pytest

from metrics import (Span, Tally, covered, layer_self_times, percentile, quartile_spread,
                     self_times, tail, tail_percentile, unaccounted, within)


def spans():
    """engine.train_step [0, 10] holding backbone.encode [1, 4] (which holds
    spal.forward [2, 3]) and autodiff.backward [5, 9]; a second top-level
    span reporting.emit_metrics [12, 13]."""
    return [
        Span(0, "engine.train_step", 0.0, 10.0, None, "episode"),
        Span(1, "backbone.encode", 1.0, 4.0, 0, "episode"),
        Span(2, "spal.forward", 2.0, 3.0, 1, "episode"),
        Span(3, "autodiff.backward", 5.0, 9.0, 0, "episode"),
        Span(4, "reporting.emit_metrics", 12.0, 13.0, None, "episode"),
    ]


def test_self_time_subtracts_direct_children_only():
    st = self_times(spans())
    assert st == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0}


def test_layer_self_times_sum_to_covered_time():
    layers = layer_self_times(spans())
    assert layers == {"engine": 3.0, "backbone": 2.0, "spal": 1.0,
                      "autodiff": 4.0, "reporting": 1.0}
    assert sum(layers.values()) == 11.0


def test_unaccounted_is_the_window_no_span_covers():
    assert unaccounted(spans(), 0.0, 14.0) == 3.0   # [10, 12] and [13, 14]
    assert unaccounted(spans(), 11.0, 12.5) == 1.0


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert covered([], 0, 1) == 0.0


def test_within_counts_nested_descendants():
    s = spans() + [Span(5, "backbone.encode", 11.0, 11.5, None, "episode")]
    assert within(s, "engine.train_step", "spal.forward") == 1
    assert within(s, "engine.train_step", "backbone.encode") == 1
    assert within(s, "reporting.emit_metrics", "backbone.encode") == 0


def test_percentile_interpolates_like_numpy():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 0) == 1.0 and percentile(xs, 100) == 4.0
    assert percentile(list(range(101)), 90) == 90.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, cap, expected", [
    (19, 99.9, None), (20, 99.9, 50.0), (39, 99.9, 50.0), (40, 99.9, 75.0),
    (100, 99.9, 90.0), (199, 99.9, 90.0), (200, 99.9, 95.0), (1000, 99.9, 99.0),
    (10000, 99.9, 99.9), (10000, 90.0, 90.0), (117, 75.0, 75.0),
])
def test_tail_percentile_has_ten_samples_beyond(n, cap, expected):
    assert tail_percentile(n, cap) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 9) >= 10


def test_tail_labels_the_percentile_and_falls_back_to_median():
    xs = [float(i) for i in range(1, 101)]
    assert tail(xs) == ("p90", percentile(xs, 90))
    label, value = tail([5.0, 1.0, 3.0])
    assert label.startswith("p50") and value == 3.0


def test_quartile_spread_uses_exclusive_quartiles_over_the_median():
    # statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25]
    assert quartile_spread([float(i) for i in range(10, 0, -1)]) == (8.25 - 2.75) / 5.5


def test_error_rate_counts_raises_bad_values_and_failed_checks():
    t = Tally()
    assert t.run("ok op", lambda: 7) == (True, 7)
    assert t.run("raising op", lambda: 1 / 0) == (False, None)
    t.record("train step 1", math.isfinite(float("nan")), "loss nan")
    t.record("train step 2", True)
    assert t.check("passing check", lambda: []) is True
    assert t.check("failing check", lambda: ["m[0,1] = 2.0 outside [-1, 1]"]) is False
    assert t.check("raising check", lambda: [][0]) is False
    assert (t.attempted, t.failed) == (7, 4)
    assert t.error_rate == 4 / 7
    assert [f.split(":")[0] for f in t.failures] == [
        "raising op", "train step 1", "failing check", "raising check"]
    assert "ZeroDivisionError" in t.failures[0]


def test_error_rate_of_nothing_attempted_is_zero():
    assert Tally().error_rate == 0.0

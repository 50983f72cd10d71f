"""Self-time arithmetic and per-layer aggregation on synthetic span trees."""

import pytest

import tracing
from run import tail_latency


def span(name, start, end, parent=-1, op=0, attr=None):
    return [name, start, end, parent, op, attr]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: the union 1..5 covers 4 s
        span("c", 1.5, 2.5, parent=1),
        span("d", 6.0, 6.5, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 1.0, 3.0, 1.0, 0.5])


def test_self_time_clips_children_to_the_parent():
    spans = [span("root", 0.0, 2.0), span("late", 1.5, 3.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_layer_metrics_nest_exact_calls_under_their_callers():
    spans = [
        span("cli.rank", 0.0, 10.0),
        span("ranking.greedy_pg2_ranking", 1.0, 9.0, parent=0),
        span("exact.pg2_exact", 1.0, 2.0, parent=1, attr=1),
        span("exact.pg2_exact", 2.0, 4.0, parent=1, attr=2),
        span("exact.pg2_exact", 4.0, 8.0, parent=1, attr=2),
        span("model.load_ensemble", 20.0, 20.5, op=None),
    ]
    counts = {"interval_prob_calls": 30, "exact_calls": 3, "live": {"1": [2, 10], "2": [6, 10]}}
    m = tracing.layer_metrics(spans, counts, import_s=0.25, overhead_s=0.01)
    assert m["ranking.greedy_pg2_ranking.calls"] == 1
    assert m["ranking.greedy_pg2_ranking.exact_calls_per_row"] == 3
    assert m["ranking.greedy_pg2_ranking.self_s"] == pytest.approx(1.0)
    assert m["cli.rank.self_s"] == pytest.approx(2.0)
    assert m["exact.pg2_exact.ms_s2"] == pytest.approx(3000.0)
    assert m["model.load_ensemble.s"] == pytest.approx(0.5)
    assert m["perturb.interval_prob.calls_per_query"] == 10
    assert m["exact.live_pair_share"] == pytest.approx(0.4)
    assert m["exact.live_pair_share.s1"] == pytest.approx(0.2)


def test_tail_is_the_value_with_ten_samples_beyond_it():
    pct, value = tail_latency(list(range(40)))
    assert (pct, value) == (75.0, 29)
    with pytest.raises(ValueError):
        tail_latency(list(range(10)))

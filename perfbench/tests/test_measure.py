"""Unit tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

from measure import (  # noqa: E402
    LayerSumError,
    StatsDelta,
    account,
    relative_spread,
    root_of,
    self_times,
    tail_percentile,
    windowed_tail,
)


# -- tail percentile ---------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 1001))  # 1000 samples
    q, value, beyond = tail_percentile(values)
    assert (q, beyond) == (99.0, 10)
    assert value == pytest.approx(990.01)


def test_tail_steps_down_when_samples_are_few():
    q, _, beyond = tail_percentile(list(range(100)))
    assert (q, beyond) == (90.0, 10)
    q, _, beyond = tail_percentile(list(range(72)))
    assert (q, beyond) == (75.0, 18)


def test_tail_falls_back_to_median():
    q, value, beyond = tail_percentile([5.0, 1.0, 3.0])
    assert q == 50.0 and value == 3.0 and beyond == 1


def test_tail_never_reports_a_percentile_with_fewer_beyond():
    for n in range(20, 400, 7):
        q, _, beyond = tail_percentile([float(i) for i in range(n)])
        assert beyond >= 10, (n, q, beyond)


def test_windowed_tail_takes_the_median_of_window_tails():
    calm = [float(i) for i in range(100)]          # p90 = 89.1
    slow = [float(i) * 3 for i in range(100)]      # one disturbed window
    q, value, beyond, used = windowed_tail([calm, calm, slow])
    assert (q, beyond, used) == (90.0, 10, 3)
    assert value == pytest.approx(89.1)


def test_windowed_tail_pools_small_windows():
    q, value, beyond, used = windowed_tail([[1.0] * 30, [2.0] * 30, [3.0] * 12])
    assert used == 1
    assert (q, beyond) == tail_percentile([1.0] * 30 + [2.0] * 30 + [3.0] * 12)[::2]


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    assert relative_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5
    )


# -- self-times on span trees -------------------------------------------------


def span(sid, name, start, end, parent=None, ctx=None, ctx_parent=None):
    return {"span_id": sid, "name": name, "start": start, "end": end,
            "parent_id": parent, "ctx_id": ctx, "ctx_parent_id": ctx_parent}


def test_self_time_subtracts_local_children():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 5.0, 6.0, parent=1),
        span(4, "a.k", 2.0, 3.0, parent=2),
    ]
    st = self_times(spans)
    assert st == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    assert sum(st.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_double_counted():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "x", 1.0, 6.0, parent=1),
        span(3, "y", 4.0, 8.0, parent=1),  # concurrent with x
    ]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_children_linked_only_through_ctx_parent_id():
    # A daemon's spans on another clock: linked to the client span by ctx
    # ids alone, so their durations (not their intervals) are subtracted.
    spans = [
        span(1, "client.compress", 0.0, 10.0, ctx="c1"),
        span(7, "service.request", 500.0, 506.0, ctx="s1", ctx_parent="c1"),
        span(8, "service.queue_wait", 500.0, 501.0, ctx="s2",
             ctx_parent="s1"),
        span(9, "sz.huffman", 501.0, 504.0, parent=7),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(4.0)
    assert st[7] == pytest.approx(2.0)  # 6 - 1 (ctx child) - 3 (local child)
    assert sum(st.values()) == pytest.approx(10.0)
    roots = root_of(spans)
    assert {roots[s]["span_id"] for s in (1, 7, 8, 9)} == {1}


def test_unlinked_spans_keep_their_full_duration():
    # Codec spans of an untraced request are roots: nothing links them to
    # service.request, which then still covers the codec time.  Summing
    # both is the double count the layer check exists to catch.
    spans = [
        span(1, "service.request", 0.0, 12.0),
        span(2, "sz.huffman", 3.0, 9.0),
    ]
    st = self_times(spans)
    assert st == pytest.approx({1: 12.0, 2: 6.0})
    with pytest.raises(LayerSumError):
        account(12.0, {"service.request": st[1], "sz.huffman": st[2]})


def test_self_time_never_negative_and_skips_open_spans():
    spans = [
        span(1, "p", 0.0, 1.0, ctx="p"),
        span(2, "r1", 0.0, 0.8, ctx="a", ctx_parent="p"),
        span(3, "r2", 0.0, 0.8, ctx="b", ctx_parent="p"),
        span(4, "open", 0.5, None, parent=1),
    ]
    st = self_times(spans)
    assert st[1] == 0.0
    assert 4 not in st


# -- STATS deltas --------------------------------------------------------------


def _counter(v):
    return {"type": "counter", "value": v}


def _hist(total, count):
    return {"type": "histogram", "sum": total, "count": count,
            "bounds": [1.0], "counts": [count, 0]}


def _router_stats(router, shards):
    return {
        "status": "ok", "role": "router", "metrics": router,
        "fleet": {"shards": {sid: {"metrics": m} for sid, m in shards.items()}},
    }


def test_stats_delta_sums_shards_and_reads_router_apart():
    before = _router_stats(
        {"router.requests": _counter(10.0), "router.latency_ms": _hist(50.0, 10)},
        {"s0": {'service.latency_ms{op="compress"}': _hist(40.0, 4),
                'spans.self_seconds{name="sz.huffman"}': _counter(1.0)},
         "s1": {'service.latency_ms{op="compress"}': _hist(10.0, 1)}},
    )
    after = _router_stats(
        {"router.requests": _counter(30.0), "router.latency_ms": _hist(250.0, 30)},
        {"s0": {'service.latency_ms{op="compress"}': _hist(140.0, 14),
                'service.latency_ms{op="health"}': _hist(3.0, 6),
                'spans.self_seconds{name="sz.huffman"}': _counter(1.5)},
         "s1": {'service.latency_ms{op="compress"}': _hist(60.0, 6),
                'spans.self_seconds{name="sz.huffman"}': _counter(0.25)}},
    )
    d = StatsDelta(before, after)
    assert d.value("router.requests", router=True) == 20.0
    assert d.value("router.latency_ms", router=True) == 200.0
    assert d.count("router.latency_ms", router=True) == 20.0
    assert d.value("router.requests") == 0.0  # not a shard metric
    assert d.op_latency_s(["compress"]) == pytest.approx((0.150, 15.0))
    assert d.other_ops_latency_s(["compress"]) == pytest.approx(0.003)
    assert d.span_self_seconds("sz.huffman") == pytest.approx(0.75)
    assert d.value("missing.counter") == 0.0


def test_stats_delta_of_a_single_daemon():
    before = {"status": "ok", "metrics": {"service.requests": _counter(2.0)}}
    after = {"status": "ok", "metrics": {"service.requests": _counter(7.0)}}
    assert StatsDelta(before, after).value("service.requests") == 5.0


# -- layer accounting -----------------------------------------------------------


def test_account_reports_the_remainder():
    out = account(10.0, {"a": 4.0, "b": 5.0})
    assert out["unattributed"] == pytest.approx(1.0)


def test_account_fails_when_a_derived_layer_is_negative():
    with pytest.raises(LayerSumError):
        account(10.0, {"a": 11.0, "transport": -1.0})


# -- the bound check ------------------------------------------------------------


def _violation(over_ulps: float, value: float, eb: float):
    """``(orig, dec)``: one float32 value broken by ``over_ulps`` ulps."""
    import numpy as np

    dec = np.array([value], dtype=np.float32)
    ulp = float(np.spacing(dec[0]))
    return np.array([value + eb + over_ulps * ulp], dtype=np.float64), dec


def test_bound_check_is_exact():
    import numpy as np

    from inputs import bound_check

    dec = np.array([1.0], dtype=np.float32)
    assert bound_check(np.array([1.5]), dec, 0.5)["violations"] == 0
    out = bound_check(np.array([1.5 + 1e-12]), dec, 0.5)
    assert (out["violations"], out["known"]) == (1, True)


def test_bound_check_flags_breaks_beyond_the_known_ulps():
    from inputs import bound_check

    orig, dec = _violation(1.5, 0.0145, 4.5e-5)
    assert bound_check(orig, dec, 4.5e-5)["known"]
    orig, dec = _violation(2.5, 0.0145, 4.5e-5)
    assert not bound_check(orig, dec, 4.5e-5)["known"]


def test_bound_check_counts_ulps_of_a_delta_steps_residual():
    import numpy as np

    from inputs import bound_check

    # 2.5 ulps of the decoded value, but the residual x - prev lies two
    # binades higher, so the break is under one of its ulps: the known
    # rounding.
    orig, dec = _violation(2.5, 0.0145, 4.5e-5)
    prev = np.array([0.0484], dtype=np.float32)
    assert not bound_check(orig, dec, 4.5e-5)["known"]
    assert bound_check(orig, dec, 4.5e-5, prev)["known"]


# -- the benchmark definition ---------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])

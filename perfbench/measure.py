"""Pure helpers of the benchmark: percentiles, spreads, span self-times,
STATS deltas and the layer-sum check.

Nothing here imports :mod:`repro`; every function works on plain
numbers, dicts and span records, so the unit tests drive them with
synthetic data.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Iterable, Mapping, Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float],
                    beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ``beyond`` samples
    strictly above its rank.

    Returns ``(q, value, samples_beyond)``.  With fewer than
    ``beyond + 1`` samples no percentile qualifies and the median is
    returned with however many samples lie above it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no values")
    for q in TAIL_LADDER:
        above = n - math.ceil(n * q / 100.0)
        if above >= beyond:
            return q, percentile(values, q), above
    return 50.0, percentile(values, 50.0), n - math.ceil(n * 0.5)


#: A window with at least this many samples gets a tail of its own.
TAIL_WINDOW_MIN = 10 * TAIL_BEYOND


def windowed_tail(windows: Sequence[Sequence[float]]) -> tuple[float, float, int, int]:
    """Tail latency that one disturbed window cannot move.

    When there are several windows and each holds at least
    :data:`TAIL_WINDOW_MIN` samples, every window gets the highest ladder
    percentile that leaves :data:`TAIL_BEYOND` samples beyond it in each
    of them, and the median of the window values is returned.  Otherwise
    all samples are pooled into one window.  Returns ``(q, value,
    samples beyond per window, windows used)``.
    """
    windows = [w for w in windows if len(w)]
    if len(windows) < 2 or min(map(len, windows)) < TAIL_WINDOW_MIN:
        pooled = [x for w in windows for x in w]
        q, value, beyond = tail_percentile(pooled)
        return q, value, beyond, 1
    q = min(tail_percentile(w)[0] for w in windows)
    value = statistics.median(percentile(w, q) for w in windows)
    beyond = min(len(w) - math.ceil(len(w) * q / 100.0) for w in windows)
    return q, value, beyond, len(windows)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (``statistics.quantiles``,
    ``n=4``), the steadiness measure the benchmark is tuned against."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else math.inf


# -- span trees --------------------------------------------------------------


def _get(span: Any, key: str) -> Any:
    return span.get(key) if isinstance(span, Mapping) else getattr(span, key)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Any]) -> dict[int, float]:
    """Self-time per span: its duration minus the time its children cover.

    ``spans`` are :class:`repro.telemetry.Span` objects or their
    ``to_dict`` records.  A child is linked to its parent either through
    ``parent_id`` (same tracer, same clock: the covered time is the union
    of the child intervals clipped to the parent) or, failing that,
    through ``ctx_parent_id`` naming the parent's ``ctx_id`` (another
    process, another clock: the children's durations are summed).  The
    covered time is capped at the parent's duration, so concurrent
    children never drive a self-time below zero.  Keys are ``span_id``.
    """
    spans = list(spans)
    by_id = {_get(s, "span_id"): s for s in spans}
    by_ctx = {
        _get(s, "ctx_id"): s for s in spans if _get(s, "ctx_id") is not None
    }
    local: dict[int, list[tuple[float, float]]] = {}
    remote: dict[int, float] = {}
    for s in spans:
        start, end = _get(s, "start"), _get(s, "end")
        if end is None:
            continue
        parent = by_id.get(_get(s, "parent_id"))
        if parent is not None:
            local.setdefault(_get(parent, "span_id"), []).append((start, end))
            continue
        parent = by_ctx.get(_get(s, "ctx_parent_id"))
        if parent is not None and parent is not s:
            pid = _get(parent, "span_id")
            remote[pid] = remote.get(pid, 0.0) + (end - start)
    out: dict[int, float] = {}
    for s in spans:
        sid = _get(s, "span_id")
        start, end = _get(s, "start"), _get(s, "end")
        if end is None:
            continue
        dur = end - start
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in local.get(sid, ())
            if min(hi, end) > max(lo, start)
        ]
        covered = _union_length(clipped) + remote.get(sid, 0.0)
        out[sid] = dur - min(dur, covered)
    return out


def root_of(spans: Iterable[Any]) -> dict[int, Any]:
    """Map every span id to the root span of its tree (either link)."""
    spans = list(spans)
    by_id = {_get(s, "span_id"): s for s in spans}
    by_ctx = {
        _get(s, "ctx_id"): s for s in spans if _get(s, "ctx_id") is not None
    }

    def parent(s: Any) -> Any:
        p = by_id.get(_get(s, "parent_id"))
        if p is None:
            p = by_ctx.get(_get(s, "ctx_parent_id"))
        return None if p is s else p

    out: dict[int, Any] = {}
    for s in spans:
        cur, seen = s, set()
        while True:
            p = parent(cur)
            if p is None or _get(p, "span_id") in seen:
                break
            seen.add(_get(cur, "span_id"))
            cur = p
        out[_get(s, "span_id")] = cur
    return out


# -- STATS deltas ------------------------------------------------------------


#: ``metric name -> (counter value or histogram sum, histogram count)``
Values = dict[str, tuple[float, float]]


def _metric_values(snapshot: Mapping[str, Any]) -> Values:
    out: Values = {}
    for name, m in (snapshot or {}).items():
        if m.get("type") == "histogram":
            out[name] = (float(m.get("sum", 0.0)), float(m.get("count", 0)))
        else:
            out[name] = (float(m.get("value", 0.0)), 0.0)
    return out


def stats_metrics(stats: Mapping[str, Any]) -> dict[str, Values]:
    """Per-process metric values from one router (or daemon) STATS reply.

    Keys are ``"router"`` and each shard id for a router reply, or
    ``"daemon"`` for a single daemon.
    """
    if stats.get("role") == "router":
        out = {"router": _metric_values(stats.get("metrics", {}))}
        for shard, snap in (stats.get("fleet", {}).get("shards") or {}).items():
            out[str(shard)] = _metric_values(snap.get("metrics", {}))
        return out
    return {"daemon": _metric_values(stats.get("metrics", {}))}


class StatsDelta:
    """Counter and histogram deltas between two STATS replies.

    ``value(name)`` sums a counter (or a histogram's sum) over the
    shards, ``count(name)`` a histogram's sample count; ``router=True``
    reads the router's own registry instead.  Gauges are not deltas and
    should not be read through this class.
    """

    def __init__(self, before: Mapping[str, Any],
                 after: Mapping[str, Any]) -> None:
        b, a = stats_metrics(before), stats_metrics(after)
        self.procs: dict[str, Values] = {}
        for proc, metrics in a.items():
            prev = b.get(proc, {})
            self.procs[proc] = {
                name: (v - prev.get(name, (0.0, 0.0))[0],
                       c - prev.get(name, (0.0, 0.0))[1])
                for name, (v, c) in metrics.items()
            }

    def _shards(self) -> list[Values]:
        return [m for p, m in self.procs.items() if p != "router"]

    def value(self, name: str, router: bool = False) -> float:
        if router:
            return self.procs.get("router", {}).get(name, (0.0, 0.0))[0]
        return sum(m.get(name, (0.0, 0.0))[0] for m in self._shards())

    def count(self, name: str, router: bool = False) -> float:
        if router:
            return self.procs.get("router", {}).get(name, (0.0, 0.0))[1]
        return sum(m.get(name, (0.0, 0.0))[1] for m in self._shards())

    def names(self, prefix: str = "", router: bool = False) -> set[str]:
        procs = [self.procs.get("router", {})] if router else self._shards()
        return {n for m in procs for n in m if n.startswith(prefix)}

    def span_self_seconds(self, span_name: str) -> float:
        return self.value(f'spans.self_seconds{{name="{span_name}"}}')

    def span_seconds(self, span_name: str) -> float:
        return self.value(f'spans.seconds{{name="{span_name}"}}')

    def op_latency_s(self, ops: Iterable[str]) -> tuple[float, float]:
        """Daemon-side ``(seconds, requests)`` of the named ops."""
        names = [f'service.latency_ms{{op="{op}"}}' for op in ops]
        return (sum(self.value(n) for n in names) / 1e3,
                sum(self.count(n) for n in names))

    def other_ops_latency_s(self, ops: Iterable[str]) -> float:
        """Daemon-side seconds of every op *not* named (probes, STATS)."""
        keep = {f'service.latency_ms{{op="{op}"}}' for op in ops}
        return sum(
            self.value(n) for n in self.names('service.latency_ms{op=')
            if n not in keep
        ) / 1e3


# -- layer accounting --------------------------------------------------------


class LayerSumError(AssertionError):
    """The per-layer self-times add up to more than the observed time."""


def account(observed_s: float, layers: Mapping[str, float],
            rel_tol: float = 1e-9) -> dict[str, float]:
    """Close the per-layer books against the client-observed time.

    ``layers`` are disjoint self-times.  Layers derived as a difference
    of two measurements can come out negative when another layer
    over-counts; they are reported as zero, which makes the sum exceed
    the observed time and fails the check, so an over-count never hides
    inside a remainder.  Returns the layers plus ``unattributed``.
    """
    clipped = {k: max(0.0, float(v)) for k, v in layers.items()}
    total = sum(clipped.values())
    if total > observed_s * (1.0 + rel_tol) + 1e-12:
        worst = {k: v for k, v in layers.items() if v < 0}
        raise LayerSumError(
            f"layers sum to {total:.6f} s > client-observed "
            f"{observed_s:.6f} s (negative remainders: {worst})"
        )
    clipped["unattributed"] = observed_s - total
    return clipped

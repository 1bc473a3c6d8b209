"""The three closed-loop workloads.

Each drives the program only through its public entry points and
returns a :class:`Run`: per-operation timings, byte-identity results
against the library references of :mod:`inputs`, and, when traced, the
per-layer breakdown.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import inputs
from measure import StatsDelta, account
from tracing import Tap, codec_layers

#: Minimum requests of one service-small run.
MIN_REQUESTS = 1000
#: Requests the PooledClient keeps in flight.  One: with two, the client,
#: the router and both shards contend for the host's two cores, and runs
#: spread about twice as wide (README.md, ``service-small``).
IN_FLIGHT = 1
#: Most candidate session ids tried per field of the in-situ workload
#: while looking for one the router places on the wanted shard.
PLACEMENT_TRIES = 64
#: Codec ops of the service workload: three compresses per decompress.
DECOMPRESS_EVERY = 4
#: Requests per measured window of the service workload.
WINDOW = 100


@dataclass
class Op:
    """One attempted operation and what its check found."""

    kind: str          # "compress" or "decompress"
    nbytes: int        # uncompressed bytes
    latency_s: float   # client-observed
    out_bytes: int = 0
    ok: bool = True    # no exception, byte-identical to the library
    ref: dict | None = None  # library reference of the decoded output
    window: int = 0    # index into Run.window_walls


@dataclass
class Run:
    ops: list[Op] = field(default_factory=list)
    #: Wall seconds of each measured window (a pass, 100 requests, a
    #: time step); throughputs are medians over windows.
    window_walls: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    layer_metrics: dict[str, float] = field(default_factory=dict)
    #: Generator-side codec time (benchmark root spans), traced runs.
    codec_s: float = 0.0

    def add(self, op: Op, error: str | None = None) -> None:
        self.ops.append(op)
        if error is not None:
            op.ok = False
            if len(self.errors) < 5:
                self.errors.append(error)


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- nyx-snapshot: the library path ------------------------------------------


def nyx_snapshot(fields: dict[str, np.ndarray], record: dict, seconds: float,
                 tap: Tap | None = None) -> Run:
    """Every field through SZ ABS and ZFP fixed-rate, compress then
    decompress, in whole passes until ``seconds`` have elapsed."""
    from repro.compressors import get_compressor

    sz, zfp = get_compressor("sz"), get_compressor("zfp")
    refs = record["refs"]
    run = Run()

    def timed(root: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        if tap is None:
            out = fn(*args, **kwargs)
        else:
            with tap.op(root):
                out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    while not run.ops or sum(run.window_walls) < seconds:
        window = len(run.window_walls)
        start = time.perf_counter()
        for name, f in fields.items():
            ref = refs[name]
            for codec, comp, params in (
                ("sz", sz, {"mode": "abs", "error_bound": ref["eb"]}),
                ("zfp", zfp, {"mode": "fixed_rate",
                              "rate": inputs.NYX_RATES[name]}),
            ):
                want = ref[codec]
                buf, dt = timed(f"bench.{codec}.compress", comp.compress,
                                f, **params)
                op = Op("compress", f.nbytes, dt, len(buf.payload), ref=want,
                        window=window)
                run.add(op, None if inputs.digest(buf.payload) == want["sha"]
                        else f"{codec} {name}: stream differs from library")
                dec, dt = timed(f"bench.{codec}.decompress",
                                comp.decompress, buf)
                op = Op("decompress", f.nbytes, dt, ref=want, window=window)
                run.add(op, None if inputs.digest(dec) == want["decoded_sha"]
                        else f"{codec} {name}: decoded values differ")
        run.window_walls.append(time.perf_counter() - start)
    run.peak_rss_mb = _rss_self_mb()
    if tap is not None:
        observed = sum(op.latency_s for op in run.ops)
        layers, metrics, run.codec_s = codec_layers(
            tap.tm.tracer.finished_spans())
        run.layers = account(observed, layers)
        run.layer_metrics = metrics
    return run


# -- service workloads: shared STATS accounting --------------------------------


def _shard_layers(delta: StatsDelta, ops: tuple[str, ...],
                  router_extra_s: float) -> tuple[dict, dict, float, float]:
    """Router and shard time of the named ops, split into disjoint layers.

    Returns ``(layers, metrics, shard seconds, requests)``.  Every figure is a
    delta of the router's and shards' STATS over the measured window.
    """
    shard_s, n = delta.op_latency_s(ops)
    router_s = max(0.0, delta.value("router.latency_ms", router=True) / 1e3
                   - router_extra_s)
    other_s = delta.other_ops_latency_s(ops)
    attach = delta.span_seconds("shm.attach")
    # Reply spans of probes and STATS are bounded by those ops' latency.
    reply = max(0.0, delta.span_seconds("service.reply") - other_s)
    codec = {s: delta.span_self_seconds(s) for s in
             ("sz.prequant", "sz.predict", "sz.huffman", "sz.lossless",
              "zfp.transform", "zfp.reorder", "zfp.bitplane")}
    codec = {k: v for k, v in codec.items() if v}
    layers = {
        "router.forward": router_s - shard_s,
        "shm.attach": attach,
        "service.reply": reply,
        **{f"shard.{k}": v for k, v in codec.items()},
    }
    per = 1e3 / max(n, 1)
    metrics = {
        "router.forward_ms": (router_s - shard_s) * per,
        "router.requests": delta.value("router.requests", router=True),
        "router.failovers": delta.value("router.failovers", router=True),
        "router.hedges": delta.value("router.hedges", router=True),
        "router.forward_errors": delta.value("router.forward_errors",
                                             router=True),
        "service.reply_ms": reply * per,
        "service.request_self_ms": max(
            0.0, delta.span_self_seconds("service.request") - other_s) * per,
        "service.rejected_busy": delta.value("service.rejected_busy"),
        "shm.attach_ms": attach * per,
        "shm.segments_attached": delta.value("shm.segments_attached"),
        "client.shm_share": delta.value("service.shm_requests") / max(n, 1),
    }
    return layers, metrics, shard_s, n


def _stats(client) -> tuple[dict, float]:
    t0 = time.perf_counter()
    stats = client.stats()
    return stats, time.perf_counter() - t0


# -- service-small: PooledClient, 1 in flight ---------------------------------


def service_small(fields: dict[str, np.ndarray], record: dict, seconds: float,
                  port: int, seed: int, stats_client,
                  tap: Tap | None = None,
                  min_requests: int = MIN_REQUESTS) -> Run:
    """Closed loop of 128 KiB SZ requests, three compresses per
    decompress, over one pipelined connection to the router.

    The loop runs in windows of :data:`WINDOW` requests; one untimed
    window first warms the fleet up.
    """
    from repro.service.client import PooledClient

    refs = record["refs"]
    tiles: list[tuple[str, np.ndarray, dict]] = []
    for name, f in fields.items():
        for i, t in enumerate(inputs.tiles(f)):
            tiles.append((name, t, refs[name]["tiles"][i]))
    run = Run()
    with PooledClient(port=port, connections=1, seed=seed) as client:
        loop = _PooledLoop(client, tiles,
                           {n: refs[n]["eb"] for n in fields}, seed)
        loop.window(Run())
        loop.submit_s = 0.0
        if tap is not None:
            before, stats_s = _stats(stats_client)
        # Replies are decoded on the client's reader thread, so the traced
        # allocation peak is taken over the whole loop.
        with tap.op() if tap is not None else contextlib.nullcontext():
            while (len(run.ops) < min_requests
                   or sum(run.window_walls) < seconds):
                loop.window(run)
    if tap is None:
        return run
    after, _ = _stats(stats_client)
    delta = StatsDelta(before, after)
    ops = ("compress", "decompress")
    layers, metrics, shard_s, n = _shard_layers(delta, ops, stats_s)
    dispatch_s = sum(
        delta.value(f'service.dispatch_ms{{op="{op}"}}') for op in ops
    ) / 1e3
    batches = delta.value("service.batches")
    size_mean = delta.value("service.batched_requests") / max(batches, 1)
    # One dispatch interval is waited out by every member of its batch.
    dispatch_s *= size_mean
    codec_s = sum(v for k, v in layers.items() if k.startswith("shard."))
    observed = sum(op.latency_s for op in run.ops)
    router_s = shard_s + layers["router.forward"]
    layers.update({
        "client.submit": loop.submit_s,
        "transport": observed - loop.submit_s - router_s,
        "batch.dispatch_glue": dispatch_s - codec_s,
        "batch.queue_wait": (shard_s - layers["shm.attach"]
                             - layers["service.reply"] - dispatch_s),
    })
    per = 1e3 / max(n, 1)
    metrics.update({
        "client.submit_ms": loop.submit_s / len(run.ops) * 1e3,
        "transport_ms": layers["transport"] * per,
        "batch.queue_wait_ms": layers["batch.queue_wait"] * per,
        "batch.dispatch_ms": dispatch_s * per,
        "batch.size_mean": size_mean,
    })
    run.layers = account(observed, layers)
    run.layer_metrics = metrics
    return run


class _PooledLoop:
    """The request generator of ``service-small``."""

    def __init__(self, client, tiles, eb: dict[str, float],
                 seed: int) -> None:
        self.client = client
        self.tiles = tiles
        self.eb = eb
        self.rng = np.random.default_rng(seed)
        self.order: deque[int] = deque()
        #: Compressed buffers waiting to be sent back for decompression.
        self.pending: deque[tuple[int, Any]] = deque()
        self.done_at: dict[int, float] = {}
        self.submit_s = 0.0

    def _next_tile(self) -> int:
        if not self.order:
            self.order.extend(self.rng.permutation(len(self.tiles)).tolist())
        return self.order.popleft()

    def _submit(self, sent: int):
        t0 = time.perf_counter()
        if sent % DECOMPRESS_EVERY == DECOMPRESS_EVERY - 1 and self.pending:
            idx, buf = self.pending.popleft()
            fut = self.client.decompress_async(buf)
            kind = "decompress"
        else:
            idx = self._next_tile()
            name, t, _ = self.tiles[idx]
            fut = self.client.compress_async(t, "sz", mode="abs",
                                        value=self.eb[name])
            kind = "compress"
        self.submit_s += time.perf_counter() - t0
        fut.add_done_callback(
            lambda f: self.done_at.__setitem__(id(f), time.perf_counter())
        )
        return fut, (kind, idx, t0)

    def window(self, run: Run) -> None:
        """:data:`WINDOW` requests, appended to ``run`` as one window."""
        window = len(run.window_walls)
        inflight: dict[Any, tuple[str, int, float]] = {}
        sent = 0
        start = time.perf_counter()
        while sent < WINDOW or inflight:
            while sent < WINDOW and len(inflight) < IN_FLIGHT:
                fut, meta = self._submit(sent)
                inflight[fut] = meta
                sent += 1
            done, _ = concurrent.futures.wait(
                list(inflight), return_when=concurrent.futures.FIRST_COMPLETED
            )
            for fut in done:
                kind, idx, t0 = inflight.pop(fut)
                _record(run, fut, kind, self.done_at.pop(id(fut)) - t0,
                        idx, self.tiles[idx], self.pending, window)
        run.window_walls.append(time.perf_counter() - start)


def _record(run: Run, fut, kind: str, latency: float, idx: int, tile,
            pending: deque, window: int) -> None:
    """Check one completed request against the library reference."""
    _, t, ref = tile
    exc = fut.exception()
    if exc is not None:
        run.add(Op(kind, t.nbytes, latency, ref=ref, window=window),
                f"{kind}: {type(exc).__name__}: {exc}")
        return
    out = fut.result()
    if kind == "compress":
        op = Op(kind, t.nbytes, latency, len(out.payload), ref=ref,
                window=window)
        same = inputs.digest(out.payload) == ref["sha"]
        if same:
            pending.append((idx, out))
    else:
        op = Op(kind, t.nbytes, latency, ref=ref, window=window)
        same = inputs.digest(np.ascontiguousarray(out)) == ref["decoded_sha"]
    run.add(op, None if same else f"{kind} tile {idx}: differs from library")


# -- insitu-session: one blocking ServiceClient, temporal sessions -----------


def _placed_session_ids(client, seed: int, names: list[str]) -> dict[str, str]:
    """Seed-derived session ids that the router places on distinct shards,
    field ``i`` on the ``i``-th shard in sorted order.

    Where a session lands decides how many sessions each shard holds at
    once, and with it the fleet's peak RSS (one session on each of two
    shards against both on one: about 0.1 GB apart).  Each candidate id is
    opened, looked up in the fleet's STATS and closed again.
    """
    shards = sorted(client.stats()["fleet"]["shards"])
    ids: dict[str, str] = {}
    for i, name in enumerate(names):
        want = shards[i % len(shards)]
        for k in range(PLACEMENT_TRIES):
            sid = f"perfbench-{seed}-{name}-{k}"
            with client.session_open("sz", session_id=sid):
                fleet = client.stats()["fleet"]["shards"]
            where = [s for s, v in fleet.items()
                     if any(x["id"] == sid for x in v["sessions"]["sessions"])]
            if where == [want]:
                ids[name] = sid
                break
        else:
            raise RuntimeError(f"no session id of {name} lands on {want}")
    return ids


def insitu_session(fields: dict[str, np.ndarray], record: dict,
                   seconds: float, port: int, seed: int, client,
                   tap: Tap | None = None) -> Run:
    """One temporal session per field, every step of the series, in
    whole passes; the client decodes every TMP1 frame with the library."""
    from repro.compressors import TemporalCompressor

    refs = record["refs"]
    run = Run()
    decode_s = 0.0
    control_s = 0.0
    steps = inputs.SERIES_STEPS
    #: (field, step) -> reference row plus the decoded step's quality,
    #: measured on the first pass; later passes must decode the same bytes.
    checked: dict[tuple[str, int], dict] = {}
    #: Each field's previously decoded step, the reference of a delta step.
    prevs: dict[str, np.ndarray] = {}
    ids = _placed_session_ids(client, seed, list(fields))
    # One untimed step per field first: the shards' and the client's
    # first 8 MiB segments and buffers are allocated here, not in a pass.
    for name, stack in fields.items():
        with client.session_open(
            "sz", mode="abs", value=refs[name]["eb"],
            keyframe_every=inputs.KEYFRAME_EVERY, session_id=ids[name],
        ) as session:
            session.step(stack[0])
    if tap is not None:
        before, stats_s = _stats(client)
    passes = 0
    while passes == 0 or sum(run.window_walls) < seconds:
        t0 = time.perf_counter()
        sessions = {
            name: client.session_open(
                "sz", mode="abs", value=refs[name]["eb"],
                keyframe_every=inputs.KEYFRAME_EVERY,
                session_id=ids[name],
            )
            for name in fields
        }
        decoders = {
            name: TemporalCompressor(inner="sz",
                                     keyframe_every=inputs.KEYFRAME_EVERY)
            for name in fields
        }
        control_s += time.perf_counter() - t0
        for step in range(steps):
            window = len(run.window_walls)
            start = time.perf_counter()
            check_s = 0.0
            for name, stack in fields.items():
                snap = stack[step]
                ref = refs[name]["steps"][step]
                t0 = time.perf_counter()
                try:
                    if tap is None:
                        _, frame = sessions[name].step(snap)
                    else:
                        with tap.op():
                            _, frame = sessions[name].step(snap)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    run.add(Op("compress", snap.nbytes,
                               time.perf_counter() - t0, ref=ref,
                               window=window),
                            f"step {step} {name}: {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - t0
                t0 = time.perf_counter()
                if tap is None:
                    dec = decoders[name].decompress(frame)
                else:
                    with tap.op("bench.temporal.decompress"):
                        dec = decoders[name].decompress(frame)
                dt = time.perf_counter() - t0
                decode_s += dt
                t0 = time.perf_counter()
                dec_sha = inputs.digest(dec)
                if (name, step) not in checked:
                    eb = refs[name]["eb"]
                    prev = (None if step % inputs.KEYFRAME_EVERY == 0
                            else prevs[name])
                    checked[name, step] = {
                        **ref, **inputs.bound_check(snap, dec, eb, prev),
                        **inputs.quality(snap, dec, record["box_size"],
                                         drift=step == steps - 1),
                    }
                ref = checked[name, step]
                same = (inputs.digest(frame) == ref["sha"]
                        and dec_sha == ref["decoded_sha"])
                prevs[name] = dec
                check_s += time.perf_counter() - t0
                op = Op("compress", snap.nbytes, latency, len(frame), ref=ref,
                        window=window)
                run.add(op, None if same
                        else f"step {step} {name}: differs from library")
                run.add(Op("decompress", snap.nbytes, dt, ref=ref,
                           window=window))
            run.window_walls.append(time.perf_counter() - start - check_s)
        t0 = time.perf_counter()
        for session in sessions.values():
            session.close()
        control_s += time.perf_counter() - t0
        passes += 1
    if tap is not None:
        after, _ = _stats(client)
        delta = StatsDelta(before, after)
        ops = ("session_open", "session_step", "session_close")
        layers, metrics, shard_s, n = _shard_layers(delta, ops, stats_s)
        step_s, n_steps = delta.op_latency_s(("session_step",))
        codec_s = sum(v for k, v in layers.items() if k.startswith("shard."))
        steps_latency = sum(op.latency_s for op in run.ops
                            if op.kind == "compress")
        router_s = shard_s + layers["router.forward"]
        client_layers, client_metrics, run.codec_s = codec_layers(
            tap.tm.tracer.finished_spans()
        )
        layers.update({f"client.{k}": v for k, v in client_layers.items()})
        layers.update({
            "transport": steps_latency + control_s - router_s,
            "sessions.step_glue": (shard_s - layers["shm.attach"]
                                   - layers["service.reply"] - codec_s),
        })
        observed = steps_latency + control_s + decode_s
        metrics.update(client_metrics)
        metrics.update({
            "transport_ms": layers["transport"] / max(n, 1) * 1e3,
            "sessions.step_ms": step_s / max(n_steps, 1) * 1e3,
            "sessions.steps": delta.value("service.session_steps"),
            "sessions.desyncs": delta.value("service.session_desyncs"),
        })
        run.layers = account(observed, layers)
        run.layer_metrics = metrics
    return run

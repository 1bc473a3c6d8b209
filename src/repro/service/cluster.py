"""The cluster router: N compression daemons behaving as one service.

One daemon (:mod:`repro.service.server`) is a process; this module is
the *system* — the front-end that makes a fleet of daemon shards look
like a single MSG1 endpoint to every existing client.  A
:class:`ClusterRouter` accepts the same wire protocol the daemon
speaks, so :class:`~repro.service.client.ServiceClient` (and anything
else that talks MSG1) points at the router unchanged, and adds the
four things a single process cannot have:

* **placement** — COMPRESS/DECOMPRESS/SWEEP requests are routed by a
  consistent hash of their cache identity
  (:func:`routing_key` → :class:`~repro.service.ring.HashRing`), so a
  repeat sweep of the same field lands on the shard whose
  :class:`~repro.cache.ResultCache` is already warm;
* **membership** — a per-shard HEALTH probe loop feeds the
  :class:`~repro.service.membership.MembershipTable`; a shard that
  misses ``fail_after`` consecutive probes is drained from the ring
  (its keyspace arcs fail over to its ring neighbours) and re-admitted
  after ``recover_after`` clean probes;
* **hedging / failover** — a forward that errors fails over to the
  next shard in the key's ring preference order; a forward that is
  merely *slow* is hedged after ``hedge_after_s`` (a duplicate goes to
  the next preference, first reply wins, the loser's request id is
  abandoned: its late reply is drained off the shard's pipelined
  channel with the connection kept, so a late duplicate reply can
  never be delivered);
* **fleet observability** — STATS merges every shard's snapshot into
  one picture, METRICS re-labels every shard's Prometheus exposition
  with ``shard="..."`` (the router itself reports as
  ``shard="router"``), and the CLUSTER op dumps topology, membership
  state, and ring ownership shares.

Shards are either **addressed** (a ``host:port`` list — processes some
init system owns) or **spawned** (``spawn=N`` local subprocesses,
supervised through :class:`repro.parallel.daemons.DaemonProcess`,
SIGTERM-drained when the router drains).

A traced request stays one tree across the extra hop: the router
adopts the client's context, opens ``router.request`` /
``router.forward`` spans under it, and re-injects its context into the
forwarded header — so the shard's ``service.request`` (and its queue /
dispatch / worker-process spans) stitch under the router's forward
span, client → router → shard → worker (``docs/OBSERVABILITY.md``).

The routing key is deterministic and cheap (one blake2b over the
header's cache identity plus the payload):

>>> import numpy as np
>>> from repro.service import protocol
>>> arr = np.zeros(8, dtype=np.float32)
>>> h = {"op": "compress", "compressor": "sz", "mode": "abs",
...      "value": 0.1, **protocol.array_fields(arr)}
>>> k1 = routing_key(h, protocol.pack_array(arr))
>>> k1 == routing_key(dict(h), protocol.pack_array(arr))  # deterministic
True
>>> routing_key({"op": "health"}, b"") is None            # control plane
True

See ``docs/CLUSTER.md`` for the operator's handbook.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import os
import signal
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from repro.errors import ProtocolError, ServiceError
from repro.parallel.shm import shm_enabled
from repro.service import protocol
from repro.service.client import _is_loopback
from repro.service.membership import MembershipTable
from repro.service.ring import HashRing
from repro.service.server import LATENCY_BOUNDS, SPAN_RETENTION, _percentile
from repro.telemetry import Telemetry, get_telemetry, set_telemetry
from repro.telemetry import context as trace_context

logger = logging.getLogger("repro.service.cluster")

__all__ = [
    "DEFAULT_ROUTER_PORT",
    "ClusterRouter",
    "ClusterThread",
    "routing_key",
]

#: Default router port (one above the daemon's 9461 family).
DEFAULT_ROUTER_PORT = 9470

#: Ops the router answers itself; everything else is forwarded.
ROUTER_OPS = frozenset({"health", "stats", "metrics", "cluster"})

#: How many recent routed-request latencies the percentile window keeps.
LATENCY_WINDOW = 4096


def routing_key(header: dict[str, Any], payload: bytes) -> bytes | None:
    """The consistent-hash key of one request, or ``None`` for keyless ops.

    The key covers exactly the request's *cache identity* — the fields
    that make two requests interchangeable work (compressor, options,
    mode, knob value, dtype/shape for COMPRESS; the sweep spec for
    SWEEP) plus the payload bytes — so equal work hashes to the same
    shard and its warm :class:`~repro.cache.ResultCache` entry, while
    ids, deadlines, and trace headers never perturb placement.
    """
    op = str(header.get("op", "")).lower()
    if op.startswith("session"):
        # Session ops hash the session id and *nothing else* — not the
        # payload, not the reference digest — so every step of one
        # session lands on the shard whose session table holds its
        # reference snapshot (shard-sticky placement, docs/INSITU.md).
        sid = header.get(protocol.SESSION_FIELD)
        if sid is None:
            return None
        h = hashlib.blake2b(digest_size=16)
        h.update(b"session:")
        h.update(str(sid).encode())
        return h.digest()
    if op == "compress":
        ident = [op, header.get("compressor"), header.get("options") or {},
                 header.get("mode"), header.get("value"),
                 header.get("dtype"), header.get("shape")]
    elif op == "decompress":
        ident = [op, header.get("compressor"), header.get("options") or {},
                 header.get("mode"), header.get("parameter"),
                 header.get("dtype"), header.get("shape")]
    elif op == "sweep":
        ident = [op, header.get("field"), header.get("sweeps")]
    else:
        return None
    # Zero-copy requests carry their bulk data as a shared-memory
    # descriptor and an empty frame payload — fold the descriptor into
    # the identity so placement stays deterministic for them too.
    shm = header.get(protocol.SHM_FIELD)
    if shm is not None:
        ident.append(shm)
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps(ident, sort_keys=True, default=str).encode())
    h.update(payload)
    return h.digest()


class ShardChannel:
    """One pipelined connection to a shard, multiplexed by request id.

    The router assigns its *own* per-channel ids (the client's ``id``
    is restored on the way back), writes frames under a send lock, and
    a reader task completes per-request futures as replies arrive — in
    any order.  Cancelling a waiter (hedge loser, timeout) just forgets
    its id: when the shard's reply eventually lands, the reader drops
    it by id and the connection stays open — no socket churn, and a
    late duplicate reply can never reach a client.
    """

    def __init__(self, shard_id: str, host: str, port: int,
                 max_payload_bytes: int) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.max_payload_bytes = max_payload_bytes
        self.caps: frozenset[str] = frozenset()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._send_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: asyncio.Task | None = None
        self._closed = False
        #: Late replies dropped by id with the connection kept open.
        self.drains = 0

    @property
    def closed(self) -> bool:
        return self._closed

    async def open(self) -> None:
        """Dial and HELLO; the shard must pipeline.  The caller bounds
        it; a failure or cancellation closes the half-open socket."""
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            await protocol.write_frame(
                self._writer,
                {"op": "hello", protocol.CAPS_FIELD: [protocol.CAP_PIPELINE]},
            )
            frame = await protocol.read_frame(
                self._reader, self.max_payload_bytes
            )
            if frame is None:
                raise ProtocolError(
                    f"shard {self.shard_id} closed during HELLO"
                )
            reply, _ = frame
            caps = (
                reply.get(protocol.CAPS_FIELD)
                if reply.get("status") == "ok" else None
            )
            self.caps = frozenset(caps if isinstance(caps, list) else ())
            if protocol.CAP_PIPELINE not in self.caps:
                raise ProtocolError(
                    f"shard {self.shard_id} does not pipeline "
                    f"(HELLO reply: {reply})"
                )
        except BaseException:
            self.close()
            raise
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    async def request(
        self, header: dict[str, Any], payload: bytes, timeout_s: float
    ) -> tuple[dict[str, Any], bytes]:
        """One multiplexed round trip; safe to cancel at any point."""
        if self._closed:
            raise ProtocolError(f"channel to {self.shard_id} is closed")
        loop = asyncio.get_running_loop()
        client_id = header.get("id")
        future: asyncio.Future = loop.create_future()
        async with self._send_lock:
            if self._closed:
                raise ProtocolError(f"channel to {self.shard_id} is closed")
            self._next_id += 1
            rid = self._next_id
            self._pending[rid] = future
            try:
                await protocol.write_frame(
                    self._writer, {**header, "id": rid}, payload
                )
            except OSError:
                self._pending.pop(rid, None)
                self._fail(ProtocolError(
                    f"channel to {self.shard_id} broke mid-send"
                ))
                raise
        try:
            reply, body = await asyncio.wait_for(future, timeout=timeout_s)
        except (asyncio.CancelledError, asyncio.TimeoutError):
            # Abandon the id; the reader will drain the late reply and
            # keep the connection.  Tell the shard not to bother if the
            # request is still queued over there.
            if self._pending.pop(rid, None) is not None:
                self._cancel_soon(rid)
            raise
        reply = dict(reply)
        if client_id is not None:
            reply["id"] = client_id
        else:
            reply.pop("id", None)
        return reply, body

    def _cancel_soon(self, target: int) -> None:
        """Best-effort CANCEL for an abandoned id (fire and forget)."""
        if self._closed:
            return

        async def _send() -> None:
            with contextlib.suppress(OSError, asyncio.CancelledError):
                async with self._send_lock:
                    if self._closed:
                        return
                    self._next_id += 1
                    rid = self._next_id
                    future = asyncio.get_running_loop().create_future()
                    future.add_done_callback(
                        lambda f: f.cancelled() or f.exception()
                    )
                    self._pending[rid] = future
                    await protocol.write_frame(
                        self._writer,
                        {"op": "cancel", "cancel_id": target, "id": rid},
                    )

        asyncio.get_running_loop().create_task(_send())

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame(
                    self._reader, self.max_payload_bytes
                )
                if frame is None:
                    self._fail(ProtocolError(
                        f"shard {self.shard_id} closed the channel"
                    ))
                    return
                reply, body = frame
                future = self._pending.pop(reply.get("id"), None)
                if future is None:
                    # A hedge loser's (or timed-out) reply — drained.
                    self.drains += 1
                    get_telemetry().count("router.hedge_drains")
                    continue
                if not future.done():
                    future.set_result((reply, body))
        except (OSError, ProtocolError) as exc:
            self._fail(exc)
        except asyncio.CancelledError:
            raise

    def _fail(self, exc: Exception) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()

    def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        self._fail(ProtocolError(f"channel to {self.shard_id} closed"))


class ShardHandle:
    """One shard endpoint: identity, optional subprocess, data path.

    Every forward (and probe) multiplexes over one :class:`ShardChannel`,
    opened on demand with a HELLO that must grant ``pipeline``; hedge
    losers are drained by id with the connection kept.  A shard whose
    HELLO fails is a failed shard.
    """

    def __init__(self, shard_id: str, host: str, port: int, proc=None) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.proc = proc  # DaemonProcess for spawned shards, else None
        self.channel: ShardChannel | None = None
        self._channel_lock = asyncio.Lock()

    async def get_channel(
        self, timeout_s: float, connect_timeout_s: float,
        max_payload_bytes: int,
    ) -> ShardChannel:
        """The live channel, opened (or awaited) within the caller's
        ``timeout_s`` and ``connect_timeout_s``: no caller waits longer
        behind a shard that never answers HELLO.

        One ``wait_for`` bounds the lock wait, dial and HELLO together;
        a nested one loses a cancellation that lands as its inner future
        completes (Python < 3.12), which left a drain waiting on a
        silent shard.
        """
        if self.channel is not None and not self.channel.closed:
            return self.channel
        return await asyncio.wait_for(
            self._open(max_payload_bytes),
            timeout=min(timeout_s, connect_timeout_s),
        )

    async def _open(self, max_payload_bytes: int) -> ShardChannel:
        async with self._channel_lock:
            if self.channel is None or self.channel.closed:
                channel = ShardChannel(
                    self.shard_id, self.host, self.port, max_payload_bytes
                )
                await channel.open()
                self.channel = channel
            return self.channel

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None

    def to_dict(self) -> dict[str, Any]:
        out = {"shard": self.shard_id, "host": self.host, "port": self.port}
        if self.proc is not None:
            out["pid"] = self.proc.pid
            out["spawned"] = True
        if self.channel is not None:
            out["pipelined"] = not self.channel.closed
            out["drains"] = self.channel.drains
        return out


def _spawn_argv(
    index: int, shard_options: dict[str, Any]
) -> tuple[list[str], dict[str, str]]:
    """Command line + environment for one locally spawned shard."""
    import repro

    argv = [
        sys.executable, "-u", "-m", "repro.service", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--shard-id", f"s{index}",
    ]
    opts = dict(shard_options)
    cache_dir = opts.pop("cache_dir", None)
    if cache_dir is not None:
        # Per-shard cache subdirectories: consistent-hash placement makes
        # each shard's warm set disjoint, so sharing one directory would
        # only share lock traffic, not hits.
        argv += ["--cache", str(Path(cache_dir) / f"s{index}")]
    for key, flag in (
        ("workers", "--workers"),
        ("max_pending", "--max-pending"),
        ("batch_window_ms", "--batch-window-ms"),
        ("max_batch", "--max-batch"),
        ("timeout_s", "--timeout-s"),
        ("cache_max_bytes", "--cache-max-bytes"),
        ("backend", "--backend"),
    ):
        if opts.get(key) is not None:
            argv += [flag, str(opts[key])]
    unknown = set(opts) - {
        "workers", "max_pending", "batch_window_ms", "max_batch",
        "timeout_s", "cache_max_bytes", "backend",
    }
    if unknown:
        raise ServiceError(f"unknown shard option(s): {sorted(unknown)}")
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return argv, env


class ClusterRouter:
    """MSG1 front-end over N daemon shards (see module docstring).

    ``shards`` is a list of ``"host:port"`` endpoints to address;
    ``spawn`` asks the router to launch that many local shard daemons
    itself (``shard_options`` maps onto ``serve`` CLI flags:
    ``workers``, ``max_pending``, ``batch_window_ms``, ``max_batch``,
    ``timeout_s``, ``cache_dir``, ``cache_max_bytes``, ``backend``).
    At least one shard must come from somewhere.

    ``hedge_after_s=None`` disables hedging (failover on hard errors
    still happens); see ``docs/CLUSTER.md`` for how to pick a budget.
    """

    def __init__(
        self,
        shards: list[str] | None = None,
        *,
        spawn: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_options: dict[str, Any] | None = None,
        replicas: int | None = None,
        probe_interval_s: float = 0.25,
        probe_timeout_s: float = 2.0,
        fail_after: int = 3,
        recover_after: int = 2,
        hedge_after_s: float | None = None,
        forward_timeout_s: float = 300.0,
        connect_timeout_s: float = 5.0,
        max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES,
        pipeline_depth: int = 32,
        trace_out: str | None = None,
    ) -> None:
        if not shards and spawn <= 0:
            raise ServiceError(
                "a cluster needs shards: pass host:port endpoints or spawn=N"
            )
        self.host = host
        self.port = port
        self.spawn = spawn
        self.shard_options = dict(shard_options or {})
        self.probe_timeout_s = probe_timeout_s
        self.hedge_after_s = hedge_after_s
        self.forward_timeout_s = forward_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.max_payload_bytes = max_payload_bytes
        self.pipeline_depth = max(1, int(pipeline_depth))
        self.trace_out = trace_out
        self.ring = HashRing(
            replicas=replicas if replicas is not None else 128
        )
        self.membership = MembershipTable(
            fail_after=fail_after,
            recover_after=recover_after,
            probe_interval_s=probe_interval_s,
        )
        self.shard_handles: dict[str, ShardHandle] = {}
        self._addressed = list(shards or [])
        self._server: asyncio.AbstractServer | None = None
        self._draining = asyncio.Event()
        self._connections: set[asyncio.Task] = set()
        self._probe_tasks: list[asyncio.Task] = []
        self._started = time.perf_counter()
        self._requests_total = 0
        self._inflight = 0
        self._rr = 0  # round-robin cursor for keyless forwards
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._installed_telemetry = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn/register shards, bind, start probes; resolves ``port``."""
        if get_telemetry().enabled is False:
            set_telemetry(Telemetry(
                "router",
                max_finished=None if self.trace_out else SPAN_RETENTION,
            ))
            self._installed_telemetry = True
        for endpoint in self._addressed:
            host, _, port_s = endpoint.rpartition(":")
            try:
                self._register(ShardHandle(endpoint, host, int(port_s)))
            except ValueError as exc:
                raise ServiceError(
                    f"bad shard endpoint {endpoint!r} (want host:port)"
                ) from exc
        if self.spawn > 0:
            await self._spawn_shards(self.spawn)
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for shard_id in list(self.shard_handles):
            self._probe_tasks.append(
                loop.create_task(self._probe_loop(shard_id))
            )
        logger.info(
            "routing on %s:%d over %d shard(s)",
            self.host, self.port, len(self.shard_handles),
        )

    async def _spawn_shards(self, count: int) -> None:
        from repro.parallel.daemons import DaemonProcess

        loop = asyncio.get_running_loop()
        procs = []
        for i in range(count):
            argv, env = _spawn_argv(i, self.shard_options)
            procs.append(DaemonProcess(
                argv,
                ready_pattern=r"serving on ([\d.]+):(\d+)",
                name=f"s{i}",
                env=env,
            ))
        # DaemonProcess.start blocks on the child's ready line; numpy
        # import dominates shard start-up, so bring the fleet up in
        # parallel on executor threads.
        matches = await asyncio.gather(
            *(loop.run_in_executor(None, p.start) for p in procs)
        )
        for i, (proc, match) in enumerate(zip(procs, matches)):
            self._register(ShardHandle(
                f"s{i}", match.group(1), int(match.group(2)), proc=proc
            ))

    def _register(self, handle: ShardHandle) -> None:
        if handle.shard_id in self.shard_handles:
            raise ServiceError(f"duplicate shard id {handle.shard_id!r}")
        self.shard_handles[handle.shard_id] = handle
        if self.membership.add(handle.shard_id) == "admit":
            self.ring.add(handle.shard_id)
        self._update_up_gauge()

    async def serve(self, install_signal_handlers: bool = True) -> None:
        """Run until drained (SIGTERM/SIGINT or :meth:`request_drain`)."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(sig, self.request_drain)
        await self._draining.wait()
        await self._shutdown()

    def request_drain(self) -> None:
        if not self._draining.is_set():
            logger.info("router drain requested")
            self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    async def _shutdown(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        for task in self._probe_tasks:
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks, return_exceptions=True)
        # In-flight forwards finish and reply (the shard fleet is still
        # up); parked readers see EOF when their client hangs up.
        pending = [t for t in self._connections if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        for task in self._connections:
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for handle in self.shard_handles.values():
            handle.close()
        # Spawned shards drain gracefully (SIGTERM) — concurrently, each
        # on its own executor thread, since terminate() blocks.
        spawned = [
            h.proc for h in self.shard_handles.values() if h.proc is not None
        ]
        if spawned:
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(
                loop.run_in_executor(None, p.terminate) for p in spawned
            ))
        logger.info("router drained after %d request(s)", self._requests_total)
        if self.trace_out:
            self._dump_trace()
        if self._installed_telemetry:
            from repro.telemetry import NullTelemetry

            set_telemetry(NullTelemetry())
            self._installed_telemetry = False

    def _dump_trace(self) -> None:
        from repro.telemetry import export

        tm = get_telemetry()
        if not tm.enabled:
            return
        spans = tm.tracer.finished_spans()
        try:
            export.write_jsonl(self.trace_out, spans)
            logger.info("wrote %d span(s) to %s", len(spans), self.trace_out)
        except OSError as exc:  # pragma: no cover - disk full etc.
            logger.error("could not write %s: %s", self.trace_out, exc)

    # -- membership (probe loop + forward evidence) ------------------------

    def _update_up_gauge(self) -> None:
        get_telemetry().set_gauge(
            "router.shards_up", float(len(self.membership.serving()))
        )

    def _apply(self, verdict: str | None, shard_id: str) -> None:
        if verdict == "drain":
            self.ring.remove(shard_id)
            get_telemetry().count("router.shards_drained")
            logger.warning("shard %s drained from the ring", shard_id)
        elif verdict == "admit" and shard_id not in self.ring:
            self.ring.add(shard_id)
            get_telemetry().count("router.shards_admitted")
            logger.info("shard %s re-admitted to the ring", shard_id)
        if verdict:
            self._update_up_gauge()

    def _observe(self, shard_id: str, ok: bool, error: str = "") -> None:
        if ok:
            self._apply(self.membership.record_success(shard_id), shard_id)
        else:
            self._apply(
                self.membership.record_failure(shard_id, error), shard_id
            )

    async def _probe_loop(self, shard_id: str) -> None:
        tm = get_telemetry()
        while not self.draining:
            await asyncio.sleep(self.membership.probe_delay(shard_id))
            tm.count("router.probes")
            try:
                reply, _ = await self._forward_to(
                    shard_id, {"op": "health"}, b"",
                    timeout_s=self.probe_timeout_s,
                )
                # A draining shard answers ok but refuses new work — gate
                # it out just like a dead one; it re-admits if it returns.
                ok = reply.get("status") == "ok" and not reply.get("draining")
                error = "" if ok else f"draining={reply.get('draining')}"
            except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
                ok, error = False, f"{type(exc).__name__}: {exc}"
            if not ok:
                tm.count("router.probe_failures")
            self._observe(shard_id, ok, error)

    # -- connection handling ----------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        tm = get_telemetry()
        loop = asyncio.get_running_loop()
        send_lock = asyncio.Lock()
        gate = asyncio.Semaphore(self.pipeline_depth)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    frame = await protocol.read_frame(
                        reader, self.max_payload_bytes
                    )
                except ProtocolError as exc:
                    tm.count("router.protocol_errors")
                    with contextlib.suppress(Exception):
                        async with send_lock:
                            await protocol.write_frame(
                                writer,
                                {"status": "error", "code": "protocol",
                                 "error": str(exc)},
                            )
                    return
                if frame is None:
                    return
                header, payload = frame
                # Pipelined dispatch: each frame is served on its own
                # task (bounded by pipeline_depth), replies serialized
                # under send_lock — a slow forward never blocks the
                # next frame on this connection.
                await gate.acquire()
                task = loop.create_task(
                    self._serve_frame(writer, send_lock, gate, header, payload)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            logger.debug("peer %s reset", peer)
        finally:
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_frame(
        self,
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
        gate: asyncio.Semaphore,
        header: dict[str, Any],
        payload: bytes,
    ) -> None:
        try:
            await self._serve_request(writer, send_lock, header, payload)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the connection task handles peer teardown
        finally:
            gate.release()

    async def _serve_request(
        self,
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
        header: dict[str, Any],
        payload: bytes,
    ) -> None:
        tm = get_telemetry()
        op = str(header.get("op", "")).lower()
        rid = header.get("id")
        t0 = time.perf_counter()
        self._requests_total += 1
        self._inflight += 1
        tm.set_gauge("router.requests_inflight", float(self._inflight))
        tm.count("router.requests")
        tm.count(f"router.requests.{op or 'unknown'}")
        tm.count("router.bytes_in", len(payload))

        async def reply(h: dict[str, Any], body: bytes = b"") -> None:
            if rid is not None:
                h.setdefault("id", rid)
            tm.count("router.bytes_out", len(body))
            async with send_lock:
                await protocol.write_frame(writer, h, body)
            latency = time.perf_counter() - t0
            self._latencies.append(latency)
            tm.observe(
                "router.latency_ms", latency * 1e3, bounds=LATENCY_BOUNDS
            )

        ctx = trace_context.extract(header)
        try:
            with trace_context.use(ctx):
                with tm.span("router.request", op=op, bytes=len(payload)):
                    if self.draining and op not in ROUTER_OPS:
                        await reply(
                            {"status": "busy", "code": "draining",
                             "retry_after_ms": 50}
                        )
                    elif op == "hello":
                        await reply(self._hello(header))
                    elif op == "health":
                        await reply(self._health())
                    elif op == "cluster":
                        await reply(self._cluster())
                    elif op == "stats":
                        await reply(await self._fleet_stats())
                    elif op == "metrics":
                        text, ctype = await self._fleet_metrics()
                        await reply(
                            {"status": "ok", "content_type": ctype},
                            text.encode("utf-8"),
                        )
                    else:
                        fwd = header
                        if protocol.REPLY_SHM_FIELD in fwd:
                            # Reply segments are single-writer; hedged
                            # or failed-over attempts could land on two
                            # shards, so the router always asks shards
                            # to reply inline.  Request-side segments
                            # pass through — concurrent readers are
                            # harmless.
                            fwd = {
                                k: v for k, v in fwd.items()
                                if k != protocol.REPLY_SHM_FIELD
                            }
                            tm.count("router.reply_shm_stripped")
                        h, body, shard_id = await self._route(
                            op, fwd, payload
                        )
                        h = dict(h)
                        h.setdefault(protocol.SHARD_FIELD, shard_id)
                        await reply(h, body)
        except (ConnectionResetError, BrokenPipeError):
            raise
        except ServiceError as exc:
            tm.count("router.errors")
            await reply(
                {"status": "error",
                 "code": getattr(exc, "code", "routing"),
                 "error": str(exc)}
            )
        except Exception as exc:  # noqa: BLE001 — a bug must not kill the router
            logger.exception("internal error routing %s", op)
            tm.count("router.errors")
            await reply(
                {"status": "error", "code": "internal",
                 "error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            self._inflight -= 1
            tm.set_gauge("router.requests_inflight", float(self._inflight))

    # -- routing (placement + hedging + failover) --------------------------

    def _preferences(
        self, header: dict[str, Any], payload: bytes
    ) -> list[str]:
        """Candidate shards for one request, best first."""
        serving = self.membership.serving()
        if not serving:
            raise ServiceError("no shards available (all drained)")
        key = routing_key(header, payload)
        if key is None:
            # Keyless forwards (LIST, unknown ops) spread round-robin.
            self._rr += 1
            start = self._rr % len(serving)
            return serving[start:] + serving[:start]
        eligible = set(serving)
        prefs = [
            s for s in self.ring.preference(key, len(self.ring))
            if s in eligible
        ]
        return prefs or serving

    async def _route(
        self, op: str, header: dict[str, Any], payload: bytes
    ) -> tuple[dict[str, Any], bytes, str]:
        """Dispatch one request with failover and (optional) hedging.

        Returns ``(reply_header, body, shard_id)`` of the first shard
        whose reply arrived.  Losing hedge attempts are cancelled, which
        just abandons the request id: the late reply is drained by the
        channel's reader (connection kept, a best-effort CANCEL chases
        the queued work).  A reply is only delivered to a waiter the
        router still has, and it keeps at most one winner.
        """
        tm = get_telemetry()
        candidates = deque(self._preferences(header, payload))
        # Session ops are *sticky*: the primary shard holds the session's
        # reference snapshot, so hedging or failing over to another shard
        # could only yield a no_session error — or worse, bytes from a
        # different stream.  One candidate, no hedge; if the primary is
        # down the client gets a clean session_lost to reopen from.
        sticky = op.startswith("session")
        if sticky:
            candidates = deque(list(candidates)[:1])
        total = len(candidates)
        pending: dict[asyncio.Task, tuple[str, bool]] = {}
        errors: list[str] = []

        def launch(hedge: bool) -> None:
            shard_id = candidates.popleft()
            task = asyncio.ensure_future(
                self._forward_traced(shard_id, header, payload, hedge)
            )
            pending[task] = (shard_id, hedge)
            tm.count(f'router.forwards{{shard="{shard_id}"}}')
            if hedge:
                tm.count("router.hedges")
                logger.info(
                    "hedging %s to %s after %.0f ms budget",
                    op, shard_id, (self.hedge_after_s or 0) * 1e3,
                )

        try:
            launch(hedge=False)
            while True:
                can_hedge = bool(candidates) and self.hedge_after_s is not None
                done, _ = await asyncio.wait(
                    set(pending),
                    timeout=self.hedge_after_s if can_hedge else None,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:  # budget elapsed: duplicate to the next shard
                    launch(hedge=True)
                    continue
                for task in done:
                    shard_id, was_hedge = pending.pop(task)
                    try:
                        reply, body = task.result()
                    except (OSError, ProtocolError,
                            asyncio.TimeoutError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        self._observe(shard_id, ok=False, error=error)
                        errors.append(f"{shard_id}: {error}")
                        tm.count("router.forward_errors")
                        logger.warning(
                            "forward of %s to %s failed: %s",
                            op, shard_id, error,
                        )
                        continue
                    self._observe(shard_id, ok=True)
                    if was_hedge:
                        tm.count("router.hedge_wins")
                    return reply, body, shard_id
                if pending:
                    continue  # a hedge partner is still running
                if candidates:  # hard failover: next preference, immediately
                    tm.count("router.failovers")
                    launch(hedge=False)
                    continue
                if sticky:
                    exc = ServiceError(
                        f"session shard unavailable for {op}: "
                        + "; ".join(errors)
                        + " — the daemon-side session state is gone; "
                        "reopen the session and re-send from its last "
                        "keyframe"
                    )
                    exc.code = "session_lost"
                    raise exc
                raise ServiceError(
                    f"all {total} shard(s) failed for {op}: "
                    + "; ".join(errors)
                )
        finally:
            for task in pending:  # duplicate suppression
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def _forward_traced(
        self, shard_id: str, header: dict[str, Any], payload: bytes,
        hedge: bool,
    ) -> tuple[dict[str, Any], bytes]:
        tm = get_telemetry()
        if not tm.enabled and trace_context.current() is None:
            return await self._forward_to(shard_id, header, payload)
        with tm.span("router.forward", shard=shard_id, hedge=hedge):
            # Inject *inside* the span: the shard's service.request then
            # parents under this forward attempt, so a hedged request
            # shows both racing subtrees in one stitched trace.
            return await self._forward_to(
                shard_id, trace_context.inject(header), payload
            )

    async def _forward_to(
        self,
        shard_id: str,
        header: dict[str, Any],
        payload: bytes,
        timeout_s: float | None = None,
    ) -> tuple[dict[str, Any], bytes]:
        """One request to one shard; the budget covers opening the channel
        and the round trip (a cancelled waiter's late reply is drained)."""
        budget = (
            timeout_s if timeout_s is not None else self.forward_timeout_s
        )
        deadline = time.monotonic() + budget
        channel = await self.shard_handles[shard_id].get_channel(
            budget, self.connect_timeout_s, self.max_payload_bytes
        )
        return await channel.request(
            header, payload, max(0.0, deadline - time.monotonic())
        )

    # -- control plane (router-served ops) ---------------------------------

    def _router_caps(self) -> frozenset[str]:
        """What this router can honor for its clients.

        ``pipeline`` always (dispatch is concurrent per connection).
        ``shm`` only when every shard is a same-host loopback peer —
        then a client's request segment is attachable by whichever
        shard the ring picks, and the router can pass descriptors
        through untouched.
        """
        caps = {protocol.CAP_PIPELINE}
        if shm_enabled() and self.shard_handles and all(
            _is_loopback(h.host) for h in self.shard_handles.values()
        ):
            caps.add(protocol.CAP_SHM)
        return frozenset(caps)

    def _hello(self, header: dict[str, Any]) -> dict[str, Any]:
        want = header.get(protocol.CAPS_FIELD)
        want = set(want) if isinstance(want, list) else set()
        granted = sorted(want & self._router_caps())
        return {
            "status": "ok",
            "role": "router",
            protocol.CAPS_FIELD: granted,
        }

    def _health(self) -> dict[str, Any]:
        serving = self.membership.serving()
        return {
            "status": "ok",
            "role": "router",
            "draining": self.draining,
            "uptime_s": time.perf_counter() - self._started,
            "requests_total": self._requests_total,
            "shards_total": len(self.shard_handles),
            "shards_serving": len(serving),
            "serving": serving,
        }

    def _cluster(self) -> dict[str, Any]:
        """The CLUSTER op: topology, membership, and ring shares."""
        return {
            "status": "ok",
            "role": "router",
            "uptime_s": time.perf_counter() - self._started,
            "requests_total": self._requests_total,
            "hedge_after_s": self.hedge_after_s,
            "shards": [
                {**h.to_dict(),
                 **self.membership.shard(h.shard_id).to_dict()}
                for h in (self.shard_handles[k]
                          for k in sorted(self.shard_handles))
            ],
            "membership": self.membership.to_dict(),
            "ring": {
                "replicas": self.ring.replicas,
                "nodes": self.ring.nodes,
                "shares": self.ring.shares(1024),
            },
        }

    async def _shard_control(self, op: str) -> dict[str, dict[str, Any]]:
        """Fan one control op out to every serving shard; tolerate losses."""
        serving = self.membership.serving()

        async def one(shard_id: str):
            try:
                return shard_id, await self._forward_to(
                    shard_id, {"op": op}, b"", timeout_s=self.probe_timeout_s
                )
            except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
                return shard_id, (
                    {"status": "error",
                     "error": f"{type(exc).__name__}: {exc}"},
                    b"",
                )

        gathered = await asyncio.gather(*(one(s) for s in serving))
        return {shard_id: frame for shard_id, frame in gathered}

    async def _fleet_stats(self) -> dict[str, Any]:
        """STATS, fleet-wide: per-shard snapshots plus merged totals."""
        per_shard = {
            shard_id: header
            for shard_id, (header, _) in (await self._shard_control("stats")).items()
        }
        fleet_requests = sum(
            int(s.get("requests_total", 0)) for s in per_shard.values()
        )
        window = list(self._latencies)
        latency: dict[str, Any] = {
            "window": len(window), "window_n": len(window)
        }
        if window:
            latency.update(
                p50_ms=_percentile(window, 50) * 1e3,
                p99_ms=_percentile(window, 99) * 1e3,
                mean_ms=sum(window) / len(window) * 1e3,
            )
        tm = get_telemetry()
        return {
            "status": "ok",
            "role": "router",
            "uptime_s": time.perf_counter() - self._started,
            "requests_total": self._requests_total,
            "requests_inflight": max(0, self._inflight - 1),  # excl. STATS
            "latency": latency,
            "fleet": {
                "shards_serving": len(per_shard),
                "requests_total": fleet_requests,
                "shards": per_shard,
            },
            "metrics": tm.metrics.snapshot() if tm.enabled else {},
        }

    async def _fleet_metrics(self) -> tuple[str, str]:
        """METRICS, fleet-wide: every shard's exposition + the router's.

        Each shard's samples gain a ``shard="<id>"`` label; the router's
        own registry is rendered with ``shard="router"`` — one scrape of
        the router is one consistent picture of the whole fleet.
        """
        from repro.telemetry.exposition import (
            PROM_CONTENT_TYPE,
            relabel_exposition,
            render_prometheus,
        )

        tm = get_telemetry()
        parts = [render_prometheus(
            tm.metrics if tm.enabled else None,
            extra_gauges={
                "router_uptime_seconds":
                    time.perf_counter() - self._started,
                "router_shards_serving_now":
                    float(len(self.membership.serving())),
            },
            extra_labels={"shard": "router"},
        )]
        for shard_id, (header, body) in sorted(
            (await self._shard_control("metrics")).items()
        ):
            if header.get("status") != "ok":
                continue
            parts.append(relabel_exposition(
                body.decode("utf-8"), {"shard": shard_id}
            ))
        # Shards share metric families; keep one # TYPE line per family
        # across the concatenated parts (the format allows it only once).
        lines: list[str] = []
        typed: set[str] = set()
        for line in "".join(parts).splitlines():
            if line.startswith("# TYPE "):
                if line in typed:
                    continue
                typed.add(line)
            lines.append(line)
        text = "\n".join(lines) + ("\n" if lines else "")
        return text, PROM_CONTENT_TYPE


class ClusterThread:
    """Run a :class:`ClusterRouter` (and its fleet) on a background thread.

    The embedding entry point for tests and benchmarks::

        with ClusterThread(spawn=2, hedge_after_s=0.5) as cluster:
            with ServiceClient(port=cluster.port) as client:
                ...

    Context exit drains the router, which SIGTERM-drains any spawned
    shards.
    """

    def __init__(self, **kwargs: Any) -> None:
        self.router = ClusterRouter(**kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name="repro-router", daemon=True
        )
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.router.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self.loop.run_until_complete(
                self.router.serve(install_signal_handlers=False)
            )
        finally:
            self.loop.close()

    @property
    def port(self) -> int:
        return self.router.port

    def start(self) -> "ClusterThread":
        self.thread.start()
        self._ready.wait(timeout=120)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise ServiceError("cluster router failed to start in 120s")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.router.request_drain)
            self.thread.join(timeout)
            if self.thread.is_alive():
                raise ServiceError("cluster router did not drain in time")

    def __enter__(self) -> "ClusterThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

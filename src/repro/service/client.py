"""Clients for the compression daemon.

One client core speaks MSG1 over pipelined connections: each request
carries a per-connection ``id``, frames go out under a send lock, and a
reader thread per connection completes futures as replies arrive, in
any order.  :class:`ServiceClient` is its blocking front end (one
connection; every method submits and waits), :class:`PooledClient`
keeps N requests in flight over M connections behind a futures API.
The core handles the edges a simulation loop needs —

* **connect retry**: the daemon may still be binding when the client
  starts; connection attempts back off within ``connect_timeout_s``;
* **backpressure retry**: a ``busy`` reply (admission queue full) is
  retried with capped exponential backoff *plus jitter*, honoring the
  server's ``retry_after_ms`` hint, up to ``busy_retries`` times before
  :class:`~repro.errors.ServiceBusyError`.  The wait runs off the
  reader thread, so it never stalls other replies.  Connect and busy
  retries share :func:`repro.util.backoff.backoff_delay` with the
  cluster router's re-probe, so the whole fleet jitters the same way;
* **timeouts**: ``request_timeout_s`` bounds each socket wait (a server
  silent that long with requests outstanding fails the connection and
  every call on it); ``timeout_ms`` per call becomes the server-side
  queue deadline;
* **zero-copy payload handoff**: every connection opens with one HELLO
  that negotiates capabilities.  Against a same-host daemon that grants
  ``shm``, large payloads travel as pooled shared-memory segments and
  bulk replies come back through a client-owned scratch segment.
  Fallback to inline bytes is transparent: remote hosts, small arrays,
  ``REPRO_NO_SHM=1``, pre-capability servers, and any per-request shm
  error (the call is resent inline and the client stops offering
  segments).  Replies are byte-identical either way.  Segments are
  reused across calls (:class:`repro.parallel.shm.SegmentPool`) and
  unlinked on ``close()``; a crashed client's are reclaimed by its
  ``multiprocessing`` resource tracker;
* **distributed tracing** (blocking calls): with telemetry enabled (or
  a :mod:`repro.telemetry.context` trace active), every
  :class:`ServiceClient` call runs inside a ``client.<op>`` span, busy
  retries add ``client.busy_wait`` spans to the same trace, and the
  context travels in the MSG1 header's optional ``trace`` field, so
  the daemon's spans stitch under the call (``docs/OBSERVABILITY.md``).
  Otherwise nothing is added to the header and nothing is timed.

Use a client as a context manager to close it deterministically.
Construction is free of I/O — a connection dials lazily on the first
call (or on ``ServiceClient.__enter__``), so a client can be built
before its daemon is up:

>>> client = ServiceClient(port=7777, busy_retries=3, seed=42)
>>> (client.host, client.port, client.busy_retries)
('127.0.0.1', 7777, 3)
>>> client.close()                     # idempotent, even if never dialed

Against a live daemon (or a cluster router — the client is oblivious
to which one it dialed):

>>> with ServiceClient(port=7777) as client:        # doctest: +SKIP
...     buf = client.compress(field, "sz", mode="abs", value=1e-3)
...     round_tripped = client.decompress(buf)
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.compressors.base import CompressedBuffer, CompressorMode
from repro.errors import ProtocolError, ServiceBusyError, ServiceError
from repro.parallel.shm import SegmentPool, SharedArray, shm_enabled
from repro.service import protocol
from repro.telemetry import context as trace_context
from repro.telemetry import get_telemetry
from repro.util.backoff import backoff_delay

DEFAULT_PORT = 9461

#: Extra reply-segment capacity offered on COMPRESS (codec headers can
#: push an incompressible stream slightly past the input size; if even
#: that is exceeded the server just replies inline).
REPLY_SHM_SLACK = 1 << 12

#: Error codes that mean "this peer cannot attach my segments" — the
#: client resends inline and stops offering shm.
_SHM_ERROR_CODES = frozenset({"shm_attach", "shm_unavailable"})

#: ``build(use_shm) -> (header, payload, segs)``: one request's frame.
#: ``segs`` is ``()`` inline, else ``(request segment, reply segment)``
#: with ``None`` for a side that travels inline.
Build = Callable[[bool], tuple[dict[str, Any], bytes, tuple]]
#: ``finish(reply, body, segs) -> result``: one ``ok`` reply decoded.
Finish = Callable[[dict[str, Any], bytes, tuple], Any]


def _is_loopback(host: str) -> bool:
    return host == "localhost" or host.startswith("127.") or host == "::1"


def _shm_reply(reply: dict[str, Any], segs: tuple,
               exact: int | None = None) -> SharedArray | None:
    """The reply segment, when the reply's bulk bytes came back in it."""
    n = reply.get(protocol.SHM_NBYTES_FIELD)
    if n is None:
        return None
    rep = segs[1] if segs else None
    if rep is None or not isinstance(n, int) or not 0 <= n <= rep.nbytes \
            or (exact is not None and n != exact):
        raise ProtocolError(f"bad {protocol.SHM_NBYTES_FIELD}: {n!r}")
    return rep


def _reply_bytes(reply: dict[str, Any], body: bytes, segs: tuple) -> bytes:
    rep = _shm_reply(reply, segs)
    if rep is None:
        return body
    return rep.view((reply[protocol.SHM_NBYTES_FIELD],), np.uint8).tobytes()


@dataclass(slots=True)
class _Call:
    """One logical request in flight; ``ctx`` is its caller's trace."""

    future: concurrent.futures.Future
    build: Build
    finish: Finish
    ctx: Any = None
    header: dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""
    segs: tuple = ()
    attempt: int = 0


class _Channel:
    """One pipelined connection: a send lock, an id→call map, a reader."""

    def __init__(self, owner: "_ClientCore", sock: socket.socket,
                 caps: frozenset[str]) -> None:
        self.owner = owner
        self.sock = sock
        self.caps = caps
        self.lock = threading.Lock()
        self.pending: dict[int, _Call] = {}
        self.next_id = 0
        self.dead = False
        self.reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self.reader.start()

    def send(self, call: _Call) -> None:
        """Register ``call`` under a fresh id and write its frame."""
        with self.lock:
            if self.dead:
                raise ServiceError("channel closed")
            self.next_id += 1
            rid = self.next_id
            self.pending[rid] = call
            try:
                protocol.write_frame_sock(
                    self.sock, {**call.header, "id": rid}, call.payload
                )
            except OSError as exc:
                self.pending.pop(rid, None)
                raise ServiceError(f"send failed: {exc}") from exc

    def _read_loop(self) -> None:
        while True:
            try:
                reply, body = protocol.read_frame_sock(self.sock)
            except socket.timeout:
                # Idle timeouts are benign (nothing was mid-frame); a
                # timeout with requests outstanding means the server
                # went silent past request_timeout_s — fail the channel.
                with self.lock:
                    idle = not self.pending and not self.dead
                if idle:
                    continue
                self.fail(ServiceError("request timed out"))
                return
            except (OSError, ProtocolError) as exc:
                self.fail(ServiceError(f"connection lost: {exc}"))
                return
            try:
                self.owner._dispatch(self, reply, body)
            except Exception as exc:  # malformed reply: fail, never hang
                self.fail(ServiceError(f"bad reply: {exc}"))
                return

    def fail(self, exc: Exception) -> None:
        """Kill the channel, failing every in-flight call with ``exc``."""
        with self.lock:
            if self.dead:
                return
            self.dead = True
            calls = list(self.pending.values())
            self.pending.clear()
            # shutdown() wakes a reader blocked in recv(); close() alone
            # would leave it asleep until the socket timeout.
            with contextlib.suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                self.sock.close()
        for call in calls:
            self.owner._finish_call(call, error=exc)


class _ClientCore:
    """The one MSG1 client core (see module docstring)."""

    #: Connections per client; :class:`PooledClient` takes it as an argument.
    connections = 1

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 120.0,
        busy_retries: int = 8,
        retry_base_s: float = 0.02,
        retry_max_s: float = 1.0,
        seed: int | None = None,
        shm: bool | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.busy_retries = busy_retries
        self.retry_base_s = retry_base_s
        self.retry_max_s = retry_max_s
        #: ``None`` = automatic (loopback peers only); ``False`` forces
        #: inline payloads; ``True`` offers shm even to non-loopback
        #: hosts (the error fallback still protects a wrong guess).
        self.shm = shm
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._channels: list[_Channel | None] = [None] * self.connections
        self._rr = 0
        self._segments = SegmentPool()
        self._shm_broken = False
        self._closed = False

    # -- connections --------------------------------------------------------

    def _dial(self) -> socket.socket:
        deadline = time.monotonic() + self.connect_timeout_s
        attempt = 0
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port),
                    timeout=max(0.1, deadline - time.monotonic()),
                )
                break
            except OSError as exc:
                attempt += 1
                delay = backoff_delay(
                    attempt, base_s=self.retry_base_s, cap_s=self.retry_max_s,
                    jitter=(0.5, 1.0), rng=self._rng,
                )
                if time.monotonic() + delay >= deadline:
                    raise ServiceError(
                        f"cannot connect to {self.host}:{self.port}: {exc}"
                    ) from exc
                time.sleep(delay)
        sock.settimeout(self.request_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _shm_wanted(self) -> bool:
        if self._shm_broken or not shm_enabled():
            return False
        if self.shm is not None:
            return self.shm
        return _is_loopback(self.host)

    def _open_channel(self) -> _Channel:
        """Dial, HELLO, then hand the socket to a reader thread.

        A pre-capability server's error reply means no capabilities.
        """
        sock = self._dial()
        want = [protocol.CAP_PIPELINE]
        if self._shm_wanted():
            want.append(protocol.CAP_SHM)
        try:
            protocol.write_frame_sock(
                sock, {"op": "hello", protocol.CAPS_FIELD: want}
            )
            reply, _ = protocol.read_frame_sock(sock)
        except (OSError, ProtocolError) as exc:
            sock.close()
            raise ServiceError(f"capability handshake failed: {exc}") from exc
        caps = (
            reply.get(protocol.CAPS_FIELD)
            if reply.get("status") == "ok" else None
        )
        return _Channel(
            self, sock, frozenset(caps if isinstance(caps, list) else ())
        )

    def _next_channel(self) -> _Channel:
        with self._lock:
            if self._closed:
                raise ServiceError("client closed")
            slot = self._rr % self.connections
            self._rr += 1
            chan = self._channels[slot]
            if chan is not None and not chan.dead:
                return chan
            chan = self._open_channel()
            self._channels[slot] = chan
            return chan

    @property
    def _negotiated(self) -> bool:
        """True while the first connection is up (it opened with HELLO)."""
        chan = self._channels[0]
        return chan is not None and not chan.dead

    @property
    def _caps(self) -> frozenset[str]:
        """Capabilities the first connection negotiated (∅ before)."""
        return self._channels[0].caps if self._negotiated else frozenset()

    def close(self) -> None:
        """Fail in-flight calls, close every connection, unlink segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = [c for c in self._channels if c is not None]
            self._channels = [None] * self.connections
        for chan in channels:
            chan.fail(ServiceError("client closed"))
            chan.reader.join(timeout=2.0)
        self._segments.close()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- completion plumbing (reader / retry threads) -----------------------

    def _release_segs(self, call: _Call) -> None:
        for seg in call.segs:
            if seg is not None:
                self._segments.release(seg)
        call.segs = ()

    def _finish_call(
        self, call: _Call, reply: dict[str, Any] | None = None,
        body: bytes = b"", error: Exception | None = None,
    ) -> None:
        if error is None:
            try:
                result = call.finish(reply, body, call.segs)
            except Exception as exc:  # a bad reply surfaces on the future
                error = exc
        self._release_segs(call)
        if error is not None:
            call.future.set_exception(error)
        else:
            call.future.set_result(result)

    def _dispatch(self, chan: _Channel, reply: dict[str, Any],
                  body: bytes) -> None:
        with chan.lock:
            call = chan.pending.pop(reply.get("id"), None)
        if call is None:
            return  # late or duplicate reply — drop it
        status = reply.get("status")
        code = reply.get("code", "error")
        try:
            if status == "busy" and call.attempt < self.busy_retries:
                call.attempt += 1
                delay = backoff_delay(
                    call.attempt - 1, base_s=self.retry_base_s,
                    cap_s=self.retry_max_s, rng=self._rng,
                    hint_s=float(reply.get("retry_after_ms", 0)) / 1e3,
                )
                threading.Thread(
                    target=self._resend_after, args=(chan, call, delay, code),
                    name="repro-client-retry", daemon=True,
                ).start()
                return
            shm_refused = code in _SHM_ERROR_CODES and any(call.segs)
        except Exception as exc:  # malformed reply: fail the call, re-raise
            self._finish_call(call, error=ServiceError(f"bad reply: {exc}"))
            raise
        if status == "ok":
            self._finish_call(call, reply, body)
        elif status == "busy":
            self._finish_call(call, error=ServiceBusyError(
                f"server still busy after {self.busy_retries} retries"
            ))
        elif shm_refused:
            # This peer cannot attach our segments — go inline for good.
            self._shm_broken = True
            self._release_segs(call)
            try:
                self._build(call, False)
                chan.send(call)
            except (ServiceError, ProtocolError) as exc:
                self._finish_call(call, error=exc)
        else:
            exc = ServiceError(
                f"{call.header.get('op')} failed [{code}]: "
                f"{reply.get('error')}"
            )
            exc.code = code  # machine-readable
            self._finish_call(call, error=exc)

    def _resend_after(self, chan: _Channel, call: _Call, delay: float,
                      code: str) -> None:
        with trace_context.use(call.ctx):
            with get_telemetry().span(
                "client.busy_wait", attempt=call.attempt,
                delay_ms=delay * 1e3, code=code,
            ):
                time.sleep(delay)
        try:
            chan.send(call)
        except ServiceError as exc:
            self._finish_call(call, error=exc)

    # -- submission ---------------------------------------------------------

    @staticmethod
    def _build(call: _Call, use_shm: bool) -> None:
        """Fill in ``call``'s frame; a traced call's header carries it."""
        header, call.payload, call.segs = call.build(use_shm)
        with trace_context.use(call.ctx):
            call.header = trace_context.inject(header) if call.ctx else header

    def _submit(self, nbytes: int, build: Build, finish: Finish,
                ctx=None) -> concurrent.futures.Future:
        """Build one request for the next connection and send it."""
        future: concurrent.futures.Future = concurrent.futures.Future()
        call = _Call(future, build, finish, ctx)
        try:
            chan = self._next_channel()
            use_shm = (
                nbytes >= protocol.SHM_MIN_BYTES
                and self._shm_wanted()
                and protocol.CAP_SHM in chan.caps
            )
            self._build(call, use_shm)
            chan.send(call)
        except Exception as exc:
            self._release_segs(call)
            future.set_exception(exc)
        return future

    # -- request builders: (nbytes, build, finish) per op --------------------

    def _frame(self, header: dict[str, Any], data: np.ndarray,
               timeout_ms: float | None, use_shm: bool,
               reply_nbytes: int = 0):
        """``(header, payload, segs)`` carrying ``data``.

        With ``use_shm``, a payload of at least ``SHM_MIN_BYTES`` goes
        into a pooled segment, and a reply of at least that size is
        offered a pooled scratch segment of ``reply_nbytes``.
        """
        if timeout_ms is not None:
            header["timeout_ms"] = float(timeout_ms)
        if not use_shm:
            return header, protocol.pack_array(data), ()
        req = rep = None
        payload = b""
        if data.nbytes >= protocol.SHM_MIN_BYTES:
            arr = np.ascontiguousarray(data)
            req = self._segments.acquire(arr.nbytes)
            req.view(arr.shape, arr.dtype)[...] = arr
            header[protocol.SHM_FIELD] = protocol.shm_fields(
                req.view_descriptor(arr.shape, arr.dtype)
            )
        else:
            payload = protocol.pack_array(data)
        if reply_nbytes >= protocol.SHM_MIN_BYTES:
            rep = self._segments.acquire(reply_nbytes)
            header[protocol.REPLY_SHM_FIELD] = protocol.reply_shm_fields(
                rep.name, rep.nbytes
            )
        return header, payload, (req, rep)

    def _compress_req(self, data, compressor, mode, value, options,
                      timeout_ms):
        data = np.asarray(data)

        def build(use_shm: bool):
            header = {
                "op": "compress",
                "compressor": compressor,
                "mode": mode,
                "value": float(value),
                "options": options or {},
                **protocol.array_fields(data),
            }
            return self._frame(header, data, timeout_ms, use_shm,
                               data.nbytes + REPLY_SHM_SLACK)

        def finish(reply: dict[str, Any], body: bytes, segs: tuple):
            meta = dict(reply.get("meta") or {})
            meta["compressor"] = reply.get("compressor", compressor)
            if options:
                meta["options"] = dict(options)
            return CompressedBuffer(
                payload=_reply_bytes(reply, body, segs),
                original_shape=tuple(reply["shape"]),
                original_dtype=np.dtype(reply["dtype"]),
                mode=CompressorMode(reply["mode"]),
                parameter=float(reply["parameter"]),
                meta=meta,
            )

        return data.nbytes, build, finish

    def _decompress_req(self, buf, compressor, options, timeout_ms):
        name = compressor or buf.meta.get("compressor")
        if not name:
            raise ServiceError(
                "decompress needs a compressor (none recorded in buf.meta)"
            )
        if options is None:
            options = buf.meta.get("options") or {}
        out_shape = tuple(int(s) for s in buf.original_shape)
        out_dtype = np.dtype(buf.original_dtype)
        out_nbytes = (
            int(np.prod(out_shape, dtype=np.int64)) * out_dtype.itemsize
        )
        stream = np.frombuffer(buf.payload, dtype=np.uint8)

        def build(use_shm: bool):
            header = {
                "op": "decompress",
                "compressor": name,
                "options": options,
                "mode": buf.mode.value,
                "parameter": buf.parameter,
                "dtype": out_dtype.str,
                "shape": list(out_shape),
            }
            return self._frame(header, stream, timeout_ms, use_shm, out_nbytes)

        def finish(reply: dict[str, Any], body: bytes, segs: tuple):
            rep = _shm_reply(reply, segs, exact=out_nbytes)
            if rep is not None:
                return rep.view(out_shape, out_dtype).copy()
            return protocol.unpack_array(reply, body).copy()

        return max(stream.nbytes, out_nbytes), build, finish


class ServiceClient(_ClientCore):
    """Blocking MSG1 client: the core over one connection, depth 1.

    Each method submits its request and waits for the result.  Threads
    sharing a client pipeline over its one connection.
    """

    def __enter__(self) -> "ServiceClient":
        self._next_channel()
        return self

    # -- request plumbing ---------------------------------------------------

    def _traced(self, op: str, nbytes: int, run: Callable[[], Any]) -> Any:
        """``run()`` — inside a ``client.<op>`` span when tracing is on."""
        tm = get_telemetry()
        if not tm.enabled and trace_context.current() is None:
            return run()
        with trace_context.start_trace(), \
                tm.span(f"client.{op}", op=op, bytes=nbytes):
            return run()

    def _call(self, op: str, nbytes: int, build: Build,
              finish: Finish) -> Any:
        # The trace context is read inside the span, so the daemon's
        # spans parent under this call.
        return self._traced(op, nbytes, lambda: self._submit(
            nbytes, build, finish, trace_context.current()
        ).result())

    def _request(
        self, header: dict[str, Any], payload: bytes = b""
    ) -> tuple[dict[str, Any], bytes]:
        """One raw request; returns ``(reply, body)``, error replies raise."""
        return self._traced(header.get("op"), len(payload), lambda: (
            self._roundtrip(trace_context.inject(header), payload)
        ))

    def _roundtrip(
        self, header: dict[str, Any], payload: bytes
    ) -> tuple[dict[str, Any], bytes]:
        """Send one prebuilt frame and wait (busy retries included)."""
        return self._submit(
            len(payload), lambda _: (header, payload, ()),
            lambda reply, body, segs: (reply, body), trace_context.current(),
        ).result()

    # -- operations ---------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        compressor: str,
        mode: str = "abs",
        value: float = 1e-3,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> CompressedBuffer:
        """Compress ``data`` remotely; returns a real :class:`CompressedBuffer`.

        The buffer is byte-identical to a local
        ``get_compressor(compressor, **options).compress(...)`` call and
        interoperates with it — ``meta["compressor"]`` records the codec
        so :meth:`decompress` can route it back without extra arguments.
        """
        return self._call("compress", *self._compress_req(
            data, compressor, mode, value, options, timeout_ms
        ))

    def decompress(
        self,
        buf: CompressedBuffer,
        compressor: str | None = None,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> np.ndarray:
        """Decompress a buffer remotely (codec from ``buf.meta`` by default)."""
        return self._call("decompress", *self._decompress_req(
            buf, compressor, options, timeout_ms
        ))

    def sweep(
        self,
        data: np.ndarray,
        sweeps: list[dict[str, Any]],
        field: str = "field",
        timeout_ms: float | None = None,
    ) -> list[dict[str, Any]]:
        """Run a server-side CBench sweep over ``data``; returns flat rows.

        ``sweeps`` entries mirror the Foresight config compressor list:
        ``{"name": "sz", "mode": "abs", "sweep": {"error_bound": [...]}}``.
        Repeat sweeps of the same data hit the server's result cache
        (``row["cache"] == "hit"``).
        """
        data = np.asarray(data)

        def build(use_shm: bool):
            header = {
                "op": "sweep",
                "field": field,
                "sweeps": sweeps,
                **protocol.array_fields(data),
            }
            return self._frame(header, data, timeout_ms, use_shm)

        return self._call(
            "sweep", data.nbytes, build,
            lambda reply, body, segs: list(reply.get("records") or []),
        )

    # -- stateful sessions (docs/INSITU.md) ---------------------------------

    def session_open(
        self,
        compressor: str = "sz",
        mode: str = "abs",
        value: float = 1e-3,
        options: dict[str, Any] | None = None,
        keyframe_every: int = 8,
        session_id: str | None = None,
    ) -> "ServiceSession":
        """Open a stateful temporal-compression stream on the daemon.

        The session id is generated *client-side* by default: the
        cluster router hashes it for shard placement, so the id must be
        fixed before the SESSION_OPEN frame is routed (a server-chosen
        id could land the open on one shard and the steps on another).
        Returns a :class:`ServiceSession`; use it as a context manager
        so the daemon-side state is torn down deterministically.
        """
        if session_id is None:
            session_id = uuid.uuid4().hex
        header: dict[str, Any] = {
            "op": "session_open",
            protocol.SESSION_FIELD: session_id,
            "compressor": compressor,
            "mode": mode,
            "value": float(value),
            "options": options or {},
            "keyframe_every": int(keyframe_every),
        }
        reply, _ = self._request(header)
        return ServiceSession(self, reply)

    def session_step(
        self,
        session_id: str,
        data: np.ndarray,
        expect_ref: str | None = ...,
        timeout_ms: float | None = None,
    ) -> tuple[dict[str, Any], bytes]:
        """One snapshot through an open session; returns (reply, TMP1 bytes).

        ``expect_ref`` is the reference digest the client believes the
        daemon holds (``None`` before the first step); the daemon
        refuses with ``session_desync`` on mismatch.  Pass the default
        sentinel to skip the check entirely.  Most callers want the
        :class:`ServiceSession` wrapper, which tracks the digest chain
        automatically.
        """
        data = np.asarray(data)

        def build(use_shm: bool):
            header = {
                "op": "session_step",
                protocol.SESSION_FIELD: session_id,
                **protocol.array_fields(data),
            }
            if expect_ref is not ...:
                header["expect_ref"] = expect_ref
            return self._frame(header, data, timeout_ms, use_shm,
                               data.nbytes + REPLY_SHM_SLACK)

        return self._call(
            "session_step", data.nbytes, build,
            lambda reply, body, segs: (reply, _reply_bytes(reply, body, segs)),
        )

    def session_close(self, session_id: str) -> dict[str, Any]:
        """Tear down a session; returns its step/byte accounting."""
        return self._request(
            {"op": "session_close", protocol.SESSION_FIELD: session_id}
        )[0]

    def list_compressors(self) -> list[str]:
        return list(self._request({"op": "list"})[0].get("compressors") or [])

    def health(self) -> dict[str, Any]:
        return self._request({"op": "health"})[0]

    def stats(self) -> dict[str, Any]:
        return self._request({"op": "stats"})[0]

    def metrics_text(self) -> str:
        """The daemon's metrics in Prometheus text exposition format.

        Against a cluster router this is the *fleet* exposition: every
        per-shard sample gains a ``shard="..."`` label and the router's
        own metrics appear under ``shard="router"``.
        """
        return self._request({"op": "metrics"})[1].decode("utf-8")

    def cluster(self) -> dict[str, Any]:
        """Topology and membership of the cluster router this client dialed.

        Only a :class:`repro.service.cluster.ClusterRouter` answers the
        CLUSTER op — a plain daemon replies with ``bad_op``, which
        surfaces here as :class:`~repro.errors.ServiceError`.  The reply
        carries per-shard membership state, probe/hedge counters, and
        ring ownership shares (see ``docs/CLUSTER.md``).
        """
        return self._request({"op": "cluster"})[0]


class ServiceSession:
    """Client half of one open temporal stream (see docs/INSITU.md).

    Tracks the reference-digest chain the daemon echoes on every step
    and sends it back as ``expect_ref`` on the next one, so a lost or
    reordered step surfaces as a clean ``session_desync`` error instead
    of silently undecodable deltas.  :meth:`step` returns the reply
    header and the raw TMP1 stream; feed the streams in order to a
    :class:`~repro.compressors.temporal.TemporalCompressor` (same inner
    codec and options) to reconstruct — bytes are identical to the
    library path.

        with client.session_open("sz", value=1e-3) as session:
            for snapshot in simulation:
                reply, stream = session.step(snapshot)
    """

    def __init__(self, client: ServiceClient, opened: dict[str, Any]) -> None:
        self._client = client
        self.session_id = str(opened[protocol.SESSION_FIELD])
        self.compressor = opened.get("compressor")
        self.mode = opened.get("mode")
        self.value = opened.get("value")
        self.keyframe_every = opened.get("keyframe_every")
        #: Digest of the reference snapshot the daemon holds (None
        #: before the first step); updated from every step reply.
        self.ref: str | None = None
        self.steps = 0
        self.closed = False

    def step(
        self, data: np.ndarray, timeout_ms: float | None = None
    ) -> tuple[dict[str, Any], bytes]:
        """Push one snapshot; returns ``(reply header, TMP1 bytes)``."""
        if self.closed:
            raise ServiceError(f"session {self.session_id!r} is closed")
        reply, body = self._client.session_step(
            self.session_id, data, expect_ref=self.ref,
            timeout_ms=timeout_ms,
        )
        self.ref = reply.get("ref")
        self.steps += 1
        return reply, body

    def close(self) -> dict[str, Any]:
        """Close the daemon-side session (idempotent client-side)."""
        if self.closed:
            return {"status": "ok", protocol.SESSION_FIELD: self.session_id}
        self.closed = True
        return self._client.session_close(self.session_id)

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        # Best-effort teardown: the daemon's idle eviction is the
        # backstop if the close cannot be delivered (dead shard, drain).
        with contextlib.suppress(ServiceError, OSError):
            self.close()


class PooledClient(_ClientCore):
    """N requests in flight over M pipelined connections.

    The core over ``connections`` connections, used round-robin from
    any number of threads.  ``compress_async``/``decompress_async``
    return :class:`concurrent.futures.Future`; the blocking
    ``compress``/``decompress`` wrappers just ``.result()`` them.  One
    :class:`SegmentPool` serves every connection, and an shm error on
    any of them sends the rest of the pool's life inline.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        connections: int = 2,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 120.0,
        busy_retries: int = 8,
        retry_base_s: float = 0.02,
        retry_max_s: float = 1.0,
        seed: int | None = None,
        shm: bool | None = None,
    ) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        self.connections = connections
        super().__init__(
            host, port,
            connect_timeout_s=connect_timeout_s,
            request_timeout_s=request_timeout_s,
            busy_retries=busy_retries,
            retry_base_s=retry_base_s,
            retry_max_s=retry_max_s,
            seed=seed,
            shm=shm,
        )

    def __enter__(self) -> "PooledClient":
        return self

    def compress_async(
        self,
        data: np.ndarray,
        compressor: str,
        mode: str = "abs",
        value: float = 1e-3,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> "concurrent.futures.Future":
        """Submit a COMPRESS; the future resolves to a CompressedBuffer."""
        return self._submit(*self._compress_req(
            data, compressor, mode, value, options, timeout_ms
        ))

    def decompress_async(
        self,
        buf: CompressedBuffer,
        compressor: str | None = None,
        options: dict[str, Any] | None = None,
        timeout_ms: float | None = None,
    ) -> "concurrent.futures.Future":
        """Submit a DECOMPRESS; the future resolves to an ndarray."""
        return self._submit(*self._decompress_req(
            buf, compressor, options, timeout_ms
        ))

    def compress(self, *args: Any, **kwargs: Any) -> CompressedBuffer:
        """Blocking wrapper over :meth:`compress_async`."""
        return self.compress_async(*args, **kwargs).result()

    def decompress(self, *args: Any, **kwargs: Any) -> np.ndarray:
        """Blocking wrapper over :meth:`decompress_async`."""
        return self.decompress_async(*args, **kwargs).result()

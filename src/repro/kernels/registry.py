"""Kernel-backend registry: scalar / numpy / native tiers with fallback.

Every codec hot spot in this library (Lorenzo dual-quantization, the
canonical Huffman codec, the ZFP bit-plane transpose and group-testing
coder, variable-length bit packing) exists in up to three
implementations:

``scalar``
    The seed reference loops — the per-block / per-symbol Python code the
    original reproduction shipped.  Always available; defines the stream
    format bit for bit.
``numpy``
    The vectorized batch kernels (PR 2).  Always available; byte-exact
    with ``scalar``.
``native``
    Compiled kernels (:mod:`repro.kernels.native`): a small C library
    compiled on demand with the system C compiler and called through
    ``ctypes``.  Optional; byte-exact with ``scalar``.

The registry resolves, per kernel, which implementation actually runs:

1. An explicit request (``use(...)`` context, ``CBench(backend=...)``,
   ``REPRO_BACKEND``) names a tier or ``auto``.
2. ``auto`` walks the tier list best-first (``native`` → ``numpy`` →
   ``scalar``) and picks the first backend that probes as available and
   provides the kernel.
3. A backend that raises at *call* time (anything other than a
   :class:`~repro.errors.ReproError` data/stream error) is tripped for
   that kernel and the call transparently re-dispatches one tier down —
   daemons keep serving, only slower.

``REPRO_SCALAR_CODECS=1`` remains supported as a deprecated alias for
``REPRO_BACKEND=scalar`` so existing scripts and benchmarks keep
working unchanged.
"""

from __future__ import annotations

import importlib
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError, KernelUnavailableError, ReproError
from repro.telemetry import get_telemetry

#: Environment variable selecting the backend tier (or ``auto``).
BACKEND_ENV = "REPRO_BACKEND"

#: Deprecated alias: truthy values mean ``REPRO_BACKEND=scalar``.
LEGACY_SCALAR_ENV = "REPRO_SCALAR_CODECS"

#: Tier preference for ``auto`` resolution, best first.
TIER_ORDER = ("native", "numpy", "scalar")

#: Numeric tier levels for the ``kernels.backend{stage=...}`` gauge.
TIER_LEVEL = {"scalar": 0, "numpy": 1, "native": 2}

_TRUTHY = ("1", "true", "yes", "on")


@dataclass
class Backend:
    """One registered implementation tier.

    ``impls`` maps kernel names to ``"module.path:callable"`` strings;
    the import happens on first use so registering the native tier never
    costs a compile (or a failed import) until a kernel is actually
    requested from it.  ``probe`` is an optional availability check run
    once; it must raise :class:`KernelUnavailableError` (or any
    exception) when the backend cannot run in this process.
    """

    name: str
    impls: dict[str, str]
    probe: Callable[[], None] | None = None
    _probe_result: Exception | None = field(default=None, repr=False)
    _probed: bool = field(default=False, repr=False)
    _resolved: dict[str, Callable] = field(default_factory=dict, repr=False)

    def available(self) -> bool:
        return self.unavailable_reason() is None

    def unavailable_reason(self) -> str | None:
        """``None`` when usable, else a one-line human-readable reason."""
        if not self._probed:
            self._probed = True
            if self.probe is not None:
                try:
                    self.probe()
                except Exception as exc:  # probe failures are data, not bugs
                    self._probe_result = exc
        if self._probe_result is None:
            return None
        return f"{type(self._probe_result).__name__}: {self._probe_result}"

    def kernel(self, name: str) -> Callable | None:
        """The implementation of ``name``, importing lazily; ``None`` if
        this backend does not provide the kernel."""
        if name in self._resolved:
            return self._resolved[name]
        spec = self.impls.get(name)
        if spec is None:
            return None
        module_name, _, attr = spec.partition(":")
        fn = getattr(importlib.import_module(module_name), attr)
        self._resolved[name] = fn
        return fn

    def reset(self) -> None:
        """Forget probe results and tripped state (tests, hot reload)."""
        self._probed = False
        self._probe_result = None
        self._resolved.clear()


class KernelRegistry:
    """Process-wide registry of backends and per-kernel dispatch state."""

    def __init__(self) -> None:
        self._backends: dict[str, Backend] = {}
        self._lock = threading.Lock()
        #: (backend, kernel) pairs disabled after a call-time failure.
        self._tripped: dict[tuple[str, str], str] = {}
        #: kernel -> backend name that served the most recent call.
        self._active: dict[str, str] = {}
        #: Process-wide override installed by :func:`use` / ``set_backend``.
        self._override: str | None = None

    # -- registration ------------------------------------------------------

    def register(self, backend: Backend) -> None:
        if backend.name not in TIER_ORDER:
            raise ConfigError(
                f"unknown backend tier {backend.name!r}; expected one of {TIER_ORDER}"
            )
        self._backends[backend.name] = backend

    def backends(self) -> dict[str, Backend]:
        self._ensure_defs()
        return dict(self._backends)

    def _ensure_defs(self) -> None:
        if not self._backends:
            from repro.kernels import defs  # registers the three tiers

            defs.register_default_backends(self)

    # -- selection ---------------------------------------------------------

    def requested_backend(self) -> str:
        """The tier the process is asking for: override > env > auto."""
        if self._override is not None:
            return self._override
        raw = os.environ.get(BACKEND_ENV, "").strip().lower()
        if raw:
            if raw not in TIER_ORDER + ("auto",):
                raise ConfigError(
                    f"{BACKEND_ENV} must be one of "
                    f"{TIER_ORDER + ('auto',)}, got {raw!r}"
                )
            return raw
        legacy = os.environ.get(LEGACY_SCALAR_ENV, "").strip().lower()
        if legacy in _TRUTHY:
            return "scalar"
        return "auto"

    def set_backend(self, backend: str | None) -> None:
        """Install a process-wide backend override (``None`` clears it)."""
        if backend is not None:
            backend = str(backend).strip().lower()
            if backend not in TIER_ORDER + ("auto",):
                raise ConfigError(
                    f"backend must be one of {TIER_ORDER + ('auto',)}, "
                    f"got {backend!r}"
                )
        self._override = backend

    def current_override(self) -> str | None:
        return self._override

    def _chain(self, request: str) -> list[str]:
        """Tier names to try, in order, for a requested backend."""
        if request == "auto":
            return list(TIER_ORDER)
        # An explicit tier starts there but still degrades downward so a
        # daemon configured for `native` keeps serving on a host without
        # a compiler — the degradation is observable via active().
        start = TIER_ORDER.index(request)
        return list(TIER_ORDER[start:])

    def resolve(self, kernel: str, backend: str | None = None) -> tuple[str, Callable]:
        """Pick ``(backend_name, impl)`` for one kernel call."""
        self._ensure_defs()
        request = backend if backend is not None else self.requested_backend()
        if request not in TIER_ORDER + ("auto",):
            raise ConfigError(
                f"backend must be one of {TIER_ORDER + ('auto',)}, got {request!r}"
            )
        for name in self._chain(request):
            be = self._backends.get(name)
            if be is None or not be.available():
                continue
            if (name, kernel) in self._tripped:
                continue
            fn = be.kernel(kernel)
            if fn is None:
                continue
            return name, fn
        raise KernelUnavailableError(
            f"no backend provides kernel {kernel!r} (requested {request!r})"
        )

    # -- dispatch ----------------------------------------------------------

    def call(self, kernel: str, *args: Any, backend: str | None = None, **kwargs: Any):
        """Run ``kernel`` on the best available backend, degrading on
        call-time failure.

        :class:`~repro.errors.ReproError` subclasses other than
        :class:`KernelUnavailableError` (bad data, corrupt streams) are
        *results*, not backend failures — they propagate.  Anything else
        trips the (backend, kernel) pair and re-dispatches one tier down.
        """
        while True:
            name, fn = self.resolve(kernel, backend)
            try:
                result = fn(*args, **kwargs)
            except KernelUnavailableError as exc:
                if name == "scalar":
                    raise
                self._trip(name, kernel, str(exc))
                continue
            except ReproError:
                self._active[kernel] = name
                raise
            except Exception as exc:
                if name == "scalar":
                    # The reference tier has no tier below it; a scalar
                    # failure is a real bug and must surface.
                    raise
                self._trip(name, kernel, f"{type(exc).__name__}: {exc}")
                continue
            self._active[kernel] = name
            return result

    def _trip(self, backend: str, kernel: str, reason: str) -> None:
        with self._lock:
            self._tripped[(backend, kernel)] = reason
        tm = get_telemetry()
        tm.count(f'kernels.fallback{{stage="{kernel}",backend="{backend}"}}')

    # -- introspection -----------------------------------------------------

    def active(self, backend: str | None = None) -> dict[str, str]:
        """Resolved backend per kernel under the current selection.

        Kernels that have already served a call report the tier that
        actually ran; the rest report what :meth:`resolve` would pick.
        """
        self._ensure_defs()
        out: dict[str, str] = {}
        for kernel in sorted(self._kernel_names()):
            try:
                out[kernel] = self.resolve(kernel, backend)[0]
            except KernelUnavailableError:  # pragma: no cover - scalar always there
                out[kernel] = "unavailable"
        return out

    def last_used(self) -> dict[str, str]:
        """Backend that served the most recent call, per kernel."""
        return dict(self._active)

    def tripped(self) -> dict[tuple[str, str], str]:
        return dict(self._tripped)

    def _kernel_names(self) -> set[str]:
        names: set[str] = set()
        for be in self._backends.values():
            names.update(be.impls)
        return names

    def publish_gauges(self, tm=None) -> dict[str, str]:
        """Export the resolved tier per kernel as labelled gauges.

        ``kernels.backend{stage=...}`` carries the numeric tier level
        (0=scalar, 1=numpy, 2=native) and
        ``kernels.backend_info{stage=...,backend=...}`` is a constant-1
        info gauge, so both Prometheus consumers and the fleet view can
        show which tier each shard actually runs.
        """
        tm = tm if tm is not None else get_telemetry()
        mapping = self.active()
        for kernel, name in mapping.items():
            tm.set_gauge(
                f'kernels.backend{{stage="{kernel}"}}',
                float(TIER_LEVEL.get(name, -1)),
            )
            tm.set_gauge(
                f'kernels.backend_info{{backend="{name}",stage="{kernel}"}}', 1.0
            )
        return mapping

    def reset(self) -> None:
        """Clear tripped/active/probe state (test isolation)."""
        with self._lock:
            self._tripped.clear()
            self._active.clear()
        for be in self._backends.values():
            be.reset()


#: The process-wide registry instance.
REGISTRY = KernelRegistry()

"""Traced-run instrumentation of the generator process, from outside the
program: live ``repro.telemetry``, a tap on the kernel registry's single
dispatch point, and tracemalloc around each operation.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from typing import Any

import numpy as np

from measure import root_of, self_times

#: Codec stage spans the compressors emit.
STAGES = ("sz.prequant", "sz.predict", "sz.huffman", "sz.lossless",
          "zfp.transform", "zfp.reorder", "zfp.bitplane")
#: Benchmark root span name -> (codec, direction) its stages report under.
ROOTS = {
    "bench.sz.compress": ("sz", "compress"),
    "bench.sz.decompress": ("sz", "decompress"),
    "bench.zfp.compress": ("zfp", "compress"),
    "bench.zfp.decompress": ("zfp", "decompress"),
    "bench.temporal.decompress": ("sz", "decompress"),
}


def _nbytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class Tap:
    """Installs the traced-run instrumentation; :meth:`close` removes it."""

    def __init__(self) -> None:
        from repro import kernels, telemetry

        self._telemetry = telemetry
        self.tm = telemetry.enable("perfbench")
        self.registry = kernels.REGISTRY
        #: kernel -> [calls, seconds, bytes computed (inputs + outputs)]
        self.kernels: dict[str, list] = {}
        self.alloc_peak = 0
        tracer = self.tm.tracer
        dispatch = self.registry.call

        def call(kernel: str, *args: Any, **kwargs: Any) -> Any:
            t0 = tracer.now()
            out = dispatch(kernel, *args, **kwargs)
            t1 = tracer.now()
            nbytes = _nbytes(args) + _nbytes(out)
            # Parents under the stage span open on this thread.
            tracer.add_span(f"kernel.{kernel}", t0, t1, bytes_computed=nbytes)
            rec = self.kernels.setdefault(kernel, [0, 0.0, 0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += nbytes
            return out

        # Every kernel dispatch, including Huffman's import-time
        # ``_kcall`` alias, looks ``REGISTRY.call`` up per call.
        self.registry.call = call
        tracemalloc.start()

    @contextmanager
    def op(self, root: str | None = None):
        """One operation: an optional benchmark root span around the call
        into the program, and its tracemalloc peak above the baseline."""
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            if root is None:
                yield
            else:
                with self.tm.span(root):
                    yield
        finally:
            self.alloc_peak = max(
                self.alloc_peak, tracemalloc.get_traced_memory()[1] - base
            )

    def counter(self, name: str) -> float:
        m = self.tm.metrics.snapshot().get(name)
        return float(m["value"]) if m else 0.0

    def close(self) -> None:
        tracemalloc.stop()
        del self.registry.call  # the class method is visible again
        self._telemetry.disable()


def codec_layers(spans: list) -> tuple[dict[str, float], dict[str, float], float]:
    """Split the benchmark's codec root spans into disjoint layers.

    Returns ``(layers, metrics, codec_s)``: ``layers`` are self-times
    that add up to the root durations (stages, glue, other spans), the
    ``metrics`` are the per-stage and glue metrics, the Huffman table
    time and ``temporal.decode_s``; ``codec_s`` is the total root time.
    """
    roots = root_of(spans)
    no_kernels = [s for s in spans if not s.name.startswith("kernel.")]
    own = self_times(no_kernels)
    with_kernels = self_times(spans)
    layers: dict[str, float] = {}
    metrics: dict[str, float] = {"lossless.huffman_table_s": 0.0,
                                 "temporal.decode_s": 0.0}
    codec_s = 0.0
    for s in no_kernels:
        root = roots[s.span_id]
        if root.name not in ROOTS:
            continue
        codec, direction = ROOTS[root.name]
        if s is root:
            codec_s += s.duration
            if root.name == "bench.temporal.decompress":
                metrics["temporal.decode_s"] += s.duration
                key = "temporal.decompress.glue_s"
            else:
                key = f"{codec}.{direction}.glue_s"
        elif s.name in STAGES:
            stage = s.name.split(".", 1)[1]
            key = f"{s.name.split('.')[0]}.{direction}.{stage}_s"
        else:
            key = f"other.{s.name}_s"
        layers[key] = layers.get(key, 0.0) + own[s.span_id]
        if s.name == "sz.huffman":
            metrics["lossless.huffman_table_s"] += with_kernels[s.span_id]
    for key, value in layers.items():
        if not key.startswith(("other.", "temporal.")):
            metrics[key] = value
    return layers, metrics, codec_s

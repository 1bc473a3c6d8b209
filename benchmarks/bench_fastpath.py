"""Fast-path engine speedup: vectorized kernels + result cache vs the seed.

Headline measurement: a 4-point ZFP sweep plus a 4-point SZ sweep over a
64^3 Nyx dark-matter-density field, run both ways —

* **seed path**: scalar per-block/per-symbol codec loops
  (``REPRO_SCALAR_CODECS=1``), serial, no cache — the implementation the
  seed repo shipped;
* **fast path**: batched numpy kernels, ``workers=0`` (one worker
  process per CPU; on a single-CPU host the executor falls back to the
  serial in-process loop, so the measured gain is all kernels), no cache.

Each path is timed as the best of ``TRIALS`` runs so a single noisy run
on a shared host cannot flip the verdict.  The acceptance bar is a
>= 3x wall-clock speedup.  A separate test reports the warm-cache time
(excluded from the headline: a cache hit skips the codecs entirely,
which would trivialize the comparison).

SZ error bounds are value-range-relative (scaled by the field's std, the
regime Fig. 4/6 sweeps) so the quantization-code Huffman stream — the
component the vectorized encoder/decoder accelerates — carries realistic
entropy.
"""

from __future__ import annotations

import os
import time

import numpy as np

from bench_kernels import TARGET_KERNELS, _native_state, append_trajectory, measure
from conftest import write_result
from repro.experiments.base import nyx_for
from repro.foresight.cbench import CBench
from repro.foresight.config import CompressorSweep

TRIALS = 3

ZFP_SWEEP = CompressorSweep(
    name="zfp", mode="fixed_rate", sweep={"rate": [4.0, 8.0, 12.0, 16.0]}
)


def _field_64() -> np.ndarray:
    """One 64^3 Nyx field regardless of REPRO_PROFILE (the bar is fixed)."""
    return nyx_for("default").fields["dark_matter_density"]


def _sz_sweep(field: np.ndarray) -> CompressorSweep:
    std = float(field.std())
    return CompressorSweep(
        name="sz",
        mode="abs",
        sweep={"error_bound": [round(std * r, 6) for r in (2e-3, 1e-3, 7e-4, 5e-4)]},
    )


def _sweep_once(field: np.ndarray, workers: int) -> list:
    bench = CBench({"dark_matter_density": field}, keep_reconstructions=False)
    return bench.run_all([ZFP_SWEEP, _sz_sweep(field)], workers=workers)


def _best_of(fn, trials: int = TRIALS) -> tuple[float, list]:
    best, records = float("inf"), None
    for _ in range(trials):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best, records = dt, out
    return best, records


def test_fastpath_speedup_vs_seed(benchmark):
    field = _field_64()
    assert "REPRO_CACHE_DIR" not in os.environ or not os.environ["REPRO_CACHE_DIR"]

    os.environ["REPRO_SCALAR_CODECS"] = "1"
    try:
        seed_seconds, seed_records = _best_of(lambda: _sweep_once(field, workers=1))
    finally:
        del os.environ["REPRO_SCALAR_CODECS"]

    t0 = time.perf_counter()
    benchmark.pedantic(_sweep_once, args=(field, 0), rounds=1, iterations=1)
    first = time.perf_counter() - t0
    rest, fast_records = _best_of(lambda: _sweep_once(field, 0), TRIALS - 1)
    fast_seconds = min(first, rest)

    assert len(fast_records) == len(seed_records) == 8
    for seed_rec, fast_rec in zip(seed_records, fast_records):
        assert fast_rec.compressor == seed_rec.compressor
        assert fast_rec.parameter == seed_rec.parameter
        assert fast_rec.compression_ratio == seed_rec.compression_ratio
        assert fast_rec.metrics == seed_rec.metrics

    speedup = seed_seconds / fast_seconds
    lines = [
        "fast-path engine: 8-cell ZFP+SZ sweep of 64^3 Nyx dark_matter_density",
        f"(best of {TRIALS} trials per path)",
        f"seed path (scalar codecs, serial):      {seed_seconds:8.3f} s",
        f"fast path (batched kernels, workers=0): {fast_seconds:8.3f} s",
        f"speedup: {speedup:.2f}x (acceptance floor: 3x)",
    ]
    write_result("fastpath", "\n".join(lines))
    append_trajectory({
        "source": "bench_fastpath",
        "sweep": "8-cell ZFP+SZ, 64^3 Nyx dark_matter_density",
        "seed_seconds": round(seed_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(speedup, 3),
    })
    assert speedup >= 3.0, f"fast path only {speedup:.2f}x faster than seed"


def test_backend_tiers(request):
    """Whole-sweep seconds and per-kernel MB/s for each kernel tier.

    Every run appends one trajectory entry to ``BENCH_fastpath.json``
    (commit, date, per-kernel MB/s per backend).  The >= 1.5x
    native-over-numpy gate below was set for a JIT flavor the native
    tier no longer has; the C tier (``native_flavor: "cc"``) and any
    degradation are recorded instead of gated.
    """
    requested = request.config.getoption("--backend")
    available, flavor, reason = _native_state()
    if requested:
        tiers = [requested]
    else:
        tiers = ["scalar", "numpy"] + (["native"] if available else [])

    field = _field_64()
    sweep_seconds: dict[str, float] = {}
    for tier in tiers:
        bench = CBench(
            {"dark_matter_density": field},
            keep_reconstructions=False,
            backend=tier,
        )
        seconds, _ = _best_of(
            lambda: bench.run_all([ZFP_SWEEP, _sz_sweep(field)], workers=1)
        )
        sweep_seconds[tier] = round(seconds, 4)

    # Per-kernel MB/s always includes numpy so native has its reference.
    kernel_mbps = {t: measure(t, quick=True) for t in dict.fromkeys(tiers + ["numpy"])}

    entry: dict = {
        "source": "bench_fastpath",
        "sweep": "8-cell ZFP+SZ, 64^3 Nyx dark_matter_density, workers=1",
        "sweep_seconds": sweep_seconds,
        "mbps": kernel_mbps,
        "native_flavor": flavor,
        "degraded": not available,
    }
    if reason:
        entry["native_unavailable"] = reason
    speedups = {
        k: round(kernel_mbps["native"][k] / kernel_mbps["numpy"][k], 3)
        for k in kernel_mbps.get("native", {})
        if kernel_mbps["numpy"].get(k)
    }
    if speedups:
        entry["speedup_native_vs_numpy"] = speedups
    append_trajectory(entry)

    lines = ["per-tier 8-cell sweep (workers=1), best of %d trials" % TRIALS]
    lines += [f"  {t:>7s}: {s:8.3f} s" for t, s in sweep_seconds.items()]
    if speedups:
        lines.append("native vs numpy per-kernel speedup: " + ", ".join(
            f"{k}={v}x" for k, v in sorted(speedups.items())
        ))
    write_result("fastpath_backends", "\n".join(lines))

    if "native" in tiers and not available:
        return  # fallback served the sweep; degradation recorded above
    if flavor == "numba":
        fast = [k for k in TARGET_KERNELS if speedups.get(k, 0.0) >= 1.5]
        assert len(fast) >= 2, (
            f"native tier too slow: >=1.5x on {fast} only; {speedups}"
        )


def test_fastpath_warm_cache(benchmark, tmp_path):
    field = _field_64()
    cache_dir = tmp_path / "cache"

    def _cached_sweep() -> list:
        bench = CBench(
            {"dark_matter_density": field},
            keep_reconstructions=False,
            cache=cache_dir,
        )
        return bench.run_all([ZFP_SWEEP, _sz_sweep(field)], workers=1)

    t0 = time.perf_counter()
    cold = _cached_sweep()
    cold_seconds = time.perf_counter() - t0
    assert not any(r.meta.get("cache") == "hit" for r in cold)

    t0 = time.perf_counter()
    warm = benchmark.pedantic(_cached_sweep, rounds=1, iterations=1)
    warm_seconds = time.perf_counter() - t0
    assert all(r.meta.get("cache") == "hit" for r in warm)

    write_result(
        "fastpath_cache",
        "warm-cache replay of the 8-cell sweep\n"
        f"cold (miss, computes + stores): {cold_seconds:8.3f} s\n"
        f"warm (hit, loads records):      {warm_seconds:8.3f} s",
    )
    assert warm_seconds < cold_seconds

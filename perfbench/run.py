"""The repository benchmark: three closed-loop workloads.

    python3 perfbench/run.py --workload nyx-snapshot --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the program as
users run it and prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics.
Either way every output is checked against the library call on the same
input, a table goes to stdout, and the last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, metrics and known faults.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from measure import LayerSumError, windowed_tail  # noqa: E402

WORKLOADS = ("nyx-snapshot", "service-small", "insitu-session")
INPUT_KIND = {"nyx-snapshot": "nyx", "service-small": "tiles",
              "insitu-session": "series"}
#: Environment variables that change what the program runs; a pinned
#: benchmark refuses to run under any of them.
PINNED_UNSET = ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_SCALAR_CODECS")
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("compress_mbps", "MB/s"),
    ("decompress_mbps", "MB/s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ratio", "x"),
    ("psnr_db", "dB"),
    ("peak_rss_mb", "MB"),
)
#: Printed in the table of every run, but not bounded: they follow the
#: seed's data far more than the program (README.md, "Quality metrics").
QUALITY = (("pk_dev_max", "1"), ("failed_share", "1"))

KERNELS = ("huffman.canonical", "huffman.decode", "huffman.encode",
           "huffman.package_merge", "pack.varlen", "sz.lorenzo",
           "sz.lorenzo_inverse", "zfp.decode", "zfp.encode",
           "zfp.transpose", "zfp.transpose_inverse")
PER_LAYER = (
    ("sz.compress.prequant_s", "s"),
    *((f"sz.{d}.{s}_s", "s") for d in ("compress", "decompress")
      for s in ("predict", "huffman", "lossless", "glue")),
    *((f"zfp.{d}.{s}_s", "s") for d in ("compress", "decompress")
      for s in ("transform", "reorder", "bitplane", "glue")),
    ("temporal.decode_s", "s"),
    *((f"kernel.{k}.{m}", u) for k in KERNELS
      for m, u in (("calls", "count"), ("s", "s"), ("bytes_computed", "B"))),
    ("kernels.share_of_codec", "1"),
    ("lossless.huffman_table_s", "s"),
    ("client.submit_ms", "ms"),
    ("client.shm_share", "1"),
    ("transport_ms", "ms"),
    ("batch.queue_wait_ms", "ms"),
    ("batch.dispatch_ms", "ms"),
    ("batch.size_mean", "count"),
    ("service.rejected_busy", "count"),
    ("service.request_self_ms", "ms"),
    ("service.reply_ms", "ms"),
    ("router.forward_ms", "ms"),
    ("router.requests", "count"),
    ("router.failovers", "count"),
    ("router.hedges", "count"),
    ("router.forward_errors", "count"),
    ("sessions.step_ms", "ms"),
    ("sessions.steps", "count"),
    ("sessions.desyncs", "count"),
    ("shm.attach_ms", "ms"),
    ("shm.segments_attached", "count"),
    ("shm.pool_reuse_share", "1"),
    ("quality.max_err_over_bound", "1"),
    ("quality.violating_values", "count"),
    ("quality.failed_share", "1"),
    ("quality.pk_dev_max", "1"),
    ("telemetry.overhead_share", "1"),
    ("alloc.peak_mb_per_op", "MB"),
    ("client_observed_s", "s"),
    ("unattributed_s", "s"),
)

_SETUP_SCRIPT = (
    "import numpy as np\n"
    "from repro import kernels\n"
    "from repro.compressors import get_compressor\n"
    "kernels.active()\n"
    "a = np.linspace(0, 1, 4096, dtype=np.float32).reshape(16, 16, 16)\n"
    "sz, zfp = get_compressor('sz'), get_compressor('zfp')\n"
    "sz.decompress(sz.compress(a, mode='abs', error_bound=1e-3))\n"
    "zfp.decompress(zfp.compress(a, mode='fixed_rate', rate=4))\n"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_KERNEL_CACHE"] = os.path.join(CACHE, "kernels")
    return env


def library_setup_s(env: dict[str, str]) -> float:
    """Fresh interpreter: import, native-kernel load, first codec calls."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_SCRIPT], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def spawn_fleet(env: dict[str, str]):
    """Spawn a routed fleet and time it until the first reply; returns
    ``(fleet, client, seconds)``.  The client has negotiated shm."""
    import numpy as np

    from fleet import Fleet
    from repro.service.client import ServiceClient

    probe = np.linspace(0, 1, 32 ** 3, dtype=np.float32).reshape(32, 32, 32)
    t0 = time.perf_counter()
    fleet = Fleet(env, os.path.join(CACHE, "fleet.log")).start()
    client = ServiceClient(port=fleet.port, seed=0)
    try:
        client.compress(probe, "sz", mode="abs", value=1e-3)
    except BaseException:
        client.close()
        fleet.stop()
        raise
    return fleet, client, time.perf_counter() - t0


def _rate(ops, kind: str) -> float | None:
    """Uncompressed MB per second of ``kind`` time, or None if absent."""
    chosen = [o for o in ops if o.kind == kind]
    if not chosen:
        return None
    return sum(o.nbytes for o in chosen) / 1e6 / sum(
        o.latency_s for o in chosen)


def _end_to_end(run, requests_kinds: tuple[str, ...]) -> dict[str, float]:
    """End-to-end metrics; throughputs are medians over the run's windows
    (passes, connections or time steps), so one disturbed window cannot
    move them."""
    ops = run.ops
    windows: dict[int, list] = {}
    for o in ops:
        windows.setdefault(o.window, []).append(o)

    def median_over_windows(fn) -> float:
        return statistics.median(
            v for v in (fn(w, run.window_walls[i]) for i, w in windows.items())
            if v is not None)

    comp = [o for o in ops if o.kind == "compress"]
    decoded = [o.ref for o in ops if o.kind == "decompress" and o.ref]
    lat = {i: [o.latency_s * 1e3 for o in w if o.kind in requests_kinds]
           for i, w in windows.items()}
    q, tail, beyond, tail_windows = windowed_tail(list(lat.values()))
    lat = [x for w in lat.values() for x in w]
    return {
        "compress_mbps": median_over_windows(
            lambda w, _: _rate(w, "compress")),
        "decompress_mbps": median_over_windows(
            lambda w, _: _rate(w, "decompress")),
        "ops_per_s": median_over_windows(
            lambda w, wall: sum(o.kind in requests_kinds for o in w) / wall),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "tail_windows": tail_windows,
        "latency_samples": len(lat),
        "ratio": sum(o.nbytes for o in comp) / sum(o.out_bytes for o in comp),
        "psnr_db": statistics.fmean(r["psnr"] for r in decoded),
        "pk_dev_max": max(r.get("pk_dev", 0.0) for r in decoded),
        "failed_share": sum(
            1 for o in ops
            if not o.ok or (o.ref or {}).get("violations", 0) > 0
        ) / len(ops),
        "peak_rss_mb": run.peak_rss_mb,
    }


def _quality_layers(run) -> dict[str, float]:
    # One reference per distinct output: passes and the compress and
    # decompress ops of one output share it.
    refs = list({id(o.ref): o.ref for o in run.ops if o.ref}.values())
    return {
        "quality.max_err_over_bound": max(
            (r.get("max_over", 0.0) for r in refs), default=0.0),
        "quality.violating_values": float(
            sum(r.get("violations", 0) for r in refs)),
    }


def _per_layer(run, tap, untraced, e2e, requests_kinds) -> dict[str, float]:
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(run.layer_metrics)
    kernel_s = 0.0
    for name, (calls, secs, nbytes) in tap.kernels.items():
        out[f"kernel.{name}.calls"] = float(calls)
        out[f"kernel.{name}.s"] = secs
        out[f"kernel.{name}.bytes_computed"] = float(nbytes)
        kernel_s += secs
    out["kernels.share_of_codec"] = (
        kernel_s / run.codec_s if run.codec_s else 0.0)
    reuses = tap.counter("shm.pool_reuses")
    creates = tap.counter("shm.pool_creates")
    out["shm.pool_reuse_share"] = (
        reuses / (reuses + creates) if reuses + creates else 0.0)
    out.update(_quality_layers(run))
    out["quality.failed_share"] = e2e["failed_share"]
    out["quality.pk_dev_max"] = e2e["pk_dev_max"]

    def per_op(r):
        req = [o.latency_s for o in r.ops if o.kind in requests_kinds]
        return statistics.fmean(req)

    out["telemetry.overhead_share"] = per_op(run) / per_op(untraced) - 1.0
    out["alloc.peak_mb_per_op"] = tap.alloc_peak / 1e6
    out["client_observed_s"] = sum(run.layers.values())
    out["unattributed_s"] = run.layers["unattributed"]
    return out


def _correct(run) -> tuple[bool, list[str]]:
    why = list(run.errors)
    unknown = [o for o in run.ops
               if o.ref is not None and not o.ref.get("known", True)]
    if unknown:
        why.append(f"{len(unknown)} op(s) break the bound by more than "
                   f"{inputs.KNOWN_ULPS:g} float32 ulps")
    return all(o.ok for o in run.ops) and not unknown, why


def _progress(msg: str, _t0=time.perf_counter()) -> None:
    print(f"[{time.perf_counter() - _t0:7.1f} s] {msg}", file=sys.stderr,
          flush=True)


def _table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    pinned = [v for v in PINNED_UNSET if os.environ.get(v)]
    if pinned:
        print(f"error: unset {', '.join(pinned)} to run the benchmark",
              file=sys.stderr)
        return 2
    env = _child_env()
    os.environ.update(REPRO_KERNEL_CACHE=env["REPRO_KERNEL_CACHE"])
    sys.path.insert(0, SRC)
    os.makedirs(CACHE, exist_ok=True)

    warm = bool(glob.glob(os.path.join(env["REPRO_KERNEL_CACHE"], "*.so")))
    store = inputs.Inputs(CACHE, SRC, env)
    kind = INPUT_KIND[args.workload]
    gen_s = store.ensure(kind, args.seed)
    _progress(f"inputs ready ({gen_s:.1f} s generating)")
    library_setup_s(env)  # untimed: warms the kernel and page caches

    import workloads
    from repro import kernels
    from tracing import Tap

    fields, record = store.load(kind, args.seed)
    requests_kinds = (("compress",) if args.workload == "insitu-session"
                      else ("compress", "decompress"))

    def measure(seconds: float, fleet=None, client=None):
        """``(run, untraced run or None, tap or None)`` on one fleet."""
        def once(secs: float, tap=None):
            if args.workload == "nyx-snapshot":
                return workloads.nyx_snapshot(fields, record, secs, tap)
            if args.workload == "service-small":
                return workloads.service_small(
                    fields, record, secs, fleet.port, args.seed, client, tap,
                    min_requests=round(workloads.MIN_REQUESTS * secs
                                       / seconds))
            return workloads.insitu_session(
                fields, record, secs, fleet.port, args.seed, client, tap)

        if not args.trace:
            return once(seconds), None, None
        untraced = once(seconds / 2)
        tap = Tap()
        try:
            return once(seconds / 2, tap), untraced, tap
        finally:
            tap.close()

    fleet_kernels = {}
    try:
        if args.workload == "nyx-snapshot":
            setup_s = statistics.median(
                library_setup_s(env) for _ in range(SETUP_REPEATS))
            run, untraced, tap = measure(args.seconds)
        else:
            # Every set-up spawns a fleet; the workload runs on the last.
            setups = []
            for i in range(SETUP_REPEATS):
                fleet, client, secs = spawn_fleet(env)
                setups.append(secs)
                _progress(f"fleet {i} up in {secs:.2f} s")
                try:
                    if i == SETUP_REPEATS - 1:
                        run, untraced, tap = measure(
                            args.seconds, fleet, client)
                        _progress(f"measured {len(run.ops)} ops in "
                                  f"{sum(run.window_walls):.1f} s")
                        run.peak_rss_mb = fleet.peak_rss_mb()
                        shards = client.stats()["fleet"]["shards"]
                        fleet_kernels = {s: v["kernels"]["active"]
                                         for s, v in shards.items()}
                finally:
                    client.close()
                    fleet.stop()
            setup_s = statistics.median(setups)
    except LayerSumError as exc:
        print(f"error: layer accounting failed: {exc}", file=sys.stderr)
        return 1

    active = kernels.active()
    environment = {
        "kernels": active,
        "kernel_cache_warm_at_start": warm,
        "nproc": os.cpu_count(),
        "unset": list(PINNED_UNSET),
        "python": platform.python_version(),
        "input_generation_s": round(gen_s, 3),
    }
    if fleet_kernels:
        environment["fleet_kernels"] = fleet_kernels
        if any(k != active for k in fleet_kernels.values()):
            print("error: shard kernel tiers differ from the generator's",
                  file=sys.stderr)
            return 1
    print("env: " + json.dumps(environment, sort_keys=True))

    e2e = _end_to_end(run, requests_kinds)
    e2e["setup_s"] = setup_s
    correct, why = _correct(run)
    failed = sum(1 for o in run.ops if not o.ok)
    rows = [(n, e2e[n], u) for n, u in END_TO_END + QUALITY]
    _table(f"{args.workload} seed={args.seed}: {e2e['latency_samples']} "
           f"latencies; tail = p{e2e['tail_percentile']:g} with "
           f"{e2e['tail_samples_beyond']} beyond, median of "
           f"{e2e['tail_windows']} window(s)", rows)
    if args.trace:
        layer = _per_layer(run, tap, untraced, e2e, requests_kinds)
        _table("layers (disjoint self-times, s)",
               sorted(((k, v, "s") for k, v in run.layers.items()),
                      key=lambda r: -r[1]))
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    for line in why:
        print(f"check: {line}")
    print(json.dumps({"correct": correct, "attempted": len(run.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def _stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker that the clients'
    shared-memory pools start, and wait for it to end; left alone it
    outlives this process until it reads EOF on its pipe."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        status = main()
    finally:
        _stop_resource_tracker()
    sys.exit(status)

"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload service-small --seeds 1-5 --seconds 10

Prints, per metric, the median and the interquartile distance over the
median (``statistics.quantiles(values, n=4)``), the steadiness measure
the benchmark's bounds are set against.  Runs whose resolved kernel
tiers differ are never pooled: the tool stops at the first run whose
tiers differ from the first run's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import relative_spread  # noqa: E402


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict, float]:
    """``(env record, result object, wall seconds)`` of one run."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next(json.loads(line[5:]) for line in lines
               if line.startswith("env: "))
    return env, json.loads(lines[-1]), time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    tiers = None
    for seed in _seeds(args.seeds):
        env, result, wall = run_once(args.workload, seed, args.seconds,
                                     args.trace)
        if tiers is None:
            tiers = env["kernels"]
        elif env["kernels"] != tiers:
            print(f"error: seed {seed} ran on kernel tiers {env['kernels']}, "
                  f"not {tiers}; refusing to compare", file=sys.stderr)
            return 1
        flags = (f"wall={wall:.1f}s gen={env['input_generation_s']}s "
                 f"correct={result['correct']} "
                 f"attempted={result['attempted']} failed={result['failed']}")
        print(f"seed {seed}: {flags} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<28} {'median':>14} {'spread':>8}")
    for k, vs in values.items():
        spread = relative_spread(vs) if len(vs) >= 2 else float("nan")
        print(f"{k:<28} {statistics.median(vs):>14.6g} {spread:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

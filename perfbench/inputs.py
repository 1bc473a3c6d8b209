"""Seeded workload inputs and their library references, cached per seed.

A child process generates the inputs of one ``(kind, seed)`` and runs the
library call on every one of them: the bytes each workload's outputs must
match, and the quality of those bytes (exact bound check, PSNR, P(k)
drift).  Because every measured output is checked byte for byte against
these references, their quality is the quality of the measured output.

Generation and references run before any timing, in their own process,
so they never land in ``setup_s``, in a timed phase or in the measuring
process's peak RSS.  The child also loads the native kernels, which
compiles them into the kernel disk cache on a cold checkout.  Entries
are keyed by seed and by a digest of the ``repro`` sources and of this
file, so a code change never reuses stale references.

    python3 perfbench/inputs.py --kind nyx --seed 3 --out DIR   # child entry
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

GRID = 128
#: Fields of one Nyx snapshot, with the paper's cuZFP fixed rates.
NYX_RATES = {
    "baryon_density": 4.0,
    "dark_matter_density": 4.0,
    "temperature": 4.0,
    "velocity_x": 2.0,
    "velocity_y": 2.0,
    "velocity_z": 2.0,
}
#: SZ ABS bound as a fraction of the field's standard deviation: the
#: tightest fraction of the paper's guideline sweep.
EB_FRACTION = 1e-3
#: Edge of the 32^3 (128 KiB) subvolumes of the service workload.
TILE = 32
#: Temporal streams of the in-situ workload (one session per field).
SERIES_FIELDS = ("baryon_density", "temperature")
SERIES_STEPS = 16
KEYFRAME_EVERY = 8
#: A bound violation no larger than this many float32 ulps of the values
#: rounded on the way (the decoded value, and on a temporal delta step
#: the residual) is the known rounding defect (see README.md); a larger
#: one is a new fault and fails the run.
KNOWN_ULPS = 2.0
#: Cached entries kept per input kind (seeds); older ones are evicted.
#: Ten seeds of every kind take about 3.5 GB.
KEEP_ENTRIES = 10
KINDS = ("nyx", "tiles", "series")


def digest(buf) -> str:
    return hashlib.sha1(memoryview(buf).cast("B")).hexdigest()


def bound_check(orig: np.ndarray, dec: np.ndarray, eb: float,
                prev: np.ndarray | None = None) -> dict:
    """Exact float64 bound check, no slack: ``|x - x'| <= eb``.

    ``prev`` is the decoded reference of a temporal delta step.  The codec
    rounds the residual ``x - prev`` to float32 as well as the decoded
    value, so a violation is the known defect when it is within
    :data:`KNOWN_ULPS` ulps of the larger of the two.
    """
    err = np.abs(orig.astype(np.float64) - dec.astype(np.float64))
    bad = err > eb
    n = int(bad.sum())
    known = True
    if n:
        rounded = np.abs(dec[bad].astype(np.float64))
        if prev is not None:
            rounded = np.maximum(rounded, np.abs(
                orig[bad].astype(np.float64) - prev[bad].astype(np.float64)))
        ulp = np.spacing(rounded.astype(np.float32)).astype(np.float64)
        known = bool(np.all(err[bad] - eb <= KNOWN_ULPS * ulp))
    return {"violations": n, "max_over": float(err.max() / eb),
            "known": known}


def source_digest(src: str) -> str:
    """Digest of the ``repro`` sources and of this file, which together
    decide every reference."""
    h = hashlib.sha1()
    with open(__file__, "rb") as fh:
        h.update(fh.read())
    for root, dirs, files in os.walk(os.path.join(src, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py") or name.endswith(".c"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


def tiles(field: np.ndarray) -> list[np.ndarray]:
    """Contiguous copies of every aligned 32^3 subvolume, in C order."""
    n = field.shape[0] // TILE
    return [
        np.ascontiguousarray(field[i * TILE:(i + 1) * TILE,
                                   j * TILE:(j + 1) * TILE,
                                   k * TILE:(k + 1) * TILE])
        for i in range(n) for j in range(n) for k in range(n)
    ]


def quality(orig, dec, box_size, drift: bool) -> dict:
    """PSNR, digest and, with ``drift``, the P(k) deviation of ``dec``."""
    from repro.analysis.drift import snapshot_drift
    from repro.metrics.error import psnr

    out = {"psnr": float(psnr(orig, dec)), "decoded_sha": digest(dec)}
    if drift:
        out["pk_dev"] = float(snapshot_drift(orig, dec, box_size)["pk_max_dev"])
    return out


def _nyx_refs(fields, box_size) -> dict:
    from repro.compressors import get_compressor

    sz, zfp = get_compressor("sz"), get_compressor("zfp")
    refs = {}
    for name, f in fields.items():
        eb = EB_FRACTION * float(f.std())
        b = sz.compress(f, mode="abs", error_bound=eb)
        d = sz.decompress(b)
        z = zfp.compress(f, mode="fixed_rate", rate=NYX_RATES[name])
        zd = zfp.decompress(z)
        refs[name] = {
            "eb": eb,
            "sz": {"sha": digest(b.payload), "nbytes": len(b.payload),
                   **bound_check(f, d, eb), **quality(f, d, box_size, True)},
            "zfp": {"sha": digest(z.payload), "nbytes": len(z.payload),
                    **quality(f, zd, box_size, True)},
        }
    return refs


def _tile_refs(fields, box_size) -> dict:
    from repro.compressors import get_compressor

    sz = get_compressor("sz")
    refs = {}
    tile_box = box_size * TILE / GRID
    for name, f in fields.items():
        eb = EB_FRACTION * float(f.std())
        rows = []
        for t in tiles(f):
            b = sz.compress(t, mode="abs", error_bound=eb)
            d = sz.decompress(b)
            rows.append({"sha": digest(b.payload), "nbytes": len(b.payload),
                         **bound_check(t, d, eb),
                         **quality(t, d, tile_box, True)})
        refs[name] = {"eb": eb, "tiles": rows}
    return refs


def _series_refs(fields) -> dict:
    """The library's TMP1 frames.  The workload's client decodes every
    frame with the library anyway, so the quality of the decoded steps
    is measured there (outside the timed windows), not here."""
    from repro.compressors import TemporalCompressor

    refs = {}
    for name, stack in fields.items():
        eb = EB_FRACTION * float(stack[0].std())
        enc = TemporalCompressor(inner="sz", keyframe_every=KEYFRAME_EVERY)
        rows = []
        for snap in stack:
            frame = enc.compress(snap, mode="abs", error_bound=eb).payload
            rows.append({"sha": digest(frame), "nbytes": len(frame)})
        refs[name] = {"eb": eb, "steps": rows}
    return refs


def _generate(kind: str, seed: int, out: str) -> None:
    from repro import kernels
    from repro.cosmo.nyx import make_nyx_dataset
    from repro.cosmo.timeseries import make_nyx_series

    kernels.active()  # probe (and on a cold cache, compile) the native tier
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if kind == "series":
        series = make_nyx_series(
            grid_size=GRID, n_snapshots=SERIES_STEPS, seed=seed
        )
        fields = {
            n: np.stack([s.fields[n] for s in series.snapshots])
            for n in SERIES_FIELDS
        }
        box = series.snapshots[0].box_size
        del series
        refs = _series_refs(fields)
    else:
        ds = make_nyx_dataset(grid_size=GRID, seed=seed)
        fields = {n: ds.fields[n] for n in NYX_RATES}
        box = ds.box_size
        refs = (_nyx_refs if kind == "nyx" else _tile_refs)(fields, box)
    for name, arr in fields.items():
        np.save(os.path.join(tmp, f"{name}.npy"), arr)
    with open(os.path.join(tmp, "refs.json"), "w") as fh:
        json.dump({"kind": kind, "seed": seed, "box_size": box,
                   "refs": refs}, fh)
    os.replace(tmp, out)


class Inputs:
    """Cache of generated inputs under ``<cache>/inputs``."""

    def __init__(self, cache: str, src: str, env: dict[str, str]) -> None:
        self.root = os.path.join(cache, "inputs")
        self.tag = source_digest(src)
        self.env = env

    def _entry(self, kind: str, seed: int) -> str:
        return os.path.join(self.root, f"{kind}-{self.tag}-{seed}")

    def ensure(self, kind: str, seed: int) -> float:
        """Generate ``(kind, seed)`` unless cached; returns the seconds
        spent generating (0 on a hit)."""
        out = self._entry(kind, seed)
        if os.path.exists(os.path.join(out, "refs.json")):
            os.utime(out)
            return 0.0
        os.makedirs(self.root, exist_ok=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--kind", kind, "--seed", str(seed), "--out", out],
            env=self.env, check=True, timeout=170,
        )
        entries = sorted(
            (os.path.join(self.root, e) for e in os.listdir(self.root)
             if e.startswith(f"{kind}-") and not e.endswith(".tmp")),
            key=os.path.getmtime, reverse=True,
        )
        for path in entries[KEEP_ENTRIES:]:
            shutil.rmtree(path, ignore_errors=True)
        return time.perf_counter() - t0

    def load(self, kind: str, seed: int) -> tuple[dict[str, np.ndarray], dict]:
        """``(fields, refs record)``; arrays are read fully into memory."""
        out = self._entry(kind, seed)
        with open(os.path.join(out, "refs.json")) as fh:
            record = json.load(fh)
        names = SERIES_FIELDS if kind == "series" else tuple(NYX_RATES)
        fields = {n: np.load(os.path.join(out, f"{n}.npy")) for n in names}
        return fields, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="generate one input entry")
    parser.add_argument("--kind", required=True, choices=KINDS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    _generate(args.kind, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

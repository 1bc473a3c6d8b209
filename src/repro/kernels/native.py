"""Native (compiled) kernel tier.

A small C library (:mod:`repro.kernels._csource`) compiled on demand
with the system C compiler and loaded through :mod:`ctypes`.  The
shared object is cached under ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``) keyed by a hash of the source and the
compiler, so compilation happens once per machine, not per process.

When the library cannot run (no compiler, compile failure, or a
compiler whose signed right shift is not arithmetic) every entry point
raises :class:`~repro.errors.KernelUnavailableError`, which the
registry treats as "fall back one tier" — importing this module never
hard-fails.

All wrappers implement exactly the same contracts as their scalar and
numpy counterparts (same arguments, same return types, same error
classes and messages) so the registry can swap them freely; bit-exactness
is enforced by the parity matrix in ``tests/test_fastpath_equivalence.py``.
Every length reaches the C code as an explicit argument, validated here
first.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.errors import DataError, KernelUnavailableError
from repro.kernels._csource import C_SOURCE

#: Directory caching the compiled shared object across processes.
CACHE_ENV = "REPRO_KERNEL_CACHE"

_EBITS = 12  # blockcodec.EBITS; duplicated to avoid an import cycle
_EBIAS = 2048

#: numpy's int64 arithmetic wraps and its float operations never fuse;
#: -fwrapv and -ffp-contract=off give the C kernels the same bits.
_CFLAGS = ("-O2", "-fwrapv", "-ffp-contract=off", "-fPIC", "-shared")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

#: C entry points: name -> (argtypes, restype).
_SIGNATURES = {
    "repro_lorenzo_dualquant":
        ([_PTR, _PTR, _I64, _I64, _I64, _I64, _F64], _I64),
    "repro_lorenzo_reconstruct": ([_PTR, _I64, _I64, _I64, _I64], None),
    "repro_pack_varlen": ([_PTR, _PTR, _I64, _PTR], _I64),
    "repro_huffman_symbol_bits": ([_PTR, _I64, _PTR], _I64),
    "repro_huffman_encode": ([_PTR, _I64, _PTR, _PTR, _I64, _PTR, _PTR], _I64),
    "repro_huffman_decode":
        ([_PTR, _I64, _PTR, _I64, _I64, _I64, _PTR, _PTR, _I64, _I64, _PTR],
         _I64),
    "repro_zfp_plane_words": ([_PTR, _I64, _I64, _I64, _PTR], None),
    "repro_zfp_words_to_coeffs": ([_PTR, _I64, _I64, _I64, _PTR], None),
    "repro_zfp_encode_blocks":
        ([_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _I64, _PTR, _PTR,
          _PTR], None),
    "repro_zfp_decode_blocks":
        ([_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR], None),
    "repro_zfp_xform":
        ([_PTR, _I64, _I64, _I64, _I64, _I64, _I64, _PTR, _I64, _PTR, _PTR,
          _PTR], _I64),
    "repro_zfp_xform_inverse":
        ([_PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _I64, _I64, _PTR, _I64,
          _PTR], None),
    "repro_probe_asr": ([_I64], _I64),
}

_state: dict = {"probed": False, "lib": None, "error": None}


def _cache_dir() -> str:
    base = os.environ.get(CACHE_ENV, "").strip()
    if base:
        return base
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-kernels")


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand:
            path = shutil.which(cand)
            if path:
                return path
    return None


def _build_clib() -> ctypes.CDLL:
    """Compile (once, cached) and load the C kernel library."""
    cc = _find_compiler()
    if cc is None:
        raise KernelUnavailableError("no C compiler (cc/gcc/clang) on PATH")
    key = "\x00".join([cc, *_CFLAGS, C_SOURCE])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = _cache_dir()
    sopath = os.path.join(cache, f"repro_kernels_{digest}.so")
    if not os.path.exists(sopath):
        try:
            os.makedirs(cache, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src = os.path.join(tmp, "kernels.c")
                out = os.path.join(tmp, "kernels.so")
                with open(src, "w") as fh:
                    fh.write(C_SOURCE)
                proc = subprocess.run(
                    [cc, *_CFLAGS, "-o", out, src],
                    capture_output=True, text=True, timeout=300,
                )
                if proc.returncode != 0:
                    raise KernelUnavailableError(
                        f"kernel compile failed: {proc.stderr.strip()[:500]}"
                    )
                os.replace(out, sopath)  # atomic: concurrent builders race safely
        except KernelUnavailableError:
            raise
        except Exception as exc:
            raise KernelUnavailableError(f"kernel build failed: {exc}") from exc
    try:
        lib = ctypes.CDLL(sopath)
    except OSError as exc:
        raise KernelUnavailableError(f"cannot load {sopath}: {exc}") from exc
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def _check_arithmetic_shift(lib: ctypes.CDLL) -> None:
    """The lifting kernels rely on ``>>`` of a negative int64 being
    arithmetic, as numpy's is; a compiler that shifts logically would
    emit wrong bits, so the tier degrades instead."""
    if lib.repro_probe_asr(-3) != -2:
        raise KernelUnavailableError(
            "C compiler's signed right shift is not arithmetic"
        )


def _lib() -> ctypes.CDLL:
    """The loaded library, built and probed once per process."""
    if not _state["probed"]:
        _state["probed"] = True
        try:
            lib = _build_clib()
            _check_arithmetic_shift(lib)
            _state["lib"] = lib
        except Exception as exc:
            _state["error"] = KernelUnavailableError(
                f"native kernel tier unavailable ({exc})"
            )
    if _state["error"] is not None:
        raise _state["error"]
    return _state["lib"]


def probe() -> None:
    """Registry availability hook: raises KernelUnavailableError when the
    C library cannot be built, loaded or trusted here."""
    _lib()


def reset() -> None:
    """Forget the memoized library (tests re-probing under new env)."""
    _state.update(probed=False, lib=None, error=None)


def _p(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


# -- kernel wrappers ---------------------------------------------------------


def _block_dims(shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(nblocks, b0, b1, b2) for a (nblocks, *block_shape) batch array."""
    nblocks = shape[0]
    dims = list(shape[1:]) + [1] * (3 - len(shape[1:]))
    return nblocks, dims[0], dims[1], dims[2]


def lorenzo_dualquant(blocks: np.ndarray, error_bound: float) -> np.ndarray:
    """Fused prequantize + Lorenzo residual (``sz.lorenzo`` kernel)."""
    lib = _lib()
    if error_bound <= 0 or not np.isfinite(error_bound):
        raise DataError(
            f"error bound must be a positive finite float, got {error_bound}"
        )
    if blocks.ndim - 1 not in (1, 2, 3):
        raise DataError(f"expected (nblocks, ...) batch, got shape {blocks.shape}")
    data = np.ascontiguousarray(blocks, dtype=np.float64)
    out = np.empty(data.shape, dtype=np.int64)
    if data.size:
        nblocks, b0, b1, b2 = _block_dims(data.shape)
        overflow = lib.repro_lorenzo_dualquant(
            _p(data), _p(out), nblocks, b0, b1, b2, 2.0 * error_bound
        )
        if overflow:
            raise DataError(
                "error bound too small relative to data magnitude (int64 overflow)"
            )
    return out


def lorenzo_reconstruct(residual: np.ndarray) -> np.ndarray:
    """Iterated cumulative sum (``sz.lorenzo_inverse`` kernel)."""
    lib = _lib()
    q = np.ascontiguousarray(residual, dtype=np.int64).copy()
    if q.size:
        nblocks, b0, b1, b2 = _block_dims(q.shape)
        lib.repro_lorenzo_reconstruct(_p(q), nblocks, b0, b1, b2)
    return q


def pack_varlen(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """MSB-first variable-length bit packing (``pack.varlen`` kernel)."""
    lib = _lib()
    if codes.size == 0:
        return b"", 0
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    out = np.zeros((total + 7) // 8, dtype=np.uint8)
    lib.repro_pack_varlen(_p(codes), _p(lengths), codes.size, _p(out))
    return out.tobytes(), total


def huffman_encode(
    symbols: np.ndarray, codes: np.ndarray, lengths: np.ndarray, chunk_size: int
) -> tuple[bytes, int, np.ndarray]:
    """Fused symbol->codeword bit packing plus the per-chunk bit-offset
    table (``huffman.encode`` kernel)."""
    lib = _lib()
    symbols = np.ascontiguousarray(symbols, dtype=np.int64)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    len_u8 = np.ascontiguousarray(lengths, dtype=np.uint8)
    n = symbols.size
    nchunks = max(1, -(-n // chunk_size))
    chunk_offsets = np.zeros(nchunks, dtype=np.uint64)
    if n == 0:
        return b"", 0, chunk_offsets
    total = int(lib.repro_huffman_symbol_bits(_p(symbols), n, _p(len_u8)))
    out = np.zeros((total + 7) // 8, dtype=np.uint8)
    lib.repro_huffman_encode(
        _p(symbols), n, _p(codes), _p(len_u8), chunk_size,
        _p(chunk_offsets), _p(out),
    )
    return out.tobytes(), total, chunk_offsets


def huffman_decode(
    body: bytes,
    table_sym: np.ndarray,
    table_len: np.ndarray,
    chunk_offsets: np.ndarray,
    n: int,
    chunk_size: int,
    max_len: int,
    total_bits: int,
) -> np.ndarray:
    """Chunk-parallel dense-table decode (``huffman.decode`` kernel)."""
    from repro.errors import CorruptStreamError

    lib = _lib()
    body_arr = np.frombuffer(body, dtype=np.uint8)
    table_sym = np.ascontiguousarray(table_sym, dtype=np.int64)
    table_len = np.ascontiguousarray(table_len, dtype=np.int64)
    chunk_offsets = np.ascontiguousarray(chunk_offsets, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    code = lib.repro_huffman_decode(
        _p(body_arr), body_arr.size, _p(chunk_offsets), chunk_offsets.size,
        chunk_size, n, _p(table_sym), _p(table_len), max_len, total_bits,
        _p(out),
    )
    if code == 1:
        raise CorruptStreamError("invalid codeword in Huffman stream")
    if code == 2:
        raise CorruptStreamError("Huffman decode overran declared bit length")
    return out


def zfp_plane_words(u: np.ndarray, nplanes: int) -> np.ndarray:
    """Bit-plane transpose (``zfp.transpose`` kernel)."""
    lib = _lib()
    nblocks, size = u.shape
    u = np.ascontiguousarray(u, dtype=np.uint64)
    words = np.zeros((nblocks, nplanes), dtype=np.uint64)
    if nblocks:
        lib.repro_zfp_plane_words(_p(u), nblocks, size, nplanes, _p(words))
    return words


def zfp_words_to_coeffs(words: np.ndarray, size: int) -> np.ndarray:
    """Inverse bit-plane transpose (``zfp.transpose_inverse`` kernel)."""
    lib = _lib()
    nblocks, nplanes = words.shape
    words = np.ascontiguousarray(words, dtype=np.uint64)
    u = np.zeros((nblocks, size), dtype=np.uint64)
    if nblocks:
        lib.repro_zfp_words_to_coeffs(_p(words), nblocks, nplanes, size,
                                      _p(u))
    return u


def zfp_encode_blocks(
    words: np.ndarray,
    nonzero: np.ndarray,
    e: np.ndarray,
    size: int,
    planes: int,
    budgets: np.ndarray,
    kmins: np.ndarray,
    maxbits: int = 0,
) -> tuple[bytes, int, np.ndarray, np.ndarray]:
    """Group-testing block coder (``zfp.encode`` kernel); same contract
    as :func:`repro.compressors.zfp.batch.encode_blocks`."""
    from repro.telemetry import get_telemetry

    lib = _lib()
    nblocks = words.shape[0]
    header_bits = 1 + _EBITS
    fixed_rate = maxbits > 0
    capacity = maxbits if fixed_rate else (
        header_bits + planes * (2 * size + 1) + 2 * size + 8
    )
    words = np.ascontiguousarray(words, dtype=np.uint64)
    nonzero_u8 = np.ascontiguousarray(nonzero, dtype=np.uint8)
    e = np.ascontiguousarray(e, dtype=np.int64)
    budgets = np.ascontiguousarray(budgets, dtype=np.int64)
    kmins = np.ascontiguousarray(kmins, dtype=np.int64)
    # The kernel emits straight into the packed MSB-first stream (one
    # pass, no byte-per-bit staging or gather) — `capacity` is only an
    # upper bound sizing the zeroed output buffer.
    out = np.zeros((nblocks * capacity + 7) // 8, dtype=np.uint8)
    pos = np.zeros(nblocks, dtype=np.int64)
    used_bits = np.zeros(nblocks, dtype=np.int64)
    if nblocks:
        lib.repro_zfp_encode_blocks(
            _p(words), _p(nonzero_u8), _p(e), nblocks, size, planes,
            _p(budgets), _p(kmins), maxbits, _p(out), _p(pos), _p(used_bits),
        )
    offsets = np.zeros(nblocks + 1, dtype=np.uint64)
    np.cumsum(pos, out=offsets[1:])
    total = int(offsets[-1])
    get_telemetry().count("zfp.emitted_bits", total)
    body = out[: (total + 7) // 8].tobytes()
    return body, total, offsets, used_bits


def zfp_decode_blocks(
    bits: np.ndarray,
    offsets: np.ndarray,
    nonzero: np.ndarray,
    planes: int,
    size: int,
    budgets: np.ndarray,
    kmins: np.ndarray,
) -> np.ndarray:
    """Mirror of :func:`zfp_encode_blocks`; same contract as
    :func:`repro.compressors.zfp.batch.decode_blocks`."""
    lib = _lib()
    nblocks = offsets.size - 1
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    nonzero_u8 = np.ascontiguousarray(nonzero, dtype=np.uint8)
    budgets = np.ascontiguousarray(budgets, dtype=np.int64)
    kmins = np.ascontiguousarray(kmins, dtype=np.int64)
    words = np.zeros((nblocks, planes), dtype=np.uint64)
    if nblocks:
        lib.repro_zfp_decode_blocks(
            _p(bits), _p(offsets), _p(nonzero_u8), nblocks, planes, size,
            _p(budgets), _p(kmins), _p(words),
        )
    return words


#: Bit planes the ZFP block transform supports (float32, float64).
_XFORM_PLANES = (32, 52)


def _xform_dims(shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(nblocks, n0, n1, n2): the shape padded to 3-D with leading 1s and
    the number of 4^d blocks covering it."""
    n0, n1, n2 = (1,) * (3 - len(shape)) + tuple(shape)
    nblocks = 1
    for s in shape:
        nblocks *= -(-s // 4)
    return nblocks, n0, n1, n2


def _xform_check(ndim: int, planes: int, dtype: np.dtype) -> None:
    if ndim not in (1, 2, 3):
        raise DataError(f"ZFP block transform supports 1-3 dimensions, got {ndim}")
    if planes not in _XFORM_PLANES:
        raise DataError(f"ZFP block transform planes must be one of "
                        f"{_XFORM_PLANES}, got {planes}")
    if dtype not in (np.float32, np.float64):
        raise DataError(f"ZFP block transform needs float32/float64, got {dtype}")


def zfp_xform(
    data: np.ndarray, planes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused block transform (``zfp.xform`` kernel); same contract as
    :func:`repro.compressors.zfp.zfpcompressor._xform_reference`."""
    from repro.compressors.zfp.transform import sequency_order

    lib = _lib()
    _xform_check(data.ndim, planes, data.dtype)
    data = np.ascontiguousarray(data)
    nblocks, n0, n1, n2 = _xform_dims(data.shape)
    size = 4**data.ndim
    perm = np.ascontiguousarray(sequency_order(data.ndim), dtype=np.int64)
    u = np.empty((nblocks, size), dtype=np.uint64)
    e = np.empty(nblocks, dtype=np.int64)
    nonzero = np.empty(nblocks, dtype=np.bool_)
    if nblocks and lib.repro_zfp_xform(
        _p(data), int(data.dtype == np.float64), data.ndim, n0, n1, n2,
        planes, _p(perm), nblocks, _p(u), _p(e), _p(nonzero),
    ):
        raise DataError("ZFP input must be finite (no NaN/Inf)")
    return u, e, nonzero


def zfp_xform_inverse(
    u: np.ndarray,
    e: np.ndarray,
    nonzero: np.ndarray,
    planes: int,
    shape: tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    """Inverse of :func:`zfp_xform` (``zfp.xform_inverse`` kernel)."""
    from repro.compressors.zfp.transform import sequency_order

    lib = _lib()
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    _xform_check(len(shape), planes, dtype)
    nblocks, n0, n1, n2 = _xform_dims(shape)
    size = 4 ** len(shape)
    u = np.ascontiguousarray(u, dtype=np.uint64)
    e = np.ascontiguousarray(e, dtype=np.int64)
    nonzero_u8 = np.ascontiguousarray(nonzero, dtype=np.uint8)
    if u.shape != (nblocks, size) or e.shape != (nblocks,) \
            or nonzero_u8.shape != (nblocks,):
        raise DataError(
            f"ZFP block arrays u{u.shape}/e{e.shape}/nonzero"
            f"{nonzero_u8.shape} do not match {nblocks} blocks of {size}"
        )
    perm = np.ascontiguousarray(sequency_order(len(shape)), dtype=np.int64)
    out = np.empty(shape, dtype=dtype)
    if nblocks:
        lib.repro_zfp_xform_inverse(
            _p(u), _p(e), _p(nonzero_u8), nblocks, len(shape), n0, n1, n2,
            planes, _p(perm), int(dtype == np.float64), _p(out),
        )
    return out

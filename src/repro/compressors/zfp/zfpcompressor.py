"""ZFP compressor facade: fixed-rate, fixed-precision, fixed-accuracy.

Stream layout::

    magic  b"ZFR1"
    fixed header (struct): version, dtype, ndim, planes, maxbits,
                           nblocks, mode, parameter
    shape  ndim * u64
    offset table ((nblocks + 1) * u64 bit offsets; variable-rate modes only)
    bit blob

Per block (inside the budget):

    1 bit   nonzero flag
    12 bits biased common exponent           (only if nonzero)
    ...     embedded-coded bit planes        (only if nonzero)
    ...     zero padding up to ``maxbits``   (fixed-rate mode only)

Fixed-rate is the paper's cuZFP mode: block ``b`` starts at bit
``b * maxbits``, which is what makes the stream GPU-decodable in
parallel.  Fixed-precision codes a constant number of bit planes per
block; fixed-accuracy truncates planes below a per-block cutoff derived
from the common exponent so the reconstruction error stays under an
absolute tolerance — the CPU-ZFP modes the paper notes were missing from
cuZFP.  Variable-rate streams carry an explicit per-block offset table
(the index a parallel decoder would need).
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor, CompressorMode
from repro.compressors.zfp import batch as B
from repro.compressors.zfp import blockcodec as BC
from repro.compressors.zfp import transform as T
from repro.errors import CorruptStreamError, DataError
from repro.telemetry import DEFAULT_BYTE_BUCKETS, get_telemetry
from repro.util.blocks import block_partition, block_reassemble
from repro.util.validation import check_dtype, check_shape_nd

_MAGIC = b"ZFR1"
_HDR = "<4sBBBBIQBd"
_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}

#: Bit planes kept per dtype; headroom notes in blockcodec/transform.
_PLANES = {0: 32, 1: 52}

_MODE_CODES = {
    CompressorMode.FIXED_RATE: 0,
    CompressorMode.FIXED_PRECISION: 1,
    CompressorMode.FIXED_ACCURACY: 2,
}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}

#: Effectively-unbounded per-block budget for the variable-rate modes.
_UNBOUNDED = 1 << 20


def _accuracy_kmin(tolerance: float, e: int, planes: int, ndim: int) -> int:
    """Plane cutoff guaranteeing abs error <= tolerance for one block.

    Truncating planes below ``kmin`` perturbs each coefficient by
    ``< 2^kmin`` lattice units = ``2^(kmin + e - (planes-2))`` in value;
    the inverse transform amplifies the max coefficient error by at most
    ``(15/4)^ndim < 4^ndim``, so we solve for kmin with that conservative
    gain (matching zfp's accuracy-mode bookkeeping in spirit).
    """
    gain_log2 = 2 * ndim
    kmin = math.floor(math.log2(tolerance)) - gain_log2 - e + (planes - 2)
    return max(0, min(planes, kmin))


def _accuracy_kmin_array(
    tolerance: float, e: np.ndarray, planes: int, ndim: int
) -> np.ndarray:
    """Vectorized :func:`_accuracy_kmin` over per-block exponents."""
    base = math.floor(math.log2(tolerance)) - 2 * ndim + (planes - 2)
    return np.clip(base - e, 0, planes).astype(np.int64)


def _encode_blocks_scalar(
    words: np.ndarray,
    nonzero: np.ndarray,
    e: np.ndarray,
    size: int,
    planes: int,
    budgets: np.ndarray,
    kmins: np.ndarray,
    maxbits: int = 0,
) -> tuple[bytes, int, np.ndarray, np.ndarray]:
    """Seed per-block reference loop; same contract as
    :func:`repro.compressors.zfp.batch.encode_blocks`."""
    nblocks = words.shape[0]
    header_bits = 1 + BC.EBITS
    fixed_rate = maxbits > 0
    words_list = words.tolist()
    emitter = BC._Emitter()
    used_bits = np.zeros(nblocks, dtype=np.int64)
    offsets = np.zeros(nblocks + 1, dtype=np.uint64)
    for b in range(nblocks):
        offsets[b] = emitter.nbits
        if not nonzero[b]:
            emitter.emit_msb(0, 1)
            if fixed_rate:
                emitter.emit_msb(0, maxbits - 1)
            continue
        emitter.emit_msb(1, 1)
        emitter.emit_msb(int(e[b]) + BC.EBIAS, BC.EBITS)
        used_bits[b] = header_bits + BC.encode_block_planes(
            emitter, words_list[b], size, int(budgets[b]),
            kmin=int(kmins[b]), pad=fixed_rate,
        )
    offsets[nblocks] = emitter.nbits
    body, nbits = emitter.pack()
    return body, nbits, offsets, used_bits


def _xform_reference(
    data: np.ndarray, planes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference tier of the ``zfp.xform`` kernel: the numpy pass chain.

    Edge-padded 4^d blocks, per-block common exponent ``e`` (``amax <
    2**e``), fixed point ``rint(ldexp(x, planes-2-e))``, forward lifting,
    sequency reorder and negabinary.  Returns ``(u, e, nonzero)``: the
    ``(nblocks, 4**ndim)`` uint64 negabinary coefficients, the int64
    exponents (0 for all-zero blocks) and the nonzero-block flags.
    """
    ndim = data.ndim
    blocks, _, _ = block_partition(data, (4,) * ndim, mode="edge")
    nblocks = blocks.shape[0]
    flat = blocks.reshape(nblocks, 4**ndim).astype(np.float64)

    amax = np.abs(flat).max(axis=1)
    if not np.isfinite(amax).all():
        raise DataError("ZFP input must be finite (no NaN/Inf)")
    nonzero = amax > 0
    e = np.zeros(nblocks, dtype=np.int64)
    _, e_nz = np.frexp(amax[nonzero])
    e[nonzero] = e_nz  # amax < 2**e
    scale_exp = (planes - 2) - e
    ints = np.rint(np.ldexp(flat, scale_exp[:, None])).astype(np.int64)

    coeffs = T.forward_transform(ints.reshape(blocks.shape))
    ordered = coeffs.reshape(nblocks, 4**ndim)[:, T.sequency_order(ndim)]
    return BC.int_to_negabinary(ordered), e, nonzero


def _xform_inverse_reference(
    u: np.ndarray,
    e: np.ndarray,
    nonzero: np.ndarray,
    planes: int,
    shape: tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    """Reference tier of the ``zfp.xform_inverse`` kernel: undoes
    :func:`_xform_reference` and crops the blocks back to ``shape``."""
    ndim = len(shape)
    nblocks = u.shape[0]
    ordered = BC.negabinary_to_int(u)
    inv_perm = T.inverse_sequency_order(ndim)
    coeffs = ordered[:, inv_perm].reshape((nblocks,) + (4,) * ndim)
    ints = T.inverse_transform(coeffs)
    scale_exp = -((planes - 2) - e)
    flat = np.ldexp(
        ints.reshape(nblocks, 4**ndim).astype(np.float64), scale_exp[:, None]
    )
    flat[~nonzero] = 0.0

    grid = tuple(-(-s // 4) for s in shape)
    arr = block_reassemble(flat.reshape((nblocks,) + (4,) * ndim), grid, shape)
    return arr.astype(dtype)


class ZFPCompressor(Compressor):
    """Transform-based lossy compressor (ZFP family).

    Knobs (one per mode):

    * ``rate`` — bits per value; exact, data-independent ratio.
    * ``precision`` — bit planes kept per block (variable rate).
    * ``tolerance`` — absolute error bound (variable rate).

    The bit-plane coder dispatches through the kernel registry
    (:mod:`repro.kernels`): the scalar per-block reference loops, the
    vectorized all-blocks kernels of
    :mod:`repro.compressors.zfp.batch`, or the compiled native tier.
    All tiers produce **byte-identical** streams.  ``backend`` pins a
    tier for this instance; ``None`` defers to the process selection
    (``REPRO_BACKEND`` / :func:`repro.kernels.use`).
    """

    name = "zfp"
    supported_modes = (
        CompressorMode.FIXED_RATE,
        CompressorMode.FIXED_PRECISION,
        CompressorMode.FIXED_ACCURACY,
    )

    def __init__(self, backend: str | None = None) -> None:
        self._backend = backend

    @property
    def backend(self) -> str:
        """The tier the bit-plane coder resolves to right now."""
        from repro import kernels

        return kernels.resolve_name("zfp.encode", self._backend)

    def compress(
        self,
        data: np.ndarray,
        rate: float | None = None,
        precision: int | None = None,
        tolerance: float | None = None,
        mode: CompressorMode | str | None = None,
        **_: Any,
    ) -> CompressedBuffer:
        mode = self._resolve_mode(mode, rate, precision, tolerance)
        self.check_mode(mode)
        data = np.asarray(data)
        check_dtype(data, [np.float32, np.float64], "data")
        check_shape_nd(data, (1, 2, 3), "data")

        size = 4**data.ndim
        planes = _PLANES[_DTYPE_CODES[data.dtype]]
        header_bits = 1 + BC.EBITS

        if mode is CompressorMode.FIXED_RATE:
            maxbits = int(round(rate * size))
            if maxbits < header_bits + 1:
                raise DataError(
                    f"rate {rate} too small: needs at least "
                    f"{(header_bits + 1) / size:.3f} bits/value for the block header"
                )
            parameter = float(rate)
        elif mode is CompressorMode.FIXED_PRECISION:
            if not 1 <= int(precision) <= planes:
                raise DataError(f"precision must be in [1, {planes}]")
            maxbits = 0
            parameter = float(precision)
        else:
            if tolerance is None or tolerance <= 0 or not np.isfinite(tolerance):
                raise DataError("fixed-accuracy mode needs a positive tolerance")
            maxbits = 0
            parameter = float(tolerance)

        from repro import kernels

        tm = get_telemetry()
        with tm.span("zfp.transform", bytes=data.nbytes):
            u, e, nonzero = kernels.call(
                "zfp.xform", data, planes, backend=self._backend
            )
        # zfp.xform also does the sequency reorder and negabinary; the
        # stage span stays so every ZFP trace lists the same stages.
        with tm.span("zfp.reorder", bytes=data.nbytes, fused="zfp.xform"):
            pass
        nblocks = u.shape[0]

        fixed_rate = mode is CompressorMode.FIXED_RATE
        if fixed_rate:
            budgets = np.full(nblocks, maxbits - header_bits, dtype=np.int64)
            kmins = np.zeros(nblocks, dtype=np.int64)
        elif mode is CompressorMode.FIXED_PRECISION:
            budgets = np.full(nblocks, _UNBOUNDED, dtype=np.int64)
            kmins = np.full(nblocks, planes - int(precision), dtype=np.int64)
        else:
            budgets = np.full(nblocks, _UNBOUNDED, dtype=np.int64)
            kmins = _accuracy_kmin_array(parameter, e, planes, data.ndim)
        coder = kernels.resolve_name("zfp.encode", self._backend)
        with tm.span("zfp.bitplane", bytes=data.nbytes, nblocks=nblocks,
                     mode=mode.value, backend=coder,
                     batched=coder != "scalar"):
            words = BC.plane_words(u, planes, backend=self._backend)
            body, nbits, offsets, used_bits = kernels.call(
                "zfp.encode", words, nonzero, e, size, planes, budgets,
                kmins, maxbits=maxbits if fixed_rate else 0,
                backend=self._backend,
            )
            if fixed_rate and nbits != nblocks * maxbits:
                raise AssertionError("fixed-rate invariant violated")
        # Bit-plane truncation stats: bits each block actually coded (before
        # any fixed-rate zero padding) — the quantity Fig. 10's rate knob
        # trades against error.
        tm.observe_many("zfp.block_used_bits", used_bits[nonzero])
        if fixed_rate:
            tm.count("zfp.padding_bits",
                     int((np.int64(maxbits) - used_bits[nonzero]).sum()))
        tm.count("zfp.zero_blocks", int((~nonzero).sum()))

        header = struct.pack(
            _HDR,
            _MAGIC,
            2,
            _DTYPE_CODES[data.dtype],
            data.ndim,
            planes,
            maxbits,
            nblocks,
            _MODE_CODES[mode],
            parameter,
        )
        shape_bytes = struct.pack(f"<{data.ndim}Q", *data.shape)
        offset_bytes = b"" if fixed_rate else offsets.tobytes()
        payload = header + shape_bytes + offset_bytes + body
        tm.count("zfp.bytes_in", data.nbytes)
        tm.count("zfp.bytes_out", len(payload))
        tm.observe("zfp.payload_bytes", len(payload), bounds=DEFAULT_BYTE_BUCKETS)
        return CompressedBuffer(
            payload=payload,
            original_shape=data.shape,
            original_dtype=data.dtype,
            mode=mode,
            parameter=parameter,
            meta={
                "maxbits_per_block": maxbits,
                "zero_blocks": int((~nonzero).sum()),
                "body_bits": int(nbits),
            },
        )

    def decompress(self, buf: CompressedBuffer | bytes) -> np.ndarray:
        payload = buf.payload if isinstance(buf, CompressedBuffer) else buf
        hsize = struct.calcsize(_HDR)
        if len(payload) < hsize or payload[:4] != _MAGIC:
            raise CorruptStreamError("bad ZFP stream header")
        (
            _m, version, dtype_code, ndim, planes, maxbits, nblocks,
            mode_code, parameter,
        ) = struct.unpack(_HDR, payload[:hsize])
        if version != 2:
            raise CorruptStreamError(f"unsupported ZFP stream version {version}")
        if mode_code not in _CODE_MODES:
            raise CorruptStreamError(f"unknown ZFP mode code {mode_code}")
        mode = _CODE_MODES[mode_code]
        # Every header field is checked before anything is sized from it:
        # a damaged stream must end in CorruptStreamError, never in a
        # huge allocation or a native kernel handed nonsense lengths.
        if dtype_code not in _DTYPES:
            raise CorruptStreamError(f"unknown ZFP dtype code {dtype_code}")
        dtype = _DTYPES[dtype_code]
        if ndim not in (1, 2, 3):
            raise CorruptStreamError(f"ZFP stream ndim {ndim} not in 1..3")
        if planes != _PLANES[dtype_code]:
            raise CorruptStreamError(
                f"ZFP stream planes {planes} invalid for {dtype} "
                f"(expected {_PLANES[dtype_code]})"
            )
        pos = hsize
        if len(payload) < pos + 8 * ndim:
            raise CorruptStreamError("ZFP stream truncated (shape)")
        shape = struct.unpack(f"<{ndim}Q", payload[pos : pos + 8 * ndim])
        pos += 8 * ndim
        expected = math.prod(-(-s // 4) for s in shape)
        if nblocks != expected:
            raise CorruptStreamError(
                f"ZFP stream declares {nblocks} blocks; shape {shape} "
                f"has {expected}"
            )
        size = 4**ndim
        header_bits = 1 + BC.EBITS
        fixed_rate = mode is CompressorMode.FIXED_RATE
        if fixed_rate:
            if maxbits <= header_bits:
                raise CorruptStreamError(f"ZFP block size {maxbits} bits too small")
            if (len(payload) - pos) * 8 < nblocks * maxbits:
                raise CorruptStreamError("ZFP stream truncated (body)")
        elif mode is CompressorMode.FIXED_PRECISION:
            if not (math.isfinite(parameter) and 1 <= int(parameter) <= planes):
                raise CorruptStreamError(f"ZFP precision {parameter} invalid")
        elif not (math.isfinite(parameter) and parameter > 0):
            raise CorruptStreamError(f"ZFP tolerance {parameter} invalid")

        if fixed_rate:
            offsets = np.arange(nblocks + 1, dtype=np.int64) * maxbits
        else:
            if len(payload) < pos + 8 * (nblocks + 1):
                raise CorruptStreamError("ZFP stream truncated (offset table)")
            offsets = np.frombuffer(
                payload[pos : pos + 8 * (nblocks + 1)], dtype=np.uint64
            ).astype(np.int64)
            if offsets[0] != 0:
                raise CorruptStreamError("ZFP offset table must start at 0")
            pos += 8 * (nblocks + 1)

        body = np.frombuffer(payload[pos:], dtype=np.uint8)
        total_bits = int(offsets[-1])
        if body.size * 8 < total_bits:
            raise CorruptStreamError("ZFP stream truncated (body)")
        bits = np.unpackbits(body, count=total_bits, bitorder="big")

        tm = get_telemetry()
        from repro import kernels

        coder = kernels.resolve_name("zfp.decode", self._backend)
        with tm.span("zfp.bitplane", bytes=len(payload), nblocks=nblocks,
                     direction="decompress", backend=coder,
                     batched=coder != "scalar"):
            nonzero, e = B.read_block_headers(bits, offsets)
            spans = offsets[1:] - offsets[:-1]
            if fixed_rate:
                budgets = np.full(
                    nblocks, maxbits - header_bits, dtype=np.int64
                )
                kmins = np.zeros(nblocks, dtype=np.int64)
            elif mode is CompressorMode.FIXED_PRECISION:
                budgets = spans - header_bits
                kmins = np.full(
                    nblocks, planes - int(parameter), dtype=np.int64
                )
            else:
                budgets = spans - header_bits
                kmins = _accuracy_kmin_array(parameter, e, planes, ndim)
            # Trailing zero padding so decode window gathers stay in
            # range; per-block budgets guarantee it is never decoded.
            padded = np.concatenate([bits, np.zeros(128, dtype=np.uint8)])
            words_mat = kernels.call(
                "zfp.decode", padded, offsets, nonzero, planes, size,
                budgets, kmins, backend=self._backend,
            )
            u = BC.words_matrix_to_coeffs(words_mat, size, backend=self._backend)

        with tm.span("zfp.reorder", direction="decompress",
                     fused="zfp.xform_inverse"):
            pass  # done inside zfp.xform_inverse, as in compress
        with tm.span("zfp.transform", direction="decompress"):
            return kernels.call(
                "zfp.xform_inverse", u, e, nonzero, planes, shape, dtype,
                backend=self._backend,
            )

    @staticmethod
    def _resolve_mode(
        mode: CompressorMode | str | None,
        rate: float | None,
        precision: int | None,
        tolerance: float | None,
    ) -> CompressorMode:
        if isinstance(mode, str):
            mode = CompressorMode(mode)
        if mode is None:
            given = [m for m, v in (
                (CompressorMode.FIXED_RATE, rate),
                (CompressorMode.FIXED_PRECISION, precision),
                (CompressorMode.FIXED_ACCURACY, tolerance),
            ) if v is not None]
            if len(given) != 1:
                raise DataError(
                    "pass exactly one of rate=, precision=, tolerance= "
                    "(or an explicit mode=)"
                )
            return given[0]
        knob_map = {
            CompressorMode.FIXED_RATE: rate,
            CompressorMode.FIXED_PRECISION: precision,
            CompressorMode.FIXED_ACCURACY: tolerance,
        }
        if mode not in knob_map:
            return mode  # non-ZFP mode: let check_mode report it properly
        if knob_map[mode] is None:
            raise DataError(f"mode {mode.value} requires its knob argument")
        return mode


class CuZFP(ZFPCompressor):
    """cuZFP as evaluated in the paper: **fixed-rate mode only**.

    Functionally identical streams to :class:`ZFPCompressor` in that mode
    (the CUDA port codes the same layout); the restricted
    ``supported_modes`` models the prototype's limitation the paper works
    around (Section IV-B-1).
    """

    name = "cuzfp"
    supported_modes = (CompressorMode.FIXED_RATE,)

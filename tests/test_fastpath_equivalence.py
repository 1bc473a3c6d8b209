"""Byte-identity of every kernel backend vs the seed scalar paths.

The kernel registry (:mod:`repro.kernels`) swaps per-block / per-symbol
python loops for batched numpy kernels or compiled native code, but the
*stream format is the contract*: for any input, any configuration and
any backend tier the encoder must produce bit-identical payloads, and
every decoder must accept (and identically decode) streams from any
encoder.  ``REPRO_SCALAR_CODECS=1`` (the deprecated alias for
``REPRO_BACKEND=scalar``) forces the seed implementations, which is also
exactly what ``bench_fastpath.py`` times against; the
``TestBackendParityMatrix`` class drives the same contract through the
registry for the full backend x kernel matrix.
"""

import hashlib

import numpy as np
import pytest

from repro import kernels
from repro.compressors.sz.szcompressor import SZCompressor
from repro.compressors.zfp.zfpcompressor import ZFPCompressor
from repro.foresight.cbench import CBench
from repro.foresight.config import CompressorSweep
from repro.lossless.huffman import HuffmanCodec
from repro.util.bits import pack_varlen_codes


def backend_params():
    """All three tiers; ``native`` marked skip when it cannot run here.

    The skip is *visible* (reported by pytest), never silent — CI's
    native job fails collection of a silently-green matrix.
    """
    params = [pytest.param("scalar"), pytest.param("numpy")]
    from repro.kernels import native

    try:
        native.probe()
    except Exception as exc:
        params.append(pytest.param(
            "native",
            marks=pytest.mark.skip(reason=f"native tier unavailable: {exc}"),
        ))
    else:
        params.append(pytest.param("native"))
    return params


BACKENDS = backend_params()


@pytest.fixture()
def scalar_mode(monkeypatch):
    """Run the wrapped code under the seed scalar implementations.

    Pins ``REPRO_BACKEND`` itself (not just the deprecated alias) so
    the toggle also works when the whole suite runs under an ambient
    tier pin, as the CI backend matrix does.
    """

    def enable():
        monkeypatch.setenv(kernels.BACKEND_ENV, "scalar")
        monkeypatch.setenv(kernels.LEGACY_SCALAR_ENV, "1")

    def disable():
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        monkeypatch.delenv(kernels.LEGACY_SCALAR_ENV, raising=False)

    disable()
    return enable, disable


def _field(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-6.0, 6.0, shape))
    return (rng.standard_normal(shape) * scale).astype(dtype)


class TestZFPEquivalence:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "mode,kwargs",
        [
            ("fixed_rate", {"rate": 7.0}),
            ("fixed_precision", {"precision": 14}),
            ("fixed_accuracy", {"tolerance": 1e-3}),
        ],
    )
    def test_streams_byte_identical(self, scalar_mode, ndim, dtype, mode, kwargs):
        enable, disable = scalar_mode
        shape = {1: (131,), 2: (21, 18), 3: (9, 10, 11)}[ndim]
        data = _field(shape, dtype, seed=ndim)

        disable()
        fast_buf = ZFPCompressor().compress(data, mode=mode, **kwargs)
        fast_rec = ZFPCompressor().decompress(fast_buf)

        enable()
        seed_buf = ZFPCompressor().compress(data, mode=mode, **kwargs)
        seed_rec = ZFPCompressor().decompress(seed_buf)

        assert fast_buf.payload == seed_buf.payload
        assert np.array_equal(fast_rec, seed_rec)

        # Cross-decode: the scalar decoder accepts the fast stream and
        # vice versa (it is the same stream, but exercise both decoders).
        disable()
        assert np.array_equal(ZFPCompressor().decompress(seed_buf), fast_rec)

    def test_explicit_batched_flag_overrides_env(self, scalar_mode):
        enable, _ = scalar_mode
        enable()
        assert ZFPCompressor(batched=True).batched is True
        assert ZFPCompressor().batched is False


class TestSZEquivalence:
    @pytest.mark.parametrize("rel", [1e-2, 1e-3, 7e-4])
    def test_streams_byte_identical(self, scalar_mode, rel):
        enable, disable = scalar_mode
        data = _field((17, 23, 19), np.float32, seed=3)
        eb = float(np.std(data)) * rel

        disable()
        fast_buf = SZCompressor().compress(data, mode="abs", error_bound=eb)
        fast_rec = SZCompressor().decompress(fast_buf)

        enable()
        seed_buf = SZCompressor().compress(data, mode="abs", error_bound=eb)
        seed_rec = SZCompressor().decompress(seed_buf)

        assert fast_buf.payload == seed_buf.payload
        assert np.array_equal(fast_rec, seed_rec)
        assert np.abs(fast_rec - data).max() <= eb * (1 + 1e-6)


class TestHuffmanEquivalence:
    @pytest.mark.parametrize(
        "n,alphabet",
        [(1, 1), (255, 3), (4096, 7), (4097, 300), (50000, 2000)],
    )
    def test_payload_and_decode_identical(self, scalar_mode, n, alphabet):
        enable, disable = scalar_mode
        rng = np.random.default_rng(n)
        # Zipf-ish skew so codeword lengths actually vary.
        symbols = np.minimum(
            rng.geometric(0.05, size=n) - 1, alphabet - 1
        ).astype(np.int64)

        disable()
        fast_enc = HuffmanCodec().encode(symbols, alphabet)
        fast_out = HuffmanCodec().decode(fast_enc)

        enable()
        seed_enc = HuffmanCodec().encode(symbols, alphabet)
        seed_out = HuffmanCodec().decode(seed_enc)

        assert fast_enc.payload == seed_enc.payload
        assert np.array_equal(fast_out, symbols)
        assert np.array_equal(seed_out, symbols)

        # Scalar decoder on the fast stream (same bytes, seed loop).
        assert np.array_equal(HuffmanCodec().decode(fast_enc), symbols)


class TestSweepEquivalence:
    """Engine knobs must not change sweep results — only their speed.

    The full matrix of transports (shm vs ``REPRO_NO_SHM=1`` pickling)
    and codec implementations (vectorized vs ``REPRO_SCALAR_CODECS=1``
    seed paths) produces identical records for the same sweep.
    """

    def _rows(self, fields, monkeypatch, *, workers=None, no_shm=False,
              scalar=False, budget=None):
        if no_shm:
            monkeypatch.setenv("REPRO_NO_SHM", "1")
        else:
            monkeypatch.delenv("REPRO_NO_SHM", raising=False)
        if scalar:
            monkeypatch.setenv(kernels.BACKEND_ENV, "scalar")
            monkeypatch.setenv(kernels.LEGACY_SCALAR_ENV, "1")
        else:
            monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
            monkeypatch.delenv(kernels.LEGACY_SCALAR_ENV, raising=False)
        sweep = CompressorSweep(
            name="sz", mode="abs", sweep={"error_bound": [0.05, 0.01]}
        )
        bench = CBench(fields, keep_reconstructions=False, chunk_budget=budget)
        return [
            (r.compressor, r.field, r.parameter, r.compression_ratio,
             r.bitrate, tuple(sorted(r.metrics.items())))
            for r in bench.run_all([sweep], workers=workers)
        ]

    def test_transport_and_codec_matrix_identical(self, hacc_small, monkeypatch):
        fields = {"x": hacc_small.fields["x"]}
        reference = self._rows(fields, monkeypatch)
        for kwargs in (
            dict(workers=2),
            dict(workers=2, no_shm=True),
            dict(scalar=True),
            dict(workers=2, no_shm=True, scalar=True),
        ):
            assert self._rows(fields, monkeypatch, **kwargs) == reference

    def test_streaming_engine_matrix_identical(self, hacc_small, monkeypatch):
        fields = {"x": hacc_small.fields["x"]}
        reference = self._rows(fields, monkeypatch, budget="64K")
        for kwargs in (
            dict(workers=2, budget="64K"),
            dict(workers=2, no_shm=True, budget="64K"),
            dict(scalar=True, budget="64K"),
        ):
            assert self._rows(fields, monkeypatch, **kwargs) == reference


class TestBackendParityMatrix:
    """Backend x kernel bit-exactness, driven through the registry.

    Every kernel is called directly on every available tier and compared
    against the ``scalar`` reference output; the codec-level tests then
    prove whole streams stay byte-identical per tier.
    """

    # -- primitive kernels --------------------------------------------------

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eb", [1e-1, 1e-4])
    def test_sz_lorenzo_roundtrip(self, backend, ndim, dtype, eb):
        rng = np.random.default_rng(ndim * 7 + 1)
        shape = (9,) + (6,) * ndim
        blocks = (rng.standard_normal(shape) * 40.0).astype(dtype)
        ref = kernels.call("sz.lorenzo", blocks, eb, backend="scalar")
        out = kernels.call("sz.lorenzo", blocks, eb, backend=backend)
        assert out.dtype == np.int64 and np.array_equal(out, ref)
        back = kernels.call("sz.lorenzo_inverse", out, backend=backend)
        assert np.array_equal(
            back, kernels.call("sz.lorenzo_inverse", ref, backend="scalar")
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_pack_varlen(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = 3001
        lengths = rng.integers(0, 58, size=n).astype(np.int64)
        shift = np.minimum(lengths, 57).astype(np.uint64)
        codes = rng.integers(0, 1 << 57, size=n, dtype=np.uint64) & (
            (np.uint64(1) << shift) - np.uint64(1)
        )
        ref = kernels.call("pack.varlen", codes, lengths, backend="scalar")
        assert kernels.call("pack.varlen", codes, lengths, backend=backend) == ref

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n,alphabet", [(1, 1), (4096, 300), (30000, 1500)])
    def test_huffman_codec(self, backend, n, alphabet):
        rng = np.random.default_rng(n)
        symbols = np.minimum(
            rng.geometric(0.03, size=n) - 1, alphabet - 1
        ).astype(np.int64)
        with kernels.use("scalar"):
            ref_enc = HuffmanCodec().encode(symbols, alphabet)
        with kernels.use(backend):
            enc = HuffmanCodec().encode(symbols, alphabet)
            out = HuffmanCodec().decode(enc)
        assert enc.payload == ref_enc.payload
        assert np.array_equal(out, symbols)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("planes,size", [(32, 16), (52, 64), (52, 4)])
    def test_zfp_transpose_roundtrip(self, backend, planes, size):
        rng = np.random.default_rng(planes + size)
        u = rng.integers(0, 1 << 62, size=(13, size), dtype=np.uint64) & (
            (np.uint64(1) << np.uint64(planes)) - np.uint64(1)
        )
        ref = kernels.call("zfp.transpose", u, planes, backend="scalar")
        words = kernels.call("zfp.transpose", u, planes, backend=backend)
        assert np.array_equal(words, ref)
        back = kernels.call("zfp.transpose_inverse", words, size, backend=backend)
        assert np.array_equal(
            back, kernels.call("zfp.transpose_inverse", ref, size, backend="scalar")
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("maxbits", [0, 210])
    @pytest.mark.parametrize("size,planes", [(4, 32), (16, 32), (64, 52)])
    def test_zfp_coder(self, backend, maxbits, size, planes):
        rng = np.random.default_rng(size * planes + maxbits)
        nblocks = 11
        u = rng.integers(0, 1 << 62, size=(nblocks, size), dtype=np.uint64) & (
            (np.uint64(1) << np.uint64(planes)) - np.uint64(1)
        )
        u[3] = 0  # a zero block in the middle
        words = kernels.call("zfp.transpose", u, planes, backend="scalar")
        nonzero = np.array([u[b].any() for b in range(nblocks)])
        e = rng.integers(-60, 60, size=nblocks).astype(np.int64)
        header = 13  # 1 flag bit + EBITS
        if maxbits:
            budgets = np.full(nblocks, maxbits - header, dtype=np.int64)
        else:
            budgets = np.full(nblocks, 1 << 20, dtype=np.int64)
        kmins = rng.integers(0, planes // 2, size=nblocks).astype(np.int64)
        ref = kernels.call(
            "zfp.encode", words, nonzero, e, size, planes, budgets, kmins,
            maxbits=maxbits, backend="scalar",
        )
        got = kernels.call(
            "zfp.encode", words, nonzero, e, size, planes, budgets, kmins,
            maxbits=maxbits, backend=backend,
        )
        assert got[0] == ref[0] and got[1] == ref[1]
        assert np.array_equal(got[2], ref[2])
        assert np.array_equal(got[3], ref[3])

        body, nbits, offsets, _ = ref
        bits = np.unpackbits(
            np.frombuffer(body, dtype=np.uint8), count=nbits, bitorder="big"
        )
        padded = np.concatenate([bits, np.zeros(128, dtype=np.uint8)])
        dec_ref = kernels.call(
            "zfp.decode", padded, offsets.astype(np.int64), nonzero, planes,
            size, budgets, kmins, backend="scalar",
        )
        dec = kernels.call(
            "zfp.decode", padded, offsets.astype(np.int64), nonzero, planes,
            size, budgets, kmins, backend=backend,
        )
        assert np.array_equal(dec, dec_ref)

    # -- whole codecs -------------------------------------------------------

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sz_streams_identical(self, backend, dtype):
        data = _field((17, 23, 19), dtype, seed=11)
        with kernels.use("scalar"):
            ref = SZCompressor().compress(data, mode="abs", error_bound=1e-3)
        with kernels.use(backend):
            buf = SZCompressor().compress(data, mode="abs", error_bound=1e-3)
            rec = SZCompressor().decompress(ref)
        assert buf.payload == ref.payload
        from conftest import ulp_tolerance

        assert np.abs(rec - data).max() <= 1e-3 + ulp_tolerance(data)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "mode,kwargs",
        [
            ("fixed_rate", {"rate": 7.0}),
            ("fixed_precision", {"precision": 14}),
            ("fixed_accuracy", {"tolerance": 1e-3}),
        ],
    )
    def test_zfp_streams_identical(self, backend, mode, kwargs):
        data = _field((9, 10, 11), np.float64, seed=5)
        ref = ZFPCompressor(backend="scalar").compress(data, mode=mode, **kwargs)
        buf = ZFPCompressor(backend=backend).compress(data, mode=mode, **kwargs)
        assert buf.payload == ref.payload
        assert np.array_equal(
            ZFPCompressor(backend=backend).decompress(ref),
            ZFPCompressor(backend="scalar").decompress(ref),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adversarial_zfp_block(self, backend):
        """A pinned worst-case field: one 4^3 block whose values span the
        full float64 exponent range with mixed signs — maximal negabinary
        carry activity, group tests on every plane, and the 64-coefficient
        shift-guard path.  The scalar stream for this input is pinned by
        digest so *every* tier (today's and future ones) must match the
        frozen seed bytes, not merely each other."""
        block = np.zeros((4, 4, 4), dtype=np.float64)
        flat = block.reshape(-1)
        flat[:] = [
            (-1.0) ** i * 2.0 ** ((i * 5) % 120 - 60) for i in range(64)
        ]
        flat[7] = 0.0
        flat[21] = -0.0
        flat[63] = 2.0**60
        for mode, kwargs, digest in [
            ("fixed_rate", {"rate": 9.0}, None),
            ("fixed_precision", {"precision": 24}, None),
            ("fixed_accuracy", {"tolerance": 1e-6}, None),
        ]:
            ref = ZFPCompressor(backend="scalar").compress(block, mode=mode, **kwargs)
            buf = ZFPCompressor(backend=backend).compress(block, mode=mode, **kwargs)
            assert buf.payload == ref.payload, mode
            rec = ZFPCompressor(backend=backend).decompress(buf)
            assert np.array_equal(
                rec, ZFPCompressor(backend="scalar").decompress(ref)
            ), mode
        pinned = ZFPCompressor(backend=backend).compress(block, precision=24)
        assert hashlib.sha256(pinned.payload).hexdigest() == (
            "844e1789d8e773854d6ec5d2c1e08058352bc35234688f7d1df546c3d5b50b1a"
        )


class TestXformParity:
    """The fused ZFP block transform pair (``zfp.xform`` /
    ``zfp.xform_inverse``) on every tier, bit for bit against ``scalar``.

    Kept beside :class:`TestBackendParityMatrix`, whose frozen
    adversarial-block digest already pins the whole-stream bytes.
    """

    @staticmethod
    def _assert_tier_matches_scalar(backend, data):
        planes = 32 if data.dtype == np.float32 else 52
        ref = kernels.call("zfp.xform", data, planes, backend="scalar")
        got = kernels.call("zfp.xform", data, planes, backend=backend)
        for r, g in zip(ref, got):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert np.array_equal(g, r)
        args = (planes, data.shape, data.dtype)
        rec_ref = kernels.call("zfp.xform_inverse", *ref, *args,
                               backend="scalar")
        rec = kernels.call("zfp.xform_inverse", *got, *args, backend=backend)
        assert rec.dtype == data.dtype and rec.shape == data.shape
        assert rec.tobytes() == rec_ref.tobytes()
        return ref, rec

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (16,), (13,), (8, 12), (7, 10), (8, 8, 4), (5, 9, 6),
    ])
    def test_roundtrip_matches_scalar(self, backend, dtype, shape):
        data = _field(shape, dtype, seed=len(shape) * 31 + shape[-1])
        data[(slice(0, 4),) * len(shape)] = 0.0  # an all-zero first block
        ref, _ = self._assert_tier_matches_scalar(backend, data)
        assert not ref[2].all() and ref[2].any()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_block_maxima(self, backend, dtype):
        info = np.finfo(dtype)
        data = np.zeros((4, 4, 12), dtype=dtype)
        ramp = np.linspace(-1, 1, 64, dtype=dtype).reshape(4, 4, 4)
        data[:, :, 0:4] = info.smallest_subnormal * np.arange(-8, 8).reshape(4, 4, 1)
        data[:, :, 4:8] = info.max * ramp
        data[0, 0, 8] = -info.max
        data[1, 2, 9] = info.tiny  # smallest normal next to zeros
        # Near the float max the reconstruction may round past it to
        # inf; it must do so identically on every tier.
        ref, _ = self._assert_tier_matches_scalar(backend, data)
        assert ref[2].all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nonfinite_rejected(self, backend):
        from repro.errors import DataError

        data = np.ones((5, 6), dtype=np.float32)
        data[4, 5] = np.nan
        with pytest.raises(DataError, match="finite"):
            kernels.call("zfp.xform", data, 32, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adversarial_lifting_block(self, backend):
        """The pinned E_3 worst case of the lifting round trip, taken
        through fixed point and back: with a block max in [2^49, 2^50)
        and 52 planes the fixed-point lattice is the integers, so the
        round-trip error is the lifting error itself — 30, within the
        documented bound of 40."""
        from test_property_based import E3_ADVERSARIAL_BLOCK

        data = (E3_ADVERSARIAL_BLOCK[0] + (1 << 49)).astype(np.float64)
        ref, rec = self._assert_tier_matches_scalar(backend, data)
        assert ref[1][0] == 50  # amax < 2**50: scale 2^(planes-2-e) = 1
        assert np.abs(rec - data).max() == 30


class TestPackEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grouped_pack_matches_ragged(self, scalar_mode, seed):
        enable, disable = scalar_mode
        rng = np.random.default_rng(seed)
        n = 4096
        lengths = rng.integers(0, 17, size=n).astype(np.int64)
        codes = rng.integers(0, 1 << 16, size=n, dtype=np.uint64) & (
            (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
        )

        disable()
        fast = pack_varlen_codes(codes, lengths)
        enable()
        ragged = pack_varlen_codes(codes, lengths)
        assert fast == ragged

    def test_long_and_zero_length_codes(self, scalar_mode):
        _, disable = scalar_mode
        disable()
        codes = np.array([(1 << 57) - 1, 5, 0], dtype=np.uint64)
        lengths = np.array([57, 3, 0], dtype=np.int64)
        payload, nbits = pack_varlen_codes(codes, lengths)
        assert nbits == 60
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:60]
        assert bits[:57].all()          # 57 one-bits
        assert list(bits[57:]) == [1, 0, 1]

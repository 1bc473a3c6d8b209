"""Integration-level tests for the ZFP fixed-rate compressor."""

import numpy as np
import pytest

from repro.compressors import CompressorMode, CuZFP, ZFPCompressor
from repro.errors import CorruptStreamError, DataError, UnsupportedModeError
from repro.metrics.error import psnr


@pytest.fixture(scope="module")
def zfp():
    return ZFPCompressor()


class TestFixedRate:
    @pytest.mark.parametrize("rate", [1, 2, 4, 8, 16])
    def test_exact_compression_ratio(self, zfp, smooth_field3d, rate):
        buf = zfp.compress(smooth_field3d, rate=rate)
        # Fixed-rate: payload = header + exactly rate bits/value (shape is a
        # multiple of 4, so no padding inflation).
        expected = smooth_field3d.size * rate / 8
        assert abs(buf.compressed_nbytes - expected) < 200  # header slack

    def test_rate_distortion_monotone(self, zfp, smooth_field3d):
        psnrs = []
        for rate in (1, 2, 4, 8, 16):
            recon = zfp.decompress(zfp.compress(smooth_field3d, rate=rate))
            psnrs.append(psnr(smooth_field3d, recon))
        assert all(a < b for a, b in zip(psnrs, psnrs[1:]))

    def test_high_rate_near_lossless_fp32(self, zfp, smooth_field3d):
        recon = zfp.decompress(zfp.compress(smooth_field3d, rate=28))
        assert psnr(smooth_field3d, recon) > 120

    def test_float64_support(self, zfp, smooth_field3d):
        data = smooth_field3d.astype(np.float64)
        recon = zfp.decompress(zfp.compress(data, rate=40))
        assert recon.dtype == np.float64
        assert np.abs(recon - data).max() < 1e-9 * np.abs(data).max() + 1e-12

    @pytest.mark.parametrize("shape", [(33,), (17, 9), (9, 10, 11)])
    def test_non_multiple_of_4_shapes(self, zfp, shape):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(shape).astype(np.float32)
        buf = zfp.compress(data, rate=16)
        recon = zfp.decompress(buf)
        assert recon.shape == shape

    def test_zero_field_reconstructed_exactly(self, zfp):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        buf = zfp.compress(data, rate=4)
        assert np.array_equal(zfp.decompress(buf), data)
        assert buf.meta["zero_blocks"] == 8

    def test_mixed_zero_and_data_blocks(self, zfp):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        data[:4, :4, :4] = 7.5
        recon = zfp.decompress(zfp.compress(data, rate=16))
        assert np.abs(recon - data).max() < 1e-3

    def test_extreme_dynamic_range_per_block(self, zfp):
        # One block at 1e-30, another at 1e+30: per-block exponents matter.
        data = np.zeros((8, 4, 4), dtype=np.float32)
        data[:4] = 1e-30
        data[4:] = 1e30
        recon = zfp.decompress(zfp.compress(data, rate=24))
        assert np.allclose(recon[:4], 1e-30, rtol=1e-4)
        assert np.allclose(recon[4:], 1e30, rtol=1e-4)

    def test_gaussianlike_error_distribution(self, zfp, smooth_field3d):
        # ZFP errors are roughly symmetric around zero (the paper calls
        # them Gaussian-like) — check mean error is far below max error.
        recon = zfp.decompress(zfp.compress(smooth_field3d, rate=8))
        err = recon.astype(np.float64) - smooth_field3d.astype(np.float64)
        assert abs(err.mean()) < 0.1 * np.abs(err).max()

    def test_buffer_metadata(self, zfp, smooth_field3d):
        buf = zfp.compress(smooth_field3d, rate=4)
        assert buf.mode is CompressorMode.FIXED_RATE
        assert buf.parameter == 4.0
        assert buf.original_shape == smooth_field3d.shape


class TestValidation:
    def test_rate_too_small_raises(self, zfp, smooth_field3d):
        with pytest.raises(DataError, match="rate"):
            zfp.compress(smooth_field3d, rate=0.1)

    def test_missing_rate_raises(self, zfp, smooth_field3d):
        with pytest.raises(DataError):
            zfp.compress(smooth_field3d)

    def test_abs_mode_unsupported(self, zfp, smooth_field3d):
        with pytest.raises(UnsupportedModeError):
            zfp.compress(smooth_field3d, rate=4, mode="abs")

    def test_nan_rejected(self, zfp):
        data = np.full((4, 4, 4), np.nan, dtype=np.float32)
        with pytest.raises(DataError):
            zfp.compress(data, rate=8)

    def test_bad_stream_raises(self, zfp):
        with pytest.raises(CorruptStreamError):
            zfp.decompress(b"NOTZFP" * 10)

    def test_truncated_stream_raises(self, zfp, smooth_field3d):
        buf = zfp.compress(smooth_field3d, rate=4)
        with pytest.raises(CorruptStreamError):
            zfp.decompress(buf.payload[: len(buf.payload) // 2])

    @pytest.mark.parametrize("field,value", [
        ("dtype", 9),             # unknown dtype code
        ("ndim", 0),
        ("ndim", 4),
        ("planes", 0),
        ("planes", 70),
        ("nblocks", 17),          # 10x9x7 has 3*3*2 = 18 blocks
        ("nblocks", 1 << 40),     # would size an 8 TiB offset table
        ("maxbits", 0),           # fixed-rate block smaller than its header
        ("parameter", 99.0),      # precision above the plane count
    ])
    def test_mutated_header_field_raises(self, zfp, field, value):
        import struct

        from repro.compressors.zfp.zfpcompressor import _HDR

        rng = np.random.default_rng(3)
        data = rng.standard_normal((10, 9, 7)).astype(np.float32)
        mode = "fixed_precision" if field == "parameter" else "fixed_rate"
        kwargs = {"precision": 12} if field == "parameter" else {"rate": 8.0}
        payload = zfp.compress(data, mode=mode, **kwargs).payload
        hsize = struct.calcsize(_HDR)
        names = ("magic", "version", "dtype", "ndim", "planes", "maxbits",
                 "nblocks", "mode", "parameter")
        header = dict(zip(names, struct.unpack(_HDR, payload[:hsize])))
        header[field] = value
        mutated = struct.pack(_HDR, *header.values()) + payload[hsize:]
        with pytest.raises(CorruptStreamError):
            zfp.decompress(mutated)


class TestCuZFP:
    def test_same_streams_as_zfp(self, smooth_field3d):
        # The CUDA port codes identical streams; CuZFP must interoperate.
        a = CuZFP().compress(smooth_field3d, rate=4)
        b = ZFPCompressor().compress(smooth_field3d, rate=4)
        assert a.payload == b.payload
        assert np.array_equal(ZFPCompressor().decompress(a), CuZFP().decompress(b))

    def test_name(self):
        assert CuZFP().name == "cuzfp"

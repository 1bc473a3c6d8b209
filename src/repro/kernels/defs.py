"""Default backend definitions for the kernel registry.

Pure data: kernel names mapped to ``"module.path:callable"`` strings,
imported lazily by :class:`~repro.kernels.registry.Backend` on first
use, so this module creates no import cycles and costs nothing until a
kernel is actually dispatched.

Kernel catalogue (uniform signatures across tiers):

======================  =====================================================
``sz.lorenzo``          ``(blocks, error_bound) -> int64 residuals`` — fused
                        prequantize + Lorenzo first-difference (dual-quant)
``sz.lorenzo_inverse``  ``(residual) -> int64 lattice`` — iterated cumsum
``pack.varlen``         ``(codes, lengths) -> (bytes, nbits)`` — MSB-first
                        variable-length bit packing
``huffman.package_merge``  ``(leaf_weights, max_len) -> counts`` (no native)
``huffman.canonical``   ``(lengths, order) -> codes`` (no native)
``huffman.encode``      ``(symbols, codes, lengths, chunk_size) ->
                        (body, nbits, chunk_offsets)``
``huffman.decode``      ``(body, table_sym, table_len, chunk_offsets, n,
                        chunk_size, max_len, total_bits) -> symbols``
``zfp.transpose``       ``(u, nplanes) -> words`` — bit-plane transpose
``zfp.transpose_inverse``  ``(words, size) -> u``
``zfp.encode``          ``(words, nonzero, e, size, planes, budgets, kmins,
                        maxbits=0) -> (body, nbits, offsets, used_bits)``
``zfp.decode``          ``(bits, offsets, nonzero, planes, size, budgets,
                        kmins) -> words``
``zfp.xform``           ``(data, planes) -> (u, e, nonzero)`` — fused block
                        transform of a 1-3-D float32/float64 array:
                        edge-clamped 4^d blocks, block exponent, fixed
                        point, forward lifting, sequency reorder and
                        negabinary in one pass per block
``zfp.xform_inverse``   ``(u, e, nonzero, planes, shape, dtype) -> array``
                        — the reverse, written straight into the cropped
                        output of the stream's dtype
======================  =====================================================

A tier may omit kernels (``native`` has no package-merge: length
computation is a cold path); resolution simply continues down the tier
list for those, which is visible in ``kernels.active()``.
"""

from __future__ import annotations

from repro.kernels.registry import Backend, KernelRegistry

SCALAR_IMPLS = {
    "sz.lorenzo": "repro.compressors.sz.predictor:_lorenzo_dualquant_ref",
    "sz.lorenzo_inverse": "repro.compressors.sz.predictor:lorenzo_reconstruct",
    "pack.varlen": "repro.util.bits:_pack_varlen_scalar",
    "huffman.package_merge":
        "repro.lossless.huffman:_package_merge_counts_scalar",
    "huffman.canonical": "repro.lossless.huffman:_canonical_codes_scalar",
    "huffman.encode": "repro.lossless.huffman:_encode_chunks_scalar",
    "huffman.decode": "repro.lossless.huffman:_decode_chunks_scalar",
    "zfp.transpose": "repro.compressors.zfp.blockcodec:_plane_words_scalar",
    "zfp.transpose_inverse":
        "repro.compressors.zfp.blockcodec:_words_matrix_scalar",
    "zfp.encode": "repro.compressors.zfp.zfpcompressor:_encode_blocks_scalar",
    "zfp.decode": "repro.compressors.zfp.blockcodec:_decode_blocks_scalar",
    "zfp.xform": "repro.compressors.zfp.zfpcompressor:_xform_reference",
    "zfp.xform_inverse":
        "repro.compressors.zfp.zfpcompressor:_xform_inverse_reference",
}

NUMPY_IMPLS = {
    # The seed SZ stages were already numpy expressions, so the scalar
    # and numpy tiers share one implementation for the Lorenzo kernels.
    "sz.lorenzo": "repro.compressors.sz.predictor:_lorenzo_dualquant_ref",
    "sz.lorenzo_inverse": "repro.compressors.sz.predictor:lorenzo_reconstruct",
    "pack.varlen": "repro.util.bits:_pack_varlen_numpy",
    "huffman.package_merge": "repro.lossless.huffman:_package_merge_counts",
    "huffman.canonical": "repro.lossless.huffman:_canonical_codes_numpy",
    "huffman.encode": "repro.lossless.huffman:_encode_chunks_numpy",
    "huffman.decode": "repro.lossless.huffman:_decode_chunks_numpy",
    "zfp.transpose": "repro.compressors.zfp.blockcodec:_plane_words_numpy",
    "zfp.transpose_inverse":
        "repro.compressors.zfp.blockcodec:_words_matrix_numpy",
    "zfp.encode": "repro.compressors.zfp.batch:encode_blocks",
    "zfp.decode": "repro.compressors.zfp.batch:decode_blocks",
    # The block transform was already numpy passes; like the Lorenzo
    # kernels, the scalar and numpy tiers share that implementation.
    "zfp.xform": "repro.compressors.zfp.zfpcompressor:_xform_reference",
    "zfp.xform_inverse":
        "repro.compressors.zfp.zfpcompressor:_xform_inverse_reference",
}

NATIVE_IMPLS = {
    "sz.lorenzo": "repro.kernels.native:lorenzo_dualquant",
    "sz.lorenzo_inverse": "repro.kernels.native:lorenzo_reconstruct",
    "pack.varlen": "repro.kernels.native:pack_varlen",
    "huffman.encode": "repro.kernels.native:huffman_encode",
    "huffman.decode": "repro.kernels.native:huffman_decode",
    "zfp.transpose": "repro.kernels.native:zfp_plane_words",
    "zfp.transpose_inverse": "repro.kernels.native:zfp_words_to_coeffs",
    "zfp.encode": "repro.kernels.native:zfp_encode_blocks",
    "zfp.decode": "repro.kernels.native:zfp_decode_blocks",
    "zfp.xform": "repro.kernels.native:zfp_xform",
    "zfp.xform_inverse": "repro.kernels.native:zfp_xform_inverse",
}


def _native_probe() -> None:
    from repro.kernels import native

    native.probe()


def register_default_backends(registry: KernelRegistry) -> None:
    registry.register(Backend(name="scalar", impls=dict(SCALAR_IMPLS)))
    registry.register(Backend(name="numpy", impls=dict(NUMPY_IMPLS)))
    registry.register(
        Backend(name="native", impls=dict(NATIVE_IMPLS), probe=_native_probe)
    )

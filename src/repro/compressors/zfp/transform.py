"""ZFP's integer decorrelating transform, vectorized across blocks.

The forward/inverse lifting steps are transcribed from the reference
implementation (``fwd_lift`` / ``inv_lift`` in zfp): an exact,
integer-to-integer approximation of a 4-point orthogonal transform

             ( 4  4  4  4)                  ( 4  6 -4 -1)
    fwd 1/16 ( 5  1 -1 -5)      inv   1/4 * ( 4  2  4  5)
             (-4  4  4 -4)                  ( 4 -2  4 -5)
             (-2  6 -6  2)                  ( 4 -6 -4  1)

applied along every axis of a 4^d block.  Every row of the forward matrix
has L1 norm <= 1, so the transform never grows the max coefficient
magnitude — which is what bounds the plane count needed downstream.

Roundtrip rounding bound
------------------------

The lifting steps drop fractional bits (arithmetic right shifts), so
``inverse_transform(forward_transform(b))`` is only *bounded*, not
exact.  The worst-case pointwise error is magnitude independent (the
shifts only ever discard low-order bits, so the error depends on input
residues mod small powers of two, not on size):

* **1-D**: exhaustive search over all residue blocks ``[-8, 8)^4``
  gives a max roundtrip error ``E_1 = 2``.
* **composition**: applying the d-th inverse axis pass to a block whose
  other axes already carry error ``E_{d-1}`` amplifies that error by at
  most the largest inverse-matrix row L1 norm, ``15/4`` (every row of
  ``1/4 * (4 6 -4 -1)`` etc. sums to ``15/4`` in absolute value), and
  the pass's own rounding adds at most ``E_1``:
  ``E_d <= E_1 + (15/4) * E_{d-1}``.
* so ``E_2 <= 2 + 7.5 = 9.5`` (randomized adversarial search attains
  exactly 9) and ``E_3 <= 2 + (15/4) * 9.5 ~= 37.6`` (search attains
  30; ``tests/test_property_based.py`` pins that block and asserts the
  documented bound of 40 = 37.6 rounded up with slack for the inverse
  pass's own shift interactions).

All functions operate on an int64 batch of shape ``(nblocks, 4, ..., 4)``
and rely on numpy's arithmetic (sign-preserving) right shift.

These functions are the reference.  The codec calls them through the
``zfp.xform`` / ``zfp.xform_inverse`` kernels, whose native tier fuses
the fixed-point conversion, these lifting steps, the sequency reorder
and negabinary into one C loop per block (``repro_zfp_xform`` in
:mod:`repro.kernels._csource`).  It emits the same bits, so the
roundtrip bound above is unchanged.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import DataError


def _axis_views(blocks: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    idx = [slice(None)] * blocks.ndim
    views = []
    for i in range(4):
        idx[axis] = i
        views.append(blocks[tuple(idx)])
    return tuple(views)


def _fwd_lift_axis(blocks: np.ndarray, axis: int) -> None:
    """In-place forward lifting along ``axis`` (must have length 4)."""
    x, y, z, w = (v.copy() for v in _axis_views(blocks, axis))
    x += w
    x >>= 1
    w -= x
    z += y
    z >>= 1
    y -= z
    x += z
    x >>= 1
    z -= x
    w += y
    w >>= 1
    y -= w
    w += y >> 1
    y -= w >> 1
    for i, v in enumerate((x, y, z, w)):
        idx = [slice(None)] * blocks.ndim
        idx[axis] = i
        blocks[tuple(idx)] = v


def _inv_lift_axis(blocks: np.ndarray, axis: int) -> None:
    """In-place inverse lifting along ``axis``; exact inverse of forward."""
    x, y, z, w = (v.copy() for v in _axis_views(blocks, axis))
    y += w >> 1
    w -= y >> 1
    y += w
    w <<= 1
    w -= y
    z += x
    x <<= 1
    x -= z
    y += z
    z <<= 1
    z -= y
    w += x
    x <<= 1
    x -= w
    for i, v in enumerate((x, y, z, w)):
        idx = [slice(None)] * blocks.ndim
        idx[axis] = i
        blocks[tuple(idx)] = v


def forward_transform(blocks: np.ndarray) -> np.ndarray:
    """Forward transform over all block axes; returns a new int64 array."""
    if blocks.dtype != np.int64 or any(s != 4 for s in blocks.shape[1:]):
        raise DataError("expected int64 blocks of shape (n, 4, ..., 4)")
    out = blocks.copy()
    for axis in range(1, blocks.ndim):
        _fwd_lift_axis(out, axis)
    return out


def inverse_transform(blocks: np.ndarray) -> np.ndarray:
    """Inverse transform; ``inverse_transform(forward_transform(b)) == b``."""
    if blocks.dtype != np.int64 or any(s != 4 for s in blocks.shape[1:]):
        raise DataError("expected int64 blocks of shape (n, 4, ..., 4)")
    out = blocks.copy()
    for axis in range(blocks.ndim - 1, 0, -1):
        _inv_lift_axis(out, axis)
    return out


@lru_cache(maxsize=8)
def sequency_order(ndim: int) -> np.ndarray:
    """Flat coefficient permutation ordering a 4^d block by total sequency.

    Low-frequency (low coordinate-sum) coefficients come first so the
    embedded coder spends early bit planes on the coefficients that carry
    the most energy, mirroring zfp's ``PERM`` tables.
    """
    if not 1 <= ndim <= 3:
        raise DataError("sequency_order supports 1-3 dimensions")
    coords = np.stack(
        np.meshgrid(*[np.arange(4)] * ndim, indexing="ij"), axis=-1
    ).reshape(-1, ndim)
    total = coords.sum(axis=1)
    sumsq = (coords**2).sum(axis=1)
    flat = np.arange(coords.shape[0])
    return np.lexsort((flat, sumsq, total)).astype(np.int64)


def inverse_sequency_order(ndim: int) -> np.ndarray:
    """Permutation undoing :func:`sequency_order`."""
    perm = sequency_order(ndim)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv

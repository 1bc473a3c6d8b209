"""C source for the compiled kernel tier (:mod:`repro.kernels.native`).

The source is embedded as a string so the package needs no build step
and no package-data plumbing: the first native-tier call compiles it
with the system C compiler into a cached shared object (see
:mod:`repro.kernels.native`).  Every function transcribes the seed
scalar reference loop for its kernel — bit-for-bit, including rounding (``rint`` under
the default round-to-nearest-even mode matches ``np.rint``) and the
exact group-testing control flow of the ZFP coder — so the parity
matrix in ``tests/test_fastpath_equivalence.py`` holds by construction.
"""

C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define API __attribute__((visibility("default")))

/* ---------------- Lorenzo dual-quantization (SZ) ----------------
 * Fused prequantize + iterated first difference over a dense batch of
 * equal blocks laid out (nblocks, b0, b1, b2) C-contiguous (unused
 * trailing dims are 1).  Returns 1 when any |q| exceeds 2^62 (the
 * int64-overflow guard np.prequantize enforces), else 0. */
API int64_t repro_lorenzo_dualquant(
    const double* data, int64_t* out, int64_t nblocks,
    int64_t b0, int64_t b1, int64_t b2, double two_eb)
{
    const int64_t bs = b0 * b1 * b2;
    const double limit = 4611686018427387904.0; /* 2^62 */
    int64_t overflow = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        const double* src = data + b * bs;
        int64_t* q = out + b * bs;
        for (int64_t i = 0; i < bs; i++) {
            double r = rint(src[i] / two_eb);
            if (fabs(r) > limit) { overflow = 1; r = 0.0; }
            q[i] = (int64_t)r;
        }
    }
    if (overflow) return 1;
    for (int64_t b = 0; b < nblocks; b++) {
        int64_t* q = out + b * bs;
        const int64_t s0 = b1 * b2;
        /* axis 0 */
        for (int64_t i = b0 - 1; i >= 1; i--)
            for (int64_t j = 0; j < s0; j++)
                q[i * s0 + j] -= q[(i - 1) * s0 + j];
        /* axis 1 */
        if (b1 > 1)
            for (int64_t i = 0; i < b0; i++)
                for (int64_t j = b1 - 1; j >= 1; j--)
                    for (int64_t k = 0; k < b2; k++)
                        q[i * s0 + j * b2 + k] -= q[i * s0 + (j - 1) * b2 + k];
        /* axis 2 */
        if (b2 > 1)
            for (int64_t i = 0; i < b0 * b1; i++)
                for (int64_t k = b2 - 1; k >= 1; k--)
                    q[i * b2 + k] -= q[i * b2 + k - 1];
    }
    return 0;
}

/* Inverse: iterated cumulative sum (in place), same axis order. */
API void repro_lorenzo_reconstruct(
    int64_t* q_all, int64_t nblocks, int64_t b0, int64_t b1, int64_t b2)
{
    const int64_t bs = b0 * b1 * b2;
    for (int64_t b = 0; b < nblocks; b++) {
        int64_t* q = q_all + b * bs;
        const int64_t s0 = b1 * b2;
        for (int64_t i = 1; i < b0; i++)
            for (int64_t j = 0; j < s0; j++)
                q[i * s0 + j] += q[(i - 1) * s0 + j];
        if (b1 > 1)
            for (int64_t i = 0; i < b0; i++)
                for (int64_t j = 1; j < b1; j++)
                    for (int64_t k = 0; k < b2; k++)
                        q[i * s0 + j * b2 + k] += q[i * s0 + (j - 1) * b2 + k];
        if (b2 > 1)
            for (int64_t i = 0; i < b0 * b1; i++)
                for (int64_t k = 1; k < b2; k++)
                    q[i * b2 + k] += q[i * b2 + k - 1];
    }
}

/* ---------------- variable-length bit packing ----------------
 * MSB-first concatenation of (code, length) pairs into a zeroed byte
 * buffer; same convention as np.packbits(bitorder="big").  Returns the
 * number of bits written. */
API int64_t repro_pack_varlen(
    const uint64_t* codes, const int64_t* lengths, int64_t n, uint8_t* out)
{
    int64_t bitpos = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t remaining = lengths[i];
        const uint64_t code = codes[i];
        while (remaining > 0) {
            int64_t free_bits = 8 - (bitpos & 7);
            int64_t take = remaining < free_bits ? remaining : free_bits;
            uint64_t chunk = (code >> (remaining - take)) & ((1ULL << take) - 1);
            out[bitpos >> 3] |= (uint8_t)(chunk << (free_bits - take));
            bitpos += take;
            remaining -= take;
        }
    }
    return bitpos;
}

/* Fused table-driven Huffman encode: symbols -> codeword bits, plus the
 * per-chunk bit-offset table the parallel decoder needs.  Callers size
 * `out` with repro_huffman_symbol_bits first. */
API int64_t repro_huffman_symbol_bits(
    const int64_t* symbols, int64_t n, const uint8_t* lengths)
{
    int64_t total = 0;
    for (int64_t i = 0; i < n; i++) total += lengths[symbols[i]];
    return total;
}

API int64_t repro_huffman_encode(
    const int64_t* symbols, int64_t n,
    const uint64_t* codes, const uint8_t* lengths,
    int64_t chunk_size, uint64_t* chunk_offsets, uint8_t* out)
{
    int64_t bitpos = 0;
    for (int64_t i = 0; i < n; i++) {
        if (i % chunk_size == 0) chunk_offsets[i / chunk_size] = (uint64_t)bitpos;
        const int64_t sym = symbols[i];
        int64_t remaining = lengths[sym];
        const uint64_t code = codes[sym];
        while (remaining > 0) {
            int64_t free_bits = 8 - (bitpos & 7);
            int64_t take = remaining < free_bits ? remaining : free_bits;
            uint64_t chunk = (code >> (remaining - take)) & ((1ULL << take) - 1);
            out[bitpos >> 3] |= (uint8_t)(chunk << (free_bits - take));
            bitpos += take;
            remaining -= take;
        }
    }
    return bitpos;
}

/* ---------------- chunk-parallel Huffman decode ----------------
 * Dense-table decode of every chunk; bits past the body read as zero,
 * exactly like the numpy path's zero padding.  Returns 0 on success,
 * 1 for an invalid codeword (table hole), 2 for a bit-length overrun. */
static inline uint64_t peek_bits(
    const uint8_t* p, int64_t nbytes, int64_t pos, int nbits)
{
    uint64_t v = 0;
    const int64_t byte = pos >> 3;
    const int shift = (int)(pos & 7);
    const int need = (nbits + shift + 7) >> 3;
    for (int i = 0; i < need; i++) {
        const uint64_t b = (byte + i < nbytes) ? p[byte + i] : 0;
        v = (v << 8) | b;
    }
    return (v >> ((need << 3) - shift - nbits)) & ((1ULL << nbits) - 1);
}

API int64_t repro_huffman_decode(
    const uint8_t* body, int64_t nbytes,
    const int64_t* chunk_offsets, int64_t nchunks,
    int64_t chunk_size, int64_t n,
    const int64_t* table_sym, const int64_t* table_len,
    int64_t max_len, int64_t total_bits, int64_t* out)
{
    int64_t max_cursor = 0;
    for (int64_t c = 0; c < nchunks; c++) {
        int64_t cursor = chunk_offsets[c];
        const int64_t base = c * chunk_size;
        int64_t count = n - base;
        if (count > chunk_size) count = chunk_size;
        for (int64_t s = 0; s < count; s++) {
            const uint64_t key = peek_bits(body, nbytes, cursor, (int)max_len);
            const int64_t len = table_len[key];
            if (len == 0) return 1;
            out[base + s] = table_sym[key];
            cursor += len;
        }
        if (cursor > max_cursor) max_cursor = cursor;
    }
    return (max_cursor > total_bits) ? 2 : 0;
}

/* ---------------- ZFP bit-plane transpose ---------------- */
API void repro_zfp_plane_words(
    const uint64_t* u, int64_t nblocks, int64_t size, int64_t nplanes,
    uint64_t* words /* zeroed (nblocks, nplanes) */)
{
    const uint64_t mask =
        (nplanes >= 64) ? ~0ULL : ((1ULL << nplanes) - 1);
    for (int64_t b = 0; b < nblocks; b++) {
        const uint64_t* ub = u + b * size;
        uint64_t* wb = words + b * nplanes;
        for (int64_t i = 0; i < size; i++) {
            uint64_t x = ub[i] & mask;
            while (x) {
                const int k = __builtin_ctzll(x);
                wb[k] |= 1ULL << i;
                x &= x - 1;
            }
        }
    }
}

API void repro_zfp_words_to_coeffs(
    const uint64_t* words, int64_t nblocks, int64_t nplanes, int64_t size,
    uint64_t* u /* zeroed (nblocks, size) */)
{
    const uint64_t mask = (size >= 64) ? ~0ULL : ((1ULL << size) - 1);
    for (int64_t b = 0; b < nblocks; b++) {
        const uint64_t* wb = words + b * nplanes;
        uint64_t* ub = u + b * size;
        for (int64_t k = 0; k < nplanes; k++) {
            uint64_t x = wb[k] & mask;
            while (x) {
                const int i = __builtin_ctzll(x);
                ub[i] |= 1ULL << k;
                x &= x - 1;
            }
        }
    }
}

/* ---------------- ZFP embedded group-testing coder ----------------
 * Exact transcription of the seed per-block loop (blockcodec's
 * encode_block_planes / decode_block_planes), with the output fused:
 * bits go straight into the final MSB-first packed stream at a running
 * cursor, so there is no byte-per-bit staging, no trim/gather, and no
 * packbits pass afterwards.  `out` arrives zeroed — 0 bits are skips,
 * only 1 bits are written — which also gives fixed-rate blocks their
 * zero padding for free. */
static inline void zfp_put1(uint8_t* out, int64_t cur)
{
    out[cur >> 3] |= (uint8_t)(1u << (7 - (cur & 7)));
}

API void repro_zfp_encode_blocks(
    const uint64_t* words, const uint8_t* nonzero, const int64_t* e,
    int64_t nblocks, int64_t size, int64_t planes,
    const int64_t* budgets, const int64_t* kmins,
    int64_t maxbits,
    uint8_t* out /* zeroed; >= sum of per-block capacities, in bits */,
    int64_t* pos_out, int64_t* used_bits)
{
    const int EB = 12;       /* blockcodec.EBITS */
    const int64_t BIAS = 2048; /* blockcodec.EBIAS */
    const int fixed_rate = maxbits > 0;
    int64_t cur = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t start = cur;
        used_bits[b] = 0;
        if (!nonzero[b]) {
            pos_out[b] = fixed_rate ? maxbits : 1; /* '0' flag + zero pad */
            cur = start + pos_out[b];
            continue;
        }
        zfp_put1(out, cur);
        cur++;
        const uint64_t biased = (uint64_t)(e[b] + BIAS);
        for (int i = 0; i < EB; i++)
            if ((biased >> (EB - 1 - i)) & 1)
                zfp_put1(out, cur + i);
        cur += EB;
        const int64_t budget = budgets[b];
        int64_t bits = budget;
        int64_t n = 0;
        const uint64_t* wb = words + b * planes;
        for (int64_t k = planes - 1; k >= kmins[b]; k--) {
            if (bits == 0) break;
            uint64_t x = wb[k];
            const int64_t m = n < bits ? n : bits;
            for (int64_t j = 0; j < m; j++)
                if ((x >> j) & 1)
                    zfp_put1(out, cur + j);
            cur += m;
            bits -= m;
            x = (m >= 64) ? 0 : (x >> m);
            while (n < size && bits) {
                bits--;
                const int test = x != 0;
                if (test) zfp_put1(out, cur);
                cur++;
                if (!test) break;
                while (n < size - 1 && bits) {
                    bits--;
                    const int bit = (int)(x & 1);
                    if (bit) zfp_put1(out, cur);
                    cur++;
                    if (bit) break;
                    x >>= 1;
                    n++;
                }
                x >>= 1;
                n++;
            }
        }
        used_bits[b] = 1 + EB + (budget - bits);
        pos_out[b] = fixed_rate ? maxbits : (cur - start);
        if (fixed_rate) cur = start + maxbits;
    }
}

API void repro_zfp_decode_blocks(
    const uint8_t* bits_arr, const int64_t* offsets, const uint8_t* nonzero,
    int64_t nblocks, int64_t planes, int64_t size,
    const int64_t* budgets, const int64_t* kmins,
    uint64_t* words /* zeroed (nblocks, planes) */)
{
    const int EB = 12;
    for (int64_t b = 0; b < nblocks; b++) {
        if (!nonzero[b]) continue;
        int64_t cur = offsets[b] + 1 + EB;
        int64_t bits = budgets[b];
        int64_t n = 0;
        uint64_t* wb = words + b * planes;
        for (int64_t k = planes - 1; k >= kmins[b]; k--) {
            if (bits == 0) break;
            const int64_t m = n < bits ? n : bits;
            uint64_t x = 0;
            for (int64_t j = 0; j < m; j++)
                x |= ((uint64_t)bits_arr[cur + j]) << j;
            cur += m;
            bits -= m;
            while (n < size && bits) {
                bits--;
                if (!bits_arr[cur++]) break;
                while (n < size - 1 && bits) {
                    bits--;
                    if (bits_arr[cur++]) break;
                    n++;
                }
                x += 1ULL << n;
                n++;
            }
            wb[k] = x;
        }
    }
}

/* ---------------- ZFP fused block transform ----------------
 * One pass per 4^d block over a stack-resident 64-entry block:
 * edge-clamped gather (block_partition(mode="edge")), block exponent
 * (frexp of the block max), fixed point (rint(ldexp(x, planes-2-e))),
 * forward lifting along every block axis (slowest axis first, as
 * transform.forward_transform), sequency permutation and negabinary.
 * The inverse undoes each step and scatters the cropped block straight
 * into the output array.  The input is (n0, n1, n2) C-contiguous with
 * unused leading dims 1; blocks extend 4 along the last `ndim` axes.
 * Requires arithmetic right shift of negative int64 (native.probe
 * checks it) and two's-complement wraparound (-fwrapv), which is what
 * numpy's int64 arithmetic does. */
static const uint64_t ZFP_NBMASK = 0xAAAAAAAAAAAAAAAAULL;

static inline void zfp_fwd_lift(int64_t* p, int64_t s)
{
    int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
    x += w; x >>= 1; w -= x;
    z += y; z >>= 1; y -= z;
    x += z; x >>= 1; z -= x;
    w += y; w >>= 1; y -= w;
    w += y >> 1; y -= w >> 1;
    p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

static inline void zfp_inv_lift(int64_t* p, int64_t s)
{
    int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
    y += w >> 1; w -= y >> 1;
    y += w; w *= 2; w -= y;
    z += x; x *= 2; x -= z;
    y += z; z *= 2; z -= y;
    w += x; x *= 2; x -= w;
    p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

/* Lifts every line of a 4^ndim block along each axis; forward goes
 * axis 0 (stride 4^(ndim-1)) -> ndim-1 (stride 1), inverse the reverse. */
static inline void zfp_lift_block(int64_t* q, int64_t ndim, int inverse)
{
    const int64_t size = (int64_t)1 << (2 * ndim);
    for (int64_t step = 0; step < ndim; step++) {
        const int64_t a = inverse ? ndim - 1 - step : step;
        const int64_t stride = (int64_t)1 << (2 * (ndim - 1 - a));
        for (int64_t hi = 0; hi < size; hi += 4 * stride)
            for (int64_t lo = 0; lo < stride; lo++) {
                if (inverse) zfp_inv_lift(q + hi + lo, stride);
                else zfp_fwd_lift(q + hi + lo, stride);
            }
    }
}

static inline int64_t zfp_min(int64_t a, int64_t b) { return a < b ? a : b; }

/* x * 2^s, bit-identical to ldexp: multiplying by an exact power of two
 * is one correctly rounded operation, just as ldexp is.  The library
 * call only runs when 2^s itself is not a normal double. */
static inline double zfp_scale(double x, double pow2, int s)
{
    return (s >= -1022 && s <= 1023) ? x * pow2 : ldexp(x, s);
}

/* rint for |x| < 2^52 under round-to-nearest-even: adding and removing
 * 2^52 leaves exactly the rounded magnitude, and rounding half to even
 * is symmetric in the sign (branch-free: signs of data are random). */
static inline int64_t zfp_rint(double x)
{
    const double big = 4503599627370496.0; /* 2^52 */
    return (int64_t)copysign((fabs(x) + big) - big, x);
}

/* Returns the number of blocks holding a non-finite value (their
 * outputs are zeroed); 0 on success. */
API int64_t repro_zfp_xform(
    const void* data, int64_t is_f64, int64_t ndim,
    int64_t n0, int64_t n1, int64_t n2, int64_t planes,
    const int64_t* perm, int64_t nblocks,
    uint64_t* u, int64_t* e_out, uint8_t* nonzero)
{
    const int64_t b0 = ndim >= 3 ? 4 : 1, b1 = ndim >= 2 ? 4 : 1;
    const int64_t g1 = (n1 + b1 - 1) / b1, g2 = (n2 + 3) / 4;
    const int64_t size = b0 * b1 * 4;
    const float* f32 = (const float*)data;
    const double* f64 = (const double*)data;
    int64_t bad = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t gi = b / (g1 * g2), gj = (b / g2) % g1, gk = b % g2;
        double f[64];
        int64_t q[64];
        int64_t idx = 0;
        double amax = 0.0;
        int finite = 1;
        for (int64_t i = 0; i < b0; i++) {
            const int64_t ii = zfp_min(gi * b0 + i, n0 - 1);
            for (int64_t j = 0; j < b1; j++) {
                const int64_t row = (ii * n1 + zfp_min(gj * b1 + j, n1 - 1)) * n2;
                for (int64_t k = 0; k < 4; k++) {
                    const int64_t at = row + zfp_min(gk * 4 + k, n2 - 1);
                    f[idx + k] = is_f64 ? f64[at] : (double)f32[at];
                }
                for (int64_t k = 0; k < 4; k++, idx++) {
                    const double a = fabs(f[idx]);
                    finite &= a <= 1.7976931348623157e308;
                    amax = a > amax ? a : amax;
                }
            }
        }
        uint64_t* ub = u + b * size;
        bad += !finite;
        if (!finite || amax == 0.0) {
            e_out[b] = 0;
            nonzero[b] = 0;
            for (int64_t i = 0; i < size; i++) ub[i] = 0;
            continue;
        }
        int ex;
        frexp(amax, &ex);
        e_out[b] = ex;
        nonzero[b] = 1;
        const int scale = (int)(planes - 2) - ex;
        const double pow2 = ldexp(1.0, scale);
        /* |f| * 2^scale < 2^(planes-2) <= 2^50: zfp_rint's range. */
        for (int64_t i = 0; i < size; i++)
            q[i] = zfp_rint(zfp_scale(f[i], pow2, scale));
        zfp_lift_block(q, ndim, 0);
        for (int64_t i = 0; i < size; i++)
            ub[i] = ((uint64_t)q[perm[i]] + ZFP_NBMASK) ^ ZFP_NBMASK;
    }
    return bad;
}

API void repro_zfp_xform_inverse(
    const uint64_t* u, const int64_t* e, const uint8_t* nonzero,
    int64_t nblocks, int64_t ndim, int64_t n0, int64_t n1, int64_t n2,
    int64_t planes, const int64_t* perm, int64_t is_f64, void* out)
{
    const int64_t b0 = ndim >= 3 ? 4 : 1, b1 = ndim >= 2 ? 4 : 1;
    const int64_t g1 = (n1 + b1 - 1) / b1, g2 = (n2 + 3) / 4;
    const int64_t size = b0 * b1 * 4;
    float* o32 = (float*)out;
    double* o64 = (double*)out;
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t gi = b / (g1 * g2), gj = (b / g2) % g1, gk = b % g2;
        const uint64_t* ub = u + b * size;
        int64_t q[64];
        for (int64_t i = 0; i < size; i++)
            q[perm[i]] = (int64_t)((ub[i] ^ ZFP_NBMASK) - ZFP_NBMASK);
        zfp_lift_block(q, ndim, 1);
        /* e comes from a 12-bit stream field; clamp anyway so the int
         * conversion is defined for any caller (ldexp saturates long
         * before the clamp matters). */
        int64_t s = e[b] - (planes - 2);
        if (s > 100000) s = 100000;
        if (s < -100000) s = -100000;
        const double pow2 = ldexp(1.0, (int)s);
        int64_t idx = 0;
        for (int64_t i = 0; i < b0; i++) {
            const int64_t ii = gi * b0 + i;
            for (int64_t j = 0; j < b1; j++) {
                const int64_t jj = gj * b1 + j;
                for (int64_t k = 0; k < 4; k++, idx++) {
                    const int64_t kk = gk * 4 + k;
                    if (ii >= n0 || jj >= n1 || kk >= n2) continue;
                    const double v = nonzero[b]
                        ? zfp_scale((double)q[idx], pow2, (int)s) : 0.0;
                    const int64_t at = (ii * n1 + jj) * n2 + kk;
                    if (is_f64) o64[at] = v;
                    else o32[at] = (float)v;
                }
            }
        }
    }
}

/* Probe: native.py checks that -3 >> 1 == -2, i.e. that >> on a
 * negative int64 is arithmetic, which the lifting steps rely on. */
API int64_t repro_probe_asr(int64_t x)
{
    return x >> 1;
}
"""

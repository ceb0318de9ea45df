/**
 * @file
 * AVX2 kernel table, compiled with -mavx2 in this TU only. The
 * plane kernels and the convolution tiles run 256-bit lanes; the
 * short-group and walk kernels reuse the shared 128-bit
 * implementations (group sizes and window widths rarely exceed 16,
 * so wider registers buy nothing there), and the CRC is the same
 * scalar crc32 instruction stream as the SSE4 table.
 */

#include "common/simd.hh"
#include "common/simd_x86.hh"

namespace diffy::simd
{

namespace
{

/** Per-byte popcount via the nibble-LUT shuffle, 32 bytes at a time. */
inline __m256i
popcountBytes256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Per-dword popcount of the eight 32-bit lanes of @p v. */
inline __m256i
popcountDwords256(__m256i v)
{
    const __m256i bytes = popcountBytes256(v);
    const __m256i ones8 = _mm256_set1_epi8(1);
    const __m256i ones16 = _mm256_set1_epi16(1);
    return _mm256_madd_epi16(_mm256_maddubs_epi16(bytes, ones8),
                             ones16);
}

inline __m256i
nafXor256(__m256i v)
{
    const __m256i v3 =
        _mm256_add_epi32(_mm256_add_epi32(v, v), v);
    return _mm256_xor_si256(v, v3);
}

inline __m256i
foldSign256(__m256i v)
{
    return _mm256_xor_si256(v, _mm256_srai_epi32(v, 31));
}

inline __m256i
bitWidthDwords256(__m256i m)
{
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 1));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 2));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 4));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 8));
    m = _mm256_or_si256(m, _mm256_srli_epi32(m, 16));
    return popcountDwords256(m);
}

/**
 * Pack 16 dword counts (two regs of 8, each < 256) into 16 linear
 * bytes. packs/packus interleave the 128-bit lanes, so a cross-lane
 * dword permute restores element order before the store.
 */
inline void
storeCounts16(std::uint8_t *dst, __m256i lo, __m256i hi)
{
    const __m256i w = _mm256_packs_epi32(lo, hi);
    const __m256i b =
        _mm256_packus_epi16(w, _mm256_setzero_si256());
    const __m256i order =
        _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);
    const __m256i lin = _mm256_permutevar8x32_epi32(b, order);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(dst),
                     _mm256_castsi256_si128(lin));
}

/** Pack 8 dword counts into 8 linear bytes. */
inline void
storeCounts8(std::uint8_t *dst, __m256i cnt)
{
    const __m256i w =
        _mm256_packs_epi32(cnt, _mm256_setzero_si256());
    const __m256i b =
        _mm256_packus_epi16(w, _mm256_setzero_si256());
    const __m256i order =
        _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
    const __m256i lin = _mm256_permutevar8x32_epi32(b, order);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(dst),
                     _mm256_castsi256_si128(lin));
}

/** Widen 16 int16 to two regs of 8 int32 (in element order). */
inline void
widen16(const std::int16_t *src, __m256i &lo, __m256i &hi)
{
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(src));
    lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v));
    hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1));
}

void
avx2BoothPlane16(const std::int16_t *src, std::uint8_t *dst,
                 std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m256i lo;
        __m256i hi;
        widen16(src + i, lo, hi);
        storeCounts16(dst + i, popcountDwords256(nafXor256(lo)),
                      popcountDwords256(nafXor256(hi)));
    }
    if (i < n)
        x86::boothPlane16(src + i, dst + i, n - i);
}

void
avx2BoothPlane32(const std::int32_t *src, std::uint8_t *dst,
                 std::size_t n)
{
    const __m256i big = _mm256_set1_epi32(0x1FFFFFFF);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        if (_mm256_movemask_epi8(
                _mm256_cmpgt_epi32(foldSign256(v), big)) != 0) {
            for (std::size_t t = 0; t < 8; ++t)
                dst[i + t] = x86::nafWeight64Scalar(src[i + t]);
            continue;
        }
        storeCounts8(dst + i, popcountDwords256(nafXor256(v)));
    }
    if (i < n)
        x86::boothPlane32(src + i, dst + i, n - i);
}

void
avx2BitsPlane16(const std::int16_t *src, std::uint8_t *dst,
                std::size_t n)
{
    const __m256i one = _mm256_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m256i lo;
        __m256i hi;
        widen16(src + i, lo, hi);
        storeCounts16(
            dst + i,
            _mm256_add_epi32(bitWidthDwords256(foldSign256(lo)), one),
            _mm256_add_epi32(bitWidthDwords256(foldSign256(hi)),
                             one));
    }
    if (i < n)
        x86::bitsPlane16(src + i, dst + i, n - i);
}

void
avx2BitsPlane32(const std::int32_t *src, std::uint8_t *dst,
                std::size_t n)
{
    const __m256i one = _mm256_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        storeCounts8(
            dst + i,
            _mm256_add_epi32(bitWidthDwords256(foldSign256(v)), one));
    }
    if (i < n)
        x86::bitsPlane32(src + i, dst + i, n - i);
}

/**
 * 256-bit float lanes for the convolution tiles. This TU has no
 * -mfma, and the project builds with -ffp-contract=off, so every
 * mul/add pair stays two roundings.
 */
struct F32x8
{
    using V = __m256;
    using In = float;
    using Wt = float;
    using Out = float;
    static constexpr int kLanes = 8;

    static V zero() { return _mm256_setzero_ps(); }
    static V broadcast(const float *p) { return _mm256_broadcast_ss(p); }
    static V load(const float *p) { return _mm256_loadu_ps(p); }
    static V
    loadStrided(const float *p, std::size_t s)
    {
        return _mm256_setr_ps(p[0], p[s], p[2 * s], p[3 * s], p[4 * s],
                              p[5 * s], p[6 * s], p[7 * s]);
    }
    static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static bool
    store(float *p, V v)
    {
        _mm256_storeu_ps(p, v);
        return true;
    }
};

/**
 * Four int64 lanes for the fixed-point tiles (x86::I64x2, twice as
 * wide). The weight broadcast loads the int16 into every word and
 * shifts each dword right by 16, which leaves the sign-extended
 * weight in every dword: one load-broadcast and one shift, no trip
 * through a general register.
 */
struct I64x4
{
    using V = __m256i;
    using In = std::int32_t;
    using Wt = std::int16_t;
    using Out = std::int32_t;
    static constexpr int kLanes = 4;

    static V zero() { return _mm256_setzero_si256(); }
    static V
    broadcast(const std::int16_t *p)
    {
        return _mm256_srai_epi32(_mm256_set1_epi16(*p), 16);
    }
    static V
    load(const std::int32_t *p)
    {
        return _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
    static V
    loadStrided(const std::int32_t *p, std::size_t s)
    {
        return _mm256_setr_epi64x(p[0], p[s], p[2 * s], p[3 * s]);
    }
    static V mul(V a, V b) { return _mm256_mul_epi32(a, b); }
    static V add(V a, V b) { return _mm256_add_epi64(a, b); }
    static bool
    store(std::int32_t *p, V v)
    {
        return x86::storeNarrowedI64<kLanes>(p, v);
    }
};

} // namespace

namespace detail
{

const KernelTable &
avx2Table()
{
    static const KernelTable t = {
        Isa::Avx2,          &avx2BoothPlane16, &avx2BoothPlane32,
        &avx2BitsPlane16,   &avx2BitsPlane32,  &x86::groupBits16,
        &x86::groupBits32,  &x86::deltaBits16, &x86::addSat16,
        &x86::walkSumMax,   &x86::crc32c,
        &x86::convolveF32<F32x8>, &x86::convolve<I64x4>,
    };
    return t;
}

} // namespace detail

} // namespace diffy::simd

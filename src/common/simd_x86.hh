/**
 * @file
 * Shared 128-bit x86 kernel implementations (SSE4.1/SSSE3 level),
 * included by both the -msse4.2 and -mavx2 translation units. Only
 * those TUs may include this header (lint rule R8 confines raw
 * intrinsics to src/common/simd*).
 *
 * Tail handling follows the DESIGN.md §14 contract: exact-width
 * chunked loads (16/8/4-byte) plus scalar remainders — no masked
 * overreads — so callers need no padding and sanitizers stay quiet.
 *
 * Everything here has internal linkage (anonymous namespace): the two
 * including TUs are compiled with different -m flags, so letting the
 * linker COMDAT-merge one copy could leave VEX-encoded code behind
 * the SSE4 table and crash pre-AVX2 hardware. Each TU must own its
 * own instructions.
 */

#ifndef DIFFY_COMMON_SIMD_X86_HH
#define DIFFY_COMMON_SIMD_X86_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include <immintrin.h>

#include "common/simd.hh"

namespace diffy::simd::x86
{

namespace
{

/** Per-byte popcount via the SSSE3 nibble-LUT shuffle. */
inline __m128i
popcountBytes(__m128i v)
{
    const __m128i lut = _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                                      3, 2, 3, 3, 4);
    const __m128i low = _mm_set1_epi8(0x0F);
    const __m128i lo = _mm_and_si128(v, low);
    const __m128i hi =
        _mm_and_si128(_mm_srli_epi16(v, 4), low);
    return _mm_add_epi8(_mm_shuffle_epi8(lut, lo),
                        _mm_shuffle_epi8(lut, hi));
}

/** Per-dword popcount of the four 32-bit lanes of @p v. */
inline __m128i
popcountDwords(__m128i v)
{
    const __m128i bytes = popcountBytes(v);
    // Horizontal add of the 4 byte counts per dword: bytes are <= 8,
    // so unsigned*signed maddubs never overflows int16.
    const __m128i ones8 = _mm_set1_epi8(1);
    const __m128i ones16 = _mm_set1_epi16(1);
    return _mm_madd_epi16(_mm_maddubs_epi16(bytes, ones8), ones16);
}

/** v ^ 3v in 32-bit lanes (exact while |v| < 2^29). */
inline __m128i
nafXor(__m128i v)
{
    const __m128i v3 = _mm_add_epi32(_mm_add_epi32(v, v), v);
    return _mm_xor_si128(v, v3);
}

/** Sign fold in 32-bit lanes: v ^ (v >> 31). */
inline __m128i
foldSign(__m128i v)
{
    return _mm_xor_si128(v, _mm_srai_epi32(v, 31));
}

/**
 * bit_width of each (non-negative) 32-bit lane via bit smearing:
 * after OR-ing in every right shift the lane holds 2^bit_width - 1,
 * whose popcount is the width.
 */
inline __m128i
bitWidthDwords(__m128i m)
{
    m = _mm_or_si128(m, _mm_srli_epi32(m, 1));
    m = _mm_or_si128(m, _mm_srli_epi32(m, 2));
    m = _mm_or_si128(m, _mm_srli_epi32(m, 4));
    m = _mm_or_si128(m, _mm_srli_epi32(m, 8));
    m = _mm_or_si128(m, _mm_srli_epi32(m, 16));
    return popcountDwords(m);
}

/** Pack two regs of 8 dword counts (each < 256) into 8 bytes. */
inline void
storeCounts8(std::uint8_t *dst, __m128i lo, __m128i hi)
{
    const __m128i w = _mm_packs_epi32(lo, hi);
    const __m128i b = _mm_packus_epi16(w, _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i *>(dst), b);
}

inline void
boothPlane16(const std::int16_t *src, std::uint8_t *dst, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i v16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        const __m128i lo = _mm_cvtepi16_epi32(v16);
        const __m128i hi =
            _mm_cvtepi16_epi32(_mm_srli_si128(v16, 8));
        storeCounts8(dst + i, popcountDwords(nafXor(lo)),
                     popcountDwords(nafXor(hi)));
    }
    for (; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(
            std::popcount(static_cast<std::uint32_t>(
                src[i] ^ (3 * static_cast<std::int32_t>(src[i])))));
    }
}

/** Scalar NAF weight of an int32, exact over the full domain. */
inline std::uint8_t
nafWeight64Scalar(std::int32_t v)
{
    const auto w = static_cast<std::int64_t>(v);
    return static_cast<std::uint8_t>(
        std::popcount(static_cast<std::uint64_t>(w ^ (3 * w))));
}

inline void
boothPlane32(const std::int32_t *src, std::uint8_t *dst, std::size_t n)
{
    // 32-bit lanes keep v^3v exact only while the folded magnitude is
    // below 2^29 (3v must not overflow). Encode-side deltas are
    // 17-bit quantities, so the wide path is the near-universal case;
    // a chunk containing any big value falls back to 64-bit scalar.
    const __m128i big = _mm_set1_epi32(0x1FFFFFFF);
    const __m128i shuffle = _mm_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        if (_mm_movemask_epi8(_mm_cmpgt_epi32(foldSign(v), big)) !=
            0) {
            for (std::size_t t = 0; t < 4; ++t)
                dst[i + t] = nafWeight64Scalar(src[i + t]);
            continue;
        }
        const __m128i cnt = popcountDwords(nafXor(v));
        const int packed = _mm_cvtsi128_si32(
            _mm_shuffle_epi8(cnt, shuffle));
        std::memcpy(dst + i, &packed, 4);
    }
    for (; i < n; ++i)
        dst[i] = nafWeight64Scalar(src[i]);
}

inline void
bitsPlane16(const std::int16_t *src, std::uint8_t *dst, std::size_t n)
{
    const __m128i one = _mm_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i v16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        const __m128i lo = _mm_cvtepi16_epi32(v16);
        const __m128i hi =
            _mm_cvtepi16_epi32(_mm_srli_si128(v16, 8));
        storeCounts8(
            dst + i,
            _mm_add_epi32(bitWidthDwords(foldSign(lo)), one),
            _mm_add_epi32(bitWidthDwords(foldSign(hi)), one));
    }
    for (; i < n; ++i) {
        const std::int32_t v = src[i];
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(static_cast<std::uint32_t>(v ^ (v >> 31))) +
            1);
    }
}

inline void
bitsPlane32(const std::int32_t *src, std::uint8_t *dst, std::size_t n)
{
    const __m128i one = _mm_set1_epi32(1);
    const __m128i shuffle = _mm_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        const __m128i cnt =
            _mm_add_epi32(bitWidthDwords(foldSign(v)), one);
        const int packed = _mm_cvtsi128_si32(
            _mm_shuffle_epi8(cnt, shuffle));
        std::memcpy(dst + i, &packed, 4);
    }
    for (; i < n; ++i) {
        const std::int32_t v = src[i];
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(static_cast<std::uint32_t>(v ^ (v >> 31))) +
            1);
    }
}

/** OR-reduce the four 32-bit lanes of @p v. */
inline std::uint32_t
orReduceDwords(__m128i v)
{
    const std::uint64_t a = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(v));
    const std::uint64_t b = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_srli_si128(v, 8)));
    const std::uint64_t m = a | b;
    return static_cast<std::uint32_t>(m | (m >> 32));
}

inline int
groupBits16(const std::int16_t *group, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(group + i));
        // 16-bit sign fold: for int16 inputs it equals the low half
        // of the 32-bit fold and the high half is zero.
        acc = _mm_or_si128(
            acc, _mm_xor_si128(v, _mm_srai_epi16(v, 15)));
    }
    const std::uint32_t wide = orReduceDwords(acc);
    std::uint32_t m = (wide | (wide >> 16)) & 0xFFFFu;
    for (; i < n; ++i) {
        const std::int32_t v = group[i];
        m |= static_cast<std::uint32_t>(v ^ (v >> 31));
    }
    return std::bit_width(m) + 1;
}

inline int
groupBits32(const std::int32_t *group, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(group + i));
        acc = _mm_or_si128(acc, foldSign(v));
    }
    std::uint32_t m = orReduceDwords(acc);
    for (; i < n; ++i) {
        const std::int32_t v = group[i];
        m |= static_cast<std::uint32_t>(v ^ (v >> 31));
    }
    return std::bit_width(m) + 1;
}

inline int
deltaBits16(const std::int16_t *prev, const std::int16_t *cur,
            std::int32_t *delta, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i p16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + i));
        const __m128i c16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(cur + i));
        const __m128i d0 =
            _mm_sub_epi32(_mm_cvtepi16_epi32(c16),
                          _mm_cvtepi16_epi32(p16));
        const __m128i d1 = _mm_sub_epi32(
            _mm_cvtepi16_epi32(_mm_srli_si128(c16, 8)),
            _mm_cvtepi16_epi32(_mm_srli_si128(p16, 8)));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(delta + i), d0);
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(delta + i + 4), d1);
        acc = _mm_or_si128(acc, foldSign(d0));
        acc = _mm_or_si128(acc, foldSign(d1));
    }
    std::uint32_t m = orReduceDwords(acc);
    for (; i < n; ++i) {
        const std::int32_t d = static_cast<std::int32_t>(cur[i]) -
                               static_cast<std::int32_t>(prev[i]);
        delta[i] = d;
        m |= static_cast<std::uint32_t>(d ^ (d >> 31));
    }
    return std::bit_width(m) + 1;
}

inline void
addSat16(const std::int16_t *prev, const std::int32_t *delta,
         std::int16_t *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i p16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + i));
        const __m128i s0 = _mm_add_epi32(
            _mm_cvtepi16_epi32(p16),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(delta + i)));
        const __m128i s1 = _mm_add_epi32(
            _mm_cvtepi16_epi32(_mm_srli_si128(p16, 8)),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(delta + i + 4)));
        // packs_epi32 saturates to int16 — exactly saturate16(), and
        // the int32 sums are exact under the 18-bit delta contract.
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_packs_epi32(s0, s1));
    }
    for (; i < n; ++i) {
        const std::int32_t v =
            static_cast<std::int32_t>(prev[i]) + delta[i];
        out[i] = static_cast<std::int16_t>(
            v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
    }
}

/** Sum of the 16 bytes of @p v, as a 64-bit scalar. */
inline std::int64_t
sumBytes(__m128i v)
{
    const __m128i s = _mm_sad_epu8(v, _mm_setzero_si128());
    return _mm_cvtsi128_si64(s) +
           _mm_cvtsi128_si64(_mm_srli_si128(s, 8));
}

inline std::int64_t
walkSumMax(const std::uint8_t *base, std::size_t rowStride,
           std::size_t rows, int colStride, std::uint8_t *colMax,
           int cols)
{
    if (colStride != 1 || cols < 8) {
        // Strided windows (stride > 1) and narrow blocks: scalar.
        std::int64_t sum = 0;
        for (int j = 0; j < cols; ++j)
            colMax[j] = 0;
        for (std::size_t r = 0; r < rows; ++r) {
            const std::uint8_t *row = base + r * rowStride;
            for (int j = 0; j < cols; ++j) {
                const std::uint8_t v =
                    row[static_cast<std::size_t>(j) * colStride];
                sum += v;
                if (v > colMax[j])
                    colMax[j] = v;
            }
        }
        return sum;
    }

    std::int64_t total = 0;
    int j = 0;
    for (; j + 16 <= cols; j += 16) {
        __m128i mx = _mm_setzero_si128();
        __m128i sums = _mm_setzero_si128();
        for (std::size_t r = 0; r < rows; ++r) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    base + r * rowStride + j));
            mx = _mm_max_epu8(mx, v);
            sums = _mm_add_epi64(
                sums, _mm_sad_epu8(v, _mm_setzero_si128()));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(colMax + j), mx);
        total += _mm_cvtsi128_si64(sums) +
                 _mm_cvtsi128_si64(_mm_srli_si128(sums, 8));
    }
    if (j + 8 <= cols) {
        __m128i mx = _mm_setzero_si128();
        for (std::size_t r = 0; r < rows; ++r) {
            const __m128i v = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(
                    base + r * rowStride + j));
            mx = _mm_max_epu8(mx, v);
            total += sumBytes(v);
        }
        _mm_storel_epi64(reinterpret_cast<__m128i *>(colMax + j), mx);
        j += 8;
    }
    for (; j < cols; ++j) {
        std::uint8_t m = 0;
        for (std::size_t r = 0; r < rows; ++r) {
            const std::uint8_t v = base[r * rowStride + j];
            total += v;
            if (v > m)
                m = v;
        }
        colMax[j] = m;
    }
    return total;
}

/**
 * KernelTable::crc32c via the SSE4.2 crc32 instruction, which computes
 * exactly the Castagnoli polynomial of the scalar table: one 8-byte
 * word per instruction on x86-64 (unaligned loads through memcpy),
 * then a byte tail.
 */
inline std::uint32_t
crc32c(const void *data, std::size_t bytes, std::uint32_t crc)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c32 = ~crc;
    std::size_t i = 0;
#if defined(__x86_64__)
    std::uint64_t c = c32;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        c = _mm_crc32_u64(c, w);
    }
    c32 = static_cast<std::uint32_t>(c);
#endif
    for (; i < bytes; ++i)
        c32 = _mm_crc32_u8(c32, p[i]);
    return ~c32;
}

/*
 * Lane types of the whole-layer convolution tiles. Each names its
 * input, weight and output element types and the vector operations
 * the tile needs; store() returns false when a lane does not fit the
 * output type.
 */

/** 128-bit float lanes (convolveF32). */
struct F32x4
{
    using V = __m128;
    using In = float;
    using Wt = float;
    using Out = float;
    static constexpr int kLanes = 4;

    static V zero() { return _mm_setzero_ps(); }
    static V broadcast(const float *p) { return _mm_set1_ps(*p); }
    static V load(const float *p) { return _mm_loadu_ps(p); }
    static V
    loadStrided(const float *p, std::size_t s)
    {
        return _mm_setr_ps(p[0], p[s], p[2 * s], p[3 * s]);
    }
    static V mul(V a, V b) { return _mm_mul_ps(a, b); }
    static V add(V a, V b) { return _mm_add_ps(a, b); }
    static bool
    store(float *p, V v)
    {
        _mm_storeu_ps(p, v);
        return true;
    }
};

/**
 * Narrow the int64 lanes of @p v to int32 at @p p; false when a lane
 * lies outside int32. Runs once per output, after its whole
 * reduction, so scalar code costs nothing measurable here.
 */
template <int N, class V>
inline bool
storeNarrowedI64(std::int32_t *p, V v)
{
    alignas(32) std::int64_t lanes[N];
    std::memcpy(lanes, &v, sizeof lanes);
    bool ok = true;
    for (int j = 0; j < N; ++j) {
        p[j] = static_cast<std::int32_t>(lanes[j]);
        ok = ok && p[j] == lanes[j];
    }
    return ok;
}

/**
 * Two int64 lanes (convolveI32). _mm_mul_epi32 multiplies the signed
 * low dwords of each qword into an exact 64-bit product, so the input
 * is sign-extended into qwords and the weight broadcast to every
 * dword.
 */
struct I64x2
{
    using V = __m128i;
    using In = std::int32_t;
    using Wt = std::int16_t;
    using Out = std::int32_t;
    static constexpr int kLanes = 2;

    static V zero() { return _mm_setzero_si128(); }
    static V broadcast(const std::int16_t *p) { return _mm_set1_epi32(*p); }
    static V
    load(const std::int32_t *p)
    {
        return _mm_cvtepi32_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
    }
    static V
    loadStrided(const std::int32_t *p, std::size_t s)
    {
        return _mm_set_epi64x(p[s], p[0]);
    }
    static V mul(V a, V b) { return _mm_mul_epi32(a, b); }
    static V add(V a, V b) { return _mm_add_epi64(a, b); }
    static bool
    store(std::int32_t *p, V v)
    {
        return storeNarrowedI64<kLanes>(p, v);
    }
};

/** How a convolution tile reads its input columns. */
enum class ConvCols
{
    Contiguous, ///< stride 1: whole-vector loads
    Strided,    ///< stride > 1: lane-by-lane gathers
    Partial,    ///< the row's last < kLanes columns, any stride
};

/**
 * Exact-width tail load: lanes [0, n) take p[j * s], the rest are
 * zero. Only the n addressed inputs are read (the SNIPPETS.md
 * loadPartial idiom, through a stack lane buffer).
 */
template <class Ops>
inline typename Ops::V
loadPartial(const typename Ops::In *p, std::size_t s, int n)
{
    alignas(32) typename Ops::In lanes[Ops::kLanes] = {};
    for (int j = 0; j < n; ++j)
        lanes[j] = p[j * s];
    return Ops::load(lanes);
}

/** Exact-width tail store of lanes [0, n) of @p v. */
template <class Ops>
inline bool
storePartial(typename Ops::Out *p, typename Ops::V v, int n)
{
    alignas(32) typename Ops::Out lanes[Ops::kLanes] = {};
    const bool ok = Ops::store(lanes, v);
    std::memcpy(p, lanes,
                static_cast<std::size_t>(n) * sizeof(typename Ops::Out));
    return ok;
}

/**
 * One register tile of the whole-layer convolution: NF filters x NV
 * vectors of output columns of row @p oy, starting at column @p x0.
 * The NF * NV accumulators stay in registers across the whole
 * (c, ky, kx) reduction, each step a separate multiply and add, and
 * every output is stored once. Zero weights are not skipped: a tap is
 * dead only when all NF of its weights are, and testing for that on
 * every tap made fig 20 (up to 90% pruned) slower overall (DESIGN.md
 * §14). A Partial tile has NV == 1 and covers only @p ncols
 * (< kLanes) columns. Returns false when a stored lane did not fit.
 */
template <class Ops, int NF, int NV, ConvCols Cols>
inline bool
convTile(const typename Ops::In *in, const typename Ops::Wt *w,
         typename Ops::Out *out, const ConvGeometry &g, int oy, int f0,
         int x0, int ncols)
{
    using V = typename Ops::V;
    constexpr int kL = Ops::kLanes;
    const std::size_t s = static_cast<std::size_t>(g.stride);
    const std::size_t plane =
        static_cast<std::size_t>(g.paddedH) * g.paddedW;
    const std::size_t rowStep =
        static_cast<std::size_t>(g.dilation) * g.paddedW;
    const std::size_t filterTaps =
        static_cast<std::size_t>(g.channels) * g.kernel * g.kernel;
    const typename Ops::In *window =
        in + static_cast<std::size_t>(oy) * s * g.paddedW +
        static_cast<std::size_t>(x0) * s;
    const typename Ops::Wt *wt =
        w + static_cast<std::size_t>(f0) * filterTaps;

    V acc[NF][NV];
    for (int i = 0; i < NF; ++i)
        for (int v = 0; v < NV; ++v)
            acc[i][v] = Ops::zero();

    for (int c = 0; c < g.channels; ++c, window += plane) {
        // GCC keeps an accumulator array in registers only inside a
        // single loop nest; across the channel loop it would spill acc
        // on every tap, so each channel works on a register copy.
        V a[NF][NV];
        for (int i = 0; i < NF; ++i)
            for (int v = 0; v < NV; ++v)
                a[i][v] = acc[i][v];
        const typename Ops::In *row = window;
        for (int ky = 0; ky < g.kernel; ++ky, row += rowStep) {
            for (int kx = 0; kx < g.kernel; ++kx, ++wt) {
                const typename Ops::In *p =
                    row + static_cast<std::size_t>(kx) * g.dilation;
                V x[NV];
                for (int v = 0; v < NV; ++v) {
                    if constexpr (Cols == ConvCols::Contiguous)
                        x[v] = Ops::load(p + v * kL);
                    else if constexpr (Cols == ConvCols::Strided)
                        x[v] = Ops::loadStrided(p + v * kL * s, s);
                    else
                        x[v] = loadPartial<Ops>(p, s, ncols);
                }
                for (int i = 0; i < NF; ++i) {
                    const V wv = Ops::broadcast(wt + i * filterTaps);
                    for (int v = 0; v < NV; ++v)
                        a[i][v] = Ops::add(a[i][v], Ops::mul(wv, x[v]));
                }
            }
        }
        for (int i = 0; i < NF; ++i)
            for (int v = 0; v < NV; ++v)
                acc[i][v] = a[i][v];
    }

    bool ok = true;
    for (int i = 0; i < NF; ++i) {
        typename Ops::Out *o =
            out + (static_cast<std::size_t>(f0 + i) * g.outH + oy) *
                      g.outW +
            x0;
        for (int v = 0; v < NV; ++v) {
            if constexpr (Cols == ConvCols::Partial)
                ok = storePartial<Ops>(o, acc[i][v], ncols) && ok;
            else
                ok = Ops::store(o + v * kL, acc[i][v]) && ok;
        }
    }
    return ok;
}

/**
 * Every column tile of output row @p oy for NF filters: tiles of
 * 2 * kLanes columns, then one of kLanes, then an exact-width tail.
 */
template <class Ops, int NF, ConvCols Cols>
inline bool
convRow(const typename Ops::In *in, const typename Ops::Wt *w,
        typename Ops::Out *out, const ConvGeometry &g, int oy, int f0)
{
    constexpr int kL = Ops::kLanes;
    bool ok = true;
    int x0 = 0;
    for (; x0 + 2 * kL <= g.outW; x0 += 2 * kL)
        ok = convTile<Ops, NF, 2, Cols>(in, w, out, g, oy, f0, x0, 0) &&
             ok;
    if (x0 + kL <= g.outW) {
        ok = convTile<Ops, NF, 1, Cols>(in, w, out, g, oy, f0, x0, 0) &&
             ok;
        x0 += kL;
    }
    if (x0 < g.outW)
        ok = convTile<Ops, NF, 1, ConvCols::Partial>(in, w, out, g, oy,
                                                     f0, x0,
                                                     g.outW - x0) &&
             ok;
    return ok;
}

/**
 * A whole-layer convolution over the lanes of @p Ops: output rows
 * outermost (the k input rows they read stay cache-resident across
 * filter blocks), then blocks of 4 filters (the remainder as one
 * narrower block), then column tiles.
 */
template <class Ops, ConvCols Cols>
inline bool
convRows(const typename Ops::In *in, const typename Ops::Wt *w,
         typename Ops::Out *out, const ConvGeometry &g)
{
    bool ok = true;
    for (int oy = 0; oy < g.outH; ++oy) {
        int f0 = 0;
        for (; f0 + 4 <= g.filters; f0 += 4)
            ok = convRow<Ops, 4, Cols>(in, w, out, g, oy, f0) && ok;
        switch (g.filters - f0) {
          case 3:
            ok = convRow<Ops, 3, Cols>(in, w, out, g, oy, f0) && ok;
            break;
          case 2:
            ok = convRow<Ops, 2, Cols>(in, w, out, g, oy, f0) && ok;
            break;
          case 1:
            ok = convRow<Ops, 1, Cols>(in, w, out, g, oy, f0) && ok;
            break;
          default:
            break;
        }
    }
    return ok;
}

/** KernelTable::convolveI32 (and, through convolveF32, the float one). */
template <class Ops>
inline bool
convolve(const typename Ops::In *in, const typename Ops::Wt *weights,
         typename Ops::Out *out, const ConvGeometry &g)
{
    if (g.stride == 1)
        return convRows<Ops, ConvCols::Contiguous>(in, weights, out, g);
    return convRows<Ops, ConvCols::Strided>(in, weights, out, g);
}

/** KernelTable::convolveF32: float lanes never fail to store. */
template <class Ops>
inline void
convolveF32(const float *in, const float *weights, float *out,
            const ConvGeometry &g)
{
    convolve<Ops>(in, weights, out, g);
}

} // namespace

} // namespace diffy::simd::x86

#endif // DIFFY_COMMON_SIMD_X86_HH

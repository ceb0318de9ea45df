/**
 * @file
 * NEON kernel table for aarch64, where Advanced SIMD is architectural
 * (no runtime probe needed). Follows the same exact-width chunk +
 * scalar tail contract as the x86 tables; results are bit-identical
 * to the scalar reference by construction (all ops are exact integer
 * arithmetic).
 */

#include "common/simd.hh"

#if defined(__aarch64__)

#include <bit>
#include <cstring>

#include <arm_neon.h>

namespace diffy::simd
{

namespace
{

/** Per-dword popcount of the four 32-bit lanes. */
inline uint32x4_t
popcountDwords(uint32x4_t v)
{
    return vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u32(v))));
}

inline int32x4_t
nafXor(int32x4_t v)
{
    return veorq_s32(v, vaddq_s32(vaddq_s32(v, v), v));
}

inline uint32x4_t
foldSign(int32x4_t v)
{
    return vreinterpretq_u32_s32(veorq_s32(v, vshrq_n_s32(v, 31)));
}

inline uint32x4_t
bitWidthDwords(uint32x4_t m)
{
    m = vorrq_u32(m, vshrq_n_u32(m, 1));
    m = vorrq_u32(m, vshrq_n_u32(m, 2));
    m = vorrq_u32(m, vshrq_n_u32(m, 4));
    m = vorrq_u32(m, vshrq_n_u32(m, 8));
    m = vorrq_u32(m, vshrq_n_u32(m, 16));
    return popcountDwords(m);
}

/** Narrow two regs of 4 dword counts (< 256) into 8 bytes. */
inline void
storeCounts8(std::uint8_t *dst, uint32x4_t lo, uint32x4_t hi)
{
    const uint16x8_t w =
        vcombine_u16(vmovn_u32(lo), vmovn_u32(hi));
    vst1_u8(dst, vmovn_u16(w));
}

inline std::uint8_t
nafWeight64Scalar(std::int32_t v)
{
    const auto w = static_cast<std::int64_t>(v);
    return static_cast<std::uint8_t>(
        std::popcount(static_cast<std::uint64_t>(w ^ (3 * w))));
}

void
neonBoothPlane16(const std::int16_t *src, std::uint8_t *dst,
                 std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t v16 = vld1q_s16(src + i);
        const int32x4_t lo = vmovl_s16(vget_low_s16(v16));
        const int32x4_t hi = vmovl_s16(vget_high_s16(v16));
        storeCounts8(
            dst + i,
            popcountDwords(vreinterpretq_u32_s32(nafXor(lo))),
            popcountDwords(vreinterpretq_u32_s32(nafXor(hi))));
    }
    for (; i < n; ++i) {
        const std::int32_t v = src[i];
        dst[i] = static_cast<std::uint8_t>(
            std::popcount(static_cast<std::uint32_t>(v ^ (3 * v))));
    }
}

void
neonBoothPlane32(const std::int32_t *src, std::uint8_t *dst,
                 std::size_t n)
{
    // Same 2^29 exactness bound as the x86 tables: a chunk with any
    // large folded magnitude falls back to 64-bit scalar.
    const uint32x4_t big = vdupq_n_u32(0x1FFFFFFF);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const int32x4_t v = vld1q_s32(src + i);
        if (vmaxvq_u32(vcgtq_u32(foldSign(v), big)) != 0) {
            for (std::size_t t = 0; t < 4; ++t)
                dst[i + t] = nafWeight64Scalar(src[i + t]);
            continue;
        }
        const uint32x4_t cnt =
            popcountDwords(vreinterpretq_u32_s32(nafXor(v)));
        const uint16x4_t w = vmovn_u32(cnt);
        const uint8x8_t b = vmovn_u16(vcombine_u16(w, w));
        const std::uint32_t packed =
            vget_lane_u32(vreinterpret_u32_u8(b), 0);
        std::memcpy(dst + i, &packed, 4);
    }
    for (; i < n; ++i)
        dst[i] = nafWeight64Scalar(src[i]);
}

void
neonBitsPlane16(const std::int16_t *src, std::uint8_t *dst,
                std::size_t n)
{
    const uint32x4_t one = vdupq_n_u32(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t v16 = vld1q_s16(src + i);
        const int32x4_t lo = vmovl_s16(vget_low_s16(v16));
        const int32x4_t hi = vmovl_s16(vget_high_s16(v16));
        storeCounts8(
            dst + i,
            vaddq_u32(bitWidthDwords(foldSign(lo)), one),
            vaddq_u32(bitWidthDwords(foldSign(hi)), one));
    }
    for (; i < n; ++i) {
        const std::int32_t v = src[i];
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(static_cast<std::uint32_t>(v ^ (v >> 31))) +
            1);
    }
}

void
neonBitsPlane32(const std::int32_t *src, std::uint8_t *dst,
                std::size_t n)
{
    const uint32x4_t one = vdupq_n_u32(1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const int32x4_t v = vld1q_s32(src + i);
        const uint32x4_t cnt =
            vaddq_u32(bitWidthDwords(foldSign(v)), one);
        const uint16x4_t w = vmovn_u32(cnt);
        const uint8x8_t b = vmovn_u16(vcombine_u16(w, w));
        const std::uint32_t packed =
            vget_lane_u32(vreinterpret_u32_u8(b), 0);
        std::memcpy(dst + i, &packed, 4);
    }
    for (; i < n; ++i) {
        const std::int32_t v = src[i];
        dst[i] = static_cast<std::uint8_t>(
            std::bit_width(static_cast<std::uint32_t>(v ^ (v >> 31))) +
            1);
    }
}

int
neonGroupBits16(const std::int16_t *group, std::size_t n)
{
    uint16x8_t acc = vdupq_n_u16(0);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t v = vld1q_s16(group + i);
        acc = vorrq_u16(
            acc, vreinterpretq_u16_s16(
                     veorq_s16(v, vshrq_n_s16(v, 15))));
    }
    std::uint16_t lanes[8];
    vst1q_u16(lanes, acc);
    std::uint32_t m = 0;
    for (std::uint16_t l : lanes)
        m |= l;
    for (; i < n; ++i) {
        const std::int32_t v = group[i];
        m |= static_cast<std::uint32_t>(v ^ (v >> 31));
    }
    return std::bit_width(m) + 1;
}

int
neonGroupBits32(const std::int32_t *group, std::size_t n)
{
    uint32x4_t acc = vdupq_n_u32(0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = vorrq_u32(acc, foldSign(vld1q_s32(group + i)));
    std::uint32_t lanes[4];
    vst1q_u32(lanes, acc);
    std::uint32_t m = lanes[0] | lanes[1] | lanes[2] | lanes[3];
    for (; i < n; ++i) {
        const std::int32_t v = group[i];
        m |= static_cast<std::uint32_t>(v ^ (v >> 31));
    }
    return std::bit_width(m) + 1;
}

int
neonDeltaBits16(const std::int16_t *prev, const std::int16_t *cur,
                std::int32_t *delta, std::size_t n)
{
    uint32x4_t acc = vdupq_n_u32(0);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t p = vld1q_s16(prev + i);
        const int16x8_t c = vld1q_s16(cur + i);
        const int32x4_t d0 =
            vsubl_s16(vget_low_s16(c), vget_low_s16(p));
        const int32x4_t d1 =
            vsubl_s16(vget_high_s16(c), vget_high_s16(p));
        vst1q_s32(delta + i, d0);
        vst1q_s32(delta + i + 4, d1);
        acc = vorrq_u32(acc, foldSign(d0));
        acc = vorrq_u32(acc, foldSign(d1));
    }
    std::uint32_t lanes[4];
    vst1q_u32(lanes, acc);
    std::uint32_t m = lanes[0] | lanes[1] | lanes[2] | lanes[3];
    for (; i < n; ++i) {
        const std::int32_t d = static_cast<std::int32_t>(cur[i]) -
                               static_cast<std::int32_t>(prev[i]);
        delta[i] = d;
        m |= static_cast<std::uint32_t>(d ^ (d >> 31));
    }
    return std::bit_width(m) + 1;
}

void
neonAddSat16(const std::int16_t *prev, const std::int32_t *delta,
             std::int16_t *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t p = vld1q_s16(prev + i);
        const int32x4_t s0 =
            vaddq_s32(vmovl_s16(vget_low_s16(p)),
                      vld1q_s32(delta + i));
        const int32x4_t s1 =
            vaddq_s32(vmovl_s16(vget_high_s16(p)),
                      vld1q_s32(delta + i + 4));
        // vqmovn saturates int32 -> int16: exactly saturate16().
        vst1q_s16(out + i,
                  vcombine_s16(vqmovn_s32(s0), vqmovn_s32(s1)));
    }
    for (; i < n; ++i) {
        const std::int32_t v =
            static_cast<std::int32_t>(prev[i]) + delta[i];
        out[i] = static_cast<std::int16_t>(
            v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
    }
}

std::int64_t
neonWalkSumMax(const std::uint8_t *base, std::size_t rowStride,
               std::size_t rows, int colStride, std::uint8_t *colMax,
               int cols)
{
    if (colStride != 1 || cols < 8)
        return scalarTable().walkSumMax(base, rowStride, rows,
                                        colStride, colMax, cols);
    std::int64_t total = 0;
    int j = 0;
    for (; j + 16 <= cols; j += 16) {
        uint8x16_t mx = vdupq_n_u8(0);
        uint32x4_t sums = vdupq_n_u32(0);
        for (std::size_t r = 0; r < rows; ++r) {
            const uint8x16_t v = vld1q_u8(base + r * rowStride + j);
            mx = vmaxq_u8(mx, v);
            sums = vpadalq_u16(sums, vpaddlq_u8(v));
        }
        vst1q_u8(colMax + j, mx);
        total += vaddvq_u32(sums);
    }
    if (j + 8 <= cols) {
        uint8x8_t mx = vdup_n_u8(0);
        uint32x2_t sums = vdup_n_u32(0);
        for (std::size_t r = 0; r < rows; ++r) {
            const uint8x8_t v = vld1_u8(base + r * rowStride + j);
            mx = vmax_u8(mx, v);
            sums = vpadal_u16(sums, vpaddl_u8(v));
        }
        vst1_u8(colMax + j, mx);
        total += vaddv_u32(sums);
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

void
neonHashStripes(const unsigned char *p, std::size_t stripes,
                std::uint32_t acc[8])
{
    const uint32x4_t c1 = vdupq_n_u32(0xCC9E2D51u);
    const uint32x4_t c2 = vdupq_n_u32(0x1B873593u);
    const uint32x4_t c3 = vdupq_n_u32(0xE6546B64u);
    uint32x4_t a0 = vld1q_u32(acc);
    uint32x4_t a1 = vld1q_u32(acc + 4);
    for (std::size_t s = 0; s < stripes; ++s) {
        for (int half = 0; half < 2; ++half) {
            uint32x4_t k = vreinterpretq_u32_u8(
                vld1q_u8(p + 32 * s + 16 * half));
            k = vmulq_u32(k, c1);
            k = vorrq_u32(vshlq_n_u32(k, 15), vshrq_n_u32(k, 17));
            k = vmulq_u32(k, c2);
            uint32x4_t &a = half == 0 ? a0 : a1;
            a = veorq_u32(a, k);
            a = vorrq_u32(vshlq_n_u32(a, 13), vshrq_n_u32(a, 19));
            a = vaddq_u32(
                vaddq_u32(a, vshlq_n_u32(a, 2)), c3);
        }
    }
    vst1q_u32(acc, a0);
    vst1q_u32(acc + 4, a1);
}

} // namespace

namespace detail
{

const KernelTable &
neonTable()
{
    static const KernelTable t = {
        Isa::Neon,        &neonBoothPlane16, &neonBoothPlane32,
        &neonBitsPlane16, &neonBitsPlane32,  &neonGroupBits16,
        &neonGroupBits32, &neonDeltaBits16,  &neonAddSat16,
        &neonWalkSumMax,  &neonHashStripes,
        &portableConvolveF32, &portableConvolveI32,
    };
    return t;
}

} // namespace detail

} // namespace diffy::simd

#endif // defined(__aarch64__)

#include "common/bitops.hh"

#include <bit>

#include "common/simd.hh"

namespace diffy
{

int
boothTerms(std::int64_t v)
{
    // Bit-parallel NAF weight: popcount(v ^ 3v). The identity needs
    // the two top bits of 3v to survive, so evaluate in 128 bits to
    // stay exact over the whole int64 domain (the hot callers only
    // ever pass 16/17-bit quantities, but the contract is int64).
    const auto w =
        static_cast<unsigned __int128>(static_cast<__int128>(v));
    const unsigned __int128 x = w ^ (3 * w);
    return std::popcount(static_cast<std::uint64_t>(x)) +
           std::popcount(static_cast<std::uint64_t>(x >> 64));
}

void
boothTermsPlane(const std::int16_t *src, std::uint8_t *dst, std::size_t n)
{
    // Batched kernels route through the runtime ISA dispatch table
    // (common/simd.hh); the scalar entries are the PR 3 reference
    // code, so every caller keeps byte-identical results under
    // DIFFY_ISA=scalar.
    simd::kernels().boothTermsPlane16(src, dst, n);
}

void
boothTermsPlane(const std::int32_t *src, std::uint8_t *dst, std::size_t n)
{
    simd::kernels().boothTermsPlane32(src, dst, n);
}

std::vector<int>
boothDecompose(std::int64_t v)
{
    std::vector<int> terms;
    int exponent = 0;
    while (v != 0) {
        if (v & 1) {
            // d in {+1, -1} chosen so that (v - d) is divisible by 4,
            // which guarantees non-adjacency of the produced digits.
            std::int64_t d = 2 - (v & 3);
            if (d > 0)
                terms.push_back(exponent);
            else
                terms.push_back(-(exponent + 1));
            v -= d;
        }
        v >>= 1;
        ++exponent;
    }
    return terms;
}

std::int64_t
boothReconstruct(const std::vector<int> &terms)
{
    std::int64_t v = 0;
    for (int t : terms) {
        if (t >= 0)
            v += std::int64_t{1} << t;
        else
            v -= std::int64_t{1} << (-t - 1);
    }
    return v;
}

int
onesTerms(std::int64_t v)
{
    const auto u = static_cast<std::uint64_t>(v);
    const std::uint64_t mag = v < 0 ? 0 - u : u;
    return std::popcount(mag);
}

int
bitsNeeded(std::int64_t v)
{
    // Width of the shortest two's complement representation. A
    // non-negative v needs bit_width(v) magnitude bits plus a sign
    // bit; a negative v fits in n bits iff v >= -2^(n-1), i.e. iff
    // bit_width(~v) < n. Both cases collapse to folding the sign.
    const auto m = static_cast<std::uint64_t>(v < 0 ? ~v : v);
    // bit_width returns the operand's unsigned type; the value is at
    // most 64, so the narrowing to int is exact.
    return static_cast<int>(std::bit_width(m)) + 1;
}

void
bitsNeededPlane(const std::int16_t *src, std::uint8_t *dst, std::size_t n)
{
    simd::kernels().bitsNeededPlane16(src, dst, n);
}

void
bitsNeededPlane(const std::int32_t *src, std::uint8_t *dst, std::size_t n)
{
    simd::kernels().bitsNeededPlane32(src, dst, n);
}

std::uint32_t
crc32c(const void *data, std::size_t bytes, std::uint32_t crc)
{
    return simd::kernels().crc32c(data, bytes, crc);
}

int
groupBitsNeeded(const std::int16_t *group, std::size_t n)
{
    return simd::kernels().groupBits16(group, n);
}

} // namespace diffy

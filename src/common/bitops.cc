#include "common/bitops.hh"

#include <bit>
#include <cstring>

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

std::uint64_t
contentHash64(const void *data, std::size_t bytes, std::uint64_t seed)
{
    // Murmur3-style mixing. This hashes every imap on every
    // pallet-walk and footprint memo lookup, so per-byte FNV-1a was a
    // measurable cost. Keys only in-memory caches: the value may
    // change across library versions (and between hosts of different
    // endianness) but is stable within a run and across runs on one
    // build — which is all the memo caches need.
    //
    // Bulk input (>= 32 bytes) runs through eight independent 32-bit
    // lane accumulators (Murmur3-x86 lane mix, vectorizable — the
    // dispatched hashStripes kernel) whose final state is folded into
    // the serial 8-byte mixer; shorter input takes the serial mixer
    // alone, so sub-32-byte hashes are unchanged from the pre-SIMD
    // implementation.
    const std::uint64_t c1 = 0x87C37B91114253D5ULL;
    const std::uint64_t c2 = 0x4CF5AD432745937FULL;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed ^ (static_cast<std::uint64_t>(bytes) * c1);

    auto mix8 = [&h, c1, c2](std::uint64_t k) {
        k *= c1;
        k = std::rotl(k, 31);
        k *= c2;
        h ^= k;
        h = std::rotl(h, 27);
        h = h * 5 + 0x52DCE729ULL;
    };

    std::size_t i = 0;
    const std::size_t stripes = bytes / 32;
    if (stripes > 0) {
        // Arbitrary odd constants diversify the lanes; the seed is
        // folded in so seeded hashes diverge in the bulk path too.
        std::uint32_t acc[8] = {0x9E3779B9u, 0x85EBCA6Bu, 0xC2B2AE35u,
                                0x27D4EB2Fu, 0x165667B1u, 0xD3A2646Cu,
                                0xFD7046C5u, 0xB55A4F09u};
        const auto s_lo = static_cast<std::uint32_t>(seed);
        const auto s_hi = static_cast<std::uint32_t>(seed >> 32);
        for (int l = 0; l < 8; ++l)
            acc[l] ^= (l & 1) != 0 ? s_hi : s_lo;
        simd::kernels().hashStripes(p, stripes, acc);
        for (int l = 0; l < 8; l += 2) {
            mix8(static_cast<std::uint64_t>(acc[l]) |
                 (static_cast<std::uint64_t>(acc[l + 1]) << 32));
        }
        i = stripes * 32;
    }
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t k;
        std::memcpy(&k, p + i, 8);
        mix8(k);
    }
    if (i < bytes) {
        std::uint64_t k = 0;
        for (std::size_t t = 0; i + t < bytes; ++t)
            k |= static_cast<std::uint64_t>(p[i + t]) << (8 * t);
        k *= c1;
        k = std::rotl(k, 31);
        k *= c2;
        h ^= k;
    }

    // fmix64 finalizer: full avalanche so the memo maps see
    // well-distributed buckets even for near-identical imaps.
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return h;
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

/**
 * @file
 * Unit and property tests for the Booth-term and bit-width utilities
 * that drive all term-serial timing models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/simd.hh"

namespace diffy
{
namespace
{

TEST(BoothTerms, ZeroHasNoTerms)
{
    EXPECT_EQ(boothTerms(0), 0);
}

TEST(BoothTerms, PowersOfTwoHaveOneTerm)
{
    for (int e = 0; e < 30; ++e) {
        EXPECT_EQ(boothTerms(std::int64_t{1} << e), 1) << "2^" << e;
        EXPECT_EQ(boothTerms(-(std::int64_t{1} << e)), 1) << "-2^" << e;
    }
}

TEST(BoothTerms, KnownSmallValues)
{
    // 3 = 4 - 1, 7 = 8 - 1, 5 = 4 + 1: two terms each.
    EXPECT_EQ(boothTerms(3), 2);
    EXPECT_EQ(boothTerms(5), 2);
    EXPECT_EQ(boothTerms(7), 2);
    // 0b0101 0101 = 85: NAF cannot merge isolated ones -> 4 terms.
    EXPECT_EQ(boothTerms(85), 4);
    // All-ones runs collapse: 0xFF = 256 - 1.
    EXPECT_EQ(boothTerms(0xFF), 2);
    EXPECT_EQ(boothTerms(0xFFFF), 2);
}

TEST(BoothTerms, SymmetricUnderNegation)
{
    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        auto v = static_cast<std::int64_t>(rng.below(1 << 16)) - (1 << 15);
        EXPECT_EQ(boothTerms(v), boothTerms(-v)) << v;
    }
}

TEST(BoothTerms, NeverMoreThanOnesTermsPlusOne)
{
    // NAF is minimal; it never exceeds the plain popcount, and the
    // popcount never exceeds NAF terms by more than ~2x.
    Rng rng(43);
    for (int i = 0; i < 2000; ++i) {
        auto v = static_cast<std::int64_t>(rng.below(1 << 16)) - (1 << 15);
        EXPECT_LE(boothTerms(v), onesTerms(v) + 1) << v;
    }
}

TEST(BoothTerms, BitParallelMatchesDecompositionExhaustivelyInt16)
{
    // The O(1) popcount(v ^ 3v) NAF identity must agree with the
    // digit-stripping decomposition over the entire int16 domain —
    // the domain every simulator call site draws from.
    for (int v = -32768; v <= 32767; ++v) {
        ASSERT_EQ(boothTerms(v),
                  static_cast<int>(boothDecompose(v).size()))
            << v;
    }
}

TEST(BoothTerms, BitParallelMatchesDecompositionAtWideMagnitudes)
{
    Rng rng(19);
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v =
            static_cast<std::int64_t>(rng.next()) >> (i % 40);
        EXPECT_EQ(boothTerms(v),
                  static_cast<int>(boothDecompose(v).size()))
            << v;
    }
    EXPECT_EQ(boothTerms(std::int64_t{1} << 62), 1);
    EXPECT_EQ(boothTerms(-(std::int64_t{1} << 62)), 1);
}

TEST(BoothTermsPlane, MatchesScalarOnRandomValues)
{
    Rng rng(21);
    std::vector<std::int16_t> src(1037); // odd length: exercises tails
    for (auto &v : src)
        v = static_cast<std::int16_t>(rng.below(65536) - 32768);
    src[0] = 0;
    src[1] = 32767;
    src[2] = -32768;
    std::vector<std::uint8_t> dst(src.size());
    boothTermsPlane(src.data(), dst.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
        ASSERT_EQ(dst[i], boothTerms(src[i])) << "i=" << i;
}

TEST(BoothTermsPlane, MatchesScalarOnCorrelatedDeltas)
{
    // int32 overload, fed the 17-bit deltas of a slowly varying
    // stream — exactly what computeTermTensors() stages per row.
    Rng rng(23);
    std::vector<std::int32_t> src;
    std::int32_t prev = 1000;
    for (int i = 0; i < 4000; ++i) {
        std::int32_t cur = std::max(
            0, std::min(32767,
                        prev + static_cast<std::int32_t>(rng.below(33)) -
                            16));
        src.push_back(cur - prev);
        prev = cur;
    }
    src.push_back(65535);
    src.push_back(-65535);
    std::vector<std::uint8_t> dst(src.size());
    boothTermsPlane(src.data(), dst.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
        ASSERT_EQ(dst[i], boothTerms(src[i])) << "i=" << i;
}

TEST(BitsNeededPlane, MatchesScalar)
{
    std::vector<std::int16_t> src16;
    for (int v = -2048; v <= 2048; ++v)
        src16.push_back(static_cast<std::int16_t>(v));
    src16.push_back(32767);
    src16.push_back(-32768);
    std::vector<std::uint8_t> dst(src16.size());
    bitsNeededPlane(src16.data(), dst.data(), src16.size());
    for (std::size_t i = 0; i < src16.size(); ++i)
        ASSERT_EQ(dst[i], bitsNeeded(src16[i])) << src16[i];

    std::vector<std::int32_t> src32 = {0,     1,      -1,    -65535,
                                       65535, -32768, 32767, 123456};
    dst.assign(src32.size(), 0);
    bitsNeededPlane(src32.data(), dst.data(), src32.size());
    for (std::size_t i = 0; i < src32.size(); ++i)
        ASSERT_EQ(dst[i], bitsNeeded(src32[i])) << src32[i];
}

TEST(BoothDecompose, RoundTripsRandomValues)
{
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        auto v = static_cast<std::int64_t>(rng.below(1 << 17)) - (1 << 16);
        auto terms = boothDecompose(v);
        EXPECT_EQ(boothReconstruct(terms), v);
        EXPECT_EQ(static_cast<int>(terms.size()), boothTerms(v));
    }
}

TEST(BoothDecompose, ProducesNonAdjacentDigits)
{
    Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        auto v = static_cast<std::int64_t>(rng.below(1 << 16)) - (1 << 15);
        auto terms = boothDecompose(v);
        std::vector<int> exponents;
        for (int t : terms)
            exponents.push_back(t >= 0 ? t : -t - 1);
        for (std::size_t j = 1; j < exponents.size(); ++j) {
            EXPECT_GE(std::abs(exponents[j] - exponents[j - 1]), 2)
                << "adjacent digits for " << v;
        }
    }
}

TEST(OnesTerms, CountsMagnitudeBits)
{
    EXPECT_EQ(onesTerms(0), 0);
    EXPECT_EQ(onesTerms(1), 1);
    EXPECT_EQ(onesTerms(-1), 1);
    EXPECT_EQ(onesTerms(0b1011), 3);
    EXPECT_EQ(onesTerms(-0b1011), 3);
}

TEST(BitsNeeded, MatchesTwoComplementBounds)
{
    EXPECT_EQ(bitsNeeded(0), 1);
    EXPECT_EQ(bitsNeeded(1), 2);   // 01
    EXPECT_EQ(bitsNeeded(-1), 1);  // 1
    EXPECT_EQ(bitsNeeded(-2), 2);  // 10
    EXPECT_EQ(bitsNeeded(3), 3);   // 011
    EXPECT_EQ(bitsNeeded(-4), 3);  // 100
    EXPECT_EQ(bitsNeeded(-5), 4);
    EXPECT_EQ(bitsNeeded(127), 8);
    EXPECT_EQ(bitsNeeded(-128), 8);
    EXPECT_EQ(bitsNeeded(128), 9);
    EXPECT_EQ(bitsNeeded(32767), 16);
    EXPECT_EQ(bitsNeeded(-32768), 16);
}

TEST(BitsNeeded, ValueRepresentableAtReportedWidth)
{
    Rng rng(11);
    for (int i = 0; i < 5000; ++i) {
        auto v = static_cast<std::int64_t>(rng.below(1 << 16)) - (1 << 15);
        int bits = bitsNeeded(v);
        ASSERT_GE(bits, 1);
        ASSERT_LE(bits, 16);
        // v must fit in `bits` and not in `bits - 1`.
        std::int64_t lo = -(std::int64_t{1} << (bits - 1));
        std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
        EXPECT_GE(v, lo);
        EXPECT_LE(v, hi);
        if (bits > 1) {
            std::int64_t lo2 = -(std::int64_t{1} << (bits - 2));
            std::int64_t hi2 = (std::int64_t{1} << (bits - 2)) - 1;
            EXPECT_TRUE(v < lo2 || v > hi2) << v << " fits " << bits - 1;
        }
    }
}

TEST(GroupBitsNeeded, TakesGroupMaximum)
{
    std::int16_t group[4] = {0, 3, -7, 1};
    EXPECT_EQ(groupBitsNeeded(group, 4), 4); // -7 needs 4 bits
    std::int16_t zeros[3] = {0, 0, 0};
    EXPECT_EQ(groupBitsNeeded(zeros, 3), 1);
    EXPECT_EQ(groupBitsNeeded(nullptr, 0), 1);
}

/** Property sweep: term counts of deltas of correlated sequences. */
class BoothDeltaProperty : public ::testing::TestWithParam<int>
{};

TEST_P(BoothDeltaProperty, CorrelatedStreamsHaveCheaperDeltas)
{
    // A slowly varying sequence must have fewer delta terms than raw
    // terms in aggregate — the paper's core premise, stated on the
    // recoding itself.
    const int step_bound = GetParam();
    Rng rng(100 + step_bound);
    std::int32_t prev = 1000;
    std::int64_t raw_terms = 0;
    std::int64_t delta_terms = 0;
    for (int i = 0; i < 4000; ++i) {
        std::int32_t cur =
            prev + static_cast<std::int32_t>(rng.below(2 * step_bound + 1))
            - step_bound;
        cur = std::max(0, std::min(32767, cur));
        raw_terms += boothTerms(cur);
        delta_terms += boothTerms(cur - prev);
        prev = cur;
    }
    EXPECT_LT(delta_terms, raw_terms) << "step bound " << step_bound;
}

INSTANTIATE_TEST_SUITE_P(StepBounds, BoothDeltaProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(SimdDispatch, ScalarTableAlwaysAvailable)
{
    const auto isas = simd::availableIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), simd::Isa::Scalar);
    const simd::KernelTable *scalar = simd::table(simd::Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    EXPECT_EQ(scalar, &simd::scalarTable());
    EXPECT_EQ(scalar->isa, simd::Isa::Scalar);
}

TEST(SimdDispatch, IsaNamesRoundTrip)
{
    for (simd::Isa isa :
         {simd::Isa::Scalar, simd::Isa::Sse4, simd::Isa::Avx2}) {
        simd::Isa parsed;
        ASSERT_TRUE(simd::parseIsa(simd::isaName(isa), parsed))
            << simd::isaName(isa);
        EXPECT_EQ(parsed, isa);
    }
    simd::Isa ignored;
    EXPECT_FALSE(simd::parseIsa("mmx", ignored));
    EXPECT_FALSE(simd::parseIsa("", ignored));
}

TEST(SimdDispatch, DispatchedTableIsAvailableAndConsistent)
{
    const auto isas = simd::availableIsas();
    EXPECT_EQ(simd::kernels().isa, simd::activeIsa());
    EXPECT_NE(std::find(isas.begin(), isas.end(), simd::activeIsa()),
              isas.end());
    EXPECT_NE(std::find(isas.begin(), isas.end(), simd::bestIsa()),
              isas.end());
    // Every available table exposes a complete kernel set.
    for (simd::Isa isa : isas) {
        const simd::KernelTable *t = simd::table(isa);
        ASSERT_NE(t, nullptr) << simd::isaName(isa);
        EXPECT_EQ(t->isa, isa);
        EXPECT_NE(t->boothTermsPlane16, nullptr);
        EXPECT_NE(t->boothTermsPlane32, nullptr);
        EXPECT_NE(t->bitsNeededPlane16, nullptr);
        EXPECT_NE(t->bitsNeededPlane32, nullptr);
        EXPECT_NE(t->groupBits16, nullptr);
        EXPECT_NE(t->groupBits32, nullptr);
        EXPECT_NE(t->deltaBits16, nullptr);
        EXPECT_NE(t->addSat16, nullptr);
        EXPECT_NE(t->walkSumMax, nullptr);
        EXPECT_NE(t->crc32c, nullptr);
    }
}

/**
 * Differential fuzz: every compiled-in vector table must match the
 * scalar oracle element-exactly on every kernel, across the widths
 * that exercise full chunks, partial chunks and scalar tails. The
 * suite is parameterized over availableIsas(), so on an AVX2 host it
 * checks SSE4 and AVX2 against scalar; under ASan/TSan the same tests
 * double as an out-of-bounds probe for the chunked loads.
 */
class SimdKernelOracle : public ::testing::TestWithParam<simd::Isa>
{
  protected:
    const simd::KernelTable &vec() { return *simd::table(GetParam()); }
    const simd::KernelTable &ref() { return simd::scalarTable(); }

    /** Widths around every chunk boundary plus a bulk width. */
    static std::vector<std::size_t>
    fuzzWidths()
    {
        std::vector<std::size_t> w;
        for (std::size_t n = 0; n <= 33; ++n)
            w.push_back(n);
        w.push_back(1037);
        return w;
    }

    static std::vector<std::int16_t>
    randomI16(Rng &rng, std::size_t n)
    {
        std::vector<std::int16_t> v(n);
        for (auto &x : v)
            x = static_cast<std::int16_t>(rng.below(65536) - 32768);
        // Plant the domain extremes where any width sees them.
        const std::int16_t edge[] = {0, 1, -1, 32767, -32768};
        for (std::size_t i = 0; i < n && i < 5; ++i)
            v[i] = edge[i];
        return v;
    }

    static std::vector<std::int32_t>
    randomI32(Rng &rng, std::size_t n)
    {
        std::vector<std::int32_t> v(n);
        for (auto &x : v) {
            // Mix the codec-range deltas the call sites produce with
            // full-domain values that force the 64-bit NAF fallback
            // (sign-folded magnitude >= 2^29).
            const std::uint64_t r = rng.next();
            if ((r & 3) == 0)
                x = static_cast<std::int32_t>(r);
            else
                x = static_cast<std::int32_t>(r % 262144) - 131072;
        }
        const std::int32_t edge[] = {0,
                                     std::numeric_limits<std::int32_t>::max(),
                                     std::numeric_limits<std::int32_t>::min(),
                                     (1 << 29) - 1,
                                     (1 << 29),
                                     -(1 << 29) - 1,
                                     65535,
                                     -65535};
        for (std::size_t i = 0; i < n && i < 8; ++i)
            v[i] = edge[i];
        return v;
    }
};

TEST_P(SimdKernelOracle, BoothAndBitsPlanesMatchScalar)
{
    Rng rng(301);
    for (std::size_t n : fuzzWidths()) {
        const auto s16 = randomI16(rng, n);
        const auto s32 = randomI32(rng, n);
        std::vector<std::uint8_t> got(n + 1, 0xAB), want(n + 1, 0xAB);
        vec().boothTermsPlane16(s16.data(), got.data(), n);
        ref().boothTermsPlane16(s16.data(), want.data(), n);
        ASSERT_EQ(got, want) << "boothTermsPlane16 n=" << n;
        vec().boothTermsPlane32(s32.data(), got.data(), n);
        ref().boothTermsPlane32(s32.data(), want.data(), n);
        ASSERT_EQ(got, want) << "boothTermsPlane32 n=" << n;
        vec().bitsNeededPlane16(s16.data(), got.data(), n);
        ref().bitsNeededPlane16(s16.data(), want.data(), n);
        ASSERT_EQ(got, want) << "bitsNeededPlane16 n=" << n;
        vec().bitsNeededPlane32(s32.data(), got.data(), n);
        ref().bitsNeededPlane32(s32.data(), want.data(), n);
        ASSERT_EQ(got, want) << "bitsNeededPlane32 n=" << n;
    }
}

TEST_P(SimdKernelOracle, GroupReductionsMatchScalar)
{
    Rng rng(302);
    for (std::size_t n : fuzzWidths()) {
        const auto s16 = randomI16(rng, n);
        const auto s32 = randomI32(rng, n);
        ASSERT_EQ(vec().groupBits16(s16.data(), n),
                  ref().groupBits16(s16.data(), n))
            << "n=" << n;
        ASSERT_EQ(vec().groupBits32(s32.data(), n),
                  ref().groupBits32(s32.data(), n))
            << "n=" << n;
    }
}

TEST_P(SimdKernelOracle, TemporalDeltaKernelsMatchScalar)
{
    Rng rng(303);
    for (std::size_t n : fuzzWidths()) {
        const auto prev = randomI16(rng, n);
        const auto cur = randomI16(rng, n);
        std::vector<std::int32_t> dgot(n + 1, -7), dwant(n + 1, -7);
        const int bgot = vec().deltaBits16(prev.data(), cur.data(),
                                           dgot.data(), n);
        const int bwant = ref().deltaBits16(prev.data(), cur.data(),
                                            dwant.data(), n);
        ASSERT_EQ(bgot, bwant) << "deltaBits16 n=" << n;
        ASSERT_EQ(dgot, dwant) << "deltaBits16 n=" << n;

        // addSat16 under its 18-signed-bit delta contract, including
        // deltas that saturate the int16 output in both directions.
        std::vector<std::int32_t> deltas(n);
        for (auto &d : deltas)
            d = static_cast<std::int32_t>(rng.below(262144)) - 131072;
        if (n > 1) {
            deltas[0] = 131071;
            deltas[n - 1] = -131072;
        }
        std::vector<std::int16_t> ogot(n + 1, 99), owant(n + 1, 99);
        vec().addSat16(prev.data(), deltas.data(), ogot.data(), n);
        ref().addSat16(prev.data(), deltas.data(), owant.data(), n);
        ASSERT_EQ(ogot, owant) << "addSat16 n=" << n;
    }
}

TEST_P(SimdKernelOracle, WalkSumMaxMatchesScalar)
{
    Rng rng(304);
    for (std::size_t rows : {std::size_t{1}, std::size_t{2},
                             std::size_t{7}, std::size_t{16},
                             std::size_t{17}}) {
        for (int cols = 0; cols <= 33; ++cols) {
            for (int stride = 1; stride <= 3; ++stride) {
                // Row stride leaves a gap after the last column so
                // in-row overreads would still be inside the buffer
                // but corrupt the checksum; ASan runs catch true
                // out-of-buffer reads at the final row's tail.
                const std::size_t row_stride =
                    static_cast<std::size_t>(cols) * stride + 5;
                std::vector<std::uint8_t> base(
                    rows * row_stride + 1, 0);
                base.resize(
                    (rows - 1) * row_stride +
                    static_cast<std::size_t>(cols ? (cols - 1) * stride
                                                  : 0) + 1);
                for (auto &b : base)
                    b = static_cast<std::uint8_t>(rng.below(34));
                std::vector<std::uint8_t> mgot(cols + 1, 0xCD);
                std::vector<std::uint8_t> mwant(cols + 1, 0xCD);
                const std::int64_t sgot =
                    vec().walkSumMax(base.data(), row_stride, rows,
                                     stride, mgot.data(), cols);
                const std::int64_t swant =
                    ref().walkSumMax(base.data(), row_stride, rows,
                                     stride, mwant.data(), cols);
                ASSERT_EQ(sgot, swant) << "rows=" << rows
                                       << " cols=" << cols
                                       << " stride=" << stride;
                ASSERT_EQ(mgot, mwant) << "rows=" << rows
                                       << " cols=" << cols
                                       << " stride=" << stride;
            }
        }
    }
}

TEST_P(SimdKernelOracle, Crc32cMatchesScalar)
{
    // 1 MiB + 3 random bytes plus 7 of slack, so every length of 0..4096
    // can start at each of the offsets 0..7 that put the word loads at
    // every alignment.
    constexpr std::size_t kBig = (std::size_t{1} << 20) + 3;
    Rng rng(311);
    std::vector<unsigned char> buf(kBig + 7);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.below(256));
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t n = 0; n <= 4096; ++n) {
            const std::uint32_t seed = static_cast<std::uint32_t>(n * off);
            ASSERT_EQ(vec().crc32c(buf.data() + off, n, seed),
                      ref().crc32c(buf.data() + off, n, seed))
                << "off=" << off << " n=" << n;
        }
        EXPECT_EQ(vec().crc32c(buf.data() + off, kBig, 0),
                  ref().crc32c(buf.data() + off, kBig, 0))
            << "off=" << off;
    }

    // Chaining over any split equals the one-shot value.
    const std::uint32_t whole = vec().crc32c(buf.data(), kBig, 0);
    for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                            kBig / 2, kBig - 5, kBig}) {
        const std::uint32_t head = vec().crc32c(buf.data(), cut, 0);
        EXPECT_EQ(vec().crc32c(buf.data() + cut, kBig - cut, head), whole)
            << "cut=" << cut;
    }

    // A single flipped bit anywhere changes the value.
    for (std::size_t at : {std::size_t{0}, std::size_t{7}, kBig / 3,
                           kBig - 1}) {
        buf[at] ^= 0x10;
        EXPECT_NE(vec().crc32c(buf.data(), kBig, 0), whole) << "at=" << at;
        buf[at] ^= 0x10;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableIsas, SimdKernelOracle,
    ::testing::ValuesIn(simd::availableIsas()),
    [](const ::testing::TestParamInfo<simd::Isa> &isa_info) {
        return std::string(simd::isaName(isa_info.param));
    });

} // namespace
} // namespace diffy

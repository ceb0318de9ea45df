/**
 * @file
 * Oracle fuzz for the size-only codec path: encodedBits() must equal
 * the bit count of the stream encode() builds, for every scheme and
 * group size, on the degenerate geometries and value extremes, and
 * under every compiled-in kernel table. encode() is the bit-serial
 * reference; the footprint, traffic and AM-sizing models (and the
 * temporal serving counters) only ever ask for encodedBits().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "encode/schemes.hh"
#include "encode/temporal.hh"

namespace diffy
{
namespace
{

/** Every codec configuration the size path must reproduce. */
std::vector<std::unique_ptr<ActivationCodec>>
allCodecs()
{
    std::vector<std::unique_ptr<ActivationCodec>> codecs;
    codecs.push_back(makeNoCompressionCodec());
    codecs.push_back(makeRlezCodec());
    codecs.push_back(makeRleCodec());
    for (int p = 1; p <= 16; ++p)
        codecs.push_back(makeProfiledCodec(p));
    for (int g = 1; g <= 33; ++g) {
        codecs.push_back(makeRawDCodec(g));
        for (int k : {0, 1, 5, 16})
            codecs.push_back(makeDeltaDCodec(g, k));
    }
    return codecs;
}

TensorI16
filled(int c, int h, int w, std::int16_t v)
{
    return TensorI16(c, h, w, v);
}

TensorI16
uniformRandom(std::uint64_t seed, int c, int h, int w)
{
    Rng rng(seed);
    TensorI16 t(c, h, w);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<std::int16_t>(
            static_cast<std::int32_t>(rng.below(65536)) - 32768);
    return t;
}

/**
 * Runs of random length (1..40) of zeros, small values and repeats:
 * exercises RLEz's >15 zero continuations and trailing run, RLE's
 * 16-entry cap, and the narrow DeltaD/RawD groups.
 */
TensorI16
runsTensor(std::uint64_t seed, int c, int h, int w)
{
    Rng rng(seed);
    TensorI16 t(c, h, w);
    std::size_t i = 0;
    while (i < t.size()) {
        const std::size_t run = 1 + rng.below(40);
        const auto v = rng.uniform() < 0.5
                           ? std::int16_t{0}
                           : static_cast<std::int16_t>(
                                 static_cast<std::int32_t>(rng.below(600)) -
                                 300);
        for (std::size_t k = 0; k < run && i < t.size(); ++k)
            t.data()[i++] = v;
    }
    return t;
}

/** Alternating int16 extremes: every delta needs all 17 bits. */
TensorI16
extremes(int c, int h, int w)
{
    TensorI16 t(c, h, w);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = (i % 2 == 0) ? std::int16_t{32767}
                                   : std::int16_t{-32768};
    return t;
}

std::vector<TensorI16>
oracleTensors()
{
    return {
        TensorI16(0, 3, 5),          // empty (no channels)
        TensorI16(2, 3, 0),          // empty (zero width)
        uniformRandom(1, 1, 1, 1),   // single value
        uniformRandom(2, 3, 7, 1),   // width 1: every value an anchor
        filled(2, 5, 17, 0),         // all zero
        filled(2, 5, 17, 1234),      // all equal
        filled(1, 4, 9, -32768),     // all equal at the int16 minimum
        extremes(2, 3, 19),
        uniformRandom(3, 3, 5, 23),
        runsTensor(4, 3, 6, 29),
        runsTensor(5, 1, 1, 257),
    };
}

std::string
shapeName(const TensorI16 &t)
{
    return std::to_string(t.channels()) + "x" + std::to_string(t.height()) +
           "x" + std::to_string(t.width());
}

/**
 * Size model built from one kernel table's group reductions: per
 * group of g fields, a @p header_bits header plus len x the group's
 * max bitsNeeded (groupBits32 over the int32 field stream).
 */
std::size_t
groupedBits(const simd::KernelTable &kt, const std::vector<std::int32_t> &s,
            std::size_t g, std::size_t header_bits)
{
    std::size_t total = 0;
    for (std::size_t start = 0; start < s.size(); start += g) {
        const std::size_t len = std::min(g, s.size() - start);
        total += header_bits +
                 len * static_cast<std::size_t>(
                           kt.groupBits32(s.data() + start, len));
    }
    return total;
}

/** DeltaD's field stream, written out independently of the codec. */
std::vector<std::int32_t>
deltaFields(const TensorI16 &t, int reanchor)
{
    std::vector<std::int32_t> s;
    for (int c = 0; c < t.channels(); ++c)
        for (int y = 0; y < t.height(); ++y)
            for (int x = 0; x < t.width(); ++x) {
                const bool anchor =
                    x == 0 || (reanchor > 0 && x % reanchor == 0);
                s.push_back(anchor ? t.at(c, y, x)
                                   : t.at(c, y, x) - t.at(c, y, x - 1));
            }
    return s;
}

/** Parameterized over every kernel table available on this host. */
class EncodedBitsOracle : public ::testing::TestWithParam<simd::Isa>
{
  protected:
    const simd::KernelTable &table() { return *simd::table(GetParam()); }
};

TEST_P(EncodedBitsOracle, MatchesEncodeForEverySchemeAndGeometry)
{
    const auto codecs = allCodecs();
    for (const TensorI16 &t : oracleTensors()) {
        for (const auto &codec : codecs) {
            const std::size_t bits = codec->encodedBits(t);
            ASSERT_EQ(bits, codec->encode(t).bits)
                << codec->name() << " on " << shapeName(t);
            const double bpv = t.empty() ? 0.0
                                         : static_cast<double>(bits) /
                                               static_cast<double>(t.size());
            ASSERT_EQ(codec->bitsPerValue(t), bpv) << codec->name();
        }
    }
}

TEST_P(EncodedBitsOracle, GroupSizesMatchThisTablesReductions)
{
    // The codecs size groups with the dispatched table; every other
    // available table must reach the same totals.
    const simd::KernelTable &kt = table();
    for (const TensorI16 &t : oracleTensors()) {
        const std::vector<std::int32_t> raw(t.data(), t.data() + t.size());
        for (int g = 1; g <= 33; ++g) {
            const auto group = static_cast<std::size_t>(g);
            ASSERT_EQ(makeRawDCodec(g)->encodedBits(t),
                      groupedBits(kt, raw, group, 4))
                << "RawD" << g << " on " << shapeName(t);
            for (int k : {0, 1, 5, 16})
                ASSERT_EQ(makeDeltaDCodec(g, k)->encodedBits(t),
                          groupedBits(kt, deltaFields(t, k), group, 5))
                    << "DeltaD" << g << ".A" << k << " on " << shapeName(t);
        }
    }
}

/** Frame pairs for the temporal oracle, (prev, cur) of equal shape. */
std::vector<std::pair<TensorI16, TensorI16>>
temporalPairs()
{
    std::vector<std::pair<TensorI16, TensorI16>> pairs;
    pairs.emplace_back(TensorI16(0, 4, 4), TensorI16(0, 4, 4));
    pairs.emplace_back(uniformRandom(6, 2, 3, 1), uniformRandom(7, 2, 3, 1));
    pairs.emplace_back(runsTensor(8, 2, 5, 17), runsTensor(8, 2, 5, 17));
    pairs.emplace_back(filled(2, 3, 19, 32767), filled(2, 3, 19, -32768));
    pairs.emplace_back(extremes(2, 3, 19), filled(2, 3, 19, 0));
    pairs.emplace_back(uniformRandom(9, 3, 5, 23),
                       uniformRandom(10, 3, 5, 23));
    TensorI16 prev = runsTensor(11, 3, 6, 29);
    TensorI16 cur = prev;
    Rng rng(12);
    for (std::size_t i = 0; i < cur.size(); i += 1 + rng.below(9))
        cur.data()[i] = static_cast<std::int16_t>(
            cur.data()[i] + static_cast<std::int32_t>(rng.below(64)) - 32);
    pairs.emplace_back(std::move(prev), std::move(cur));
    return pairs;
}

TEST_P(EncodedBitsOracle, TemporalMatchesEncodeAndThisTable)
{
    const simd::KernelTable &kt = table();
    for (const auto &[prev, cur] : temporalPairs()) {
        std::vector<std::int32_t> deltas(cur.size());
        for (std::size_t i = 0; i < cur.size(); ++i)
            deltas[i] = static_cast<std::int32_t>(cur.data()[i]) -
                        prev.data()[i];
        for (int g = 1; g <= 33; ++g) {
            const TemporalCodec codec(g);
            const std::size_t bits = codec.encodedBits(prev, cur);
            ASSERT_EQ(bits, codec.encode(prev, cur).bits)
                << codec.name() << " on " << shapeName(cur);
            ASSERT_EQ(bits, groupedBits(kt, deltas,
                                        static_cast<std::size_t>(g), 5))
                << codec.name() << " on " << shapeName(cur);
        }
    }
}

TEST(EncodedBits, TemporalRejectsShapeMismatch)
{
    const TemporalCodec codec(16);
    EXPECT_THROW(codec.encodedBits(TensorI16(1, 2, 3), TensorI16(1, 3, 2)),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AvailableIsas, EncodedBitsOracle,
    ::testing::ValuesIn(simd::availableIsas()),
    [](const ::testing::TestParamInfo<simd::Isa> &isa_info) {
        return std::string(simd::isaName(isa_info.param));
    });

} // namespace
} // namespace diffy

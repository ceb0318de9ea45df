/**
 * @file
 * Tests for the temporal-delta codec (encode/temporal.hh) and the
 * temporal inference mode (core/temporal.hh).
 *
 * The load-bearing claims pinned here:
 *  - the codec round-trips any int16 frame pair losslessly and fails
 *    *cleanly* on hostile streams (shape mismatch, over-wide headers,
 *    truncation);
 *  - o_{t-1} + conv(Δa_t) is bit-identical to conv(a_t) for every
 *    stride/dilation studied — the algebraic foundation of the
 *    serving path;
 *  - a 16-frame sequence served through temporalStep() reconstructs
 *    every layer's omap byte-identically to the per-frame reference
 *    oracle, including across dropped frames and re-anchor points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "core/differential_conv.hh"
#include "core/temporal.hh"
#include "encode/bitstream.hh"
#include "encode/temporal.hh"
#include "image/sequence.hh"
#include "nn/executor.hh"
#include "nn/models.hh"

namespace diffy
{
namespace
{

TensorI16
randomTensor(Rng &rng, int c, int h, int w, int range)
{
    TensorI16 t(c, h, w);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<std::int16_t>(
            static_cast<std::int64_t>(
                rng.below(2 * static_cast<std::uint64_t>(range) + 1)) -
            range);
    return t;
}

FilterBankI16
randomBank(Rng &rng, int k, int c, int kernel, int range)
{
    FilterBankI16 bank(k, c, kernel, kernel);
    for (std::size_t i = 0; i < bank.size(); ++i)
        bank.data()[i] = static_cast<std::int16_t>(
            static_cast<std::int64_t>(
                rng.below(2 * static_cast<std::uint64_t>(range) + 1)) -
            range);
    return bank;
}

TEST(TemporalCodec, RoundTripsArbitraryFramePairs)
{
    Rng rng(0xC0DEC);
    TemporalCodec codec(16);
    for (int trial = 0; trial < 5; ++trial) {
        TensorI16 prev = randomTensor(rng, 3, 9, 13, 30000);
        TensorI16 cur = randomTensor(rng, 3, 9, 13, 30000);
        EncodedTensor enc = codec.encode(prev, cur);
        EXPECT_EQ(codec.decode(prev, enc), cur);
    }
}

TEST(TemporalCodec, StreamMatchesScalarOracleAcrossGroupSizes)
{
    // Group sizes 1..33 cross every chunk boundary of the dispatched
    // deltaBits16 kernel (common/simd.hh). The emitted stream must
    // match a parse built purely from the scalar bitsNeeded(): per
    // group a 5-bit header holding max bitsNeeded over cur - prev,
    // then that many bits per delta.
    Rng rng(0x0AC1E);
    TensorI16 prev = randomTensor(rng, 2, 7, 11, 32768);
    TensorI16 cur = randomTensor(rng, 2, 7, 11, 32768);
    for (int g = 1; g <= 33; ++g) {
        TemporalCodec codec(g);
        EncodedTensor enc = codec.encode(prev, cur);
        ASSERT_EQ(codec.decode(prev, enc), cur) << codec.name();
        BitReader br(enc.bytes);
        const std::size_t n = cur.size();
        const auto group = static_cast<std::size_t>(g);
        std::size_t hidx = 0;
        for (std::size_t start = 0; start < n; start += group) {
            const std::size_t len = std::min(group, n - start);
            int want_bits = 1;
            for (std::size_t i = 0; i < len; ++i) {
                const std::int32_t d =
                    static_cast<std::int32_t>(cur.data()[start + i]) -
                    prev.data()[start + i];
                want_bits = std::max(want_bits, bitsNeeded(d));
            }
            ASSERT_LT(hidx, enc.headerBits.size()) << codec.name();
            ASSERT_EQ(enc.headerBits[hidx].first, br.bitPosition())
                << codec.name();
            // diffy-lint: allow(R4): scalar format oracle parses raw bits
            const int bits = static_cast<int>(br.read(5)) + 1;
            ASSERT_EQ(bits, want_bits)
                << codec.name() << " group at " << start;
            for (std::size_t i = 0; i < len; ++i) {
                const std::int32_t d =
                    static_cast<std::int32_t>(cur.data()[start + i]) -
                    prev.data()[start + i];
                // diffy-lint: allow(R4): scalar format oracle parses raw bits
                ASSERT_EQ(br.readSigned(bits), d)
                    << codec.name() << " field " << start + i;
            }
            ++hidx;
        }
        EXPECT_EQ(hidx, enc.headerBits.size()) << codec.name();
        EXPECT_EQ(br.bitPosition(), enc.bits) << codec.name();
    }
}

TEST(TemporalCodec, SimilarFramesCompressBelowRaw)
{
    Rng rng(0x51);
    TensorI16 prev = randomTensor(rng, 2, 16, 16, 2000);
    TensorI16 cur = prev;
    // Nudge a tenth of the values by small steps — a typical
    // inter-frame innovation.
    for (std::size_t i = 0; i < cur.size(); i += 10)
        cur.data()[i] = static_cast<std::int16_t>(cur.data()[i] + 3);
    TemporalCodec codec(16);
    EXPECT_LT(codec.bitsPerValue(prev, cur), 6.0);
    EXPECT_EQ(codec.decode(prev, codec.encode(prev, cur)), cur);
}

TEST(TemporalCodec, EncodeRejectsShapeMismatch)
{
    TemporalCodec codec(16);
    TensorI16 a(2, 4, 4), b(2, 4, 5);
    EXPECT_THROW(codec.encode(a, b), std::invalid_argument);
}

TEST(TemporalCodec, DecodeRejectsForeignShape)
{
    Rng rng(0x7);
    TemporalCodec codec(16);
    TensorI16 prev = randomTensor(rng, 2, 6, 6, 100);
    TensorI16 cur = randomTensor(rng, 2, 6, 6, 100);
    EncodedTensor enc = codec.encode(prev, cur);
    TensorI16 other(2, 6, 7);
    DecodeResult r = codec.tryDecode(other, enc);
    EXPECT_EQ(r.status, DecodeStatus::BadShape);
    EXPECT_THROW(codec.decode(other, enc), DecodeError);
}

TEST(TemporalCodec, DecodeRejectsOverWideHeader)
{
    TemporalCodec codec(16);
    TensorI16 prev(1, 2, 8);
    // A 5-bit header can declare up to 32-bit fields; 17 is the legal
    // max for int16 frame deltas.
    EncodedTensor enc;
    enc.shape = prev.shape();
    enc.bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
    enc.bits = 64;
    DecodeResult r = codec.tryDecode(prev, enc);
    EXPECT_EQ(r.status, DecodeStatus::BadHeader);
}

TEST(TemporalCodec, DecodeReportsTruncation)
{
    Rng rng(0x9);
    TemporalCodec codec(16);
    TensorI16 prev = randomTensor(rng, 2, 8, 8, 3000);
    TensorI16 cur = randomTensor(rng, 2, 8, 8, 3000);
    EncodedTensor enc = codec.encode(prev, cur);
    enc.bytes.resize(enc.bytes.size() / 2);
    DecodeResult r = codec.tryDecode(prev, enc);
    EXPECT_EQ(r.status, DecodeStatus::Truncated);
    EXPECT_LT(r.valuesDecoded, cur.size());
}

TEST(TemporalConv, DeltaPathMatchesDirectForAllGeometries)
{
    Rng rng(0xDE17A);
    for (int stride : {1, 2}) {
        for (int dilation : {1, 2}) {
            TensorI16 prev = randomTensor(rng, 3, 11, 13, 400);
            TensorI16 cur = randomTensor(rng, 3, 11, 13, 400);
            FilterBankI16 bank = randomBank(rng, 4, 3, 3, 200);
            TensorI32 oPrev = convolveDirect(prev, bank, stride, dilation);
            TensorI32 oCur = convolveDirect(cur, bank, stride, dilation);
            TensorI32 dOut = convolveTemporalDelta(
                temporalDelta(prev, cur), bank, stride, dilation);
            ASSERT_EQ(dOut.shape(), oCur.shape());
            TensorI32 recon(oCur.shape());
            for (std::size_t i = 0; i < recon.size(); ++i)
                recon.data()[i] = oPrev.data()[i] + dOut.data()[i];
            // Linearity makes the temporal path *algebraically* exact:
            // bit-identity, not approximation.
            EXPECT_EQ(recon, oCur)
                << "stride " << stride << " dilation " << dilation;
        }
    }
}

TEST(TemporalConv, MaximalDeltasStayExact)
{
    // Worst case: prev at -32768, cur at +32767 — 17-bit deltas.
    TensorI16 prev(1, 5, 5, -32768);
    TensorI16 cur(1, 5, 5, 32767);
    FilterBankI16 bank(1, 1, 3, 3, 1);
    TensorI32 oPrev = convolveDirect(prev, bank, 1, 1);
    TensorI32 oCur = convolveDirect(cur, bank, 1, 1);
    TensorI32 dOut =
        convolveTemporalDelta(temporalDelta(prev, cur), bank, 1, 1);
    for (std::size_t i = 0; i < oCur.size(); ++i)
        EXPECT_EQ(oPrev.data()[i] + dOut.data()[i], oCur.data()[i]);
}

/** Serve @p frames of a MicroServe stream through temporalStep and
 *  require byte-identity against the per-frame oracle at every step.
 *  Returns the total anchored-layer count. */
int
runOracleCheckedSequence(const std::vector<int> &frames,
                         int reanchorInterval)
{
    SequenceParams sp;
    sp.scene.kind = SceneKind::Nature;
    sp.scene.width = 24;
    sp.scene.height = 24;
    sp.scene.seed = 77;
    sp.motion = MotionKind::Pan;
    sp.amplitude = 4;
    FrameSequence seq(sp);
    NetworkSpec net = makeNetwork("MicroServe");
    ExecutorOptions exec;

    TemporalNetState state;
    TemporalOptions topts;
    topts.reanchorInterval = reanchorInterval;
    topts.verifyAgainstOracle = true; // throws on any divergence
    int anchored = 0;
    for (int t : frames) {
        NetworkTrace trace = runNetwork(net, seq.frame(t), exec);
        TemporalFrameStats stats = temporalStep(state, trace, t, topts);
        anchored += stats.anchored;
        EXPECT_TRUE(stats.exact);
        // Belt and braces: re-derive the oracle omaps and compare the
        // stored state bit-for-bit (verifyAgainstOracle already did,
        // but this pins the *state*, not just the step).
        for (std::size_t li = 0; li < trace.layers.size(); ++li) {
            const LayerTrace &lt = trace.layers[li];
            TensorI32 oracle = convolveDirect(
                lt.imap, lt.weights, lt.spec.stride, lt.spec.dilation);
            EXPECT_EQ(state.layers[li].prevOmap, oracle)
                << "frame " << t << " layer " << li;
        }
    }
    return anchored;
}

TEST(TemporalStep, SixteenFrameSequenceMatchesOracleByteForByte)
{
    std::vector<int> frames;
    for (int t = 0; t < 16; ++t)
        frames.push_back(t);
    const int layerCount = 3; // MicroServe depth
    // K = 8: anchors at frames 0 and 8 only.
    const int anchored = runOracleCheckedSequence(frames, 8);
    EXPECT_EQ(anchored, 2 * layerCount);
}

TEST(TemporalStep, OracleChecksAnchorOnlyStreams)
{
    // K = 1: every layer of every frame anchors, so every step runs
    // the anchor kernel under the per-frame oracle.
    const std::vector<int> frames = {0, 1, 2, 3, 4, 5};
    const int layerCount = 3; // MicroServe depth
    EXPECT_EQ(runOracleCheckedSequence(frames, 1),
              static_cast<int>(frames.size()) * layerCount);
}

TEST(TemporalStep, DroppedFramesWidenDeltaButStayExact)
{
    // A camera under backpressure: frames 3..6 and 11 dropped.
    const std::vector<int> frames = {0, 1, 2, 7, 8, 9, 10, 12, 15};
    runOracleCheckedSequence(frames, 0);
}

TEST(TemporalStep, FormatChangeForcesAnchor)
{
    Rng rng(0xF0);
    NetworkSpec net = makeNetwork("MicroServe");
    const ConvLayerSpec &spec = net.layers[0];
    LayerTrace lt;
    lt.spec = spec;
    lt.imap = randomTensor(rng, spec.inChannels, 12, 12, 400);
    lt.imapFracBits = 8;
    lt.weights = randomBank(rng, spec.outChannels, spec.inChannels,
                            spec.kernel, 200);
    NetworkTrace trace;
    trace.layers.push_back(lt);

    TemporalNetState state;
    TemporalFrameStats s0 = temporalStep(state, trace, 0);
    EXPECT_EQ(s0.anchored, 1); // no reference yet

    trace.layers[0].imap = randomTensor(rng, spec.inChannels, 12, 12, 400);
    TemporalFrameStats s1 = temporalStep(state, trace, 1);
    EXPECT_EQ(s1.anchored, 0); // clean delta step

    // Same shape, different fixed-point format: the reference lives
    // in another quantization grid, so the layer must re-anchor.
    trace.layers[0].imapFracBits = 9;
    TemporalFrameStats s2 = temporalStep(state, trace, 2);
    EXPECT_EQ(s2.anchored, 1);
}

TEST(TemporalStep, TermAccountingFavoursTemporalOnStaticFrames)
{
    // A static stream: after the anchor, temporal deltas are all
    // zero, so the temporal path's terms collapse while raw terms
    // stay put.
    SequenceParams sp;
    sp.scene.kind = SceneKind::Texture;
    sp.scene.width = 24;
    sp.scene.height = 24;
    sp.scene.seed = 5;
    sp.motion = MotionKind::Static;
    sp.amplitude = 2;
    FrameSequence seq(sp);
    NetworkSpec net = makeNetwork("MicroServe");

    TemporalNetState state;
    temporalStep(state, runNetwork(net, seq.frame(0), {}), 0);
    TemporalFrameStats s =
        temporalStep(state, runNetwork(net, seq.frame(1), {}), 1);
    EXPECT_EQ(s.anchored, 0);
    EXPECT_EQ(s.temporalTerms, 0u);
    EXPECT_GT(s.rawTerms, 0u);
    // Codec footprint: a 5-bit header + 1-bit fields per group of 16
    // is just over 1 bit/value — far below the 16-bit raw stream.
    EXPECT_LT(static_cast<double>(s.codecBits) /
                  static_cast<double>(s.values),
              2.0);
}

} // namespace
} // namespace diffy

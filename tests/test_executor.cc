/**
 * @file
 * Tests for the quantized forward-pass executor: reference kernels
 * (convolution, pooling, pixel shuffle), input encodings, weight
 * synthesis, and the statistical properties of captured traces.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/models.hh"

namespace diffy
{
namespace
{

Tensor3<float>
testScene(int size = 32, SceneKind kind = SceneKind::Nature)
{
    SceneParams p;
    p.kind = kind;
    p.width = size;
    p.height = size;
    p.seed = 99;
    return renderScene(p);
}

TEST(Convolve, IdentityKernelPassesThrough)
{
    Tensor3<float> in(2, 5, 5);
    for (std::size_t i = 0; i < in.size(); ++i)
        in.data()[i] = static_cast<float>(i) * 0.01f;
    // 3x3 bank: filter f copies channel f via a center tap.
    Tensor4<float> w(2, 2, 3, 3, 0.0f);
    w.at(0, 0, 1, 1) = 1.0f;
    w.at(1, 1, 1, 1) = 1.0f;
    auto out = convolve(in, w, 1, 1);
    ASSERT_EQ(out.shape(), in.shape());
    for (int c = 0; c < 2; ++c) {
        for (int y = 0; y < 5; ++y) {
            for (int x = 0; x < 5; ++x)
                EXPECT_FLOAT_EQ(out.at(c, y, x), in.at(c, y, x));
        }
    }
}

TEST(Convolve, MatchesHandComputedWindow)
{
    Tensor3<float> in(1, 3, 3);
    float vals[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (int i = 0; i < 9; ++i)
        in.data()[i] = vals[i];
    Tensor4<float> w(1, 1, 3, 3, 1.0f); // box filter
    auto out = convolve(in, w, 1, 1);
    // Center output = sum of all inputs; corner (0,0) sums the 2x2
    // in-bounds region.
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), 45.0f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1 + 2 + 4 + 5);
}

TEST(Convolve, StrideShrinksOutput)
{
    Tensor3<float> in(1, 8, 8, 1.0f);
    Tensor4<float> w(1, 1, 3, 3, 1.0f);
    auto out = convolve(in, w, 2, 1);
    EXPECT_EQ(out.height(), 4);
    EXPECT_EQ(out.width(), 4);
}

TEST(Convolve, DilationUsesSpreadTaps)
{
    Tensor3<float> in(1, 9, 9, 0.0f);
    in.at(0, 4, 4) = 1.0f;
    Tensor4<float> w(1, 1, 3, 3, 0.0f);
    w.at(0, 0, 0, 0) = 1.0f; // top-left tap
    auto out = convolve(in, w, 1, 2);
    // With dilation 2 and pad 2, output (6,6) reads input (4,4).
    EXPECT_FLOAT_EQ(out.at(0, 6, 6), 1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 4, 4), 0.0f);
}

TEST(Convolve, ChannelMismatchThrows)
{
    Tensor3<float> in(2, 4, 4);
    Tensor4<float> w(1, 3, 3, 3);
    EXPECT_THROW(convolve(in, w, 1, 1), std::invalid_argument);
}

TEST(MaxPool, TakesBlockMaxima)
{
    Tensor3<float> in(1, 4, 4);
    for (std::size_t i = 0; i < in.size(); ++i)
        in.data()[i] = static_cast<float>(i);
    auto out = maxPool(in, 2);
    EXPECT_EQ(out.height(), 2);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), 15.0f);
}

TEST(PixelShuffle, RearrangesChannelsToSpace)
{
    Tensor3<float> in(4, 2, 2);
    for (std::size_t i = 0; i < in.size(); ++i)
        in.data()[i] = static_cast<float>(i);
    auto out = pixelShuffle(in, 2);
    EXPECT_EQ(out.channels(), 1);
    EXPECT_EQ(out.height(), 4);
    EXPECT_EQ(out.width(), 4);
    // Sub-pixel (0,0) comes from channel 0, (0,1) from channel 1, ...
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), in.at(0, 0, 0));
    EXPECT_FLOAT_EQ(out.at(0, 0, 1), in.at(1, 0, 0));
    EXPECT_FLOAT_EQ(out.at(0, 1, 0), in.at(2, 0, 0));
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), in.at(3, 0, 0));
}

TEST(PixelShuffle, RejectsBadChannelCount)
{
    Tensor3<float> in(3, 2, 2);
    EXPECT_THROW(pixelShuffle(in, 2), std::invalid_argument);
}

TEST(NetworkInput, PerNetworkEncodings)
{
    auto rgb = testScene(32);
    EXPECT_EQ(buildNetworkInput(makeDnCnn(), rgb).channels(), 3);
    auto vdsr = buildNetworkInput(makeVdsr(), rgb);
    EXPECT_EQ(vdsr.channels(), 1);
    auto ffdnet = buildNetworkInput(makeFfdNet(), rgb);
    EXPECT_EQ(ffdnet.channels(), 15);
    EXPECT_EQ(ffdnet.height(), 16);
    auto joint = buildNetworkInput(makeJointNet(), rgb);
    EXPECT_EQ(joint.channels(), 4);
    EXPECT_EQ(joint.width(), 16);
}

TEST(NetworkInput, FfdNetNoiseChannelsAreConstant)
{
    auto packed = buildNetworkInput(makeFfdNet(), testScene(32));
    for (int c = 12; c < 15; ++c) {
        float v0 = packed.at(c, 0, 0);
        for (int y = 0; y < packed.height(); ++y) {
            for (int x = 0; x < packed.width(); ++x)
                ASSERT_FLOAT_EQ(packed.at(c, y, x), v0);
        }
    }
}

TEST(SynthesizeWeights, DeterministicPerLayer)
{
    NetworkSpec net = makeDnCnn();
    ExecutorOptions opts;
    int frac_a = 0, frac_b = 0;
    auto a = synthesizeWeights(weightKey(net, net.layers[1], opts), &frac_a);
    auto b = synthesizeWeights(weightKey(net, net.layers[1], opts), &frac_b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(frac_a, frac_b);
    auto c = synthesizeWeights(weightKey(net, net.layers[2], opts), nullptr);
    EXPECT_NE(a, c);
}

TEST(SynthesizeWeights, SparsityKnobPrunes)
{
    NetworkSpec net = makeDnCnn();
    ExecutorOptions opts;
    opts.weightSparsity = 0.75;
    auto w = synthesizeWeights(weightKey(net, net.layers[1], opts), nullptr);
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < w.size(); ++i)
        zeros += w.data()[i] == 0;
    double frac = static_cast<double>(zeros) /
                  static_cast<double>(w.size());
    EXPECT_NEAR(frac, 0.75, 0.05);
}

TEST(RunNetwork, TraceShapesFollowSpec)
{
    NetworkSpec net = makeIrCnn();
    NetworkTrace trace = runNetwork(net, testScene(24));
    ASSERT_EQ(trace.layers.size(), 7u);
    EXPECT_EQ(trace.network, "IRCNN");
    for (std::size_t i = 0; i < trace.layers.size(); ++i) {
        const auto &lt = trace.layers[i];
        EXPECT_EQ(lt.imap.channels(), lt.spec.inChannels) << i;
        EXPECT_EQ(lt.weights.filters(), lt.spec.outChannels) << i;
        EXPECT_EQ(lt.imap.height(), 24) << i; // same-padding chain
    }
}

TEST(RunNetwork, ReluLayersProduceNonNegativeNextImap)
{
    NetworkSpec net = makeDnCnn();
    NetworkTrace trace = runNetwork(net, testScene(16));
    // Layer i has ReLU => layer i+1's imap is non-negative.
    for (std::size_t i = 0; i + 1 < trace.layers.size(); ++i) {
        if (!trace.layers[i].spec.relu)
            continue;
        const auto &next = trace.layers[i + 1].imap;
        for (std::size_t j = 0; j < next.size(); ++j)
            ASSERT_GE(next.data()[j], 0) << "layer " << i + 1;
    }
}

TEST(RunNetwork, ActivationsShowReluSparsity)
{
    NetworkSpec net = makeDnCnn();
    NetworkTrace trace = runNetwork(net, testScene(24));
    // Intermediate (post-ReLU) imaps should be substantially sparse.
    double zeros = 0.0, total = 0.0;
    for (std::size_t i = 1; i < trace.layers.size(); ++i) {
        const auto &imap = trace.layers[i].imap;
        for (std::size_t j = 0; j < imap.size(); ++j)
            zeros += imap.data()[j] == 0;
        total += static_cast<double>(imap.size());
    }
    double sparsity = zeros / total;
    EXPECT_GT(sparsity, 0.30);
    EXPECT_LT(sparsity, 0.90);
}

TEST(RunNetwork, QuantizationQualityKnobChangesPrecision)
{
    NetworkSpec net = makeIrCnn();
    ExecutorOptions fine;
    fine.activationRelError = 0.0005;
    ExecutorOptions coarse;
    coarse.activationRelError = 0.05;
    auto tf = runNetwork(net, testScene(16), fine);
    auto tc = runNetwork(net, testScene(16), coarse);
    // Finer quality bound -> more fractional bits on some layer.
    bool finer_somewhere = false;
    for (std::size_t i = 0; i < tf.layers.size(); ++i) {
        EXPECT_GE(tf.layers[i].imapFracBits, tc.layers[i].imapFracBits);
        finer_somewhere |=
            tf.layers[i].imapFracBits > tc.layers[i].imapFracBits;
    }
    EXPECT_TRUE(finer_somewhere);
}

TEST(RunNetwork, ClassificationBackboneResolutionLadder)
{
    NetworkSpec net = makeVgg19Conv();
    SceneParams p;
    p.kind = SceneKind::Nature;
    p.width = 64;
    p.height = 64;
    p.seed = 4;
    NetworkTrace trace = runNetwork(net, renderScene(p));
    // The imap resolution must follow each layer's divisor.
    for (const auto &lt : trace.layers) {
        EXPECT_EQ(lt.imap.height(), 64 / lt.spec.resolutionDivisor)
            << lt.spec.name;
    }
}

TEST(RunNetwork, JointNetTwoResolutionPipeline)
{
    NetworkSpec net = makeJointNet();
    NetworkTrace trace = runNetwork(net, testScene(32));
    // Half-resolution body, full-resolution head.
    EXPECT_EQ(trace.layers.front().imap.height(), 16);
    EXPECT_EQ(trace.layers.back().imap.height(), 32);
    EXPECT_EQ(trace.layers[16].imap.channels(), 35); // post-shuffle head
}

TEST(LayerTrace, WeightDensityAccountsZeros)
{
    NetworkSpec net = makeDnCnn();
    ExecutorOptions opts;
    opts.weightSparsity = 0.5;
    NetworkTrace trace = runNetwork(net, testScene(16), opts);
    double density = trace.layers[1].weightDensity();
    EXPECT_NEAR(density, 0.5, 0.06);
}

} // namespace
} // namespace diffy

/**
 * @file
 * Tests for the functional Diffy tile: offset generation, bit-exact
 * output against direct convolution, cycle-count agreement with the
 * analytic timing model, and the Delta-out stride encoding.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "core/differential_conv.hh"
#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/models.hh"
#include "sim/functional.hh"
#include "sim/pra.hh"

namespace diffy
{
namespace
{

TEST(OffsetGenerator, ZeroProducesNoOffsets)
{
    OffsetGenerator gen;
    gen.load(0);
    EXPECT_TRUE(gen.exhausted());
    EXPECT_EQ(gen.remaining(), 0u);
}

TEST(OffsetGenerator, StreamsNafDigits)
{
    OffsetGenerator gen;
    gen.load(7); // 8 - 1
    ASSERT_EQ(gen.remaining(), 2u);
    Oneffset first = gen.next();
    EXPECT_EQ(first.exponent, 0);
    EXPECT_TRUE(first.negative);
    Oneffset second = gen.next();
    EXPECT_EQ(second.exponent, 3);
    EXPECT_FALSE(second.negative);
    EXPECT_TRUE(gen.exhausted());
}

TEST(OffsetGenerator, StreamReconstructsValueTimesWeight)
{
    Rng rng(19);
    for (int i = 0; i < 2000; ++i) {
        auto value = static_cast<std::int32_t>(rng.below(1 << 17)) -
                     (1 << 16);
        auto weight = static_cast<std::int16_t>(rng.below(65536) - 32768);
        OffsetGenerator gen;
        gen.load(value);
        EXPECT_EQ(gen.remaining(),
                  static_cast<std::size_t>(boothTerms(value)));
        std::int64_t product = 0;
        while (!gen.exhausted())
            product += OffsetGenerator::apply(weight, gen.next());
        EXPECT_EQ(product, static_cast<std::int64_t>(value) * weight)
            << value << " x " << weight;
    }
}

TEST(StrideDeltas, RoundTripsAtEveryStride)
{
    Rng rng(23);
    TensorI32 t(3, 4, 17);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<std::int32_t>(rng.below(100000)) - 50000;
    for (int stride : {1, 2, 3, 4}) {
        EXPECT_EQ(strideDeltasInverse(strideDeltas(t, stride), stride), t)
            << "stride " << stride;
    }
}

LayerTrace
tracedLayer(const NetworkSpec &net, int crop, std::size_t index)
{
    SceneParams p;
    p.kind = SceneKind::Texture;
    p.width = crop;
    p.height = crop;
    p.seed = 91;
    NetworkTrace trace = runNetwork(net, renderScene(p));
    return trace.layers.at(index);
}

class FunctionalTileExactness
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(FunctionalTileExactness, OmapMatchesDirectConvolution)
{
    auto [net_name, layer_index] = GetParam();
    LayerTrace layer = tracedLayer(makeNetwork(net_name), 16,
                                   static_cast<std::size_t>(layer_index));
    AcceleratorConfig cfg = defaultDiffyConfig();
    FunctionalResult fr = runFunctionalTile(layer, cfg, true);
    TensorI32 golden = convolveDirect(layer.imap, layer.weights,
                                      layer.spec.stride,
                                      layer.spec.dilation);
    EXPECT_EQ(fr.omap, golden);
}

TEST_P(FunctionalTileExactness, CyclesMatchAnalyticModel)
{
    auto [net_name, layer_index] = GetParam();
    LayerTrace layer = tracedLayer(makeNetwork(net_name), 16,
                                   static_cast<std::size_t>(layer_index));
    AcceleratorConfig cfg = defaultDiffyConfig();
    for (bool differential : {false, true}) {
        FunctionalResult fr =
            runFunctionalTile(layer, cfg, differential);
        LayerComputeStats analytic =
            simulateTermSerialLayer(layer, cfg, differential);
        double filter_groups = cfg.filterGroups(layer.spec.outChannels);
        EXPECT_DOUBLE_EQ(fr.computeCycles * filter_groups,
                         analytic.computeCycles)
            << net_name << " layer " << layer_index << " diff="
            << differential;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Layers, FunctionalTileExactness,
    // std::string, not const char *: gtest prints a char pointer with
    // its address, which would make the listed test name vary by build.
    ::testing::Values(std::tuple<std::string, int>{"DnCNN", 1},
                      std::tuple<std::string, int>{"DnCNN", 19},
                      std::tuple<std::string, int>{"IRCNN", 3}, // dilation 4
                      std::tuple<std::string, int>{"VDSR", 0}, // 1 channel
                      std::tuple<std::string, int>{"FFDNet", 0}),
    [](const auto &name_info) {
        return std::get<0>(name_info.param) + "_L" +
               std::to_string(std::get<1>(name_info.param));
    });

TEST(FunctionalTile, RawModeAlsoExact)
{
    LayerTrace layer = tracedLayer(makeIrCnn(), 12, 2);
    AcceleratorConfig cfg = defaultDiffyConfig();
    FunctionalResult fr = runFunctionalTile(layer, cfg, false);
    EXPECT_EQ(fr.omap, convolveDirect(layer.imap, layer.weights,
                                      layer.spec.stride,
                                      layer.spec.dilation));
}

TEST(FunctionalTile, StridedLayersExact)
{
    // AlexNet-style strided first layer.
    SceneParams p;
    p.kind = SceneKind::City;
    p.width = 32;
    p.height = 32;
    p.seed = 47;
    NetworkSpec alex = makeAlexNetConv();
    NetworkTrace trace = runNetwork(alex, renderScene(p));
    const LayerTrace &layer = trace.layers.front();
    AcceleratorConfig cfg = defaultDiffyConfig();
    FunctionalResult fr = runFunctionalTile(layer, cfg, true);
    EXPECT_EQ(fr.omap, convolveDirect(layer.imap, layer.weights,
                                      layer.spec.stride,
                                      layer.spec.dilation));
}

TEST(FunctionalTile, DeltaOutReconstructs)
{
    LayerTrace layer = tracedLayer(makeIrCnn(), 12, 1);
    AcceleratorConfig cfg = defaultDiffyConfig();
    for (int stride_next : {1, 2}) {
        FunctionalResult fr =
            runFunctionalTile(layer, cfg, true, stride_next);
        EXPECT_EQ(strideDeltasInverse(fr.deltaOmap, stride_next),
                  fr.omap)
            << "stride_next " << stride_next;
    }
}

TEST(FunctionalTile, DifferentialProcessesFewerTerms)
{
    LayerTrace layer = tracedLayer(makeDnCnn(), 20, 2);
    AcceleratorConfig cfg = defaultDiffyConfig();
    FunctionalResult diff = runFunctionalTile(layer, cfg, true);
    FunctionalResult raw = runFunctionalTile(layer, cfg, false);
    EXPECT_LT(diff.termsProcessed, raw.termsProcessed);
    EXPECT_EQ(diff.omap, raw.omap);
}

} // namespace
} // namespace diffy

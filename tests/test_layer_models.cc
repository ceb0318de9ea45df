/**
 * @file
 * Tests for the layer descriptors and the model zoo, pinning the
 * structural invariants of the paper's Table I.
 */

#include <gtest/gtest.h>

#include "nn/models.hh"

namespace diffy
{
namespace
{

TEST(ConvLayerSpec, SamePaddingPreservesResolution)
{
    ConvLayerSpec l;
    l.kernel = 3;
    l.stride = 1;
    l.dilation = 1;
    EXPECT_EQ(l.outDim(64), 64);
    l.dilation = 4; // IRCNN-style dilation
    EXPECT_EQ(l.effectiveKernel(), 9);
    EXPECT_EQ(l.outDim(64), 64);
}

TEST(ConvLayerSpec, StridedOutputDims)
{
    ConvLayerSpec l;
    l.kernel = 11;
    l.stride = 4;
    EXPECT_EQ(l.effectiveKernel(), 11);
    EXPECT_EQ(l.samePad(), 5);
    // (224 + 10 - 11)/4 + 1 = 56
    EXPECT_EQ(l.outDim(224), 56);
}

TEST(ConvLayerSpec, WorkAndFootprintAccessors)
{
    ConvLayerSpec l;
    l.inChannels = 64;
    l.outChannels = 64;
    l.kernel = 3;
    EXPECT_EQ(l.macsPerOutput(), 64u * 9);
    EXPECT_EQ(l.filterBytes(), 64u * 9 * 2);       // 1.125 KB
    EXPECT_EQ(l.layerWeightBytes(), 64u * 64 * 9 * 2); // 72 KB
}

/** Table I row checks for each CI-DNN. */
struct TableOneRow
{
    const char *name;
    int convLayers;
    int reluLayers;
    std::size_t maxFilterBytes;
    std::size_t maxLayerWeightKb;
};

/** Print the row by name: gtest's default byte dump would put the
 *  name pointer's address into the listed test name, which then
 *  changes from build to build. */
void PrintTo(const TableOneRow &row, std::ostream *os)
{
    *os << row.name;
}

class TableOne : public ::testing::TestWithParam<TableOneRow>
{};

TEST_P(TableOne, StructuralInvariantsMatchPaper)
{
    const TableOneRow &row = GetParam();
    NetworkSpec net = makeNetwork(row.name);
    EXPECT_EQ(net.convLayerCount(), row.convLayers);
    EXPECT_EQ(net.reluLayerCount(), row.reluLayers);
    EXPECT_EQ(net.maxFilterBytes(), row.maxFilterBytes);
    EXPECT_EQ(net.maxLayerWeightBytes() / 1024, row.maxLayerWeightKb);
    EXPECT_EQ(net.netClass, NetClass::CiDnn);
}

INSTANTIATE_TEST_SUITE_P(
    CiDnns, TableOne,
    ::testing::Values(
        // name, conv, relu, max filter bytes, max layer weight KB
        TableOneRow{"DnCNN", 20, 19, 1152, 72},
        TableOneRow{"FFDNet", 10, 9, 1728, 162},
        TableOneRow{"IRCNN", 7, 6, 1152, 72},
        TableOneRow{"JointNet", 19, 16, 1152, 144},
        TableOneRow{"VDSR", 20, 19, 1152, 72}),
    [](const auto &name_info) { return std::string(name_info.param.name); });

TEST(ModelZoo, SuiteOrderMatchesPaper)
{
    auto suite = ciDnnSuite();
    ASSERT_EQ(suite.size(), 5u);
    EXPECT_EQ(suite[0].name, "DnCNN");
    EXPECT_EQ(suite[1].name, "FFDNet");
    EXPECT_EQ(suite[2].name, "IRCNN");
    EXPECT_EQ(suite[3].name, "JointNet");
    EXPECT_EQ(suite[4].name, "VDSR");
}

TEST(ModelZoo, IrcnnDilationLadder)
{
    NetworkSpec net = makeIrCnn();
    const int expected[7] = {1, 2, 3, 4, 3, 2, 1};
    ASSERT_EQ(net.layers.size(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(net.layers[i].dilation, expected[i]) << "layer " << i;
}

TEST(ModelZoo, FfdNetRunsAtHalfResolutionWith15Channels)
{
    NetworkSpec net = makeFfdNet();
    EXPECT_EQ(net.inputChannels, 15);
    for (const auto &layer : net.layers)
        EXPECT_EQ(layer.resolutionDivisor, 2) << layer.name;
}

TEST(ModelZoo, VdsrIsSingleChannel)
{
    NetworkSpec net = makeVdsr();
    EXPECT_EQ(net.inputChannels, 1);
    EXPECT_EQ(net.layers.front().inChannels, 1);
    EXPECT_EQ(net.layers.back().outChannels, 1);
}

TEST(ModelZoo, ClassificationSuiteHasNativeResolutions)
{
    for (const auto &net : classificationSuite()) {
        EXPECT_GT(net.nativeResolution, 0) << net.name;
        EXPECT_NE(net.netClass, NetClass::CiDnn) << net.name;
    }
}

TEST(ModelZoo, AlexNetFirstLayerStride4)
{
    NetworkSpec net = makeAlexNetConv();
    EXPECT_EQ(net.layers.front().stride, 4);
    EXPECT_EQ(net.layers.front().kernel, 11);
}

TEST(ModelZoo, ChannelChainsAreConsistent)
{
    // Within a constant-resolution run of layers, out channels of one
    // layer must feed the next (resampling boundaries may repack).
    for (const auto &net : ciDnnSuite()) {
        for (std::size_t i = 1; i < net.layers.size(); ++i) {
            const auto &prev = net.layers[i - 1];
            const auto &cur = net.layers[i];
            if (prev.resolutionDivisor == cur.resolutionDivisor &&
                prev.stride == 1) {
                EXPECT_EQ(prev.outChannels, cur.inChannels)
                    << net.name << " layer " << i;
            }
        }
    }
}

TEST(ModelZoo, UnknownNetworkThrows)
{
    EXPECT_THROW(makeNetwork("NotANet"), std::invalid_argument);
}

TEST(ModelZoo, ZooNamesCoversBothSuitesPlusMicroServe)
{
    auto names = zooNames();
    EXPECT_EQ(names.size(), 12u);
    EXPECT_EQ(names.back(), "MicroServe");
}

TEST(ModelZoo, MicroServeIsAMinimalPerPixelNet)
{
    NetworkSpec net = makeMicroServe();
    EXPECT_EQ(makeNetwork("MicroServe").layers.size(), net.layers.size());
    EXPECT_EQ(net.inputChannels, 3);
    EXPECT_EQ(net.layers.size(), 3u);
    EXPECT_EQ(net.layers.back().outChannels, 3);
    for (const auto &layer : net.layers)
        EXPECT_EQ(layer.kernel, 3);
}

TEST(NetworkSpec, MacsPerFrameScalesWithResolution)
{
    NetworkSpec net = makeDnCnn();
    double hd = net.macsPerFrame(1080, 1920);
    double quarter = net.macsPerFrame(540, 960);
    EXPECT_NEAR(hd / quarter, 4.0, 0.05);
}

TEST(NetworkSpec, TotalWeightBytesSumsLayers)
{
    NetworkSpec net = makeIrCnn();
    std::size_t total = 0;
    for (const auto &l : net.layers)
        total += l.layerWeightBytes();
    EXPECT_EQ(net.totalWeightBytes(), total);
}

} // namespace
} // namespace diffy

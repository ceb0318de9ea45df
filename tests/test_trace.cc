/**
 * @file
 * Tests for trace serialization and the on-disk trace cache.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/bitops.hh"
#include "core/trace_cache.hh"
#include "image/synth.hh"
#include "obs/metrics.hh"
#include "nn/executor.hh"
#include "nn/models.hh"
#include "nn/trace.hh"

namespace diffy
{
namespace
{

NetworkTrace
smallTrace()
{
    SceneParams p;
    p.kind = SceneKind::City;
    p.width = 16;
    p.height = 16;
    p.seed = 21;
    return runNetwork(makeIrCnn(), renderScene(p));
}

TEST(TraceSerialization, RoundTripsExactly)
{
    NetworkTrace trace = smallTrace();
    std::stringstream ss;
    saveTrace(trace, ss);
    NetworkTrace back = loadTrace(ss);

    EXPECT_EQ(back.network, trace.network);
    EXPECT_EQ(back.netClass, trace.netClass);
    EXPECT_EQ(back.frameHeight, trace.frameHeight);
    EXPECT_EQ(back.frameWidth, trace.frameWidth);
    ASSERT_EQ(back.layers.size(), trace.layers.size());
    for (std::size_t i = 0; i < trace.layers.size(); ++i) {
        const auto &a = trace.layers[i];
        const auto &b = back.layers[i];
        EXPECT_EQ(a.spec.name, b.spec.name);
        EXPECT_EQ(a.spec.dilation, b.spec.dilation);
        EXPECT_EQ(a.spec.relu, b.spec.relu);
        EXPECT_EQ(a.imapFracBits, b.imapFracBits);
        EXPECT_EQ(a.weightFracBits, b.weightFracBits);
        EXPECT_EQ(a.imap, b.imap);
        EXPECT_EQ(a.weights, b.weights);
    }
}

TEST(TraceSerialization, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "not a trace at all";
    EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceSerialization, RejectsTruncation)
{
    NetworkTrace trace = smallTrace();
    std::stringstream ss;
    saveTrace(trace, ss);
    std::string full = ss.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(loadTrace(truncated), std::runtime_error);
}

/**
 * Build independence of the forward pass: CRC-32C (a stable wire
 * checksum) over every imap of FFDNet on a fractal and a hard-edged
 * 16x16 scene. Every convolution output sums its taps in a fixed
 * order with separate roundings and the project builds with
 * -ffp-contract=off, so the default build, -DDIFFY_NATIVE=ON and
 * DIFFY_ISA=scalar must all reproduce this constant (ctest and CI run
 * all three). A -march=native build that contracts to FMA fails it.
 */
TEST(TraceDigest, FfdNetImapsAreBuildIndependent)
{
    std::uint32_t crc = 0;
    for (SceneKind kind : {SceneKind::Nature, SceneKind::City}) {
        SceneParams p;
        p.kind = kind;
        p.width = 16;
        p.height = 16;
        p.seed = 5;
        const NetworkTrace trace =
            runNetwork(makeFfdNet(), renderScene(p));
        for (const LayerTrace &lt : trace.layers) {
            const std::int32_t frac = lt.imapFracBits;
            crc = crc32c(&frac, sizeof frac, crc);
            crc = crc32c(lt.imap.data(),
                         lt.imap.size() * sizeof(std::int16_t), crc);
        }
    }
    EXPECT_EQ(crc, 0x22C0D960u);
}

TEST(TraceSerialization, ChecksumCatchesSingleFlippedByte)
{
    // The envelope (magic, body length, trailing CRC-32C) must detect
    // corruption anywhere in the body *before* parsing begins — a
    // flipped byte in a tensor dimension must never surface as a
    // misshapen trace.
    NetworkTrace trace = smallTrace();
    std::stringstream ss;
    saveTrace(trace, ss);
    std::string wire = ss.str();
    wire[wire.size() / 2] ^= 0x01;
    std::stringstream corrupt(wire);
    try {
        loadTrace(corrupt);
        FAIL() << "expected the checksum to catch the flip";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

class TraceCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // One directory per test: ctest runs these tests as parallel
        // processes, which must not remove each other's cache.
        dir_ = std::filesystem::temp_directory_path() /
               ("diffy_trace_cache_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(TraceCacheTest, SecondGetHitsDisk)
{
    TraceCache cache(dir_.string());
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    scene.seed = 5;
    NetworkSpec net = makeIrCnn();
    NetworkTrace first = cache.get(net, scene);
    ASSERT_TRUE(std::filesystem::exists(dir_));
    auto files = std::distance(std::filesystem::directory_iterator(dir_),
                               std::filesystem::directory_iterator{});
    EXPECT_EQ(files, 1);
    NetworkTrace second = cache.get(net, scene);
    EXPECT_EQ(second.layers.size(), first.layers.size());
    EXPECT_EQ(second.layers[2].imap, first.layers[2].imap);
}

TEST_F(TraceCacheTest, KeyDistinguishesParameters)
{
    SceneParams a;
    a.width = 16;
    a.height = 16;
    SceneParams b = a;
    b.seed = 2;
    NetworkSpec net = makeIrCnn();
    ExecutorOptions opts;
    EXPECT_NE(TraceCache::cacheKey(net, a, opts),
              TraceCache::cacheKey(net, b, opts));
    ExecutorOptions sparse;
    sparse.weightSparsity = 0.5;
    EXPECT_NE(TraceCache::cacheKey(net, a, opts),
              TraceCache::cacheKey(net, a, sparse));
    ExecutorOptions coarse;
    coarse.activationRelError = 0.05;
    EXPECT_NE(TraceCache::cacheKey(net, a, opts),
              TraceCache::cacheKey(net, a, coarse));
}

TEST_F(TraceCacheTest, CorruptEntryIsRecomputed)
{
    TraceCache cache(dir_.string());
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    NetworkSpec net = makeIrCnn();
    cache.get(net, scene);
    // Corrupt the single cache file.
    for (const auto &entry : std::filesystem::directory_iterator(dir_)) {
        std::ofstream out(entry.path(), std::ios::binary);
        out << "garbage";
    }
    NetworkTrace trace = cache.get(net, scene);
    EXPECT_EQ(trace.layers.size(), 7u);
}

TEST_F(TraceCacheTest, CorruptEntryIsQuarantinedAndRegenerated)
{
    auto &reg = obs::MetricsRegistry::instance();
    const std::uint64_t evictions0 =
        reg.counter("trace_cache.corrupt_evictions").value();

    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    NetworkSpec net = makeIrCnn();
    NetworkTrace clean = TraceCache(dir_.string()).get(net, scene);

    // Flip one byte in the middle of the stored file: the magic stays
    // intact, so only the CRC envelope can catch this.
    std::filesystem::path stored;
    for (const auto &entry : std::filesystem::directory_iterator(dir_))
        stored = entry.path();
    {
        std::ifstream in(stored, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        std::string bytes = buf.str();
        bytes[bytes.size() / 2] ^= 0x01;
        std::ofstream out(stored, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    // A fresh cache (cold memory layer) must detect the corruption on
    // disk load, quarantine the file, and recompute.
    TraceCache cache(dir_.string());
    NetworkTrace regenerated = cache.get(net, scene);
    EXPECT_EQ(regenerated.layers.size(), clean.layers.size());
    EXPECT_EQ(regenerated.layers[2].imap, clean.layers[2].imap);
    EXPECT_EQ(
        reg.counter("trace_cache.corrupt_evictions").value() - evictions0,
        1u);
    // The bad file was quarantined, not deleted: forensics keep the
    // .corrupt copy while a fresh .trace replaces it.
    EXPECT_TRUE(std::filesystem::exists(stored));
    EXPECT_TRUE(std::filesystem::exists(stored.string() + ".corrupt"));
    // A further get() hits the regenerated entry without re-evicting.
    cache.get(net, scene);
    EXPECT_EQ(
        reg.counter("trace_cache.corrupt_evictions").value() - evictions0,
        1u);
}

TEST(TraceCacheDisabled, EmptyDirectorySkipsDisk)
{
    TraceCache cache("");
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    NetworkTrace trace = cache.get(makeIrCnn(), scene);
    EXPECT_EQ(trace.layers.size(), 7u);
}

} // namespace
} // namespace diffy

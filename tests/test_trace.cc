/**
 * @file
 * Tests for trace serialization and the on-disk trace cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
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
#include "nn/weight_store.hh"

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
    // A layer with an empty imap: loading it copies a zero-size block
    // into the null data() of an empty tensor (UBSan checks the copy).
    trace.layers.push_back(trace.layers[0]);
    trace.layers.back().imap = TensorI16();
    // A layer with an empty, unkeyed weight bank: it is written as
    // holding no bank and reads back empty.
    trace.layers.push_back(trace.layers[0]);
    trace.layers.back().weights = FilterBankI16();
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
        EXPECT_EQ(a.weightFracBits(), b.weightFracBits());
        EXPECT_EQ(a.imap, b.imap);
        EXPECT_EQ(a.weights.bank(), b.weights.bank());
        // A keyed bank is not copied: the loaded layer shares the
        // store's bank with the traced one.
        if (a.weights.get()->key() != nullptr) {
            EXPECT_EQ(a.weights.get(), b.weights.get());
        }
    }
    EXPECT_EQ(back.layers.back().weights.get(), nullptr);
}

TEST(TraceSerialization, RefusesUnkeyedWeights)
{
    // No file could refer to a hand-built bank, so saving one fails
    // loudly instead of writing a trace that loads without it.
    NetworkTrace trace = smallTrace();
    trace.layers[0].weights = FilterBankI16(1, 1, 1, 1, 3);
    std::stringstream ss;
    EXPECT_THROW(saveTrace(trace, ss), std::invalid_argument);
}

/** A fact of @p layer: the sum of its imap, counting fills in @p fills. */
double
imapSumFact(const LayerTrace &layer, int &fills)
{
    return layer.facts.get(FactKey{FactKind::BitsPerValue, 1, 2}, [&] {
        ++fills;
        double sum = 0.0;
        for (std::size_t i = 0; i < layer.imap.size(); ++i)
            sum += layer.imap.data()[i];
        return LayerFacts::Value{sum};
    })[0];
}

TEST(LayerFacts, CopyStartsEmptyAndMoveCarriesFacts)
{
    NetworkTrace trace;
    trace.layers.resize(1);
    LayerTrace &original = trace.layers[0];
    original.imap = TensorI16(1, 2, 2, 3);
    int fills = 0;
    EXPECT_EQ(imapSumFact(original, fills), 12.0);
    EXPECT_EQ(imapSumFact(original, fills), 12.0);
    EXPECT_EQ(fills, 1);

    // A copy whose imap is then mutated gets the fresh answer, and
    // the original keeps its own.
    LayerTrace copy = original;
    copy.imap.at(0, 1, 1) = 100;
    EXPECT_EQ(imapSumFact(copy, fills), 109.0);
    EXPECT_EQ(imapSumFact(original, fills), 12.0);
    EXPECT_EQ(fills, 2);
    // Copy-assignment replaces the imap, so it drops the stale fact.
    copy = original;
    EXPECT_EQ(imapSumFact(copy, fills), 12.0);
    EXPECT_EQ(fills, 3);

    // Moving the trace, or assigning from a moved layer, keeps them.
    NetworkTrace moved = std::move(trace);
    EXPECT_EQ(imapSumFact(moved.layers[0], fills), 12.0);
    copy = std::move(moved.layers[0]);
    EXPECT_EQ(imapSumFact(copy, fills), 12.0);
    EXPECT_EQ(fills, 3);
}

TEST(LayerFacts, ThrowingFillStoresNothing)
{
    LayerTrace layer;
    const FactKey key{FactKind::Walk, 16, 16, 0};
    auto fail = []() -> LayerFacts::Value {
        throw std::runtime_error("fill");
    };
    EXPECT_THROW(layer.facts.get(key, fail), std::runtime_error);
    EXPECT_EQ(layer.facts.get(key, [] { return LayerFacts::Value{1.0}; }),
              (LayerFacts::Value{1.0, 0.0}));
    EXPECT_EQ(layer.facts.get(key, fail), (LayerFacts::Value{1.0, 0.0}));
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

/** Body bytes built field by field, in the order saveTrace writes them. */
struct WireBuilder
{
    std::string bytes;

    template <typename T>
    WireBuilder &
    pod(T v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
        return *this;
    }
    WireBuilder &i32(std::int32_t v) { return pod(v); }
    WireBuilder &
    str(const std::string &s)
    {
        pod(static_cast<std::uint32_t>(s.size()));
        bytes += s;
        return *this;
    }
    WireBuilder &
    i16s(std::initializer_list<std::int16_t> vs)
    {
        for (std::int16_t v : vs)
            pod(v);
        return *this;
    }
};

/** magic | u64 body length | body | crc32c(body). */
std::string
envelope(const std::string &body)
{
    WireBuilder w;
    w.pod(std::uint32_t{0xD1FF7003})
        .pod(static_cast<std::uint64_t>(body.size()));
    w.bytes += body;
    w.pod(crc32c(body.data(), body.size()));
    return w.bytes;
}

/**
 * A body that declares @p layers layers but holds one: layer "conv1"
 * of network "net", whose in/out channels and kernel are @p io (its
 * other fields 1), whose imap dims are @p c x @p h x @p w over four
 * values, and which holds the bank of @p key, or none.
 */
std::string
oneLayerBody(std::uint32_t layers, std::int32_t c, std::int32_t h,
             std::int32_t w, const WeightKey *key = nullptr,
             std::array<std::int32_t, 3> io = {1, 1, 1})
{
    WireBuilder b;
    b.str("net").i32(0).i32(4).i32(4).pod(layers);
    b.str("conv1").i32(io[0]).i32(io[1]).i32(io[2]);
    for (int field = 0; field < 5; ++field)
        b.i32(1);
    b.i32(c).i32(h).i32(w).i16s({1, 2, 3, 4});
    b.i32(key != nullptr ? 1 : 0);
    if (key != nullptr) {
        b.str(key->network).str(key->layer);
        b.i32(key->inChannels).i32(key->outChannels).i32(key->kernel);
        b.pod(key->weightSeed).pod(key->sparsitySeed).pod(key->sparsityBits);
    }
    return b.bytes;
}

TEST(TraceSerialization, WireFormatIsPinned)
{
    // A hand-built trace and the bytes the format promises for it:
    // any change to the layout (or to the CRC) fails here.
    NetworkTrace trace;
    trace.network = "tiny";
    trace.netClass = NetClass::Classification;
    trace.frameHeight = 3;
    trace.frameWidth = 2;
    LayerTrace layer;
    layer.spec.name = "c1";
    layer.spec.inChannels = 1;
    layer.spec.outChannels = 2;
    layer.spec.kernel = 1;
    layer.spec.stride = 1;
    layer.spec.dilation = 1;
    layer.spec.relu = true;
    layer.spec.resolutionDivisor = 1;
    layer.imapFracBits = 7;
    layer.imap = TensorI16(1, 1, 2);
    layer.imap.data()[0] = -3;
    layer.imap.data()[1] = 300;
    // The weights stay out of the file; only the bank's key is written.
    const WeightKey key{"tiny", "c1", 1, 2, 1, 0xD1FF, 0x5C44, 0};
    FilterBankI16 bank(2, 1, 1, 1);
    bank.data()[0] = 17;
    bank.data()[1] = -32768;
    layer.weights = std::make_shared<const WeightBank>(bank, 9, key);
    trace.layers.push_back(layer);

    WireBuilder body;
    body.str("tiny")
        .i32(static_cast<std::int32_t>(NetClass::Classification))
        .i32(3)
        .i32(2)
        .pod(std::uint32_t{1});
    body.str("c1").i32(1).i32(2).i32(1).i32(1).i32(1).i32(1).i32(1);
    body.i32(7);
    body.i32(1).i32(1).i32(2).i16s({-3, 300});
    body.i32(1).str("tiny").str("c1").i32(1).i32(2).i32(1);
    body.pod(std::uint64_t{0xD1FF})
        .pod(std::uint64_t{0x5C44})
        .pod(std::uint64_t{0});

    std::stringstream ss;
    saveTrace(trace, ss);
    EXPECT_EQ(ss.str(), envelope(body.bytes));
}

TEST(TraceSerialization, SaveLoadSaveIsByteIdentical)
{
    NetworkTrace trace = smallTrace();
    std::stringstream first;
    saveTrace(trace, first);
    std::stringstream in(first.str());
    std::stringstream second;
    saveTrace(loadTrace(in), second);
    EXPECT_EQ(first.str(), second.str());
}

/**
 * CRC-valid bodies that do not parse. The absurd counts must be refused
 * by the bounds checks before a tensor or the layer vector is sized:
 * the allocations they ask for (up to 2^51 bytes) would throw bad_alloc
 * or length_error rather than runtime_error here, and abort an ASan
 * build.
 */
TEST(TraceSerialization, RejectsMalformedBodiesWithoutAllocating)
{
    // The well-formed body the cases below corrupt.
    std::stringstream good(envelope(oneLayerBody(1, 1, 2, 2)));
    const NetworkTrace trace = loadTrace(good);
    ASSERT_EQ(trace.layers.size(), 1u);
    EXPECT_EQ(trace.layers[0].imap.at(0, 1, 1), 4);
    EXPECT_TRUE(trace.layers[0].weights.empty());
    // The same layer naming its own bank.
    const WeightKey own{"net", "conv1", 1, 1, 1, 7, 11, 0};
    std::stringstream keyed(envelope(oneLayerBody(1, 1, 2, 2, &own)));
    EXPECT_EQ(loadTrace(keyed).layers[0].weights.size(), 1u);

    // A bank key sizes the bank that resolving it may synthesize, so
    // one that is not this layer's, or whose bank no bank file could
    // hold, is refused before it reaches the store.
    WeightKey otherNet = own;
    otherNet.network = "other";
    WeightKey otherLayer = own;
    otherLayer.layer = "conv2";
    WeightKey otherShape = own;
    otherShape.outChannels = 2;
    WeightKey huge = own; // a 2^32 x 9-weight bank
    huge.inChannels = 1 << 16;
    huge.outChannels = 1 << 16;
    huge.kernel = 3;
    WeightKey negative = own;
    negative.inChannels = -1;
    negative.outChannels = -1;

    const std::string bodies[] = {
        oneLayerBody(1, 1 << 20, 1 << 20, 1 << 10), // 2^51-byte imap
        oneLayerBody(1, -1, 2, 2),                  // negative dim
        oneLayerBody(1, 2, -1, -2),                 // negatives cancel
        oneLayerBody(1, 1, 2, 3),                   // overruns the body
        oneLayerBody(0xFFFFFFFFu, 1, 2, 2),         // 4G layers
        oneLayerBody(2, 1, 2, 2),                   // second layer missing
        oneLayerBody(1, 1, 2, 2) + "x",             // trailing byte
        oneLayerBody(1, 1, 2, 2, &otherNet),        // another net's bank
        oneLayerBody(1, 1, 2, 2, &otherLayer),      // another layer's bank
        oneLayerBody(1, 1, 2, 2, &otherShape),      // key and spec disagree
        oneLayerBody(1, 1, 2, 2, &huge, {1 << 16, 1 << 16, 3}),
        oneLayerBody(1, 1, 2, 2, &negative, {-1, -1, 1}),
    };
    for (const std::string &body : bodies) {
        std::stringstream ss(envelope(body));
        EXPECT_THROW(loadTrace(ss), std::runtime_error);
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

    /** Cache over dir_ whose (real) tracer counts its calls. */
    TraceCache countingCache()
    {
        return TraceCache(dir_.string(), [this](const NetworkSpec &net,
                                                const SceneParams &scene,
                                                const ExecutorOptions &opts) {
            ++traceCalls_;
            return runNetwork(net, renderScene(scene), opts);
        });
    }

    static std::uint64_t counter(const char *name)
    {
        return obs::MetricsRegistry::instance().counter(name).value();
    }

    /** The cache files ending in @p ext (".trace" or ".weights"). */
    std::vector<std::filesystem::path> files(const std::string &ext) const
    {
        std::vector<std::filesystem::path> out;
        for (const auto &entry : std::filesystem::directory_iterator(dir_))
            if (entry.path().extension() == ext)
                out.push_back(entry.path());
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Write every bank of @p net under @p opts to dir_ as a bank
     *  file, as a cache run in an earlier process leaves them. */
    void writeBankFiles(const NetworkSpec &net,
                        const ExecutorOptions &opts) const
    {
        std::filesystem::create_directories(dir_);
        for (const ConvLayerSpec &layer : net.layers) {
            const WeightKey key = weightKey(net, layer, opts);
            std::ofstream out(dir_ / (key.str() + ".weights"),
                              std::ios::binary);
            saveBank(*synthesizeBank(key), out);
        }
    }

    /** Flip one byte in the middle of @p path. */
    static void flipMiddleByte(const std::filesystem::path &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        std::string bytes = buf.str();
        bytes[bytes.size() / 2] ^= 0x01;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::filesystem::path dir_;
    int traceCalls_ = 0;
};

TEST_F(TraceCacheTest, SecondGetHitsDisk)
{
    TraceCache cache = countingCache();
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    scene.seed = 5;
    NetworkSpec net = makeIrCnn();
    NetworkTrace first = cache.get(net, scene);
    ASSERT_TRUE(std::filesystem::exists(dir_));
    // One trace file, and one bank file per layer.
    EXPECT_EQ(files(".trace").size(), 1u);
    EXPECT_EQ(files(".weights").size(), net.layers.size());
    const std::uint64_t loads0 = counter("trace_cache.disk_loads");
    NetworkTrace second = cache.get(net, scene);
    EXPECT_EQ(counter("trace_cache.disk_loads") - loads0, 1u);
    EXPECT_EQ(traceCalls_, 1);
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
    // Values that agree to three decimals are still distinct scenes.
    SceneParams smooth = a;
    smooth.roughness = 0.5;
    SceneParams rougher = a;
    rougher.roughness = 0.5004;
    EXPECT_NE(TraceCache::cacheKey(net, smooth, opts),
              TraceCache::cacheKey(net, rougher, opts));
}

TEST_F(TraceCacheTest, CorruptEntryIsRecomputed)
{
    TraceCache cache = countingCache();
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    NetworkSpec net = makeIrCnn();
    cache.get(net, scene);
    // Corrupt the single trace file.
    for (const auto &path : files(".trace")) {
        std::ofstream out(path, std::ios::binary);
        out << "garbage";
    }
    const std::uint64_t evictions0 = counter("trace_cache.corrupt_evictions");
    NetworkTrace trace = cache.get(net, scene);
    EXPECT_EQ(trace.layers.size(), 7u);
    EXPECT_EQ(counter("trace_cache.corrupt_evictions") - evictions0, 1u);
    EXPECT_EQ(traceCalls_, 2);
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

    // Flip one byte in the middle of the stored trace: the magic stays
    // intact, so only the CRC envelope can catch this.
    ASSERT_EQ(files(".trace").size(), 1u);
    const std::filesystem::path stored = files(".trace")[0];
    flipMiddleByte(stored);

    // The next get must detect the corruption on disk load,
    // quarantine the file, and recompute.
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

TEST_F(TraceCacheTest, OldFormatTraceIsQuarantinedAndRetraced)
{
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    NetworkSpec net = makeIrCnn();
    TraceCache cache = countingCache();
    const NetworkTrace clean = cache.get(net, scene);
    // Stamp the v2 magic (weights inside the trace) on the file.
    const std::filesystem::path stored = files(".trace").at(0);
    {
        std::fstream f(stored, std::ios::in | std::ios::out |
                                   std::ios::binary);
        const std::uint32_t v2 = 0xD1FF7002;
        f.write(reinterpret_cast<const char *>(&v2), sizeof v2);
    }
    const std::uint64_t evictions0 = counter("trace_cache.corrupt_evictions");
    const NetworkTrace again = cache.get(net, scene);
    EXPECT_EQ(counter("trace_cache.corrupt_evictions") - evictions0, 1u);
    EXPECT_EQ(traceCalls_, 2);
    EXPECT_TRUE(std::filesystem::exists(stored.string() + ".corrupt"));
    EXPECT_EQ(again.layers[3].imap, clean.layers[3].imap);
}

TEST_F(TraceCacheTest, BankFilesLoadByteEqualToSynthesis)
{
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    NetworkSpec net = makeIrCnn();
    ExecutorOptions opts;
    opts.weightSeed = 0xBA2C; // keys no other test builds
    writeBankFiles(net, opts);

    // A new scene over warm bank files: every bank the forward pass
    // uses is read from its file, none is built.
    const std::uint64_t loads0 = counter("trace_cache.bank_loads");
    const std::uint64_t built0 = counter("nn.weight_banks_built");
    const NetworkTrace trace = countingCache().get(net, scene, opts);
    EXPECT_EQ(traceCalls_, 1);
    EXPECT_EQ(counter("trace_cache.bank_loads") - loads0, net.layers.size());
    EXPECT_EQ(counter("nn.weight_banks_built"), built0);
    ASSERT_EQ(trace.layers.size(), net.layers.size());
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        int frac = 0;
        EXPECT_EQ(trace.layers[i].weights.bank(),
                  synthesizeWeights(weightKey(net, net.layers[i], opts),
                                    &frac))
            << i;
        EXPECT_EQ(trace.layers[i].weightFracBits(), frac) << i;
    }
}

TEST_F(TraceCacheTest, CorruptBankFileIsQuarantinedAndRebuilt)
{
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    NetworkSpec net = makeIrCnn();
    ExecutorOptions opts;
    opts.weightSeed = 0xBA2D; // keys no other test builds
    writeBankFiles(net, opts);
    const std::filesystem::path bank = files(".weights").at(2);
    flipMiddleByte(bank);

    const std::uint64_t evictions0 = counter("trace_cache.corrupt_evictions");
    const std::uint64_t built0 = counter("nn.weight_banks_built");
    const NetworkTrace trace = TraceCache(dir_.string()).get(net, scene, opts);
    EXPECT_EQ(counter("trace_cache.corrupt_evictions") - evictions0, 1u);
    EXPECT_EQ(counter("nn.weight_banks_built") - built0, 1u);
    EXPECT_TRUE(std::filesystem::exists(bank.string() + ".corrupt"));
    // The rebuilt bank was written back: every bank file, the
    // rewritten one too, loads equal to synthesis.
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        const WeightKey key = weightKey(net, net.layers[i], opts);
        const FilterBankI16 expected = synthesizeWeights(key, nullptr);
        EXPECT_EQ(trace.layers[i].weights.bank(), expected) << i;
        std::ifstream in(dir_ / (key.str() + ".weights"), std::ios::binary);
        EXPECT_EQ(loadBank(in, key)->weights(), expected) << i;
    }
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

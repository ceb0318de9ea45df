/**
 * @file
 * Tests for the process-wide weight store: one build per key under
 * concurrent first use, banks that stay off the frame arena, nonzero
 * counts that match a scan, and the bank-file round trip.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <thread>
#include <vector>

#include "common/pool.hh"
#include "nn/executor.hh"
#include "nn/models.hh"
#include "nn/weight_store.hh"
#include "obs/metrics.hh"

namespace diffy
{
namespace
{

std::uint64_t
banksBuilt()
{
    return obs::MetricsRegistry::instance()
        .counter("nn.weight_banks_built")
        .value();
}

/** A key no other test asks the process-wide store for. */
WeightKey
freshKey(const std::string &layer, int in = 8, int out = 16)
{
    return WeightKey{"weight-store-test", layer, in, out, 3, 7, 11, 0};
}

TEST(WeightStore, ConcurrentFirstGetsBuildOnce)
{
    // Eight threads race for one fresh key; one builds, seven wait for
    // its bank (the TSan CI leg runs this too).
    const WeightKey key = freshKey("race");
    const std::uint64_t built0 = banksBuilt();
    std::vector<const WeightBank *> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&, t] {
            seen[t] = WeightStore::instance().get(key).get();
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(banksBuilt() - built0, 1u);
    for (const WeightBank *bank : seen)
        EXPECT_EQ(bank, seen[0]);
    int frac = 0;
    EXPECT_EQ(seen[0]->weights(), synthesizeWeights(key, &frac));
    EXPECT_EQ(seen[0]->fracBits(), frac);
}

TEST(WeightStore, ThrowingFillStoresNothing)
{
    WeightStore store;
    const WeightKey key = freshKey("throwing");
    auto fail = []() -> std::shared_ptr<const WeightBank> {
        throw std::runtime_error("fill");
    };
    EXPECT_THROW(store.get(key, fail), std::runtime_error);
    const auto bank = store.get(key);
    ASSERT_NE(bank, nullptr);
    EXPECT_EQ(store.get(key, fail), bank);
}

TEST(WeightStore, BanksStayOffTheFrameArena)
{
    // A bank first asked for inside a serve job's ArenaScope must
    // outlive the arena's rewind: it is heap-owned, not scratch.
    const WeightKey key = freshKey("arena", 4, 4);
    BufferPool pool;
    FrameArena arena(pool);
    std::shared_ptr<const WeightBank> bank;
    {
        ArenaScope scope(arena);
        bank = WeightStore::instance().get(key);
    }
    arena.rewind();
    {
        // Reuse every scratch byte the arena has.
        ArenaScope scope(arena);
        Tensor3<std::int16_t> scribble(64, 64, 64,
                                       scratchAlloc<std::int16_t>());
        scribble.fill(0x5A5A);
    }
    EXPECT_EQ(bank->weights(), synthesizeWeights(key, nullptr));
}

TEST(WeightStore, NonzeroCountsMatchAScan)
{
    NetworkSpec net = makeDnCnn();
    ExecutorOptions opts;
    opts.weightSparsity = 0.5;
    const auto bank =
        WeightStore::instance().get(weightKey(net, net.layers[1], opts));
    const FilterBankI16 &w = bank->weights();
    std::vector<std::int64_t> perChannel(w.channels(), 0);
    std::vector<std::int64_t> perFilter(w.filters(), 0);
    for (int f = 0; f < w.filters(); ++f)
        for (int c = 0; c < w.channels(); ++c)
            for (int y = 0; y < w.height(); ++y)
                for (int x = 0; x < w.width(); ++x) {
                    perChannel[c] += w.at(f, c, y, x) != 0;
                    perFilter[f] += w.at(f, c, y, x) != 0;
                }
    EXPECT_EQ(bank->channelNonzeros(), perChannel);
    EXPECT_EQ(bank->filterNonzeros(), perFilter);
    std::int64_t total = 0;
    for (std::int64_t n : perFilter)
        total += n;
    EXPECT_EQ(bank->nonzeros(), total);
    LayerTrace layer;
    layer.weights = bank;
    EXPECT_DOUBLE_EQ(layer.weightDensity(),
                     static_cast<double>(total) /
                         static_cast<double>(w.size()));
}

TEST(WeightStore, KeyCoversEveryInputOfSynthesis)
{
    NetworkSpec net = makeDnCnn();
    ExecutorOptions opts;
    const WeightKey base = weightKey(net, net.layers[1], opts);
    ExecutorOptions seeded = opts;
    seeded.weightSeed += 1;
    ExecutorOptions sparse = opts;
    sparse.weightSparsity = 0.25;
    ExecutorOptions masked = opts;
    masked.sparsitySeed += 1;
    for (const ExecutorOptions &o : {seeded, sparse, masked}) {
        const WeightKey other = weightKey(net, net.layers[1], o);
        EXPECT_NE(other, base);
        EXPECT_NE(other.str(), base.str());
    }
    EXPECT_NE(weightKey(net, net.layers[2], opts).str(), base.str());
    EXPECT_EQ(std::bit_cast<double>(sparse.weightSparsity),
              std::bit_cast<double>(
                  weightKey(net, net.layers[1], sparse).sparsityBits));
}

TEST(BankFile, RoundTripsAndRefusesAnotherKey)
{
    const WeightKey key = freshKey("file");
    const auto bank = synthesizeBank(key);
    std::stringstream ss;
    saveBank(*bank, ss);
    const std::string wire = ss.str();

    std::stringstream in(wire);
    const auto back = loadBank(in, key);
    EXPECT_EQ(back->weights(), bank->weights());
    EXPECT_EQ(back->fracBits(), bank->fracBits());
    ASSERT_NE(back->key(), nullptr);
    EXPECT_EQ(*back->key(), key);

    WeightKey other = key;
    other.weightSeed += 1;
    std::stringstream wrong(wire);
    EXPECT_THROW(loadBank(wrong, other), std::runtime_error);

    std::string flipped = wire;
    flipped[flipped.size() / 2] ^= 0x01;
    std::stringstream corrupt(flipped);
    EXPECT_THROW(loadBank(corrupt, key), std::runtime_error);

    // A hand-built bank has no key, so it has no file either.
    std::stringstream sink;
    EXPECT_THROW(saveBank(WeightBank(bank->weights(), 0), sink),
                 std::invalid_argument);
}

} // namespace
} // namespace diffy

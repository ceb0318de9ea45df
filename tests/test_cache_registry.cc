/**
 * @file
 * Tests for the thread-local cache-clear registry: every production
 * memo cache is registered, hooks actually run, registration is
 * idempotent, and clearing then recomputing reproduces identical
 * results (the property SweepScheduler::run() relies on).
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "common/cache_registry.hh"
#include "encode/footprint.hh"
#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/models.hh"
#include "sim/pra.hh"
#include "sim/runner.hh"

namespace diffy
{
namespace
{

int g_test_hook_runs = 0;

void
bumpTestHook()
{
    ++g_test_hook_runs;
}

bool
hasName(const std::vector<std::string> &names, const std::string &want)
{
    return std::find(names.begin(), names.end(), want) != names.end();
}

TEST(CacheRegistry, AllProductionCachesAreRegistered)
{
    // The thread_local caches in the tree (diffy-lint rule R2 keeps
    // this list honest: a new cache cannot land unregistered). Weights
    // live in the process-wide WeightStore, not in a per-thread memo.
    std::vector<std::string> names = registeredThreadCacheNames();
    EXPECT_TRUE(hasName(names, "obs_metric_shards"));
    EXPECT_TRUE(hasName(names, "common_pool_scratch"));
    EXPECT_FALSE(hasName(names, "nn_executor_prepared_weights"));
    EXPECT_GE(registeredThreadCacheCount(), 2u);
    EXPECT_EQ(registeredThreadCacheCount(), names.size());
}

TEST(CacheRegistry, ClearRunsHooksAndRegistrationIsIdempotent)
{
    ASSERT_TRUE(registerThreadCacheClear("test_hook", bumpTestHook));
    const std::size_t count = registeredThreadCacheCount();
    // Re-registering the same (name, fn) pair is a no-op.
    ASSERT_TRUE(registerThreadCacheClear("test_hook", bumpTestHook));
    EXPECT_EQ(registeredThreadCacheCount(), count);

    const int before = g_test_hook_runs;
    clearRegisteredThreadCaches();
    EXPECT_EQ(g_test_hook_runs, before + 1);
}

TEST(CacheRegistry, ClearThenRecomputeIsByteIdentical)
{
    SceneParams p;
    p.kind = SceneKind::Nature;
    p.width = 24;
    p.height = 24;
    p.seed = 71;
    NetworkTrace trace = runNetwork(makeDnCnn(), renderScene(p));
    const double warm_bits =
        measureFootprint(trace, Compression::DeltaD16).totalBits();
    LayerComputeStats warm = simulateTermSerialLayer(
        trace.layers[0], defaultDiffyConfig(), true, WalkCost::BoothTerms);

    // A registry-wide clear plus a copy of the trace (a copy has no
    // layer facts) recomputes everything, to the exact same numbers —
    // what makes the sweep scheduler's setup-time clear safe.
    clearRegisteredThreadCaches();
    const NetworkTrace cold = trace;
    EXPECT_EQ(measureFootprint(cold, Compression::DeltaD16).totalBits(),
              warm_bits);
    LayerComputeStats again = simulateTermSerialLayer(
        cold.layers[0], defaultDiffyConfig(), true, WalkCost::BoothTerms);
    EXPECT_EQ(again.computeCycles, warm.computeCycles);
    EXPECT_EQ(again.usefulSlots, warm.usefulSlots);
}

} // namespace
} // namespace diffy

/**
 * @file
 * Tests for the parallel execution runtime: thread pool lifecycle and
 * exception capture, sweep-scheduler determinism (byte-identical
 * reduction at any thread count), deterministic exception selection,
 * and concurrent same-key stores of the trace cache.
 *
 * These tests are built into their own binary (diffy_runtime_tests) so
 * the ThreadSanitizer CI job can run exactly the concurrency surface.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/trace_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/sweep.hh"
#include "runtime/thread_pool.hh"

namespace diffy
{
namespace
{

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ShutdownCompletesPendingJobs)
{
    std::atomic<int> count{0};
    {
        // Two workers, many slow-ish jobs: most of the queue is still
        // pending when the destructor runs. Graceful shutdown must
        // drain it, not drop it.
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                ++count;
            });
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, WaitRethrowsJobException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("job blew up"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: the pool stays usable afterwards.
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ShutdownDrainCapturesThrowingJobs)
{
    // Regression: a job throwing while the destructor drains the queue
    // used to be indistinguishable from a steady-state throw only by
    // luck — if capture ever moved inside the pre-drain path, the
    // exception would escape a joined worker and std::terminate. The
    // pool must survive, and an exception still pending at destruction
    // (the owner never called wait()) is dropped but counted.
    auto &reg = obs::MetricsRegistry::instance();
    const std::uint64_t dropped0 =
        reg.counter("thread_pool.dropped_exceptions").value();
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                ++ran;
                throw std::runtime_error("throw during drain");
            });
        // No wait(): destruction drains the queue while jobs throw.
    }
    EXPECT_EQ(ran.load(), 32);
    EXPECT_EQ(reg.counter("thread_pool.dropped_exceptions").value() -
                  dropped0,
              1u);
}

TEST(ThreadPool, RejectsNonPositiveThreadCount)
{
    EXPECT_THROW(ThreadPool(0), std::invalid_argument);
    EXPECT_THROW(ThreadPool(-2), std::invalid_argument);
}

// ----------------------------------------------------------- scheduler

/**
 * A deterministic stand-in workload: every job draws from its own
 * seeded RNG and does a little arithmetic, so any cross-thread state
 * leakage or order dependence changes the rendered table.
 */
std::string
renderSweepTable(int threads, std::size_t jobs)
{
    SweepScheduler scheduler(threads, /*baseSeed=*/42);
    std::vector<double> values =
        scheduler.map(jobs, [](SweepJob &job) {
            double v = 0.0;
            for (int i = 0; i < 16; ++i)
                v += job.rng.uniform();
            return v + static_cast<double>(job.index);
        });
    TextTable table("sweep");
    table.setHeader({"job", "value"});
    for (std::size_t i = 0; i < values.size(); ++i)
        table.addRow({std::to_string(i), TextTable::num(values[i], 6)});
    return table.render();
}

TEST(SweepScheduler, TableBytesIdenticalAcrossThreadCounts)
{
    std::string serial = renderSweepTable(1, 48);
    EXPECT_EQ(renderSweepTable(2, 48), serial);
    EXPECT_EQ(renderSweepTable(8, 48), serial);
}

TEST(SweepScheduler, JobSeedsAreStableAndDistinct)
{
    EXPECT_EQ(SweepScheduler::jobSeed(7, 3), SweepScheduler::jobSeed(7, 3));
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 1000; ++i)
        seeds.insert(SweepScheduler::jobSeed(7, i));
    EXPECT_EQ(seeds.size(), 1000u);
    EXPECT_NE(SweepScheduler::jobSeed(7, 0), SweepScheduler::jobSeed(8, 0));
}

TEST(SweepScheduler, LowestIndexExceptionWins)
{
    for (int threads : {1, 4}) {
        SweepScheduler scheduler(threads);
        try {
            scheduler.forEach(32, [](SweepJob &job) {
                // Several jobs fail; which one runs first depends on
                // scheduling, but the rethrown error must not.
                if (job.index == 5 || job.index == 13 || job.index == 27)
                    throw std::runtime_error(
                        "boom at job " + std::to_string(job.index));
            });
            FAIL() << "expected an exception at " << threads << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom at job 5")
                << "at " << threads << " threads";
        }
    }
}

TEST(SweepScheduler, RecordsTimingCounters)
{
    SweepScheduler scheduler(2);
    scheduler.forEach(8, [](SweepJob &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    const SweepStats stats = scheduler.stats();
    EXPECT_EQ(stats.jobs, 8u);
    EXPECT_EQ(stats.threads, 2);
    EXPECT_GT(stats.wallSeconds, 0.0);
    EXPECT_GE(stats.busySeconds, 8 * 0.001);
    EXPECT_GE(stats.maxJobSeconds, stats.minJobSeconds);
    EXPECT_GE(stats.queueWaitSeconds, 0.0);
}

TEST(SweepScheduler, StatsAreARegistryView)
{
    // The per-run sweep histograms back stats(): the registry must
    // agree with the struct, and the next run() must reset them.
    SweepScheduler scheduler(1);
    scheduler.forEach(5, [](SweepJob &) {});
    auto &reg = obs::MetricsRegistry::instance();
    EXPECT_EQ(reg.histogram("sweep.job_seconds").snapshot().stat.count(),
              5u);
    EXPECT_EQ(scheduler.stats().jobs, 5u);

    scheduler.forEach(3, [](SweepJob &) {});
    EXPECT_EQ(reg.histogram("sweep.job_seconds").snapshot().stat.count(),
              3u);
    EXPECT_EQ(scheduler.stats().jobs, 3u);
    // The cumulative counter keeps the running total across runs.
    EXPECT_GE(reg.counter("sweep.jobs").value(), 8u);
}

TEST(SweepScheduler, TracingPreservesTableBytes)
{
    // The fig11 determinism gate with tracing enabled, in miniature:
    // the rendered table must not change when the global tracer is
    // recording, at 1 thread or several.
    std::string plain = renderSweepTable(1, 32);

    const std::string path =
        testing::TempDir() + "sweep_trace_test.json";
    obs::Tracer::global().configure(path);
    std::string traced1 = renderSweepTable(1, 32);
    std::string traced4 = renderSweepTable(4, 32);
    obs::Tracer::global().configure(""); // flush + disable

    EXPECT_EQ(traced1, plain);
    EXPECT_EQ(traced4, plain);

    // And the trace actually recorded the per-job spans.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("sweep.job"), std::string::npos);
    std::remove(path.c_str());
}

TEST(SweepScheduler, ResolveThreadCountValidates)
{
    EXPECT_EQ(SweepScheduler::resolveThreadCount(3), 3);
    EXPECT_THROW(SweepScheduler::resolveThreadCount(-1),
                 std::invalid_argument);
    EXPECT_THROW(SweepScheduler::resolveThreadCount(kMaxSweepThreads + 1),
                 std::invalid_argument);

    ::setenv("DIFFY_THREADS", "5", 1);
    EXPECT_EQ(SweepScheduler::resolveThreadCount(0), 5);
    // An explicit request wins over the environment.
    EXPECT_EQ(SweepScheduler::resolveThreadCount(2), 2);
    ::setenv("DIFFY_THREADS", "zero", 1);
    EXPECT_THROW(SweepScheduler::resolveThreadCount(0),
                 std::invalid_argument);
    ::setenv("DIFFY_THREADS", "-4", 1);
    EXPECT_THROW(SweepScheduler::resolveThreadCount(0),
                 std::invalid_argument);
    ::unsetenv("DIFFY_THREADS");
    EXPECT_EQ(SweepScheduler::resolveThreadCount(0), 1);
}

// --------------------------------------------------------- trace cache

/** Tiny network/scene pair so stub traces stay cheap. */
SceneParams
testScene(int seed)
{
    SceneParams scene;
    scene.width = 16;
    scene.height = 16;
    scene.seed = static_cast<std::uint64_t>(seed);
    return scene;
}

TEST(TraceCacheConcurrent, SameKeyWritersPublishOneFile)
{
    // One directory per test process (ctest runs tests in parallel).
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "diffy_trace_cache_same_key_writers";
    std::filesystem::remove_all(dir);
    std::atomic<int> traceCalls{0};
    TraceCache cache(dir.string(), [&traceCalls](const NetworkSpec &,
                                                 const SceneParams &scene,
                                                 const ExecutorOptions &) {
        // Stretch the computation so several workers trace the same
        // key at once and race their stores. Each call fills a 1 MiB
        // imap with its own value, so writers sharing one temp file
        // would interleave into an entry that fails its CRC.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        NetworkTrace trace;
        trace.network = "stub";
        trace.frameHeight = scene.height;
        trace.frameWidth = scene.width;
        LayerTrace layer;
        layer.imap = TensorI16(128, 64, 64,
                               static_cast<std::int16_t>(++traceCalls));
        trace.layers.push_back(std::move(layer));
        return trace;
    });

    NetworkSpec net = makeIrCnn();
    {
        ThreadPool pool(8);
        // Repeated gets make early finishers read the published entry
        // while slower workers are still storing theirs.
        for (int i = 0; i < 8; ++i)
            pool.submit([&] {
                for (int round = 0; round < 8; ++round) {
                    NetworkTrace t = cache.get(net, testScene(1));
                    EXPECT_EQ(t.network, "stub");
                    EXPECT_EQ(t.frameWidth, 16);
                }
            });
        pool.wait();
    }

    // Every writer renamed its own temp file over the one entry: no
    // temp is left behind and no torn file was ever quarantined. The
    // other entries are the bank files of the key network's layers.
    int traces = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::filesystem::path ext = entry.path().extension();
        EXPECT_TRUE(ext == ".trace" || ext == ".weights") << entry.path();
        traces += ext == ".trace";
    }
    EXPECT_EQ(traces, 1);

    // The published entry is whole: it loads without an eviction.
    auto &reg = obs::MetricsRegistry::instance();
    const std::uint64_t loads0 = reg.counter("trace_cache.disk_loads").value();
    const std::uint64_t evictions0 =
        reg.counter("trace_cache.corrupt_evictions").value();
    EXPECT_EQ(cache.get(net, testScene(1)).network, "stub");
    EXPECT_EQ(reg.counter("trace_cache.disk_loads").value() - loads0, 1u);
    EXPECT_EQ(reg.counter("trace_cache.corrupt_evictions").value(),
              evictions0);
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheConcurrent, FailedTraceIsNotCached)
{
    std::atomic<int> traceCalls{0};
    TraceCache cache("", [&traceCalls](const NetworkSpec &,
                                       const SceneParams &,
                                       const ExecutorOptions &)
                         -> NetworkTrace {
        if (++traceCalls == 1)
            throw std::runtime_error("transient trace failure");
        NetworkTrace trace;
        trace.network = "recovered";
        return trace;
    });
    NetworkSpec net = makeIrCnn();
    EXPECT_THROW(cache.get(net, testScene(1)), std::runtime_error);
    // Nothing of the failure was kept: the next get traces again.
    EXPECT_EQ(cache.get(net, testScene(1)).network, "recovered");
    EXPECT_EQ(traceCalls.load(), 2);
}

// ------------------------------------------------- end-to-end sweeps

TEST(TraceSuiteParallel, MatchesSerialTraces)
{
    ExperimentParams params;
    params.crop = 24;
    params.scenes = 2;
    params.cacheDir = ""; // hermetic: no disk cache
    params.threads = 1;
    auto serial = traceSuite({makeIrCnn()}, params);
    params.threads = 4;
    auto parallel = traceSuite({makeIrCnn()}, params);

    ASSERT_EQ(parallel.size(), serial.size());
    ASSERT_EQ(parallel[0].traces.size(), serial[0].traces.size());
    for (std::size_t si = 0; si < serial[0].traces.size(); ++si) {
        const NetworkTrace &a = serial[0].traces[si];
        const NetworkTrace &b = parallel[0].traces[si];
        ASSERT_EQ(a.layers.size(), b.layers.size());
        for (std::size_t li = 0; li < a.layers.size(); ++li)
            EXPECT_EQ(a.layers[li].imap, b.layers[li].imap)
                << "scene " << si << " layer " << li;
    }
}

TEST(SweepCells, ReducesInCellOrder)
{
    ExperimentParams params;
    params.threads = 4;
    std::vector<std::size_t> cells =
        sweepCells(params, 64, [](SweepJob &job) { return job.index; });
    ASSERT_EQ(cells.size(), 64u);
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i], i);
}

} // namespace
} // namespace diffy

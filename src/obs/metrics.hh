/**
 * @file
 * Process-wide metrics registry: counters, gauges and latency
 * histograms registered by name.
 *
 * Design (DESIGN.md §11): instrumentation sites grab a metric handle
 * once (`MetricsRegistry::instance().counter("trace_cache.misses")`) and
 * record through it on the hot path. Each counter/histogram keeps one
 * shard per recording thread — allocated lazily through a thread-local
 * cache (the same idiom as `common/cache_registry`) — so recording
 * never contends on a shared cache line; `snapshot()` merges the
 * shards. A thread's shards pass to the metric's next new recording
 * thread when it exits, so the shard count is bounded by the most
 * threads ever recording at once. Handles are stable for the process lifetime: the registry is
 * a singleton and never deletes a metric.
 *
 * Recording honours a global enable switch. Metrics are ON by default
 * (a relaxed atomic increment per event is noise next to the work being
 * measured); `MetricsRegistry::setEnabled(false)` turns every record
 * call into an early return that performs **zero allocations** — no
 * shard is ever created for a disabled recording.
 *
 * Reporting is pull-based: `snapshot()` returns plain data and
 * `writeJson()` serializes it. Nothing in this layer ever writes to
 * stdout — the determinism contract reserves stdout for bench tables
 * (stderr and files only).
 */

#ifndef DIFFY_OBS_METRICS_HH
#define DIFFY_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace diffy::obs
{

/** Monotonic event/amount counter, sharded per recording thread. */
class Counter
{
  public:
    /** Add @p n. No-op (and no allocation) while metrics are disabled. */
    void add(std::uint64_t n = 1);

    /** Sum over all shards. */
    std::uint64_t value() const;

    /** Zero every shard (the shards themselves are kept). */
    void reset();

    /** Number of per-thread shards allocated so far (tests). */
    std::size_t shardCount() const;

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

  private:
    friend class MetricsRegistry;
    Counter() = default;

    struct Shard
    {
        std::atomic<std::uint64_t> value{0};
    };
    Shard &shard();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<void *> spare_; ///< shards no live thread holds
};

/** Last-write-wins scalar (thread counts, wall seconds, ...). */
class Gauge
{
  public:
    void set(double v);
    double value() const;

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

  private:
    friend class MetricsRegistry;
    Gauge() = default;

    std::atomic<double> value_{0.0};
};

/**
 * Latency distribution: a merged RunningStat (count/sum/mean/min/max,
 * reusing common/stats.hh) plus a power-of-two histogram over
 * nanoseconds (bucket k holds samples with bit_width(ns) == k).
 * Sharded per recording thread like Counter.
 */
class LatencyHistogram
{
  public:
    struct Snapshot
    {
        RunningStat stat;
        /** Samples bucketed by bit_width of their nanosecond value. */
        Histogram log2Nanos;
    };

    /** Record one sample. No-op while metrics are disabled. */
    void record(double seconds);

    /** Merge every shard. Count/sum/min/max and the integer buckets
     *  are exact regardless of shard order. */
    Snapshot snapshot() const;

    /** Drop all recorded samples (shards are kept). */
    void reset();

    /** Number of per-thread shards allocated so far (tests). */
    std::size_t shardCount() const;

    LatencyHistogram(const LatencyHistogram &) = delete;
    LatencyHistogram &operator=(const LatencyHistogram &) = delete;

  private:
    friend class MetricsRegistry;
    LatencyHistogram() = default;

    struct Shard
    {
        std::mutex mutex; ///< owner-thread writes vs. rare snapshots
        RunningStat stat;
        Histogram buckets;
    };
    Shard &shard();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<void *> spare_; ///< shards no live thread holds
};

/** Plain-data view of every registered metric at one point in time. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, LatencyHistogram::Snapshot> histograms;
};

/** Process-wide registry. Metrics live for the process lifetime. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Find-or-create; the returned reference never dangles. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &histogram(const std::string &name);

    /** Merge every metric's shards into plain data. */
    MetricsSnapshot snapshot() const;

    /** Global record switch (ON by default; see file comment). */
    static bool enabled();
    static void setEnabled(bool on);

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/**
 * RAII timer recording its own lifetime into a LatencyHistogram.
 * Timing is read here, inside src/obs, so instrumented code never
 * touches a clock directly (lint rule R6).
 */
class ScopedLatency
{
  public:
    explicit ScopedLatency(LatencyHistogram &hist);
    ~ScopedLatency();

    ScopedLatency(const ScopedLatency &) = delete;
    ScopedLatency &operator=(const ScopedLatency &) = delete;

  private:
    LatencyHistogram *hist_; ///< null when metrics are disabled
    std::uint64_t startNs_ = 0;
};

/**
 * RAII timer adding its lifetime, in whole microseconds, to a Counter
 * unless dismissed first. Like ScopedLatency, it keeps the clock read
 * inside src/obs (lint rule R6).
 */
class ScopedMicros
{
  public:
    explicit ScopedMicros(Counter &counter);
    ~ScopedMicros();

    ScopedMicros(const ScopedMicros &) = delete;
    ScopedMicros &operator=(const ScopedMicros &) = delete;

    /** Record nothing when the scope ends. */
    void dismiss() { counter_ = nullptr; }

  private:
    Counter *counter_; ///< null when metrics are disabled or dismissed
    std::uint64_t startNs_ = 0;
};

/** Serialize a snapshot as JSON (counters/gauges/histograms objects). */
void writeJson(const MetricsSnapshot &snapshot, std::ostream &os);

/**
 * Arrange for a registry snapshot to be written to @p path when the
 * process exits (the shared bench CLI's --metrics-out). The last call
 * wins; an empty path cancels the dump.
 */
void dumpMetricsOnExit(const std::string &path);

} // namespace diffy::obs

#endif // DIFFY_OBS_METRICS_HH

#include "obs/metrics.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <unordered_map>

#include "common/cache_registry.hh"

namespace diffy::obs
{

namespace
{

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{true};
    return flag;
}

/**
 * Thread-local shard cache: metric address -> this thread's shard and
 * where to hand it back (the metric's lock and spares). Shards are owned by the metric
 * (they must outlive worker threads so snapshots after a sweep still
 * see their data); this map only avoids the registry lock on the hot
 * path. When the thread exits, or the sweep-setup clear runs, every
 * shard goes back to its metric, whose next new recording thread
 * reuses it (its data stays in the sums), so thread churn does not
 * grow memory.
 */
struct ShardCache
{
    struct Entry
    {
        void *shard = nullptr;
        std::mutex *mutex = nullptr;
        std::vector<void *> *spare = nullptr;
    };
    std::unordered_map<const void *, Entry> entries;

    ~ShardCache() { clear(); }

    void
    clear()
    {
        for (const auto &[metric, entry] : entries) {
            std::lock_guard<std::mutex> lock(*entry.mutex);
            entry.spare->push_back(entry.shard);
        }
        entries.clear();
    }
};

ShardCache &
shardCache()
{
    thread_local ShardCache cache;
    return cache;
}

void
clearShardCache()
{
    shardCache().clear();
}

/** This thread's shard of a metric: its cached one, a spare, or new. */
template <typename Shard>
Shard &
threadShard(const void *metric, std::mutex &mutex,
            std::vector<std::unique_ptr<Shard>> &shards,
            std::vector<void *> &spare)
{
    ShardCache::Entry &entry = shardCache().entries[metric];
    if (entry.shard == nullptr) {
        std::lock_guard<std::mutex> lock(mutex);
        if (spare.empty()) {
            shards.push_back(std::make_unique<Shard>());
            spare.push_back(shards.back().get());
        }
        entry = {spare.back(), &mutex, &spare};
        spare.pop_back();
    }
    return *static_cast<Shard *>(entry.shard);
}

DIFFY_REGISTER_THREAD_CACHE(obs_metric_shards, clearShardCache);

std::uint64_t
monotonicNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Power-of-two bucket for a latency sample: bit_width of its nanos. */
std::int64_t
log2NanosBucket(double seconds)
{
    if (!(seconds > 0.0))
        return 0;
    const double nanos = seconds * 1e9;
    // Clamp: anything above ~292 years of nanoseconds is a bug, not a
    // latency; keep the cast defined.
    if (nanos >= 9.2e18)
        return 64;
    return static_cast<std::int64_t>(
        std::bit_width(static_cast<std::uint64_t>(nanos)));
}

} // namespace

/* ------------------------------------------------------------------ */
/* Counter                                                             */
/* ------------------------------------------------------------------ */

Counter::Shard &
Counter::shard()
{
    return threadShard(this, mutex_, shards_, spare_);
}

void
Counter::add(std::uint64_t n)
{
    if (!MetricsRegistry::enabled())
        return;
    shard().value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
Counter::value() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->value.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_)
        shard->value.store(0, std::memory_order_relaxed);
}

std::size_t
Counter::shardCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

/* ------------------------------------------------------------------ */
/* Gauge                                                               */
/* ------------------------------------------------------------------ */

void
Gauge::set(double v)
{
    if (!MetricsRegistry::enabled())
        return;
    value_.store(v, std::memory_order_relaxed);
}

double
Gauge::value() const
{
    return value_.load(std::memory_order_relaxed);
}

/* ------------------------------------------------------------------ */
/* LatencyHistogram                                                    */
/* ------------------------------------------------------------------ */

LatencyHistogram::Shard &
LatencyHistogram::shard()
{
    return threadShard(this, mutex_, shards_, spare_);
}

void
LatencyHistogram::record(double seconds)
{
    if (!MetricsRegistry::enabled())
        return;
    Shard &s = shard();
    // Uncontended in steady state: only the owning thread records; a
    // snapshot or reset takes the lock briefly and rarely.
    std::lock_guard<std::mutex> lock(s.mutex);
    s.stat.add(seconds);
    s.buckets.add(log2NanosBucket(seconds));
}

LatencyHistogram::Snapshot
LatencyHistogram::snapshot() const
{
    Snapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shardLock(shard->mutex);
        out.stat.merge(shard->stat);
        out.log2Nanos.merge(shard->buckets);
    }
    return out;
}

void
LatencyHistogram::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shardLock(shard->mutex);
        shard->stat = RunningStat{};
        shard->buckets = Histogram{};
    }
}

std::size_t
LatencyHistogram::shardCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

/* ------------------------------------------------------------------ */
/* MetricsRegistry                                                     */
/* ------------------------------------------------------------------ */

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot.reset(new Counter());
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot.reset(new Gauge());
    return *slot;
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot.reset(new LatencyHistogram());
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    // Copy the handle lists under the registry lock, then merge each
    // metric outside it — metric merges take per-metric locks and must
    // not nest inside the registry lock held by a concurrent
    // find-or-create.
    std::vector<std::pair<std::string, const Counter *>> counters;
    std::vector<std::pair<std::string, const Gauge *>> gauges;
    std::vector<std::pair<std::string, const LatencyHistogram *>> hists;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, metric] : counters_)
            counters.emplace_back(name, metric.get());
        for (const auto &[name, metric] : gauges_)
            gauges.emplace_back(name, metric.get());
        for (const auto &[name, metric] : histograms_)
            hists.emplace_back(name, metric.get());
    }
    for (const auto &[name, metric] : counters)
        out.counters[name] = metric->value();
    for (const auto &[name, metric] : gauges)
        out.gauges[name] = metric->value();
    for (const auto &[name, metric] : hists)
        out.histograms[name] = metric->snapshot();
    return out;
}

bool
MetricsRegistry::enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
MetricsRegistry::setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

/* ------------------------------------------------------------------ */
/* ScopedLatency                                                       */
/* ------------------------------------------------------------------ */

ScopedLatency::ScopedLatency(LatencyHistogram &hist)
    : hist_(MetricsRegistry::enabled() ? &hist : nullptr)
{
    if (hist_ != nullptr)
        startNs_ = monotonicNanos();
}

ScopedLatency::~ScopedLatency()
{
    if (hist_ != nullptr)
        hist_->record(
            static_cast<double>(monotonicNanos() - startNs_) * 1e-9);
}

ScopedMicros::ScopedMicros(Counter &counter)
    : counter_(MetricsRegistry::enabled() ? &counter : nullptr)
{
    if (counter_ != nullptr)
        startNs_ = monotonicNanos();
}

ScopedMicros::~ScopedMicros()
{
    if (counter_ != nullptr)
        counter_->add((monotonicNanos() - startNs_) / 1000);
}

/* ------------------------------------------------------------------ */
/* JSON snapshot                                                       */
/* ------------------------------------------------------------------ */

namespace
{

void
appendJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
appendJsonNumber(std::ostream &os, double v)
{
    // JSON has no NaN/Inf; clamp to null-adjacent zero (metrics are
    // durations and counts, so non-finite means "nothing recorded").
    if (!std::isfinite(v)) {
        os << 0;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

} // namespace

void
writeJson(const MetricsSnapshot &snapshot, std::ostream &os)
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : snapshot.counters) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        appendJsonString(os, name);
        os << ": " << value;
    }
    os << (first ? "}" : "\n  }");
    os << ",\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : snapshot.gauges) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        appendJsonString(os, name);
        os << ": ";
        appendJsonNumber(os, value);
    }
    os << (first ? "}" : "\n  }");
    os << ",\n  \"histograms\": {";
    first = true;
    for (const auto &[name, hist] : snapshot.histograms) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        appendJsonString(os, name);
        os << ": {\"count\": " << hist.stat.count() << ", \"sum\": ";
        appendJsonNumber(os, hist.stat.sum());
        os << ", \"mean\": ";
        appendJsonNumber(os, hist.stat.mean());
        os << ", \"min\": ";
        appendJsonNumber(os, hist.stat.min());
        os << ", \"max\": ";
        appendJsonNumber(os, hist.stat.max());
        os << ", \"log2_nanos\": {";
        bool firstBucket = true;
        for (const auto &[bucket, count] : hist.log2Nanos.bins()) {
            if (!firstBucket)
                os << ", ";
            firstBucket = false;
            appendJsonString(os, std::to_string(bucket));
            os << ": " << count;
        }
        os << "}}";
    }
    os << (first ? "}" : "\n  }");
    os << "\n}\n";
}

/* ------------------------------------------------------------------ */
/* Exit-time dump (--metrics-out)                                      */
/* ------------------------------------------------------------------ */

namespace
{

std::mutex dumpMutex;
std::string dumpPath; // guarded by dumpMutex

void
dumpRegisteredMetrics()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(dumpMutex);
        path = dumpPath;
    }
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out)
        return; // exit path: nothing sensible to do about I/O errors
    writeJson(MetricsRegistry::instance().snapshot(), out);
}

} // namespace

void
dumpMetricsOnExit(const std::string &path)
{
    // Touch the registry first: the atexit handler must be registered
    // *after* the registry singleton is constructed so it runs before
    // the registry's static destruction.
    MetricsRegistry::instance();
    static bool registered = [] {
        std::atexit(dumpRegisteredMetrics);
        return true;
    }();
    (void)registered;
    std::lock_guard<std::mutex> lock(dumpMutex);
    dumpPath = path;
}

} // namespace diffy::obs

#include "runtime/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/cache_registry.hh"
#include "obs/metrics.hh"
#include "obs/pool_gauges.hh"
#include "obs/trace.hh"
#include "runtime/thread_pool.hh"

namespace diffy
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** splitmix64 step (same constants as common/rng.cc). */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

int
checkedThreadCount(long value, const std::string &source)
{
    if (value <= 0)
        throw std::invalid_argument(
            "threads: must be a positive integer (" + source + ")");
    if (value > kMaxSweepThreads)
        throw std::invalid_argument(
            "threads: " + std::to_string(value) + " exceeds the limit of " +
            std::to_string(kMaxSweepThreads) + " (" + source + ")");
    return static_cast<int>(value);
}

/**
 * Registry handles for the sweep metrics, resolved once. The
 * `job_seconds` / `queue_wait_seconds` histograms are per-run (reset
 * at each run() start — SweepStats reads them back); the counters
 * accumulate across sweeps for --metrics-out.
 */
struct SweepMetrics
{
    obs::LatencyHistogram &jobSeconds;
    obs::LatencyHistogram &queueWait;
    obs::Counter &jobs;
    obs::Counter &busyMicros;
    obs::Counter &queueWaitMicros;
    obs::Counter &jobRetries;
    obs::Counter &jobTimeouts;
    obs::Counter &jobsQuarantined;
    obs::Gauge &wallSeconds;
    obs::Gauge &threads;
};

SweepMetrics &
sweepMetrics()
{
    auto &reg = obs::MetricsRegistry::instance();
    static SweepMetrics metrics{
        reg.histogram("sweep.job_seconds"),
        reg.histogram("sweep.queue_wait_seconds"),
        reg.counter("sweep.jobs"),
        reg.counter("sweep.busy_micros"),
        reg.counter("sweep.queue_wait_micros"),
        reg.counter("sweep.job_retries"),
        reg.counter("sweep.job_timeouts"),
        reg.counter("sweep.jobs_quarantined"),
        reg.gauge("sweep.wall_seconds"),
        reg.gauge("sweep.threads"),
    };
    return metrics;
}

/** Per-taxonomy-bucket failure counter (`sweep.errors.<kind>`). */
obs::Counter &
errorCounter(FailureKind kind)
{
    return obs::MetricsRegistry::instance().counter("sweep.errors." +
                                                    to_string(kind));
}

std::uint64_t
micros(double seconds)
{
    return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e6) : 0;
}

} // namespace

SweepScheduler::SweepScheduler(int threads, std::uint64_t baseSeed)
    : threads_(resolveThreadCount(threads)), baseSeed_(baseSeed),
      arenas_(std::make_unique<ArenaRoster>())
{
    // One arena per worker, each already holding its first slab: at
    // most threads_ jobs run at once, so every lease is a recycled
    // arena with scratch ready, whatever concurrency a sweep reaches.
    for (int i = 0; i < threads_; ++i) {
        auto arena = std::make_unique<FrameArena>(arenas_->pool);
        arena->allocate(0, kBufferAlign);
        arena->rewind();
        arenas_->freeArenas.push_back(std::move(arena));
    }
}

int
SweepScheduler::resolveThreadCount(int requested)
{
    if (requested != 0)
        return checkedThreadCount(requested, "requested");
    const char *env = std::getenv("DIFFY_THREADS");
    if (env == nullptr || *env == '\0')
        return 1;
    char *end = nullptr;
    long value = std::strtol(env, &end, 10);
    if (end == env || *end != '\0')
        throw std::invalid_argument(
            "threads: DIFFY_THREADS=\"" + std::string(env) +
            "\" is not an integer");
    return checkedThreadCount(value, "DIFFY_THREADS");
}

std::uint64_t
SweepScheduler::jobSeed(std::uint64_t baseSeed, std::size_t index)
{
    // Two splitmix64 rounds give every (baseSeed, index) pair an
    // avalanche-mixed, collision-resistant stream seed.
    std::uint64_t state = baseSeed;
    splitmix64(state);
    state ^= static_cast<std::uint64_t>(index);
    return splitmix64(state);
}

SweepStats
SweepScheduler::stats() const
{
    SweepMetrics &m = sweepMetrics();
    SweepStats out;
    out.threads = threads_;
    obs::LatencyHistogram::Snapshot jobs = m.jobSeconds.snapshot();
    obs::LatencyHistogram::Snapshot waits = m.queueWait.snapshot();
    out.jobs = jobs.stat.count();
    out.busySeconds = jobs.stat.sum();
    out.minJobSeconds = jobs.stat.min();
    out.maxJobSeconds = jobs.stat.max();
    out.queueWaitSeconds = waits.stat.sum();
    out.wallSeconds = m.wallSeconds.value();
    return out;
}

void
SweepScheduler::run(std::size_t jobCount,
                    const std::function<void(SweepJob &)> &body)
{
    SweepMetrics &metrics = sweepMetrics();
    // Per-run view: stats() reports the most recent sweep only.
    metrics.jobSeconds.reset();
    metrics.queueWait.reset();
    metrics.wallSeconds.set(0.0);
    metrics.threads.set(threads_);
    report_ = SweepReport{};
    report_.mode = policy_.mode;
    report_.jobs = jobCount;
    if (jobCount == 0)
        return;

    // Sweep setup: reset the calling thread's registered memo caches
    // so no stale entry survives a reconfiguration between sweeps. The
    // pool path spawns fresh workers per run(), whose thread_local
    // caches start empty; the serial inline path reuses this thread,
    // which is exactly where leftovers could hide.
    clearRegisteredThreadCaches();

    Clock::time_point sweepStart = Clock::now();
    // Submission timestamps for queue-wait attribution; slot i is
    // written before job i is submitted and read only by job i.
    std::vector<Clock::time_point> submitTimes(jobCount, sweepStart);
    std::vector<CellOutcome> outcomes(jobCount);
    // Jobs actually attempted (the fail_fast serial path stops early;
    // unattempted cells belong in no report bucket).
    std::vector<char> attempted(jobCount, 0);
    // Final (post-retry) errors, for the fail_fast rethrow.
    std::vector<std::exception_ptr> finalErrors(jobCount);

    const double deadlineSeconds =
        policy_.jobTimeoutMs > 0 ? policy_.jobTimeoutMs / 1000.0 : 0.0;
    const int maxAttempts = 1 + std::max(0, policy_.maxRetries);

    // Watchdog bookkeeping. attemptStart[i] holds 1 + nanoseconds
    // since sweepStart of job i's running attempt (0 = idle); the
    // latch makes the mid-flight watchdog and the retire-time check
    // bump `sweep.job_timeouts` exactly once per overrunning job.
    // Only the retire-time elapsed check decides quarantine — the
    // watchdog provides live observability, never behaviour, so the
    // outcome cannot depend on the watchdog's scan phase.
    std::vector<std::atomic<std::int64_t>> attemptStart(jobCount);
    std::vector<std::atomic<bool>> overrunCounted(jobCount);

    auto nanosSinceSweepStart = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - sweepStart)
            .count();
    };

    auto noteOverrun = [&](std::size_t index) {
        if (!overrunCounted[index].exchange(true))
            metrics.jobTimeouts.add(1);
    };

    auto runJob = [&](std::size_t index, bool pooled) {
        CellOutcome &out = outcomes[index];
        out.index = index;
        attempted[index] = 1;
        Clock::time_point firstStart = Clock::now();
        double queueWait =
            pooled ? std::chrono::duration<double>(firstStart -
                                                   submitTimes[index])
                         .count()
                   : 0.0;
        // Backoff jitter stream: separate namespace from the job's
        // value stream so adding retries never perturbs results.
        std::uint64_t backoffState =
            jobSeed(baseSeed_ ^ 0xC2B2AE3D27D4EB4FULL, index);

        // Per-job arena lease: slabs recycled across jobs through
        // freeArenas_, returned on every exit path below.
        std::unique_ptr<FrameArena> arenaLease = acquireArena();
        struct LeaseReturn
        {
            SweepScheduler &sched;
            std::unique_ptr<FrameArena> &arena;
            ~LeaseReturn() { sched.releaseArena(std::move(arena)); }
        } leaseReturn{*this, arenaLease};

        for (int attempt = 0; attempt < maxAttempts; ++attempt) {
            out.attempts = attempt + 1;
            Clock::time_point jobStart = Clock::now();
            attemptStart[index].store(1 + nanosSinceSweepStart(jobStart),
                                      std::memory_order_release);
            std::exception_ptr error;
            double elapsed;
            {
                obs::Span span(obs::Tracer::global(), "sweep.job",
                               static_cast<std::int64_t>(index));
                try {
                    // Retries re-create the job with the *same* seed:
                    // a retry-success is byte-identical to a
                    // first-try success. The arena is rewound per
                    // attempt so a failed attempt's scratch never
                    // leaks into the retry.
                    arenaLease->rewind();
                    SweepJob job{index, Rng(jobSeed(baseSeed_, index))};
                    job.arena = arenaLease.get();
                    body(job);
                } catch (...) {
                    error = std::current_exception();
                }
                elapsed = secondsSince(jobStart);
            }
            attemptStart[index].store(0, std::memory_order_release);
            metrics.jobSeconds.record(elapsed);
            metrics.queueWait.record(attempt == 0 ? queueWait : 0.0);
            metrics.jobs.add(1);
            metrics.busyMicros.add(micros(elapsed));
            if (attempt == 0)
                metrics.queueWaitMicros.add(micros(queueWait));

            // Retire-time deadline check: authoritative and
            // deterministic (callers inject overruns far beyond the
            // deadline, so the comparison is stable). A timed-out
            // attempt is never retried — a cell that slow is a bug,
            // and retrying it would stall the whole sweep again.
            if (deadlineSeconds > 0.0 && elapsed > deadlineSeconds) {
                noteOverrun(index);
                out.timedOut = true;
                out.succeeded = false;
                out.kind = FailureKind::Timeout;
                out.message =
                    "attempt " + std::to_string(attempt + 1) +
                    " overran the " +
                    std::to_string(policy_.jobTimeoutMs) +
                    "ms deadline";
                errorCounter(FailureKind::Timeout).add(1);
                finalErrors[index] = std::make_exception_ptr(
                    std::runtime_error("sweep job " +
                                       std::to_string(index) + ": " +
                                       out.message));
                return;
            }
            if (!error) {
                out.succeeded = true;
                out.kind = FailureKind::None;
                out.message.clear();
                return;
            }
            out.kind = classifyException(error, &out.message);
            errorCounter(out.kind).add(1);
            if (attempt + 1 >= maxAttempts) {
                out.succeeded = false;
                finalErrors[index] = error;
                return;
            }
            metrics.jobRetries.add(1);
            // Deterministic jittered exponential backoff: duration
            // derived from (baseSeed, index, attempt) only. Affects
            // wall clock, never results.
            std::int64_t base = policy_.backoffBaseMicros
                                << std::min(attempt, 10);
            if (base > 0) {
                std::uint64_t jitter =
                    splitmix64(backoffState) %
                    static_cast<std::uint64_t>(base + 1);
                std::this_thread::sleep_for(std::chrono::microseconds(
                    base + static_cast<std::int64_t>(jitter)));
            }
        }
    };

    // Mid-flight watchdog: surfaces overruns in `sweep.job_timeouts`
    // while the offending job is still running, so a hung sweep is
    // diagnosable from a live metrics scrape.
    std::atomic<bool> watchdogStop{false};
    std::thread watchdog;
    if (deadlineSeconds > 0.0) {
        watchdog = std::thread([&] {
            const auto tick = std::chrono::milliseconds(
                std::clamp<std::int64_t>(policy_.jobTimeoutMs / 4, 1, 50));
            const std::int64_t deadlineNanos =
                policy_.jobTimeoutMs * 1'000'000;
            while (!watchdogStop.load(std::memory_order_acquire)) {
                std::int64_t now = nanosSinceSweepStart(Clock::now());
                for (std::size_t i = 0; i < jobCount; ++i) {
                    std::int64_t started =
                        attemptStart[i].load(std::memory_order_acquire);
                    if (started != 0 &&
                        now - (started - 1) > deadlineNanos)
                        noteOverrun(i);
                }
                std::this_thread::sleep_for(tick);
            }
        });
    }

    auto stopWatchdog = [&] {
        if (watchdog.joinable()) {
            watchdogStop.store(true, std::memory_order_release);
            watchdog.join();
        }
    };

    try {
        if (threads_ == 1 || jobCount == 1) {
            // Inline serial execution: identical job contexts and
            // reduction order, no pool overhead. This is the reference
            // behaviour every thread count must reproduce
            // byte-for-byte.
            for (std::size_t i = 0; i < jobCount; ++i) {
                runJob(i, false);
                // Historical fail_fast contract: the serial path stops
                // at the first failing job.
                if (finalErrors[i] &&
                    policy_.mode == FailurePolicy::FailFast)
                    break;
            }
        } else {
            std::size_t workerCount = std::min<std::size_t>(
                static_cast<std::size_t>(threads_), jobCount);
            {
                ThreadPool pool(static_cast<int>(workerCount));
                for (std::size_t i = 0; i < jobCount; ++i) {
                    submitTimes[i] = Clock::now();
                    pool.submit([&runJob, i] { runJob(i, true); });
                }
                pool.wait();
            }
        }
    } catch (...) {
        stopWatchdog();
        throw;
    }
    stopWatchdog();

    // Reduce outcomes in index order into the deterministic report.
    const bool keepGoing = policy_.mode == FailurePolicy::KeepGoing;
    for (std::size_t i = 0; i < jobCount; ++i) {
        if (!attempted[i])
            continue;
        CellOutcome &out = outcomes[i];
        if (out.succeeded) {
            ++report_.succeeded;
            if (out.attempts > 1) {
                ++report_.retriedJobs;
                report_.totalRetries +=
                    static_cast<std::size_t>(out.attempts - 1);
                report_.cells.push_back(out);
            }
            continue;
        }
        report_.totalRetries +=
            static_cast<std::size_t>(out.attempts - 1);
        if (out.timedOut)
            ++report_.timedOut;
        if (keepGoing) {
            out.quarantined = true;
            ++report_.quarantined;
            metrics.jobsQuarantined.add(1);
        }
        report_.cells.push_back(out);
    }

    metrics.wallSeconds.set(secondsSince(sweepStart));
    obs::publishPoolGauges();

    if (!keepGoing) {
        // Deterministic failure: the lowest-index error wins, no
        // matter which job happened to fail first on the clock.
        for (const auto &error : finalErrors)
            if (error)
                std::rethrow_exception(error);
    }
}

std::unique_ptr<FrameArena>
SweepScheduler::acquireArena()
{
    {
        std::lock_guard<std::mutex> lock(arenas_->mu);
        if (!arenas_->freeArenas.empty()) {
            std::unique_ptr<FrameArena> arena =
                std::move(arenas_->freeArenas.back());
            arenas_->freeArenas.pop_back();
            return arena;
        }
    }
    // More concurrent leases than workers (not reached by run()):
    // the only path that grows the arena roster.
    return std::make_unique<FrameArena>(arenas_->pool);
}

void
SweepScheduler::releaseArena(std::unique_ptr<FrameArena> arena)
{
    if (!arena)
        return;
    arena->rewind();
    std::lock_guard<std::mutex> lock(arenas_->mu);
    arenas_->freeArenas.push_back(std::move(arena));
}

} // namespace diffy

/**
 * @file
 * Deterministic parallel sweep scheduler.
 *
 * Every evaluation in the reproduction is an embarrassingly parallel
 * sweep over models x scenes x accelerator configurations. The
 * scheduler maps such a grid — flattened to jobCount jobs — onto a
 * fixed-size thread pool and reduces the results **in submission
 * order**, so a bench's output tables are byte-identical to the serial
 * run at any thread count (including 1, which runs inline with no
 * pool at all).
 *
 * Determinism contract:
 *  - job i writes only result slot i; slots are preallocated, so no
 *    reduction step depends on completion order;
 *  - job i receives an Rng seeded from (baseSeed, i) via splitmix64,
 *    never from a shared or thread-indexed stream;
 *  - exceptions are captured per job and the one with the lowest job
 *    index is rethrown after the sweep drains, so failure behaviour
 *    does not depend on scheduling either.
 *
 * Failure policy (DESIGN.md §12): setPolicy() selects fail_fast
 * (the default above) or keep_going, bounded retries with
 * deterministic jittered backoff, and a per-job soft deadline. Every
 * run() builds a SweepReport — under keep_going, failing cells are
 * quarantined into the report instead of rethrown, and callers must
 * consult report().isQuarantined(i) before printing cell i.
 *
 * Timing lives in the obs::MetricsRegistry (DESIGN.md §11): run()
 * resets the per-run `sweep.job_seconds` / `sweep.queue_wait_seconds`
 * histograms, emits a `sweep.job` trace span per job, and bumps the
 * cumulative `sweep.jobs` / `sweep.busy_micros` /
 * `sweep.queue_wait_micros` counters. SweepStats is a plain-data view
 * computed from the registry on demand.
 */

#ifndef DIFFY_RUNTIME_SWEEP_HH
#define DIFFY_RUNTIME_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/pool.hh"
#include "common/rng.hh"
#include "runtime/resilience.hh"

namespace diffy
{

/** Upper bound on accepted thread counts (beyond it is a config bug). */
inline constexpr int kMaxSweepThreads = 1024;

/** Per-job context handed to sweep job bodies. */
struct SweepJob
{
    /** Index of this job in submission order. */
    std::size_t index;
    /** Private generator seeded from (baseSeed, index). */
    Rng rng;
    /**
     * Per-job scratch arena leased from the scheduler's BufferPool,
     * rewound before every attempt. Opt-in: bodies that want recycled
     * frame storage allocate through it (or install it as the ambient
     * scratch resource via ArenaScope for the extent of the body).
     * The scheduler deliberately does *not* install an ambient scope
     * itself — some job bodies return containers that outlive the job
     * (e.g. the traces traceSuite hands to its caller), and those must
     * stay heap-backed.
     * Never null inside a body; invalid after the body returns.
     */
    FrameArena *arena = nullptr;
};

/**
 * Timing counters of the most recent sweep — a snapshot view over the
 * process-wide metrics registry (the `sweep.*` metrics), not a
 * separately maintained tally. All zeros when metrics are disabled.
 */
struct SweepStats
{
    int threads = 1;
    std::size_t jobs = 0;
    /** End-to-end sweep duration. */
    double wallSeconds = 0.0;
    /** Sum of per-job execution times. */
    double busySeconds = 0.0;
    /** Sum of per-job queue waits (submit -> start; 0 when inline). */
    double queueWaitSeconds = 0.0;
    /** Extremes over the per-job execution times. */
    double minJobSeconds = 0.0;
    double maxJobSeconds = 0.0;
};

/** Maps a flattened experiment grid onto a thread pool. */
class SweepScheduler
{
  public:
    /**
     * @param threads  worker count; 0 resolves via DIFFY_THREADS
     *                 (falling back to 1). See resolveThreadCount().
     * @param baseSeed seed namespace for the per-job generators.
     * @throws std::invalid_argument on a non-positive or absurd
     *         resolved thread count.
     */
    explicit SweepScheduler(int threads = 0, std::uint64_t baseSeed = 0);

    /** Resolved worker count (>= 1). */
    int threads() const { return threads_; }

    /**
     * Resolve a requested thread count: a positive request wins;
     * 0 defers to the DIFFY_THREADS environment variable, defaulting
     * to 1 when unset. Values outside [1, kMaxSweepThreads] — from
     * either source — raise std::invalid_argument naming the source.
     */
    static int resolveThreadCount(int requested);

    /** Deterministic per-job seed: splitmix64 over (baseSeed, index). */
    static std::uint64_t jobSeed(std::uint64_t baseSeed,
                                 std::size_t index);

    /**
     * Install the failure policy for subsequent map()/forEach() calls.
     * @throws std::invalid_argument on negative knobs (SweepPolicy::check).
     */
    void setPolicy(const SweepPolicy &policy)
    {
        policy.check();
        policy_ = policy;
    }

    const SweepPolicy &policy() const { return policy_; }

    /**
     * Structured outcome of the most recent map()/forEach() call on
     * *this* scheduler. Under fail_fast a failing sweep still throws;
     * the report reflects whatever was recorded before the rethrow.
     */
    const SweepReport &report() const { return report_; }

    /**
     * Run @p jobCount jobs and return their results in job-index
     * order. The result type must be default-constructible (slots are
     * preallocated). @p fn may run on any worker thread; it must only
     * touch shared state that is itself thread-safe.
     *
     * Under keep_going, quarantined cells hold a default-constructed
     * value regardless of why they were quarantined — including a
     * body that completed but overran its deadline, whose return
     * value is discarded so every quarantine cause looks the same to
     * the caller.
     */
    template <typename Fn>
    auto map(std::size_t jobCount, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, SweepJob &>>
    {
        using R = std::invoke_result_t<Fn &, SweepJob &>;
        static_assert(std::is_default_constructible_v<R>,
                      "sweep results are reduced into preallocated slots");
        std::vector<R> results(jobCount);
        run(jobCount,
            [&results, &fn](SweepJob &job) { results[job.index] = fn(job); });
        for (const CellOutcome &cell : report_.cells)
            if (cell.quarantined)
                results[cell.index] = R{};
        return results;
    }

    /** Run @p jobCount jobs for their side effects only. */
    void forEach(std::size_t jobCount,
                 const std::function<void(SweepJob &)> &body)
    {
        run(jobCount, body);
    }

    /**
     * Counters of the most recent map()/forEach() call, computed from
     * the registry's per-run `sweep.*` metrics. Note these are global:
     * the latest run() of *any* scheduler resets them.
     */
    SweepStats stats() const;

  private:
    void run(std::size_t jobCount,
             const std::function<void(SweepJob &)> &body);

    /** Lease a rewound arena (recycled from freeArenas_ when possible). */
    std::unique_ptr<FrameArena> acquireArena();
    /** Return a lease; its slabs stay attached for the next job. */
    void releaseArena(std::unique_ptr<FrameArena> arena);

    /**
     * Recycled job scratch: the pool plus the idle-arena free list.
     * pool is declared before freeArenas so every arena dies first
     * (reverse member destruction order). Held behind a unique_ptr —
     * BufferPool and std::mutex are immovable, and schedulers are
     * returned by value (makeSweepScheduler).
     */
    struct ArenaRoster
    {
        BufferPool pool;
        std::mutex mu;
        std::vector<std::unique_ptr<FrameArena>> freeArenas;
    };

    int threads_;
    std::uint64_t baseSeed_;
    SweepPolicy policy_;
    SweepReport report_;
    std::unique_ptr<ArenaRoster> arenas_;
};

} // namespace diffy

#endif // DIFFY_RUNTIME_SWEEP_HH

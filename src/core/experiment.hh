/**
 * @file
 * Shared experiment driver for the bench binaries.
 *
 * Wraps the common pattern of every evaluation figure: trace the five
 * CI-DNNs (or the Fig 19 suite) over a set of scenes, run one or more
 * accelerator configurations, and aggregate speedups / FPS / traffic
 * across inputs. Bench binaries stay thin — they pick parameters and
 * print tables.
 */

#ifndef DIFFY_CORE_EXPERIMENT_HH
#define DIFFY_CORE_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/memtech.hh"
#include "core/trace_cache.hh"
#include "image/catalog.hh"
#include "nn/models.hh"
#include "runtime/sweep.hh"
#include "sim/runner.hh"

namespace diffy
{

/** Common command-line-derived parameters of an experiment run. */
struct ExperimentParams
{
    /** Crop resolution for CI-DNN traces. */
    int crop = 64;
    /** Number of evaluation scenes. */
    int scenes = 3;
    /** Target frame for scaled results (HD by default). */
    int frameHeight = 1080;
    int frameWidth = 1920;
    /** Off-chip memory for performance experiments. */
    std::string memTech = "DDR4-3200";
    int memChannels = 1;
    /**
     * Divisor applied to a classification model's native resolution
     * when tracing (simulation still targets the native frame); keeps
     * the Fig 19 suite tractable on one core. 1 = trace at native.
     */
    int classificationCropDivisor = 2;
    /** Trace cache directory ("" disables). */
    std::string cacheDir = "traces";
    /**
     * Sweep worker threads; 0 = auto (the DIFFY_THREADS environment
     * variable, defaulting to 1). Output tables are byte-identical at
     * every thread count (see runtime/sweep.hh).
     */
    int threads = 0;
    /** Seed namespace for per-job sweep RNGs. */
    std::uint64_t sweepSeed = 0;
    /**
     * File to receive a JSON metrics-registry snapshot when the bench
     * exits ("" disables). Written at exit, never to stdout, so the
     * table output stays byte-identical with or without it.
     */
    std::string metricsOut;
    /**
     * Failure policy of the experiment's sweeps (DESIGN.md §12).
     * keepGoing quarantines failing cells into the SweepReport
     * instead of rethrowing; maxRetries grants each cell extra
     * attempts with deterministic jittered backoff; jobTimeoutMs
     * quarantines any cell whose attempt overruns the soft deadline
     * (0 disables the watchdog).
     */
    bool keepGoing = false;
    int maxRetries = 0;
    std::int64_t jobTimeoutMs = 0;

    /** SweepPolicy equivalent of the keepGoing/maxRetries/jobTimeoutMs
     *  fields, ready for SweepScheduler::setPolicy(). */
    SweepPolicy sweepPolicy() const;

    /**
     * Build from argc/argv (--crop, --scenes, --frame-h, --threads,
     * --keep-going, --max-retries, --job-timeout-ms, --metrics-out,
     * ...). A non-empty --metrics-out arranges the exit-time snapshot
     * dump as a side effect.
     * @throws std::invalid_argument (with the full field-level issue
     *         summary) on malformed or out-of-range values, e.g. a
     *         non-numeric, non-positive or absurd --threads.
     */
    static ExperimentParams fromCli(int argc, const char *const *argv);

    /**
     * fromCli for binary entry points: on malformed values prints
     * "error: <details>" to stderr and exits with status 2 instead of
     * letting the exception escape main (an uncaught throw aborts via
     * std::terminate, which reads as a crash rather than a usage
     * error). Benches and examples should call this; library code and
     * tests use the throwing fromCli.
     */
    static ExperimentParams fromCliOrExit(int argc,
                                          const char *const *argv);

    /**
     * Check every field for plausibility (positive geometry and scene
     * counts, thread count within [0, kMaxSweepThreads]). Returns all
     * problems, not just the first — the same structured-validation
     * convention as AcceleratorConfig::validate().
     */
    ConfigValidation validate() const;

    /** Throwing wrapper over validate(), mirroring AcceleratorConfig. */
    const ExperimentParams &validated() const;
};

/**
 * Scheduler configured for the experiment: resolves params.threads
 * (0 = DIFFY_THREADS, else 1) and seeds jobs from params.sweepSeed.
 */
SweepScheduler makeSweepScheduler(const ExperimentParams &params);

/**
 * Deterministic parallel map over a flattened experiment grid:
 * evaluates @p fn(SweepJob&) for cells [0, cellCount) on the
 * experiment's worker threads and returns the results in cell order,
 * so downstream table construction is byte-identical at any thread
 * count.
 */
template <typename Fn>
auto
sweepCells(const ExperimentParams &params, std::size_t cellCount, Fn &&fn)
{
    SweepScheduler scheduler = makeSweepScheduler(params);
    return scheduler.map(cellCount, std::forward<Fn>(fn));
}

/** Traces of one network over several scenes. */
struct TracedNetwork
{
    NetworkSpec spec;
    std::vector<NetworkTrace> traces;
};

/** Trace every network of @p suite over the default evaluation scenes. */
std::vector<TracedNetwork> traceSuite(const std::vector<NetworkSpec> &suite,
                                      const ExperimentParams &params,
                                      const ExecutorOptions &opts = {});

/**
 * Average FPS of @p cfg over the traces of one network at the
 * experiment's frame resolution.
 */
double averageFps(const TracedNetwork &net, const AcceleratorConfig &cfg,
                  const MemTech &mem, const ExperimentParams &params,
                  DiffyMode mode = DiffyMode::Differential);

/**
 * Speedup of @p cfg over @p baseline for one network (ratio of average
 * frame times over the same scenes).
 */
double speedupOver(const TracedNetwork &net, const AcceleratorConfig &cfg,
                   const AcceleratorConfig &baseline, const MemTech &mem,
                   const ExperimentParams &params,
                   DiffyMode mode = DiffyMode::Differential);

/** The memory technology selected by the experiment parameters. */
MemTech experimentMemTech(const ExperimentParams &params);

} // namespace diffy

#endif // DIFFY_CORE_EXPERIMENT_HH

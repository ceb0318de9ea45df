/**
 * @file
 * Shared plumbing of the end-to-end benchmark: configuration, the
 * result line, repetition timing, digests and the span tracer.
 *
 * End-to-end numbers come from untraced repetitions. A traced run
 * records one obs::Span around each public library call the benchmark
 * makes; every span carries the id of its cell or frame as its
 * argument, and run.py rebuilds parents and self times from the
 * written trace.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Benchmark configuration, parsed from the command line. */
struct Config
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement budget of the whole run. */
    double seconds = 10.0;
    /** Emit per-layer metrics from a traced run instead of end-to-end. */
    bool trace = false;
    /** Worker threads of every sweep and of the server. */
    int threads = 1;
    /** Working directory for trace caches and span files. */
    std::string workDir;
    /** Where the traced run writes its span file. */
    std::string traceOut;
    /** Open-loop serving: fixed rate, SLO ladder and p99 limit. */
    double rateFps = 0.0;
    std::vector<double> ladderFps;
    double p99LimitMs = 0.0;
    /** Digest recorded for this seed ("" = none recorded). */
    std::string expectDigest;
    /** Print the digest and skip the timed phase (recording mode). */
    bool digestOnly = false;
};

/** The benchmark's result line, assembled by a workload. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Mark the run incorrect and explain why on stderr. */
    void fail(const std::string &why);
    /** Count @p n attempts of which @p bad failed. */
    void tally(std::uint64_t n, std::uint64_t bad);

    /** One-line JSON; correctness keys plus metrics and digest. */
    std::string json() const;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile of @p v, q in [0, 1] (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** FNV-1a over the bit patterns of deterministic outputs. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Tracer the benchmark's spans record into. Disabled (spans inert)
 * except around the traced repetitions of a --trace run. Switched only
 * between repetitions, from the driving thread.
 */
diffy::obs::Tracer &tracer();

/** Route spans to @p on (traced repetition) or to an inert tracer. */
void setTracing(diffy::obs::Tracer *on);

/**
 * The span files of a traced run: one tracer per traced repetition,
 * written to `<base>.<n>.json` when this object is destroyed. The
 * span file prints timestamps to six significant digits, so a fresh
 * epoch per repetition keeps them within about 10 us.
 */
class TraceFiles
{
  public:
    explicit TraceFiles(std::string base) : base_(std::move(base)) {}

    /** A new enabled tracer for the next traced repetition. */
    diffy::obs::Tracer *next();

  private:
    std::string base_;
    std::vector<std::unique_ptr<diffy::obs::Tracer>> tracers_;
};

/** Empty the obs registry's counters and histograms (one run each). */
void resetObsRegistry();

/**
 * Time repetitions of @p rep until @p budget seconds have passed
 * (at least @p minReps, at most @p maxReps). @p rep returns its own
 * timed seconds, so untimed per-repetition hygiene stays out of it.
 * With @p traced set, repetitions alternate untraced and traced and
 * the traced times go to @p tracedTimes.
 */
std::vector<double> repeat(double budget, int minReps, int maxReps,
                           const std::function<double()> &rep,
                           TraceFiles *traced = nullptr,
                           std::vector<double> *tracedTimes = nullptr);

/** Workload entry points (paper.cc, serve.cc). */
Result runPaperWarm(const Config &cfg);
Result runPaperCold(const Config &cfg);
Result runServePan(const Config &cfg);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

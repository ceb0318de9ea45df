/**
 * @file
 * The paper-regeneration workloads.
 *
 * paper-warm: set-up fills a trace cache; each repetition loads the
 * CI-DNN and classification suites through TraceCache::get, runs the
 * Fig 5 / Table V footprint and Fig 14 traffic accounting under every
 * scheme, then a Fig 11/18/19-style simulateFrame grid. Encode and
 * trace-cache reads carry the time; nothing is traced.
 *
 * paper-cold: each repetition traces the CI-DNN suite into an emptied
 * cache directory, then simulates a grid under Compression::Ideal,
 * which bypasses the traffic model and therefore the encoder. Forward
 * passes and trace-cache writes carry the time.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <string>

#include "arch/memtech.hh"
#include "common/cache_registry.hh"
#include "core/trace_cache.hh"
#include "encode/footprint.hh"
#include "harness.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "runtime/sweep.hh"
#include "sim/runner.hh"

namespace perfbench
{

namespace
{

using namespace diffy;

// Fixed input size of both paper workloads. Small enough that one
// repetition takes about two seconds on four cores, large enough that
// each layer's work dwarfs the sweep overhead.
constexpr int kCiCrop = 32;
constexpr int kCiScenes = 2;
constexpr int kClassScenes = 1;
constexpr int kClassCropDivisor = 8;
constexpr int kFrameH = 1080;
constexpr int kFrameW = 1920;

/** Fig 5, Fig 14 and Table V schemes, plus the None baseline. */
const Compression kSchemes[] = {
    Compression::None,      Compression::Rlez,    Compression::Rle,
    Compression::Profiled,  Compression::RawD256, Compression::RawD16,
    Compression::RawD8,     Compression::DeltaD256, Compression::DeltaD16,
};
const Compression kSimSchemes[] = {Compression::None, Compression::Profiled,
                                   Compression::DeltaD16};
const Design kDesigns[] = {Design::Vaa, Design::Pra, Design::Diffy};
const int kWarmTiles[] = {4, 16, 64};
const int kColdTiles[] = {4, 8, 16, 32, 64};

/**
 * Per-repetition figures the library does not count itself. Cells,
 * quarantines, busy time and simulated frames come from the obs
 * registry (sweep.*, sim.compute_runs), which is reset per repetition.
 */
struct Counts
{
    std::atomic<std::uint64_t> passes{0}, gets{0}, traceBytes{0},
        encodeCalls{0}, encodeValues{0};
    /** Driving thread only: summed sweep wall time, and the summed
     *  cycles of every simulated frame (the split compute/memory calls
     *  leave sim.cycles_total alone). */
    double sweepWallS = 0.0;
    std::uint64_t cycles = 0;
    /** Each cell's latency: its sweep's start to its completion, ms. */
    std::mutex mu;
    std::vector<double> cellMs; ///< guarded by mu

    void reset()
    {
        for (auto *c :
             {&passes, &gets, &traceBytes, &encodeCalls, &encodeValues})
            c->store(0);
        sweepWallS = 0.0;
        cycles = 0;
        std::lock_guard<std::mutex> lock(mu);
        cellMs.clear();
    }
};

/** One trace of the suite: network and scene. */
struct Key
{
    NetworkSpec net;
    SceneParams scene;
};

/** Scene @p i of a seed: the kind cycles, the content is seeded. */
SceneParams
seededScene(std::uint64_t seed, int i, int crop)
{
    static const SceneKind kinds[] = {SceneKind::Nature, SceneKind::City,
                                      SceneKind::Texture, SceneKind::Gradient,
                                      SceneKind::Portrait};
    SceneParams p;
    p.kind = kinds[(seed + static_cast<std::uint64_t>(i)) % 5];
    p.width = crop;
    p.height = crop;
    p.seed = SweepScheduler::jobSeed(seed, static_cast<std::size_t>(i));
    return p;
}

/** The traced networks x scenes, CI-DNNs first (as traceSuite lays
 *  them out; classification models at a crop of their native size). */
std::vector<Key>
suiteKeys(std::uint64_t seed, bool withClassification)
{
    std::vector<Key> keys;
    for (const NetworkSpec &net : ciDnnSuite())
        for (int i = 0; i < kCiScenes; ++i)
            keys.push_back({net, seededScene(seed, i, kCiCrop)});
    if (withClassification) {
        for (const NetworkSpec &net : classificationSuite()) {
            const int crop =
                std::max(net.nativeResolution / kClassCropDivisor, 64);
            for (int i = 0; i < kClassScenes; ++i)
                keys.push_back({net, seededScene(seed, 100 + i, crop)});
        }
    }
    return keys;
}

std::uint64_t
traceBytes(const NetworkTrace &t)
{
    std::uint64_t bytes = 0;
    for (const LayerTrace &l : t.layers)
        bytes += 2 * (l.imap.size() + l.weights.size());
    return bytes;
}

std::uint64_t
imapValues(const NetworkTrace &t)
{
    std::uint64_t n = 0;
    for (const LayerTrace &l : t.layers)
        n += l.imap.size();
    return n;
}

/** Id of the sweep cell running on this thread, for the hook's spans. */
thread_local std::int64_t t_cellId = 0;

/** A trace cache whose Tracer hook times render and forward pass. */
TraceCache
makeCache(const std::string &dir, Counts &counts)
{
    return TraceCache(dir, [&counts](const NetworkSpec &net,
                                     const SceneParams &scene,
                                     const ExecutorOptions &opts) {
        Tensor3<float> rgb;
        {
            obs::Span span(tracer(), "image.render", t_cellId);
            rgb = renderScene(scene);
        }
        obs::Span span(tracer(), "nn.run_network", t_cellId);
        NetworkTrace trace = runNetwork(net, rgb, opts);
        counts.passes.fetch_add(1);
        return trace;
    });
}

/**
 * One sweep of a repetition: a fresh SweepScheduler over cfg.threads
 * workers, keep-going so a failing cell is counted rather than fatal.
 * The driving thread holds a runtime.sweep span; each cell a
 * runtime.cell span whose id its layer spans share. Every cell is due
 * when the sweep starts, so its latency runs from there.
 */
template <typename Fn>
auto
sweep(const Config &cfg, Counts &counts, std::int64_t sweepId,
      std::size_t cells, Fn &&fn)
{
    SweepScheduler scheduler(cfg.threads, cfg.seed);
    SweepPolicy policy;
    policy.mode = FailurePolicy::KeepGoing;
    scheduler.setPolicy(policy);
    obs::Span span(tracer(), "runtime.sweep", sweepId);
    const Clock::time_point t0 = Clock::now();
    auto results = scheduler.map(cells, [&](SweepJob &job) {
        const std::int64_t id =
            sweepId * 100000 + static_cast<std::int64_t>(job.index);
        t_cellId = id;
        auto out = [&] {
            obs::Span cell(tracer(), "runtime.cell", id);
            return fn(job.index, id);
        }();
        const double ms = 1e3 * secondsSince(t0);
        std::lock_guard<std::mutex> lock(counts.mu);
        counts.cellMs.push_back(ms);
        return out;
    });
    counts.sweepWallS += scheduler.stats().wallSeconds;
    return results;
}

AcceleratorConfig
configFor(Design design, Compression scheme, int tiles)
{
    AcceleratorConfig cfg = design == Design::Vaa   ? defaultVaaConfig()
                            : design == Design::Pra ? defaultPraConfig()
                                                    : defaultDiffyConfig();
    cfg.compression = scheme;
    cfg.tiles = tiles;
    cfg.spatialWorkSharing = tiles > 4; // Fig 18's scaled-up configs
    return cfg;
}

/**
 * simulateFrame's two halves, each under its own span (inert when not
 * tracing), so traced and untraced runs time the same calls. Returns
 * the frame's total cycles.
 */
double
simulate(const NetworkTrace &trace, const AcceleratorConfig &cfg,
         const MemTech &mem, int fh, int fw, std::int64_t id)
{
    NetworkComputeResult compute;
    {
        obs::Span span(tracer(), "sim.compute", id);
        compute = simulateCompute(trace, cfg);
    }
    obs::Span span(tracer(), "sim.memory", id);
    return combineWithMemory(trace, compute, cfg, mem, fh, fw).totalCycles;
}

/** The cycles of every design x scheme x tile x memory point of one
 *  trace, flattened in a fixed order. */
using CycleList = std::vector<double>;

/** Digest every cycle count and add it to the repetition's total. */
void
addCycles(Digest &digest, Counts &counts,
          const std::vector<CycleList> &cycles)
{
    for (const CycleList &list : cycles)
        for (double c : list) {
            digest.add(c);
            counts.cycles += static_cast<std::uint64_t>(std::llround(c));
        }
}

/** Load every key through a fresh TraceCache, one cell per key. */
std::vector<NetworkTrace>
loadSuite(const Config &cfg, Counts &counts, std::int64_t sweepId,
          const std::string &dir, const std::vector<Key> &keys)
{
    TraceCache cache = makeCache(dir, counts);
    return sweep(cfg, counts, sweepId, keys.size(),
                 [&](std::size_t i, std::int64_t id) {
                     obs::Span span(tracer(), "trace_cache.get", id);
                     NetworkTrace t = cache.get(keys[i].net, keys[i].scene);
                     counts.gets.fetch_add(1);
                     counts.traceBytes.fetch_add(traceBytes(t));
                     return t;
                 });
}

struct FootprintCell
{
    double bits = 0.0;
    double values = 0.0;
    double amBytes = 0.0;
};

/** One timed repetition of paper-warm; returns its digest. */
std::string
warmRepetition(const Config &cfg, Counts &counts, std::int64_t rep,
               const std::vector<Key> &keys, const std::string &dir)
{
    obs::Span run(tracer(), "bench.run", rep);
    const std::vector<NetworkTrace> traces =
        loadSuite(cfg, counts, rep * 16 + 0, dir, keys);
    const std::size_t nCi = ciDnnSuite().size() * kCiScenes;
    const std::size_t nSchemes = std::size(kSchemes);

    // Fig 5 + Table V: footprint and AM sizing per (trace, scheme).
    const auto footprints = sweep(
        cfg, counts, rep * 16 + 1, nCi * nSchemes,
        [&](std::size_t c, std::int64_t id) {
            const NetworkTrace &t = traces[c / nSchemes];
            const Compression scheme = kSchemes[c % nSchemes];
            FootprintCell out;
            {
                obs::Span span(tracer(), "encode.footprint", id);
                const NetworkFootprint fp = measureFootprint(t, scheme);
                out.bits = fp.totalBits();
                for (const LayerFootprint &l : fp.layers)
                    out.values += static_cast<double>(l.values);
            }
            {
                obs::Span span(tracer(), "encode.footprint", id);
                out.amBytes = amRequiredBytes(t, scheme, kFrameW);
            }
            counts.encodeCalls.fetch_add(2);
            counts.encodeValues.fetch_add(2 * imapValues(t));
            return out;
        });

    // Fig 14: off-chip traffic per HD frame per (trace, scheme).
    const auto traffic = sweep(
        cfg, counts, rep * 16 + 2, nCi * nSchemes,
        [&](std::size_t c, std::int64_t id) {
            const NetworkTrace &t = traces[c / nSchemes];
            obs::Span span(tracer(), "encode.traffic", id);
            const double bytes = frameTrafficBytes(
                t, kSchemes[c % nSchemes], kFrameH, kFrameW);
            counts.encodeCalls.fetch_add(1);
            counts.encodeValues.fetch_add(imapValues(t));
            return bytes;
        });

    // Fig 11/18: design x scheme per CI trace over a tile x memory
    // ladder; Fig 19: design at DeltaD16 per classification trace.
    const std::vector<MemTech> mems = fig18MemoryLadder();
    const MemTech ddr4 = memTechByName("DDR4-3200");
    const std::size_t nSim = std::size(kDesigns) * std::size(kSimSchemes);
    const std::size_t nClass = traces.size() - nCi;
    const auto cycles = sweep(
        cfg, counts, rep * 16 + 3, nCi * nSim + nClass * std::size(kDesigns),
        [&](std::size_t c, std::int64_t id) {
            CycleList out;
            if (c < nCi * nSim) {
                const NetworkTrace &t = traces[c / nSim];
                const Design d = kDesigns[(c % nSim) / std::size(kSimSchemes)];
                const Compression s = kSimSchemes[c % std::size(kSimSchemes)];
                for (int tiles : kWarmTiles)
                    for (const MemTech &mem : mems)
                        out.push_back(simulate(t, configFor(d, s, tiles), mem,
                                               kFrameH, kFrameW, id));
            } else {
                const std::size_t k = c - nCi * nSim;
                const NetworkTrace &t = traces[nCi + k / std::size(kDesigns)];
                const int res = keys[nCi + k / std::size(kDesigns)]
                                    .net.nativeResolution;
                out.push_back(simulate(
                    t,
                    configFor(kDesigns[k % std::size(kDesigns)],
                              Compression::DeltaD16, 4),
                    ddr4, res, res, id));
            }
            return out;
        });

    Digest digest;
    for (const FootprintCell &f : footprints) {
        digest.add(f.bits);
        digest.add(f.values > 0.0 ? f.bits / f.values : 0.0);
        digest.add(f.amBytes);
    }
    for (double b : traffic)
        digest.add(b);
    addCycles(digest, counts, cycles);
    return digest.hex();
}

/** One timed repetition of paper-cold; returns its digest. */
std::string
coldRepetition(const Config &cfg, Counts &counts, std::int64_t rep,
               const std::vector<Key> &keys, const std::string &dir)
{
    obs::Span run(tracer(), "bench.run", rep);
    const std::vector<NetworkTrace> traces =
        loadSuite(cfg, counts, rep * 16 + 0, dir, keys);
    const MemTech ddr4 = memTechByName("DDR4-3200");
    const std::size_t nDesigns = std::size(kDesigns);
    const auto cycles = sweep(
        cfg, counts, rep * 16 + 1, traces.size() * nDesigns,
        [&](std::size_t c, std::int64_t id) {
            CycleList out;
            for (int tiles : kColdTiles)
                out.push_back(simulate(
                    traces[c / nDesigns],
                    configFor(kDesigns[c % nDesigns], Compression::Ideal,
                              tiles),
                    ddr4, kFrameH, kFrameW, id));
            return out;
        });
    Digest digest;
    addCycles(digest, counts, cycles);
    return digest.hex();
}

std::uint64_t
obsCounter(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name).value();
}

void
emptyDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

/**
 * Shared body of both paper workloads: set-up, the untimed hygiene
 * around each repetition, its checks, and the metrics.
 */
Result
runPaper(const Config &cfg, bool warm)
{
    Result result;
    Counts counts;
    const std::vector<Key> keys = suiteKeys(cfg.seed, warm);
    const std::string dir =
        cfg.workDir + (warm ? "/warm-cache" : "/cold-cache");

    // Set-up, outside run_s. paper-warm fills its cache from empty
    // (once: it costs more than two repetitions); paper-cold runs an
    // untimed repetition, five times for a steadier median, so lazy
    // initialisation is paid before timing. Emptying the directory
    // stays off the clock.
    std::vector<double> setups;
    for (int i = 0; i < (warm ? 1 : 5); ++i) {
        emptyDir(dir);
        const Clock::time_point s0 = Clock::now();
        if (warm)
            loadSuite(cfg, counts, -1, dir, keys);
        else
            coldRepetition(cfg, counts, -1, keys, dir);
        setups.push_back(secondsSince(s0));
    }
    result.metric("setup_s", median(setups), "s");

    std::string first;
    std::int64_t rep = 0;
    std::vector<double> latencyMs; // cells of the untraced repetitions
    auto one = [&]() {
        // Repeat hygiene: the driving thread's memos, the obs
        // registry and the work counts start empty; every sweep
        // builds a fresh scheduler, whose fresh workers start cold.
        clearRegisteredThreadCaches();
        resetObsRegistry();
        counts.reset();
        if (!warm)
            emptyDir(dir);
        const Clock::time_point t0 = Clock::now();
        const std::string digest =
            warm ? warmRepetition(cfg, counts, rep, keys, dir)
                 : coldRepetition(cfg, counts, rep, keys, dir);
        const double seconds = secondsSince(t0);
        ++rep;

        // Checks, untimed: outputs match the first repetition and the
        // recorded digest; the cache served (warm) or stored (cold)
        // every trace.
        if (first.empty())
            first = digest;
        const std::string &expect =
            cfg.expectDigest.empty() ? first : cfg.expectDigest;
        const std::uint64_t cells = obsCounter("sweep.jobs");
        std::uint64_t bad = obsCounter("sweep.jobs_quarantined");
        if (digest != expect) {
            result.fail("digest " + digest + " != expected " + expect);
            bad = cells;
        }
        const std::uint64_t n = keys.size();
        if (warm && (obsCounter("trace_cache.disk_loads") != n ||
                     counts.passes.load() != 0))
            result.fail("paper-warm: the pre-filled cache did not serve "
                        "every trace");
        if (!warm && (obsCounter("trace_cache.misses") != n ||
                      obsCounter("trace_cache.disk_loads") != 0 ||
                      counts.passes.load() != n))
            result.fail("paper-cold: not every trace was computed");
        result.tally(cells, bad);
        if (!tracer().enabled()) {
            std::lock_guard<std::mutex> lock(counts.mu);
            latencyMs.insert(latencyMs.end(), counts.cellMs.begin(),
                             counts.cellMs.end());
        }
        return seconds;
    };

    if (cfg.digestOnly) {
        one();
        result.digest = first;
        return result;
    }

    TraceFiles traced(cfg.traceOut);
    std::vector<double> tracedTimes;
    const std::vector<double> times =
        repeat(cfg.seconds, cfg.trace ? 4 : 3, 1000, one,
               cfg.trace ? &traced : nullptr, &tracedTimes);
    result.digest = first;
    result.metric("run_s", median(times), "s");
    result.metric("p50_ms", quantile(latencyMs, 0.50), "ms");
    result.metric("p95_ms", quantile(latencyMs, 0.95), "ms");
    result.metric("peak_rss_mb", peakRssMb(), "MiB");
    if (cfg.trace) {
        result.metric("traced_run_s", median(tracedTimes), "s");
        result.metric("encode.calls", double(counts.encodeCalls), "count");
        result.metric("encode.values", double(counts.encodeValues), "count");
        result.metric("trace_cache.gets", double(counts.gets), "count");
        result.metric("trace_cache.bytes", double(counts.traceBytes), "B");
        result.metric("nn.passes", double(counts.passes), "count");
        result.metric("sim.frames", double(obsCounter("sim.compute_runs")),
                      "count");
        result.metric("sim.cycles_total", double(counts.cycles), "cycles");
        result.metric("runtime.cells", double(obsCounter("sweep.jobs")),
                      "count");
        result.metric("runtime.busy_ratio",
                      1e-6 * double(obsCounter("sweep.busy_micros")) /
                          (cfg.threads * counts.sweepWallS),
                      "ratio");
    }
    return result;
}

} // namespace

Result
runPaperWarm(const Config &cfg)
{
    return runPaper(cfg, true);
}

Result
runPaperCold(const Config &cfg)
{
    return runPaper(cfg, false);
}

} // namespace perfbench

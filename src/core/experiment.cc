#include "core/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/cli.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace diffy
{

ExperimentParams
ExperimentParams::fromCli(int argc, const char *const *argv)
{
    // --keep-going is a bare flag: without the declaration it would
    // swallow a following positional as its value.
    CliArgs args(argc, argv, {"keep-going"});
    ExperimentParams params;
    params.crop = static_cast<int>(args.getInt("crop", params.crop));
    params.scenes = static_cast<int>(args.getInt("scenes", params.scenes));
    params.frameHeight =
        static_cast<int>(args.getInt("frame-h", params.frameHeight));
    params.frameWidth =
        static_cast<int>(args.getInt("frame-w", params.frameWidth));
    params.memTech = args.getString("mem", params.memTech);
    params.memChannels =
        static_cast<int>(args.getInt("mem-channels", params.memChannels));
    params.classificationCropDivisor = static_cast<int>(args.getInt(
        "class-crop-div", params.classificationCropDivisor));
    params.cacheDir = args.getString("cache", params.cacheDir);
    params.threads = static_cast<int>(args.getInt("threads", params.threads));
    params.sweepSeed = static_cast<std::uint64_t>(
        args.getInt("sweep-seed", static_cast<std::int64_t>(params.sweepSeed)));
    params.metricsOut = args.getString("metrics-out", params.metricsOut);
    params.keepGoing = args.has("keep-going");
    params.maxRetries =
        static_cast<int>(args.getInt("max-retries", params.maxRetries));
    params.jobTimeoutMs = args.getInt("job-timeout-ms", params.jobTimeoutMs);

    ConfigValidation v = params.validate();
    // An explicit --threads must name a worker count; only the absent
    // flag means "auto". (Non-numeric values already throw from
    // getInt; negative values are flagged by validate().)
    if (args.has("threads") && params.threads == 0)
        v.issues.push_back(
            {"threads", "--threads expects a positive integer, got \"" +
                            args.getString("threads", "") + "\""});
    if (!v.ok())
        throw std::invalid_argument("ExperimentParams invalid: " +
                                    v.summary());
    if (!params.metricsOut.empty())
        obs::dumpMetricsOnExit(params.metricsOut);
    return params;
}

ExperimentParams
ExperimentParams::fromCliOrExit(int argc, const char *const *argv)
{
    try {
        return fromCli(argc, argv);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

ConfigValidation
ExperimentParams::validate() const
{
    ConfigValidation v;
    auto require = [&](bool ok, const char *field, std::string msg) {
        if (!ok)
            v.issues.push_back({field, std::move(msg)});
    };
    require(crop >= 1, "crop", "must be >= 1");
    require(scenes >= 1, "scenes", "must be >= 1");
    require(frameHeight >= 1, "frameHeight", "must be >= 1");
    require(frameWidth >= 1, "frameWidth", "must be >= 1");
    require(memChannels >= 1, "memChannels", "must be >= 1");
    require(classificationCropDivisor >= 1, "classificationCropDivisor",
            "must be >= 1");
    require(threads >= 0, "threads",
            "must be >= 0 (0 = auto via DIFFY_THREADS)");
    require(threads <= kMaxSweepThreads, "threads",
            "exceeds the limit of " + std::to_string(kMaxSweepThreads));
    require(maxRetries >= 0, "maxRetries", "must be >= 0");
    require(maxRetries <= 100, "maxRetries",
            "over 100 retries is a configuration bug, not persistence");
    require(jobTimeoutMs >= 0, "jobTimeoutMs",
            "must be >= 0 (0 = no deadline)");
    return v;
}

SweepPolicy
ExperimentParams::sweepPolicy() const
{
    SweepPolicy policy;
    policy.mode = keepGoing ? FailurePolicy::KeepGoing
                            : FailurePolicy::FailFast;
    policy.maxRetries = maxRetries;
    policy.jobTimeoutMs = jobTimeoutMs;
    return policy;
}

const ExperimentParams &
ExperimentParams::validated() const
{
    ConfigValidation v = validate();
    if (!v.ok())
        throw std::invalid_argument("ExperimentParams invalid: " +
                                    v.summary());
    return *this;
}

SweepScheduler
makeSweepScheduler(const ExperimentParams &params)
{
    params.validated();
    SweepScheduler scheduler(params.threads, params.sweepSeed);
    scheduler.setPolicy(params.sweepPolicy());
    return scheduler;
}

std::vector<TracedNetwork>
traceSuite(const std::vector<NetworkSpec> &suite,
           const ExperimentParams &params, const ExecutorOptions &opts)
{
    obs::Span span(obs::Tracer::global(), "core.trace_suite");
    TraceCache cache(params.cacheDir);
    std::vector<SceneParams> scenes =
        defaultEvalScenes(params.scenes, params.crop);

    // Flatten the network x scene grid into jobs up front so the
    // scheduler's in-order reduction rebuilds the exact serial layout.
    struct TraceJob
    {
        std::size_t netIndex;
        SceneParams scene;
    };
    std::vector<TraceJob> jobs;
    jobs.reserve(suite.size() * scenes.size());
    for (std::size_t ni = 0; ni < suite.size(); ++ni) {
        const NetworkSpec &net = suite[ni];
        for (SceneParams scene : scenes) {
            // Classification models run at (a crop of) their native
            // resolution; CI-DNNs use the experiment crop.
            if (net.nativeResolution > 0) {
                int crop = net.nativeResolution /
                           std::max(1, params.classificationCropDivisor);
                // Keep the deepest backbone stage (divisor 32) at a
                // nonzero spatial extent.
                crop = std::max(crop, 64);
                scene.width = crop;
                scene.height = crop;
            }
            jobs.push_back({ni, scene});
        }
    }

    // Tracing dominates sweep wall-clock (float convolutions); each
    // job loads or traces a distinct key through the thread-safe
    // TraceCache, so every bench parallelizes here without individual
    // rewrites.
    SweepScheduler scheduler = makeSweepScheduler(params);
    std::vector<NetworkTrace> traces =
        scheduler.map(jobs.size(), [&](SweepJob &job) {
            const TraceJob &tj = jobs[job.index];
            return cache.get(suite[tj.netIndex], tj.scene, opts);
        });

    std::vector<TracedNetwork> traced;
    traced.reserve(suite.size());
    std::size_t next = 0;
    for (const auto &net : suite) {
        TracedNetwork tn;
        tn.spec = net;
        tn.traces.reserve(scenes.size());
        for (std::size_t si = 0; si < scenes.size(); ++si)
            tn.traces.push_back(std::move(traces[next++]));
        traced.push_back(std::move(tn));
    }
    return traced;
}

MemTech
experimentMemTech(const ExperimentParams &params)
{
    return memTechByName(params.memTech, params.memChannels);
}

namespace
{

/** Frame height/width for a network under the experiment parameters. */
std::pair<int, int>
frameFor(const TracedNetwork &net, const ExperimentParams &params)
{
    if (net.spec.nativeResolution > 0)
        return {net.spec.nativeResolution, net.spec.nativeResolution};
    return {params.frameHeight, params.frameWidth};
}

} // namespace

double
averageFps(const TracedNetwork &net, const AcceleratorConfig &cfg,
           const MemTech &mem, const ExperimentParams &params,
           DiffyMode mode)
{
    auto [fh, fw] = frameFor(net, params);
    double total_cycles = 0.0;
    for (const auto &trace : net.traces) {
        total_cycles +=
            simulateFrame(trace, cfg, mem, fh, fw, mode).totalCycles;
    }
    if (total_cycles <= 0.0)
        return 0.0;
    double mean_cycles =
        total_cycles / static_cast<double>(net.traces.size());
    return cfg.clockHz / mean_cycles;
}

double
speedupOver(const TracedNetwork &net, const AcceleratorConfig &cfg,
            const AcceleratorConfig &baseline, const MemTech &mem,
            const ExperimentParams &params, DiffyMode mode)
{
    double fps_cfg = averageFps(net, cfg, mem, params, mode);
    double fps_base = averageFps(net, baseline, mem, params, mode);
    return fps_base > 0.0 ? fps_cfg / fps_base : 0.0;
}

} // namespace diffy

#include "core/trace_cache.hh"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace diffy
{

namespace
{

/** Registry handles for the trace-cache counters, resolved once. */
struct CacheMetrics
{
    obs::Counter &misses;
    obs::Counter &diskLoads;
    obs::Counter &corruptEvictions;
};

CacheMetrics &
cacheMetrics()
{
    auto &reg = obs::MetricsRegistry::instance();
    static CacheMetrics metrics{
        reg.counter("trace_cache.misses"),
        reg.counter("trace_cache.disk_loads"),
        reg.counter("trace_cache.corrupt_evictions"),
    };
    return metrics;
}

/**
 * `<path>.<pid>-<n>.tmp`, unique per writer within and across
 * processes. Built with `+=` pieces: GCC 12 reports a false
 * -Wrestrict on `"." + std::to_string(...)`.
 */
std::filesystem::path
tempPath(const std::filesystem::path &path)
{
    static std::atomic<std::uint64_t> next{0};
    std::filesystem::path tmp = path;
    tmp += ".";
    tmp += std::to_string(::getpid());
    tmp += "-";
    tmp += std::to_string(next++);
    tmp += ".tmp";
    return tmp;
}

} // namespace

TraceCache::TraceCache(std::string directory, Tracer tracer)
    : directory_(std::move(directory)), tracer_(std::move(tracer))
{
    if (!tracer_) {
        tracer_ = [](const NetworkSpec &net, const SceneParams &scene,
                     const ExecutorOptions &opts) {
            Tensor3<float> rgb = renderScene(scene);
            return runNetwork(net, rgb, opts);
        };
    }
}

std::string
TraceCache::cacheKey(const NetworkSpec &net, const SceneParams &scene,
                     const ExecutorOptions &opts)
{
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    std::ostringstream os;
    os << net.name << "_" << to_string(scene.kind) << "_" << scene.width
       << "x" << scene.height << std::hex << "_s" << scene.seed << "_r"
       << bits(scene.roughness) << "_n" << bits(scene.noiseSigma) << "_w"
       << opts.weightSeed << "_p" << bits(opts.weightSparsity) << "_m"
       << opts.sparsitySeed << "_q" << bits(opts.activationRelError);
    return os.str();
}

NetworkTrace
TraceCache::get(const NetworkSpec &net, const SceneParams &scene,
                const ExecutorOptions &opts) const
{
    obs::Span span(obs::Tracer::global(), "trace_cache.compute");
    CacheMetrics &metrics = cacheMetrics();
    std::filesystem::path path;
    if (!directory_.empty()) {
        path = std::filesystem::path(directory_) /
               (cacheKey(net, scene, opts) + ".trace");
        if (std::filesystem::exists(path)) {
            std::ifstream in(path, std::ios::binary);
            try {
                NetworkTrace trace = loadTrace(in);
                metrics.diskLoads.add(1);
                return trace;
            } catch (const std::exception &) {
                // Corrupt or stale cache entry (bad magic, truncated,
                // or a CRC mismatch from loadTrace's verified
                // envelope): quarantine the file under a `.corrupt`
                // name so it can be inspected post-mortem and can
                // never be re-read as a valid entry, then fall
                // through to the recompute; the store below writes a
                // fresh, verified entry.
                in.close();
                metrics.corruptEvictions.add(1);
                std::error_code ec;
                std::filesystem::path corrupt = path;
                corrupt += ".corrupt";
                std::filesystem::rename(path, corrupt, ec);
                if (ec)
                    std::filesystem::remove(path, ec);
            }
        }
    }

    metrics.misses.add(1);
    NetworkTrace trace = tracer_(net, scene, opts);

    if (!directory_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(directory_, ec);
        if (!ec) {
            // Write-to-temp + rename: a concurrent reader (or another
            // process) never sees a partially written trace file, and
            // a failed write never replaces the entry.
            const std::filesystem::path tmp = tempPath(path);
            std::ofstream out(tmp, std::ios::binary);
            saveTrace(trace, out);
            out.close();
            if (out)
                std::filesystem::rename(tmp, path, ec);
            if (!out || ec)
                std::filesystem::remove(tmp, ec);
        }
    }
    return trace;
}

} // namespace diffy

#include "core/trace_cache.hh"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
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
    obs::Counter &bankLoads;
    obs::Counter &corruptEvictions;
};

CacheMetrics &
cacheMetrics()
{
    auto &reg = obs::MetricsRegistry::instance();
    static CacheMetrics metrics{
        reg.counter("trace_cache.misses"),
        reg.counter("trace_cache.disk_loads"),
        reg.counter("trace_cache.bank_loads"),
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

/**
 * The entry at @p path read by @p load (std::istream & -> T), or
 * nothing if there is none. An entry that fails to load (bad magic,
 * truncated, a CRC mismatch from the verified envelope, another key)
 * is quarantined under a `.corrupt` name, where it can be inspected
 * post-mortem and is never re-read as a valid entry, and counted; the
 * caller then recomputes and stores a fresh entry.
 */
template <typename Load>
auto
loadEntry(const std::filesystem::path &path, Load &&load)
    -> std::optional<decltype(load(std::declval<std::istream &>()))>
{
    if (!std::filesystem::exists(path))
        return std::nullopt;
    std::ifstream in(path, std::ios::binary);
    try {
        return load(in);
    } catch (const std::exception &) {
        in.close();
        cacheMetrics().corruptEvictions.add(1);
        std::error_code ec;
        std::filesystem::path corrupt = path;
        corrupt += ".corrupt";
        std::filesystem::rename(path, corrupt, ec);
        if (ec)
            std::filesystem::remove(path, ec);
        return std::nullopt;
    }
}

/**
 * Write an entry with @p save (std::ostream &) to a temp file and
 * rename it over @p path: a concurrent reader (or another process)
 * never sees a partially written entry, and a failed write never
 * replaces one.
 */
template <typename Save>
void
storeEntry(const std::filesystem::path &path, Save &&save)
{
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec)
        return;
    const std::filesystem::path tmp = tempPath(path);
    std::ofstream out(tmp, std::ios::binary);
    try {
        save(out);
    } catch (...) {
        out.close();
        std::filesystem::remove(tmp, ec);
        throw;
    }
    out.close();
    if (out)
        std::filesystem::rename(tmp, path, ec);
    if (!out || ec)
        std::filesystem::remove(tmp, ec);
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

std::filesystem::path
TraceCache::bankPath(const WeightKey &key) const
{
    return std::filesystem::path(directory_) / (key.str() + ".weights");
}

std::shared_ptr<const WeightBank>
TraceCache::bank(const WeightKey &key) const
{
    const std::filesystem::path path = bankPath(key);
    bool onDisk = false;
    std::shared_ptr<const WeightBank> b =
        WeightStore::instance().get(key, [&] {
            if (auto loaded = loadEntry(path, [&](std::istream &in) {
                    return loadBank(in, key);
                })) {
                cacheMetrics().bankLoads.add(1);
                onDisk = true;
                return std::move(*loaded);
            }
            return synthesizeBank(key);
        });
    // A bank built here, or filled by another caller of the store, is
    // written once so a later process reads it instead of building it.
    if (!onDisk && !std::filesystem::exists(path))
        storeEntry(path, [&](std::ostream &out) { saveBank(*b, out); });
    return b;
}

NetworkTrace
TraceCache::get(const NetworkSpec &net, const SceneParams &scene,
                const ExecutorOptions &opts) const
{
    obs::Span span(obs::Tracer::global(), "trace_cache.compute");
    CacheMetrics &metrics = cacheMetrics();
    if (directory_.empty()) {
        metrics.misses.add(1);
        return tracer_(net, scene, opts);
    }
    const std::filesystem::path path =
        std::filesystem::path(directory_) /
        (cacheKey(net, scene, opts) + ".trace");
    const BankResolver resolve = [this](const WeightKey &key) {
        return bank(key);
    };
    if (auto trace = loadEntry(path, [&](std::istream &in) {
            return loadTrace(in, resolve);
        })) {
        metrics.diskLoads.add(1);
        return std::move(*trace);
    }

    metrics.misses.add(1);
    // Resolve the banks before tracing: the forward pass then finds
    // each in the store, and the trace file's bank files exist.
    for (const ConvLayerSpec &layer : net.layers)
        bank(weightKey(net, layer, opts));
    NetworkTrace trace = tracer_(net, scene, opts);
    storeEntry(path, [&](std::ostream &out) { saveTrace(trace, out); });
    return trace;
}

} // namespace diffy

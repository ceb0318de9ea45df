/**
 * @file
 * Verified on-disk store of forward-pass traces.
 *
 * Several bench binaries consume the same (network, scene, crop)
 * forward passes; the cache keys traces by those parameters plus the
 * executor options and stores them under a cache directory (default
 * "traces/" beneath the working directory) so repeated runs skip the
 * float convolutions.
 *
 * There is no in-memory tier: every caller in the tree asks for each
 * key once, so get() is load-or-trace and moves the trace to its one
 * owner, the caller. Concurrent get()s are safe (DESIGN.md §8): each
 * store writes its own `<key>.trace.<pid>-<n>.tmp` and atomically
 * renames it over `<key>.trace`, so a reader — even in another
 * process — never observes a half-written trace file. Two concurrent
 * requesters of a missing key may both trace it; both store the same
 * trace and the last rename wins.
 *
 * Crash-safe recovery (DESIGN.md §12): trace files carry a CRC-32C
 * envelope (see nn/trace.cc) validated on load. An entry that fails
 * the magic, length, or checksum check is renamed to
 * `<key>.trace.corrupt` for post-mortem inspection, counted in
 * `trace_cache.corrupt_evictions`, and regenerated like a plain
 * miss — garbage on disk never reaches a simulation.
 */

#ifndef DIFFY_CORE_TRACE_CACHE_HH
#define DIFFY_CORE_TRACE_CACHE_HH

#include <functional>
#include <string>

#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/trace.hh"

namespace diffy
{

/** Load-or-trace store of network traces. Thread-safe. */
class TraceCache
{
  public:
    /** Trace computation hook (tests inject a counting stub). */
    using Tracer = std::function<NetworkTrace(
        const NetworkSpec &, const SceneParams &, const ExecutorOptions &)>;

    /**
     * @param directory cache directory; created on first store. An
     *                  empty string disables disk caching entirely.
     * @param tracer    computes a missing trace; defaults to
     *                  renderScene + runNetwork.
     */
    explicit TraceCache(std::string directory = "traces",
                        Tracer tracer = {});

    /**
     * Return the trace of @p net on the scene: a CRC-verified disk
     * load, or one tracer call followed by an atomic store.
     */
    NetworkTrace get(const NetworkSpec &net, const SceneParams &scene,
                     const ExecutorOptions &opts = {}) const;

    /**
     * Cache key for a (network, scene, options) combination. Doubles
     * enter by their exact bit pattern, so distinct values never
     * share a key.
     */
    static std::string cacheKey(const NetworkSpec &net,
                                const SceneParams &scene,
                                const ExecutorOptions &opts);

  private:
    std::string directory_;
    Tracer tracer_;
};

} // namespace diffy

#endif // DIFFY_CORE_TRACE_CACHE_HH

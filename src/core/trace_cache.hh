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
 * Weights are not in trace files: each layer records its bank's
 * WeightKey (nn/weight_store.hh). get() resolves every bank in this
 * order: WeightStore::instance()'s memory; one `<bank-key>.weights`
 * file in the cache directory, written once per key rather than once
 * per scene; synthesis, if neither exists. It does so for the banks a
 * loaded trace names and, before a miss is traced, for every layer of
 * the network, so the forward pass finds them in the store. Reading a
 * bank file is about ten times cheaper than synthesizing it, which is
 * why a fresh process reads banks rather than rebuilding them.
 *
 * Crash-safe recovery (DESIGN.md §12): trace and bank files carry the
 * same CRC-32C envelope (nn/envelope.hh), validated on load. An entry
 * that fails the magic, length, checksum or key check is renamed to
 * `<name>.corrupt` for post-mortem inspection, counted in
 * `trace_cache.corrupt_evictions`, and regenerated like a plain
 * miss — garbage on disk never reaches a simulation.
 */

#ifndef DIFFY_CORE_TRACE_CACHE_HH
#define DIFFY_CORE_TRACE_CACHE_HH

#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "image/synth.hh"
#include "nn/executor.hh"
#include "nn/trace.hh"
#include "nn/weight_store.hh"

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
     * load, or one tracer call followed by an atomic store of the
     * trace and of any bank file it needs.
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
    /** The bank of @p key: from the store, else its bank file, else
     *  synthesized. Writes the bank file if it is missing. */
    std::shared_ptr<const WeightBank> bank(const WeightKey &key) const;
    std::filesystem::path bankPath(const WeightKey &key) const;

    std::string directory_;
    Tracer tracer_;
};

} // namespace diffy

#endif // DIFFY_CORE_TRACE_CACHE_HH

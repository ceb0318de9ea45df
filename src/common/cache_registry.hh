/**
 * @file
 * Central registry of thread-local memo-cache clear hooks.
 *
 * A hot path may memoize a pure function in a `thread_local` map
 * (none does today: facts derived from one trace layer live on the
 * trace, see LayerFacts in nn/trace.hh, and weight banks in the
 * process-wide WeightStore, nn/weight_store.hh), and a few
 * thread_local pointers and shard caches (common/pool, obs) register
 * the same way. Each such cache is a correctness hazard if a
 * stale entry survives a sweep reconfiguration, and an operational hazard if
 * its clear hook exists only as an ad-hoc function nobody remembers to
 * call. This registry centralizes the hooks:
 *
 *  - every translation unit that declares a `thread_local` memo cache
 *    registers a clear function with DIFFY_REGISTER_THREAD_CACHE
 *    (diffy-lint rule R2 enforces this);
 *  - clearRegisteredThreadCaches() invokes every registered hook *on
 *    the calling thread* — thread_local storage is per-thread, so the
 *    call resets only the caller's instances. SweepScheduler::run()
 *    calls it at sweep setup, which covers both execution modes: the
 *    serial inline path reuses the caller thread across sweeps (where
 *    stale memos could otherwise persist), and the pool path spawns
 *    fresh workers whose caches start empty.
 *
 * Registration happens during static initialization via the macro's
 * file-scope registrar object; the registry itself is a Meyers
 * singleton, so it is constructed on first use regardless of TU
 * initialization order.
 */

#ifndef DIFFY_COMMON_CACHE_REGISTRY_HH
#define DIFFY_COMMON_CACHE_REGISTRY_HH

#include <cstddef>
#include <string>
#include <vector>

namespace diffy
{

/** Clears the calling thread's instance of one thread_local cache. */
using ThreadCacheClearFn = void (*)();

/**
 * Register a clear hook under a diagnostic name. Returns true so the
 * macro below can initialize a file-scope registrar. Idempotent per
 * (name, fn) pair: re-registration (e.g. from a test harness) is
 * ignored.
 */
bool registerThreadCacheClear(const char *name, ThreadCacheClearFn fn);

/** Run every registered hook on the calling thread. */
void clearRegisteredThreadCaches();

/** Diagnostic names of the registered hooks, in registration order. */
std::vector<std::string> registeredThreadCacheNames();

/** Number of registered hooks. */
std::size_t registeredThreadCacheCount();

} // namespace diffy

/**
 * Register @p fn as the clear hook of the thread_local cache(s) in
 * this translation unit. Place at namespace scope in the same file as
 * the `thread_local` declaration.
 */
#define DIFFY_REGISTER_THREAD_CACHE(tag, fn)                              \
    namespace                                                             \
    {                                                                     \
    [[maybe_unused]] const bool diffy_cache_registrar_##tag =             \
        ::diffy::registerThreadCacheClear(#tag, fn);                      \
    }                                                                     \
    static_assert(true, "require a trailing semicolon")

#endif // DIFFY_COMMON_CACHE_REGISTRY_HH

/**
 * @file
 * A thread-safe map whose values are each computed at most once.
 *
 * The layer facts (nn/trace.hh) and the weight store
 * (nn/weight_store.hh) both memoize an expensive pure function of a
 * key for many reader threads; this is their one fill protocol
 * (DESIGN.md §8).
 */

#ifndef DIFFY_NN_ONCE_MAP_HH
#define DIFFY_NN_ONCE_MAP_HH

#include <atomic>
#include <map>
#include <mutex>
#include <optional>

#include "obs/metrics.hh"

namespace diffy
{

/**
 * Values by key, each filled at most once and then held for the life
 * of the map. Slots are never erased, so a filled value is read
 * without a lock.
 */
template <typename Key, typename Value>
class OnceMap
{
  public:
    /**
     * The value under @p key. The first caller runs @p compute (a
     * callable returning Value) while callers of the same key wait;
     * later callers read the stored value. If @p compute throws,
     * nothing is stored and the next caller computes it. A caller
     * that blocked while another thread filled the key adds its wait,
     * in microseconds, to @p waited if given.
     */
    template <typename Fn>
    Value
    get(const Key &key, Fn &&compute, obs::Counter *waited = nullptr)
    {
        Slot *slot = nullptr;
        {
            std::lock_guard<std::mutex> lock(mu_);
            slot = &slots_[key];
        }
        if (!slot->ready) {
            std::unique_lock<std::mutex> lock(slot->fill, std::try_to_lock);
            if (!lock.owns_lock()) {
                // Slow path: another thread holds the fill. The wait
                // counts only if that thread filled the slot.
                std::optional<obs::ScopedMicros> wait;
                if (waited != nullptr)
                    wait.emplace(*waited);
                lock.lock();
                if (!slot->ready && wait)
                    wait->dismiss();
            }
            if (!slot->ready) {
                slot->value = compute();
                slot->ready = true;
            }
        }
        return slot->value;
    }

  private:
    /** One key: `fill` serializes its single computation; `ready`, set
     *  after `value` is written, lets later readers skip that mutex. */
    struct Slot
    {
        std::atomic<bool> ready{false};
        std::mutex fill;
        Value value{};
    };

    std::mutex mu_; ///< guards the map, not the slots' values
    std::map<Key, Slot> slots_;
};

} // namespace diffy

#endif // DIFFY_NN_ONCE_MAP_HH

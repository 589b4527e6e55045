/**
 * @file
 * Lock-free flow activity stamps for background aging.
 *
 * The revalidator ages idle flows the way OVS's revalidator threads do:
 * a flow that has not carried a packet for `idleTimeout` is removed
 * from the megaflow/EMC layers. The data path must therefore report
 * "this flow was just active" without taking a lock or touching shared
 * mutable structures beyond a single relaxed store.
 *
 * FlowActivity is a power-of-two array of epoch stamps indexed by a
 * hash of the flow key. Workers stamp the current epoch on every match
 * (one relaxed load + one relaxed store); the revalidator advances the
 * epoch on its sweep cadence and compares stamps against it. Hash
 * aliasing is benign: a collision can only keep an idle flow alive one
 * timeout longer (conservative, cache semantics), never age a live one
 * early — both flows stamp the same slot.
 *
 * All accesses are relaxed atomics: a stamp is a monotonic hint, not a
 * synchronization edge, and a sweep that misses an in-flight stamp by
 * one epoch just ages the flow on the next sweep.
 */

#ifndef HALO_FLOW_FLOW_ACTIVITY_HH
#define HALO_FLOW_FLOW_ACTIVITY_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "hash/hash_fn.hh"
#include "net/headers.hh"
#include "sim/types.hh"

namespace halo {

/** Shared seed so workers and the revalidator hash a flow key to the
 *  same activity slot. */
constexpr std::uint64_t activityHashSeed = 0xf10afedu;

/** The activity-slot hash of a canonical flow key: flowHash over its
 *  two 8-byte words. The worker's stamps and upcall dedup and the
 *  revalidator's tracked flows all use it, so they agree on a slot. */
inline std::uint64_t
activityHash(std::span<const std::uint8_t, FiveTuple::keyBytes> key)
{
    return flowHash(loadLe64(key.data()), loadLe64(key.data() + 8),
                    activityHashSeed);
}

class FlowActivity
{
  public:
    /** @param slots Stamp slots; rounded up to a power of two. */
    explicit FlowActivity(std::size_t slots = 1u << 16)
        : mask_(nextPowerOfTwo(std::max<std::size_t>(slots, 2)) - 1),
          stamps_(std::make_unique<std::atomic<std::uint64_t>[]>(
              mask_ + 1))
    {
        for (std::size_t i = 0; i <= mask_; ++i)
            stamps_[i].store(0, std::memory_order_relaxed);
    }

    std::size_t slots() const { return mask_ + 1; }

    /** Data path: stamp @p hash's slot with the current epoch. */
    void
    touch(std::uint64_t hash)
    {
        stamps_[hash & mask_].store(
            epoch_.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    }

    /** Last epoch @p hash's slot was stamped in (0 = never). */
    std::uint64_t
    stamp(std::uint64_t hash) const
    {
        return stamps_[hash & mask_].load(std::memory_order_relaxed);
    }

    /** Revalidator: current epoch (starts at 1). */
    std::uint64_t
    epoch() const
    {
        return epoch_.load(std::memory_order_relaxed);
    }

    /** Revalidator: open the next epoch (one per aging sweep). */
    std::uint64_t
    advanceEpoch()
    {
        return epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

  private:
    std::size_t mask_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> stamps_;
    std::atomic<std::uint64_t> epoch_{1};
};

} // namespace halo

#endif // HALO_FLOW_FLOW_ACTIVITY_HH

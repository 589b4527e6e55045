/**
 * @file
 * Exact Match Cache — the first datapath layer of the virtual switch
 * (paper Fig. 2a).
 *
 * The EMC is a small fixed-size signature cache keyed on the full packet
 * header: one hash, two candidate entries, replace-on-miss (the first
 * candidate goes when both hold live entries). It lives in
 * simulated memory so its (small) cache footprint and its limited
 * capacity — the reason MegaFlow dominates at high flow counts — are
 * both real in the model.
 *
 * The cache has one thread: the switch that probes it also fills it.
 * The decoupled runtime, whose tables take a concurrent writer, runs
 * its switches without an EMC (VSwitchConfig::deferSlowPath).
 */

#ifndef HALO_FLOW_EMC_HH
#define HALO_FLOW_EMC_HH

#include <atomic>
#include <cstdint>
#include <optional>

#include "hash/access.hh"
#include "hash/hash_fn.hh"
#include "hash/table_layout.hh"
#include "mem/sim_memory.hh"
#include "net/headers.hh"
#include "sim/stats.hh"

namespace halo {

/**
 * OVS-style exact-match cache: 8192 entries by default, 2-way
 * pseudo-associative on one hash.
 */
class ExactMatchCache
{
  public:
    ExactMatchCache(SimMemory &memory, std::uint64_t entries = 8192,
                    std::uint64_t seed = 0x9d1cu);

    /** Movable for container storage (setup-time only). */
    ExactMatchCache(ExactMatchCache &&other) noexcept
        : mem(other.mem),
          numEntries(other.numEntries),
          seed_(other.seed_),
          base(other.base),
          hits_(other.hits_.load(std::memory_order_relaxed)),
          misses_(other.misses_.load(std::memory_order_relaxed))
    {
        evictOverwrites_.set(other.evictOverwrites_.value());
    }

    /** Look up a full key; hit returns the stored value. */
    std::optional<std::uint64_t>
    lookup(std::span<const std::uint8_t, FiveTuple::keyBytes> key,
           AccessTrace *trace = nullptr) const;

    /**
     * Pipelined, untraced bulk probe of @p n keys (n <= maxBulkLanes):
     * hash all keys and prefetch their candidate slots first, then run
     * the probes over warm lines. Bit i of the returned mask is set and
     * values[i] holds the cached value for every hit; values of miss
     * lanes are untouched. slots[i] receives lane i's two candidate
     * slot indices (insert() writes one of them).
     */
    std::uint32_t lookupBulk(const std::uint8_t *const *keys,
                             std::size_t n, std::uint64_t *values,
                             std::uint64_t (*slots)[2]) const;

    /**
     * Insert: fill an empty candidate or update the key's own slot;
     * otherwise overwrite the first candidate.
     * @return the slot index that was written.
     */
    std::uint64_t
    insert(std::span<const std::uint8_t, FiveTuple::keyBytes> key,
           std::uint64_t value, AccessTrace *trace = nullptr);

    /** Always 0: the cache takes no concurrent writer. Kept only
     *  because the perfbench harness still reads it; drop it with that
     *  harness's next revision. */
    std::uint64_t seqlockRetries() const { return 0; }

    /** @name Lookup/eviction telemetry (relaxed counters, any thread) */
    /**@{*/
    std::uint64_t
    lookupHits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    lookupMisses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    /** Live entries overwritten by a conflicting insert. */
    std::uint64_t evictOverwrites() const
    {
        return evictOverwrites_.value();
    }
    /**@}*/

    std::uint64_t entryCount() const { return numEntries; }
    std::uint64_t footprintBytes() const { return numEntries * slotBytes; }
    Addr baseAddr() const { return base; }

    /** Iterate all lines for cache warming. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::uint64_t off = 0; off < footprintBytes();
             off += cacheLineBytes)
            fn(base + off);
    }

  private:
    /// Slot: u32 sig, u32 generation, 16B key, u64 value = 32 bytes.
    static constexpr std::uint64_t slotBytes = 32;
    /// A live slot's generation word; zeroed memory (0) is empty.
    static constexpr std::uint32_t generation = 1;

    Addr slotAddr(std::uint64_t idx) const { return base + idx * slotBytes; }
    /** Slot-index mask: every probe covers the whole footprint. */
    std::uint64_t indexMask() const { return numEntries - 1; }
    std::uint64_t hashKey(
        std::span<const std::uint8_t, FiveTuple::keyBytes> key) const;

    SimMemory &mem;
    std::uint64_t numEntries;
    std::uint64_t seed_;
    Addr base = invalidAddr;

    /// Probe counters, atomic so a metrics render may read them while
    /// the owning thread probes.
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    PublishedCounter evictOverwrites_;
};

} // namespace halo

#endif // HALO_FLOW_EMC_HH

/**
 * @file
 * Exact Match Cache — the first datapath layer of the virtual switch
 * (paper Fig. 2a).
 *
 * The EMC is a small fixed-size signature cache keyed on the full packet
 * header: one hash, two candidate entries, replace-on-miss (the older
 * insert epoch of the two goes). It lives in
 * simulated memory so its (small) cache footprint and its limited
 * capacity — the reason MegaFlow dominates at high flow counts — are
 * both real in the model.
 */

#ifndef HALO_FLOW_EMC_HH
#define HALO_FLOW_EMC_HH

#include <atomic>
#include <cstdint>
#include <optional>

#include "hash/access.hh"
#include "hash/hash_fn.hh"
#include "hash/seqlock.hh"
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

    /** Movable for container storage (setup-time only — never move a
     *  cache other threads are reading). */
    ExactMatchCache(ExactMatchCache &&other) noexcept
        : mem(other.mem),
          numEntries(other.numEntries),
          seed_(other.seed_),
          base(other.base),
          generation(other.generation.load(std::memory_order_relaxed)),
          concurrent_(other.concurrent_),
          seq_(std::move(other.seq_)),
          seqRetries_(other.seqRetries_.load(std::memory_order_relaxed)),
          epoch_(other.epoch_),
          enabled_(other.enabled_.load(std::memory_order_relaxed)),
          hits_(other.hits_.load(std::memory_order_relaxed)),
          misses_(other.misses_.load(std::memory_order_relaxed))
    {
        evictOverwrites_.set(other.evictOverwrites_.value());
        clears_.set(other.clears_.value());
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
     * slot indices (insert() writes one of them). In concurrent mode
     * the first stage also prefetches the slots' seqlock counters and
     * every lane is then validated as the scalar lookup() does.
     */
    std::uint32_t lookupBulk(const std::uint8_t *const *keys,
                             std::size_t n, std::uint64_t *values,
                             std::uint64_t (*slots)[2]) const;

    /**
     * Insert: fill an empty candidate or update the key's own slot;
     * otherwise overwrite the candidate with the older insert epoch
     * (on a tie, the first). @return the slot index that was written.
     */
    std::uint64_t
    insert(std::span<const std::uint8_t, FiveTuple::keyBytes> key,
           std::uint64_t value, AccessTrace *trace = nullptr);

    /**
     * Remove one key (flow aging / revalidation of a single entry).
     * Writer-side operation; zeroes the whole slot, and generation 0 is
     * never valid (the live generation starts at 1 and only grows).
     * @return true when the key was cached.
     */
    bool erase(std::span<const std::uint8_t, FiveTuple::keyBytes> key);

    /** Invalidate everything (rule-table revalidation). */
    void clear();

    /** @name Concurrent host-path mode (single writer, seqlocked readers)
     *
     * Mirrors CuckooHashTable::enableConcurrent(): per-slot seqlock
     * counters let one writer insert()/erase() while data-path readers
     * lookup() lock-free. Call before threads start.
     */
    /**@{*/
    void enableConcurrent();
    bool concurrentEnabled() const { return concurrent_; }
    std::uint64_t
    seqlockRetries() const
    {
        return seqRetries_.load(std::memory_order_relaxed);
    }
    /**@}*/

    /** @name Eviction and on/off control (adaptive EMC, DESIGN.md §16)
     *
     * The high 16 bits of each slot's signature word hold the insert
     * epoch (the low 16 bits filter just as well because the full-key
     * compare still gates every hit). The single writer gets
     *
     *  - recency-informed eviction: on a two-way conflict the insert
     *    overwrites the candidate with the *older* insert epoch; a cache
     *    whose epoch never advances (a timed switch) always overwrites
     *    the first candidate;
     *  - seqlock-safe disable/enable: setEnabled() is one relaxed flag
     *    the data path consults before probing, and clear() invalidates
     *    every entry in O(1) (generation bump), so a re-enabled cache
     *    starts cold. Readers never block on either transition.
     */
    /**@{*/
    /** Writer-side: epoch stamped into subsequent inserts (the
     *  revalidator's aging sweep advances it). */
    void setEpoch(std::uint16_t epoch) { epoch_ = epoch; }
    std::uint16_t epoch() const { return epoch_; }

    /** Writer-side: controller on/off switch. Readers (the worker
     *  data path) observe it with one relaxed load per packet and
     *  skip the probe entirely when off — the hybrid-mode payoff. */
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** @name Lookup/eviction telemetry (relaxed counters, any thread) */
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
    /** Generation bumps (clear() calls, controller disables among
     *  them). */
    std::uint64_t clearCount() const { return clears_.value(); }
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

    Addr slotAddr(std::uint64_t idx) const { return base + idx * slotBytes; }
    /** Slot-index mask: every probe covers the whole footprint. */
    std::uint64_t indexMask() const { return numEntries - 1; }
    std::uint64_t hashKey(
        std::span<const std::uint8_t, FiveTuple::keyBytes> key) const;

    /** Seqlock-validated probe of @p key (hash @p h) used for every
     *  lookup in concurrent mode; records nothing and counts no hit or
     *  miss. */
    std::optional<std::uint64_t> probeConcurrent(const std::uint8_t *key,
                                                 std::uint64_t h) const;

    SimMemory &mem;
    std::uint64_t numEntries;
    std::uint64_t seed_;
    Addr base = invalidAddr;
    /// Current generation; relaxed atomic so the writer can bump it
    /// (O(1) invalidate-all) under concurrent readers.
    std::atomic<std::uint32_t> generation{1};

    /// Concurrent host-path mode (host-side seqlocks, one per slot).
    bool concurrent_ = false;
    SeqlockArray seq_;
    mutable std::atomic<std::uint64_t> seqRetries_{0};

    /// Eviction and on/off state. All writes below are single-writer
    /// (revalidator); atomics are the reader-visible knobs/telemetry.
    std::uint16_t epoch_ = 0;        ///< writer-side insert stamp
    std::atomic<bool> enabled_{true};
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    PublishedCounter evictOverwrites_; ///< writer-side
    PublishedCounter clears_;          ///< generation bumps
};

} // namespace halo

#endif // HALO_FLOW_EMC_HH

/**
 * @file
 * Exact Match Cache — the first datapath layer of the virtual switch
 * (paper Fig. 2a).
 *
 * The EMC is a small fixed-size signature cache keyed on the full packet
 * header: one hash, two candidate entries, replace-on-miss. It lives in
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
          managed_(other.managed_),
          epoch_(other.epoch_),
          live_(other.live_),
          activeMask_(other.activeMask_.load(std::memory_order_relaxed)),
          enabled_(other.enabled_.load(std::memory_order_relaxed)),
          hits_(other.hits_.load(std::memory_order_relaxed)),
          misses_(other.misses_.load(std::memory_order_relaxed))
    {
        livePub_.set(live_);
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
     * Insert (replaces the older of the two candidates on conflict).
     * @return the slot index that was written.
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

    /** @name Managed-cache mode (adaptive EMC, DESIGN.md §16)
     *
     * enableManaged() — call before threads start — rededicates the
     * high 16 bits of each slot's signature word as an insert-epoch
     * stamp (PR 6 freed the analogous aux bytes in the cuckoo bucket
     * line; the EMC's 32-bit signature has the same slack: the low 16
     * bits filter just as well because the full-key compare still
     * gates every hit). The single writer then gains
     *
     *  - recency-informed eviction: on a two-way conflict the insert
     *    overwrites the candidate with the *older* insert epoch
     *    instead of blindly clobbering the first one;
     *  - occupancy tracking (liveEntries(), any thread);
     *  - seqlock-safe disable/enable/resize: setEnabled() is one
     *    relaxed flag the data path consults before probing, and
     *    setActiveEntries() shrinks/grows the probed index range in
     *    O(1) (generation bump invalidates every entry, so stale
     *    slots outside — or stranded inside — the new range can never
     *    alias a live flow). Readers never block on any transition.
     */
    /**@{*/
    void enableManaged();
    bool managedEnabled() const { return managed_; }

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

    /**
     * Writer-side resize within the allocated footprint: @p entries
     * must be a power of two <= the constructed entry count. Bumps the
     * generation (O(1) invalidate-all), so the new index range starts
     * empty and entries stranded by a shrink can never resurrect.
     */
    void setActiveEntries(std::uint64_t entries);
    std::uint64_t
    activeEntries() const
    {
        return activeMask_.load(std::memory_order_relaxed) + 1;
    }

    /** Valid entries currently cached (published mirror; any thread).
     *  Exact in managed mode, 0 otherwise. */
    std::uint64_t liveEntries() const { return livePub_.value(); }

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
    /** Live entries overwritten by a conflicting insert (managed). */
    std::uint64_t evictOverwrites() const
    {
        return evictOverwrites_.value();
    }
    /** Generation bumps (clear / resize / disable transitions). */
    std::uint64_t clearCount() const { return clears_.value(); }
    /**@}*/

    /** Constructed (maximum) entry count; the probed range may be
     *  smaller in managed mode, see activeEntries(). */
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
    std::uint64_t hashKey(
        std::span<const std::uint8_t, FiveTuple::keyBytes> key) const;

    /** Seqlock-validated probe of @p key (hash @p h, index mask
     *  @p mask) used for every lookup in concurrent mode; records the
     *  same refs as the plain lookup and counts no hit or miss. */
    std::optional<std::uint64_t> probeConcurrent(const std::uint8_t *key,
                                                 std::uint64_t h,
                                                 std::uint64_t mask,
                                                 AccessTrace *trace) const;

    SimMemory &mem;
    std::uint64_t numEntries;
    std::uint64_t seed_;
    Addr base = invalidAddr;
    /// Current generation; relaxed atomic so the managed-mode writer
    /// can bump it (O(1) invalidate-all) under concurrent readers.
    /// Plain mode never mutates it post-setup.
    std::atomic<std::uint32_t> generation{1};

    /// Concurrent host-path mode (host-side seqlocks, one per slot).
    bool concurrent_ = false;
    SeqlockArray seq_;
    mutable std::atomic<std::uint64_t> seqRetries_{0};

    /// Managed-cache mode (adaptive EMC). All writes below are
    /// single-writer (revalidator); atomics are the reader-visible
    /// knobs/telemetry.
    bool managed_ = false;
    std::uint16_t epoch_ = 0;        ///< writer-side insert stamp
    std::uint64_t live_ = 0;         ///< writer-owned occupancy
    PublishedCounter livePub_;       ///< any-thread mirror of live_
    std::atomic<std::uint64_t> activeMask_;
    std::atomic<bool> enabled_{true};
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    PublishedCounter evictOverwrites_; ///< writer-side (managed)
    PublishedCounter clears_;          ///< generation bumps
};

} // namespace halo

#endif // HALO_FLOW_EMC_HH

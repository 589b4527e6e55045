/**
 * @file
 * Set-associative tag-array cache model.
 *
 * Data never lives here — SimMemory is the single functional store — so
 * the cache tracks presence, dirtiness, the HALO lock bit, and LRU state
 * per line. The model is deliberately data-less, which is sufficient for
 * every effect the paper measures (residency, miss rates, lock conflicts).
 */

#ifndef HALO_MEM_CACHE_HH
#define HALO_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halo {

/** Which level of the hierarchy serviced an access. */
enum class MemLevel : std::uint8_t
{
    L1,
    L2,
    LLC,
    RemoteCache, ///< dirty line forwarded from another core's private cache
    DRAM,
};

/** Human-readable level name. */
const char *memLevelName(MemLevel level);

/**
 * One cache way. The lockBit is the reserved metadata bit HALO uses for
 * its hardware-assisted concurrency lock (paper §4.4); it is only ever
 * set on LLC lines.
 */
struct CacheLineState
{
    Addr tag = invalidAddr;   ///< full line address (tag+index combined)
    bool valid = false;
    bool dirty = false;
    bool lockBit = false;     ///< HALO hardware lock (LLC only)
    std::uint64_t lruStamp = 0;
};

/** Result of a single cache probe. */
struct CacheProbe
{
    bool hit = false;
    bool evictedValid = false;
    bool evictedDirty = false;
    Addr evictedLine = invalidAddr;
};

/**
 * A single set-associative cache (used for L1, L2, and each LLC slice).
 */
class Cache
{
  public:
    /**
     * @param cache_name  Stats group name.
     * @param size_bytes  Total capacity.
     * @param assoc       Associativity.
     * @param latency     Hit latency in cycles.
     */
    Cache(const std::string &cache_name, std::uint64_t size_bytes,
          unsigned assoc, Cycles latency);

    /** Hit latency of this array. */
    Cycles latency() const { return hitLatency; }

    /** Capacity in bytes. */
    std::uint64_t capacity() const { return sizeBytes; }

    /** True when the line is present (no state change, no stats). */
    bool contains(Addr line_addr) const;

    /**
     * Probe for a line; on hit refresh LRU, on miss allocate (possibly
     * evicting). The caller decides what a miss costs.
     *
     * @param line_addr line-aligned address
     * @param is_write  marks the line dirty on hit/fill
     * @param allocate_on_miss fill the line on miss (false = probe only)
     */
    CacheProbe access(Addr line_addr, bool is_write,
                      bool allocate_on_miss = true);

    /**
     * Remove a line (back-invalidation from an inclusive LLC or a snoop).
     * @return true when the line was present and dirty.
     */
    bool invalidate(Addr line_addr);

    /** Try to set the HALO lock bit. Fails when the line is absent. */
    bool setLockBit(Addr line_addr, bool locked);

    /** Read the lock bit; absent lines report unlocked. */
    bool lockBit(Addr line_addr) const;

    /** Lines currently valid (O(capacity); for tests). */
    std::uint64_t validLines() const;

    /** Drop every line. */
    void flushAll();

    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

  private:
    CacheLineState *findLine(Addr line_addr);
    const CacheLineState *findLine(Addr line_addr) const;
    std::uint64_t setIndex(Addr line_addr) const;

    std::uint64_t sizeBytes;
    unsigned associativity;
    std::uint64_t sets;
    Cycles hitLatency;
    std::uint64_t lruCounter = 0;
    std::vector<CacheLineState> lines;

    StatGroup statGroup;
    Counter &hits;
    Counter &misses;
    Counter &evictions;
    Counter &writebacks;
};

} // namespace halo

#endif // HALO_MEM_CACHE_HH

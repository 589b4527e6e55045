/**
 * @file
 * The HALO near-cache accelerator (paper SS4.3, Fig. 6).
 *
 * One accelerator sits at each CHA. A query (key address, table address,
 * result destination) walks the full cuckoo-lookup microprogram against
 * the LLC through the CHA's data port:
 *
 *   metadata fetch (metadata cache) -> key fetch -> hash -> bucket fetch
 *   (+lock) -> signature compare -> key-value fetch (+lock) -> key
 *   compare -> [alternative bucket] -> unlock -> result.
 *
 * The model executes the microprogram functionally against SimMemory —
 * the accelerator understands the self-describing table layout, exactly
 * like the hardware — while accumulating cycle costs from the memory
 * hierarchy's CHA-side access path. Queries buffered in the scoreboard
 * execute one at a time through the engine; the scoreboard provides
 * queueing and backpressure (the "busy bit", SS4.3).
 */

#ifndef HALO_CORE_ACCELERATOR_HH
#define HALO_CORE_ACCELERATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/halo_config.hh"
#include "flow/decision_tree.hh"
#include "hash/table_layout.hh"
#include "mem/hierarchy.hh"
#include "mem/sim_memory.hh"
#include "sim/stats.hh"

namespace halo {

/** Result-slot encodings for LOOKUP_NB destinations (paper SS4.5: slots
 *  start zero; the accelerator writes a non-zero word). */
inline constexpr std::uint64_t nbPendingWord = 0;
inline constexpr std::uint64_t nbMissWord = ~0ull;

/** Per-phase latency breakdown of one query (Fig. 10 bars). */
struct QueryBreakdown
{
    Cycles metadata = 0;
    Cycles keyFetch = 0;
    Cycles compute = 0;   ///< hash + comparisons + fixed overhead
    Cycles dataAccess = 0;///< bucket + key-value fetches
    Cycles locking = 0;
    Cycles queueing = 0;  ///< waited in the scoreboard

    Cycles
    total() const
    {
        return metadata + keyFetch + compute + dataAccess + locking +
               queueing;
    }
};

/** Outcome of one accelerator query. */
struct QueryResult
{
    bool found = false;
    std::uint64_t value = 0;
    /// Cycle the engine finished the query (result in result queue).
    Cycles finished = 0;
    /// Cycle the query was accepted into the scoreboard (backpressure).
    Cycles accepted = 0;
    std::uint64_t primaryHash = 0;
    QueryBreakdown breakdown;
};

/**
 * One near-cache accelerator instance.
 */
class HaloAccelerator
{
  public:
    HaloAccelerator(SimMemory &memory, MemoryHierarchy &hierarchy,
                    SliceId slice_id, const HaloConfig &config);

    /**
     * Execute a lookup query arriving at the CHA at @p arrival.
     * Functionally reads the table through SimMemory; charges CHA-side
     * timing.
     */
    QueryResult execute(Addr table_addr, Addr key_addr, Cycles arrival);

    /** Earliest cycle a new query would be accepted (busy-bit model). */
    Cycles nextAcceptTime() const;

    /** Drop a cached metadata line (snoop invalidation, SS4.3). */
    void invalidateMetadata(Addr table_addr);

    /** Queries rejected by the bounds checker so far (SS4.7). */
    std::uint64_t boundsViolations() const
    {
        return statGroup.counterValue("bounds_violations");
    }

    /** Reset pipeline/queue state between experiments (keeps stats). */
    void drain();

    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

  private:
    /** One metadata line: a hash table's TableMetadata or a decision
     *  tree's TreeHeader, distinguished by its magic word. */
    struct MetadataEntry
    {
        Addr tableAddr = invalidAddr;
        std::array<std::uint8_t, cacheLineBytes> blob{};
        std::uint64_t lruStamp = 0;
    };

    /** Metadata-cache probe; fills on miss. Returns access latency. */
    Cycles fetchMetadata(Addr table_addr,
                         std::array<std::uint8_t, cacheLineBytes> &out);

    /** Hash-table lookup microprogram (paper SS4.3). */
    void runHashLookup(const TableMetadata &md, Addr key_addr,
                       Cycles &now, QueryResult &result);

    /** Decision-tree walk microprogram (paper SS4.8). */
    void runTreeWalk(const TreeHeader &hdr, Addr key_addr, Cycles &now,
                     QueryResult &result);

    /** Lock a line, paying contention cost if another query holds it. */
    Cycles acquireLock(Addr line, QueryBreakdown &bd);

    /**
     * Bounds check (paper SS4.7: "Halo accelerator also enforces
     * boundary check for each memory access"): every derived address
     * must fall inside the table's own regions; a violating query is
     * aborted with a miss result instead of touching memory.
     */
    bool inBounds(const TableMetadata &md, Addr addr,
                  std::uint64_t bytes) const;

    SimMemory &mem;
    MemoryHierarchy &hier;
    SliceId slice;
    HaloConfig cfg;

    /// Engine is serial: one query in execution at a time.
    Cycles engineFreeAt = 0;
    /// Scoreboard slots hold queries until their completion drains.
    std::vector<Cycles> scoreboardFreeAt;
    std::uint64_t metadataLru = 0;
    std::vector<MetadataEntry> metadataCache;

    StatGroup statGroup;
    Counter &queries;
    Counter &hitsFound;
    Counter &metadataHits;
    Counter &metadataMisses;
    Counter &lockConflicts;
    Counter &secondBucketProbes;
    Counter &boundsViolationCount;
};

} // namespace halo

#endif // HALO_CORE_ACCELERATOR_HH

/**
 * @file
 * DPDK rte_hash-style 8-way cuckoo hash table over simulated memory.
 *
 * This is the software baseline the paper profiles (Table 1, Fig. 4) and
 * the data structure HALO accelerates: two candidate buckets per key, a
 * short signature filter in the bucket line, key-value pairs in a
 * separate contiguous array, and BFS displacement on insert so the table
 * reaches ~95% occupancy without rehashing.
 *
 * All persistent state lives in SimMemory; every functional operation
 * can record its exact reference stream (AccessTrace) for the timing
 * models. The optimistic version lock of DPDK's rte_hash is modeled by a
 * version counter in the table's second metadata line: readers sample it
 * before and after, writers bump it around modifications (paper SS3.4
 * measures this protocol at 13.1% of execution time).
 */

#ifndef HALO_HASH_CUCKOO_TABLE_HH
#define HALO_HASH_CUCKOO_TABLE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "hash/access.hh"
#include "hash/seqlock.hh"
#include "hash/table_layout.hh"
#include "mem/sim_memory.hh"
#include "sim/stats.hh"

namespace halo {

/** Key bytes as viewed by table operations. */
using KeyView = std::span<const std::uint8_t>;

/**
 * Cuckoo hash table (paper SS2.2). Thread-unsafe by default: concurrency
 * is an explicitly modeled effect (software version lock vs HALO
 * hardware lock), not a host-level property, and every simulated bench
 * runs the table in that mode bit-for-bit unchanged.
 *
 * enableConcurrent() additionally arms a host-path optimistic read
 * protocol — per-bucket seqlock counters (hash/seqlock.hh) bumped
 * around insert/erase/displacement, readers retrying on version change
 * — so ONE writer thread may mutate the table while any number of
 * data-path readers run lock-free. The simulated version-lock line
 * stays the modeled protocol; the per-bucket counters are its host
 * execution analog (HALO's per-line hardware lock bit, paper SS3.4).
 */
class CuckooHashTable
{
  public:
    struct Config
    {
        std::uint32_t keyLen = 16;       ///< bytes per key
        std::uint64_t capacity = 1024;   ///< max entries to hold
        HashKind hashKind = HashKind::XxMix;
        std::uint64_t seed = 0x5151bead;
        /// Target max load factor used to size the bucket array.
        double maxLoadFactor = 0.95;
        /// Cuckoo++ negative filter (DESIGN.md §13): signatures shrink
        /// to 24 bits and the freed byte per entry packs a 32-bit Bloom
        /// of displaced-out signatures into the bucket line
        /// (table_layout.hh), so a miss whose primary Bloom probe is
        /// negative ends after one bucket read.
        bool negativeFilter = false;
    };

    /** Build an empty table inside @p memory. */
    CuckooHashTable(SimMemory &memory, const Config &config);

    /** Movable for container storage (setup-time only — never move a
     *  table other threads are reading). */
    CuckooHashTable(CuckooHashTable &&other) noexcept
        : mem(other.mem),
          md(other.md),
          mdAddr(other.mdAddr),
          numItems(other.numItems),
          displaceCount(other.displaceCount),
          freeSlots(std::move(other.freeSlots)),
          negFilter_(other.negFilter_),
          concurrent_(other.concurrent_),
          seq_(std::move(other.seq_)),
          seqRetries_(other.seqRetries_.load(std::memory_order_relaxed))
    {
        // Published mirrors are non-movable atomics: re-publish from
        // the plain writer-owned sources (setup-time only, see above).
        itemsPub_.set(numItems);
        movesPub_.set(displaceCount);
    }

    /** @name Functional operations */
    /**@{*/
    /**
     * Find @p key; returns its value when present. The one scalar probe:
     * with @p trace it also records the reference stream the timing
     * models price (metadata, version lock, key fetch, primary bucket,
     * its kv candidates, the alternate bucket when the negative filter
     * admits it, version lock). A concurrent table takes no trace.
     * @param trace    optional reference-stream recorder
     * @param key_addr simulated address the key bytes live at, when the
     *                 key is in simulated memory (invalidAddr = the key
     *                 is in registers / on the stack)
     */
    std::optional<std::uint64_t> lookup(KeyView key,
                                        AccessTrace *trace = nullptr,
                                        Addr key_addr = invalidAddr) const;

    /**
     * Insert or update @p key. Fails (returns false) only when the
     * displacement search cannot free a slot — practically never below
     * the configured load factor.
     */
    bool insert(KeyView key, std::uint64_t value,
                AccessTrace *trace = nullptr);

    /** Remove @p key; true when it was present. */
    bool erase(KeyView key, AccessTrace *trace = nullptr);

    /**
     * Pipelined, untraced bulk lookup of @p n keys (n <= maxBulkLanes),
     * the software analogue of DPDK's rte_hash_lookup_bulk: stage 0
     * hashes every key and software-prefetches both candidate bucket
     * lines, stage 1 scans bucket signatures (SIMD when compiled in,
     * see bucket_scan.hh) and prefetches every candidate key-value
     * slot, stage 2 runs the key compares. With N keys in flight the
     * DRAM latency of one lane's lines is hidden behind the other
     * lanes' work instead of being eaten serially per lookup. It
     * records no reference stream: the traced scalar lookup() is the
     * timing reference. In concurrent mode stage 0 also prefetches the
     * candidate buckets' seqlock counters, and every lane is then
     * validated through the scalar seqlocked probe.
     *
     * keys[i] points at keyLen() bytes. On return, bit i of the result
     * mask is set and values[i] holds the stored value for every found
     * key; values of missing lanes are untouched.
     */
    std::uint32_t lookupUntracedBulk(const std::uint8_t *const *keys,
                                     std::size_t n,
                                     std::uint64_t *values) const;
    /**@}*/

    /** Items currently stored. Safe from any thread in concurrent mode
     *  (published mirror of the writer-owned count). */
    std::uint64_t size() const { return itemsPub_.value(); }

    /** Maximum entries the kv array can hold. */
    std::uint64_t capacity() const { return md.kvSlots; }

    /** Fraction of bucket-entry slots in use. Like size(), reads the
     *  published mirror, so concurrent-mode readers see a consistent
     *  (eventually-exact) value instead of racing the writer. */
    double
    loadFactor() const
    {
        return static_cast<double>(itemsPub_.value()) /
               static_cast<double>(md.numBuckets * entriesPerBucket);
    }

    /** Key length in bytes. */
    std::uint32_t keyLen() const { return md.keyLen; }

    /** Simulated address of the metadata line — the "table address" the
     *  lookup instructions carry in RAX (paper SS4.5). */
    Addr metadataAddr() const { return mdAddr; }

    /** Simulated address of the software version-lock line. */
    Addr versionAddr() const { return mdAddr + cacheLineBytes; }

    /** Total simulated bytes of all table regions. */
    std::uint64_t footprintBytes() const;

    /** Invoke @p fn on every line of the table (cache warming). */
    void forEachLine(const std::function<void(Addr)> &fn) const;

    /** Metadata snapshot (host copy, kept in sync with SimMemory). */
    const TableMetadata &metadata() const { return md; }

    /** Number of displacement moves performed by inserts so far (any
     *  thread; published mirror). */
    std::uint64_t cuckooMoves() const { return movesPub_.value(); }

    /** True when the table runs the Cuckoo++ negative filter. */
    bool negativeFilter() const { return negFilter_; }

    /** @name Concurrent host-path mode (single writer, seqlocked readers)
     *
     * Must be called before any other thread touches the table; from
     * then on exactly one thread may call insert()/erase() while any
     * number of threads call lookup()/lookupUntracedBulk(). Host
     * members (size(), cuckooMoves(), ...) stay writer-owned.
     */
    /**@{*/
    void enableConcurrent();
    bool concurrentEnabled() const { return concurrent_; }

    /** Reader retries forced by concurrent writes (relaxed counter). */
    std::uint64_t
    seqlockRetries() const
    {
        return seqRetries_.load(std::memory_order_relaxed);
    }

    /**
     * Test hooks: hold / release the seqlock of @p key's primary bucket
     * as a writer would mid-mutation, so tests can pin a reader in its
     * retry loop deterministically. Never use outside tests.
     */
    void debugSeqWriteBegin(KeyView key);
    void debugSeqWriteEnd(KeyView key);
    /**@}*/

  private:
    struct Located
    {
        std::uint64_t bucket;
        unsigned way;
        std::uint32_t slot; ///< kv slot index
    };

    /** Hash @p key: primary bucket index and signature (24-bit in the
     *  negative-filter layout). */
    std::uint64_t primaryBucket(KeyView key, std::uint32_t &sig) const;
    /** Zero-copy host view of a bucket's cache line. */
    const std::uint8_t *bucketLine(std::uint64_t bucket) const;
    /** Decode entry @p way out of a bucket-line view. */
    static BucketEntry entryIn(const std::uint8_t *line, unsigned way);
    /** entryIn with the aux byte stripped from the signature in the
     *  negative-filter layout (identity otherwise). */
    BucketEntry entryAt(const std::uint8_t *line, unsigned way) const;
    /** Bit @p way set when that entry is occupied with signature
     *  @p sig; computed branchlessly over the whole bucket line
     *  (masked compare in the negative-filter layout). */
    unsigned sigScan(const std::uint8_t *line, std::uint32_t sig) const;
    BucketEntry readEntry(std::uint64_t bucket, unsigned way) const;
    /** Entry store (word-atomic in concurrent mode, where the caller
     *  holds the bucket's seqlock through txBegin()); preserves the aux
     *  byte in the negative-filter layout. */
    void writeEntry(std::uint64_t bucket, unsigned way,
                    const BucketEntry &entry);
    /** Store one aux byte (word-atomic RMW in concurrent mode; the
     *  caller holds the bucket's seqlock). */
    void auxByteStore(std::uint64_t bucket, unsigned aux_index,
                      std::uint8_t v);
    /** Set @p sig's Bloom bits in @p bucket's aux filter (the key was
     *  displaced out of this, its primary, bucket; negative-filter
     *  layout only). */
    void bloomAdd(std::uint64_t bucket, std::uint32_t sig,
                  AccessTrace *trace);
    /** True when @p line's negative Bloom admits @p sig. */
    static bool bloomMayContain(const std::uint8_t *line,
                                std::uint32_t sig);
    /** writeBegin/writeEnd one or two buckets' seqlocks around a
     *  mutation (no-ops when not concurrent). */
    void txBegin(std::uint64_t a, std::uint64_t b);
    void txEnd(std::uint64_t a, std::uint64_t b);
    bool keyMatches(std::uint32_t slot, KeyView key) const;
    std::optional<Located> find(KeyView key, std::uint32_t sig,
                                std::uint64_t b1, std::uint64_t b2) const;
    /**
     * Optimistic lookup in concurrent mode from a precomputed signature
     * and primary bucket: snapshot both candidate buckets' seqlocks,
     * word-copy the bucket lines and candidate kv slots atomically, and
     * retry whenever either counter moved. Records nothing.
     */
    std::optional<std::uint64_t>
    probeConcurrent(const std::uint8_t *key, std::uint32_t sig,
                    std::uint64_t b1) const;

    /** BFS for a displacement path ending in a free slot. */
    bool makeRoom(std::uint64_t bucket, AccessTrace *trace);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    void bumpVersion(AccessTrace *trace);

    SimMemory &mem;
    TableMetadata md;
    Addr mdAddr = invalidAddr;
    std::uint64_t numItems = 0;
    std::uint64_t displaceCount = 0;
    std::vector<std::uint32_t> freeSlots; ///< host-side free list

    /// Config::negativeFilter.
    bool negFilter_ = false;

    /// Published mirrors of numItems/displaceCount so size(),
    /// loadFactor() and cuckooMoves() are readable from any thread
    /// while enableConcurrent() is active (single writer updates both
    /// the plain source of truth and the mirror).
    PublishedCounter itemsPub_;
    PublishedCounter movesPub_;

    /// Concurrent host-path mode: per-bucket seqlocks (host-side, not
    /// simulated — layout and traces are unchanged) and a reader retry
    /// counter. concurrent_ is set once before threads start.
    bool concurrent_ = false;
    SeqlockArray seq_;
    mutable std::atomic<std::uint64_t> seqRetries_{0};
};

} // namespace halo

#endif // HALO_HASH_CUCKOO_TABLE_HH

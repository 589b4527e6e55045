/**
 * @file
 * Receive-side-scaling dispatch for the multi-worker runtime.
 *
 * Mirrors NIC RSS: a packet's five-tuple is hashed and the digest
 * indexes an indirection table whose entries name worker shards. The
 * default table spreads buckets round-robin; individual entries can be
 * remapped at runtime to pull load off a hot shard (the "rebalance
 * map" — exactly how RSS indirection tables are retuned in practice).
 *
 * Each bucket is one atomic 64-bit word packing the shard assignment
 * with the bucket's live-flow count, so the indirection flip and the
 * flows-moved charge are a single transaction: a reader (or the remap
 * itself) can never observe the new mapping paired with a stale
 * counter. A rebalance (setEntry) may race the dispatching producer
 * without a data race; a packet caught mid-remap lands on either the
 * old or the new shard, which is the same transient NIC hardware
 * exhibits. Every remap that actually changes a bucket's shard counts
 * one rebalance and charges exactly the flows packed in the replaced
 * word — the flows whose packets will now reach a shard with cold
 * tables for them.
 *
 * The table can grow in place ("hot-bucket splitting"): entries are
 * pre-allocated up to maxTableEntries and the active size is an atomic
 * mask, so growTable() doubles the bucket count without ever moving a
 * flow between shards — each new upper-half bucket inherits its
 * parent's shard, it merely gives the elastic controller finer remap
 * granularity on the next epoch. Per-bucket packet counters
 * (notePacket / takeBucketPackets) let the controller rank buckets by
 * heat, which live-flow counts alone cannot reveal under Zipf skew.
 *
 * With the symmetric option the two directions of a connection hash
 * identically (hashTuple orders the two endpoint words before
 * hashing), so request and reply traffic of one flow always
 * land on the same shard — required for stateful NFs (NAT, connection
 * tracking) sharded shared-nothing.
 */

#ifndef HALO_RUNTIME_RSS_HH
#define HALO_RUNTIME_RSS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "hash/hash_fn.hh"
#include "net/headers.hh"
#include "sim/stats.hh"

namespace halo {

namespace obs {
class MetricsRegistry;
} // namespace obs

/** Dispatcher configuration. */
struct RssConfig
{
    unsigned numShards = 1;
    /// Indirection-table entries (rounded up to a power of two). More
    /// entries give finer-grained rebalancing.
    unsigned tableEntries = 128;
    /// Growth ceiling for hot-bucket splitting (rounded up to a power
    /// of two). 0 means "no growth": the table stays at tableEntries.
    unsigned maxTableEntries = 0;
    /// Hash both directions of a connection to the same shard.
    bool symmetric = false;
    std::uint64_t seed = 0x00b1a5edc0ffeeull;
};

/**
 * Five-tuple → shard steering via a rebalanceable indirection table.
 */
class RssDispatcher
{
  public:
    explicit RssDispatcher(const RssConfig &config);

    unsigned numShards() const { return cfg.numShards; }
    unsigned tableEntries() const
    {
        return static_cast<unsigned>(
            mask_.load(std::memory_order_acquire) + 1);
    }
    unsigned maxTableEntries() const
    {
        return static_cast<unsigned>(alloc_);
    }

    /** Full-width RSS digest of @p tuple (symmetric if configured):
     *  flowHash over the two endpoints as 48-bit words, ip << 16 |
     *  port, with the protocol above the first. Symmetric mode orders
     *  the endpoints numerically first. */
    std::uint64_t
    hashTuple(const FiveTuple &tuple) const
    {
        std::uint64_t src =
            static_cast<std::uint64_t>(tuple.srcIp) << 16 | tuple.srcPort;
        std::uint64_t dst =
            static_cast<std::uint64_t>(tuple.dstIp) << 16 | tuple.dstPort;
        if (cfg.symmetric && dst < src)
            std::swap(src, dst);
        return flowHash(
            src | static_cast<std::uint64_t>(tuple.proto) << 48, dst,
            cfg.seed);
    }

    /** Indirection-table bucket @p tuple falls into. */
    unsigned
    bucketFor(const FiveTuple &tuple) const
    {
        return static_cast<unsigned>(
            hashTuple(tuple) & mask_.load(std::memory_order_acquire));
    }

    /** Shard @p tuple is steered to. */
    unsigned shardFor(const FiveTuple &tuple) const
    {
        return shardOf(
            word_[bucketFor(tuple)].load(std::memory_order_relaxed));
    }

    /** One consistent (shard, live-flow) snapshot of a bucket. */
    struct BucketState
    {
        unsigned shard = 0;
        std::uint64_t flows = 0;
    };
    BucketState bucketState(unsigned bucket) const;

    /** Rebalance hook: repoint one indirection bucket at @p shard.
     *  A remap that changes the bucket's shard counts one rebalance
     *  and charges the live flows packed in the atomically replaced
     *  word as moved. Safe to race with a concurrently dispatching
     *  producer and with flow-accounting updates. */
    void setEntry(unsigned bucket, unsigned shard);

    unsigned entry(unsigned bucket) const;

    /** Restore the default round-robin bucket→shard spread (bulk
     *  remap: counts one rebalance per changed bucket). */
    void resetTable();

    /** Double the active table size in place (hot-bucket splitting).
     *  New buckets inherit their parent's shard, so no flow changes
     *  shards; parent live-flow counts are split evenly as an
     *  estimate. Single-caller (the controller thread); returns false
     *  at the maxTableEntries ceiling. */
    bool growTable();
    /** Times growTable() doubled the active table. */
    std::uint64_t tableGrows() const { return grows_.value(); }

    /** @name Live-flow accounting (relaxed atomics, any thread)
     *  Call noteNewFlow when a flow is first seen and noteFlowEnd
     *  when it dies (e.g. aged out) so flowsMoved() reflects the real
     *  cost of a remap. Unpaired ends saturate at zero; counts
     *  saturate at 2^32-1 so they can never bleed into the packed
     *  shard bits. */
    /**@{*/
    void noteNewFlow(const FiveTuple &tuple);
    void noteFlowEnd(const FiveTuple &tuple);
    std::uint64_t bucketFlowCount(unsigned bucket) const;
    /**@}*/

    /** @name Per-bucket packet heat (epoch counters)
     *  With an elastic controller running, the producer calls
     *  notePacket on every dispatch; the controller drains the
     *  counter once per epoch to rank buckets by recent load. */
    /**@{*/
    void notePacket(unsigned bucket)
    {
        packets_[bucket].fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t takeBucketPackets(unsigned bucket)
    {
        return packets_[bucket].exchange(0,
                                         std::memory_order_relaxed);
    }
    /**@}*/

    /** Indirection-table remaps that changed a bucket's shard. */
    std::uint64_t rebalances() const { return rebalances_.value(); }
    /** Live flows resident in remapped buckets at remap time. */
    std::uint64_t flowsMoved() const { return flowsMoved_.value(); }

    /** Attach halo_rss_rebalances / halo_rss_flows_moved /
     *  halo_rss_table_grows counters and a halo_rss_bucket_flows
     *  gauge per bucket; the dispatcher must outlive @p reg. */
    void registerMetrics(obs::MetricsRegistry &reg) const;

  private:
    // Packed bucket word: [31:0] live flows, [47:32] shard.
    static constexpr std::uint64_t kFlowsMask = 0xffffffffull;
    static constexpr unsigned kShardShift = 32;

    static unsigned shardOf(std::uint64_t word)
    {
        return static_cast<unsigned>(word >> kShardShift);
    }
    static std::uint64_t flowsOf(std::uint64_t word)
    {
        return word & kFlowsMask;
    }
    static std::uint64_t pack(unsigned shard, std::uint64_t flows)
    {
        return (static_cast<std::uint64_t>(shard) << kShardShift) |
               (flows & kFlowsMask);
    }

    RssConfig cfg;
    std::size_t alloc_ = 0; ///< pre-allocated growth ceiling
    std::atomic<std::size_t> mask_{0}; ///< active size - 1
    std::unique_ptr<std::atomic<std::uint64_t>[]> word_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> packets_;
    PublishedCounter rebalances_;
    PublishedCounter flowsMoved_;
    PublishedCounter grows_;
};

} // namespace halo

#endif // HALO_RUNTIME_RSS_HH

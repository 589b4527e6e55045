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
 * The table has a fixed size, as a NIC's RSS indirection table (RETA)
 * does; the elastic controller retunes it one entry at a time. A
 * rebalance (setEntry) may race the dispatching producer without a
 * data race; a packet caught mid-remap lands on either the old or the
 * new shard, which is the same transient NIC hardware exhibits. Every
 * remap that actually changes a bucket's shard counts one rebalance.
 * Per-bucket packet counters (notePacket / takeBucketPackets) let the
 * controller rank buckets by heat.
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
        return static_cast<unsigned>(mask_ + 1);
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
        return static_cast<unsigned>(hashTuple(tuple) & mask_);
    }

    /** Shard @p tuple is steered to. */
    unsigned shardFor(const FiveTuple &tuple) const
    {
        return shard_[bucketFor(tuple)].load(std::memory_order_relaxed);
    }

    /** Rebalance hook: repoint one indirection bucket at @p shard.
     *  A remap that changes the bucket's shard counts one rebalance.
     *  Safe to race with a concurrently dispatching producer. */
    void setEntry(unsigned bucket, unsigned shard);

    unsigned entry(unsigned bucket) const;

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

    /** Attach the halo_rss_rebalances counter; the dispatcher must
     *  outlive @p reg. */
    void registerMetrics(obs::MetricsRegistry &reg) const;

  private:
    RssConfig cfg;
    const std::size_t mask_; ///< table size - 1
    std::unique_ptr<std::atomic<unsigned>[]> shard_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> packets_;
    PublishedCounter rebalances_;
};

} // namespace halo

#endif // HALO_RUNTIME_RSS_HH

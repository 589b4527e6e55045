#include "runtime/rss.hh"

#include <algorithm>
#include <string>

#include "obs/metrics.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace halo {

RssDispatcher::RssDispatcher(const RssConfig &config) : cfg(config)
{
    HALO_ASSERT(cfg.numShards > 0, "RSS needs at least one shard");
    const std::size_t initial =
        nextPowerOfTwo(std::max(cfg.tableEntries, 1u));
    alloc_ = std::max(
        initial,
        static_cast<std::size_t>(nextPowerOfTwo(
            std::max(cfg.maxTableEntries, 1u))));
    word_ = std::make_unique<std::atomic<std::uint64_t>[]>(alloc_);
    packets_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(alloc_);
    // Initial spread is not a rebalance: store directly.
    for (std::size_t b = 0; b < alloc_; ++b) {
        word_[b].store(
            pack(static_cast<unsigned>(b % cfg.numShards), 0),
            std::memory_order_relaxed);
        packets_[b].store(0, std::memory_order_relaxed);
    }
    mask_.store(initial - 1, std::memory_order_release);
}

void
RssDispatcher::resetTable()
{
    const std::size_t size = mask_.load(std::memory_order_acquire) + 1;
    for (std::size_t b = 0; b < size; ++b)
        setEntry(static_cast<unsigned>(b),
                 static_cast<unsigned>(b % cfg.numShards));
}

void
RssDispatcher::setEntry(unsigned bucket, unsigned shard)
{
    HALO_ASSERT(shard < cfg.numShards, "rebalance target out of range");
    HALO_ASSERT(bucket < alloc_, "rebalance bucket out of range");
    // Single CAS flips the shard and captures the live-flow count in
    // one transaction: the flows charged below are exactly the flows
    // packed alongside the mapping we replaced, even when a
    // noteNewFlow/noteFlowEnd races the remap.
    std::uint64_t cur = word_[bucket].load(std::memory_order_relaxed);
    for (;;) {
        if (shardOf(cur) == shard)
            return;
        const std::uint64_t next = pack(shard, flowsOf(cur));
        if (word_[bucket].compare_exchange_weak(
                cur, next, std::memory_order_seq_cst,
                std::memory_order_relaxed)) {
            rebalances_.add(1);
            flowsMoved_.add(flowsOf(cur));
            return;
        }
    }
}

unsigned
RssDispatcher::entry(unsigned bucket) const
{
    HALO_ASSERT(bucket < alloc_, "bucket out of range");
    // Acquire: the dispatching producer picks the destination ring
    // from this read. Reading a flipped word must also make the
    // migration gate the controller armed *before* the flip visible
    // to the destination worker through the producer's subsequent
    // ring push (gate-arm → flip → this read → push → pop).
    return shardOf(word_[bucket].load(std::memory_order_acquire));
}

RssDispatcher::BucketState
RssDispatcher::bucketState(unsigned bucket) const
{
    HALO_ASSERT(bucket < alloc_, "bucket out of range");
    const std::uint64_t w =
        word_[bucket].load(std::memory_order_relaxed);
    return BucketState{shardOf(w), flowsOf(w)};
}

bool
RssDispatcher::growTable()
{
    const std::size_t cur = mask_.load(std::memory_order_acquire) + 1;
    if (cur * 2 > alloc_)
        return false;
    for (std::size_t b = cur; b < cur * 2; ++b) {
        // Transactionally halve the parent's live-flow count; the
        // child takes the other half. The even split is an estimate
        // (the hash decides the real partition) — saturating
        // noteFlowEnd absorbs any drift.
        auto &parent = word_[b - cur];
        std::uint64_t pw = parent.load(std::memory_order_relaxed);
        std::uint64_t childFlows = 0;
        for (;;) {
            childFlows = flowsOf(pw) / 2;
            const std::uint64_t next =
                pack(shardOf(pw), flowsOf(pw) - childFlows);
            if (parent.compare_exchange_weak(
                    pw, next, std::memory_order_relaxed))
                break;
        }
        word_[b].store(pack(shardOf(pw), childFlows),
                       std::memory_order_relaxed);
        packets_[b].store(0, std::memory_order_relaxed);
    }
    // Publish the new size only after every upper-half bucket is
    // initialized: a dispatcher that observes the wider mask (acquire)
    // must see valid shard assignments.
    mask_.store(cur * 2 - 1, std::memory_order_release);
    grows_.add(1);
    return true;
}

void
RssDispatcher::noteNewFlow(const FiveTuple &tuple)
{
    // CAS-loop saturating increment: a fetch_add could overflow the
    // 32-bit flow field into the packed shard bits.
    auto &w = word_[bucketFor(tuple)];
    std::uint64_t v = w.load(std::memory_order_relaxed);
    for (;;) {
        if (flowsOf(v) == kFlowsMask)
            return;
        if (w.compare_exchange_weak(v, v + 1,
                                    std::memory_order_relaxed))
            return;
    }
}

void
RssDispatcher::noteFlowEnd(const FiveTuple &tuple)
{
    // Saturating decrement: an unpaired end must not wrap the count
    // into a huge flows-moved charge on the next remap.
    auto &w = word_[bucketFor(tuple)];
    std::uint64_t v = w.load(std::memory_order_relaxed);
    for (;;) {
        if (flowsOf(v) == 0)
            return;
        if (w.compare_exchange_weak(v, v - 1,
                                    std::memory_order_relaxed))
            return;
    }
}

std::uint64_t
RssDispatcher::bucketFlowCount(unsigned bucket) const
{
    return bucketState(bucket).flows;
}

void
RssDispatcher::registerMetrics(obs::MetricsRegistry &reg) const
{
    reg.attachCounter("halo_rss_rebalances", {}, rebalances_);
    reg.attachCounter("halo_rss_flows_moved", {}, flowsMoved_);
    reg.attachCounter("halo_rss_table_grows", {}, grows_);
    for (std::size_t b = 0; b < alloc_; ++b) {
        reg.attach("halo_rss_bucket_flows",
                   {{"bucket", std::to_string(b)}},
                   obs::MetricKind::Gauge, [this, b] {
                       return static_cast<double>(
                           flowsOf(word_[b].load(
                               std::memory_order_relaxed)));
                   });
    }
}

} // namespace halo

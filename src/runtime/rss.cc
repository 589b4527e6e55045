#include "runtime/rss.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace halo {

RssDispatcher::RssDispatcher(const RssConfig &config)
    : cfg(config), mask_(nextPowerOfTwo(std::max(cfg.tableEntries, 1u)) - 1)
{
    HALO_ASSERT(cfg.numShards > 0, "RSS needs at least one shard");
    const std::size_t size = mask_ + 1;
    shard_ = std::make_unique<std::atomic<unsigned>[]>(size);
    packets_ = std::make_unique<std::atomic<std::uint64_t>[]>(size);
    // Initial spread is not a rebalance: store directly.
    for (std::size_t b = 0; b < size; ++b) {
        shard_[b].store(static_cast<unsigned>(b % cfg.numShards),
                        std::memory_order_relaxed);
        packets_[b].store(0, std::memory_order_relaxed);
    }
}

void
RssDispatcher::setEntry(unsigned bucket, unsigned shard)
{
    HALO_ASSERT(shard < cfg.numShards, "rebalance target out of range");
    HALO_ASSERT(bucket <= mask_, "rebalance bucket out of range");
    // seq_cst RMW: the controller's producer grace pairs with it
    // (ElasticController::producerGrace).
    if (shard_[bucket].exchange(shard, std::memory_order_seq_cst) !=
        shard)
        rebalances_.add(1);
}

unsigned
RssDispatcher::entry(unsigned bucket) const
{
    HALO_ASSERT(bucket <= mask_, "bucket out of range");
    // Acquire: the dispatching producer picks the destination ring
    // from this read. Reading a flipped entry must also make the
    // migration gate the controller armed *before* the flip visible
    // to the destination worker through the producer's subsequent
    // ring push (gate-arm → flip → this read → push → pop).
    return shard_[bucket].load(std::memory_order_acquire);
}

void
RssDispatcher::registerMetrics(obs::MetricsRegistry &reg) const
{
    reg.attachCounter("halo_rss_rebalances", {}, rebalances_);
}

} // namespace halo

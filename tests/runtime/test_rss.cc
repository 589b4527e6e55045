#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hash/hash_fn.hh"
#include "net/traffic_gen.hh"
#include "obs/metrics.hh"
#include "runtime/rss.hh"
#include "sim/random.hh"

using namespace halo;

namespace {

FiveTuple
randomTuple(Xoshiro256 &rng)
{
    FiveTuple t;
    t.srcIp = static_cast<std::uint32_t>(rng.next());
    t.dstIp = static_cast<std::uint32_t>(rng.next());
    t.srcPort = static_cast<std::uint16_t>(rng.next());
    t.dstPort = static_cast<std::uint16_t>(rng.next());
    t.proto = (rng.next() & 1) ? 6 : 17;
    return t;
}

FiveTuple
reversed(const FiveTuple &t)
{
    FiveTuple r = t;
    std::swap(r.srcIp, r.dstIp);
    std::swap(r.srcPort, r.dstPort);
    return r;
}

} // namespace

TEST(RssDispatcher, SymmetricMapsBothDirectionsToSameShard)
{
    RssConfig cfg;
    cfg.numShards = 4;
    cfg.symmetric = true;
    RssDispatcher rss(cfg);

    Xoshiro256 rng(0x1111);
    for (int i = 0; i < 1000; ++i) {
        const FiveTuple t = randomTuple(rng);
        const FiveTuple r = reversed(t);
        ASSERT_EQ(rss.hashTuple(t), rss.hashTuple(r));
        ASSERT_EQ(rss.bucketFor(t), rss.bucketFor(r));
        ASSERT_EQ(rss.shardFor(t), rss.shardFor(r));
    }
}

TEST(RssDispatcher, AsymmetricSeparatesDirections)
{
    RssConfig cfg;
    cfg.numShards = 4;
    cfg.symmetric = false;
    RssDispatcher rss(cfg);

    Xoshiro256 rng(0x2222);
    unsigned split = 0;
    for (int i = 0; i < 1000; ++i) {
        const FiveTuple t = randomTuple(rng);
        if (rss.shardFor(t) != rss.shardFor(reversed(t)))
            ++split;
    }
    // Directional hashing should separate most reversed pairs
    // (3/4 expected at 4 shards).
    EXPECT_GT(split, 500u);
}

TEST(RssDispatcher, SpreadsFlowsAcrossAllShards)
{
    for (const bool symmetric : {false, true}) {
        RssConfig cfg;
        cfg.numShards = 4;
        cfg.symmetric = symmetric;
        RssDispatcher rss(cfg);

        std::vector<std::uint64_t> load(cfg.numShards, 0);
        Xoshiro256 rng(0x3333);
        const std::uint64_t flows = 10000;
        for (std::uint64_t i = 0; i < flows; ++i)
            ++load[rss.shardFor(randomTuple(rng))];
        for (unsigned s = 0; s < cfg.numShards; ++s) {
            // Every shard carries a sane share (>=15% of fair share
            // would already indicate a broken hash; uniform traffic
            // lands near 25% each).
            EXPECT_GT(load[s], flows / 10)
                << "shard " << s << " symmetric=" << symmetric;
        }
    }
}

namespace {

/** Largest and smallest bucket load over the mean, at 128 buckets. */
std::pair<double, double>
bucketLoadSpread(const RssDispatcher &rss,
                 const std::vector<FiveTuple> &flows)
{
    std::vector<std::uint64_t> load(rss.tableEntries(), 0);
    for (const FiveTuple &t : flows)
        ++load[rss.bucketFor(t)];
    const double mean =
        static_cast<double>(flows.size()) / rss.tableEntries();
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    return {static_cast<double>(*hi) / mean,
            static_cast<double>(*lo) / mean};
}

} // namespace

TEST(RssDispatcher, BalancesStructuredFlowPopulations)
{
    // Random tuples pass even a weak multiply mix; structured ones
    // (counters in one field, everything else fixed) do not. 16,384
    // flows over 128 buckets is 128 per bucket: a uniform hash keeps
    // the fullest bucket near 1.25x the mean.
    constexpr std::size_t n = 1u << 14;
    std::vector<std::pair<std::string, std::vector<FiveTuple>>> sets;
    FiveTuple base;
    base.srcIp = 0x0a000001u;
    base.dstIp = 0xac100001u;
    base.srcPort = 40000;
    base.dstPort = 443;
    std::vector<FiveTuple> src_ip, src_port, dst_port, dst_ip;
    for (std::size_t i = 0; i < n; ++i) {
        FiveTuple t = base;
        t.srcIp = 0x0a000000u | static_cast<std::uint32_t>(i);
        src_ip.push_back(t);
        t = base;
        t.srcPort = static_cast<std::uint16_t>(1024 + i);
        src_port.push_back(t);
        t = base;
        t.dstPort = static_cast<std::uint16_t>(i);
        dst_port.push_back(t);
        t = base;
        t.dstIp = 0xac100000u + static_cast<std::uint32_t>(i << 8);
        dst_ip.push_back(t);
    }
    sets.emplace_back("sequential srcIp", std::move(src_ip));
    sets.emplace_back("srcPort only", std::move(src_port));
    sets.emplace_back("dstPort only", std::move(dst_port));
    sets.emplace_back("dstIp /24 steps", std::move(dst_ip));
    sets.emplace_back(
        "SmallFlowCount",
        TrafficGenerator(TrafficGenerator::scenarioConfig(
                             TrafficScenario::SmallFlowCount, n))
            .flows());
    sets.emplace_back(
        "ManyFlows", TrafficGenerator(TrafficGenerator::scenarioConfig(
                                          TrafficScenario::ManyFlows, n))
                         .flows());

    for (const bool symmetric : {false, true}) {
        RssConfig cfg;
        cfg.numShards = 4;
        cfg.tableEntries = 128;
        cfg.symmetric = symmetric;
        const RssDispatcher rss(cfg);
        for (const auto &[name, flows] : sets) {
            ASSERT_EQ(flows.size(), n) << name;
            const auto [max_ratio, min_ratio] =
                bucketLoadSpread(rss, flows);
            EXPECT_LT(max_ratio, 1.5)
                << name << " symmetric=" << symmetric;
            EXPECT_GT(min_ratio, 0.5)
                << name << " symmetric=" << symmetric;
        }
    }
}

TEST(RssDispatcher, SeedAndProtocolChangeTheHash)
{
    for (const bool symmetric : {false, true}) {
        RssConfig cfg;
        cfg.symmetric = symmetric;
        const RssDispatcher rss(cfg);
        cfg.seed ^= 1;
        const RssDispatcher reseeded(cfg);

        Xoshiro256 rng(0x5555);
        for (int i = 0; i < 1000; ++i) {
            const FiveTuple t = randomTuple(rng);
            FiveTuple other_proto = t;
            other_proto.proto = t.proto == 6 ? 17 : 6;
            ASSERT_NE(rss.hashTuple(t), reseeded.hashTuple(t));
            ASSERT_NE(rss.hashTuple(t), rss.hashTuple(other_proto));
        }
    }
}

TEST(RssDispatcher, EqualEndpointsHashAlikeInBothModes)
{
    // With both endpoints equal the symmetric ordering is a no-op, so
    // the symmetric digest is the directional one.
    RssConfig cfg;
    const RssDispatcher directional(cfg);
    cfg.symmetric = true;
    const RssDispatcher symmetric(cfg);
    FiveTuple t;
    t.srcIp = t.dstIp = 0xc0a80001u;
    t.srcPort = t.dstPort = 5353;
    EXPECT_EQ(directional.hashTuple(t), symmetric.hashTuple(t));
}

TEST(RssDispatcher, RebalanceMapSteersOneBucket)
{
    RssConfig cfg;
    cfg.numShards = 4;
    RssDispatcher rss(cfg);

    Xoshiro256 rng(0x4444);
    const FiveTuple hot = randomTuple(rng);
    const unsigned bucket = rss.bucketFor(hot);
    const unsigned before = rss.shardFor(hot);
    const unsigned target = (before + 1) % cfg.numShards;

    rss.setEntry(bucket, target);
    EXPECT_EQ(rss.shardFor(hot), target);
    EXPECT_EQ(rss.entry(bucket), target);

    // Every other bucket keeps its default round-robin assignment.
    for (unsigned b = 0; b < rss.tableEntries(); ++b)
        if (b != bucket) {
            ASSERT_EQ(rss.entry(b), b % cfg.numShards);
        }

    rss.setEntry(bucket, before);
    EXPECT_EQ(rss.shardFor(hot), before);
}

TEST(RssDispatcher, DeterministicAcrossInstances)
{
    RssConfig cfg;
    cfg.numShards = 8;
    cfg.symmetric = true;
    RssDispatcher a(cfg), b(cfg);
    Xoshiro256 rng(0x5555);
    for (int i = 0; i < 500; ++i) {
        const FiveTuple t = randomTuple(rng);
        ASSERT_EQ(a.shardFor(t), b.shardFor(t));
    }
}

/**
 * Rebalance accounting: every remap that changes an indirection-table
 * bucket's shard bumps the rebalance counter, and nothing else does.
 */
TEST(RssDispatcher, RebalanceCounterCountsChangedBuckets)
{
    RssConfig cfg;
    cfg.numShards = 4;
    cfg.tableEntries = 64;
    RssDispatcher rss(cfg);
    EXPECT_EQ(rss.rebalances(), 0u); // initial spread is not a rebalance

    Xoshiro256 rng(0xbeef);
    const FiveTuple hot = randomTuple(rng);
    const unsigned bucket = rss.bucketFor(hot);
    const unsigned target = (rss.entry(bucket) + 1) % cfg.numShards;
    rss.setEntry(bucket, target);
    EXPECT_EQ(rss.rebalances(), 1u);

    // Remapping to the shard it already lives on is not a rebalance.
    rss.setEntry(bucket, target);
    EXPECT_EQ(rss.rebalances(), 1u);

    rss.setEntry(bucket, (target + 1) % cfg.numShards);
    EXPECT_EQ(rss.rebalances(), 2u);
}

TEST(RssDispatcher, RegisterMetricsExposesRebalanceCounters)
{
    RssConfig cfg;
    cfg.numShards = 2;
    cfg.tableEntries = 16;
    RssDispatcher rss(cfg);
    Xoshiro256 rng(0x77);
    const FiveTuple t = randomTuple(rng);
    rss.notePacket(rss.bucketFor(t));
    rss.setEntry(rss.bucketFor(t),
                 (rss.entry(rss.bucketFor(t)) + 1) % cfg.numShards);

    obs::MetricsRegistry reg;
    rss.registerMetrics(reg);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("halo_rss_rebalances 1"), std::string::npos)
        << text;
    // Heat stays the controller's: no per-bucket series.
    EXPECT_EQ(text.find("bucket"), std::string::npos) << text;
}

/** Per-bucket heat: notePacket accumulates, takeBucketPackets drains. */
TEST(RssDispatcher, BucketPacketHeatCountersDrainOnTake)
{
    RssConfig cfg;
    cfg.numShards = 2;
    cfg.tableEntries = 8;
    RssDispatcher rss(cfg);

    for (int i = 0; i < 7; ++i)
        rss.notePacket(3);
    rss.notePacket(5);
    EXPECT_EQ(rss.takeBucketPackets(3), 7u);
    EXPECT_EQ(rss.takeBucketPackets(3), 0u); // drained
    EXPECT_EQ(rss.takeBucketPackets(5), 1u);
    EXPECT_EQ(rss.takeBucketPackets(0), 0u);
}

/**
 * Live rebalance under dispatch: a dispatcher thread steers random
 * tuples and counts their packet heat while another thread remaps
 * indirection-table buckets — the production shape of a rebalance
 * (dispatch is never paused). Exercised under TSan in CI; dispatch
 * must keep returning valid shard ids throughout.
 */
TEST(RssDispatcher, RebalanceDuringDispatchIsSafeAndCounted)
{
    RssConfig cfg;
    cfg.numShards = 4;
    cfg.tableEntries = 128;
    RssDispatcher rss(cfg);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> dispatched{0};
    std::thread dispatcher([&] {
        Xoshiro256 rng(0x1234);
        while (!done.load(std::memory_order_acquire)) {
            const FiveTuple t = randomTuple(rng);
            const unsigned b = rss.bucketFor(t);
            ASSERT_LT(rss.entry(b), cfg.numShards);
            rss.notePacket(b);
            dispatched.fetch_add(1, std::memory_order_release);
        }
    });
    while (dispatched.load(std::memory_order_acquire) < 64)
        std::this_thread::yield();

    // Rebalancer: walk the table remapping every bucket and draining
    // its heat, repeatedly.
    Xoshiro256 rng(0x4321);
    for (int round = 0; round < 50; ++round)
        for (unsigned b = 0; b < rss.tableEntries(); ++b) {
            rss.setEntry(b, static_cast<unsigned>(
                                rng.nextBounded(cfg.numShards)));
            rss.takeBucketPackets(b);
        }
    done.store(true, std::memory_order_release);
    dispatcher.join();

    EXPECT_GT(rss.rebalances(), 0u);
}

/**
 * Elastic-runtime tests (DESIGN.md §17).
 *
 * Layers, bottom up:
 *   - FlowOrderValidator: the order oracle itself.
 *   - decideRebalance(): the pure policy matrix — imbalance detection,
 *     hysteresis, cooldown, target and bucket selection — no threads
 *     involved.
 *   - Migration fence: the drain-then-remap protocol driven by hand on
 *     stopped workers, so the gate's effect is deterministic.
 *   - End to end: forced migrations under churn with the decoupled
 *     slow path live must never reorder packets within a flow.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "flow/ruleset.hh"
#include "manual_clock.hh"
#include "runtime/elastic_controller.hh"
#include "runtime/order_validator.hh"
#include "runtime/runtime.hh"
#include "sim/random.hh"

using namespace halo;
using halo::test::tick;
using halo::test::waitFor;

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

std::vector<ShardLoadSnapshot>
shardsWithBusy(std::initializer_list<double> busy)
{
    std::vector<ShardLoadSnapshot> s;
    for (double b : busy) {
        ShardLoadSnapshot snap;
        snap.busyFraction = b;
        s.push_back(snap);
    }
    return s;
}

BucketLoad
bucket(unsigned shard, std::uint64_t packets)
{
    BucketLoad b;
    b.shard = shard;
    b.packets = packets;
    return b;
}

} // namespace

// ---------------------------------------------------------------------
// FlowOrderValidator
// ---------------------------------------------------------------------

TEST(FlowOrderValidator, OrderTagRoundTripsThroughPacket)
{
    Xoshiro256 rng(0x11);
    const FiveTuple t = randomTuple(rng);
    Packet p = Packet::fromTuple(t);
    const std::uint64_t tag = (42ull << 32) | 7;
    p.stampOrderTag(tag);
    EXPECT_EQ(p.orderTag(), tag);
}

TEST(FlowOrderValidator, CountsSequenceRegressionsPerFlow)
{
    Xoshiro256 rng(0x22);
    Packet p = Packet::fromTuple(randomTuple(rng));
    FlowOrderValidator v(4);

    p.stampOrderTag((2ull << 32) | 0);
    v.observe(p);
    p.stampOrderTag((2ull << 32) | 1);
    v.observe(p);
    EXPECT_EQ(v.violations(), 0u);
    EXPECT_EQ(v.observed(), 2u);

    p.stampOrderTag((2ull << 32) | 1); // duplicate
    v.observe(p);
    EXPECT_EQ(v.violations(), 1u);
    p.stampOrderTag((2ull << 32) | 0); // regression
    v.observe(p);
    EXPECT_EQ(v.violations(), 2u);

    // Flows are independent; ids past the table are ignored.
    p.stampOrderTag((3ull << 32) | 5);
    v.observe(p);
    p.stampOrderTag((9ull << 32) | 1);
    v.observe(p);
    EXPECT_EQ(v.violations(), 2u);
}

// ---------------------------------------------------------------------
// decideRebalance: the pure policy matrix
// ---------------------------------------------------------------------

TEST(DecideRebalance, BalancedLoadIsANoOp)
{
    ElasticConfig cfg;
    ElasticEpochState st;
    RebalanceInputs in;
    const auto shards = shardsWithBusy({0.5, 0.5, 0.5});
    const std::vector<BucketLoad> buckets = {
        bucket(0, 100), bucket(1, 100), bucket(2, 100)};
    in.shards = shards;
    in.buckets = buckets;

    const RebalanceDecision d = decideRebalance(cfg, in, st);
    EXPECT_FALSE(d.imbalanced);
    EXPECT_TRUE(d.migrations.empty());
    EXPECT_DOUBLE_EQ(d.maxBusy, 0.5);
    EXPECT_DOUBLE_EQ(d.meanBusy, 0.5);
}

TEST(DecideRebalance, IdleSkewBelowMinBusyDoesNotTrip)
{
    ElasticConfig cfg; // minBusyToAct = 0.05
    ElasticEpochState st;
    RebalanceInputs in;
    const auto shards = shardsWithBusy({0.04, 0.0});
    const std::vector<BucketLoad> buckets = {bucket(0, 10),
                                             bucket(1, 0)};
    in.shards = shards;
    in.buckets = buckets;

    const RebalanceDecision d = decideRebalance(cfg, in, st);
    EXPECT_FALSE(d.imbalanced);
    EXPECT_TRUE(d.migrations.empty());
}

TEST(DecideRebalance, SingleWorkerNeverImbalanced)
{
    ElasticConfig cfg;
    ElasticEpochState st;
    RebalanceInputs in;
    const auto shards = shardsWithBusy({0.9});
    const std::vector<BucketLoad> buckets = {bucket(0, 100)};
    in.shards = shards;
    in.buckets = buckets;
    const RebalanceDecision d = decideRebalance(cfg, in, st);
    EXPECT_FALSE(d.imbalanced);
    EXPECT_TRUE(d.migrations.empty());
}

TEST(DecideRebalance, HysteresisThenMigrationThenCooldown)
{
    ElasticConfig cfg;
    cfg.hysteresisEpochs = 2;
    cfg.cooldownEpochs = 2;
    ElasticEpochState st;
    RebalanceInputs in;
    // Worker 0 hot; bucket 0 is hotter than the whole excess, bucket 1
    // is the movable one.
    const auto shards = shardsWithBusy({0.8, 0.1});
    const std::vector<BucketLoad> buckets = {
        bucket(0, 300), bucket(0, 100), bucket(1, 50), bucket(1, 50)};
    in.shards = shards;
    in.buckets = buckets;

    // Epoch 1: imbalance seen, hysteresis holds fire.
    RebalanceDecision d = decideRebalance(cfg, in, st);
    EXPECT_TRUE(d.imbalanced);
    EXPECT_TRUE(d.migrations.empty());
    EXPECT_EQ(st.imbalancedEpochs, 1u);

    // Epoch 2: streak reached — migrate bucket 1 off the hot shard.
    d = decideRebalance(cfg, in, st);
    ASSERT_EQ(d.migrations.size(), 1u);
    EXPECT_EQ(d.migrations[0].bucket, 1u);
    EXPECT_EQ(d.migrations[0].from, 0u);
    EXPECT_EQ(d.migrations[0].to, 1u);
    EXPECT_EQ(st.cooldown, cfg.cooldownEpochs);

    // Epochs 3-4: cooldown suppresses actuation while the streak
    // advances underneath.
    d = decideRebalance(cfg, in, st);
    EXPECT_TRUE(d.migrations.empty());
    d = decideRebalance(cfg, in, st);
    EXPECT_TRUE(d.migrations.empty());

    // Epoch 5: cooldown expired, persistent imbalance fires again.
    d = decideRebalance(cfg, in, st);
    EXPECT_EQ(d.migrations.size(), 1u);
}

TEST(DecideRebalance, MigrationsTargetColdestAndRespectCap)
{
    ElasticConfig cfg;
    cfg.hysteresisEpochs = 1;
    cfg.maxMigrationsPerEpoch = 1;
    ElasticEpochState st;
    RebalanceInputs in;
    const auto shards = shardsWithBusy({0.8, 0.3, 0.1});
    // Hot shard 0 has four equally warm buckets; shard 2 is coldest.
    const std::vector<BucketLoad> buckets = {
        bucket(0, 100), bucket(0, 100), bucket(0, 100),
        bucket(0, 100), bucket(1, 80),  bucket(2, 20)};
    in.shards = shards;
    in.buckets = buckets;

    const RebalanceDecision d = decideRebalance(cfg, in, st);
    ASSERT_EQ(d.migrations.size(), 1u); // capped
    EXPECT_EQ(d.migrations[0].from, 0u);
    EXPECT_EQ(d.migrations[0].to, 2u); // coldest by packet count
}

/**
 * A bucket hotter than the hot shard's whole excess stays where it is:
 * moving it would only flip the imbalance to its destination. The
 * cooler buckets behind it still move, each to the coldest shard.
 */
TEST(DecideRebalance, BucketHotterThanExcessStaysWhileCoolerOnesMove)
{
    ElasticConfig cfg;
    cfg.hysteresisEpochs = 1;
    ElasticEpochState st;
    RebalanceInputs in;
    const auto shards = shardsWithBusy({0.9, 0.2, 0.2});
    // 800 packets, mean 266: shard 0's excess is 334, below bucket 0.
    const std::vector<BucketLoad> buckets = {
        bucket(0, 500), bucket(0, 60), bucket(0, 40), bucket(1, 100),
        bucket(2, 100)};
    in.shards = shards;
    in.buckets = buckets;

    const RebalanceDecision d = decideRebalance(cfg, in, st);
    ASSERT_EQ(d.migrations.size(), 2u);
    EXPECT_EQ(d.migrations[0].bucket, 1u);
    EXPECT_EQ(d.migrations[0].to, 1u);
    EXPECT_EQ(d.migrations[1].bucket, 2u);
    EXPECT_EQ(d.migrations[1].to, 2u);
    for (const auto &m : d.migrations)
        EXPECT_EQ(m.from, 0u);
}

// ---------------------------------------------------------------------
// The drain-then-remap fence, deterministically
// ---------------------------------------------------------------------

/**
 * Protocol unit test with the controller thread never started and the
 * workers started one at a time: after the flip, the destination must
 * sit gated — processing nothing — until the source worker's processed
 * count passes the fence, then drain normally.
 */
TEST(ElasticController, MigrationGateHoldsDestinationUntilSourceDrains)
{
    RuntimeConfig cfg;
    cfg.numWorkers = 2;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 16;
    cfg.shardMemBytes = 256ull << 20;
    const RuleSet empty;
    Runtime rt(cfg, empty); // elastic disabled: no controller thread

    // A tuple currently steered to worker 0.
    Xoshiro256 rng(0x5150);
    FiveTuple t;
    unsigned b = 0;
    do {
        t = randomTuple(rng);
        b = rt.dispatcher().bucketFor(t);
    } while (rt.dispatcher().entry(b) != 0);

    const std::uint64_t kBefore = 100;
    for (std::uint64_t i = 0; i < kBefore; ++i)
        ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
    ASSERT_EQ(rt.worker(0).ring().size(), kBefore);

    ElasticController::Hooks hooks;
    hooks.rss = &rt.dispatcher();
    hooks.workers = {&rt.worker(0), &rt.worker(1)};
    hooks.offerSeq = &rt.offerSeq();
    ElasticConfig ecfg;
    ecfg.enabled = true;
    ElasticController ctrl(ecfg, hooks, rt.clock()); // thread not started

    // Flip + grace + fence + gate; waitMicros = 0 leaves the gate
    // armed for this test to reason about.
    const RebalanceDecision::Migration m{b, 0, 1};
    ctrl.migrateBuckets(
        std::span<const RebalanceDecision::Migration>(&m, 1), 0);
    EXPECT_EQ(rt.dispatcher().entry(b), 1u);
    EXPECT_TRUE(rt.worker(1).migrationGateActive());
    EXPECT_TRUE(ctrl.anyGateActive());
    EXPECT_EQ(ctrl.counters().migrations, 1u);
    EXPECT_EQ(ctrl.counters().gateTimeouts, 0u);
    // One gate at a time per destination.
    EXPECT_FALSE(rt.worker(1).armMigrationGate(&rt.worker(0), 1));

    // Post-flip traffic of the same flow lands on the destination.
    const std::uint64_t kAfter = 50;
    for (std::uint64_t i = 0; i < kAfter; ++i)
        ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
    ASSERT_EQ(rt.worker(1).ring().size(), kAfter);

    // Destination runs but is gated: its ring stays untouched.
    rt.worker(1).start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(rt.worker(1).counters().packets, 0u);
    EXPECT_TRUE(rt.worker(1).migrationGateActive());

    // Source drains past the fence; the gate self-clears and the
    // destination proceeds.
    rt.worker(0).start();
    ASSERT_TRUE(waitFor([&] {
        return rt.worker(1).counters().packets == kAfter;
    }));
    EXPECT_EQ(rt.worker(0).counters().packets, kBefore);
    EXPECT_FALSE(rt.worker(1).migrationGateActive());

    rt.stop();
}

// ---------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------

/**
 * Zero intra-flow reordering across migrations: skewed stamped traffic
 * with the decoupled slow path installing flows live, while forced
 * migrations bounce the hot flow's bucket between shards. The order
 * oracle must see every flow's sequence strictly advance.
 */
TEST(ElasticRuntime, MigrationsPreserveIntraFlowOrderUnderChurn)
{
    RuleSet of;
    FlowRule fallback;
    fallback.mask = FlowMask{};
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 7};
    of.push_back(fallback);

    const std::size_t kFlows = 256;
    FlowOrderValidator oracle(kFlows);

    RuntimeConfig cfg;
    cfg.numWorkers = 2;
    cfg.ringCapacity = 256;
    cfg.batchSize = 16;
    cfg.shardMemBytes = 256ull << 20;
    cfg.enqueueRetries = 1024;
    cfg.rss.symmetric = true;
    cfg.rss.tableEntries = 32;
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.warmTables = false;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 8192;
    cfg.orderValidator = &oracle;
    cfg.elastic.enabled = true;
    cfg.elastic.controlIntervalMicros = 500;
    cfg.elastic.hysteresisEpochs = 1;
    cfg.elastic.cooldownEpochs = 0;
    const RuleSet empty;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, empty, &clock);
    rt.start();
    auto epochs = [&rt] { return rt.elastic()->counters().epochs; };

    std::vector<FiveTuple> flows(kFlows);
    for (std::size_t f = 0; f < kFlows; ++f) {
        FiveTuple &t = flows[f];
        t.srcIp = 0x0a000001u + static_cast<std::uint32_t>(f);
        t.dstIp = 0x0a010001u + static_cast<std::uint32_t>(f * 7);
        t.srcPort = static_cast<std::uint16_t>(1024 + f);
        t.dstPort = 80;
        t.proto = 17;
    }
    std::vector<std::uint32_t> seq(kFlows, 0);
    const unsigned hotBucket = rt.dispatcher().bucketFor(flows[0]);

    const std::uint64_t kPackets = 40000;
    unsigned round = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        // Half the traffic hammers flow 0 (the Zipf head); the rest
        // cycles the tail.
        const std::size_t f =
            (i & 1) ? 0 : (static_cast<std::size_t>(i) >> 1) % kFlows;
        const FiveTuple &t = flows[f];
        Packet p = Packet::fromTuple(t);
        p.stampOrderTag((static_cast<std::uint64_t>(f) << 32) |
                        seq[f]++);
        rt.offer(std::move(p), t);
        if (i % 4000 == 3999) {
            // Bounce the hot bucket between the shards mid-traffic:
            // the next epoch actuates it while packets are in flight.
            rt.elastic()->requestMigration(hotBucket,
                                           round++ % cfg.numWorkers);
            ASSERT_TRUE(
                tick(clock, cfg.elastic.controlIntervalMicros, epochs));
        }
    }
    // Between epochs the producer keeps accruing packet heat for the
    // controller: the hot flow's bucket counts every packet offered to
    // it.
    for (int i = 0; i < 100; ++i) {
        Packet p = Packet::fromTuple(flows[0]);
        p.stampOrderTag(seq[0]++);
        rt.offer(std::move(p), flows[0]);
    }
    EXPECT_EQ(rt.dispatcher().takeBucketPackets(hotBucket), 100u);
    rt.drain();

    // The forced bounces guarantee real flips happened.
    EXPECT_GT(rt.elastic()->counters().migrations, 0u);
    EXPECT_EQ(epochs(), 10u);

    rt.stop();
    const RuntimeSnapshot fin = rt.snapshot();
    EXPECT_EQ(fin.processed, fin.enqueued);
    EXPECT_GT(oracle.observed(), 0u);
    EXPECT_EQ(oracle.violations(), 0u);
    EXPECT_EQ(rt.elastic()->counters().gateTimeouts, 0u);
}

TEST(ElasticRuntime, RegistersControllerAndShardMetrics)
{
    RuntimeConfig cfg;
    cfg.numWorkers = 2;
    cfg.shardMemBytes = 256ull << 20;
    cfg.elastic.enabled = true;
    const RuleSet empty;
    Runtime rt(cfg, empty);

    obs::MetricsRegistry reg;
    rt.registerMetrics(reg);
    const std::string text = reg.renderPrometheus();
    for (const char *name :
         {"halo_ctrl_epochs", "halo_ctrl_migrations",
          "halo_ctrl_gate_timeouts", "halo_shard_busy_fraction",
          "halo_shard_ring_depth_hwm", "halo_rss_rebalances"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
}

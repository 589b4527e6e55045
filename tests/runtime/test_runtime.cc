#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "flow/ruleset.hh"
#include "manual_clock.hh"
#include "obs/metrics.hh"
#include "runtime/runtime.hh"
#include "vswitch/shard.hh"

using namespace halo;
using halo::test::tick;
using halo::test::waitFor;

namespace {

/** Small deterministic workload shared by the runtime tests. */
struct Workload
{
    TrafficConfig traffic;
    RuleSet rules;

    explicit Workload(std::uint64_t flows = 2000)
    {
        traffic = TrafficGenerator::scenarioConfig(
            TrafficScenario::SmallFlowCount, flows);
        TrafficGenerator gen(traffic);
        rules = scenarioRules(TrafficScenario::SmallFlowCount,
                              gen.flows(), 0x707);
    }
};

/** One match-all OpenFlow rule: every flow resolves on the slow path. */
RuleSet
fallbackRules(std::uint16_t port)
{
    FlowRule fallback;
    fallback.mask = FlowMask{};
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, port};
    return {fallback};
}

/** Flow @p id of a never-repeating stream. */
FiveTuple
newFlow(std::uint32_t id)
{
    FiveTuple t;
    t.srcIp = 0x0a000000u + id;
    t.dstIp = 0xc0a80001u;
    t.srcPort = 4000;
    t.dstPort = 53;
    return t;
}

RuntimeConfig
smallConfig(unsigned workers)
{
    RuntimeConfig cfg;
    cfg.numWorkers = workers;
    cfg.ringCapacity = 256;
    cfg.batchSize = 16;
    cfg.shardMemBytes = 512ull << 20;
    cfg.enqueueRetries = 1024; // single-CPU CI: yield to starved workers
    cfg.rss.symmetric = true;
    return cfg;
}

} // namespace

/**
 * The SwitchShard constructor path must produce a datapath identical
 * to the hand-wired setup benches use: same packets in, same totals
 * (cycles, matches, EMC hits) out.
 */
TEST(SwitchShard, EquivalentToManualSetup)
{
    Workload wl(1000);

    // Hand-wired shard (what benches/examples used to inline).
    SimMemory manual_mem(512ull << 20);
    MemoryHierarchy manual_hier{HierarchyConfig{}};
    CoreModel manual_core(manual_hier, 0);
    VirtualSwitch manual_vs(manual_mem, manual_hier, manual_core,
                            nullptr, VSwitchConfig{});
    manual_vs.installRules(wl.rules);
    manual_vs.warmTables();

    // SwitchShard path.
    SimMemory shard_mem(512ull << 20);
    SwitchShard shard(shard_mem, ShardConfig{});
    shard.install(wl.rules);

    TrafficGenerator gen_a(wl.traffic);
    TrafficGenerator gen_b(wl.traffic);
    for (int i = 0; i < 2000; ++i) {
        manual_vs.processPacket(gen_a.nextPacket());
        shard.vswitch().processPacket(gen_b.nextPacket());
    }

    const SwitchTotals &a = manual_vs.totals();
    const SwitchTotals &b = shard.vswitch().totals();
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.emcHits, b.emcHits);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Runtime, EndToEndAccountsEveryPacket)
{
    Workload wl;
    const std::uint64_t packets = 20000;
    Runtime rt(smallConfig(2), wl.rules);
    const RuntimeReport rep = rt.run(wl.traffic, packets);

    EXPECT_EQ(rep.aggregate.offered, packets);
    EXPECT_EQ(rep.aggregate.enqueued + rep.aggregate.ringFullDrops,
              packets);
    // Drain guarantee: everything enqueued was processed.
    EXPECT_EQ(rep.aggregate.processed, rep.aggregate.enqueued);
    EXPECT_GT(rep.aggregate.matched, 0u);
    EXPECT_GT(rep.aggregate.batches, 0u);
    EXPECT_GT(rep.wallSeconds, 0.0);

    // Per-worker reductions are consistent with the aggregate.
    ASSERT_EQ(rep.workers.size(), 2u);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < rep.workers.size(); ++i) {
        const WorkerReport &w = rep.workers[i];
        EXPECT_EQ(w.counters.packets, rt.worker(i).vswitch().totals().packets);
        EXPECT_GE(w.batchP99Nanos, w.batchP50Nanos);
        sum += w.counters.packets;
    }
    EXPECT_EQ(sum, rep.aggregate.processed);
}

TEST(Runtime, SnapshotIsSafeAndMonotonicWhileRunning)
{
    Workload wl;
    const std::uint64_t packets = 30000;
    Runtime rt(smallConfig(2), wl.rules);
    rt.start();
    rt.startProducer(wl.traffic, packets);

    // Aggregator thread (this one) polls while workers publish — the
    // TSan job proves this is race-free.
    std::uint64_t last = 0;
    while (rt.snapshot().offered < packets) {
        const RuntimeSnapshot s = rt.snapshot();
        ASSERT_GE(s.processed, last);
        ASSERT_LE(s.processed, s.enqueued);
        last = s.processed;
        std::this_thread::yield();
    }

    rt.joinProducer();
    rt.drain();
    rt.stop();
    const RuntimeSnapshot fin = rt.snapshot();
    EXPECT_EQ(fin.processed, fin.enqueued);
    EXPECT_EQ(fin.offered, packets);
}

TEST(Runtime, RingFullBackpressureDropsAreCounted)
{
    Workload wl(200);
    RuntimeConfig cfg = smallConfig(1);
    cfg.ringCapacity = 8;
    cfg.enqueueRetries = 0; // drop immediately, never block
    Runtime rt(cfg, wl.rules);

    // No workers running: the ring fills and every further offer must
    // come back as a counted drop, with the producer never blocked.
    TrafficGenerator gen(wl.traffic);
    unsigned accepted = 0;
    for (int i = 0; i < 100; ++i) {
        const FiveTuple &t = gen.nextTuple();
        accepted += rt.offer(Packet::fromTuple(t), t) ? 1 : 0;
    }
    const RuntimeSnapshot s = rt.snapshot();
    EXPECT_EQ(s.offered, 100u);
    EXPECT_EQ(accepted, s.enqueued);
    EXPECT_EQ(s.enqueued, rt.worker(0).ring().capacity());
    EXPECT_EQ(s.ringFullDrops, 100u - s.enqueued);

    // Late-started workers still drain the backlog on stop.
    rt.start();
    rt.drain();
    rt.stop();
    EXPECT_EQ(rt.snapshot().processed, s.enqueued);

    // run() around a caller-side offer() loop: with live workers on
    // the same tiny ring, every offered packet is still either
    // processed or a counted drop, and run() times produce + drain.
    Runtime live(cfg, wl.rules);
    const std::uint64_t packets = 5000;
    const RuntimeReport rep = live.run([&] {
        for (std::uint64_t i = 0; i < packets; ++i) {
            const FiveTuple &t = gen.nextTuple();
            live.offer(Packet::fromTuple(t), t);
        }
    });
    EXPECT_EQ(rep.aggregate.offered, packets);
    EXPECT_EQ(rep.aggregate.processed, rep.aggregate.enqueued);
    EXPECT_EQ(rep.aggregate.processed + rep.aggregate.ringFullDrops,
              packets);
    EXPECT_GT(rep.wallSeconds, 0.0);
}

/**
 * Decoupled slow path end to end: workers defer megaflow misses onto
 * the upcall ring, the revalidator resolves them against the OpenFlow
 * layer and installs exact-match entries into the live (seqlocked)
 * tables, and idle flows age out on exactly the sweep the timeout
 * names. The test owns the clock, so no sweep runs until it advances
 * it. Runs under ASan and TSan in CI.
 */
TEST(Runtime, DecoupledSlowPathInstallsResolvesAndAges)
{
    const RuleSet of = fallbackRules(7);
    RuntimeConfig cfg = smallConfig(2);
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 8192;
    cfg.revalidator.sweepIntervalMicros = 200;
    cfg.revalidator.idleTimeoutEpochs = 2;
    const RuleSet empty;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, empty, &clock);
    rt.start();
    auto sweeps = [&rt] { return rt.snapshot().revalidator.sweeps; };

    // Phase 1: a small flow set, repeated — first packets fault the
    // flows in through the revalidator, later rounds hit the installs.
    Workload wl(300);
    TrafficGenerator gen(wl.traffic);
    std::uint64_t offered = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 1000; ++i) {
            const FiveTuple &t = gen.nextTuple();
            offered += rt.offer(Packet::fromTuple(t), t) ? 1 : 0;
        }
        rt.drain();
    }

    RuntimeSnapshot s = rt.snapshot();
    EXPECT_GT(s.upcallsEnqueued, 0u);
    EXPECT_GT(s.revalidator.installs, 0u);
    EXPECT_EQ(s.revalidator.unresolved, 0u);
    EXPECT_EQ(s.revalidator.installFailures, 0u);
    EXPECT_EQ(s.revalidator.sweeps, 0u);
    // Later rounds must have classified against the installed entries.
    EXPECT_GT(s.matched, 0u);

    // Phase 2: traffic stops. Every flow was last seen in the first
    // epoch: it survives idleTimeoutEpochs sweeps and ages on the next.
    for (std::uint64_t e = 0; e < cfg.revalidator.idleTimeoutEpochs; ++e)
        ASSERT_TRUE(tick(clock, cfg.revalidator.sweepIntervalMicros,
                         sweeps));
    EXPECT_EQ(rt.snapshot().revalidator.agedFlows, 0u);
    ASSERT_TRUE(tick(clock, cfg.revalidator.sweepIntervalMicros, sweeps));
    s = rt.snapshot();
    EXPECT_EQ(s.revalidator.agedFlows, s.revalidator.installs);

    rt.drain();
    rt.stop();
    const RuntimeSnapshot fin = rt.snapshot();
    EXPECT_EQ(fin.processed, fin.enqueued);
    EXPECT_EQ(fin.enqueued, offered);
    EXPECT_EQ(fin.revalidator.sweeps,
              cfg.revalidator.idleTimeoutEpochs + 1);
    EXPECT_EQ(fin.upcallRingDepth, 0u);
}

/**
 * The worker stamps a hit flow's activity slot and the revalidator ages
 * a tracked flow by the slot its install recorded: both must hash the
 * key alike. Flows that keep hitting across more sweeps than the idle
 * timeout are never aged (a mismatched hash ages them all), while
 * flows that stop are aged once the timeout passes.
 */
TEST(Runtime, DecoupledAgingSparesHitFlowsAndAgesIdleOnes)
{
    const RuleSet of = fallbackRules(7);
    RuntimeConfig cfg = smallConfig(2);
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 8192;
    cfg.revalidator.sweepIntervalMicros = 200;
    cfg.revalidator.idleTimeoutEpochs = 2;
    const RuleSet empty;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, empty, &clock);
    rt.start();
    auto sweeps = [&rt] { return rt.snapshot().revalidator.sweeps; };

    constexpr std::uint32_t flows = 20;
    auto offerRound = [&rt](std::uint32_t first, std::uint32_t count) {
        for (std::uint32_t id = first; id < first + count; ++id) {
            const FiveTuple t = newFlow(id);
            ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
        }
        rt.drain();
    };
    // Fault both sets in: flows [0, 20) will keep hitting, [20, 40)
    // go idle.
    ASSERT_TRUE(waitFor([&] {
        offerRound(0, 2 * flows);
        return rt.snapshot().revalidator.installs == 2 * flows;
    }));
    const std::uint64_t upcalls = rt.snapshot().upcallsEnqueued;

    const std::uint64_t rounds = cfg.revalidator.idleTimeoutEpochs + 3;
    for (std::uint64_t e = 0; e < rounds; ++e) {
        offerRound(0, flows);
        ASSERT_TRUE(tick(clock, cfg.revalidator.sweepIntervalMicros,
                         sweeps));
    }
    const std::uint64_t matched = rt.snapshot().matched;
    offerRound(0, flows);
    const RuntimeSnapshot s = rt.snapshot();
    EXPECT_EQ(s.revalidator.agedFlows, flows);
    EXPECT_EQ(s.matched - matched, flows);
    EXPECT_EQ(s.upcallsEnqueued, upcalls);
    rt.stop();
}

/**
 * drain() returns once the work is done, not merely dequeued: checked
 * before stop() after every round, with the revalidator still live.
 */
TEST(Runtime, DrainWaitsForPublishedWork)
{
    const RuleSet of = fallbackRules(4);
    RuntimeConfig cfg = smallConfig(3);
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.enqueueRetries = UINT_MAX;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 8192;
    cfg.promoteSampleShift = 0; // every megaflow hit asks for a promote
    const RuleSet empty;
    Runtime rt(cfg, empty);
    rt.start();

    // Each round: new flows (Miss upcalls) plus repeats of the
    // previous round's flows (megaflow hits, Promote upcalls).
    std::uint32_t next_flow = 0;
    for (int round = 0; round < 50; ++round) {
        for (std::uint32_t i = 0; i < 40; ++i) {
            const FiveTuple t = newFlow(next_flow++);
            ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
            const FiveTuple old = newFlow(next_flow > 80 ? next_flow - 80
                                                         : 0);
            ASSERT_TRUE(rt.offer(Packet::fromTuple(old), old));
        }
        rt.drain();
        const RuntimeSnapshot s = rt.snapshot();
        ASSERT_EQ(s.processed, s.enqueued) << "round " << round;
        const RevalidatorCounters &r = s.revalidator;
        ASSERT_EQ(r.upcallsProcessed, s.upcallsEnqueued + s.promotesEnqueued)
            << "round " << round;
        // Every handled request is accounted for by exactly one
        // outcome.
        ASSERT_EQ(r.installs + r.installFailures + r.unresolved +
                      r.promotes + r.dedupHits + r.promotesThrottled,
                  r.upcallsProcessed)
            << "round " << round;
        ASSERT_EQ(s.upcallRingDepth, 0u);
    }
    EXPECT_GT(rt.snapshot().promotesEnqueued, 0u);
    rt.stop();
}

/**
 * busyNanos counts the worker's batches, never its idle polling or its
 * burst windows: it holds still while the worker polls an empty ring,
 * grows with every round of traffic, and never exceeds the run's wall
 * time. A park and unpark after each drain() makes sure the worker has
 * finished the last batch's bookkeeping (drain() returns at its
 * publish) before the idle window is measured; the manual clock never
 * moves, so nothing else runs. The last round streams behind a parked
 * burst of 24 packets, popped as 16 then 8, so at least one burst
 * window opens in it.
 */
TEST(Runtime, WorkerBusyTimeExcludesIdlePolling)
{
    Workload wl;
    RuntimeConfig cfg = smallConfig(1);
    cfg.enqueueRetries = UINT_MAX;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, wl.rules, &clock);
    Worker &worker = rt.worker(0);
    TrafficGenerator gen(wl.traffic);
    const auto offerNext = [&] {
        const FiveTuple t = gen.nextTuple();
        ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
    };
    const auto started = std::chrono::steady_clock::now();
    rt.start();

    std::uint64_t busy = 0;
    for (int round = 0; round < 4; ++round) {
        const bool streaming = round == 3;
        if (streaming) {
            worker.requestPark();
            ASSERT_TRUE(waitFor([&] { return worker.parked(); }));
            const std::uint64_t base = worker.counters().packets;
            for (int i = 0; i < 24; ++i)
                offerNext();
            worker.requestUnpark();
            ASSERT_TRUE(waitFor(
                [&] { return worker.counters().packets == base + 24; }));
            EXPECT_GE(worker.counters().burstWaits, 1u);
        }
        for (int i = 0; i < 4000; ++i)
            offerNext();
        rt.drain();
        worker.requestPark();
        ASSERT_TRUE(waitFor([&] { return worker.parked(); }));
        worker.requestUnpark();
        ASSERT_TRUE(waitFor([&] { return !worker.parked(); }));

        const std::uint64_t before = worker.counters().busyNanos;
        EXPECT_GT(before, busy) << "round " << round;
        // >= 20 ms of idle polling on an empty ring.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        EXPECT_EQ(worker.counters().busyNanos, before)
            << "idle polling counted as busy, round " << round;
        busy = before;
    }
    // The batch that ends an idle window adds its own CPU time, not
    // the window's polling (~25 ms of CPU on an unloaded host).
    offerNext();
    rt.drain();
    worker.requestPark();
    ASSERT_TRUE(waitFor([&] { return worker.parked(); }));
    EXPECT_LT(worker.counters().busyNanos - busy, 5000000u);
    rt.stop();
    const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - started);
    EXPECT_EQ(worker.counters().packets, 4u * 4000u + 24u + 1u);
    EXPECT_LE(worker.counters().busyNanos,
              static_cast<std::uint64_t>(wall.count()));
}

/**
 * The burst window opens only while traffic streams in: after a batch
 * of at least 2 but fewer than batchSize packets. A parked worker
 * that finds 40 packets queued pops 32 then 8 and opens exactly one
 * window; packets offered one at a time, each drained before the
 * next, are popped alone and open none. Park, drain() and stop
 * requested right behind a burst still finish, after its window, and
 * every packet is counted.
 */
TEST(Runtime, BurstWindowOpensOnlyWhileStreaming)
{
    Workload wl;
    RuntimeConfig cfg = smallConfig(1);
    cfg.batchSize = 32;
    cfg.enqueueRetries = UINT_MAX;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, wl.rules, &clock);
    Worker &worker = rt.worker(0);
    TrafficGenerator gen(wl.traffic);
    // Queue @p packets behind a parked worker, then let it run. Each
    // park and unpark is awaited, so no pop sees a partial burst.
    const auto offerBurst = [&](int packets) {
        worker.requestPark();
        ASSERT_TRUE(waitFor([&] { return worker.parked(); }));
        for (int i = 0; i < packets; ++i) {
            const FiveTuple t = gen.nextTuple();
            ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
        }
        worker.requestUnpark();
        ASSERT_TRUE(waitFor([&] { return !worker.parked(); }));
    };
    rt.start();

    offerBurst(40);
    rt.drain();
    WorkerCounters c = worker.counters();
    EXPECT_EQ(c.batches, 2u);
    EXPECT_EQ(c.burstWaits, 1u);

    for (int i = 0; i < 50; ++i) {
        const FiveTuple t = gen.nextTuple();
        ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
        rt.drain();
    }
    c = worker.counters();
    EXPECT_EQ(c.batches, 2u + 50u);
    EXPECT_EQ(c.burstWaits, 1u) << "a lone packet opened a window";

    // Park requested right behind the burst: the worker still pops
    // both batches, opens its window and then parks.
    offerBurst(40);
    worker.requestPark();
    ASSERT_TRUE(waitFor([&] { return worker.parked(); }));
    rt.drain();
    EXPECT_EQ(worker.counters().packets, 40u + 50u + 40u);
    EXPECT_EQ(worker.counters().burstWaits, 2u);
    worker.requestUnpark();
    ASSERT_TRUE(waitFor([&] { return !worker.parked(); }));

    // Stop requested right behind the burst: drain-on-stop still
    // processes all of it.
    offerBurst(40);
    rt.stop();
    c = worker.counters();
    EXPECT_EQ(c.packets, 40u + 50u + 40u + 40u);
    EXPECT_EQ(c.burstWaits, 3u);
    const RuntimeSnapshot s = rt.snapshot();
    EXPECT_EQ(s.burstWaits, 3u);
    EXPECT_EQ(s.processed, s.enqueued);
}

/**
 * An idle revalidator parks on the clock and every upcall wakes it: on
 * a manual clock that never moves, no sweep ever runs, so each burst's
 * upcalls are handled only because a worker rang the parked thread.
 */
TEST(Runtime, ParkedRevalidatorWakesForEveryUpcall)
{
    const RuleSet of = fallbackRules(6);
    RuntimeConfig cfg = smallConfig(3);
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.enqueueRetries = UINT_MAX;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 8192;
    const RuleSet empty;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, empty, &clock);
    obs::MetricsRegistry reg;
    rt.registerMetrics(reg);
    rt.start();

    std::uint32_t next_flow = 0;
    for (int round = 0; round < 40; ++round) {
        const std::uint64_t parks = rt.snapshot().revalidator.parks;
        for (int i = 0; i < 64; ++i) {
            const FiveTuple t = newFlow(next_flow++);
            ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
        }
        rt.drain();
        const RuntimeSnapshot s = rt.snapshot();
        EXPECT_EQ(s.revalidator.sweeps, 0u);
        EXPECT_EQ(s.upcallDrops, 0u);
        EXPECT_EQ(s.revalidator.upcallsProcessed, s.upcallsEnqueued);
        EXPECT_EQ(s.revalidator.installs, next_flow);
        // Idle again: the revalidator goes back to sleep.
        ASSERT_TRUE(waitFor(
            [&] { return rt.snapshot().revalidator.parks > parks; }))
            << "round " << round;
    }
    EXPECT_NE(reg.renderPrometheus().find("halo_reval_parks"),
              std::string::npos);
    rt.stop();
    EXPECT_EQ(rt.snapshot().revalidator.sweeps, 0u);
}

/**
 * The upcall ring never blocks a worker: with a tiny ring and the
 * revalidator never started, overflow must show up as counted drops
 * while every packet still completes.
 */
TEST(Runtime, DecoupledUpcallOverflowDropsAreCounted)
{
    const RuleSet of = fallbackRules(3);
    RuntimeConfig cfg = smallConfig(1);
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 8192;
    cfg.revalidator.ringCapacity = 4;
    cfg.revalidator.drainBatch = 1;
    const RuleSet empty;
    Runtime rt(cfg, empty);

    // Fill the upcall ring before the revalidator runs: with no
    // consumer, distinct-flow misses past the capacity must drop.
    Workload wl(2000);
    TrafficGenerator gen(wl.traffic);
    rt.worker(0).start();
    std::uint64_t offered = 0;
    for (const FiveTuple &t : gen.flows())
        offered += rt.offer(Packet::fromTuple(t), t) ? 1 : 0;
    // Not rt.drain(): that also waits for the upcall ring to empty,
    // and this test deliberately never runs the consumer.
    while (rt.snapshot().processed < offered)
        std::this_thread::yield();

    const RuntimeSnapshot s = rt.snapshot();
    EXPECT_EQ(s.processed, offered);
    EXPECT_GT(s.upcallDrops, 0u);
    EXPECT_LE(s.upcallsEnqueued + s.promotesEnqueued,
              offered); // enqueues bounded by traffic, drops excluded

    rt.stop();
}

/** The flow limit's aging decision at the 3/4 edge. */
TEST(FlowLimit, IdleTimeoutDropsToOneSweepAtThreeQuartersFull)
{
    EXPECT_EQ(flowIdleTimeoutEpochs(0, 1024, 20), 20u);
    EXPECT_EQ(flowIdleTimeoutEpochs(767, 1024, 20), 20u);
    EXPECT_EQ(flowIdleTimeoutEpochs(768, 1024, 20), 1u);
    EXPECT_EQ(flowIdleTimeoutEpochs(1024, 1024, 20), 1u);
    EXPECT_EQ(flowIdleTimeoutEpochs(49151, 65536, 4), 4u);
    EXPECT_EQ(flowIdleTimeoutEpochs(49152, 65536, 4), 1u);
    // The limit only ever shortens the configured timeout.
    EXPECT_EQ(flowIdleTimeoutEpochs(1024, 1024, 0), 0u);
}

/**
 * A flow table that fills faster than it ages: batches of
 * capacity/4 never-repeating flows against an idle timeout far longer
 * than the test. Only the flow limit can make room, so every install
 * must still succeed and the exact tuple must never fill.
 */
TEST(Runtime, DecoupledFlowLimitKeepsExactTupleBelowCapacity)
{
    const RuleSet of = fallbackRules(5);
    constexpr std::uint64_t capacity = 1024;
    RuntimeConfig cfg = smallConfig(1);
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.enqueueRetries = UINT_MAX;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = capacity;
    cfg.revalidator.sweepIntervalMicros = 1000;
    cfg.revalidator.idleTimeoutEpochs = 1000000;
    const RuleSet empty;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, empty, &clock);
    TupleSpace &tuples = rt.worker(0).vswitch().tupleSpace();
    ASSERT_EQ(tuples.numTuples(), 1u); // the exact tuple installs target
    const CuckooHashTable &exact = tuples.table(0);
    ASSERT_EQ(exact.capacity(), capacity);
    rt.start();
    auto sweeps = [&rt] { return rt.snapshot().revalidator.sweeps; };

    std::uint32_t next_flow = 0;
    std::uint64_t peak = 0;
    for (int batch = 0; batch < 8; ++batch) {
        for (std::uint64_t i = 0; i < capacity / 4; ++i) {
            const FiveTuple t = newFlow(next_flow++);
            ASSERT_TRUE(rt.offer(Packet::fromTuple(t), t));
        }
        // Every packet classified, then every upcall it raised handled.
        rt.drain();
        peak = std::max(peak, exact.size());
        // Three sweeps: the first over the limit ages every flow idle
        // for more than one sweep.
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(tick(clock, cfg.revalidator.sweepIntervalMicros,
                             sweeps));
    }
    rt.drain();
    rt.stop();

    const RuntimeSnapshot fin = rt.snapshot();
    EXPECT_EQ(fin.processed, 8 * capacity / 4);
    EXPECT_EQ(fin.upcallDrops, 0u);
    EXPECT_EQ(fin.revalidator.unresolved, 0u);
    EXPECT_EQ(fin.revalidator.installFailures, 0u);
    EXPECT_EQ(fin.revalidator.installs, 8 * capacity / 4);
    EXPECT_GT(fin.revalidator.agedFlows, 0u);
    EXPECT_LT(peak, capacity);
}

/** Runtime workers classify on functional switches: no timing model is
 *  attached to any of them, inline or decoupled. */
TEST(Runtime, WorkersRunFunctionalSwitches)
{
    Workload wl(200);
    const RuleSet of = fallbackRules(2);
    for (bool decoupled : {false, true}) {
        RuntimeConfig cfg = smallConfig(3);
        cfg.decoupled = decoupled;
        cfg.openflowRules = &of;
        Runtime rt(cfg, wl.rules);
        for (unsigned w = 0; w < rt.numWorkers(); ++w)
            EXPECT_FALSE(rt.worker(w).vswitch().timed())
                << "worker " << w << (decoupled ? " decoupled" : "");
    }
}

TEST(Runtime, SymmetricRssKeepsConnectionsOnOneShard)
{
    Workload wl;
    RuntimeConfig cfg = smallConfig(4);
    Runtime rt(cfg, wl.rules);

    TrafficGenerator gen(wl.traffic);
    for (int i = 0; i < 500; ++i) {
        const FiveTuple t = gen.nextTuple();
        FiveTuple r = t;
        std::swap(r.srcIp, r.dstIp);
        std::swap(r.srcPort, r.dstPort);
        ASSERT_EQ(rt.dispatcher().shardFor(t),
                  rt.dispatcher().shardFor(r));
    }
}

/**
 * Metrics registered before start() must already carry a per-stage
 * series for every stage a thread can enter, including the
 * revalidator's control stage, which only the adaptive EMC policy
 * runs (and which had therefore never executed at registration time).
 */
TEST(Runtime, PerfSeriesExistForEveryStageBeforeItRuns)
{
    RuleSet of;
    FlowRule fallback;
    fallback.mask = FlowMask{};
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 7};
    of.push_back(fallback);

    RuntimeConfig cfg;
    cfg.numWorkers = 1;
    cfg.shardMemBytes = 64ull << 20;
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.warmTables = false;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 1u << 10;
    cfg.emcPolicy.adaptive = true;
    cfg.perfEnabled = true;
    const RuleSet empty;
    Runtime rt(cfg, empty);

    obs::MetricsRegistry reg;
    rt.registerMetrics(reg);
    rt.start();
    rt.drain();
    rt.stop();
    std::ostringstream prom;
    reg.writePrometheus(prom);
    const std::string text = prom.str();
    for (const std::string_view stage : obs::kStageNames) {
        const std::string series =
            "halo_perf_stage_tsc_cycles{thread=\"revalidator\",stage=\"" +
            std::string(stage) + "\"}";
        EXPECT_NE(text.find(series), std::string::npos) << series;
    }
}

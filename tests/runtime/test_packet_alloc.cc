/**
 * @file
 * Zero-allocation gate for the runtime packet path.
 *
 * This binary replaces the global operator new/delete family with
 * malloc-backed versions that count every allocation and every free,
 * on every thread, with no uncounted scope. A producer then builds
 * packets with Packet::fromTuple and offers them to a running Runtime
 * until the workers have classified all of them. Packets carry their
 * frames inline in the ring slots, so once warm the whole path —
 * build, dispatch, ring, classify, and on the decoupled runtime the
 * megaflow hits behind a revalidator — must touch the heap zero times.
 * So must a warm packet through a timed switch, whose stages are also
 * priced on the core model and, in the HALO modes, the accelerators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/halo_system.hh"
#include "cpu/core_model.hh"
#include "flow/ruleset.hh"
#include "mem/hierarchy.hh"
#include "runtime/runtime.hh"
#include "vswitch/vswitch.hh"

namespace {

std::atomic<std::uint64_t> newCount{0};
std::atomic<std::uint64_t> deleteCount{0};

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    newCount.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (align > alignof(std::max_align_t)) {
        if (posix_memalign(&p, std::max(align, sizeof(void *)),
                           n ? n : 1) != 0)
            p = nullptr;
    } else {
        p = std::malloc(n ? n : 1);
    }
    if (!p)
        throw std::bad_alloc();
    return p;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    deleteCount.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

template <typename F>
void *
noThrow(F &&alloc) noexcept
{
    try {
        return alloc();
    } catch (...) {
        return nullptr;
    }
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return noThrow([n] { return countedAlloc(n); });
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return noThrow([n] { return countedAlloc(n); });
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return noThrow(
        [n, a] { return countedAlloc(n, static_cast<std::size_t>(a)); });
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return noThrow(
        [n, a] { return countedAlloc(n, static_cast<std::size_t>(a)); });
}

void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void operator delete(void *p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    countedFree(p);
}

using namespace halo;

namespace {

constexpr std::uint64_t kSteadyPackets = 100000;

/** Build and offer @p packets packets round-robin over @p flows, then
 *  wait until the runtime has handled every one. */
void
offerAndDrain(Runtime &rt, const std::vector<FiveTuple> &flows,
              std::uint64_t packets)
{
    for (std::uint64_t i = 0; i < packets; ++i) {
        const FiveTuple &t = flows[i % flows.size()];
        rt.offer(Packet::fromTuple(t), t);
    }
    rt.drain();
}

struct AllocCounts
{
    std::uint64_t news = 0;
    std::uint64_t deletes = 0;
};

/** Heap operations, on any thread, over kSteadyPackets build+offer
 *  steps of an already warm runtime. */
AllocCounts
steadyStateAllocs(Runtime &rt, const std::vector<FiveTuple> &flows)
{
    const std::uint64_t news = newCount.load();
    const std::uint64_t deletes = deleteCount.load();
    offerAndDrain(rt, flows, kSteadyPackets);
    return {newCount.load() - news, deleteCount.load() - deletes};
}

RuntimeConfig
oneWorkerConfig()
{
    RuntimeConfig cfg;
    cfg.numWorkers = 1;
    cfg.ringCapacity = 256;
    cfg.batchSize = 16;
    cfg.shardMemBytes = 256ull << 20;
    cfg.enqueueRetries = UINT_MAX; // no drops: every packet is handled
    cfg.warmTables = false;
    return cfg;
}

} // namespace

TEST(PacketAlloc, InlineRuntimeAllocatesNothingPerPacket)
{
    const TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::SmallFlowCount, 1000));
    const std::vector<FiveTuple> &flows = gen.flows();
    const RuleSet rules =
        scenarioRules(TrafficScenario::SmallFlowCount, flows, 0x707);
    RuntimeConfig cfg = oneWorkerConfig();
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 4096;
    Runtime rt(cfg, rules);
    rt.start();
    offerAndDrain(rt, flows, 4 * flows.size()); // warm-up

    const AllocCounts steady = steadyStateAllocs(rt, flows);
    EXPECT_EQ(steady.news, 0u);
    EXPECT_EQ(steady.deletes, 0u);

    rt.stop();
    const RuntimeSnapshot fin = rt.snapshot();
    EXPECT_EQ(fin.offered, kSteadyPackets + 4 * flows.size());
    EXPECT_EQ(fin.processed, fin.offered);
    EXPECT_EQ(fin.matched, fin.processed);
}

TEST(PacketAlloc, DecoupledRuntimeAllocatesNothingPerPacket)
{
    FlowRule match_all;
    match_all.mask = FlowMask{};
    match_all.priority = 1;
    match_all.action = Action{ActionKind::Forward, 2};
    const RuleSet openflow{match_all};

    const TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::SmallFlowCount, 1000));
    const std::vector<FiveTuple> &flows = gen.flows();
    RuntimeConfig cfg = oneWorkerConfig();
    cfg.decoupled = true;
    cfg.openflowRules = &openflow;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 4096;
    const RuleSet empty;
    // A manual clock that never advances: no sweep ages a flow out
    // while the steady state runs, so every packet is a fast-path hit.
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, empty, &clock);
    rt.start();
    offerAndDrain(rt, flows, 4 * flows.size()); // upcalls install flows

    const AllocCounts steady = steadyStateAllocs(rt, flows);
    EXPECT_EQ(steady.news, 0u);
    EXPECT_EQ(steady.deletes, 0u);

    rt.stop();
    const RuntimeSnapshot fin = rt.snapshot();
    EXPECT_EQ(fin.processed, fin.offered);
    EXPECT_GT(fin.revalidator.installs, 0u);
}

TEST(PacketAlloc, TimedSwitchAllocatesNothingPerPacket)
{
    const TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::SmallFlowCount, 1000));
    const RuleSet rules =
        scenarioRules(TrafficScenario::SmallFlowCount, gen.flows(), 0x707);
    std::vector<Packet> packets;
    for (const FiveTuple &t : gen.flows())
        packets.push_back(Packet::fromTuple(t));

    for (const LookupMode mode :
         {LookupMode::Software, LookupMode::HaloBlocking,
          LookupMode::HaloNonBlocking}) {
        SCOPED_TRACE(static_cast<int>(mode));
        SimMemory mem(256ull << 20);
        MemoryHierarchy hier;
        HaloSystem halo(mem, hier);
        CoreModel core(hier, 0);
        VSwitchConfig cfg;
        cfg.mode = mode;
        cfg.tupleConfig.tupleCapacity = 4096;
        VirtualSwitch vs(mem, hier, core, &halo, cfg);
        vs.installRules(rules);
        vs.warmTables();
        for (int pass = 0; pass < 2; ++pass) // warm-up
            for (const Packet &p : packets)
                vs.processPacket(p);

        const std::uint64_t news = newCount.load();
        const std::uint64_t deletes = deleteCount.load();
        for (int pass = 0; pass < 5; ++pass)
            for (const Packet &p : packets)
                vs.processPacket(p);
        EXPECT_EQ(newCount.load() - news, 0u);
        EXPECT_EQ(deleteCount.load() - deletes, 0u);
        EXPECT_EQ(vs.totals().matches, 7 * packets.size());
    }
}

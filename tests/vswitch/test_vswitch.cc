/**
 * @file
 * Unit and integration tests for the virtual-switch datapath.
 */

#include <gtest/gtest.h>

#include "core/halo_system.hh"
#include "flow/ruleset.hh"
#include "vswitch/vswitch.hh"

namespace halo {
namespace {

struct SwitchRig
{
    SimMemory mem{1ull << 30};
    MemoryHierarchy hier;
    HaloSystem halo{mem, hier};
    CoreModel core{hier, 0};
    TrafficGenerator gen;
    RuleSet rules;

    explicit SwitchRig(std::uint64_t flows = 2000,
                       TrafficScenario scenario =
                           TrafficScenario::ManyFlows)
        : gen(TrafficGenerator::scenarioConfig(scenario, flows)),
          rules(scenarioRules(scenario, gen.flows(), 99))
    {
    }

    VirtualSwitch
    makeSwitch(LookupMode mode, bool use_emc = true)
    {
        VSwitchConfig cfg;
        cfg.mode = mode;
        cfg.useEmc = use_emc;
        cfg.tupleConfig.tupleCapacity =
            nextPowerOfTwo(gen.flows().size() + 16);
        VirtualSwitch vs(mem, hier, core, &halo, cfg);
        vs.installRules(rules);
        vs.warmTables();
        return vs;
    }
};

TEST(VSwitch, EveryPacketMatchesInSoftwareMode)
{
    SwitchRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    for (int i = 0; i < 200; ++i) {
        const PacketResult r = vs.processPacket(rig.gen.nextPacket());
        EXPECT_TRUE(r.matched);
        EXPECT_GT(r.total, 0u);
    }
    EXPECT_EQ(vs.totals().matches, 200u);
}

TEST(VSwitch, StageBreakdownSumsToTotal)
{
    SwitchRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    const PacketResult r = vs.processPacket(rig.gen.nextPacket());
    EXPECT_EQ(r.total, r.packetIo + r.preprocess + r.emcCycles +
                           r.megaflowCycles + r.otherCycles);
}

TEST(VSwitch, EmcHitsGrowWithRepeatedFlows)
{
    SwitchRig rig(100, TrafficScenario::SmallFlowCount);
    auto vs = rig.makeSwitch(LookupMode::Software);
    for (int i = 0; i < 1000; ++i)
        vs.processPacket(rig.gen.nextPacket());
    // 100 flows into an 8K-entry EMC: the steady state is hit-dominated.
    EXPECT_GT(static_cast<double>(vs.totals().emcHits) /
                  static_cast<double>(vs.totals().packets),
              0.7);
}

TEST(VSwitch, EmcHitIsCheaperThanMegaflowWalk)
{
    SwitchRig rig(100, TrafficScenario::SmallFlowCount);
    auto vs = rig.makeSwitch(LookupMode::Software);
    Cycles hit_cost = 0, miss_cost = 0;
    unsigned hits = 0, misses = 0;
    for (int i = 0; i < 600; ++i) {
        const PacketResult r = vs.processPacket(rig.gen.nextPacket());
        if (r.emcHit) {
            hit_cost += r.emcCycles + r.megaflowCycles;
            ++hits;
        } else {
            miss_cost += r.emcCycles + r.megaflowCycles;
            ++misses;
        }
    }
    ASSERT_GT(hits, 0u);
    ASSERT_GT(misses, 0u);
    EXPECT_LT(hit_cost / hits, miss_cost / misses);
}

TEST(VSwitch, AllModesAgreeOnClassification)
{
    SwitchRig rig(500);
    auto sw = rig.makeSwitch(LookupMode::Software, false);
    auto hb = rig.makeSwitch(LookupMode::HaloBlocking, false);
    auto hnb = rig.makeSwitch(LookupMode::HaloNonBlocking, false);
    for (int i = 0; i < 100; ++i) {
        const FiveTuple &t = rig.gen.nextTuple();
        const PacketResult a = sw.classifyTuple(t);
        const PacketResult b = hb.classifyTuple(t);
        const PacketResult c = hnb.classifyTuple(t);
        ASSERT_EQ(a.matched, b.matched);
        ASSERT_EQ(a.matched, c.matched);
        if (a.matched) {
            EXPECT_EQ(a.action, b.action);
            EXPECT_EQ(a.action, c.action);
        }
    }
}

TEST(VSwitch, HaloNonBlockingBeatsSoftwareOnLongTupleWalks)
{
    // The NB win appears when packets walk many tuples (Fig. 11): use a
    // 12-mask rule set and probe tuples that match nothing, so the
    // software walk visits every tuple while NB fans out in parallel.
    SwitchRig rig(1200, TrafficScenario::ManyFlows);
    rig.rules = deriveRules(rig.gen.flows(), canonicalMasks(12), 0, 5);
    auto sw = rig.makeSwitch(LookupMode::Software, false);
    auto hnb = rig.makeSwitch(LookupMode::HaloNonBlocking, false);
    Cycles sw_cycles = 0, nb_cycles = 0;
    for (int i = 0; i < 200; ++i) {
        FiveTuple alien;
        alien.srcIp = 0xc0000000 + static_cast<std::uint32_t>(i);
        alien.dstIp = 0xc1000000 + static_cast<std::uint32_t>(i * 3);
        alien.srcPort = static_cast<std::uint16_t>(i + 1);
        alien.dstPort = static_cast<std::uint16_t>(i + 2);
        const PacketResult a = sw.classifyTuple(alien);
        const PacketResult b = hnb.classifyTuple(alien);
        EXPECT_FALSE(a.matched);
        EXPECT_FALSE(b.matched);
        sw_cycles += a.megaflowCycles;
        nb_cycles += b.megaflowCycles;
    }
    // Full 12-tuple walks: the fan-out should win by a wide margin.
    EXPECT_LT(2 * nb_cycles, sw_cycles);
}

TEST(VSwitch, HybridModeTracksFlowCount)
{
    SwitchRig rig(8, TrafficScenario::SmallFlowCount);
    auto vs = rig.makeSwitch(LookupMode::Hybrid, false);
    // Few flows: after a window the hybrid controller must pick
    // software.
    for (int i = 0; i < 1200; ++i)
        vs.classifyTuple(rig.gen.nextTuple());
    EXPECT_EQ(vs.effectiveMode(), LookupMode::Software);
}

TEST(VSwitch, HybridSwitchesToHaloUnderManyFlows)
{
    SwitchRig rig(20000, TrafficScenario::ManyFlows);
    VSwitchConfig cfg;
    cfg.mode = LookupMode::Hybrid;
    cfg.useEmc = false;
    cfg.tupleConfig.tupleCapacity = 32768;
    VirtualSwitch vs(rig.mem, rig.hier, rig.core, &rig.halo, cfg);
    vs.installRules(rig.rules);
    // Force the controller into Software first, then flood flows.
    for (int i = 0; i < 1200; ++i)
        vs.classifyTuple(rig.gen.flows()[i % 4]);
    EXPECT_EQ(vs.effectiveMode(), LookupMode::Software);
    for (int i = 0; i < 2000; ++i)
        vs.classifyTuple(rig.gen.nextTuple());
    EXPECT_EQ(vs.effectiveMode(), LookupMode::HaloNonBlocking);
}

TEST(VSwitch, MalformedPacketIsDroppedEarly)
{
    SwitchRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    Packet runt;
    runt.assign(5, 0);
    const PacketResult r = vs.processPacket(runt);
    EXPECT_FALSE(r.matched);
}

TEST(VSwitch, UnmatchedTupleReportsNoMatch)
{
    SwitchRig rig(100, TrafficScenario::SmallFlowCount);
    auto vs = rig.makeSwitch(LookupMode::Software, false);
    FiveTuple alien;
    alien.srcIp = 0xc0a80101; // not in 10/8 population
    alien.dstIp = 0xc0a80202;
    alien.srcPort = 1;
    alien.dstPort = 2;
    const PacketResult r = vs.classifyTuple(alien);
    EXPECT_FALSE(r.matched);
    EXPECT_EQ(r.tuplesSearched, vs.tupleSpace().numTuples());
}

TEST(VSwitch, CyclesPerPacketInPaperRange)
{
    // Fig. 3 reports 340-993 cycles/packet across its five configs;
    // our software datapath should land in that ballpark.
    SwitchRig rig(10000, TrafficScenario::ManyFlows);
    auto vs = rig.makeSwitch(LookupMode::Software);
    for (int i = 0; i < 500; ++i)
        vs.processPacket(rig.gen.nextPacket());
    const double cpp = vs.totals().cyclesPerPacket();
    EXPECT_GT(cpp, 250.0);
    EXPECT_LT(cpp, 1400.0);
}

/** What a timed run leaves behind: its totals, upcalls and megaflows. */
struct TimedRun
{
    SwitchTotals totals;
    std::uint64_t upcalls = 0;
    std::uint64_t rules = 0;
};

/**
 * A fixed seeded stream through a timed switch in @p mode, with the EMC
 * on. With @p openflow the megaflow layer starts empty and fills by
 * inline upcalls; without, it holds the scenario's rules. The stream
 * alternates few-flow and many-flow phases (so Hybrid switches both
 * ways), mixes in tuples no rule matches, and goes through every entry
 * point: processPacket (with malformed frames), then classifyTuple,
 * then classifyBurst in bursts of 1..16.
 */
TimedRun
runPinnedStream(LookupMode mode, bool openflow)
{
    SwitchRig rig;
    VSwitchConfig cfg;
    cfg.mode = mode;
    cfg.useOpenflowLayer = openflow;
    cfg.tupleConfig.tupleCapacity =
        nextPowerOfTwo(rig.gen.flows().size() + 16);
    VirtualSwitch vs(rig.mem, rig.hier, rig.core, &rig.halo, cfg);
    if (openflow)
        vs.installOpenflowRules(rig.rules);
    else
        vs.installRules(rig.rules);
    vs.warmTables();

    constexpr std::size_t phase = 1500;
    std::vector<FiveTuple> stream;
    for (std::size_t i = 0; i < 3 * phase; ++i) {
        FiveTuple t = (i / phase) % 2 ? rig.gen.nextTuple()
                                      : rig.gen.flows()[i % 4];
        if (i % 41 == 7) {
            t.srcIp = 0xc0a80000 + static_cast<std::uint32_t>(i);
            t.dstIp = 0xc0a90000 + static_cast<std::uint32_t>(i);
        }
        stream.push_back(t);
    }
    for (std::size_t i = 0; i < phase; ++i) {
        Packet p = Packet::fromTuple(stream[i]);
        if (i % 97 == 13)
            p.resize(20); // runt: dropped before classification
        vs.processPacket(p);
    }
    for (std::size_t i = phase; i < 2 * phase; ++i)
        vs.classifyTuple(stream[i]);
    std::vector<PacketResult> results(16);
    for (std::size_t off = 2 * phase, len = 1; off < stream.size();
         off += len, len = len % 16 + 1) {
        const std::size_t n = std::min(len, stream.size() - off);
        vs.classifyBurst(std::span<const FiveTuple>(stream).subspan(off, n),
                         results);
    }
    return {vs.totals(), vs.upcalls(), vs.tupleSpace().ruleCount()};
}

void
expectPinned(const TimedRun &got, const TimedRun &want)
{
    EXPECT_EQ(got.totals.packets, want.totals.packets);
    EXPECT_EQ(got.totals.emcHits, want.totals.emcHits);
    EXPECT_EQ(got.totals.matches, want.totals.matches);
    EXPECT_EQ(got.totals.total, want.totals.total);
    EXPECT_EQ(got.totals.packetIo, want.totals.packetIo);
    EXPECT_EQ(got.totals.preprocess, want.totals.preprocess);
    EXPECT_EQ(got.totals.emcCycles, want.totals.emcCycles);
    EXPECT_EQ(got.totals.megaflowCycles, want.totals.megaflowCycles);
    EXPECT_EQ(got.totals.otherCycles, want.totals.otherCycles);
    EXPECT_EQ(got.totals.instructions, want.totals.instructions);
    EXPECT_EQ(got.upcalls, want.upcalls);
    EXPECT_EQ(got.rules, want.rules);
}

// The timing model's output pinned to recorded numbers: any change to
// what a timed switch prices, or in which order, shows up here.
TEST(VSwitch, TimedTotalsMatchRecordedValues)
{
    expectPinned(runPinnedStream(LookupMode::Software, true),
                 {{.packets = 4500,
                   .emcHits = 3140,
                   .matches = 4374,
                   .total = 2872699,
                   .packetIo = 150772,
                   .preprocess = 120204,
                   .emcCycles = 354436,
                   .megaflowCycles = 2144155,
                   .otherCycles = 103132,
                   .instructions = 4279035},
                  915,
                  915});
    expectPinned(runPinnedStream(LookupMode::HaloBlocking, true),
                 {{.packets = 4500,
                   .emcHits = 0,
                   .matches = 4374,
                   .total = 3082256,
                   .packetIo = 150772,
                   .preprocess = 120204,
                   .emcCycles = 0,
                   .megaflowCycles = 2708148,
                   .otherCycles = 103132,
                   .instructions = 2723769},
                  915,
                  915});
    expectPinned(runPinnedStream(LookupMode::HaloNonBlocking, false),
                 {{.packets = 4500,
                   .emcHits = 0,
                   .matches = 4374,
                   .total = 765896,
                   .packetIo = 150772,
                   .preprocess = 120204,
                   .emcCycles = 0,
                   .megaflowCycles = 426288,
                   .otherCycles = 68632,
                   .instructions = 1747404},
                  0,
                  2000});
    expectPinned(runPinnedStream(LookupMode::Hybrid, false),
                 {{.packets = 4500,
                   .emcHits = 3259,
                   .matches = 4374,
                   .total = 1255107,
                   .packetIo = 150772,
                   .preprocess = 120204,
                   .emcCycles = 331669,
                   .megaflowCycles = 549330,
                   .otherCycles = 103132,
                   .instructions = 2550371},
                  0,
                  2000});
}

} // namespace
} // namespace halo

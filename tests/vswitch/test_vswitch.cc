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
    runt.bytes().assign(5, 0);
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

} // namespace
} // namespace halo

/**
 * @file
 * Tests for the OpenFlow slow-path layer and the upcall/install flow
 * (paper Fig. 2a's third layer).
 */

#include <gtest/gtest.h>

#include "core/halo_system.hh"
#include "flow/ruleset.hh"
#include "vswitch/vswitch.hh"

namespace halo {
namespace {

struct OfRig
{
    SimMemory mem{1ull << 30};
    MemoryHierarchy hier;
    HaloSystem halo{mem, hier};
    CoreModel core{hier, 0};
    TrafficGenerator gen;
    RuleSet openflowRules;

    OfRig()
        : gen(TrafficConfig{500, 0.0, 0.5, 0x0f0f}),
          openflowRules(deriveRules(gen.flows(), canonicalMasks(4), 0,
                                    0x11))
    {
    }

    VirtualSwitch
    makeSwitch(LookupMode mode)
    {
        VSwitchConfig cfg;
        cfg.mode = mode;
        cfg.useEmc = false;
        cfg.useOpenflowLayer = true;
        cfg.tupleConfig.tupleCapacity = 2048;
        VirtualSwitch vs(mem, hier, core, &halo, cfg);
        // MegaFlow starts EMPTY: every first packet of a flow upcalls.
        vs.installOpenflowRules(openflowRules);
        vs.warmTables();
        return vs;
    }
};

TEST(OpenflowLayer, UpcallResolvesMegaflowMiss)
{
    OfRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    EXPECT_EQ(vs.tupleSpace().ruleCount(), 0u);

    const FiveTuple &flow = rig.gen.flows()[0];
    const PacketResult first = vs.classifyTuple(flow);
    EXPECT_TRUE(first.matched);
    EXPECT_EQ(vs.upcalls(), 1u);
    // The upcall installed a megaflow entry.
    EXPECT_GE(vs.tupleSpace().ruleCount(), 1u);

    // Second packet of the flow takes the fast path: no new upcall.
    const PacketResult second = vs.classifyTuple(flow);
    EXPECT_TRUE(second.matched);
    EXPECT_EQ(vs.upcalls(), 1u);
    EXPECT_EQ(second.action, first.action);
}

TEST(OpenflowLayer, FastPathCheaperThanUpcall)
{
    OfRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    const FiveTuple &flow = rig.gen.flows()[1];
    const PacketResult slow = vs.classifyTuple(flow);
    const PacketResult fast = vs.classifyTuple(flow);
    EXPECT_LT(fast.megaflowCycles, slow.megaflowCycles);
}

TEST(OpenflowLayer, UpcallsWorkUnderHaloModes)
{
    OfRig rig;
    auto vs = rig.makeSwitch(LookupMode::HaloNonBlocking);
    unsigned matched = 0;
    for (int i = 0; i < 50; ++i)
        matched += vs.classifyTuple(rig.gen.flows()[i]).matched ? 1 : 0;
    EXPECT_EQ(matched, 50u);
    EXPECT_EQ(vs.upcalls(), 50u);
    // Replays hit the (HALO-searched) megaflow layer.
    const std::uint64_t upcalls_before = vs.upcalls();
    for (int i = 0; i < 50; ++i)
        vs.classifyTuple(rig.gen.flows()[i]);
    EXPECT_EQ(vs.upcalls(), upcalls_before);
}

TEST(OpenflowLayer, HighestPriorityRuleWinsUpcall)
{
    OfRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    // The best-priority OpenFlow match must be what gets installed.
    const FiveTuple &flow = rig.gen.flows()[2];
    const auto best = [&]() -> Action {
        const auto key = flow.toKey();
        std::uint16_t best_prio = 0;
        Action action;
        for (const FlowRule &r : rig.openflowRules) {
            if (r.matches(key) && r.priority >= best_prio) {
                best_prio = r.priority;
                action = r.action;
            }
        }
        return action;
    }();
    const PacketResult r = vs.classifyTuple(flow);
    ASSERT_TRUE(r.matched);
    EXPECT_EQ(r.action, best);
}

TEST(OpenflowLayer, TrueMissStaysUnmatched)
{
    OfRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    FiveTuple alien;
    alien.srcIp = 0xdead0000;
    alien.dstIp = 0xbeef0000;
    const PacketResult r = vs.classifyTuple(alien);
    EXPECT_FALSE(r.matched);
    EXPECT_EQ(vs.upcalls(), 0u);
}

} // namespace
} // namespace halo

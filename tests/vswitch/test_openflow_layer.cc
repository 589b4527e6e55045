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
    makeSwitch(LookupMode mode, bool defer = false)
    {
        VSwitchConfig cfg;
        cfg.mode = mode;
        cfg.useEmc = false;
        cfg.useOpenflowLayer = true;
        cfg.deferSlowPath = defer;
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

class OpenflowHaloModes : public ::testing::TestWithParam<LookupMode>
{
};

TEST_P(OpenflowHaloModes, UpcallsWorkUnderHaloModes)
{
    OfRig rig;
    auto vs = rig.makeSwitch(GetParam());
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

INSTANTIATE_TEST_SUITE_P(
    OpenflowLayer, OpenflowHaloModes,
    ::testing::Values(LookupMode::HaloBlocking, LookupMode::HaloNonBlocking,
                      LookupMode::Hybrid),
    [](const ::testing::TestParamInfo<LookupMode> &info) {
        switch (info.param) {
          case LookupMode::HaloBlocking:
            return "HaloBlocking";
          case LookupMode::HaloNonBlocking:
            return "HaloNonBlocking";
          default:
            return "Hybrid";
        }
    });

/** 16 distinct flows of @p rig, none of them in the empty megaflow
 *  layer. */
std::vector<FiveTuple>
newFlows(const OfRig &rig)
{
    std::vector<FiveTuple> flows;
    for (int i = 0; i < 16; ++i)
        flows.push_back(rig.gen.flows()[i * 7]);
    return flows;
}

TEST(OpenflowLayer, NbBurstMissesTakeTheSlowPath)
{
    OfRig rig;
    auto burst = rig.makeSwitch(LookupMode::HaloNonBlocking);
    auto single = rig.makeSwitch(LookupMode::HaloNonBlocking);
    const std::vector<FiveTuple> flows = newFlows(rig);
    std::vector<PacketResult> res(flows.size());
    burst.classifyBurst(flows, res);
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const PacketResult one = single.classifyTuple(flows[i]);
        ASSERT_TRUE(one.matched) << "packet " << i;
        EXPECT_TRUE(res[i].matched) << "packet " << i;
        EXPECT_EQ(res[i].action, one.action) << "packet " << i;
        // The upcall is priced after the burst, on the packet's total.
        EXPECT_GT(res[i].total, 0u) << "packet " << i;
    }
    EXPECT_GT(burst.upcalls(), 0u);
    EXPECT_EQ(burst.upcalls(), single.upcalls());
    EXPECT_EQ(burst.totals().matches, flows.size());
    EXPECT_EQ(burst.tupleSpace().ruleCount(),
              single.tupleSpace().ruleCount());

    // Replays hit the megaflows the burst's upcalls installed.
    const std::uint64_t upcalls = burst.upcalls();
    const std::vector<PacketResult> again = burst.classifyBurstNB(flows);
    for (const PacketResult &r : again)
        EXPECT_TRUE(r.matched);
    EXPECT_EQ(burst.upcalls(), upcalls);
}

TEST(OpenflowLayer, NbBurstDefersItsMisses)
{
    OfRig rig;
    auto vs = rig.makeSwitch(LookupMode::HaloNonBlocking, true);
    const std::vector<FiveTuple> flows = newFlows(rig);
    const std::vector<PacketResult> res = vs.classifyBurstNB(flows);
    for (std::size_t i = 0; i < flows.size(); ++i) {
        EXPECT_FALSE(res[i].matched) << "packet " << i;
        EXPECT_TRUE(res[i].slowPathPending) << "packet " << i;
        EXPECT_EQ(res[i].tuple, flows[i]) << "packet " << i;
    }
    EXPECT_EQ(vs.upcalls(), 0u);
    EXPECT_EQ(vs.tupleSpace().ruleCount(), 0u);
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

/** Linear-scan reference: the highest priority among @p rules that
 *  match @p flow (nullptr when none does), and how many matching rules
 *  share that priority. */
std::pair<const FlowRule *, unsigned>
referenceBest(const RuleSet &rules, const FiveTuple &flow)
{
    const auto key = flow.toKey();
    const FlowRule *best = nullptr;
    unsigned ties = 0;
    for (const FlowRule &r : rules) {
        if (!r.matches(key))
            continue;
        if (!best || r.priority > best->priority) {
            best = &r;
            ties = 1;
        } else if (r.priority == best->priority) {
            ++ties;
        }
    }
    return {best, ties};
}

TEST(OpenflowLayer, SizedTablesKeepTheReferenceBestMatch)
{
    OfRig rig;
    auto vs = rig.makeSwitch(LookupMode::Software);
    // Every flow's OpenFlow best match, and the action its upcall
    // installs, against a linear scan of the rules.
    unsigned compared = 0;
    for (const FiveTuple &flow : rig.gen.flows()) {
        const auto [best, ties] = referenceBest(rig.openflowRules, flow);
        const auto got = vs.openflowLayer().lookupBest(flow.toKey());
        ASSERT_EQ(got.has_value(), best != nullptr);
        if (!best)
            continue;
        EXPECT_EQ(got->priority, best->priority);
        if (ties == 1) {
            EXPECT_EQ(Action::decode(got->value), best->action);
            const PacketResult r = vs.classifyTuple(flow);
            ASSERT_TRUE(r.matched);
            EXPECT_EQ(r.action, best->action);
            ++compared;
        }
    }
    EXPECT_GT(compared, 100u);
}

/** A rule matching @p flow under @p mask. */
FlowRule
ruleFor(const FiveTuple &flow, const FlowMask &mask, std::uint16_t priority,
        std::uint16_t port)
{
    FlowRule r;
    r.mask = mask;
    r.maskedKey = mask.apply(flow.toKey());
    r.priority = priority;
    r.action = Action{ActionKind::Forward, port};
    return r;
}

TEST(OpenflowLayer, TablesAreSizedToTheirRules)
{
    // One rule per mask over 16 masks plus a match-all fallback: the
    // runtime's churn workload. At tupleCapacity (65,536 entries per
    // mask) these 17 tables took ~52 MB of simulated memory.
    TrafficGenerator gen(TrafficConfig{64, 0.0, 0.5, 0x5eed});
    RuleSet rules;
    const std::vector<FlowMask> masks = canonicalMasks(16);
    for (unsigned i = 0; i < masks.size(); ++i)
        rules.push_back(ruleFor(gen.flows()[i], masks[i],
                                static_cast<std::uint16_t>(10 + i),
                                static_cast<std::uint16_t>(2 + i)));
    rules.push_back(ruleFor(gen.flows()[0], FlowMask{}, 1, 1));

    SimMemory mem(1ull << 30);
    VSwitchConfig cfg;
    cfg.useOpenflowLayer = true;
    VirtualSwitch vs(mem, cfg);
    const std::uint64_t before = mem.allocated();
    vs.installOpenflowRules(rules);
    EXPECT_LT(mem.allocated() - before, 1ull << 20);
    ASSERT_EQ(vs.openflowLayer().numTuples(), 17u);
    for (unsigned i = 0; i < 17; ++i)
        EXPECT_EQ(vs.openflowLayer().table(i).capacity(), 64u);

    for (const FiveTuple &flow : gen.flows()) {
        const PacketResult r = vs.classifyTuple(flow);
        ASSERT_TRUE(r.matched);
        EXPECT_EQ(r.action, referenceBest(rules, flow).first->action);
    }
}

TEST(OpenflowLayer, LargeSingleMaskSetInstallsAndMatches)
{
    TrafficGenerator gen(TrafficConfig{5000, 0.0, 0.5, 0xb16});
    RuleSet rules;
    for (std::size_t i = 0; i < gen.flows().size(); ++i)
        rules.push_back(ruleFor(gen.flows()[i], FlowMask::exact(), 5,
                                static_cast<std::uint16_t>(i)));

    SimMemory mem(1ull << 30);
    VSwitchConfig cfg;
    cfg.useEmc = false;
    cfg.useOpenflowLayer = true;
    VirtualSwitch vs(mem, cfg);
    vs.installOpenflowRules(rules);
    ASSERT_EQ(vs.openflowLayer().numTuples(), 1u);
    EXPECT_EQ(vs.openflowLayer().ruleCount(), rules.size());
    EXPECT_EQ(vs.openflowLayer().table(0).capacity(), 16384u);
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const PacketResult r = vs.classifyTuple(gen.flows()[i]);
        ASSERT_TRUE(r.matched) << "rule " << i;
        EXPECT_EQ(r.action, rules[i].action) << "rule " << i;
    }
    EXPECT_EQ(vs.upcalls(), rules.size());
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

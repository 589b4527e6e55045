/**
 * @file
 * Unit tests for the EMC, tuple space, and rule-set synthesis.
 */

#include <gtest/gtest.h>

#include "flow/emc.hh"
#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "net/traffic_gen.hh"

namespace halo {
namespace {

std::array<std::uint8_t, FiveTuple::keyBytes>
keyOf(std::uint32_t src, std::uint32_t dst, std::uint16_t sp,
      std::uint16_t dp)
{
    FiveTuple t;
    t.srcIp = src;
    t.dstIp = dst;
    t.srcPort = sp;
    t.dstPort = dp;
    return t.toKey();
}

TEST(Emc, InsertLookupRoundTrip)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 1024);
    const auto key = keyOf(1, 2, 3, 4);
    EXPECT_FALSE(emc.lookup(key).has_value());
    emc.insert(key, 42);
    ASSERT_TRUE(emc.lookup(key).has_value());
    EXPECT_EQ(*emc.lookup(key), 42u);
}

TEST(Emc, ReplacementKeepsWorking)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 64); // tiny EMC: plenty of conflicts
    for (std::uint32_t i = 0; i < 1000; ++i)
        emc.insert(keyOf(i, i + 1, 1, 2), i);
    // Recently inserted keys are mostly still present.
    unsigned hits = 0;
    for (std::uint32_t i = 990; i < 1000; ++i)
        hits += emc.lookup(keyOf(i, i + 1, 1, 2)).has_value() ? 1 : 0;
    EXPECT_GE(hits, 3u);
}

TEST(Emc, ClearInvalidatesEverything)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 256);
    for (std::uint32_t i = 0; i < 200; ++i)
        emc.insert(keyOf(i, 6, 7, 8), i);
    const std::uint64_t clearsBefore = emc.clearCount();
    emc.clear();
    EXPECT_EQ(emc.clearCount(), clearsBefore + 1);
    // One generation bump starts the whole cache cold.
    for (std::uint32_t i = 0; i < 200; ++i)
        EXPECT_FALSE(emc.lookup(keyOf(i, 6, 7, 8)).has_value()) << i;
    // Reinsertable after clear.
    emc.insert(keyOf(5, 6, 7, 8), 2);
    EXPECT_EQ(*emc.lookup(keyOf(5, 6, 7, 8)), 2u);
}

TEST(Emc, UpdateInPlace)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 256);
    emc.insert(keyOf(9, 9, 9, 9), 1);
    emc.insert(keyOf(9, 9, 9, 9), 7);
    EXPECT_EQ(*emc.lookup(keyOf(9, 9, 9, 9)), 7u);
}

TEST(TupleSpace, RulesGroupByMask)
{
    SimMemory mem(64 << 20);
    TupleSpace ts(mem);
    FlowRule r1, r2, r3;
    r1.mask = FlowMask::exact();
    r2.mask = FlowMask::exact();
    r3.mask = FlowMask::fields(24, 24, false, false, false);
    FiveTuple t1, t2;
    t1.srcIp = 1;
    t2.srcIp = 2;
    r1.maskedKey = r1.mask.apply(t1.toKey());
    r2.maskedKey = r2.mask.apply(t2.toKey());
    r3.maskedKey = r3.mask.apply(t1.toKey());
    EXPECT_TRUE(ts.addRule(r1));
    EXPECT_TRUE(ts.addRule(r2));
    EXPECT_TRUE(ts.addRule(r3));
    EXPECT_EQ(ts.numTuples(), 2u);
    EXPECT_EQ(ts.ruleCount(), 3u);
}

TEST(TupleSpace, FirstMatchStopsEarly)
{
    SimMemory mem(64 << 20);
    TupleSpace ts(mem);
    FiveTuple t;
    t.srcIp = 0x0a0b0c0d;
    t.dstIp = 0x0a0b0c0e;

    FlowRule exact;
    exact.mask = FlowMask::exact();
    exact.maskedKey = exact.mask.apply(t.toKey());
    exact.priority = 10;
    exact.action = {ActionKind::Forward, 1};

    FlowRule broad;
    broad.mask = FlowMask::fields(8, 0, false, false, false);
    broad.maskedKey = broad.mask.apply(t.toKey());
    broad.priority = 5;
    broad.action = {ActionKind::Forward, 2};

    ts.addRule(exact);
    ts.addRule(broad);

    const auto key = t.toKey();
    const auto match = ts.lookupFirst(key);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->tupleIndex, 0u);
    EXPECT_EQ(match->tuplesSearched, 1u);
    EXPECT_EQ(Action::decode(match->value).port, 1);
}

TEST(TupleSpace, BestMatchHonorsPriority)
{
    SimMemory mem(64 << 20);
    TupleSpace ts(mem);
    FiveTuple t;
    t.srcIp = 0x0a0b0c0d;

    FlowRule low, high;
    low.mask = FlowMask::exact();
    low.maskedKey = low.mask.apply(t.toKey());
    low.priority = 1;
    low.action = {ActionKind::Forward, 1};
    high.mask = FlowMask::fields(8, 0, false, false, false);
    high.maskedKey = high.mask.apply(t.toKey());
    high.priority = 99;
    high.action = {ActionKind::Drop, 2};
    ts.addRule(low);
    ts.addRule(high);

    const auto match = ts.lookupBest(t.toKey());
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->priority, 99);
    EXPECT_EQ(Action::decode(match->value).kind, ActionKind::Drop);
    EXPECT_EQ(match->tuplesSearched, ts.numTuples());
}

TEST(TupleSpace, MissReturnsNothing)
{
    SimMemory mem(64 << 20);
    TupleSpace ts(mem);
    FiveTuple t;
    t.srcIp = 42;
    FlowRule r;
    r.mask = FlowMask::exact();
    r.maskedKey = r.mask.apply(t.toKey());
    ts.addRule(r);
    FiveTuple other;
    other.srcIp = 43;
    EXPECT_FALSE(ts.lookupFirst(other.toKey()).has_value());
}

TEST(Action, EncodeDecodeRoundTrip)
{
    for (const ActionKind kind :
         {ActionKind::Forward, ActionKind::Drop, ActionKind::Nat,
          ActionKind::Mirror}) {
        Action a;
        a.kind = kind;
        a.port = 777;
        const Action b = Action::decode(a.encode());
        EXPECT_EQ(b, a);
        EXPECT_NE(a.encode(), 0u);
        EXPECT_NE(a.encode(), ~0ull);
    }
}

TEST(Action, PriorityPackingPreservesAction)
{
    Action a{ActionKind::Nat, 300};
    const std::uint64_t v = encodeRuleValue(a, 1234);
    EXPECT_EQ(decodeRulePriority(v), 1234);
    EXPECT_EQ(Action::decode(v), a);
}

TEST(RuleSet, CanonicalMasksDistinct)
{
    const auto masks = canonicalMasks(20);
    EXPECT_EQ(masks.size(), 20u);
    for (std::size_t i = 0; i < masks.size(); ++i)
        for (std::size_t j = i + 1; j < masks.size(); ++j)
            EXPECT_FALSE(masks[i] == masks[j]);
    EXPECT_THROW(canonicalMasks(21), PanicError);
    EXPECT_THROW(canonicalMasks(0), PanicError);
}

TEST(RuleSet, EveryFlowMatchesSomeRule)
{
    TrafficConfig cfg;
    cfg.numFlows = 2000;
    TrafficGenerator gen(cfg);
    const RuleSet rules =
        deriveRules(gen.flows(), canonicalMasks(5), 0, 42);
    ASSERT_FALSE(rules.empty());

    SimMemory mem(256 << 20);
    TupleSpace ts(mem);
    for (const FlowRule &r : rules)
        ASSERT_TRUE(ts.addRule(r));
    for (const FiveTuple &flow : gen.flows()) {
        ASSERT_TRUE(ts.lookupFirst(flow.toKey()).has_value())
            << "unmatched flow";
    }
}

TEST(RuleSet, BroadMasksCollapseToHotRules)
{
    TrafficConfig cfg;
    cfg.numFlows = 50000;
    TrafficGenerator gen(cfg);
    const RuleSet rules = scenarioRules(
        TrafficScenario::ManyFlowsHotRules, gen.flows(), 7);
    // The gateway scenario: tens of rules for tens of thousands of
    // flows (paper: "20 hot rules").
    EXPECT_GE(rules.size(), 4u);
    EXPECT_LE(rules.size(), 200u);
}

TEST(RuleSet, DedupesIdenticalMaskedKeys)
{
    TrafficConfig cfg;
    cfg.numFlows = 1000;
    TrafficGenerator gen(cfg);
    const auto masks = canonicalMasks(3);
    const RuleSet rules = deriveRules(gen.flows(), masks, 0, 1);
    // No two rules share (mask, maskedKey).
    for (std::size_t i = 0; i < rules.size(); ++i) {
        for (std::size_t j = i + 1; j < rules.size(); ++j) {
            if (rules[i].mask == rules[j].mask) {
                EXPECT_FALSE(rules[i].maskedKey == rules[j].maskedKey);
            }
        }
    }
}

TEST(RuleSet, MaxRulesIsRespected)
{
    TrafficConfig cfg;
    cfg.numFlows = 1000;
    TrafficGenerator gen(cfg);
    const RuleSet rules =
        deriveRules(gen.flows(), canonicalMasks(4), 50, 3);
    EXPECT_LE(rules.size(), 50u);
}

} // namespace
} // namespace halo

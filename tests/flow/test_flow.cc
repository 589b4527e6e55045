/**
 * @file
 * Unit tests for the EMC, tuple space, and rule-set synthesis.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "flow/emc.hh"
#include "hash/hash_fn.hh"
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

TEST(Emc, UpdateInPlace)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 256);
    emc.insert(keyOf(9, 9, 9, 9), 1);
    emc.insert(keyOf(9, 9, 9, 9), 7);
    EXPECT_EQ(*emc.lookup(keyOf(9, 9, 9, 9)), 7u);
}

std::array<std::uint8_t, FiveTuple::keyBytes>
keyForId(std::uint64_t id)
{
    std::array<std::uint8_t, FiveTuple::keyBytes> key{};
    std::memcpy(key.data(), &id, sizeof(id));
    const std::uint64_t mixed = id * 0x9e3779b97f4a7c15ull;
    std::memcpy(key.data() + 8, &mixed, sizeof(mixed));
    return key;
}

/** The EMC's candidate slots, recomputed from its published hash
 *  parameters (XxMix over the key with the constructor seed). */
std::array<std::uint64_t, 2>
emcCandidates(std::uint64_t seed, std::uint64_t entries,
              std::span<const std::uint8_t> key)
{
    const std::uint64_t h = hashBytes(HashKind::XxMix, seed, key);
    return {h & (entries - 1), (h >> 32) & (entries - 1)};
}

/**
 * On a two-way conflict, with both candidates live, the insert
 * overwrites the first candidate, whichever entry sits there.
 */
TEST(Emc, ConflictOverwritesTheFirstCandidate)
{
    constexpr std::uint64_t entries = 4;
    constexpr std::uint64_t seed = 0x9d1c;

    // Find a conflict triple: kC with two distinct candidate slots,
    // and kA/kB whose *primary* slots are exactly those two (so each
    // fills its own slot in an empty cache).
    std::uint64_t idA = 0, idB = 0, idC = 0;
    std::array<std::uint64_t, 2> cand{};
    for (std::uint64_t id = 1; !idC; ++id) {
        const auto c = emcCandidates(seed, entries, keyForId(id));
        if (c[0] != c[1]) {
            idC = id;
            cand = c;
        }
    }
    for (std::uint64_t id = idC + 1; !idA || !idB; ++id) {
        const auto c = emcCandidates(seed, entries, keyForId(id));
        if (!idA && c[0] == cand[0])
            idA = id;
        else if (!idB && c[0] == cand[1])
            idB = id;
    }

    SimMemory mem(1ull << 20);
    ExactMatchCache emc(mem, entries, seed);
    const auto keyA = keyForId(idA);
    const auto keyB = keyForId(idB);
    const auto keyC = keyForId(idC);
    ASSERT_EQ(emc.insert(keyA, 0xa), cand[0]);
    ASSERT_EQ(emc.insert(keyB, 0xb), cand[1]);
    ASSERT_EQ(emc.evictOverwrites(), 0u);

    EXPECT_EQ(emc.insert(keyC, 0xc), cand[0]);
    EXPECT_EQ(emc.evictOverwrites(), 1u);
    EXPECT_TRUE(emc.lookup(keyC).has_value());
    EXPECT_FALSE(emc.lookup(keyA).has_value());
    EXPECT_TRUE(emc.lookup(keyB).has_value());
}

/**
 * Determinism: the same insert stream leaves two caches with
 * byte-identical slabs and identical counters — with and without
 * access tracing, so the traced twin really is the same algorithm plus
 * a recorder.
 */
TEST(Emc, SameStreamSameSlabTracedOrNot)
{
    constexpr std::uint64_t entries = 256;
    constexpr std::uint64_t seed = 0x5eed;

    SimMemory memA(4ull << 20), memB(4ull << 20);
    ExactMatchCache a(memA, entries, seed), b(memB, entries, seed);
    ASSERT_EQ(a.footprintBytes(), b.footprintBytes());

    AccessTrace trace;
    std::uint64_t x = 0x1234567ull;
    for (int op = 0; op < 20000; ++op) {
        x ^= x << 13; // xorshift: deterministic key stream
        x ^= x >> 7;
        x ^= x << 17;
        const auto key = keyForId(x % 1024); // 4x capacity: conflicts
        trace.clear();
        const std::uint64_t slotA = a.insert(key, x, &trace);
        const std::uint64_t slotB = b.insert(key, x, nullptr);
        EXPECT_EQ(slotA, slotB);
        EXPECT_FALSE(trace.empty());
    }

    EXPECT_GT(a.evictOverwrites(), 0u) << "stream never conflicted";
    EXPECT_EQ(a.evictOverwrites(), b.evictOverwrites());
    EXPECT_EQ(a.lookupHits(), 0u); // inserts never count lookups

    std::vector<std::uint8_t> slab(a.footprintBytes());
    memA.read(a.baseAddr(), slab.data(), slab.size());
    EXPECT_TRUE(memB.equals(b.baseAddr(), slab.data(), slab.size()));
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

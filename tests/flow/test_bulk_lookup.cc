/**
 * @file
 * Equivalence tests for the bulk EMC probe and the bulk tuple-space
 * walk against their scalar counterparts, including the recorded
 * reference streams the burst classifier replays for pricing.
 */

#include <gtest/gtest.h>

#include "flow/emc.hh"
#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "net/traffic_gen.hh"

namespace halo {
namespace {

void
expectSameRef(const MemRef &bulk, const MemRef &scalar, std::size_t lane,
              std::size_t k)
{
    EXPECT_EQ(bulk.addr, scalar.addr) << "lane " << lane << " ref " << k;
    EXPECT_EQ(bulk.size, scalar.size)
        << "lane " << lane << " ref " << k;
    EXPECT_EQ(bulk.phase, scalar.phase)
        << "lane " << lane << " ref " << k;
    EXPECT_EQ(bulk.write, scalar.write)
        << "lane " << lane << " ref " << k;
    EXPECT_EQ(bulk.dependsOnPrevious, scalar.dependsOnPrevious)
        << "lane " << lane << " ref " << k;
    EXPECT_EQ(bulk.lowEntropyBranch, scalar.lowEntropyBranch)
        << "lane " << lane << " ref " << k;
}

void
expectSameTrace(const AccessTrace &bulk, const AccessTrace &scalar,
                std::size_t lane)
{
    ASSERT_EQ(bulk.size(), scalar.size()) << "lane " << lane;
    for (std::size_t k = 0; k < bulk.size(); ++k)
        expectSameRef(bulk[k], scalar[k], lane, k);
}

TEST(EmcBulk, MatchesScalarLookupIncludingTraces)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 1024);
    TrafficGenerator gen(TrafficConfig{300, 0.0, 0.5, 0xbead});
    for (std::size_t i = 0; i < 150; ++i)
        emc.insert(gen.flows()[i].toKey(), i + 1);

    // Hit / miss mix over a full batch.
    std::vector<std::array<std::uint8_t, FiveTuple::keyBytes>> keys;
    for (std::size_t i = 0; i < maxBulkLanes; ++i)
        keys.push_back(gen.flows()[(i * 11) % 300].toKey());

    std::array<const std::uint8_t *, maxBulkLanes> key_ptrs;
    std::array<AccessTrace, maxBulkLanes> traces;
    std::array<AccessTrace *, maxBulkLanes> trace_ptrs;
    std::array<std::uint64_t, maxBulkLanes> values{};
    std::array<std::uint64_t[2], maxBulkLanes> slots;
    for (std::size_t i = 0; i < maxBulkLanes; ++i) {
        key_ptrs[i] = keys[i].data();
        trace_ptrs[i] = &traces[i];
    }

    const std::uint32_t mask =
        emc.lookupBulk(key_ptrs.data(), maxBulkLanes, values.data(),
                       slots.data(), trace_ptrs.data());

    for (std::size_t i = 0; i < maxBulkLanes; ++i) {
        AccessTrace scalar_trace;
        const auto scalar = emc.lookup(keys[i], &scalar_trace);
        EXPECT_EQ((mask >> i) & 1u, scalar.has_value() ? 1u : 0u)
            << "lane " << i;
        if (scalar) {
            EXPECT_EQ(values[i], *scalar) << "lane " << i;
        }
        expectSameTrace(traces[i], scalar_trace, i);
        // A lane's two candidate slots must be distinct and inside the
        // table (the burst path uses them for conflict detection).
        EXPECT_NE(slots[i][0], slots[i][1]) << "lane " << i;
        EXPECT_LT(slots[i][0], emc.entryCount()) << "lane " << i;
        EXPECT_LT(slots[i][1], emc.entryCount()) << "lane " << i;
    }
}

TEST(EmcBulk, ReportsSlotsInsertWillUse)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 256);
    FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.srcPort = 80;
    t.dstPort = 8080;
    const auto key = t.toKey();

    const std::uint8_t *key_ptr = key.data();
    std::uint64_t value = 0;
    std::uint64_t slots[1][2];
    emc.lookupBulk(&key_ptr, 1, &value, slots);
    // insert() must land in one of the candidate slots the bulk probe
    // reported — that containment is what the conflict log relies on.
    const std::uint64_t written = emc.insert(key, 7);
    EXPECT_TRUE(written == slots[0][0] || written == slots[0][1]);
}

struct WalkRig
{
    SimMemory mem{64 << 20};
    TrafficGenerator gen{TrafficConfig{400, 0.0, 0.5, 0xfeed}};
    RuleSet rules;
    TupleSpace ts;

    WalkRig()
        : rules(deriveRules(gen.flows(), canonicalMasks(6), 0, 0x31)),
          ts(mem, {4096, HashKind::XxMix, 0x7a57e})
    {
        for (const FlowRule &r : rules)
            EXPECT_TRUE(ts.addRule(r));
    }
};

TEST(TupleSpaceBulk, MatchesScalarFirstMatchWalk)
{
    WalkRig rig;

    std::vector<std::array<std::uint8_t, FiveTuple::keyBytes>> keys;
    for (std::size_t i = 0; i < maxBulkLanes; ++i) {
        if (i % 4 == 2) {
            FiveTuple alien;
            alien.srcIp = 0xdead0000 + static_cast<std::uint32_t>(i);
            alien.dstIp = 0xbeef0000 + static_cast<std::uint32_t>(i);
            keys.push_back(alien.toKey());
        } else {
            keys.push_back(rig.gen.flows()[(i * 29) % 400].toKey());
        }
    }

    std::array<const std::uint8_t *, maxBulkLanes> key_ptrs;
    std::array<TupleSpace::BulkWalkLane, maxBulkLanes> lanes;
    std::array<TupleSpace::BulkWalkLane *, maxBulkLanes> lane_ptrs;
    for (std::size_t i = 0; i < maxBulkLanes; ++i) {
        key_ptrs[i] = keys[i].data();
        lanes[i].reset();
        lane_ptrs[i] = &lanes[i];
    }

    const std::uint32_t mask = rig.ts.lookupFirstBulk(
        key_ptrs.data(), maxBulkLanes, lane_ptrs.data());

    for (std::size_t i = 0; i < maxBulkLanes; ++i) {
        AccessTrace scalar_trace;
        const auto scalar = rig.ts.lookupFirst(keys[i], &scalar_trace);
        EXPECT_EQ((mask >> i) & 1u, scalar.has_value() ? 1u : 0u)
            << "lane " << i;
        EXPECT_EQ(lanes[i].found, scalar.has_value()) << "lane " << i;
        if (scalar) {
            EXPECT_EQ(lanes[i].match.value, scalar->value)
                << "lane " << i;
            EXPECT_EQ(lanes[i].match.priority, scalar->priority)
                << "lane " << i;
            EXPECT_EQ(lanes[i].match.tupleIndex, scalar->tupleIndex)
                << "lane " << i;
            EXPECT_EQ(lanes[i].match.tuplesSearched,
                      scalar->tuplesSearched)
                << "lane " << i;
        } else {
            // A miss walks every tuple.
            EXPECT_EQ(lanes[i].searched, rig.ts.numTuples())
                << "lane " << i;
        }
        expectSameTrace(lanes[i].trace, scalar_trace, i);
        // probeEnds segments the concatenated trace: one entry per
        // probed tuple, last entry the full trace length.
        ASSERT_EQ(lanes[i].probeEnds.size(), lanes[i].searched)
            << "lane " << i;
        if (!lanes[i].probeEnds.empty()) {
            EXPECT_EQ(lanes[i].probeEnds.back(), lanes[i].trace.size())
                << "lane " << i;
            for (std::size_t k = 1; k < lanes[i].probeEnds.size(); ++k)
                EXPECT_LT(lanes[i].probeEnds[k - 1],
                          lanes[i].probeEnds[k])
                    << "lane " << i;
        }
    }
}

TEST(TupleSpaceBulk, LaneReuseAfterReset)
{
    WalkRig rig;
    const auto key = rig.gen.flows()[3].toKey();
    const std::uint8_t *key_ptr = key.data();
    TupleSpace::BulkWalkLane lane;
    TupleSpace::BulkWalkLane *lane_ptr = &lane;

    rig.ts.lookupFirstBulk(&key_ptr, 1, &lane_ptr);
    const auto first_trace = lane.trace;
    const unsigned first_searched = lane.searched;

    lane.reset();
    rig.ts.lookupFirstBulk(&key_ptr, 1, &lane_ptr);
    EXPECT_EQ(lane.searched, first_searched);
    expectSameTrace(lane.trace, first_trace, 0);
}

} // namespace
} // namespace halo

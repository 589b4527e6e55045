/**
 * @file
 * Equivalence tests for the untraced bulk EMC probe and the bulk
 * tuple-space walk against their scalar counterparts; the walk also in
 * concurrent (seqlocked) mode.
 */

#include <gtest/gtest.h>

#include <bit>

#include "flow/emc.hh"
#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "net/traffic_gen.hh"

namespace halo {
namespace {

/** lookupBulk against lookup over a hit/miss mix. */
TEST(EmcBulk, MatchesScalarLookup)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 1024);
    TrafficGenerator gen(TrafficConfig{300, 0.0, 0.5, 0xbead});
    for (std::size_t i = 0; i < 150; ++i)
        emc.insert(gen.flows()[i].toKey(), i + 1);
    const std::uint64_t hits0 = emc.lookupHits();
    const std::uint64_t misses0 = emc.lookupMisses();

    // Hit / miss mix over a full batch.
    std::vector<std::array<std::uint8_t, FiveTuple::keyBytes>> keys;
    for (std::size_t i = 0; i < maxBulkLanes; ++i)
        keys.push_back(gen.flows()[(i * 11) % 300].toKey());

    std::array<const std::uint8_t *, maxBulkLanes> key_ptrs;
    std::array<std::uint64_t, maxBulkLanes> values{};
    std::array<std::uint64_t[2], maxBulkLanes> slots;
    for (std::size_t i = 0; i < maxBulkLanes; ++i)
        key_ptrs[i] = keys[i].data();

    const std::uint32_t mask = emc.lookupBulk(
        key_ptrs.data(), maxBulkLanes, values.data(), slots.data());
    // One hit or miss counted per lane.
    EXPECT_EQ(emc.lookupHits() - hits0,
              static_cast<std::uint64_t>(std::popcount(mask)));
    EXPECT_EQ(emc.lookupHits() - hits0 + emc.lookupMisses() - misses0,
              maxBulkLanes);
    EXPECT_NE(mask, 0u);
    EXPECT_NE(mask, ~0u);

    for (std::size_t i = 0; i < maxBulkLanes; ++i) {
        const auto scalar = emc.lookup(keys[i]);
        EXPECT_EQ((mask >> i) & 1u, scalar.has_value() ? 1u : 0u)
            << "lane " << i;
        if (scalar) {
            EXPECT_EQ(values[i], *scalar) << "lane " << i;
        }
        // A lane's two candidate slots must be distinct and inside the
        // table.
        EXPECT_NE(slots[i][0], slots[i][1]) << "lane " << i;
        EXPECT_LT(slots[i][0], emc.entryCount()) << "lane " << i;
        EXPECT_LT(slots[i][1], emc.entryCount()) << "lane " << i;
    }
}

TEST(EmcBulk, ReportsSlotsInsertWillUse)
{
    SimMemory mem(8 << 20);
    ExactMatchCache emc(mem, 256);
    for (std::uint16_t port = 1; port <= 64; ++port) {
        FiveTuple t;
        t.srcIp = 0x0a000001;
        t.dstIp = 0x0a000002;
        t.srcPort = port;
        t.dstPort = 8080;
        const auto key = t.toKey();

        const std::uint8_t *key_ptr = key.data();
        std::uint64_t value = 0;
        std::uint64_t slots[1][2];
        emc.lookupBulk(&key_ptr, 1, &value, slots);
        // insert() must land in one of the candidate slots the bulk
        // probe reported.
        const std::uint64_t written = emc.insert(key, port);
        EXPECT_TRUE(written == slots[0][0] || written == slots[0][1])
            << "port " << port;
    }
}

struct WalkRig
{
    SimMemory mem{64 << 20};
    TrafficGenerator gen{TrafficConfig{400, 0.0, 0.5, 0xfeed}};
    RuleSet rules;
    TupleSpace ts;

    explicit WalkRig(bool concurrent = false, bool filter = false)
        : rules(deriveRules(gen.flows(), canonicalMasks(6), 0, 0x31)),
          ts(mem, {4096, HashKind::XxMix, 0x7a57e, filter})
    {
        for (const FlowRule &r : rules)
            EXPECT_TRUE(ts.addRule(r));
        for (unsigned t = 0; concurrent && t < ts.numTuples(); ++t)
            ts.table(t).enableConcurrent();
    }
};

/** lookupFirstBulk against lookupFirst; concurrent mode runs every
 *  tuple's bulk probe through the seqlocked path. */
void
expectWalkMatchesScalar(bool concurrent, bool filter)
{
    WalkRig rig(concurrent, filter);

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
        const auto scalar = rig.ts.lookupFirst(keys[i]);
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
    }
}

TEST(TupleSpaceBulk, MatchesScalarFirstMatchWalk)
{
    expectWalkMatchesScalar(false, false);
    expectWalkMatchesScalar(false, true);
}

TEST(TupleSpaceBulk, ConcurrentModeMatchesScalarFirstMatchWalk)
{
    expectWalkMatchesScalar(true, false);
    expectWalkMatchesScalar(true, true);
}

TEST(TupleSpaceBulk, LaneReuseAfterReset)
{
    WalkRig rig;
    const auto key = rig.gen.flows()[3].toKey();
    const std::uint8_t *key_ptr = key.data();
    TupleSpace::BulkWalkLane lane;
    TupleSpace::BulkWalkLane *lane_ptr = &lane;

    rig.ts.lookupFirstBulk(&key_ptr, 1, &lane_ptr);
    const unsigned first_searched = lane.searched;
    const TupleMatch first_match = lane.match;
    ASSERT_TRUE(lane.found);

    lane.reset();
    rig.ts.lookupFirstBulk(&key_ptr, 1, &lane_ptr);
    EXPECT_EQ(lane.searched, first_searched);
    EXPECT_TRUE(lane.found);
    EXPECT_EQ(lane.match.value, first_match.value);
    EXPECT_EQ(lane.match.tupleIndex, first_match.tupleIndex);
}

} // namespace
} // namespace halo

/**
 * @file
 * Tests for the DPDK-style burst LOOKUP_NB classification path.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/halo_system.hh"
#include "cpu/trace_builder.hh"
#include "flow/ruleset.hh"
#include "vswitch/vswitch.hh"

namespace halo {
namespace {

struct BurstRig
{
    SimMemory mem{1ull << 30};
    MemoryHierarchy hier;
    HaloSystem halo{mem, hier};
    CoreModel core{hier, 0};
    TrafficGenerator gen{TrafficConfig{3000, 0.0, 0.5, 0xbbb}};
    RuleSet rules;

    BurstRig()
        : rules(deriveRules(gen.flows(), canonicalMasks(6), 0, 0x21))
    {
    }

    VirtualSwitch
    makeSwitch()
    {
        VSwitchConfig cfg;
        cfg.mode = LookupMode::HaloNonBlocking;
        cfg.useEmc = false;
        cfg.tupleConfig.tupleCapacity =
            nextPowerOfTwo(maxRulesPerMask(rules) + 64);
        VirtualSwitch vs(mem, hier, core, &halo, cfg);
        vs.installRules(rules);
        vs.warmTables();
        return vs;
    }
};

TEST(BurstNb, MatchesPerPacketClassification)
{
    BurstRig rig;
    auto vs = rig.makeSwitch();
    auto reference = rig.makeSwitch();

    std::vector<FiveTuple> batch;
    for (int i = 0; i < 16; ++i)
        batch.push_back(rig.gen.flows()[i * 7]);

    const auto burst = vs.classifyBurstNB(batch);
    ASSERT_EQ(burst.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const PacketResult single = reference.classifyTuple(batch[i]);
        ASSERT_EQ(burst[i].matched, single.matched) << "packet " << i;
        if (single.matched) {
            EXPECT_EQ(burst[i].action, single.action) << "packet " << i;
        }
    }
}

TEST(BurstNb, AmortizesCyclesAcrossPackets)
{
    BurstRig rig;
    auto vs = rig.makeSwitch();

    // Per-packet NB first.
    Cycles begin = vs.now();
    for (int i = 0; i < 64; ++i)
        vs.classifyTuple(rig.gen.flows()[i]);
    const double single_cpp =
        static_cast<double>(vs.now() - begin) / 64.0;

    // Then 16-packet bursts of the same flows.
    std::vector<FiveTuple> batch(16);
    begin = vs.now();
    for (int i = 0; i < 64; i += 16) {
        for (int b = 0; b < 16; ++b)
            batch[b] = rig.gen.flows()[i + b];
        vs.classifyBurstNB(batch);
    }
    const double burst_cpp =
        static_cast<double>(vs.now() - begin) / 64.0;
    EXPECT_LT(burst_cpp, single_cpp);
}

TEST(BurstNb, PerPacketInstructionsSumToTheBurstTotal)
{
    BurstRig rig;
    auto vs = rig.makeSwitch();
    const unsigned n = vs.tupleSpace().numTuples();
    // A burst issues one key computation and one LOOKUP_NB per packet
    // and tuple, then one SNAPSHOT_READ check per result line in each
    // poll round.
    const TraceBuilder builder;
    OpTrace scratch;
    const std::uint64_t per_query =
        builder.lowerCompute(4, 3, 1, scratch) +
        builder.lowerLookupNB(0, 0, 0, scratch);
    const std::uint64_t per_line = builder.lowerSnapshotCheck(0, scratch);
    std::size_t next = 0;
    for (const std::size_t size : {1, 3, 5, 7, 13}) {
        std::vector<FiveTuple> batch;
        for (std::size_t i = 0; i < size; ++i)
            batch.push_back(rig.gen.flows()[next++]);
        const auto burst = vs.classifyBurstNB(batch);
        std::uint64_t sum = 0;
        std::uint64_t lo = ~0ull;
        std::uint64_t hi = 0;
        for (const PacketResult &r : burst) {
            sum += r.instructions;
            lo = std::min(lo, r.instructions);
            hi = std::max(hi, r.instructions);
        }
        const std::uint64_t issued = size * n * per_query;
        const std::uint64_t lines = ceilDiv(size * n, 8);
        ASSERT_GT(sum, issued) << size << " packets: polls are charged";
        EXPECT_EQ((sum - issued) % (lines * per_line), 0u)
            << size << " packets: whole poll rounds, no remainder lost";
        EXPECT_LE(hi - lo, 1u) << size << " packets: an even share";
    }
}

TEST(BurstNb, EmptyAndOversizedBatches)
{
    BurstRig rig;
    auto vs = rig.makeSwitch();
    auto reference = rig.makeSwitch();
    EXPECT_TRUE(vs.classifyBurstNB({}).empty());
    // A batch exceeding the key-staging ring is split into chunks that
    // fit, never silently corrupting in-flight keys.
    const std::size_t huge_n = 1024 / vs.tupleSpace().numTuples() + 3;
    std::vector<FiveTuple> huge(huge_n);
    for (std::size_t i = 0; i < huge_n; ++i)
        huge[i] = rig.gen.flows()[i];
    const auto burst = vs.classifyBurstNB(huge);
    ASSERT_EQ(burst.size(), huge_n);
    for (std::size_t i = 0; i < huge_n; ++i) {
        const PacketResult single = reference.classifyTuple(huge[i]);
        EXPECT_EQ(burst[i].matched, single.matched) << "packet " << i;
    }
}

TEST(BurstNb, MissesReportUnmatched)
{
    BurstRig rig;
    auto vs = rig.makeSwitch();
    std::vector<FiveTuple> aliens(8);
    for (int i = 0; i < 8; ++i) {
        aliens[i].srcIp = 0xc5000000 + static_cast<std::uint32_t>(i);
        aliens[i].dstIp = 0xc6000000 + static_cast<std::uint32_t>(i);
    }
    for (const PacketResult &r : vs.classifyBurstNB(aliens))
        EXPECT_FALSE(r.matched);
}

} // namespace
} // namespace halo

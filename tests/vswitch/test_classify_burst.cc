/**
 * @file
 * Burst entry points of the virtual switch: processBurst must produce
 * byte-identical PacketResults — cycles included — to calling
 * processPacket per packet, in every LookupMode, and classifyBurst in
 * HaloNonBlocking mode must match the LOOKUP_NB burst engine.
 *
 * Twin-rig structure: the burst switch and the scalar reference each
 * own a complete simulated machine built with identical seeds, so any
 * divergence is the burst entry point's fault, never shared-state
 * interference.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/halo_system.hh"
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
    TrafficGenerator gen{TrafficConfig{600, 0.0, 0.5, 0x5eed}};
    RuleSet rules;
    std::unique_ptr<VirtualSwitch> vs;

    explicit BurstRig(LookupMode mode, bool use_emc = true)
        : rules(deriveRules(gen.flows(), canonicalMasks(6), 0, 0x21))
    {
        VSwitchConfig cfg;
        cfg.mode = mode;
        cfg.useEmc = use_emc;
        cfg.tupleConfig.tupleCapacity =
            nextPowerOfTwo(maxRulesPerMask(rules) + 64);
        vs = std::make_unique<VirtualSwitch>(mem, hier, core, &halo,
                                             cfg);
        vs->installRules(rules);
        vs->warmTables();
    }
};

void
expectIdentical(const PacketResult &burst, const PacketResult &scalar,
                std::size_t i)
{
    EXPECT_EQ(burst.matched, scalar.matched) << "packet " << i;
    EXPECT_EQ(burst.emcHit, scalar.emcHit) << "packet " << i;
    EXPECT_EQ(burst.action, scalar.action) << "packet " << i;
    EXPECT_EQ(burst.tuplesSearched, scalar.tuplesSearched)
        << "packet " << i;
    EXPECT_EQ(burst.total, scalar.total) << "packet " << i;
    EXPECT_EQ(burst.packetIo, scalar.packetIo) << "packet " << i;
    EXPECT_EQ(burst.preprocess, scalar.preprocess) << "packet " << i;
    EXPECT_EQ(burst.emcCycles, scalar.emcCycles) << "packet " << i;
    EXPECT_EQ(burst.megaflowCycles, scalar.megaflowCycles)
        << "packet " << i;
    EXPECT_EQ(burst.otherCycles, scalar.otherCycles) << "packet " << i;
    EXPECT_EQ(burst.instructions, scalar.instructions) << "packet " << i;
}

class ProcessBurst : public ::testing::TestWithParam<LookupMode>
{
};

TEST_P(ProcessBurst, ByteIdenticalWithMalformedPackets)
{
    BurstRig burst_rig(GetParam());
    BurstRig scalar_rig(GetParam());

    std::vector<Packet> batch;
    for (int i = 0; i < 70; ++i) {
        if (i % 11 == 5) {
            // Runt frame: fails header parsing, dropped in place.
            Packet runt;
            runt.assign(8, 0xee);
            batch.push_back(std::move(runt));
        } else {
            batch.push_back(
                Packet::fromTuple(burst_rig.gen.flows()[(i * 7) % 600]));
        }
    }

    std::vector<PacketResult> burst(batch.size());
    burst_rig.vs->processBurst(batch, burst);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdentical(burst[i], scalar_rig.vs->processPacket(batch[i]),
                        i);
    EXPECT_EQ(burst_rig.vs->now(), scalar_rig.vs->now());
    EXPECT_EQ(burst_rig.vs->totals().packets,
              scalar_rig.vs->totals().packets);
    EXPECT_EQ(burst_rig.vs->totals().matches,
              scalar_rig.vs->totals().matches);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ProcessBurst,
    ::testing::Values(LookupMode::Software, LookupMode::HaloBlocking,
                      LookupMode::HaloNonBlocking, LookupMode::Hybrid),
    [](const ::testing::TestParamInfo<LookupMode> &info) {
        switch (info.param) {
          case LookupMode::Software:
            return "Software";
          case LookupMode::HaloBlocking:
            return "HaloBlocking";
          case LookupMode::HaloNonBlocking:
            return "HaloNonBlocking";
          case LookupMode::Hybrid:
            return "Hybrid";
        }
        return "Unknown";
    });

TEST(ClassifyBurst, NbModeMatchesClassifyBurstNB)
{
    BurstRig span_rig(LookupMode::HaloNonBlocking, /*use_emc=*/false);
    BurstRig vec_rig(LookupMode::HaloNonBlocking, /*use_emc=*/false);
    std::vector<FiveTuple> batch;
    for (int i = 0; i < 24; ++i)
        batch.push_back(span_rig.gen.flows()[i * 5]);

    std::vector<PacketResult> via_span(batch.size());
    span_rig.vs->classifyBurst(batch, via_span);
    const auto via_vec = vec_rig.vs->classifyBurstNB(batch);
    ASSERT_EQ(via_vec.size(), via_span.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdentical(via_span[i], via_vec[i], i);
}

} // namespace
} // namespace halo

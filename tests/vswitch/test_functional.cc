/**
 * @file
 * The functional switch (no timing model) against the timed switch:
 * the timing model is an attachment on the same stages, so over the
 * same rules and packet stream both must classify identically — match,
 * action, EMC hit, tuples searched and the deferred slow-path hints.
 * Only the cycle fields may differ (zero on the functional side).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/halo_system.hh"
#include "flow/ruleset.hh"
#include "vswitch/vswitch.hh"

namespace halo {
namespace {

/** A timed and a functional switch, each on its own memory, built from
 *  one configuration. */
struct TwinSwitches
{
    SimMemory timedMem{1ull << 30};
    SimMemory functionalMem{1ull << 30};
    MemoryHierarchy hier;
    CoreModel core{hier, 0};
    std::unique_ptr<VirtualSwitch> timed;
    std::unique_ptr<VirtualSwitch> functional;

    TwinSwitches(const VSwitchConfig &cfg, const RuleSet &megaflow,
                 const RuleSet &openflow)
    {
        timed = std::make_unique<VirtualSwitch>(timedMem, hier, core,
                                                nullptr, cfg);
        functional = std::make_unique<VirtualSwitch>(functionalMem, cfg);
        for (VirtualSwitch *vs : {timed.get(), functional.get()}) {
            vs->installRules(megaflow);
            vs->installOpenflowRules(openflow);
            vs->warmTables();
        }
    }
};

void
expectSameClassification(const PacketResult &f, const PacketResult &t,
                         std::size_t i)
{
    EXPECT_EQ(f.matched, t.matched) << "packet " << i;
    EXPECT_EQ(f.action, t.action) << "packet " << i;
    EXPECT_EQ(f.emcHit, t.emcHit) << "packet " << i;
    EXPECT_EQ(f.tuplesSearched, t.tuplesSearched) << "packet " << i;
    EXPECT_EQ(f.slowPathPending, t.slowPathPending) << "packet " << i;
    EXPECT_EQ(f.emcPromote, t.emcPromote) << "packet " << i;
    EXPECT_EQ(f.promoteValue, t.promoteValue) << "packet " << i;
}

/** Packets of a Zipf stream over @p gen's flows, every 97th one
 *  truncated to a malformed frame. */
std::vector<Packet>
mixedStream(TrafficGenerator &gen, std::size_t n)
{
    std::vector<Packet> packets;
    packets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Packet p = gen.nextPacket();
        if (i % 97 == 13)
            p.resize(20); // runt: dropped before classification
        packets.push_back(std::move(p));
    }
    return packets;
}

/** Run both switches over one stream; returns how many packets
 *  matched, so callers can check the stream exercised the path. */
std::size_t
runDifferential(const VSwitchConfig &cfg, const RuleSet &megaflow,
                const RuleSet &openflow, const TrafficConfig &traffic,
                std::size_t packets)
{
    TwinSwitches sw(cfg, megaflow, openflow);
    EXPECT_TRUE(sw.timed->timed());
    EXPECT_FALSE(sw.functional->timed());
    TrafficGenerator gen(traffic);
    const std::vector<Packet> stream = mixedStream(gen, packets);
    std::size_t matched = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const PacketResult t = sw.timed->processPacket(stream[i]);
        const PacketResult f = sw.functional->processPacket(stream[i]);
        expectSameClassification(f, t, i);
        EXPECT_EQ(f.total, 0u) << "packet " << i;
        EXPECT_EQ(f.instructions, 0u) << "packet " << i;
        matched += f.matched ? 1 : 0;
    }
    EXPECT_EQ(sw.functional->totals().packets, sw.timed->totals().packets);
    EXPECT_EQ(sw.functional->totals().matches, sw.timed->totals().matches);
    EXPECT_EQ(sw.functional->totals().emcHits, sw.timed->totals().emcHits);
    EXPECT_EQ(sw.functional->upcalls(), sw.timed->upcalls());
    EXPECT_EQ(sw.functional->tupleSpace().ruleCount(),
              sw.timed->tupleSpace().ruleCount());
    EXPECT_EQ(sw.functional->now(), 0u);
    return matched;
}

struct Rules
{
    TrafficConfig traffic{800, 0.9, 0.5, 0xd1ff};
    RuleSet megaflow;
    RuleSet openflow;

    Rules()
    {
        TrafficGenerator gen(traffic);
        megaflow = deriveRules(gen.flows(), canonicalMasks(5), 0, 0x31);
        openflow = deriveRules(gen.flows(), canonicalMasks(4), 0, 0x32);
    }
};

VSwitchConfig
baseConfig()
{
    VSwitchConfig cfg;
    cfg.tupleConfig.tupleCapacity = 4096;
    return cfg;
}

TEST(FunctionalSwitch, MatchesTimedSoftwareWithEmc)
{
    Rules r;
    const std::size_t matched =
        runDifferential(baseConfig(), r.megaflow, {}, r.traffic, 6000);
    EXPECT_GT(matched, 0u);
}

TEST(FunctionalSwitch, MatchesTimedSoftwareWithoutEmc)
{
    Rules r;
    VSwitchConfig cfg = baseConfig();
    cfg.useEmc = false;
    const std::size_t matched =
        runDifferential(cfg, r.megaflow, {}, r.traffic, 6000);
    EXPECT_GT(matched, 0u);
}

TEST(FunctionalSwitch, MatchesTimedInlineMaskedUpcalls)
{
    Rules r;
    VSwitchConfig cfg = baseConfig();
    cfg.useOpenflowLayer = true;
    const std::size_t matched =
        runDifferential(cfg, {}, r.openflow, r.traffic, 6000);
    EXPECT_GT(matched, 0u);
}

TEST(FunctionalSwitch, MatchesTimedInlineExactUpcalls)
{
    Rules r;
    VSwitchConfig cfg = baseConfig();
    cfg.useOpenflowLayer = true;
    cfg.exactUpcallInstalls = true;
    const std::size_t matched =
        runDifferential(cfg, {}, r.openflow, r.traffic, 6000);
    EXPECT_GT(matched, 0u);
}

TEST(FunctionalSwitch, MatchesTimedDeferredSlowPath)
{
    // Half the flows hit the megaflow rules; the rest come back
    // slowPathPending, and megaflow hits carry the EMC promotion wish.
    Rules r;
    TrafficGenerator gen(r.traffic);
    const std::vector<FiveTuple> half(gen.flows().begin(),
                                      gen.flows().begin() +
                                          gen.flows().size() / 2);
    const RuleSet megaflow = deriveRules(half, canonicalMasks(3), 0, 0x33);
    VSwitchConfig cfg = baseConfig();
    cfg.useOpenflowLayer = true;
    cfg.deferSlowPath = true;
    const std::size_t matched =
        runDifferential(cfg, megaflow, r.openflow, r.traffic, 6000);
    EXPECT_GT(matched, 0u);
}

TEST(FunctionalSwitch, RejectsHaloModes)
{
    SimMemory mem(64ull << 20);
    for (LookupMode mode :
         {LookupMode::HaloBlocking, LookupMode::HaloNonBlocking,
          LookupMode::Hybrid}) {
        VSwitchConfig cfg;
        cfg.mode = mode;
        EXPECT_THROW(VirtualSwitch(mem, cfg), FatalError);
    }
}

} // namespace
} // namespace halo

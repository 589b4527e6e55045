/**
 * @file
 * The functional switch (no timing model) against the timed switch:
 * the timing model is an attachment on the same stages, so over the
 * same rules and packet stream both must classify identically — match,
 * action, EMC hit, tuples searched and the deferred slow-path hints.
 * Only the cycle fields may differ (zero on the functional side). Fed
 * in bursts, the functional switch's staged pipeline may differ in EMC
 * hit (and so in tuples searched and promotion) for a flow that
 * repeats inside one burst, never in match, action or slow path.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

/** Run both switches over one stream, the functional one packet by
 *  packet through processPacket, or through processBurst in bursts of
 *  1, 2, ..., 32 packets (then again from 1) when @p burst is set.
 *  Returns how many packets matched, so callers can check the stream
 *  exercised the path. */
std::size_t
runDifferential(const VSwitchConfig &cfg, const RuleSet &megaflow,
                const RuleSet &openflow, const TrafficConfig &traffic,
                std::size_t packets, bool burst)
{
    TwinSwitches sw(cfg, megaflow, openflow);
    EXPECT_TRUE(sw.timed->timed());
    EXPECT_FALSE(sw.functional->timed());
    TrafficGenerator gen(traffic);
    const std::vector<Packet> stream = mixedStream(gen, packets);
    std::vector<PacketResult> staged(stream.size());
    std::size_t repeats = 0;
    std::size_t len = 1;
    for (std::size_t off = 0; off < stream.size(); off += len) {
        len = burst ? (off ? len % maxBulkLanes + 1 : 1) : 1;
        const std::size_t n = std::min(len, stream.size() - off);
        if (burst) {
            sw.functional->processBurst(
                std::span<const Packet>(stream).subspan(off, n),
                std::span<PacketResult>(staged).subspan(off, n));
        } else {
            staged[off] = sw.functional->processPacket(stream[off]);
        }
        for (std::size_t i = off; i < off + n; ++i) {
            const PacketResult t = sw.timed->processPacket(stream[i]);
            const PacketResult &f = staged[i];
            // A flow met earlier in the same burst may miss the EMC
            // entry that packet promoted (the burst probed the EMC
            // first), and walk the tuples instead: same outcome.
            const bool repeat = std::any_of(
                staged.begin() + off, staged.begin() + i,
                [&](const PacketResult &e) { return e.tuple == f.tuple; });
            if (repeat) {
                ++repeats;
                EXPECT_EQ(f.matched, t.matched) << "packet " << i;
                EXPECT_EQ(f.action, t.action) << "packet " << i;
                EXPECT_EQ(f.slowPathPending, t.slowPathPending)
                    << "packet " << i;
            } else {
                expectSameClassification(f, t, i);
            }
            EXPECT_EQ(f.total, 0u) << "packet " << i;
            EXPECT_EQ(f.instructions, 0u) << "packet " << i;
        }
    }
    if (burst) {
        EXPECT_GT(repeats, 0u) << "no flow repeated inside a burst";
    }
    std::size_t matched = 0;
    for (const PacketResult &f : staged)
        matched += f.matched ? 1 : 0;
    EXPECT_EQ(sw.functional->totals().packets, sw.timed->totals().packets);
    EXPECT_EQ(sw.functional->totals().matches, sw.timed->totals().matches);
    if (!burst) {
        EXPECT_EQ(sw.functional->totals().emcHits,
                  sw.timed->totals().emcHits);
    }
    EXPECT_EQ(sw.functional->upcalls(), sw.timed->upcalls());
    EXPECT_EQ(sw.functional->tupleSpace().ruleCount(),
              sw.timed->tupleSpace().ruleCount());
    EXPECT_EQ(sw.functional->now(), 0u);
    return matched;
}

/** runDifferential packet by packet, then in bursts of 1..32. */
std::size_t
runDifferential(const VSwitchConfig &cfg, const RuleSet &megaflow,
                const RuleSet &openflow, const TrafficConfig &traffic,
                std::size_t packets)
{
    const std::size_t matched = runDifferential(cfg, megaflow, openflow,
                                                traffic, packets, false);
    EXPECT_EQ(runDifferential(cfg, megaflow, openflow, traffic, packets,
                              true),
              matched);
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
    // slowPathPending. A deferred switch runs without an EMC.
    Rules r;
    TrafficGenerator gen(r.traffic);
    const std::vector<FiveTuple> half(gen.flows().begin(),
                                      gen.flows().begin() +
                                          gen.flows().size() / 2);
    const RuleSet megaflow = deriveRules(half, canonicalMasks(3), 0, 0x33);
    VSwitchConfig cfg = baseConfig();
    cfg.useOpenflowLayer = true;
    cfg.deferSlowPath = true;
    cfg.useEmc = false;
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

TEST(FunctionalSwitch, RejectsDeferredSlowPathWithEmc)
{
    SimMemory mem(64ull << 20);
    VSwitchConfig cfg;
    cfg.useOpenflowLayer = true;
    cfg.deferSlowPath = true;
    EXPECT_THROW(VirtualSwitch(mem, cfg), FatalError);
    cfg.useEmc = false;
    EXPECT_NO_THROW(VirtualSwitch(mem, cfg));
}

} // namespace
} // namespace halo

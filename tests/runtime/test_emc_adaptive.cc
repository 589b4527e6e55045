/**
 * @file
 * Adaptive EMC management (DESIGN.md §16): the pure policy function
 * that turns flow-count estimates into disable/enable decisions, the
 * EMC's recency-informed eviction (traced and untraced streams must
 * leave byte-identical slabs), and the decoupled runtime wiring that
 * closes estimator windows and actually flips the cache off under
 * uncacheable traffic and back on under reuse — the paper's §3.5
 * hybrid mode as a runtime policy.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <vector>

#include "flow/emc.hh"
#include "flow/ruleset.hh"
#include "hash/hash_fn.hh"
#include "manual_clock.hh"
#include "mem/sim_memory.hh"
#include "runtime/emc_controller.hh"
#include "runtime/runtime.hh"

using namespace halo;

namespace {

using Act = EmcControlDecision::Action;

/** Baseline inputs describing a healthy enabled cache. */
EmcControlInputs
healthyInputs()
{
    EmcControlInputs in;
    in.estimate = 400.0;
    in.samples = 10000;
    in.enabled = true;
    in.maxEntries = 65536;
    return in;
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

} // namespace

// ---------------------------------------------------------------------
// decideEmcPolicy: pure-function policy tests.
// ---------------------------------------------------------------------

TEST(EmcPolicy, ThinWindowCarriesNoSignal)
{
    EmcPolicyConfig cfg;
    EmcControlInputs in = healthyInputs();
    in.samples = cfg.minWindowSamples - 1;
    in.estimate = static_cast<double>(in.samples); // looks like a scan
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::None);
}

TEST(EmcPolicy, DisablesWhenTrafficDoesNotRepeat)
{
    EmcPolicyConfig cfg;
    EmcControlInputs in = healthyInputs();
    in.samples = 10000;
    in.estimate = 9800.0; // repeat fraction 0.02
    const EmcControlDecision d = decideEmcPolicy(cfg, in);
    EXPECT_EQ(d.action, Act::Disable);
    EXPECT_NEAR(d.repeatFraction, 0.02, 1e-9);

    // The disable edge is emcDisableRepeatFraction (0.15): just under
    // it disables, just over it an enabled cache stays on.
    in.estimate = 8600.0; // repeat 0.14
    EXPECT_LT(1.0 - in.estimate / 10000.0, emcDisableRepeatFraction);
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::Disable);
    in.estimate = 8400.0; // repeat 0.16
    EXPECT_GT(1.0 - in.estimate / 10000.0, emcDisableRepeatFraction);
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::None);
}

TEST(EmcPolicy, DisablesOnSaturatedEstimator)
{
    EmcPolicyConfig cfg;
    EmcControlInputs in = healthyInputs();
    // Repeats look fine, but the bit array overflowed: "more flows
    // than I can count" must read as a disable, not as a small E.
    in.estimate = 3000.0;
    in.samples = 100000;
    in.saturated = true;
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::Disable);
}

TEST(EmcPolicy, DisablesWhenWorkingSetDwarfsCapacity)
{
    EmcPolicyConfig cfg;
    EmcControlInputs in = healthyInputs();
    in.maxEntries = 1024;
    in.estimate = 8192.0; // 8x the footprint > emcDisableFlowRatio 4
    in.samples = 1000000; // repeat fraction 0.992: repeats alone fine
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::Disable);
}

TEST(EmcPolicy, HoldsSteadyOnCacheableTraffic)
{
    EmcPolicyConfig cfg;
    const EmcControlDecision d = decideEmcPolicy(cfg, healthyInputs());
    EXPECT_EQ(d.action, Act::None);
    EXPECT_GT(d.repeatFraction, 0.9);
}

TEST(EmcPolicy, ReenableNeedsHysteresisAndFit)
{
    EmcPolicyConfig cfg;
    EmcControlInputs in = healthyInputs();
    in.enabled = false;
    in.samples = 10000;

    // Inside the hysteresis band (emcDisableRepeatFraction 0.15 <
    // repeat 0.25 < emcEnableRepeatFraction 0.30): an enabled cache
    // would stay on, but a disabled one stays off.
    in.estimate = 7500.0;
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::None);
    in.enabled = true;
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::None);
    in.enabled = false;

    // Just past the enable edge (repeat 0.31), and the working set fits
    // twice over: re-enable over the whole footprint.
    in.estimate = 6900.0;
    EXPECT_GT(1.0 - in.estimate / 10000.0, emcEnableRepeatFraction);
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::Enable);

    // Cacheable but the working set, times emcEnableHeadroom, exceeds
    // the footprint: probing it would thrash, stay off.
    in.estimate = 40000.0;
    in.samples = 10000000; // repeat 0.996
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::None);

    // A saturated estimator never re-enables.
    in.estimate = 1000.0;
    in.samples = 10000;
    in.saturated = true;
    EXPECT_EQ(decideEmcPolicy(cfg, in).action, Act::None);
}

// ---------------------------------------------------------------------
// EMC eviction: recency and determinism.
// ---------------------------------------------------------------------

namespace {

/** The EMC's candidate slots, recomputed from its published hash
 *  parameters (XxMix over the key with the constructor seed). */
std::array<std::uint64_t, 2>
emcCandidates(std::uint64_t seed, std::uint64_t entries,
              std::span<const std::uint8_t> key)
{
    const std::uint64_t h = hashBytes(HashKind::XxMix, seed, key);
    return {h & (entries - 1), (h >> 32) & (entries - 1)};
}

} // namespace

/**
 * Recency-informed eviction: on a two-way conflict the insert
 * must overwrite the candidate whose insert epoch is older — whichever
 * probe position it sits at — including across uint16 epoch wraparound.
 * A tie overwrites the first candidate: a cache whose epoch never
 * advances (a timed switch) evicts exactly as a first-slot policy.
 */
TEST(EmcManaged, EvictionPrefersTheOlderEpoch)
{
    constexpr std::uint64_t entries = 4;
    constexpr std::uint64_t seed = 0x9d1c;

    // Find a conflict triple: kC with two distinct candidate slots,
    // and kA/kB whose *primary* slots are exactly those two (so each
    // fills its own slot in an empty cache).
    std::uint64_t idA = 0, idB = 0, idC = 0;
    std::array<std::uint64_t, 2> cand{};
    for (std::uint64_t id = 1; !idC; ++id) {
        const auto key = keyForId(id);
        const auto c = emcCandidates(seed, entries, key);
        if (c[0] != c[1]) {
            idC = id;
            cand = c;
        }
    }
    for (std::uint64_t id = idC + 1; !idA || !idB; ++id) {
        const auto key = keyForId(id);
        const auto c = emcCandidates(seed, entries, key);
        if (!idA && c[0] == cand[0])
            idA = id;
        else if (!idB && c[0] == cand[1])
            idB = id;
    }

    struct Round
    {
        std::uint16_t epochA, epochB, epochCurrent;
        bool expectAEvicted;
    };
    const Round rounds[] = {
        {10, 20, 21, true},       // A is older
        {20, 10, 21, false},      // B is older: probe order must lose
        {0xfffe, 2, 3, true},     // wraparound: A's age is 5, B's is 1
        {0, 0, 0, true},          // epochs never advanced: the first goes
    };

    for (const Round &r : rounds) {
        SimMemory mem(1ull << 20);
        ExactMatchCache emc(mem, entries, seed);

        const auto keyA = keyForId(idA);
        const auto keyB = keyForId(idB);
        const auto keyC = keyForId(idC);
        emc.setEpoch(r.epochA);
        ASSERT_EQ(emc.insert(keyA, 0xa), cand[0]);
        emc.setEpoch(r.epochB);
        ASSERT_EQ(emc.insert(keyB, 0xb), cand[1]);
        ASSERT_EQ(emc.evictOverwrites(), 0u);

        emc.setEpoch(r.epochCurrent);
        const std::uint64_t victim = emc.insert(keyC, 0xc);
        EXPECT_EQ(victim, r.expectAEvicted ? cand[0] : cand[1]);
        EXPECT_EQ(emc.evictOverwrites(), 1u);
        EXPECT_TRUE(emc.lookup(keyC).has_value());
        EXPECT_EQ(emc.lookup(keyA).has_value(), !r.expectAEvicted);
        EXPECT_EQ(emc.lookup(keyB).has_value(), r.expectAEvicted);
    }
}

/**
 * Eviction determinism: the same insert/erase stream leaves two
 * caches with byte-identical slabs and identical counters —
 * with and without access tracing, so the traced twin really is the
 * same algorithm plus a recorder.
 */
TEST(EmcManaged, SameStreamSameSlabTracedOrNot)
{
    constexpr std::uint64_t entries = 256;
    constexpr std::uint64_t seed = 0x5eed;

    SimMemory memA(4ull << 20), memB(4ull << 20);
    ExactMatchCache a(memA, entries, seed), b(memB, entries, seed);
    ASSERT_EQ(a.footprintBytes(), b.footprintBytes());

    AccessTrace trace;
    std::uint64_t x = 0x1234567ull;
    auto next = [&x] { // xorshift: deterministic op stream
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int op = 0; op < 20000; ++op) {
        if (op % 512 == 0) {
            a.setEpoch(static_cast<std::uint16_t>(op / 512));
            b.setEpoch(static_cast<std::uint16_t>(op / 512));
        }
        const std::uint64_t r = next();
        const auto key = keyForId(r % 1024); // 4x capacity: conflicts
        if (r % 8 == 0) {
            EXPECT_EQ(a.erase(key), b.erase(key));
        } else {
            trace.clear();
            const std::uint64_t slotA = a.insert(key, r, &trace);
            const std::uint64_t slotB = b.insert(key, r, nullptr);
            EXPECT_EQ(slotA, slotB);
            EXPECT_FALSE(trace.empty());
        }
    }

    EXPECT_GT(a.evictOverwrites(), 0u) << "stream never conflicted";
    EXPECT_EQ(a.evictOverwrites(), b.evictOverwrites());
    EXPECT_EQ(a.lookupHits(), 0u); // inserts/erases never count lookups

    std::vector<std::uint8_t> slab(a.footprintBytes());
    memA.read(a.baseAddr(), slab.data(), slab.size());
    EXPECT_TRUE(memB.equals(b.baseAddr(), slab.data(), slab.size()));
}

// ---------------------------------------------------------------------
// Decoupled-runtime integration: the controller acts on live traffic.
// ---------------------------------------------------------------------

/**
 * End to end (modeled on Runtime.DecoupledSlowPathInstallsResolvesAndAges):
 * a scan workload (every packet a new flow) must drive the controller
 * to disable the shard's EMC; switching to a small repeating flow set
 * must re-enable it. The test owns the clock: each control window is
 * a drained traffic round followed by controlIntervalSweeps sweeps, so
 * host speed cannot change what a window sees. Runs under ASan and
 * TSan in CI — the estimator observe/closeWindow handoff and the
 * enabled-flag transitions are exactly the relaxed-atomic paths the
 * design claims are race-free.
 */
TEST(Runtime, AdaptiveEmcDisablesOnScanAndReenablesOnReuse)
{
    RuleSet of;
    FlowRule fallback;
    fallback.mask = FlowMask{};
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 7};
    of.push_back(fallback);

    RuntimeConfig cfg;
    cfg.numWorkers = 1;
    cfg.ringCapacity = 256;
    cfg.batchSize = 16;
    cfg.shardMemBytes = 512ull << 20;
    cfg.enqueueRetries = 1024; // single-CPU CI: yield to the worker
    cfg.rss.symmetric = true;
    cfg.decoupled = true;
    cfg.openflowRules = &of;
    cfg.shard.vswitch.tupleConfig.tupleCapacity = 1u << 16;
    cfg.revalidator.sweepIntervalMicros = 200;
    cfg.revalidator.idleTimeoutEpochs = 2;
    cfg.emcPolicy.adaptive = true;
    cfg.emcPolicy.minWindowSamples = 32;
    cfg.emcPolicy.estimatorSampleShift = 0;
    const RuleSet empty;
    EpochClock clock(EpochClock::Kind::Manual);
    Runtime rt(cfg, empty, &clock);
    ASSERT_NE(rt.flowEstimator(0), nullptr);
    rt.start();

    auto offerId = [&rt](std::uint64_t id) {
        FiveTuple t;
        t.srcIp = 0x0a000000u | static_cast<std::uint32_t>(id & 0xffffff);
        t.dstIp = 0xc0a80001u;
        t.srcPort = static_cast<std::uint16_t>(1024 + (id >> 24));
        t.dstPort = 443;
        rt.offer(Packet::fromTuple(t), t);
    };
    // A drained round of traffic: every upcall it raised is handled.
    auto round = [&](const std::function<std::uint64_t(int)> &flow) {
        for (int i = 0; i < 500; ++i)
            offerId(flow(i));
        rt.drain();
    };
    // One control window: a round, then sweeps up to the policy pass.
    auto window = [&](const std::function<std::uint64_t(int)> &flow) {
        round(flow);
        for (unsigned e = 0; e < cfg.emcPolicy.controlIntervalSweeps; ++e)
            ASSERT_TRUE(test::tick(
                clock, cfg.revalidator.sweepIntervalMicros,
                [&rt] { return rt.snapshot().revalidator.sweeps; }));
    };

    // Phase 1: pure scan — every packet a brand-new flow, repeat
    // fraction ~0. The first policy pass must disable the EMC.
    std::uint64_t id = 0;
    window([&](int) { return id++; });
    EXPECT_EQ(rt.snapshot().revalidator.ctrlDisables, 1u);
    EXPECT_FALSE(rt.worker(0).vswitch().emc().enabled());
    EXPECT_EQ(rt.flowEstimator(0)->windowsClosed(), 1u);

    // Phase 2: a small repeating set — repeat fraction ~1 and the
    // working set fits, so within a few windows (the re-enable
    // hysteresis) the controller must turn the cache back on.
    for (int w = 0; w < 8 && rt.snapshot().revalidator.ctrlEnables == 0;
         ++w)
        window([](int i) { return static_cast<std::uint64_t>(i % 8); });
    EXPECT_EQ(rt.snapshot().revalidator.ctrlEnables, 1u);
    EXPECT_TRUE(rt.worker(0).vswitch().emc().enabled());

    // Phase 3: the re-enabled cache serves hits again. Fresh flows,
    // and no sweep in between, so nothing ages: the first round
    // installs their megaflows, the second promotes them into the EMC
    // on megaflow hits, and the third hits the EMC.
    const ExactMatchCache &emc = rt.worker(0).vswitch().emc();
    const std::uint64_t hitsBefore = emc.lookupHits();
    for (int r = 0; r < 3; ++r)
        round([](int i) { return 100 + static_cast<std::uint64_t>(i % 8); });
    EXPECT_GT(emc.lookupHits(), hitsBefore);

    rt.drain();
    rt.stop();
    const RuntimeSnapshot fin = rt.snapshot();
    EXPECT_EQ(fin.processed, fin.enqueued);
    EXPECT_GT(fin.revalidator.sweeps, 0u);
}

/**
 * @file
 * Hybrid-mode example: traffic alternates between a quiet phase (a few
 * elephant flows) and a busy phase (tens of thousands of flows). The
 * linear-counting flow register tracks the active-flow count each
 * window and the datapath switches between software and HALO lookups
 * accordingly (paper SS4.6).
 *
 *   $ ./build/examples/hybrid_adaptive
 */

#include <cstdio>

#include "core/halo_system.hh"
#include "flow/ruleset.hh"
#include "vswitch/vswitch.hh"

using namespace halo;

int
main()
{
    SimMemory mem(2ull << 30);
    MemoryHierarchy hier;
    HaloSystem halo_sys(mem, hier);
    CoreModel core(hier, 0);

    // Busy-phase population; the quiet phase reuses its first 6 flows.
    TrafficGenerator busy(TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, 30000));
    const RuleSet rules =
        scenarioRules(TrafficScenario::ManyFlows, busy.flows(), 0x42);

    VSwitchConfig cfg;
    cfg.mode = LookupMode::Hybrid;
    cfg.useEmc = false;
    cfg.tupleConfig.tupleCapacity =
        nextPowerOfTwo(maxRulesPerMask(rules) + 64);
    VirtualSwitch vs(mem, hier, core, &halo_sys, cfg);
    vs.installRules(rules);
    vs.warmTables();

    std::printf("phase-aware hybrid datapath "
                "(window=%llu queries, threshold=%.0f flows)\n\n",
                static_cast<unsigned long long>(
                    halo_sys.hybrid().config().windowQueries),
                halo_sys.hybrid().config().flowThreshold);
    std::printf("%-10s %10s %12s %14s %12s\n", "phase", "packets",
                "est. flows", "mode", "cyc/pkt");

    Xoshiro256 rng(1);
    for (int phase = 0; phase < 6; ++phase) {
        const bool quiet = phase % 2 == 0;
        const Cycles begin = vs.now();
        constexpr unsigned packets = 3000;
        for (unsigned i = 0; i < packets; ++i) {
            const FiveTuple &t =
                quiet ? busy.flows()[rng.nextBounded(6)]
                      : busy.nextTuple();
            vs.classifyTuple(t);
        }
        const double cpp =
            static_cast<double>(vs.now() - begin) / packets;
        std::printf("%-10s %10u %12.1f %14s %12.1f\n",
                    quiet ? "quiet" : "busy", packets,
                    halo_sys.hybrid().estimate(),
                    vs.effectiveMode() == LookupMode::Software
                        ? "software"
                        : "halo",
                    cpp);
    }

    std::printf("\nthe register estimate rises and falls with the "
                "phases, and the datapath follows (paper SS4.6)\n");
    return 0;
}

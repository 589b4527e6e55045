/**
 * @file
 * Data-path throughput vs concurrent-flow scale: EMC policy sweep.
 *
 * The paper's §3.5 observation is that the EMC stops paying for itself
 * at high flow counts — the probe mostly misses, pollutes the private
 * caches, and the promotion traffic competes with real work — which is
 * why HALO proposes the hybrid mode that turns it off. This bench
 * measures that trade at 1M–10M concurrent flows on the host runtime
 * and gates the adaptive controller (DESIGN.md §16) that re-derives
 * the decision at runtime from the per-shard linear-counting flow
 * estimate.
 *
 * Workload: numFlows five-tuples are pre-installed as exact-match
 * megaflow entries into each owning shard's tuple table before the
 * workers start (the steady state of a long-running dataplane — no
 * upcall storm, classification cost only). Packets then draw flows
 * from a Zipf(skew) popularity distribution. Every (flows, skew) cell
 * runs three times, once per EMC policy:
 *
 *   fixed    — EMC always on without the controller (OVS default;
 *              blind promotion, recency-informed eviction)
 *   adaptive — the same EMC plus the controller: flow-count-driven
 *              disable and re-enable with hysteresis
 *              (RuntimeConfig::emcPolicy.adaptive)
 *   off      — EMC compiled out of the pipeline (the paper's static
 *              hybrid decision, as an oracle reference)
 *
 * Methodology matches churn_throughput: aggregate_cpu_pps sums
 * per-worker CLOCK_THREAD_CPUTIME_ID rates (immune to preemption on
 * CPU-constrained CI hosts); wall_pps is reported for reference. Each
 * run also replays the identical packet stream through a host-side
 * reference linear-counting estimator; the resulting distinct-flow
 * count and estimate are deterministic (fixed seeds), so committed
 * baselines can gate estimator accuracy with bench_diff --no-timing.
 *
 * Usage: flowscale_throughput [shared flags] [--flows N] [--workers N]
 *                             [--emc-entries N]
 *
 * Shared flags: see bench_common.hh. Defaults here: --out
 * BENCH_flowscale.json, --packets 500000, --sample-us 2000.
 *
 *   --flows       override the flow-count sweep with one cell
 *                 (default sweep: 1M, 4M, 10M + a 20k small-case cell)
 *   --workers     worker threads (default 2)
 *   --emc-entries EMC slots per shard (default 65536)
 *
 * --smoke runs 2 workers, 80000 packets and 4096 EMC entries (flags
 * given explicitly win) over a small and a scan-heavy cell, and exits
 * nonzero unless the adaptive controller acted at the high-flow cell
 * (>= 1 disable/enable), adaptive cpu-pps >= fixed there, the
 * small-case cell keeps adaptive >= 0.85x fixed, and the reference
 * estimator lands within 30% of the true distinct count. Every run,
 * smoke or not, must conserve packets.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "flow/flow_estimator.hh"
#include "flow/ruleset.hh"
#include "hash/table_layout.hh"
#include "obs/json.hh"
#include "runtime/runtime.hh"

using namespace halo;
using namespace halo::bench;

namespace {

struct Options
{
    std::uint64_t flowsOverride = 0; ///< 0 = default sweep
    unsigned workers = 2;
    std::uint64_t emcEntries = 65536;
};

enum class EmcPolicy
{
    Off,
    Fixed,
    Adaptive,
};

const char *
policyName(EmcPolicy p)
{
    switch (p) {
    case EmcPolicy::Off: return "off";
    case EmcPolicy::Fixed: return "fixed";
    case EmcPolicy::Adaptive: return "adaptive";
    }
    return "?";
}

/** One (flows, skew) workload cell; runs once per policy. */
struct Cell
{
    std::uint64_t flows = 0;
    double skew = 0.0;
    bool smallCase = false; ///< EMC-friendly reference cell
};

/** Mixes a flow id into the reference estimator's hash domain. */
std::uint64_t
refHash(std::uint64_t id)
{
    SplitMix64 sm(id ^ 0x5ca1ab1e5eedull);
    return sm.next();
}

struct ScaleResult
{
    EmcPolicy policy = EmcPolicy::Fixed;
    std::uint64_t flows = 0;
    double skew = 0.0;
    bool smallCase = false;
    RuntimeReport rep;
    /// End-of-run EMC state summed over shards.
    std::uint64_t emcLookupHits = 0;
    std::uint64_t emcLookupMisses = 0;
    std::uint64_t emcEvictOverwrites = 0;
    unsigned emcEnabledShards = 0;
    double estimatedFlows = 0.0; ///< adaptive only: sum of lastEstimate
    /// Deterministic reference replay of the identical packet stream.
    std::uint64_t streamDistinctFlows = 0;
    double refEstimate = 0.0;
    double refRelError = 0.0;
    bool refSaturated = false;

    double pps() const { return aggregateCpuPps(rep); }
};

ScaleResult
runOnce(const Cell &cell, EmcPolicy policy, const BenchFlags &flags,
        const Options &opt, bool lastRun)
{
    // Every flow is pre-installed, so the match-all slow path only
    // resolves stragglers: this bench isolates fast-path EMC cost
    // (churn_throughput covers slow-path search cost).
    const RuleSet ofRules = fallbackRules();

    // Every shard holds only its RSS share of the population; x2 slack
    // keeps the cuckoo tables comfortably below their max load factor.
    const std::uint64_t perShard = std::max<std::uint64_t>(
        cell.flows / opt.workers, 1024);
    const std::uint64_t perShardCap = nextPowerOfTwo(perShard * 2);

    RuntimeConfig cfg = benchRuntimeConfig(opt.workers);
    // Lazily paged (bound, not footprint): sized so a 10M-flow shard's
    // tuple tables + EMC never hit the SimMemory exhaustion fatal.
    cfg.shardMemBytes =
        std::max<std::uint64_t>(2ull << 30, perShardCap * 512);
    cfg.shard.vswitch.tupleConfig.tupleCapacity = perShardCap;
    cfg.shard.vswitch.useOpenflowLayer = true;
    cfg.shard.vswitch.emcEntries = opt.emcEntries;
    cfg.shard.vswitch.useEmc = policy != EmcPolicy::Off;
    cfg.warmTables = false; // 10M-flow tables are paged in by insert
    cfg.openflowRules = &ofRules;
    cfg.decoupled = true;
    cfg.revalidator.ringCapacity = 8192;
    if (policy == EmcPolicy::Adaptive) {
        cfg.emcPolicy.adaptive = true;
        if (flags.smoke) {
            // Smoke runs are short and may execute under TSan at a
            // fraction of native throughput: shorten the control epoch
            // and accept small estimator windows so the controller
            // still gets enough qualified windows to act.
            cfg.emcPolicy.minWindowSamples = 32;
            cfg.emcPolicy.estimatorSampleShift = 0;
        } else {
            // Full runs: 16-sweep control epochs (~8 ms) collect
            // enough samples per window even on oversubscribed
            // single-core CI hosts (~100 at 20k pps/shard, sampled
            // 1-in-2).
            cfg.emcPolicy.controlIntervalSweeps = 16;
            cfg.emcPolicy.minWindowSamples = 64;
        }
    }
    if (flags.smoke)
        cfg.revalidator.sweepIntervalMicros = 200;
    applyTelemetry(cfg, flags, lastRun);

    const RuleSet empty;
    Runtime rt(cfg, empty);

    // Steady state: every flow pre-installed in its owning shard.
    preinstallExact(rt, cell.flows, tupleForId, ofRules.front());

    // One stream per cell: the seed depends only on (flows, skew), so
    // every policy of a cell classifies the identical packet sequence
    // and the reference-replay metrics below are policy-invariant.
    Xoshiro256 rng(0xf10a5ca1eull);
    ZipfDistribution zipf(cell.flows, cell.skew);

    // Reference replay: exact distinct-flow count (one bit per flow)
    // plus an unsampled linear-counting estimator fed the same stream
    // — the deterministic accuracy record committed baselines gate.
    std::vector<std::uint64_t> seen((cell.flows + 63) / 64, 0);
    std::uint64_t distinct = 0;
    ShardFlowEstimator refEst(1ull << 20, 0);

    ScaleResult res;
    res.policy = policy;
    res.flows = cell.flows;
    res.skew = cell.skew;
    res.smallCase = cell.smallCase;
    res.rep = instrumentedRun(rt, flags, lastRun, [&] {
        for (std::uint64_t p = 0; p < flags.packets; ++p) {
            const std::uint64_t id = zipf.sample(rng);
            std::uint64_t &word = seen[id >> 6];
            const std::uint64_t bit = 1ull << (id & 63);
            if (!(word & bit)) {
                word |= bit;
                ++distinct;
            }
            refEst.observe(refHash(id));
            const FiveTuple t = tupleForId(id);
            rt.offer(Packet::fromTuple(t), t);
        }
    });

    for (unsigned w = 0; w < rt.numWorkers(); ++w) {
        ExactMatchCache &emc = rt.worker(w).vswitch().emc();
        res.emcLookupHits += emc.lookupHits();
        res.emcLookupMisses += emc.lookupMisses();
        res.emcEvictOverwrites += emc.evictOverwrites();
        if (policy != EmcPolicy::Off && emc.enabled())
            ++res.emcEnabledShards;
        if (const ShardFlowEstimator *est = rt.flowEstimator(w))
            res.estimatedFlows += est->lastEstimate();
    }

    res.streamDistinctFlows = distinct;
    const ShardFlowEstimator::Window refWin = refEst.closeWindow();
    res.refEstimate = refWin.estimate;
    res.refSaturated = refWin.saturated;
    res.refRelError =
        distinct > 0
            ? std::fabs(refWin.estimate - double(distinct)) /
                  double(distinct)
            : 0.0;

    const RevalidatorCounters &rv = res.rep.aggregate.revalidator;
    std::printf(
        "%-8s %8llu flows zipf %.2f: %10.0f pkt/s cpu, %9.0f wall, "
        "emc %llu/%llu h/m, ctrl d%llu/e%llu, thr %llu\n",
        policyName(policy),
        static_cast<unsigned long long>(cell.flows), cell.skew,
        res.pps(), wallPps(res.rep),
        static_cast<unsigned long long>(res.emcLookupHits),
        static_cast<unsigned long long>(res.emcLookupMisses),
        static_cast<unsigned long long>(rv.ctrlDisables),
        static_cast<unsigned long long>(rv.ctrlEnables),
        static_cast<unsigned long long>(rv.promotesThrottled));
    return res;
}

const ScaleResult *
findRun(const std::vector<ScaleResult> &runs, std::uint64_t flows,
        double skew, EmcPolicy policy)
{
    for (const ScaleResult &r : runs)
        if (r.flows == flows && r.skew == skew && r.policy == policy)
            return &r;
    return nullptr;
}

double
policyRatio(const std::vector<ScaleResult> &runs, std::uint64_t flows,
            double skew, EmcPolicy num, EmcPolicy den)
{
    const ScaleResult *n = findRun(runs, flows, skew, num);
    const ScaleResult *d = findRun(runs, flows, skew, den);
    return n && d && d->pps() > 0.0 ? n->pps() / d->pps() : 0.0;
}


/** Headline cells: the largest swept population at its least-skewed
 *  (most EMC-hostile) setting, and the small-case reference. */
struct Headline
{
    std::uint64_t bigFlows = 0;
    double bigSkew = 0.0;
    std::uint64_t smallFlows = 0;
    double smallSkew = 0.0;
    bool hasSmall = false;

    explicit Headline(const std::vector<Cell> &cells)
    {
        for (const Cell &c : cells) {
            if (c.smallCase) {
                smallFlows = c.flows;
                smallSkew = c.skew;
                hasSmall = true;
            } else if (c.flows > bigFlows ||
                       (c.flows == bigFlows && c.skew < bigSkew)) {
                bigFlows = c.flows;
                bigSkew = c.skew;
            }
        }
    }
};

void
writeJson(const BenchFlags &flags, const Options &opt,
          const Headline &h, const std::vector<ScaleResult> &runs)
{
    std::ofstream out = openOutput(flags.outPath);
    obs::JsonWriter j(out);
    writeHeader(j, "flowscale_throughput", flags,
                runs.back().rep.perfDegraded);
    j.kv("workers", opt.workers);
    j.kv("emc_entries", opt.emcEntries);
    j.kv("headline_adaptive_over_fixed",
         policyRatio(runs, h.bigFlows, h.bigSkew, EmcPolicy::Adaptive,
                     EmcPolicy::Fixed), 3);
    j.kv("headline_off_over_fixed",
         policyRatio(runs, h.bigFlows, h.bigSkew, EmcPolicy::Off,
                     EmcPolicy::Fixed), 3);
    j.kv("small_case_adaptive_over_fixed",
         policyRatio(runs, h.smallFlows, h.smallSkew,
                     EmcPolicy::Adaptive, EmcPolicy::Fixed), 3);
    j.kv("methodology",
         "Each (flows, skew) cell pre-installs every flow as an "
         "exact-match megaflow entry in its owning shard, then pushes "
         "an identical Zipf packet stream through the decoupled "
         "runtime once per EMC policy (fixed / adaptive / off). "
         "aggregate_cpu_pps sums per-worker CLOCK_THREAD_CPUTIME_ID "
         "packet rates. stream_distinct_flows and ref_estimate are a "
         "deterministic host-side replay of the stream through a "
         "2^20-bit linear-counting estimator (fixed seeds), so "
         "committed baselines gate estimator accuracy without timing.");
    j.key("runs").beginArray();
    for (const ScaleResult &r : runs) {
        const RuntimeSnapshot &a = r.rep.aggregate;
        j.beginObject();
        j.kv("policy", policyName(r.policy));
        j.kv("flows", r.flows);
        j.kv("zipf_skew", r.skew, 2);
        j.kv("small_case", r.smallCase);
        j.kv("preinstalled", r.flows);
        writeRunCommon(j, r.rep);
        j.kv("emc_hits", a.emcHits);
        j.kv("upcalls_enqueued", a.upcallsEnqueued);
        j.kv("promotes_enqueued", a.promotesEnqueued);
        j.kv("upcall_drops", a.upcallDrops);
        j.kv("promotes", a.revalidator.promotes);
        j.kv("promotes_throttled", a.revalidator.promotesThrottled);
        j.kv("ctrl_disables", a.revalidator.ctrlDisables);
        j.kv("ctrl_enables", a.revalidator.ctrlEnables);
        j.kv("emc_lookup_hits", r.emcLookupHits);
        j.kv("emc_lookup_misses", r.emcLookupMisses);
        j.kv("emc_evict_overwrites", r.emcEvictOverwrites);
        j.kv("emc_enabled_shards_end", r.emcEnabledShards);
        j.kv("estimated_flows_end", r.estimatedFlows, 1);
        j.kv("stream_distinct_flows", r.streamDistinctFlows);
        j.kv("ref_estimate", r.refEstimate, 1);
        j.kv("ref_rel_error", r.refRelError, 4);
        j.kv("ref_saturated", r.refSaturated);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::printf("\nwrote %s\n", flags.outPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchFlags flags;
    flags.outPath = "BENCH_flowscale.json";
    flags.packets = 500000;
    flags.sampleMicros = 2000;
    Options opt;
    parseFlags(argc, argv, flags, RuntimeFlags,
               {numberFlag("--flows", "N", opt.flowsOverride,
                           std::uint64_t{1}),
                numberFlag("--workers", "N", opt.workers, 1u),
                numberFlag("--emc-entries", "N", opt.emcEntries,
                           std::uint64_t{1})});

    banner("Flow-scale throughput",
           "EMC policy (fixed/adaptive/off) at 1M-10M concurrent flows");

    std::vector<Cell> cells;
    if (flags.smoke) {
        flags.unlessGiven("--workers", opt.workers, 2);
        flags.unlessGiven("--packets", flags.packets, 80000);
        flags.unlessGiven("--emc-entries", opt.emcEntries, 4096);
        cells.push_back({2000, 1.1, true});
        cells.push_back({30000, 0.5, false});
    } else if (opt.flowsOverride) {
        cells.push_back({opt.flowsOverride, 0.5, false});
        cells.push_back({opt.flowsOverride, 1.1, false});
    } else {
        cells.push_back({20000, 1.1, true});
        for (const std::uint64_t flows :
             {1000000ull, 4000000ull, 10000000ull}) {
            cells.push_back({flows, 0.5, false});
            cells.push_back({flows, 1.1, false});
        }
    }

    std::vector<ScaleResult> runs;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        for (const EmcPolicy policy :
             {EmcPolicy::Off, EmcPolicy::Fixed, EmcPolicy::Adaptive}) {
            const bool last = c + 1 == cells.size() &&
                              policy == EmcPolicy::Adaptive;
            runs.push_back(runOnce(cells[c], policy, flags, opt, last));
        }
    }
    const Headline h(cells);
    writeJson(flags, opt, h, runs);

    // Console headline: adaptive vs always-on at the hostile cell.
    const double bigRatio = policyRatio(
        runs, h.bigFlows, h.bigSkew, EmcPolicy::Adaptive,
        EmcPolicy::Fixed);
    std::printf("adaptive/fixed @ %llu flows zipf %.2f: %.3fx\n",
                static_cast<unsigned long long>(h.bigFlows), h.bigSkew,
                bigRatio);

    bool ok = true;
    for (const ScaleResult &r : runs)
        ok &= conserved(r.rep, std::string(policyName(r.policy)) + " " +
                                   std::to_string(r.flows) + " flows");
    if (flags.smoke) {
        for (const ScaleResult &r : runs) {
            if (r.pps() <= 0.0) {
                std::fprintf(stderr,
                             "smoke FAILED (%s %llu flows): zero pps\n",
                             policyName(r.policy),
                             static_cast<unsigned long long>(r.flows));
                ok = false;
            }
            if (!r.refSaturated && r.refRelError > 0.30) {
                std::fprintf(stderr,
                             "smoke FAILED: reference estimator "
                             "rel_error %.3f (distinct %llu, est %.0f)\n",
                             r.refRelError,
                             static_cast<unsigned long long>(
                                 r.streamDistinctFlows),
                             r.refEstimate);
                ok = false;
            }
        }
        const ScaleResult *adaptBig =
            findRun(runs, h.bigFlows, h.bigSkew, EmcPolicy::Adaptive);
        const RevalidatorCounters *rv =
            adaptBig ? &adaptBig->rep.aggregate.revalidator : nullptr;
        if (!rv ||
            rv->ctrlDisables + rv->ctrlEnables == 0) {
            std::fprintf(stderr,
                         "smoke FAILED: adaptive controller never "
                         "acted at the high-flow cell\n");
            ok = false;
        }
        if (bigRatio < 1.0) {
            std::fprintf(stderr,
                         "smoke FAILED: adaptive %.3fx fixed at %llu "
                         "flows (< 1.0x)\n",
                         bigRatio,
                         static_cast<unsigned long long>(h.bigFlows));
            ok = false;
        }
        const double smallRatio =
            h.hasSmall ? policyRatio(runs, h.smallFlows, h.smallSkew,
                                     EmcPolicy::Adaptive,
                                     EmcPolicy::Fixed)
                       : 1.0;
        if (smallRatio < 0.85) {
            std::fprintf(stderr,
                         "smoke FAILED: adaptive %.3fx fixed at the "
                         "small-case cell (< 0.85x)\n",
                         smallRatio);
            ok = false;
        }
        if (flags.perf)
            ok &= perfStagesRecorded(runs.back().rep);
    }
    if (!ok)
        return 1;
    if (flags.smoke)
        std::printf("smoke OK\n");
    return 0;
}

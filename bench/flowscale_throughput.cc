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
 *   fixed    — EMC always on (OVS default; blind promotion/overwrite)
 *   adaptive — managed EMC: flow-count-driven disable/enable/resize,
 *              occupancy-aware promotion throttling, recency-informed
 *              eviction (RuntimeConfig::emcPolicy.adaptive)
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
 * Usage:
 *   flowscale_throughput [--out FILE] [--packets N] [--flows N]
 *                        [--workers N] [--emc-entries N] [--smoke]
 *                        [--prom FILE] [--prom-port N] [--trace FILE]
 *                        [--sample-us N] [--perf]
 *
 *   --out         JSON output path (default BENCH_flowscale.json)
 *   --packets     packets per run (default 500000)
 *   --flows       override the flow-count sweep with one cell
 *                 (default sweep: 1M, 4M, 10M + a 20k small-case cell)
 *   --workers     worker threads (default 2)
 *   --emc-entries EMC slots per shard (default 65536)
 *   --smoke       CI mode: tiny counts; exits nonzero unless every run
 *                 conserves packets, the adaptive controller acted at
 *                 the high-flow cell (>= 1 disable/enable/resize),
 *                 adaptive cpu-pps >= fixed there, the small-case cell
 *                 keeps adaptive >= 0.85x fixed, and the reference
 *                 estimator lands within 30% of the true distinct count
 *   --prom        write the last run's metrics as Prometheus text
 *   --prom-port   serve GET /metrics live during the last run
 *   --trace       write the last run's Chrome trace here
 *   --sample-us   sampler interval in microseconds (default 2000)
 *   --perf        per-thread PMU groups (perf_event_open)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "flow/flow_estimator.hh"
#include "flow/ruleset.hh"
#include "hash/table_layout.hh"
#include "obs/json.hh"
#include "obs/meta.hh"
#include "obs/metrics.hh"
#include "obs/prom_http.hh"
#include "runtime/runtime.hh"

using namespace halo;
using namespace halo::bench;

namespace {

struct Options
{
    std::string outPath = "BENCH_flowscale.json";
    std::string promPath;
    std::string tracePath;
    std::uint64_t packets = 500000;
    std::uint64_t flowsOverride = 0; ///< 0 = default sweep
    unsigned workers = 2;
    std::uint64_t emcEntries = 65536;
    std::uint64_t sampleMicros = 2000;
    std::uint16_t promPort = 0;
    bool promPortSet = false;
    bool smoke = false;
    bool perf = false;
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

/** Deterministic, never-repeating five-tuple for flow @p id. */
FiveTuple
tupleForId(std::uint64_t id)
{
    const std::uint64_t m = id * 0x9e3779b97f4a7c15ull;
    FiveTuple t;
    // Low 24 id bits in srcIp keep tuples unique for any id < 2^24.
    t.srcIp = 0x0a000000u | static_cast<std::uint32_t>(id & 0xffffff);
    t.dstIp = 0xac100000u |
              static_cast<std::uint32_t>((m >> 24) & 0xfffff);
    t.srcPort = static_cast<std::uint16_t>(1024 + (m & 0xffff) % 60000);
    t.dstPort = (m >> 40) & 1 ? 443 : 80;
    t.proto = static_cast<std::uint8_t>(IpProto::Udp);
    return t;
}

/**
 * Slow path: one match-all fallback rule. Every flow is pre-installed
 * into the megaflow layer before the run, so the OpenFlow layer exists
 * only to resolve the (rare) stragglers and to give the revalidator a
 * consistent install value — this bench isolates fast-path EMC cost,
 * not slow-path search cost (churn_throughput covers that).
 */
RuleSet
fallbackRules()
{
    RuleSet rules;
    FlowRule fallback;
    fallback.mask = FlowMask{}; // all-wildcard: matches everything
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 1};
    rules.push_back(fallback);
    return rules;
}

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
    double aggregateCpuPps = 0.0;
    double wallPps = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t processed = 0;
    std::uint64_t matched = 0;
    std::uint64_t emcHits = 0;
    std::uint64_t ringFullDrops = 0;
    std::uint64_t preinstalled = 0;
    double batchP50Us = 0.0;
    double batchP99Us = 0.0;
    /// Upcall/revalidator traffic (all runs are decoupled).
    std::uint64_t upcallsEnqueued = 0;
    std::uint64_t promotesEnqueued = 0;
    std::uint64_t upcallDrops = 0;
    RevalidatorCounters reval;
    /// End-of-run EMC state summed over shards.
    std::uint64_t emcLookupHits = 0;
    std::uint64_t emcLookupMisses = 0;
    std::uint64_t emcEvictOverwrites = 0;
    std::uint64_t emcActiveEntries = 0;
    unsigned emcEnabledShards = 0;
    double estimatedFlows = 0.0; ///< adaptive only: sum of lastEstimate
    /// Deterministic reference replay of the identical packet stream.
    std::uint64_t streamDistinctFlows = 0;
    double refEstimate = 0.0;
    double refRelError = 0.0;
    bool refSaturated = false;
    obs::SampleSeries samples;
    bool perfEnabled = false;
    bool perfDegraded = false;
    std::vector<obs::PerfStageTotals> perfStages;
};

ScaleResult
runOnce(const Cell &cell, EmcPolicy policy, const Options &opt,
        bool last_run)
{
    using SteadyClock = std::chrono::steady_clock;

    const RuleSet ofRules = fallbackRules();

    // Every shard holds only its RSS share of the population; x2 slack
    // keeps the cuckoo tables comfortably below their max load factor.
    const std::uint64_t perShard = std::max<std::uint64_t>(
        cell.flows / opt.workers, 1024);
    const std::uint64_t perShardCap = nextPowerOfTwo(perShard * 2);

    RuntimeConfig cfg;
    cfg.numWorkers = opt.workers;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 32;
    // Lazily paged (bound, not footprint): sized so a 10M-flow shard's
    // tuple tables + EMC never hit the SimMemory exhaustion fatal.
    cfg.shardMemBytes =
        std::max<std::uint64_t>(2ull << 30, perShardCap * 512);
    cfg.shard.vswitch.tupleConfig.tupleCapacity = perShardCap;
    cfg.shard.vswitch.useOpenflowLayer = true;
    cfg.shard.vswitch.emcEntries = opt.emcEntries;
    cfg.shard.vswitch.useEmc = policy != EmcPolicy::Off;
    cfg.rss.symmetric = true;
    cfg.enqueueRetries = 65536;
    cfg.samplerIntervalMicros = opt.sampleMicros;
    cfg.perfEnabled = opt.perf;
    cfg.warmTables = false; // 10M-flow tables are paged in by insert
    cfg.openflowRules = &ofRules;
    cfg.decoupled = true;
    cfg.revalidator.ringCapacity = 8192;
    if (policy == EmcPolicy::Adaptive) {
        cfg.emcPolicy.adaptive = true;
        // A short window's repeat fraction underestimates the long-run
        // EMC hit rate (every window pays the working set's first
        // touches), so the stock 0.25/0.40 band flaps on EMC-friendly
        // Zipf cells whose windowed repeat hovers near 0.3. The bench
        // lowers the band: hostile cells still measure near-zero
        // repeat and disable decisively; friendly cells stay clear of
        // the disable edge.
        cfg.emcPolicy.disableRepeatFraction = 0.15;
        cfg.emcPolicy.enableRepeatFraction = 0.30;
        if (opt.smoke) {
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
    if (opt.smoke)
        cfg.revalidator.sweepIntervalMicros = 200;
    if (!opt.tracePath.empty() && last_run) {
        cfg.traceCapacity = 1 << 15;
        cfg.revalidator.traceCapacity = 1 << 14;
    }

    const RuleSet empty;
    Runtime rt(cfg, empty);

    // Steady state: install every flow as an exact-match megaflow
    // entry in its owning shard, exactly the entries the revalidator
    // would install one upcall at a time. Single-threaded, pre-start:
    // the workers have not spawned, so plain inserts are safe.
    const std::uint64_t fallbackValue =
        encodeRuleValue(ofRules.front().action, ofRules.front().priority);
    std::vector<unsigned> exactTuple(opt.workers);
    for (unsigned w = 0; w < opt.workers; ++w)
        exactTuple[w] = rt.worker(w).vswitch().tupleSpace().ensureTuple(
            FlowMask::exact());
    std::uint64_t preinstalled = 0;
    for (std::uint64_t id = 0; id < cell.flows; ++id) {
        const FiveTuple t = tupleForId(id);
        const unsigned shard = rt.dispatcher().shardFor(t);
        const auto key = t.toKey();
        TupleSpace &tuples = rt.worker(shard).vswitch().tupleSpace();
        if (!tuples.table(exactTuple[shard])
                 .insert(KeyView(key.data(), key.size()),
                         fallbackValue)) {
            std::fprintf(stderr,
                         "error: pre-install failed at flow %llu of "
                         "%llu (shard %u, capacity %llu)\n",
                         static_cast<unsigned long long>(id),
                         static_cast<unsigned long long>(cell.flows),
                         shard,
                         static_cast<unsigned long long>(perShardCap));
            std::exit(1);
        }
        ++preinstalled;
    }

    obs::MetricsRegistry liveReg;
    std::unique_ptr<obs::PromHttpExporter> exporter;
    const bool want_prom =
        last_run && (!opt.promPath.empty() || opt.promPortSet);
    if (want_prom)
        rt.registerMetrics(liveReg);
    if (last_run && opt.promPortSet) {
        obs::PromHttpExporter::Options eo;
        eo.port = opt.promPort;
        exporter = std::make_unique<obs::PromHttpExporter>(
            eo, [&liveReg] { return liveReg.renderPrometheus(); });
        if (exporter->start())
            std::printf("serving GET http://127.0.0.1:%u/metrics\n",
                        exporter->port());
        else
            std::fprintf(stderr, "warning: prom exporter: %s\n",
                         exporter->lastError().c_str());
    }

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

    rt.start();
    rt.startSampler();
    const auto t0 = SteadyClock::now();
    for (std::uint64_t p = 0; p < opt.packets; ++p) {
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
    rt.drain();
    const auto t1 = SteadyClock::now();
    rt.stopSampler();
    rt.stop();

    if (exporter) {
        exporter->stop();
        std::printf("prom exporter served %llu scrape%s\n",
                    static_cast<unsigned long long>(
                        exporter->scrapesServed()),
                    exporter->scrapesServed() == 1 ? "" : "s");
    }

    const RuntimeReport rep = rt.report();
    const double wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();

    if (cfg.traceCapacity) {
        std::ofstream trace(opt.tracePath);
        if (!trace) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.tracePath.c_str());
            std::exit(1);
        }
        rt.writeChromeTrace(trace);
        std::printf("wrote %s\n", opt.tracePath.c_str());
    }

    ScaleResult res;
    res.policy = policy;
    res.flows = cell.flows;
    res.skew = cell.skew;
    res.smallCase = cell.smallCase;
    res.preinstalled = preinstalled;
    res.offered = rep.aggregate.offered;
    res.processed = rep.aggregate.processed;
    res.matched = rep.aggregate.matched;
    res.emcHits = rep.aggregate.emcHits;
    res.ringFullDrops = rep.aggregate.ringFullDrops;
    res.wallPps = wallSeconds > 0.0
                      ? double(rep.aggregate.processed) / wallSeconds
                      : 0.0;
    res.batchP50Us = rep.batchP50Nanos / 1e3;
    res.batchP99Us = rep.batchP99Nanos / 1e3;
    for (const WorkerReport &w : rep.workers)
        res.aggregateCpuPps +=
            w.counters.busyNanos > 0
                ? double(w.counters.packets) * 1e9 /
                      double(w.counters.busyNanos)
                : 0.0;
    res.upcallsEnqueued = rep.aggregate.upcallsEnqueued;
    res.promotesEnqueued = rep.aggregate.promotesEnqueued;
    res.upcallDrops = rep.aggregate.upcallDrops;
    res.reval = rep.aggregate.revalidator;
    res.samples = rep.samples;
    res.perfEnabled = rep.perfEnabled;
    res.perfDegraded = rep.perfDegraded;
    res.perfStages = rep.perfStages;

    for (unsigned w = 0; w < rt.numWorkers(); ++w) {
        ExactMatchCache &emc = rt.worker(w).vswitch().emc();
        res.emcLookupHits += emc.lookupHits();
        res.emcLookupMisses += emc.lookupMisses();
        res.emcEvictOverwrites += emc.evictOverwrites();
        res.emcActiveEntries += emc.activeEntries();
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

    if (!opt.promPath.empty() && last_run) {
        liveReg.gauge("halo_rt_aggregate_cpu_pps", {},
                      res.aggregateCpuPps);
        std::ofstream prom(opt.promPath);
        if (!prom) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.promPath.c_str());
            std::exit(1);
        }
        liveReg.writePrometheus(prom);
        std::printf("wrote %s\n", opt.promPath.c_str());
    }

    std::printf(
        "%-8s %8llu flows zipf %.2f: %10.0f pkt/s cpu, %9.0f wall, "
        "emc %llu/%llu h/m, ctrl d%llu/e%llu/r%llu, thr %llu\n",
        policyName(policy),
        static_cast<unsigned long long>(cell.flows), cell.skew,
        res.aggregateCpuPps, res.wallPps,
        static_cast<unsigned long long>(res.emcLookupHits),
        static_cast<unsigned long long>(res.emcLookupMisses),
        static_cast<unsigned long long>(res.reval.ctrlDisables),
        static_cast<unsigned long long>(res.reval.ctrlEnables),
        static_cast<unsigned long long>(res.reval.ctrlResizes),
        static_cast<unsigned long long>(res.reval.promotesThrottled));
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
    return n && d && d->aggregateCpuPps > 0.0
               ? n->aggregateCpuPps / d->aggregateCpuPps
               : 0.0;
}

void
writeJson(const Options &opt, const std::vector<Cell> &cells,
          const std::vector<ScaleResult> &runs)
{
    // Headline cells: the largest swept population at its least-skewed
    // (most EMC-hostile) setting, and the small-case reference.
    std::uint64_t bigFlows = 0;
    double bigSkew = 0.0;
    std::uint64_t smallFlows = 0;
    double smallSkew = 0.0;
    for (const Cell &c : cells) {
        if (c.smallCase) {
            smallFlows = c.flows;
            smallSkew = c.skew;
        } else if (c.flows > bigFlows ||
                   (c.flows == bigFlows && c.skew < bigSkew)) {
            bigFlows = c.flows;
            bigSkew = c.skew;
        }
    }

    std::ofstream out(opt.outPath);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.outPath.c_str());
        std::exit(1);
    }
    obs::JsonWriter j(out);
    j.beginObject();
    j.kv("benchmark", "flowscale_throughput");
    obs::writeMetaBlock(j);
    j.kv("packets_per_run", opt.packets);
    j.kv("workers", opt.workers);
    j.kv("emc_entries", opt.emcEntries);
    j.kv("smoke", opt.smoke);
    j.kv("host_cpus", std::thread::hardware_concurrency());
    j.kv("perf_enabled", opt.perf);
    j.kv("perf_degraded", !runs.empty() && runs.back().perfDegraded);
    j.kv("headline_adaptive_over_fixed",
         policyRatio(runs, bigFlows, bigSkew, EmcPolicy::Adaptive,
                     EmcPolicy::Fixed), 3);
    j.kv("headline_off_over_fixed",
         policyRatio(runs, bigFlows, bigSkew, EmcPolicy::Off,
                     EmcPolicy::Fixed), 3);
    j.kv("small_case_adaptive_over_fixed",
         policyRatio(runs, smallFlows, smallSkew, EmcPolicy::Adaptive,
                     EmcPolicy::Fixed), 3);
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
        j.beginObject();
        j.kv("policy", policyName(r.policy));
        j.kv("flows", r.flows);
        j.kv("zipf_skew", r.skew, 2);
        j.kv("small_case", r.smallCase);
        j.kv("preinstalled", r.preinstalled);
        j.kv("aggregate_cpu_pps", r.aggregateCpuPps, 1);
        j.kv("wall_pps", r.wallPps, 1);
        j.kv("offered", r.offered);
        j.kv("processed", r.processed);
        j.kv("matched", r.matched);
        j.kv("emc_hits", r.emcHits);
        j.kv("ring_full_drops", r.ringFullDrops);
        j.kv("batch_p50_us", r.batchP50Us, 1);
        j.kv("batch_p99_us", r.batchP99Us, 1);
        j.kv("upcalls_enqueued", r.upcallsEnqueued);
        j.kv("promotes_enqueued", r.promotesEnqueued);
        j.kv("upcall_drops", r.upcallDrops);
        j.kv("promotes", r.reval.promotes);
        j.kv("promotes_throttled", r.reval.promotesThrottled);
        j.kv("ctrl_disables", r.reval.ctrlDisables);
        j.kv("ctrl_enables", r.reval.ctrlEnables);
        j.kv("ctrl_resizes", r.reval.ctrlResizes);
        j.kv("emc_lookup_hits", r.emcLookupHits);
        j.kv("emc_lookup_misses", r.emcLookupMisses);
        j.kv("emc_evict_overwrites", r.emcEvictOverwrites);
        j.kv("emc_active_entries_end", r.emcActiveEntries);
        j.kv("emc_enabled_shards_end", r.emcEnabledShards);
        j.kv("estimated_flows_end", r.estimatedFlows, 1);
        j.kv("stream_distinct_flows", r.streamDistinctFlows);
        j.kv("ref_estimate", r.refEstimate, 1);
        j.kv("ref_rel_error", r.refRelError, 4);
        j.kv("ref_saturated", r.refSaturated);
        if (!r.samples.columns.empty()) {
            j.key("samples");
            writeSampleSeries(j, r.samples);
        }
        if (r.perfEnabled) {
            j.key("perf");
            writePerfBlock(j, r.perfEnabled, r.perfDegraded,
                           r.perfStages);
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::printf("\nwrote %s\n", opt.outPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            opt.outPath = argv[++i];
        } else if (arg == "--packets" && i + 1 < argc) {
            opt.packets = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--flows" && i + 1 < argc) {
            opt.flowsOverride = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--workers" && i + 1 < argc) {
            opt.workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--emc-entries" && i + 1 < argc) {
            opt.emcEntries = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--prom" && i + 1 < argc) {
            opt.promPath = argv[++i];
        } else if (arg == "--prom-port" && i + 1 < argc) {
            opt.promPort = static_cast<std::uint16_t>(
                std::strtoull(argv[++i], nullptr, 10));
            opt.promPortSet = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.tracePath = argv[++i];
        } else if (arg == "--sample-us" && i + 1 < argc) {
            opt.sampleMicros = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--perf") {
            opt.perf = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out FILE] [--packets N] "
                         "[--flows N] [--workers N] [--emc-entries N] "
                         "[--smoke] [--prom FILE] [--prom-port N] "
                         "[--trace FILE] [--sample-us N] [--perf]\n",
                         argv[0]);
            return 2;
        }
    }

    banner("Flow-scale throughput",
           "EMC policy (fixed/adaptive/off) at 1M-10M concurrent flows");

    std::vector<Cell> cells;
    if (opt.smoke) {
        opt.workers = 2;
        if (opt.packets == 500000)
            opt.packets = 80000;
        if (opt.emcEntries == 65536)
            opt.emcEntries = 4096;
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
            runs.push_back(runOnce(cells[c], policy, opt, last));
        }
    }
    writeJson(opt, cells, runs);

    // Console headline: adaptive vs always-on at the hostile cell.
    std::uint64_t bigFlows = 0;
    double bigSkew = 0.0;
    const Cell *smallCell = nullptr;
    for (const Cell &c : cells) {
        if (c.smallCase)
            smallCell = &c;
        else if (c.flows > bigFlows ||
                 (c.flows == bigFlows && c.skew < bigSkew)) {
            bigFlows = c.flows;
            bigSkew = c.skew;
        }
    }
    const double bigRatio = policyRatio(
        runs, bigFlows, bigSkew, EmcPolicy::Adaptive, EmcPolicy::Fixed);
    std::printf("adaptive/fixed @ %llu flows zipf %.2f: %.3fx\n",
                static_cast<unsigned long long>(bigFlows), bigSkew,
                bigRatio);

    if (opt.smoke) {
        for (const ScaleResult &r : runs) {
            if (r.aggregateCpuPps <= 0.0 || r.processed == 0 ||
                r.processed != r.offered - r.ringFullDrops) {
                std::fprintf(
                    stderr,
                    "smoke FAILED (%s %llu flows): pps=%.1f "
                    "processed=%llu offered=%llu drops=%llu\n",
                    policyName(r.policy),
                    static_cast<unsigned long long>(r.flows),
                    r.aggregateCpuPps,
                    static_cast<unsigned long long>(r.processed),
                    static_cast<unsigned long long>(r.offered),
                    static_cast<unsigned long long>(r.ringFullDrops));
                return 1;
            }
            if (!r.refSaturated && r.refRelError > 0.30) {
                std::fprintf(stderr,
                             "smoke FAILED: reference estimator "
                             "rel_error %.3f (distinct %llu, est %.0f)\n",
                             r.refRelError,
                             static_cast<unsigned long long>(
                                 r.streamDistinctFlows),
                             r.refEstimate);
                return 1;
            }
        }
        const ScaleResult *adaptBig =
            findRun(runs, bigFlows, bigSkew, EmcPolicy::Adaptive);
        if (!adaptBig ||
            adaptBig->reval.ctrlDisables + adaptBig->reval.ctrlEnables +
                    adaptBig->reval.ctrlResizes ==
                0) {
            std::fprintf(stderr,
                         "smoke FAILED: adaptive controller never "
                         "acted at the high-flow cell\n");
            return 1;
        }
        if (bigRatio < 1.0) {
            std::fprintf(stderr,
                         "smoke FAILED: adaptive %.3fx fixed at %llu "
                         "flows (< 1.0x)\n",
                         bigRatio,
                         static_cast<unsigned long long>(bigFlows));
            return 1;
        }
        const double smallRatio =
            smallCell ? policyRatio(runs, smallCell->flows,
                                    smallCell->skew,
                                    EmcPolicy::Adaptive,
                                    EmcPolicy::Fixed)
                      : 1.0;
        if (smallRatio < 0.85) {
            std::fprintf(stderr,
                         "smoke FAILED: adaptive %.3fx fixed at the "
                         "small-case cell (< 0.85x)\n",
                         smallRatio);
            return 1;
        }
        std::printf("smoke OK\n");
    }
    return 0;
}

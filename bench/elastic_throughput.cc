/**
 * @file
 * Elastic vs static workers under skewed traffic (DESIGN.md §17).
 *
 * NIC RSS steers flows to worker shards by hashing five-tuples into a
 * small indirection table; under Zipf-skewed traffic (and especially
 * under adversarial placement, where the hottest flows happen to share
 * a bucket) one shard ends up doing most of the work while the others
 * idle. This bench measures what the elastic controller buys back: it
 * runs the identical packet stream through the decoupled runtime twice
 * per cell — once with static RSS and once with the elastic controller
 * live (load-aware migration of indirection-table buckets) — and
 * compares per-cell throughput.
 *
 * Workload: numFlows five-tuples, pre-installed as exact-match
 * megaflow entries in their initial owning shards, steered by a fixed
 * 256-entry indirection table. The hottest hotKeys Zipf ranks are
 * given tuples whose bucket is a multiple of 16, so they all start on
 * shard 0 at 2, 4 and 8 workers — the colocated-elephants case that
 * static hashing cannot escape. The elastic controller spreads those
 * buckets across shards one migration at a time. Flows that migrate
 * take one megaflow miss at the destination shard, so the measurement
 * includes the real re-install cost through the upcall/revalidator
 * slow path; `installs` counts those re-faults.
 *
 * Metrics: the gate metric is effective_pps = processed * 1e9 /
 * max(per-worker busyNanos) — a makespan rate. Per-worker busyNanos is
 * CLOCK_THREAD_CPUTIME_ID spent classifying, so the metric is immune
 * to preemption on oversubscribed CI hosts yet fully sensitive to
 * imbalance: a shard doing 60% of the work bounds the run at
 * 1/0.6 of one core's rate no matter how idle the others are.
 * aggregate_cpu_pps (sum of per-worker rates, imbalance-blind) and
 * wall_pps are reported for reference.
 *
 * Correctness: every packet carries an order tag (flow-id, per-flow
 * sequence) and every worker reports its processing order to a
 * FlowOrderValidator; any intra-flow reordering across migrations —
 * the failure the drain-then-remap protocol exists to prevent — fails
 * the bench in both smoke and full mode. Gate timeouts (controller
 * waits that expired on an oversubscribed host; the gate still
 * self-clears safely) are reported but never gate.
 *
 * Usage: elastic_throughput [shared flags] [--flows N] [--workers N]
 *                           [--skew S] [--hot-keys N] [--elastic]
 *                           [--static]
 *
 * Shared flags: see bench_common.hh. Defaults here: --out
 * BENCH_elastic.json, --packets 200000, --sample-us 0 (off).
 *
 *   --flows     flow population (default 4096)
 *   --workers   restrict the worker sweep to one count
 *               (default sweep: 2, 4, 8)
 *   --skew      restrict the Zipf sweep to one exponent
 *               (default sweep: 0.5, 0.99, 1.3)
 *   --hot-keys  hottest ranks colocated on shard 0 (default 16)
 *   --elastic   run only the elastic mode
 *   --static    run only the static mode
 *
 * --smoke runs 30000 packets, 512 flows, 8 hot keys (flags given
 * explicitly win), workers {2} and skews {0.5, 1.3}, and exits nonzero
 * unless the elastic run at the skewed cell actually migrated. Every
 * run, smoke or not, must conserve packets with zero reorder
 * violations.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "flow/ruleset.hh"
#include "hash/table_layout.hh"
#include "obs/json.hh"
#include "runtime/order_validator.hh"
#include "runtime/runtime.hh"

using namespace halo;
using namespace halo::bench;

namespace {

struct Options
{
    std::uint64_t flows = 4096;
    unsigned workersOverride = 0; ///< 0 = default sweep
    double skewOverride = -1.0;   ///< < 0 = default sweep
    unsigned hotKeys = 16;
    bool onlyElastic = false;
    bool onlyStatic = false;
};

/** Shared RSS shape for every run (and the placement probe). */
RssConfig
rssShape()
{
    RssConfig rc;
    rc.numShards = 1; // probe only; the runtime overrides this
    rc.symmetric = true;
    // A NIC-sized indirection table: fine enough that the controller
    // can separate the colocated elephants bucket by bucket.
    rc.tableEntries = 256;
    return rc;
}

/**
 * The flow population, Zipf rank order. Ranks [0, hotKeys) are
 * remapped to tuples whose bucket is a multiple of 16: the round-robin
 * table steers bucket b to shard b % workers, so at 2, 4 and 8 workers
 * they all start on shard 0 — colocated elephants, the placement
 * static RSS cannot fix. Deterministic: the probe dispatcher uses the
 * same config/seed as every run, so placement is identical across
 * modes and cells.
 */
std::vector<FiveTuple>
buildFlows(const Options &opt)
{
    const RssDispatcher probe(rssShape());
    std::vector<FiveTuple> flows;
    flows.reserve(opt.flows);
    for (std::uint64_t id = 0; id < opt.flows; ++id)
        flows.push_back(tupleForId(id));
    const unsigned hot =
        static_cast<unsigned>(std::min<std::uint64_t>(
            opt.hotKeys, opt.flows));
    for (unsigned i = 0; i < hot; ++i) {
        bool found = false;
        // Candidate ids above the population keep tuples unique.
        for (std::uint64_t k = 0; k < 65536; ++k) {
            const FiveTuple t =
                tupleForId(opt.flows + i * 65536ull + k);
            if (probe.bucketFor(t) % 16 == 0) {
                flows[i] = t;
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "error: no shard-0 tuple for hot key %u\n",
                         i);
            std::exit(1);
        }
    }
    return flows;
}

struct ElasticRun
{
    bool elastic = false;
    unsigned workers = 0;
    double skew = 0.0;
    RuntimeReport rep;
    double effectivePps = 0.0;
    std::uint64_t orderObserved = 0;
    std::uint64_t reorderViolations = 0;
    ElasticCounters ctrl; ///< zeros in static mode
    std::uint64_t rssRebalances = 0;
    std::uint64_t maxBusyNanos = 0;
    double packetImbalance = 0.0; ///< max/mean per-worker packets

    std::string
    label() const
    {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%s w%u zipf %.2f",
                      elastic ? "elastic" : "static", workers, skew);
        return buf;
    }
};

ElasticRun
runOnce(unsigned workers, double skew, bool elastic,
        const std::vector<FiveTuple> &flows, const BenchFlags &flags,
        const Options &opt, bool lastRun)
{
    // Flows are pre-installed; the match-all slow path resolves the
    // misses migrated flows take at their destination shard.
    const RuleSet ofRules = fallbackRules();
    const std::uint64_t perShardCap = nextPowerOfTwo(
        std::max<std::uint64_t>(opt.flows * 4, 4096));

    RuntimeConfig cfg = benchRuntimeConfig(workers);
    cfg.shard.vswitch.tupleConfig.tupleCapacity = perShardCap;
    cfg.shard.vswitch.useOpenflowLayer = true;
    // EMC off in both modes: uniform per-packet cost isolates the
    // balancing effect (flowscale_throughput owns the EMC trade).
    cfg.shard.vswitch.useEmc = false;
    cfg.rss = rssShape();
    cfg.warmTables = false;
    cfg.openflowRules = &ofRules;
    cfg.decoupled = true;
    cfg.revalidator.ringCapacity = 8192;
    if (flags.smoke)
        cfg.revalidator.sweepIntervalMicros = 200;
    cfg.elastic.enabled = elastic;
    // Short control epochs: even smoke runs (which may execute under
    // TSan at a fraction of native speed) span tens of epochs.
    cfg.elastic.controlIntervalMicros = flags.smoke ? 500 : 1000;
    cfg.elastic.hysteresisEpochs = 2;
    cfg.elastic.cooldownEpochs = 1;
    cfg.elastic.maxMigrationsPerEpoch = 8;
    // Oversubscribed hosts (8 workers on one core) run every worker at
    // a low absolute busy fraction; act on relative imbalance anyway.
    cfg.elastic.minBusyToAct = 0.03;

    applyTelemetry(cfg, flags, lastRun);

    FlowOrderValidator oracle(opt.flows + 2);
    cfg.orderValidator = &oracle;

    const RuleSet empty;
    Runtime rt(cfg, empty);

    // Steady state: every flow pre-installed in its initial owning
    // shard, so every install during the run is a migration re-fault.
    preinstallExact(
        rt, flows.size(), [&flows](std::uint64_t i) { return flows[i]; },
        ofRules.front());

    // One stream per (flows, skew): mode-invariant, so static and
    // elastic classify the identical packet sequence.
    Xoshiro256 rng(0xe1a57c0de5eedull);
    ZipfDistribution zipf(opt.flows, skew);
    std::vector<std::uint32_t> seq(opt.flows, 0);

    ElasticRun res;
    res.elastic = elastic;
    res.workers = workers;
    res.skew = skew;
    res.rep = instrumentedRun(rt, flags, lastRun, [&] {
        for (std::uint64_t p = 0; p < flags.packets; ++p) {
            const std::uint64_t id = zipf.sample(rng);
            const FiveTuple &t = flows[id];
            Packet pkt = Packet::fromTuple(t);
            // Flow ids are 1-based in the tag so rank 0's first packet
            // is not the ignored all-zero tag.
            pkt.stampOrderTag(((id + 1) << 32) |
                              static_cast<std::uint64_t>(seq[id]++));
            rt.offer(std::move(pkt), t);
        }
    });

    const RuntimeSnapshot &a = res.rep.aggregate;
    std::uint64_t maxPackets = 0;
    for (const WorkerReport &w : res.rep.workers) {
        res.maxBusyNanos =
            std::max(res.maxBusyNanos, w.counters.busyNanos);
        maxPackets = std::max(maxPackets, w.counters.packets);
    }
    res.effectivePps =
        res.maxBusyNanos > 0
            ? double(a.processed) * 1e9 / double(res.maxBusyNanos)
            : 0.0;
    const double meanPackets = double(a.processed) / double(workers);
    res.packetImbalance =
        meanPackets > 0.0 ? double(maxPackets) / meanPackets : 0.0;
    res.orderObserved = oracle.observed();
    res.reorderViolations = oracle.violations();
    if (rt.elastic())
        res.ctrl = rt.elastic()->counters();
    res.rssRebalances = rt.dispatcher().rebalances();

    std::printf(
        "%-7s w%u zipf %.2f: %9.0f eff pps, %9.0f cpu, %8.0f wall | "
        "mig %llu inst %llu | imb %.2f | viol %llu gateto %llu\n",
        elastic ? "elastic" : "static", workers, skew,
        res.effectivePps, aggregateCpuPps(res.rep), wallPps(res.rep),
        static_cast<unsigned long long>(res.ctrl.migrations),
        static_cast<unsigned long long>(
            res.rep.aggregate.revalidator.installs),
        res.packetImbalance,
        static_cast<unsigned long long>(res.reorderViolations),
        static_cast<unsigned long long>(res.ctrl.gateTimeouts));
    return res;
}

const ElasticRun *
findRun(const std::vector<ElasticRun> &runs, unsigned workers,
        double skew, bool elastic)
{
    for (const ElasticRun &r : runs)
        if (r.workers == workers && r.skew == skew &&
            r.elastic == elastic)
            return &r;
    return nullptr;
}

double
speedup(const std::vector<ElasticRun> &runs, unsigned workers,
        double skew)
{
    const ElasticRun *e = findRun(runs, workers, skew, true);
    const ElasticRun *s = findRun(runs, workers, skew, false);
    return e && s && s->effectivePps > 0.0
               ? e->effectivePps / s->effectivePps
               : 0.0;
}

void
writeJson(const BenchFlags &flags, const Options &opt,
          const std::vector<unsigned> &workerSweep,
          const std::vector<double> &skews,
          const std::vector<ElasticRun> &runs, unsigned headlineWorkers,
          double headlineSkew, double uniformSkew)
{
    std::ofstream out = openOutput(flags.outPath);
    obs::JsonWriter j(out);
    writeHeader(j, "elastic_throughput", flags,
                runs.back().rep.perfDegraded);
    j.kv("flows", opt.flows);
    j.kv("hot_keys", opt.hotKeys);
    j.kv("headline_workers", headlineWorkers);
    j.kv("headline_skew", headlineSkew, 2);
    j.kv("headline_elastic_over_static",
         speedup(runs, headlineWorkers, headlineSkew), 3);
    j.kv("uniform_elastic_over_static",
         speedup(runs, headlineWorkers, uniformSkew), 3);
    j.kv("methodology",
         "Each (workers, zipf_skew) cell pushes an identical Zipf "
         "packet stream through the decoupled runtime twice: static "
         "RSS vs the elastic controller (migration of buckets of a "
         "fixed 256-entry indirection table). The hottest hot_keys "
         "ranks are colocated on shard 0 in buckets that are "
         "multiples of 16 (adversarial placement). "
         "effective_pps = processed * 1e9 / max per-worker busyNanos "
         "(CLOCK_THREAD_CPUTIME_ID): a makespan rate, "
         "preemption-immune yet imbalance-sensitive. Every packet "
         "carries a (flow, seq) order tag checked by a shared "
         "FlowOrderValidator; reorder_violations must be zero in "
         "every cell — migrations delay packets, never reorder them.");
    j.key("pairs").beginArray();
    for (const unsigned w : workerSweep) {
        for (const double s : skews) {
            const ElasticRun *e = findRun(runs, w, s, true);
            const ElasticRun *st = findRun(runs, w, s, false);
            if (!e || !st)
                continue;
            j.beginObject();
            j.kv("workers", static_cast<std::uint64_t>(w));
            j.kv("zipf_skew", s, 2);
            j.kv("static_effective_pps", st->effectivePps, 1);
            j.kv("elastic_effective_pps", e->effectivePps, 1);
            j.kv("speedup", speedup(runs, w, s), 3);
            j.endObject();
        }
    }
    j.endArray();
    j.key("runs").beginArray();
    for (const ElasticRun &r : runs) {
        j.beginObject();
        j.kv("mode", r.elastic ? "elastic" : "static");
        j.kv("workers", static_cast<std::uint64_t>(r.workers));
        j.kv("zipf_skew", r.skew, 2);
        j.kv("effective_pps", r.effectivePps, 1);
        writeRunCommon(j, r.rep);
        j.kv("order_observed", r.orderObserved);
        j.kv("reorder_violations", r.reorderViolations);
        j.kv("ctrl_epochs", r.ctrl.epochs);
        j.kv("migrations", r.ctrl.migrations);
        j.kv("gate_timeouts", r.ctrl.gateTimeouts);
        j.kv("rss_rebalances", r.rssRebalances);
        j.kv("max_busy_nanos", r.maxBusyNanos);
        j.kv("packet_imbalance", r.packetImbalance, 3);
        j.kv("upcalls_enqueued", r.rep.aggregate.upcallsEnqueued);
        j.kv("installs", r.rep.aggregate.revalidator.installs);
        j.kv("aged_flows", r.rep.aggregate.revalidator.agedFlows);
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
    flags.outPath = "BENCH_elastic.json";
    flags.packets = 200000;
    Options opt;
    parseFlags(argc, argv, flags, RuntimeFlags,
               {numberFlag("--flows", "N", opt.flows, std::uint64_t{1}),
                numberFlag("--workers", "N", opt.workersOverride, 1u),
                numberFlag("--skew", "S", opt.skewOverride, 0.0),
                numberFlag("--hot-keys", "N", opt.hotKeys),
                switchFlag("--elastic", opt.onlyElastic),
                switchFlag("--static", opt.onlyStatic)});
    if (opt.onlyElastic && opt.onlyStatic) {
        std::fprintf(stderr,
                     "error: --elastic and --static are exclusive\n");
        return 2;
    }

    banner("Elastic workers",
           "load-aware bucket migration vs static RSS under skew");

    std::vector<unsigned> workerSweep = {2, 4, 8};
    std::vector<double> skews = {0.5, 0.99, 1.3};
    if (flags.smoke) {
        flags.unlessGiven("--packets", flags.packets, 30000);
        flags.unlessGiven("--flows", opt.flows, 512);
        flags.unlessGiven("--hot-keys", opt.hotKeys, 8);
        workerSweep = {2};
        skews = {0.5, 1.3};
    }
    if (opt.workersOverride)
        workerSweep = {opt.workersOverride};
    if (opt.skewOverride >= 0.0)
        skews = {opt.skewOverride};

    const std::vector<FiveTuple> flows = buildFlows(opt);

    std::vector<ElasticRun> runs;
    for (const unsigned w : workerSweep) {
        for (const double s : skews) {
            // The sweep's last run (elastic when both modes run, so the
            // controller series render from real migration activity)
            // carries the --prom/--trace telemetry.
            const bool lastCell =
                w == workerSweep.back() && s == skews.back();
            if (!opt.onlyElastic)
                runs.push_back(runOnce(w, s, false, flows, flags, opt,
                                       lastCell && opt.onlyStatic));
            if (!opt.onlyStatic)
                runs.push_back(
                    runOnce(w, s, true, flows, flags, opt, lastCell));
        }
    }
    // Headline cell: 4 workers at the highest skew when swept,
    // otherwise the largest swept worker count.
    unsigned headlineWorkers = workerSweep.back();
    for (const unsigned w : workerSweep)
        if (w == 4)
            headlineWorkers = 4;
    const double headlineSkew =
        *std::max_element(skews.begin(), skews.end());
    const double uniformSkew =
        *std::min_element(skews.begin(), skews.end());

    writeJson(flags, opt, workerSweep, skews, runs, headlineWorkers,
              headlineSkew, uniformSkew);

    const double headline =
        speedup(runs, headlineWorkers, headlineSkew);
    const double uniform = speedup(runs, headlineWorkers, uniformSkew);
    if (headline > 0.0)
        std::printf("elastic/static @ w%u zipf %.2f: %.3fx "
                    "(uniform zipf %.2f: %.3fx)\n",
                    headlineWorkers, headlineSkew, headline,
                    uniformSkew, uniform);

    // Correctness gates hold in every mode: migrations must delay,
    // never reorder. Gate timeouts are reported but not gated — they
    // only record that the controller stopped blocking on a slow
    // drain (gates still self-clear), which is scheduling noise on an
    // oversubscribed host.
    bool ok = true;
    for (const ElasticRun &r : runs) {
        ok &= conserved(r.rep, r.label());
        if (r.reorderViolations != 0) {
            std::fprintf(stderr, "GATE FAILED (%s): %llu reorder "
                                 "violations\n",
                         r.label().c_str(),
                         static_cast<unsigned long long>(
                             r.reorderViolations));
            ok = false;
        }
    }

    if (flags.smoke && !opt.onlyStatic) {
        // Forced skew must actually trip the controller.
        const ElasticRun *hot =
            findRun(runs, workerSweep.back(), headlineSkew, true);
        if (!hot || hot->ctrl.migrations == 0) {
            std::fprintf(stderr,
                         "GATE FAILED: elastic controller never "
                         "migrated at the skewed cell\n");
            ok = false;
        }
    }
    if (flags.smoke && flags.perf)
        ok &= perfStagesRecorded(runs.back().rep);
    if (!flags.smoke && !opt.onlyElastic && !opt.onlyStatic &&
        headline > 0.0) {
        if (headline < 1.4) {
            std::fprintf(stderr,
                         "GATE FAILED: elastic %.3fx static at the "
                         "headline cell (< 1.4x)\n",
                         headline);
            ok = false;
        }
        if (uniform > 0.0 && uniform < 0.97) {
            std::fprintf(stderr,
                         "GATE FAILED: elastic %.3fx static on the "
                         "uniform cell (< 0.97x)\n",
                         uniform);
            ok = false;
        }
    }
    if (!ok)
        return 1;
    if (flags.smoke)
        std::printf("smoke OK\n");
    return 0;
}

/**
 * @file
 * Data-path throughput under flow churn: inline vs decoupled slow path.
 *
 * The headline claim of the decoupled runtime (the OVS
 * handler/revalidator split, DESIGN.md §12) is that moving the
 * slow path — OpenFlow full-table search, megaflow install, EMC
 * promotion — off the worker threads keeps data-path throughput flat
 * when flows churn. This bench measures exactly that: a Zipf-skewed
 * packet stream over a rotating flow population is pushed through the
 * multi-worker runtime twice per churn level, once with inline upcalls
 * (the worker resolves every miss itself, OVS pre-2.0 style) and once
 * decoupled (misses enqueue to the revalidator over the bounded MPSC
 * ring), and the per-worker CPU-time packet rates are compared.
 *
 * Workload: numFlows slots hold live five-tuples; packets draw a slot
 * from a Zipf(0.9) popularity distribution. With churn probability c,
 * each packet first rotates one uniformly chosen slot to a
 * never-before-seen tuple — the old flow dies (it stops receiving
 * packets and is eventually aged out by the revalidator), the new one
 * faults in through the slow path. Both modes install the same
 * exact-match (microflow) megaflow entries, so the comparison is
 * apples-to-apples.
 *
 * Methodology matches multiworker_throughput: aggregate_cpu_pps sums
 * per-worker CLOCK_THREAD_CPUTIME_ID rates (immune to preemption on
 * CPU-constrained CI hosts); wall_pps is reported for reference. The
 * background sampler records the upcall ring depth over time; drops on
 * that ring are counted, never blocking.
 *
 * Usage:
 *   churn_throughput [--out FILE] [--packets N] [--flows N]
 *                    [--workers N] [--smoke] [--prom FILE]
 *                    [--prom-port N] [--trace FILE] [--sample-us N]
 *                    [--perf] [--negative-filter]
 *
 *   --out       JSON output path (default BENCH_churn.json)
 *   --packets   packets per run (default 200000)
 *   --flows     live flow slots (default 20000)
 *   --workers   worker threads (default 4)
 *   --smoke     CI mode: 2 workers, small counts, churn {0, 10%};
 *               exits nonzero unless every run conserves packets
 *               (processed == offered - ring_full_drops), the
 *               decoupled churn run ages flows (> 0 aged), and
 *               decoupled throughput holds >= inline at 10% churn
 *   --prom      write the last run's metrics as Prometheus text
 *   --prom-port serve GET /metrics live on 127.0.0.1:<port> during the
 *               last run (0 picks an ephemeral port)
 *   --trace     write the last run's Chrome trace here
 *   --sample-us sampler interval in microseconds (default 2000)
 *   --perf      per-thread PMU groups (perf_event_open): per-stage
 *               cycles and LLC/dTLB/branch misses in the JSON; falls
 *               back to rdtsc-only (perf.degraded=true) when the
 *               kernel refuses the syscall
 *   --negative-filter  run every shard's cuckoo tables with the
 *               Cuckoo++ negative filter (DESIGN.md §13); recorded in
 *               the JSON
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
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
    std::string outPath = "BENCH_churn.json";
    std::string promPath;
    std::string tracePath;
    std::uint64_t packets = 200000;
    std::uint64_t flows = 20000;
    unsigned workers = 4;
    std::uint64_t sampleMicros = 2000;
    std::uint16_t promPort = 0;
    bool promPortSet = false;
    bool smoke = false;
    bool perf = false;
    bool negativeFilter = false;
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
 * Slow-path OpenFlow rules: a spread of wildcard masks seeded from the
 * initial flow population (each mask is one tuple table the upcall
 * search must probe — the cost inline mode pays on the worker), capped
 * by a match-all fallback so every churned-in flow resolves.
 */
RuleSet
openflowRules(const std::vector<FiveTuple> &slots, unsigned masks)
{
    RuleSet rules;
    const std::vector<FlowMask> lib = canonicalMasks(masks);
    for (unsigned i = 0; i < masks && i < slots.size(); ++i) {
        FlowRule r;
        r.mask = lib[i];
        r.maskedKey = r.mask.apply(slots[i].toKey());
        r.priority = static_cast<std::uint16_t>(10 + i);
        r.action = Action{ActionKind::Forward,
                          static_cast<std::uint16_t>(2 + i)};
        rules.push_back(r);
    }
    FlowRule fallback;
    fallback.mask = FlowMask{}; // all-wildcard: matches everything
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 1};
    rules.push_back(fallback);
    return rules;
}

struct ChurnResult
{
    bool decoupled = false;
    double churn = 0.0;
    double aggregateCpuPps = 0.0;
    double wallPps = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t processed = 0;
    std::uint64_t matched = 0;
    std::uint64_t ringFullDrops = 0;
    std::uint64_t newFlows = 0;
    double batchP50Us = 0.0;
    double batchP99Us = 0.0;
    double batchP999Us = 0.0;
    /// Decoupled-only (zero in inline runs).
    std::uint64_t upcallsEnqueued = 0;
    std::uint64_t promotesEnqueued = 0;
    std::uint64_t upcallDrops = 0;
    double upcallRingDepthMax = 0.0;
    RevalidatorCounters reval;
    obs::SampleSeries samples;
    bool perfEnabled = false;
    bool perfDegraded = false;
    std::vector<obs::PerfStageTotals> perfStages;
};

ChurnResult
runOnce(bool decoupled, double churn, const Options &opt,
        bool last_run)
{
    using SteadyClock = std::chrono::steady_clock;

    std::vector<FiveTuple> slots;
    slots.reserve(opt.flows);
    for (std::uint64_t i = 0; i < opt.flows; ++i)
        slots.push_back(tupleForId(i));
    const RuleSet ofRules = openflowRules(slots, 16);

    // Upper bound on distinct flows the run can create; the inline
    // baseline never evicts, so the exact-match tuple must hold them
    // all (per shard it sees only its RSS share — generous slack).
    const std::uint64_t maxFlows =
        opt.flows +
        static_cast<std::uint64_t>(churn * double(opt.packets)) + 4096;

    RuntimeConfig cfg;
    cfg.numWorkers = opt.workers;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 32;
    cfg.shardMemBytes = 2ull << 30; // lazily paged; bound, not footprint
    cfg.shard.vswitch.tupleConfig.tupleCapacity =
        nextPowerOfTwo(maxFlows);
    cfg.shard.vswitch.tupleConfig.negativeFilter = opt.negativeFilter;
    cfg.shard.vswitch.useOpenflowLayer = true;
    cfg.rss.symmetric = true;
    cfg.enqueueRetries = 65536;
    cfg.samplerIntervalMicros = opt.sampleMicros;
    cfg.perfEnabled = opt.perf;
    cfg.warmTables = false; // megaflow starts empty in both modes
    cfg.openflowRules = &ofRules;
    if (decoupled) {
        cfg.decoupled = true;
        cfg.revalidator.ringCapacity = 8192;
        if (opt.smoke) {
            // Short smoke runs still have to observe aging: sweep
            // faster and age after ~0.4 ms of inactivity.
            cfg.revalidator.sweepIntervalMicros = 200;
            cfg.revalidator.idleTimeoutEpochs = 2;
        }
    } else {
        // Inline baseline installs the same exact-match microflows the
        // revalidator would, from the worker thread.
        cfg.shard.vswitch.exactUpcallInstalls = true;
    }
    if (!opt.tracePath.empty() && last_run) {
        cfg.traceCapacity = 1 << 15;
        cfg.revalidator.traceCapacity = 1 << 14;
    }

    const RuleSet empty; // megaflow layer faults in via the slow path
    Runtime rt(cfg, empty);

    for (const FiveTuple &t : slots)
        rt.dispatcher().noteNewFlow(t);

    // Live telemetry: attached sources are relaxed atomics inside the
    // runtime, so the exporter may render the registry mid-run. The
    // same registry backs the --prom file after the run.
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

    Xoshiro256 rng(0xc402u);
    ZipfDistribution zipf(slots.size(), 0.9);
    std::uint64_t nextFlowId = opt.flows;

    rt.start();
    rt.startSampler();
    const auto t0 = SteadyClock::now();
    for (std::uint64_t p = 0; p < opt.packets; ++p) {
        if (churn > 0.0 && rng.nextBool(churn)) {
            const std::size_t victim = static_cast<std::size_t>(
                rng.nextBounded(slots.size()));
            rt.dispatcher().noteFlowEnd(slots[victim]);
            slots[victim] = tupleForId(nextFlowId++);
            rt.dispatcher().noteNewFlow(slots[victim]);
        }
        const FiveTuple &t =
            slots[zipf.sample(rng) % slots.size()];
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

    ChurnResult res;
    res.decoupled = decoupled;
    res.churn = churn;
    res.offered = rep.aggregate.offered;
    res.processed = rep.aggregate.processed;
    res.matched = rep.aggregate.matched;
    res.ringFullDrops = rep.aggregate.ringFullDrops;
    res.newFlows = nextFlowId - opt.flows;
    res.wallPps = wallSeconds > 0.0
                      ? double(rep.aggregate.processed) / wallSeconds
                      : 0.0;
    res.batchP50Us = rep.batchP50Nanos / 1e3;
    res.batchP99Us = rep.batchP99Nanos / 1e3;
    res.batchP999Us = rep.batchP999Nanos / 1e3;
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
    if (!rep.samples.columns.empty()) {
        for (std::size_t c = 0; c < rep.samples.columns.size(); ++c) {
            if (rep.samples.columns[c] != "upcall_ring_depth")
                continue;
            for (const auto &row : rep.samples.rows)
                res.upcallRingDepthMax =
                    std::max(res.upcallRingDepthMax, row[c]);
        }
    }

    if (!opt.promPath.empty() && last_run) {
        // The file exposition is the live registry — runtime and
        // per-worker counters, seqlock retries, upcall/revalidator
        // series, RSS rebalances, per-stage PMU counters — plus the
        // bench-derived aggregate rate.
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
        "%-9s churn %4.0f%%: %10.0f pkt/s cpu, %9.0f pkt/s wall, "
        "%llu upcalls, %llu drops, %llu aged\n",
        decoupled ? "decoupled" : "inline", churn * 100.0,
        res.aggregateCpuPps, res.wallPps,
        static_cast<unsigned long long>(res.upcallsEnqueued),
        static_cast<unsigned long long>(res.upcallDrops),
        static_cast<unsigned long long>(res.reval.agedFlows +
                                        res.reval.agedEmc));
    return res;
}

double
speedupAt(const std::vector<ChurnResult> &runs, double churn)
{
    double inlinePps = 0.0, decoupledPps = 0.0;
    for (const ChurnResult &r : runs) {
        if (r.churn != churn)
            continue;
        (r.decoupled ? decoupledPps : inlinePps) = r.aggregateCpuPps;
    }
    return inlinePps > 0.0 ? decoupledPps / inlinePps : 0.0;
}

void
writeJson(const Options &opt, const std::vector<ChurnResult> &runs)
{
    std::ofstream out(opt.outPath);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.outPath.c_str());
        std::exit(1);
    }
    obs::JsonWriter j(out);
    j.beginObject();
    j.kv("benchmark", "churn_throughput");
    obs::writeMetaBlock(j);
    j.kv("flows", opt.flows);
    j.kv("packets_per_run", opt.packets);
    j.kv("workers", opt.workers);
    j.kv("smoke", opt.smoke);
    j.kv("negative_filter", opt.negativeFilter);
    j.kv("host_cpus", std::thread::hardware_concurrency());
    j.kv("perf_enabled", opt.perf);
    j.kv("perf_degraded",
         !runs.empty() && runs.back().perfDegraded);
    j.kv("zipf_skew", 0.9, 2);
    j.kv("headline_speedup_10pct_churn", speedupAt(runs, 0.1), 2);
    j.kv("methodology",
         "Each churn level runs twice over an identical Zipf(0.9) "
         "stream: inline resolves megaflow misses on the worker "
         "(OpenFlow search + exact-match install in the data path), "
         "decoupled enqueues them on the bounded MPSC upcall ring for "
         "the revalidator thread (single writer, seqlocked tables, "
         "background idle-flow aging). aggregate_cpu_pps sums "
         "per-worker CLOCK_THREAD_CPUTIME_ID packet rates; upcall "
         "ring overflow drops are counted, never blocking.");
    j.key("runs").beginArray();
    for (const ChurnResult &r : runs) {
        j.beginObject();
        j.kv("mode", r.decoupled ? "decoupled" : "inline");
        j.kv("churn", r.churn, 2);
        j.kv("aggregate_cpu_pps", r.aggregateCpuPps, 1);
        j.kv("wall_pps", r.wallPps, 1);
        j.kv("offered", r.offered);
        j.kv("processed", r.processed);
        j.kv("matched", r.matched);
        j.kv("ring_full_drops", r.ringFullDrops);
        j.kv("new_flows", r.newFlows);
        j.kv("batch_p50_us", r.batchP50Us, 1);
        j.kv("batch_p99_us", r.batchP99Us, 1);
        j.kv("batch_p999_us", r.batchP999Us, 1);
        if (r.decoupled) {
            j.kv("upcalls_enqueued", r.upcallsEnqueued);
            j.kv("promotes_enqueued", r.promotesEnqueued);
            j.kv("upcall_drops", r.upcallDrops);
            j.kv("upcall_ring_depth_max", r.upcallRingDepthMax, 0);
            j.kv("upcalls_processed", r.reval.upcallsProcessed);
            j.kv("dedup_hits", r.reval.dedupHits);
            j.kv("installs", r.reval.installs);
            j.kv("install_failures", r.reval.installFailures);
            j.kv("unresolved", r.reval.unresolved);
            j.kv("promotes", r.reval.promotes);
            j.kv("sweeps", r.reval.sweeps);
            j.kv("aged_flows", r.reval.agedFlows);
            j.kv("aged_emc", r.reval.agedEmc);
        }
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
            opt.flows = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--workers" && i + 1 < argc) {
            opt.workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
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
        } else if (arg == "--negative-filter") {
            opt.negativeFilter = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out FILE] [--packets N] "
                         "[--flows N] [--workers N] [--smoke] "
                         "[--prom FILE] [--prom-port N] [--trace FILE] "
                         "[--sample-us N] [--perf] "
                         "[--negative-filter]\n",
                         argv[0]);
            return 2;
        }
    }

    banner("Flow-churn throughput",
           "inline vs decoupled slow path under Zipf churn");

    if (opt.smoke) {
        opt.workers = 2;
        if (opt.packets == 200000)
            opt.packets = 40000;
        if (opt.flows == 20000)
            opt.flows = 5000;
    }
    const std::vector<double> churns =
        opt.smoke ? std::vector<double>{0.0, 0.1}
                  : std::vector<double>{0.0, 0.1, 0.5};

    std::vector<ChurnResult> runs;
    for (std::size_t c = 0; c < churns.size(); ++c) {
        for (const bool decoupled : {false, true}) {
            const bool last =
                c + 1 == churns.size() && decoupled;
            runs.push_back(runOnce(decoupled, churns[c], opt, last));
        }
    }
    writeJson(opt, runs);

    const double speedup = speedupAt(runs, 0.1);
    std::printf("decoupled/inline @ 10%% churn: %.2fx\n", speedup);

    if (opt.smoke) {
        for (const ChurnResult &r : runs) {
            if (r.aggregateCpuPps <= 0.0 || r.processed == 0 ||
                r.processed != r.offered - r.ringFullDrops) {
                std::fprintf(
                    stderr,
                    "smoke FAILED (%s churn %.2f): pps=%.1f "
                    "processed=%llu offered=%llu drops=%llu\n",
                    r.decoupled ? "decoupled" : "inline", r.churn,
                    r.aggregateCpuPps,
                    static_cast<unsigned long long>(r.processed),
                    static_cast<unsigned long long>(r.offered),
                    static_cast<unsigned long long>(r.ringFullDrops));
                return 1;
            }
            if (r.decoupled && r.churn > 0.0 &&
                r.reval.agedFlows + r.reval.agedEmc == 0) {
                std::fprintf(stderr,
                             "smoke FAILED: decoupled churn run aged "
                             "no flows\n");
                return 1;
            }
            if (r.decoupled && r.churn > 0.0 &&
                r.reval.installs == 0) {
                std::fprintf(stderr,
                             "smoke FAILED: revalidator installed "
                             "nothing under churn\n");
                return 1;
            }
        }
        // --perf must attribute cycles to the batch stage whether or
        // not perf_event_open succeeded (degraded runs keep rdtsc).
        if (opt.perf) {
            const ChurnResult &last = runs.back();
            bool batchSeen = false;
            for (const obs::PerfStageTotals &s : last.perfStages)
                if (s.stage == "worker/batch" && s.entries > 0 &&
                    s.tscCycles > 0)
                    batchSeen = true;
            if (!batchSeen) {
                std::fprintf(stderr,
                             "smoke FAILED: --perf recorded no "
                             "worker/batch stage cycles (degraded=%s)\n",
                             last.perfDegraded ? "true" : "false");
                return 1;
            }
        }
        if (speedup < 1.0) {
            std::fprintf(stderr,
                         "smoke FAILED: decoupled %.2fx inline at 10%% "
                         "churn (< 1.0x)\n",
                         speedup);
            return 1;
        }
        std::printf("smoke OK\n");
    }
    return 0;
}

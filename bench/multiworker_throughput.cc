/**
 * @file
 * Host-throughput scaling of the multi-worker runtime.
 *
 * Drives the src/runtime/ layer — RSS producer, SPSC rings, N
 * shared-nothing VirtualSwitch shards — over the ManyFlows scenario and
 * reports aggregate processPacket throughput at 1/2/4/8 workers, plus
 * per-worker batch-latency percentiles (merged HdrHistograms) and
 * ring-full drop counts.
 *
 * Methodology: CI hosts frequently expose a single CPU, so wall-clock
 * throughput of N threads cannot show shared-nothing scaling there. Each
 * worker therefore reports its *CPU-time* rate — packets divided by
 * CLOCK_THREAD_CPUTIME_ID nanoseconds spent inside processPacket
 * batches, which excludes preemption and ring-empty idling — and the
 * aggregate is the sum of those rates: the throughput the shared-nothing
 * shards sustain when each owns a core. Wall-clock packets/sec is
 * reported alongside for reference.
 *
 * Observability: a background sampler snapshots the runtime's published
 * counters and ring depths on a fixed interval and the resulting time
 * series is embedded in the JSON (drop storms and RSS skew show up over
 * time instead of as one end-of-run total). --trace captures per-worker
 * Chrome trace_event JSON; --prom dumps the final run's metrics in
 * Prometheus text exposition format.
 *
 * Usage:
 *   multiworker_throughput [--out FILE] [--packets N] [--smoke]
 *                          [--trace FILE] [--prom FILE] [--prom-port N]
 *                          [--sample-us N] [--burst N] [--perf]
 *
 *   --out       JSON output path (default BENCH_multiworker.json)
 *   --packets   packets per run (default 200000)
 *   --smoke     CI mode: 2 workers, small counts, one scalar run then
 *               one burst run; exits nonzero unless throughput is
 *               nonzero, every enqueued packet was processed, the
 *               sampler recorded samples, and the burst run holds at
 *               least 90% of the scalar run's aggregate cpu-pps
 *   --trace     write the last run's Chrome trace here (open in
 *               chrome://tracing or https://ui.perfetto.dev)
 *   --prom      write the last run's metrics as Prometheus text
 *   --prom-port serve GET /metrics live on 127.0.0.1:<port> during the
 *               last run (0 picks an ephemeral port) — per-worker,
 *               per-stage counters straight off the running dataplane
 *   --sample-us sampler interval in microseconds (0 disables;
 *               default 2000)
 *   --burst     classification burst width per worker (default 16,
 *               clamped to [1, 32]; 1 = scalar processPacket loop,
 *               reproducing the per-packet numbers)
 *   --perf      per-thread PMU groups (perf_event_open): per-stage
 *               cycles and LLC/dTLB/branch misses in the JSON; falls
 *               back to rdtsc-only (perf.degraded=true) when the
 *               kernel refuses the syscall
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

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

struct ScaleResult
{
    unsigned workers = 0;
    unsigned classifyBurst = 1;
    double aggregateCpuPps = 0.0;
    double wallPps = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t processed = 0;
    std::uint64_t ringFullDrops = 0;
    struct PerWorker
    {
        std::uint64_t packets = 0;
        std::uint64_t busyNanos = 0;
        double cpuPps = 0.0;
        double batchP50Us = 0.0;
        double batchP90Us = 0.0;
        double batchP99Us = 0.0;
        double batchP999Us = 0.0;
    };
    std::vector<PerWorker> perWorker;
    /// Merged-histogram latency percentiles across all workers (us).
    double batchP50Us = 0.0;
    double batchP90Us = 0.0;
    double batchP99Us = 0.0;
    double batchP999Us = 0.0;
    obs::SampleSeries samples;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceDropped = 0;
    bool perfEnabled = false;
    bool perfDegraded = false;
    std::vector<obs::PerfStageTotals> perfStages;
};

struct Options
{
    std::string outPath = "BENCH_multiworker.json";
    std::string tracePath;
    std::string promPath;
    std::uint64_t packets = 200000;
    std::uint64_t sampleMicros = 2000;
    unsigned burst = 16;
    std::uint16_t promPort = 0;
    bool promPortSet = false;
    bool smoke = false;
    bool perf = false;
};

ScaleResult
runOnce(unsigned workers, unsigned burst, std::uint64_t flows,
        std::uint64_t packets, const Options &opt, bool last_run)
{
    const TrafficConfig traffic = TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, flows);
    TrafficGenerator gen(traffic);
    const RuleSet rules =
        scenarioRules(TrafficScenario::ManyFlows, gen.flows(), 0x303);

    RuntimeConfig cfg;
    cfg.numWorkers = workers;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 32;
    cfg.shardMemBytes = 2ull << 30; // lazily paged; bound, not footprint
    cfg.shard.vswitch.tupleConfig.tupleCapacity =
        nextPowerOfTwo(maxRulesPerMask(rules) + 64);
    cfg.rss.symmetric = true;
    cfg.classifyBurst = burst;
    // Single-CPU hosts: bounded yields hand the core to starved workers
    // instead of spinning the producer; overflow still drops, counted.
    cfg.enqueueRetries = 65536;
    cfg.samplerIntervalMicros = opt.sampleMicros;
    cfg.perfEnabled = opt.perf;
    if (!opt.tracePath.empty() && last_run)
        cfg.traceCapacity = 1 << 15; // 512 KiB per worker

    Runtime rt(cfg, rules);

    // Live telemetry: the registry's attached sources are relaxed
    // atomics inside the runtime, so the exporter may render it while
    // workers run. The same registry backs the --prom file afterwards.
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

    const RuntimeReport rep = rt.run(traffic, packets);

    if (exporter) {
        exporter->stop();
        std::printf("prom exporter served %llu scrape%s\n",
                    static_cast<unsigned long long>(
                        exporter->scrapesServed()),
                    exporter->scrapesServed() == 1 ? "" : "s");
    }

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
    res.workers = workers;
    res.classifyBurst = burst;
    res.offered = rep.aggregate.offered;
    res.processed = rep.aggregate.processed;
    res.ringFullDrops = rep.aggregate.ringFullDrops;
    res.wallPps = rep.wallSeconds > 0.0
                      ? static_cast<double>(rep.aggregate.processed) /
                            rep.wallSeconds
                      : 0.0;
    res.batchP50Us = rep.batchP50Nanos / 1e3;
    res.batchP90Us = rep.batchP90Nanos / 1e3;
    res.batchP99Us = rep.batchP99Nanos / 1e3;
    res.batchP999Us = rep.batchP999Nanos / 1e3;
    res.samples = rep.samples;
    for (const WorkerReport &w : rep.workers) {
        ScaleResult::PerWorker pw;
        pw.packets = w.counters.packets;
        pw.busyNanos = w.counters.busyNanos;
        pw.cpuPps = w.counters.busyNanos > 0
                        ? static_cast<double>(w.counters.packets) * 1e9 /
                              static_cast<double>(w.counters.busyNanos)
                        : 0.0;
        pw.batchP50Us = w.batchP50Nanos / 1e3;
        pw.batchP90Us = w.batchP90Nanos / 1e3;
        pw.batchP99Us = w.batchP99Nanos / 1e3;
        pw.batchP999Us = w.batchP999Nanos / 1e3;
        res.aggregateCpuPps += pw.cpuPps;
        res.perWorker.push_back(pw);
    }
    for (unsigned w = 0; w < rt.numWorkers(); ++w) {
        if (const obs::TraceRecorder *rec = rt.worker(w).traceRecorder()) {
            res.traceEvents += rec->recorded();
            res.traceDropped += rec->dropped();
        }
    }
    res.perfEnabled = rep.perfEnabled;
    res.perfDegraded = rep.perfDegraded;
    res.perfStages = rep.perfStages;

    if (!opt.promPath.empty() && last_run) {
        // The file exposition is the live registry (runtime counters,
        // seqlock/steer/upcall series, per-stage PMU counters — all
        // final now the workers are joined) plus the bench-derived
        // gauges and each shard's StatGroups, labeled per worker.
        liveReg.gauge("halo_rt_aggregate_cpu_pps", {},
                      res.aggregateCpuPps);
        for (unsigned w = 0; w < rt.numWorkers(); ++w) {
            const std::string id = std::to_string(w);
            const auto &pw = res.perWorker[w];
            liveReg.gauge("halo_worker_cpu_pps", {{"worker", id}},
                          pw.cpuPps);
            liveReg.gauge("halo_worker_batch_p99_us", {{"worker", id}},
                          pw.batchP99Us);
            liveReg.addStatGroup(
                rt.worker(w).shard().hierarchy().stats(),
                {{"worker", id}});
        }
        std::ofstream prom(opt.promPath);
        if (!prom) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.promPath.c_str());
            std::exit(1);
        }
        liveReg.writePrometheus(prom);
        std::printf("wrote %s\n", opt.promPath.c_str());
    }

    std::printf("%u worker%s (burst %2u): %10.0f pkt/s aggregate "
                "(cpu-time), %9.0f pkt/s wall, %llu drops, %zu samples\n",
                workers, workers == 1 ? " " : "s", burst,
                res.aggregateCpuPps, res.wallPps,
                static_cast<unsigned long long>(res.ringFullDrops),
                res.samples.samples());
    for (const auto &pw : res.perWorker)
        std::printf("    worker: %8llu pkts  %10.0f pkt/s  "
                    "batch p50 %7.1f us  p99 %7.1f us  p999 %7.1f us\n",
                    static_cast<unsigned long long>(pw.packets),
                    pw.cpuPps, pw.batchP50Us, pw.batchP99Us,
                    pw.batchP999Us);
    return res;
}

void
writeJson(const Options &opt, const std::vector<ScaleResult> &runs,
          std::uint64_t flows, std::uint64_t packets)
{
    std::ofstream out(opt.outPath);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.outPath.c_str());
        std::exit(1);
    }
    const double base =
        !runs.empty() && runs.front().workers == 1 &&
                runs.front().aggregateCpuPps > 0.0
            ? runs.front().aggregateCpuPps
            : 0.0;

    obs::JsonWriter j(out);
    j.beginObject();
    j.kv("benchmark", "multiworker_throughput");
    obs::writeMetaBlock(j);
    j.kv("scenario", "ManyFlows");
    j.kv("flows", flows);
    j.kv("packets_per_run", packets);
    j.kv("smoke", opt.smoke);
    j.kv("host_cpus", std::thread::hardware_concurrency());
    j.kv("sampler_interval_us", opt.sampleMicros);
    j.kv("perf_enabled", opt.perf);
    j.kv("perf_degraded",
         !runs.empty() && runs.back().perfDegraded);
    j.kv("methodology",
         "aggregate_cpu_pps sums per-worker CLOCK_THREAD_CPUTIME_ID "
         "rates (packets / busy nanoseconds inside processPacket "
         "batches): the shared-nothing throughput when each worker owns "
         "a core, immune to preemption on CPU-constrained hosts. "
         "wall_pps is processed / wall seconds on this host for "
         "reference. batch_p* come from merged per-worker "
         "HdrHistograms; samples is the background sampler time "
         "series.");
    j.key("runs").beginArray();
    for (const ScaleResult &r : runs) {
        j.beginObject();
        j.kv("workers", r.workers);
        j.kv("classify_burst", r.classifyBurst);
        j.kv("aggregate_cpu_pps", r.aggregateCpuPps, 1);
        j.kv("speedup_vs_1worker",
             base > 0.0 ? r.aggregateCpuPps / base : 0.0, 2);
        j.kv("wall_pps", r.wallPps, 1);
        j.kv("offered", r.offered);
        j.kv("processed", r.processed);
        j.kv("ring_full_drops", r.ringFullDrops);
        j.kv("batch_p50_us", r.batchP50Us, 1);
        j.kv("batch_p90_us", r.batchP90Us, 1);
        j.kv("batch_p99_us", r.batchP99Us, 1);
        j.kv("batch_p999_us", r.batchP999Us, 1);
        if (!r.samples.columns.empty()) {
            j.key("samples");
            writeSampleSeries(j, r.samples);
        }
        if (r.traceEvents)
            j.kv("trace_events", r.traceEvents);
        if (r.perfEnabled) {
            j.key("perf");
            writePerfBlock(j, r.perfEnabled, r.perfDegraded,
                           r.perfStages);
        }
        j.key("per_worker").beginArray();
        for (const auto &pw : r.perWorker) {
            j.beginObject();
            j.kv("packets", pw.packets);
            j.kv("busy_nanos", pw.busyNanos);
            j.kv("cpu_pps", pw.cpuPps, 1);
            j.kv("batch_p50_us", pw.batchP50Us, 1);
            j.kv("batch_p90_us", pw.batchP90Us, 1);
            j.kv("batch_p99_us", pw.batchP99Us, 1);
            j.kv("batch_p999_us", pw.batchP999Us, 1);
            j.endObject();
        }
        j.endArray();
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
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.tracePath = argv[++i];
        } else if (arg == "--prom" && i + 1 < argc) {
            opt.promPath = argv[++i];
        } else if (arg == "--prom-port" && i + 1 < argc) {
            opt.promPort = static_cast<std::uint16_t>(
                std::strtoull(argv[++i], nullptr, 10));
            opt.promPortSet = true;
        } else if (arg == "--sample-us" && i + 1 < argc) {
            opt.sampleMicros = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--perf") {
            opt.perf = true;
        } else if (arg == "--burst" && i + 1 < argc) {
            const std::uint64_t raw =
                std::strtoull(argv[++i], nullptr, 10);
            opt.burst = static_cast<unsigned>(
                std::clamp<std::uint64_t>(raw, 1, maxBulkLanes));
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out FILE] [--packets N] "
                         "[--smoke] [--trace FILE] [--prom FILE] "
                         "[--prom-port N] [--sample-us N] [--burst N] "
                         "[--perf]\n",
                         argv[0]);
            return 2;
        }
    }

    banner("Multi-worker host throughput",
           "shared-nothing runtime scaling over ManyFlows");

    const std::uint64_t flows = opt.smoke ? 10000 : 100000;
    if (opt.smoke && opt.packets == 200000)
        opt.packets = 20000;
    // Each pass is (workers, classify-burst). Smoke mode runs the same
    // 2-worker config scalar-then-burst so the gate below can compare
    // the two paths on identical load; the full sweep runs every worker
    // count at the requested burst width.
    std::vector<std::pair<unsigned, unsigned>> passes;
    if (opt.smoke) {
        passes.emplace_back(2u, 1u);
        if (opt.burst > 1)
            passes.emplace_back(2u, opt.burst);
    } else {
        for (unsigned w : {1u, 2u, 4u, 8u})
            passes.emplace_back(w, opt.burst);
    }

    std::vector<ScaleResult> runs;
    for (std::size_t i = 0; i < passes.size(); ++i)
        runs.push_back(runOnce(passes[i].first, passes[i].second, flows,
                               opt.packets, opt,
                               i + 1 == passes.size()));
    writeJson(opt, runs, flows, opt.packets);

    if (opt.smoke) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const ScaleResult &r = runs[i];
            const bool samplerOk =
                opt.sampleMicros == 0 || r.samples.samples() > 0;
            // Only the last pass writes the Chrome trace.
            const bool traceOk = i + 1 != runs.size() ||
                                 opt.tracePath.empty() ||
                                 r.traceEvents > 0;
            if (r.aggregateCpuPps <= 0.0 || r.processed == 0 ||
                r.processed != r.offered - r.ringFullDrops ||
                !samplerOk || !traceOk) {
                std::fprintf(stderr,
                             "smoke FAILED (burst %u): pps=%.1f "
                             "processed=%llu offered=%llu drops=%llu "
                             "samples=%zu trace_events=%llu\n",
                             r.classifyBurst, r.aggregateCpuPps,
                             static_cast<unsigned long long>(
                                 r.processed),
                             static_cast<unsigned long long>(r.offered),
                             static_cast<unsigned long long>(
                                 r.ringFullDrops),
                             r.samples.samples(),
                             static_cast<unsigned long long>(
                                 r.traceEvents));
                return 1;
            }
        }
        // With --perf on a perf-capable host the hardware counters
        // must attribute work to the batch stage; on unprivileged
        // runners the run must still complete with rdtsc-only cycles
        // (degraded mode) — either way the stage totals exist.
        if (opt.perf) {
            const ScaleResult &last = runs.back();
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
        // Burst must not regress below the scalar path. The runtime's
        // per-packet cost is dominated by NF work, so parity (with 10%
        // headroom for CI noise) is the bar, not a speedup.
        if (runs.size() == 2 &&
            runs[1].aggregateCpuPps < 0.9 * runs[0].aggregateCpuPps) {
            std::fprintf(stderr,
                         "smoke FAILED: burst %u aggregate %.1f pps < "
                         "90%% of scalar %.1f pps\n",
                         runs[1].classifyBurst, runs[1].aggregateCpuPps,
                         runs[0].aggregateCpuPps);
            return 1;
        }
        std::printf("smoke OK\n");
    }
    return 0;
}

/**
 * @file
 * Host-throughput scaling of the multi-worker runtime.
 *
 * Drives the src/runtime/ layer — RSS producer, SPSC rings, N
 * shared-nothing VirtualSwitch shards — over the ManyFlows scenario and
 * reports aggregate classification throughput at 1/2/4/8 workers, plus
 * per-worker batch-latency percentiles (merged HdrHistograms) and
 * ring-full drop counts.
 *
 * Methodology: CI hosts frequently expose a single CPU, so wall-clock
 * throughput of N threads cannot show shared-nothing scaling there. Each
 * worker therefore reports its *CPU-time* rate — packets divided by
 * its busy CLOCK_THREAD_CPUTIME_ID nanoseconds, which exclude
 * preemption and ring-empty idling (WorkerCounters::busyNanos) — and the
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
 * Usage: multiworker_throughput [shared flags]
 *
 * Shared flags: see bench_common.hh. Defaults here: --out
 * BENCH_multiworker.json, --packets 200000, --sample-us 2000.
 *
 * --smoke runs 20000 packets (unless --packets is given) through 2
 * workers and exits nonzero unless throughput is nonzero, the sampler
 * recorded samples and --trace captured events. Every run, smoke or
 * not, must conserve packets.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "flow/ruleset.hh"
#include "obs/json.hh"
#include "runtime/runtime.hh"

using namespace halo;
using namespace halo::bench;

namespace {

struct ScaleResult
{
    unsigned workers = 0;
    RuntimeReport rep;
    std::uint64_t traceEvents = 0;
};

ScaleResult
runOnce(unsigned workers, std::uint64_t flows, const BenchFlags &flags,
        bool lastRun)
{
    const TrafficConfig traffic = TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, flows);
    TrafficGenerator gen(traffic);
    const RuleSet rules =
        scenarioRules(TrafficScenario::ManyFlows, gen.flows(), 0x303);

    RuntimeConfig cfg = benchRuntimeConfig(workers);
    cfg.shardMemBytes = 2ull << 30; // lazily paged; bound, not footprint
    cfg.shard.vswitch.tupleConfig.tupleCapacity =
        nextPowerOfTwo(maxRulesPerMask(rules) + 64);
    applyTelemetry(cfg, flags, lastRun);

    Runtime rt(cfg, rules);

    ScaleResult res;
    res.workers = workers;
    // The --prom file adds per-worker gauges, labeled per worker, to
    // the live registry.
    res.rep = instrumentedRun(
        rt, flags, lastRun,
        [&] {
            rt.startProducer(traffic, flags.packets);
            rt.joinProducer();
        },
        [&rt](obs::MetricsRegistry &reg, const RuntimeReport &rep) {
            for (unsigned w = 0; w < rt.numWorkers(); ++w) {
                const std::string id = std::to_string(w);
                reg.gauge("halo_worker_cpu_pps", {{"worker", id}},
                          cpuPps(rep.workers[w]));
                reg.gauge("halo_worker_batch_p99_us", {{"worker", id}},
                          rep.workers[w].batchP99Nanos / 1e3);
            }
        });
    for (unsigned w = 0; w < rt.numWorkers(); ++w)
        if (const obs::TraceRecorder *rec = rt.worker(w).traceRecorder())
            res.traceEvents += rec->recorded();

    std::printf("%u worker%s: %10.0f pkt/s aggregate "
                "(cpu-time), %9.0f pkt/s wall, %llu drops, %zu samples\n",
                workers, workers == 1 ? " " : "s",
                aggregateCpuPps(res.rep), wallPps(res.rep),
                static_cast<unsigned long long>(
                    res.rep.aggregate.ringFullDrops),
                res.rep.samples.samples());
    for (const WorkerReport &w : res.rep.workers)
        std::printf("    worker: %8llu pkts  %10.0f pkt/s  "
                    "batch p50 %7.1f us  p99 %7.1f us  p999 %7.1f us\n",
                    static_cast<unsigned long long>(w.counters.packets),
                    cpuPps(w), w.batchP50Nanos / 1e3,
                    w.batchP99Nanos / 1e3, w.batchP999Nanos / 1e3);
    return res;
}

void
writeJson(const BenchFlags &flags, const std::vector<ScaleResult> &runs,
          std::uint64_t flows)
{
    const double base = runs.front().workers == 1
                            ? aggregateCpuPps(runs.front().rep)
                            : 0.0;

    std::ofstream out = openOutput(flags.outPath);
    obs::JsonWriter j(out);
    writeHeader(j, "multiworker_throughput", flags,
                runs.back().rep.perfDegraded);
    j.kv("scenario", "ManyFlows");
    j.kv("flows", flows);
    j.kv("sampler_interval_us", flags.sampleMicros);
    j.kv("methodology",
         "aggregate_cpu_pps sums per-worker CLOCK_THREAD_CPUTIME_ID "
         "rates (packets / busy nanoseconds: popping, classifying and "
         "publishing batches, idle polling excluded): the "
         "shared-nothing throughput when each worker owns a core, "
         "immune to preemption on CPU-constrained hosts. "
         "wall_pps is processed / wall seconds on this host for "
         "reference. batch_p* come from merged per-worker "
         "HdrHistograms; samples is the background sampler time "
         "series.");
    j.key("runs").beginArray();
    for (const ScaleResult &r : runs) {
        j.beginObject();
        j.kv("workers", r.workers);
        j.kv("speedup_vs_1worker",
             base > 0.0 ? aggregateCpuPps(r.rep) / base : 0.0, 2);
        writeRunCommon(j, r.rep);
        if (r.traceEvents)
            j.kv("trace_events", r.traceEvents);
        j.key("per_worker").beginArray();
        for (const WorkerReport &w : r.rep.workers) {
            j.beginObject();
            j.kv("packets", w.counters.packets);
            j.kv("busy_nanos", w.counters.busyNanos);
            j.kv("cpu_pps", cpuPps(w), 1);
            j.kv("batch_p50_us", w.batchP50Nanos / 1e3, 1);
            j.kv("batch_p90_us", w.batchP90Nanos / 1e3, 1);
            j.kv("batch_p99_us", w.batchP99Nanos / 1e3, 1);
            j.kv("batch_p999_us", w.batchP999Nanos / 1e3, 1);
            j.endObject();
        }
        j.endArray();
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
    flags.outPath = "BENCH_multiworker.json";
    flags.packets = 200000;
    flags.sampleMicros = 2000;
    parseFlags(argc, argv, flags, RuntimeFlags);

    banner("Multi-worker host throughput",
           "shared-nothing runtime scaling over ManyFlows");

    const std::uint64_t flows = flags.smoke ? 10000 : 100000;
    if (flags.smoke)
        flags.unlessGiven("--packets", flags.packets, 20000);
    // Smoke mode runs one 2-worker pass; the full sweep runs every
    // worker count.
    std::vector<unsigned> passes;
    if (flags.smoke)
        passes.push_back(2u);
    else
        passes = {1u, 2u, 4u, 8u};

    std::vector<ScaleResult> runs;
    for (std::size_t i = 0; i < passes.size(); ++i)
        runs.push_back(
            runOnce(passes[i], flows, flags, i + 1 == passes.size()));
    writeJson(flags, runs, flows);

    bool ok = true;
    for (const ScaleResult &r : runs)
        ok &= conserved(r.rep, std::to_string(r.workers) + " workers");
    if (flags.smoke) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const ScaleResult &r = runs[i];
            const bool samplerOk =
                flags.sampleMicros == 0 || r.rep.samples.samples() > 0;
            // Only the last pass writes the Chrome trace.
            const bool traceOk = i + 1 != runs.size() ||
                                 flags.tracePath.empty() ||
                                 r.traceEvents > 0;
            if (aggregateCpuPps(r.rep) <= 0.0 || !samplerOk || !traceOk) {
                std::fprintf(stderr,
                             "smoke FAILED (%u workers): pps=%.1f "
                             "samples=%zu trace_events=%llu\n",
                             r.workers, aggregateCpuPps(r.rep),
                             r.rep.samples.samples(),
                             static_cast<unsigned long long>(
                                 r.traceEvents));
                ok = false;
            }
        }
        // With --perf on a perf-capable host the hardware counters
        // must attribute work to the batch stage; on unprivileged
        // runners the run must still complete with rdtsc-only cycles
        // (degraded mode) — either way the stage totals exist.
        if (flags.perf)
            ok &= perfStagesRecorded(runs.back().rep);
    }
    if (!ok)
        return 1;
    if (flags.smoke)
        std::printf("smoke OK\n");
    return 0;
}

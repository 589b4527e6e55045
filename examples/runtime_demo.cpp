/**
 * @file
 * Runtime demo: shard the switch across worker threads, observed.
 *
 * Spins up a Runtime with four shared-nothing VirtualSwitch shards,
 * steers 100k packets to them by symmetric RSS over their five-tuples,
 * polls a lock-free snapshot while the dataplane runs, and prints the
 * per-worker and aggregate accounting once everything has drained.
 *
 * The run is fully instrumented with the obs/ layer:
 *  - each worker records HALO_STAGE spans (batches, EMC probes,
 *    tuple-space searches) into a private ring, drained afterwards into
 *    runtime_demo.trace.json — open it in chrome://tracing or
 *    https://ui.perfetto.dev;
 *  - a background sampler snapshots the published counters every 2 ms
 *    and the demo prints the resulting time series;
 *  - the final counters render as Prometheus text exposition.
 *
 *   $ ./build/examples/runtime_demo
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "flow/ruleset.hh"
#include "obs/metrics.hh"
#include "runtime/runtime.hh"

using namespace halo;

int
main()
{
    // 1. A deterministic workload: 5000 flows, and a rule set whose
    //    megaflow entries cover them.
    const TrafficConfig traffic = TrafficGenerator::scenarioConfig(
        TrafficScenario::SmallFlowCount, 5000);
    TrafficGenerator gen(traffic);
    const RuleSet rules = scenarioRules(TrafficScenario::SmallFlowCount,
                                        gen.flows(), 0x707);

    // 2. Four workers, each with a private simulated memory and switch
    //    shard. Symmetric RSS keeps both directions of a connection on
    //    the same shard; a full ring drops (counted) rather than
    //    blocking the producer. traceCapacity gives each worker a
    //    16Ki-event trace ring; the sampler snapshots every 2 ms.
    RuntimeConfig cfg;
    cfg.numWorkers = 4;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 32;
    cfg.rss.symmetric = true;
    cfg.enqueueRetries = 4096; // bounded yields before dropping
    cfg.traceCapacity = 1 << 14;
    cfg.samplerIntervalMicros = 2000;

    const std::uint64_t packets = 100000;
    Runtime rt(cfg, rules);

    // 3. run() owns the lifecycle (start, sampler, drain, stop); the
    //    producer callable feeds packets and, meanwhile, watches
    //    progress without locks — any thread may. Sleep between polls:
    //    on small hosts a spinning observer starves the workers.
    const RuntimeReport rep = rt.run([&] {
        rt.startProducer(traffic, packets);
        RuntimeSnapshot live = rt.snapshot();
        while (live.offered < packets) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            live = rt.snapshot();
            std::printf("  in flight: offered %8llu  processed %8llu\n",
                        static_cast<unsigned long long>(live.offered),
                        static_cast<unsigned long long>(live.processed));
        }
        rt.joinProducer();
    });

    // 4. Exact post-stop reduction: published counters, SwitchTotals
    //    from each shard, and batch-latency percentiles from the merged
    //    per-worker HdrHistograms.
    for (std::size_t w = 0; w < rep.workers.size(); ++w) {
        const WorkerReport &wr = rep.workers[w];
        std::printf("worker %zu: %8llu pkts  %7llu emc hits  "
                    "batch p50 %6.1f us  p99 %6.1f us\n",
                    w,
                    static_cast<unsigned long long>(wr.counters.packets),
                    static_cast<unsigned long long>(wr.counters.emcHits),
                    wr.batchP50Nanos / 1e3, wr.batchP99Nanos / 1e3);
    }
    std::printf("aggregate: offered %llu, enqueued %llu, processed "
                "%llu, drops %llu, matched %llu, batch p99 %.1f us\n",
                static_cast<unsigned long long>(rep.aggregate.offered),
                static_cast<unsigned long long>(rep.aggregate.enqueued),
                static_cast<unsigned long long>(rep.aggregate.processed),
                static_cast<unsigned long long>(
                    rep.aggregate.ringFullDrops),
                static_cast<unsigned long long>(rep.aggregate.matched),
                rep.batchP99Nanos / 1e3);

    // 5. The sampler's time series: processed-count over the run.
    std::printf("\nsampler series (%zu samples):\n",
                rep.samples.samples());
    for (std::size_t i = 0; i < rep.samples.samples(); ++i)
        std::printf("  t=%6.2f ms  offered %8.0f  processed %8.0f\n",
                    rep.samples.tNanos[i] / 1e6,
                    rep.samples.rows[i][0], rep.samples.rows[i][1]);

    // 6. Drain the per-worker trace rings into one Chrome trace.
    {
        std::ofstream trace("runtime_demo.trace.json");
        rt.writeChromeTrace(trace);
    }
    std::printf("\nwrote runtime_demo.trace.json — open in "
                "chrome://tracing or https://ui.perfetto.dev\n");

    // 7. Everything above, one more way: the unified metrics namespace
    //    rendered as Prometheus text exposition.
    obs::MetricsRegistry reg;
    reg.counter("halo_rt_offered", {}, double(rep.aggregate.offered));
    reg.counter("halo_rt_processed", {},
                double(rep.aggregate.processed));
    reg.counter("halo_rt_ring_full_drops", {},
                double(rep.aggregate.ringFullDrops));
    for (std::size_t w = 0; w < rep.workers.size(); ++w) {
        const std::string id = std::to_string(w);
        reg.counter("halo_worker_packets", {{"worker", id}},
                    double(rep.workers[w].counters.packets));
        reg.gauge("halo_worker_batch_p99_us", {{"worker", id}},
                  rep.workers[w].batchP99Nanos / 1e3);
    }
    std::printf("\n%s", reg.renderPrometheus().c_str());

    return rep.aggregate.processed == rep.aggregate.enqueued ? 0 : 1;
}

/**
 * @file
 * The multi-worker dataplane runtime façade.
 *
 * Spawns N shared-nothing Workers (each a private VirtualSwitch shard
 * behind an SPSC ring), steers traffic to them with RSS dispatch, and
 * aggregates per-worker statistics without locks. A producer — either
 * the built-in thread driving net::TrafficGenerator or any single
 * caller thread using offer() — hashes each packet's five-tuple and
 * enqueues it on the owning worker's ring. Backpressure is accounted,
 * never blocking: a full ring costs the producer at most
 * `enqueueRetries` bounded yields before the packet is counted as a
 * ring-full drop.
 *
 * Lifecycle: start() → startProducer()/offer() → joinProducer() →
 * drain() → stop() → report(). run() bundles the whole sequence.
 * One EpochClock (steady, or a test's manual clock) schedules and
 * hosts every sleep of the workers, revalidator and elastic controller.
 * snapshot() may be called from any thread at any point in between
 * (relaxed-atomic reads of the workers' published counters).
 *
 * This layer scales the *host* datapath only. The simulated-cycle
 * benchmarks stay single-threaded by design: each shard's simulated
 * clock, caches and accelerator state advance deterministically within
 * one thread, and nothing here is allowed to perturb that.
 */

#ifndef HALO_RUNTIME_RUNTIME_HH
#define HALO_RUNTIME_RUNTIME_HH

#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "net/traffic_gen.hh"
#include "obs/metrics.hh"
#include "obs/perf.hh"
#include "obs/sampler.hh"
#include "runtime/elastic_controller.hh"
#include "runtime/epoch_clock.hh"
#include "runtime/revalidator.hh"
#include "runtime/rss.hh"
#include "runtime/worker.hh"
#include "vswitch/shard_config.hh"

namespace halo {

/// Retained-sample ceiling for the sampler series: at the cap it is
/// decimated in place (obs::Sampler::Options::maxSamples).
inline constexpr std::size_t samplerMaxSamples = 512;

/** Runtime configuration; the shard config is replicated per worker. */
struct RuntimeConfig
{
    unsigned numWorkers = 2;
    std::size_t ringCapacity = 1024;
    unsigned batchSize = 32;
    std::uint64_t shardMemBytes = 1ull << 30;
    /// Only shard.vswitch is read: every worker runs a functional
    /// switch with no simulated machine. The timing-side fields stay
    /// because the perfbench harness builds its timed replay shard from
    /// this config; drop them with that harness's next revision.
    ShardConfig shard;
    /// rss.numShards is overridden with numWorkers.
    RssConfig rss;
    /// Bounded producer yields before a full ring drops the packet
    /// (0 = drop immediately). Never an unbounded block.
    unsigned enqueueRetries = 0;
    /// Read by nothing: every worker classifies its popped batch in
    /// stages of up to maxBulkLanes packets (VirtualSwitch::processBurst).
    /// Kept only because the perfbench harness still assigns it; drop
    /// it with that harness's next revision.
    unsigned classifyBurst = 1;
    /// Read by nothing: a worker's functional switch has no simulated
    /// cache to warm. Kept only because the perfbench harness reads it
    /// to set up its timed replay shard; drop it with that harness's
    /// next revision.
    bool warmTables = true;
    /// Per-worker trace-event ring slots (0 = tracing off). See
    /// WorkerConfig::traceCapacity.
    std::size_t traceCapacity = 0;
    /// Background sampler period in microseconds (0 = sampler off).
    /// The sampler thread snapshots the published counters and ring
    /// depths into RuntimeReport::samples — relaxed-atomic reads only,
    /// it never touches shard state.
    std::uint64_t samplerIntervalMicros = 0;
    /**
     * Decoupled slow path (the OVS handler/revalidator split):
     * workers never mutate classification state. MegaFlow misses are
     * offloaded over one bounded MPSC ring to a revalidator thread —
     * the single writer — which resolves them against the OpenFlow
     * layer, installs exact-match megaflow entries, and ages idle
     * flows in the background. The megaflow tuple tables run in
     * seqlocked concurrent mode, and the workers' switches run
     * without an EMC (shard.vswitch.useEmc is overridden).
     */
    bool decoupled = false;
    RevalidatorConfig revalidator;
    /**
     * Per-thread PMU attribution (HALO_STAGE): every worker and the
     * revalidator get a PerfRecorder whose perf_event_open group is
     * opened on the owning thread. Open failure (EPERM/ENOENT in
     * containers) degrades to rdtsc-only stage cycles and sets
     * RuntimeReport::perfDegraded.
     */
    bool perfEnabled = false;
    /// One full PMU group read (a syscall) per 2^shift scope entries
    /// per stage; reports scale sampled events back up.
    unsigned perfSampleShift = 6;
    /// Slow-path rules installed into every shard's OpenFlow layer
    /// (required for decoupled mode; also used by inline-upcall
    /// baselines). Read during construction only; may be null.
    const RuleSet *openflowRules = nullptr;
    /**
     * Elastic workers (DESIGN.md §17): a controller thread that
     * aggregates per-shard load each epoch and migrates hot buckets of
     * the fixed-size indirection table with the drain-then-remap
     * protocol. offer() additionally counts per-bucket packet heat and
     * maintains the producer seqlock the migration grace period
     * reads.
     */
    ElasticConfig elastic;
    /// Intra-flow order oracle handed to every worker (null = off);
    /// bench/test instrumentation, see runtime/order_validator.hh.
    FlowOrderValidator *orderValidator = nullptr;
};

/** Lock-free aggregate view; coherent snapshot once workers quiesce. */
struct RuntimeSnapshot
{
    std::uint64_t offered = 0;
    std::uint64_t enqueued = 0;
    std::uint64_t ringFullDrops = 0;
    std::uint64_t processed = 0;
    std::uint64_t batches = 0;
    std::uint64_t matched = 0;
    std::uint64_t emcHits = 0;
    std::uint64_t busyNanos = 0;
    /// Burst windows opened (WorkerCounters::burstWaits), all workers.
    std::uint64_t burstWaits = 0;
    /// @name Decoupled slow path (all zero when cfg.decoupled is off)
    /**@{*/
    std::uint64_t upcallsEnqueued = 0;
    std::uint64_t upcallDrops = 0;
    std::uint64_t upcallRingDepth = 0;
    RevalidatorCounters revalidator;
    /**@}*/
    std::vector<WorkerCounters> perWorker;
};

/** Post-stop per-worker reduction. */
struct WorkerReport
{
    WorkerCounters counters;
    /// Batch wall latency, log-bucketed (bounded memory, mergeable).
    obs::HdrHistogram batchLatency;
    double batchP50Nanos = 0.0;
    double batchP90Nanos = 0.0;
    double batchP99Nanos = 0.0;
    double batchP999Nanos = 0.0;
    /// @name PMU attribution (empty unless cfg.perfEnabled)
    /**@{*/
    bool perfDegraded = false;
    std::vector<obs::PerfStageTotals> perfStages;
    /**@}*/
};

struct RuntimeReport
{
    RuntimeSnapshot aggregate;
    std::vector<WorkerReport> workers;
    /// Cross-worker merge of every batchLatency histogram.
    obs::HdrHistogram batchLatency;
    double batchP50Nanos = 0.0;
    double batchP90Nanos = 0.0;
    double batchP99Nanos = 0.0;
    double batchP999Nanos = 0.0;
    /// Sampler time series (empty unless samplerIntervalMicros > 0).
    /// Columns: offered, processed, ring_full_drops, one
    /// worker<i>_ring_depth per worker, then (decoupled only)
    /// upcall_ring_depth, reval_installs, reval_aged_flows.
    obs::SampleSeries samples;
    /// Producer start → drain end; only set by run().
    double wallSeconds = 0.0;
    /// @name PMU attribution, merged across workers + revalidator
    /// (empty unless cfg.perfEnabled)
    /**@{*/
    bool perfEnabled = false;
    /// True when any thread's perf_event_open failed (rdtsc-only).
    bool perfDegraded = false;
    std::vector<obs::PerfStageTotals> perfStages;
    /**@}*/
};

class Runtime
{
  public:
    /** @p clock: a test's manual clock, outliving the runtime. */
    Runtime(const RuntimeConfig &config, const RuleSet &rules,
            EpochClock *clock = nullptr);
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    unsigned numWorkers() const
    {
        return static_cast<unsigned>(workers_.size());
    }
    Worker &worker(unsigned i) { return *workers_.at(i); }
    RssDispatcher &dispatcher() { return rss_; }
    EpochClock &clock() { return clock_; }
    /** Null unless cfg.decoupled. */
    Revalidator *revalidator() { return reval_.get(); }
    /** Null unless cfg.decoupled. */
    MpscRing<UpcallRequest> *upcallRing() { return upcallRing_.get(); }
    /** Null unless cfg.elastic.enabled. */
    ElasticController *elastic() { return elastic_.get(); }
    /** Producer offer seqlock (odd = dispatch in flight); only bumped
     *  when cfg.elastic.enabled. Exposed so tests can build their own
     *  ElasticController::Hooks against a live runtime. */
    const std::atomic<std::uint64_t> &offerSeq() const
    {
        return offerSeq_;
    }

    /** Spawn the worker threads. */
    void start();

    /**
     * Producer-side: steer one packet to its shard. Single producer at
     * a time — either call this from exactly one thread, or use
     * startProducer(), never both concurrently.
     * @return false when the packet was dropped (ring full after the
     *         configured bounded retries).
     */
    bool offer(Packet &&packet, const FiveTuple &tuple);

    /** Spawn the producer thread: @p packets five-tuples drawn from a
     *  TrafficGenerator(@p traffic), materialized and dispatched. */
    void startProducer(const TrafficConfig &traffic,
                       std::uint64_t packets);
    void joinProducer();

    /** Call after the producer has quiesced. Returns once every worker
     *  has processed its ring's pushedCount() and the revalidator has
     *  handled every request the workers enqueued. */
    void drain();

    /** Request worker exit (post-drain) and join all threads. */
    void stop();

    /** Lock-free aggregate of the published counters; any thread. */
    RuntimeSnapshot snapshot() const;

    /**
     * Attach this runtime's live telemetry to @p registry: runtime
     * offered/enqueued/drop counters, per-worker packet/upcall/ring
     * series, per-worker EMC probe counters, per-worker seqlock-retry
     * sums over the shard's megaflow tables, revalidator counters, RSS
     * rebalance stats, and — when cfg.perfEnabled — per-worker
     * per-stage PMU series (cycles, LLC misses, ...).
     *
     * Every attached source is a relaxed-atomic read, so the registry
     * may be rendered (e.g. by a PromHttpExporter) while the runtime
     * is live. The registry must not outlive this Runtime. Call after
     * construction, any time before or during the run.
     */
    void registerMetrics(obs::MetricsRegistry &registry);

    /** @name Background sampler (cfg.samplerIntervalMicros > 0)
     *  run() manages the lifecycle itself; manual drivers call these
     *  around their produce/drain sequence. */
    /**@{*/
    void startSampler();
    void stopSampler();
    /**@}*/

    /** Full reduction incl. per-worker counters and latency percentiles
     *  (merged per-worker HdrHistograms). Only valid after stop(). */
    RuntimeReport report() const;

    /** Drain every worker's TraceRecorder into one Chrome trace_event
     *  JSON (open in chrome://tracing or Perfetto). Only valid after
     *  stop(); empty trace when cfg.traceCapacity was 0. */
    void writeChromeTrace(std::ostream &os) const;

    /** start → sampler → @p produce (an offer() loop, or
     *  startProducer() + joinProducer()) → drain → stop → report;
     *  wallSeconds covers produce + drain. */
    RuntimeReport run(const std::function<void()> &produce);
    /** run() driven by the built-in TrafficGenerator producer. */
    RuntimeReport run(const TrafficConfig &traffic,
                      std::uint64_t packets);

  private:
    RuntimeConfig cfg;
    EpochClock steadyClock_;
    EpochClock &clock_; ///< steadyClock_ unless a test passed its own
    RssDispatcher rss_;
    /// Decoupled slow path (order matters: rings and activities must
    /// outlive the workers holding pointers into them).
    std::unique_ptr<MpscRing<UpcallRequest>> upcallRing_;
    std::vector<std::unique_ptr<FlowActivity>> activities_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<Revalidator> reval_;
    std::unique_ptr<ElasticController> elastic_;
    std::thread producer_;
    std::unique_ptr<obs::Sampler> sampler_;

    PublishedCounter offered_;
    PublishedCounter drops_;
    /// Producer offer seqlock for the migration grace period (odd
    /// while a dispatch's table-read+push is in flight).
    std::atomic<std::uint64_t> offerSeq_{0};
};

} // namespace halo

#endif // HALO_RUNTIME_RUNTIME_HH

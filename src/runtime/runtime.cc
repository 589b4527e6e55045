#include "runtime/runtime.hh"

#include <chrono>
#include <string>

namespace halo {

Runtime::Runtime(const RuntimeConfig &config, const RuleSet &rules,
                 EpochClock *clock)
    : cfg(config),
      clock_(clock ? *clock : steadyClock_),
      rss_([&] {
          RssConfig rc = config.rss;
          rc.numShards = config.numWorkers;
          return rc;
      }())
{
    HALO_ASSERT(cfg.numWorkers > 0, "runtime needs at least one worker");
    if (cfg.decoupled) {
        HALO_ASSERT(cfg.openflowRules,
                    "decoupled mode needs OpenFlow slow-path rules");
        upcallRing_ =
            std::make_unique<MpscRing<UpcallRequest>>(
                cfg.revalidator.ringCapacity);
        activities_.reserve(cfg.numWorkers);
        for (unsigned w = 0; w < cfg.numWorkers; ++w)
            activities_.push_back(std::make_unique<FlowActivity>());
    }
    // Per-shard estimators feed the adaptive EMC policy, whose
    // revalidator loop closes their windows.
    if (cfg.decoupled && cfg.emcPolicy.adaptive) {
        estimators_.reserve(cfg.numWorkers);
        for (unsigned w = 0; w < cfg.numWorkers; ++w)
            estimators_.push_back(
                std::make_unique<ShardFlowEstimator>(
                    emcEstimatorBits,
                    cfg.emcPolicy.estimatorSampleShift));
    }
    workers_.reserve(cfg.numWorkers);
    for (unsigned w = 0; w < cfg.numWorkers; ++w) {
        WorkerConfig wc;
        wc.id = w;
        wc.ringCapacity = cfg.ringCapacity;
        wc.batchSize = cfg.batchSize;
        wc.shardMemBytes = cfg.shardMemBytes;
        wc.vswitch = cfg.shard.vswitch;
        wc.traceCapacity = cfg.traceCapacity;
        wc.perfEnabled = cfg.perfEnabled;
        wc.perfSampleShift = cfg.perfSampleShift;
        wc.orderValidator = cfg.orderValidator;
        if (!estimators_.empty())
            wc.flowEstimator = estimators_[w].get();
        if (cfg.decoupled) {
            wc.vswitch.useOpenflowLayer = true;
            wc.vswitch.deferSlowPath = true;
            wc.upcallRing = upcallRing_.get();
            wc.activity = activities_[w].get();
            wc.promoteSampleShift = cfg.promoteSampleShift;
        }
        workers_.push_back(std::make_unique<Worker>(wc, rules, clock_));
    }

    if (cfg.openflowRules) {
        for (auto &w : workers_)
            w->vswitch().installOpenflowRules(*cfg.openflowRules);
    }

    if (cfg.decoupled) {
        // Arm the single-writer protocol while still single-threaded:
        // pre-create the exact-mask tuple every install targets (so
        // the tuple vector and the SimMemory allocator never mutate
        // at runtime), then turn on seqlocked concurrent mode for the
        // megaflow tables and the EMC of every shard.
        std::vector<Revalidator::ShardHooks> hooks;
        hooks.reserve(workers_.size());
        for (unsigned w = 0; w < workers_.size(); ++w) {
            VirtualSwitch &vs = workers_[w]->vswitch();
            Revalidator::ShardHooks h;
            h.vswitch = &vs;
            h.activity = activities_[w].get();
            h.exactTuple = vs.tupleSpace().ensureTuple(FlowMask::exact());
            for (unsigned t = 0; t < vs.tupleSpace().numTuples(); ++t)
                vs.tupleSpace().table(t).enableConcurrent();
            vs.emc().enableConcurrent();
            if (cfg.emcPolicy.adaptive)
                h.estimator = estimators_[w].get();
            hooks.push_back(h);
        }
        RevalidatorConfig rc = cfg.revalidator;
        if (!rc.traceCapacity)
            rc.traceCapacity = cfg.traceCapacity;
        rc.perfEnabled = cfg.perfEnabled;
        rc.perfSampleShift = cfg.perfSampleShift;
        rc.emcPolicy = cfg.emcPolicy;
        reval_ = std::make_unique<Revalidator>(rc, *upcallRing_,
                                               std::move(hooks), clock_);
        for (auto &w : workers_)
            w->attachRevalidator(reval_.get());
    }

    if (cfg.elastic.enabled) {
        ElasticController::Hooks eh;
        eh.rss = &rss_;
        for (auto &w : workers_)
            eh.workers.push_back(w.get());
        eh.offerSeq = &offerSeq_;
        elastic_ = std::make_unique<ElasticController>(cfg.elastic, eh,
                                                       clock_);
    }
}

Runtime::~Runtime()
{
    if (producer_.joinable())
        producer_.join();
    stop();
}

void
Runtime::start()
{
    if (reval_)
        reval_->start();
    for (auto &w : workers_)
        w->start();
    if (elastic_)
        elastic_->start();
}

bool
Runtime::offer(Packet &&packet, const FiveTuple &tuple)
{
    offered_.add(1);
    // Offer seqlock: odd while the table read + push is in flight.
    // The elastic controller's migration grace waits for an even
    // value after flipping an entry, so no dispatch steered by the
    // old mapping can land after the migration fence is captured.
    // The seq_cst enter pairs Dekker-style with setEntry's seq_cst
    // CAS (see ElasticController::producerGrace).
    if (elastic_)
        offerSeq_.fetch_add(1, std::memory_order_seq_cst);
    const unsigned bucket = rss_.bucketFor(tuple);
    if (elastic_)
        rss_.notePacket(bucket); // packet heat only the controller reads
    Worker &w = *workers_[rss_.entry(bucket)];
    bool pushed = false;
    for (unsigned attempt = 0;; ++attempt) {
        if (w.ring().tryPush(std::move(packet))) {
            pushed = true;
            break;
        }
        if (attempt >= cfg.enqueueRetries)
            break;
        std::this_thread::yield();
    }
    if (elastic_)
        offerSeq_.fetch_add(1, std::memory_order_release);
    if (pushed)
        return true;
    drops_.add(1);
    return false;
}

void
Runtime::startProducer(const TrafficConfig &traffic,
                       std::uint64_t packets)
{
    HALO_ASSERT(!producer_.joinable(), "producer already running");
    producer_ = std::thread([this, traffic, packets] {
        TrafficGenerator gen(traffic);
        for (std::uint64_t i = 0; i < packets; ++i) {
            const FiveTuple &tuple = gen.nextTuple();
            offer(Packet::fromTuple(tuple), tuple);
        }
    });
}

void
Runtime::joinProducer()
{
    if (producer_.joinable())
        producer_.join();
}

void
Runtime::drain()
{
    // Published counts, not empty rings: a popped batch or upcall chunk
    // is still being handled until its consumer publishes the count.
    std::uint64_t requests = 0;
    for (auto &w : workers_) {
        while (w->counters().packets < w->ring().pushedCount())
            std::this_thread::yield();
        const WorkerCounters c = w->counters();
        requests += c.upcallsEnqueued + c.promotesEnqueued;
    }
    while (reval_ && reval_->counters().upcallsProcessed < requests)
        std::this_thread::yield();
}

void
Runtime::stop()
{
    // The elastic controller goes first so no migration is in flight
    // while workers wind down (any armed gate still clears:
    // the source drains on stop).
    if (elastic_) {
        elastic_->requestStop();
        elastic_->join();
    }
    // Workers first (they produce upcalls), then the revalidator: its
    // drain-on-stop consumes whatever is still queued before exiting.
    for (auto &w : workers_)
        w->requestStop();
    for (auto &w : workers_)
        w->join();
    if (reval_) {
        reval_->requestStop();
        reval_->join();
    }
}

RuntimeSnapshot
Runtime::snapshot() const
{
    // Worker counts first: a packet is offered and pushed before any
    // worker counts it, so processed <= enqueued <= offered holds.
    RuntimeSnapshot s;
    s.perWorker.reserve(workers_.size());
    for (const auto &w : workers_) {
        const WorkerCounters c = w->counters();
        s.processed += c.packets;
        s.batches += c.batches;
        s.matched += c.matched;
        s.emcHits += c.emcHits;
        s.busyNanos += c.busyNanos;
        s.burstWaits += c.burstWaits;
        s.upcallsEnqueued += c.upcallsEnqueued;
        s.promotesEnqueued += c.promotesEnqueued;
        s.upcallDrops += c.upcallDrops;
        s.perWorker.push_back(c);
    }
    for (const auto &w : workers_) // each push publishes its count
        s.enqueued += w->ring().pushedCount();
    s.offered = offered_.value();
    s.ringFullDrops = drops_.value();
    if (reval_) {
        s.revalidator = reval_->counters();
        s.upcallRingDepth = upcallRing_->size();
    }
    return s;
}

namespace {

/**
 * Attach one PerfRecorder's per-stage series under @p labels: one per
 * obs::kStageNames entry, so every stage has its series (at zero)
 * before its first scope runs.
 */
void
registerPerfRecorder(obs::MetricsRegistry &reg,
                     const obs::PerfRecorder &rec,
                     const obs::MetricLabels &labels)
{
    reg.attach("halo_perf_degraded", labels, obs::MetricKind::Gauge,
               [&rec] { return rec.degraded() ? 1.0 : 0.0; });
    for (std::size_t s = 0; s < obs::numStages; ++s) {
        const auto id = static_cast<std::uint16_t>(s);
        obs::MetricLabels l = labels;
        l.emplace_back("stage", obs::stageName(id));
        reg.attach("halo_perf_stage_entries", l,
                   obs::MetricKind::Counter, [&rec, id] {
                       return static_cast<double>(
                           rec.stage(id).entries);
                   });
        reg.attach("halo_perf_stage_tsc_cycles", l,
                   obs::MetricKind::Counter, [&rec, id] {
                       return static_cast<double>(
                           rec.stage(id).tscCycles);
                   });
        for (unsigned e = 0; e < obs::numPerfEvents; ++e) {
            reg.attach(std::string("halo_perf_stage_") +
                           obs::perfEventName(e),
                       l, obs::MetricKind::Counter, [&rec, id, e] {
                           return rec.stage(id).estimatedEvents(e);
                       });
        }
    }
}

} // namespace

void
Runtime::registerMetrics(obs::MetricsRegistry &reg)
{
    reg.attachCounter("halo_rt_offered", {}, offered_);
    reg.attach("halo_rt_enqueued", {}, obs::MetricKind::Counter,
               [this] { return static_cast<double>(snapshot().enqueued); });
    reg.attachCounter("halo_rt_ring_full_drops", {}, drops_);

    // Megaflow-table sums are attached only while the tuple vector is
    // guaranteed stable for the whole run: decoupled mode pre-creates
    // the exact tuple (single-writer protocol), and plain fast-path
    // mode never installs at runtime. Inline-upcall mode may grow the
    // vector on the worker thread, which a render-time walk must not
    // race.
    const bool tables_stable =
        cfg.decoupled || !cfg.shard.vswitch.useOpenflowLayer;

    for (std::size_t i = 0; i < workers_.size(); ++i) {
        Worker *w = workers_[i].get();
        const obs::MetricLabels l = {{"worker", std::to_string(i)}};
        const struct
        {
            const char *name;
            std::uint64_t WorkerCounters::*field;
        } worker_series[] = {
            {"halo_worker_packets", &WorkerCounters::packets},
            {"halo_worker_batches", &WorkerCounters::batches},
            {"halo_worker_matched", &WorkerCounters::matched},
            {"halo_worker_emc_hits", &WorkerCounters::emcHits},
            {"halo_worker_busy_nanos", &WorkerCounters::busyNanos},
            {"halo_worker_upcalls_enqueued",
             &WorkerCounters::upcallsEnqueued},
            {"halo_worker_promotes_enqueued",
             &WorkerCounters::promotesEnqueued},
            {"halo_worker_upcall_drops", &WorkerCounters::upcallDrops},
            {"halo_rt_worker_burst_waits", &WorkerCounters::burstWaits},
        };
        for (const auto &s : worker_series) {
            auto field = s.field;
            reg.attach(s.name, l, obs::MetricKind::Counter, [w, field] {
                return static_cast<double>(w->counters().*field);
            });
        }
        reg.attach("halo_worker_ring_depth", l,
                   obs::MetricKind::Gauge, [w] {
                       return static_cast<double>(w->ring().size());
                   });

        // Seqlock retries live on the tables; sum them per worker
        // (relaxed counter reads on stable objects).
        const ExactMatchCache *emc = &w->vswitch().emc();

        // EMC cache-management telemetry (relaxed counter/gauge reads;
        // the adaptive controller drives enabled, and the probe
        // counters tick in every mode).
        reg.attach("halo_emc_lookup_hits", l, obs::MetricKind::Counter,
                   [emc] {
                       return static_cast<double>(emc->lookupHits());
                   });
        reg.attach("halo_emc_lookup_misses", l,
                   obs::MetricKind::Counter, [emc] {
                       return static_cast<double>(
                           emc->lookupMisses());
                   });
        reg.attach("halo_emc_enabled", l, obs::MetricKind::Gauge,
                   [emc] { return emc->enabled() ? 1.0 : 0.0; });
        reg.attach("halo_emc_evict_overwrites", l,
                   obs::MetricKind::Counter, [emc] {
                       return static_cast<double>(
                           emc->evictOverwrites());
                   });
        reg.attach("halo_emc_clears", l, obs::MetricKind::Counter,
                   [emc] {
                       return static_cast<double>(emc->clearCount());
                   });
        if (const ShardFlowEstimator *est = flowEstimator(
                static_cast<unsigned>(i))) {
            reg.attach("halo_emc_estimated_flows", l,
                       obs::MetricKind::Gauge,
                       [est] { return est->lastEstimate(); });
        }
        std::vector<const CuckooHashTable *> tables;
        if (tables_stable) {
            TupleSpace &ts = w->vswitch().tupleSpace();
            for (unsigned t = 0; t < ts.numTuples(); ++t)
                tables.push_back(&ts.table(t));
        }
        reg.attach("halo_worker_seqlock_retries", l,
                   obs::MetricKind::Counter, [emc, tables] {
                       std::uint64_t sum = emc->seqlockRetries();
                       for (const CuckooHashTable *t : tables)
                           sum += t->seqlockRetries();
                       return static_cast<double>(sum);
                   });
    }

    if (reval_) {
        reg.attach("halo_upcall_ring_depth", {},
                   obs::MetricKind::Gauge, [this] {
                       return static_cast<double>(
                           upcallRing_->size());
                   });
        Revalidator *rv = reval_.get();
        const struct
        {
            const char *name;
            std::uint64_t RevalidatorCounters::*field;
        } reval_series[] = {
            {"halo_reval_upcalls_processed",
             &RevalidatorCounters::upcallsProcessed},
            {"halo_reval_dedup_hits", &RevalidatorCounters::dedupHits},
            {"halo_reval_installs", &RevalidatorCounters::installs},
            {"halo_reval_install_failures",
             &RevalidatorCounters::installFailures},
            {"halo_reval_unresolved",
             &RevalidatorCounters::unresolved},
            {"halo_reval_promotes", &RevalidatorCounters::promotes},
            {"halo_reval_sweeps", &RevalidatorCounters::sweeps},
            {"halo_reval_aged_flows", &RevalidatorCounters::agedFlows},
            {"halo_reval_aged_emc", &RevalidatorCounters::agedEmc},
            // Promotes dropped while the controller has the EMC off.
            {"halo_emc_promotes_throttled",
             &RevalidatorCounters::promotesThrottled},
            {"halo_emc_ctrl_disables",
             &RevalidatorCounters::ctrlDisables},
            {"halo_emc_ctrl_enables",
             &RevalidatorCounters::ctrlEnables},
            {"halo_reval_parks", &RevalidatorCounters::parks},
        };
        for (const auto &s : reval_series) {
            auto field = s.field;
            reg.attach(s.name, {}, obs::MetricKind::Counter,
                       [rv, field] {
                           return static_cast<double>(
                               rv->counters().*field);
                       });
        }
    }

    rss_.registerMetrics(reg);
    if (elastic_)
        elastic_->registerMetrics(reg);

    // Per-thread, per-stage PMU series.
    bool any_perf = false;
    for (const auto &w : workers_)
        any_perf |= w->perfRecorder() != nullptr;
    any_perf |= reval_ && reval_->perfRecorder();
    if (any_perf) {
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            if (const obs::PerfRecorder *pr =
                    workers_[i]->perfRecorder())
                registerPerfRecorder(
                    reg, *pr, {{"worker", std::to_string(i)}});
        }
        if (reval_ && reval_->perfRecorder())
            registerPerfRecorder(reg, *reval_->perfRecorder(),
                                 {{"thread", "revalidator"}});
    }
}

void
Runtime::startSampler()
{
    if (cfg.samplerIntervalMicros == 0 || sampler_)
        return;
    std::vector<std::string> columns = {"offered", "processed",
                                        "ring_full_drops"};
    for (std::size_t w = 0; w < workers_.size(); ++w)
        columns.push_back("worker" + std::to_string(w) + "_ring_depth");
    if (upcallRing_)
        columns.push_back("upcall_ring_depth");
    if (reval_) {
        // Revalidator-side series: cumulative microflow installs and
        // aged-out entries (megaflow + EMC) per sample row, so a churn
        // run shows install/aging progress, not just worker progress.
        columns.push_back("reval_installs");
        columns.push_back("reval_aged_flows");
    }
    if (!estimators_.empty()) {
        // Adaptive-EMC series: summed flow estimate across shards,
        // plus how many shards still probe their EMC — the sampler
        // view of hybrid-mode decisions over time.
        columns.push_back("emc_estimated_flows");
        columns.push_back("emc_enabled_shards");
    }
    if (elastic_) {
        // Elastic series: the controller's last per-shard load
        // snapshot plus the migration count, so a run shows the
        // balance converging (busy fractions) and what it cost
        // (migrations) over time.
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            columns.push_back("worker" + std::to_string(w) +
                              "_busy_fraction");
            columns.push_back("worker" + std::to_string(w) +
                              "_ring_hwm");
        }
        columns.push_back("ctrl_migrations");
    }
    // The sample function runs on the sampler thread and restricts
    // itself to relaxed-atomic reads (published counters, ring
    // indices) per the stats threading contract.
    sampler_ = std::make_unique<obs::Sampler>(
        std::move(columns), [this]() {
            std::vector<double> row;
            row.reserve(4 + workers_.size());
            row.push_back(static_cast<double>(offered_.value()));
            std::uint64_t processed = 0;
            for (const auto &w : workers_)
                processed += w->counters().packets;
            row.push_back(static_cast<double>(processed));
            row.push_back(static_cast<double>(drops_.value()));
            for (const auto &w : workers_)
                row.push_back(static_cast<double>(w->ring().size()));
            if (upcallRing_)
                row.push_back(
                    static_cast<double>(upcallRing_->size()));
            if (reval_) {
                const RevalidatorCounters rc = reval_->counters();
                row.push_back(static_cast<double>(rc.installs));
                row.push_back(static_cast<double>(rc.agedFlows +
                                                  rc.agedEmc));
            }
            if (!estimators_.empty()) {
                double est = 0.0, on = 0.0;
                for (std::size_t w = 0; w < workers_.size(); ++w) {
                    est += estimators_[w]->lastEstimate();
                    on += workers_[w]->vswitch().emc().enabled() ? 1.0
                                                                 : 0.0;
                }
                row.push_back(est);
                row.push_back(on);
            }
            if (elastic_) {
                for (std::size_t w = 0; w < workers_.size(); ++w) {
                    const ShardLoadSnapshot s =
                        elastic_->shardLoad(
                            static_cast<unsigned>(w));
                    row.push_back(s.busyFraction);
                    row.push_back(
                        static_cast<double>(s.ringDepthHwm));
                }
                row.push_back(static_cast<double>(
                    elastic_->counters().migrations));
            }
            return row;
        });
    sampler_->start(
        std::chrono::microseconds(cfg.samplerIntervalMicros),
        samplerMaxSamples);
}

void
Runtime::stopSampler()
{
    if (sampler_)
        sampler_->stop();
}

RuntimeReport
Runtime::report() const
{
    RuntimeReport rep;
    rep.aggregate = snapshot();
    rep.perfEnabled = cfg.perfEnabled;
    rep.workers.reserve(workers_.size());
    for (const auto &w : workers_) {
        WorkerReport wr;
        wr.counters = w->counters();
        wr.batchLatency = w->batchHistogram();
        wr.batchP50Nanos = wr.batchLatency.percentile(0.50);
        wr.batchP90Nanos = wr.batchLatency.percentile(0.90);
        wr.batchP99Nanos = wr.batchLatency.percentile(0.99);
        wr.batchP999Nanos = wr.batchLatency.percentile(0.999);
        rep.batchLatency.merge(wr.batchLatency);
        if (const obs::PerfRecorder *pr = w->perfRecorder()) {
            wr.perfDegraded = pr->degraded();
            wr.perfStages = obs::perfSnapshotStages(*pr);
            rep.perfDegraded |= wr.perfDegraded;
            obs::perfMergeStages(rep.perfStages, wr.perfStages);
        }
        rep.workers.push_back(std::move(wr));
    }
    if (reval_) {
        if (const obs::PerfRecorder *pr = reval_->perfRecorder()) {
            rep.perfDegraded |= pr->degraded();
            obs::perfMergeStages(rep.perfStages,
                                 obs::perfSnapshotStages(*pr));
        }
    }
    rep.batchP50Nanos = rep.batchLatency.percentile(0.50);
    rep.batchP90Nanos = rep.batchLatency.percentile(0.90);
    rep.batchP99Nanos = rep.batchLatency.percentile(0.99);
    rep.batchP999Nanos = rep.batchLatency.percentile(0.999);
    if (sampler_ && !sampler_->running())
        rep.samples = sampler_->series();
    return rep;
}

void
Runtime::writeChromeTrace(std::ostream &os) const
{
    std::vector<obs::TraceThread> threads;
    threads.reserve(workers_.size() + 1);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        obs::TraceThread t;
        t.recorder = workers_[w]->traceRecorder();
        t.label = "worker" + std::to_string(w);
        t.tid = static_cast<unsigned>(w + 1);
        threads.push_back(std::move(t));
    }
    if (reval_ && reval_->traceRecorder()) {
        obs::TraceThread t;
        t.recorder = reval_->traceRecorder();
        t.label = "revalidator";
        t.tid = static_cast<unsigned>(workers_.size() + 1);
        threads.push_back(std::move(t));
    }
    obs::writeChromeTrace(os, threads);
}

RuntimeReport
Runtime::run(const std::function<void()> &produce)
{
    using SteadyClock = std::chrono::steady_clock;
    start();
    startSampler();
    const auto t0 = SteadyClock::now();
    produce();
    drain();
    const auto t1 = SteadyClock::now();
    stopSampler();
    stop();
    RuntimeReport rep = report();
    rep.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return rep;
}

RuntimeReport
Runtime::run(const TrafficConfig &traffic, std::uint64_t packets)
{
    return run([&] { startProducer(traffic, packets); joinProducer(); });
}

} // namespace halo

#include "runtime/revalidator.hh"

#include <chrono>

#include "runtime/rss.hh"
#include "sim/logging.hh"

namespace halo {

Revalidator::Revalidator(const RevalidatorConfig &config,
                         MpscRing<UpcallRequest> &ring,
                         std::vector<ShardHooks> shards)
    : cfg(config), ring_(ring), shards_(std::move(shards))
{
    HALO_ASSERT(!shards_.empty(), "revalidator needs at least one shard");
    for (const ShardHooks &s : shards_)
        HALO_ASSERT(s.vswitch && s.activity,
                    "revalidator shard hooks incomplete");
    drainBuf_.resize(std::max(cfg.drainBatch, 1u));
    ctl_.resize(shards_.size());
    tracked_.reserve(
        std::min<std::size_t>(cfg.maxTrackedFlows, 1u << 16));
    if (cfg.traceCapacity)
        trace_ = std::make_unique<obs::TraceRecorder>(cfg.traceCapacity);
    if (cfg.perfEnabled)
        perf_ = std::make_unique<obs::PerfRecorder>(cfg.perfSampleShift);
}

Revalidator::~Revalidator()
{
    requestStop();
    if (thread_.joinable())
        thread_.join();
}

void
Revalidator::start()
{
    HALO_ASSERT(!thread_.joinable(), "revalidator already started");
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { threadMain(); });
}

void
Revalidator::requestStop()
{
    stop_.store(true, std::memory_order_release);
}

void
Revalidator::join()
{
    if (thread_.joinable())
        thread_.join();
}

RevalidatorCounters
Revalidator::counters() const
{
    RevalidatorCounters c;
    c.upcallsProcessed = upcallsProcessed_.value();
    c.dedupHits = dedupHits_.value();
    c.installs = installs_.value();
    c.installFailures = installFailures_.value();
    c.unresolved = unresolved_.value();
    c.promotes = promotes_.value();
    c.sweeps = sweeps_.value();
    c.agedFlows = agedFlows_.value();
    c.agedEmc = agedEmc_.value();
    c.promotesThrottled = promotesThrottled_.value();
    c.ctrlDisables = ctrlDisables_.value();
    c.ctrlEnables = ctrlEnables_.value();
    c.ctrlResizes = ctrlResizes_.value();
    return c;
}

void
Revalidator::threadMain()
{
    using SteadyClock = std::chrono::steady_clock;
    const auto sweep_interval =
        std::chrono::microseconds(cfg.sweepIntervalMicros);

    if (perf_)
        perf_->openThisThread();
    const obs::StageRecorders prev_rec =
        obs::installStageRecorders({trace_.get(), perf_.get()});

    auto next_sweep = SteadyClock::now() + sweep_interval;
    while (true) {
        const std::size_t n =
            ring_.popBatch(drainBuf_.data(), drainBuf_.size());
        if (n) {
            HALO_STAGE("revalidator/drain");
            for (std::size_t i = 0; i < n; ++i)
                handle(drainBuf_[i]);
            upcallsProcessed_.add(n);
        }

        const auto now = SteadyClock::now();
        if (now >= next_sweep) {
            sweep();
            next_sweep = now + sweep_interval;
        }

        if (n == 0) {
            // Drain-on-stop: exit only once the ring is observed empty
            // after a stop request (the workers have quiesced by then).
            if (stop_.load(std::memory_order_acquire))
                break;
            std::this_thread::yield();
        }
    }

    obs::installStageRecorders(prev_rec);
}

void
Revalidator::handle(const UpcallRequest &rq)
{
    HALO_ASSERT(rq.worker < shards_.size(), "upcall from unknown shard");
    if (rq.kind == UpcallRequest::Kind::Miss)
        handleMiss(rq);
    else
        handlePromote(rq);
}

void
Revalidator::handleMiss(const UpcallRequest &rq)
{
    HALO_STAGE("revalidator/upcall");
    const ShardHooks &s = shards_[rq.worker];
    const auto key = rq.tuple.toKey();
    TupleSpace &tuples = s.vswitch->tupleSpace();
    CuckooHashTable &exact = tuples.table(s.exactTuple);

    // Dedup: duplicate Miss upcalls race the install (worker-side
    // suppression is best effort); an already-installed flow is done.
    if (exact.lookup(KeyView(key.data(), key.size()))) {
        dedupHits_.add(1);
        return;
    }

    // The slow path proper: best-priority search of the OpenFlow
    // layer. Functional reads only — this thread is the layer's sole
    // user at runtime, so no concurrent mode is needed there.
    const auto best = s.vswitch->openflowLayer().lookupBest(
        std::span<const std::uint8_t>(key.data(), key.size()));
    if (!best) {
        unresolved_.add(1);
        return;
    }

    // Install an exact-match megaflow entry (microflow semantics, the
    // entries churn creates and aging removes). The stored value keeps
    // the OpenFlow rule's encoded action + priority.
    if (!exact.insert(KeyView(key.data(), key.size()), best->value)) {
        installFailures_.add(1);
        return;
    }
    installs_.add(1);
    // A new megaflow entry is a live flow in its indirection bucket;
    // the charge is reversed when aging evicts the entry. EMC
    // promotions are not counted — the flow's megaflow entry already
    // is.
    if (rss_)
        rss_->noteNewFlow(rq.tuple);

    TrackedFlow flow;
    flow.key = key;
    flow.tuple = rq.tuple;
    flow.hash = activityHash(key);
    flow.installEpoch = s.activity->epoch();
    flow.shard = rq.worker;
    flow.emc = false;
    track(std::move(flow));
}

void
Revalidator::handlePromote(const UpcallRequest &rq)
{
    HALO_STAGE("revalidator/promote");
    const ShardHooks &s = shards_[rq.worker];
    const auto key = rq.tuple.toKey();
    const std::span<const std::uint8_t, FiveTuple::keyBytes> key_span(
        key);

    ExactMatchCache &emc = s.vswitch->emc();
    if (cfg.emcPolicy.adaptive) {
        // Requests racing a controller disable still drain here; drop
        // them (the workers stop producing once they see the flag).
        if (!emc.enabled()) {
            promotesThrottled_.add(1);
            return;
        }
        // Occupancy-aware admission: under pressure only 1-in-2^shift
        // promotions go in, so a full cache isn't churned wholesale by
        // flows that will never repeat. Counter-phased, not random —
        // determinism is a test invariant.
        ShardControl &ctl = ctl_[rq.worker];
        if (ctl.throttleShift &&
            (ctl.promoteTick++ &
             ((1ull << ctl.throttleShift) - 1)) != 0) {
            promotesThrottled_.add(1);
            return;
        }
    }
    if (emc.lookup(key_span)) {
        dedupHits_.add(1);
        return;
    }
    emc.insert(key_span, rq.value);
    promotes_.add(1);

    TrackedFlow flow;
    flow.key = key;
    flow.tuple = rq.tuple;
    flow.hash = activityHash(key);
    flow.installEpoch = s.activity->epoch();
    flow.shard = rq.worker;
    flow.emc = true;
    track(std::move(flow));
}

void
Revalidator::controlEpoch()
{
    HALO_STAGE("revalidator/control");
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const ShardHooks &s = shards_[i];
        if (!s.estimator)
            continue;
        ExactMatchCache &emc = s.vswitch->emc();

        const ShardFlowEstimator::Window win =
            s.estimator->closeWindow();
        EmcControlInputs in;
        in.estimate = win.estimate;
        in.samples = win.samples;
        in.saturated = win.saturated;
        in.enabled = emc.enabled();
        in.activeEntries = emc.activeEntries();
        in.maxEntries = emc.entryCount();
        in.liveEntries = emc.liveEntries();
        in.currentThrottleShift = ctl_[i].throttleShift;

        const EmcControlDecision d =
            decideEmcPolicy(cfg.emcPolicy, in);
        ctl_[i].throttleShift = d.throttleShift;
        const auto shard = static_cast<std::uint16_t>(i);
        switch (d.action) {
          case EmcControlDecision::Action::Disable:
            // Flag first (workers stop probing), then invalidate so a
            // later re-enable starts cold instead of serving stale
            // entries.
            emc.setEnabled(false);
            emc.clear();
            dropTrackedEmc(shard);
            ctrlDisables_.add(1);
            break;
          case EmcControlDecision::Action::Enable:
            if (d.targetEntries != emc.activeEntries())
                emc.setActiveEntries(d.targetEntries);
            emc.setEnabled(true);
            ctrlEnables_.add(1);
            break;
          case EmcControlDecision::Action::Resize:
            emc.setActiveEntries(d.targetEntries);
            dropTrackedEmc(shard);
            ctrlResizes_.add(1);
            break;
          case EmcControlDecision::Action::None:
            break;
        }
    }
}

void
Revalidator::dropTrackedEmc(std::uint16_t shard)
{
    // The shard's EMC generation was just bumped: its tracked entries
    // no longer exist, so aging them later would only waste erases.
    for (std::size_t i = 0; i < tracked_.size();) {
        if (tracked_[i].emc && tracked_[i].shard == shard) {
            tracked_[i] = std::move(tracked_.back());
            tracked_.pop_back();
        } else {
            ++i;
        }
    }
}

bool
Revalidator::evict(const TrackedFlow &flow)
{
    const ShardHooks &s = shards_[flow.shard];
    const KeyView key(flow.key.data(), flow.key.size());
    if (flow.emc) {
        return s.vswitch->emc().erase(
            std::span<const std::uint8_t, FiveTuple::keyBytes>(
                flow.key));
    }
    return s.vswitch->tupleSpace().table(s.exactTuple).erase(key);
}

void
Revalidator::track(TrackedFlow &&flow)
{
    if (tracked_.size() >= cfg.maxTrackedFlows) {
        // At the cap: evict one tracked flow round-robin so the new
        // install stays accounted for (untracked entries would never
        // age).
        evictCursor_ %= tracked_.size();
        if (evict(tracked_[evictCursor_])) {
            if (tracked_[evictCursor_].emc) {
                agedEmc_.add(1);
            } else {
                agedFlows_.add(1);
                if (rss_)
                    rss_->noteFlowEnd(tracked_[evictCursor_].tuple);
            }
        }
        tracked_[evictCursor_] = std::move(flow);
        ++evictCursor_;
        return;
    }
    tracked_.push_back(std::move(flow));
}

void
Revalidator::sweep()
{
    HALO_STAGE("revalidator/sweep");
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const ShardHooks &s = shards_[i];
        s.activity->advanceEpoch();
        const CuckooHashTable &exact =
            s.vswitch->tupleSpace().table(s.exactTuple);
        ctl_[i].idleTimeout = flowIdleTimeoutEpochs(
            exact.size(), exact.capacity(), cfg.idleTimeoutEpochs);
        // Managed EMC inserts stamp the epoch into the slot's freed
        // signature-word bytes; keep it in step for recency-informed
        // eviction.
        ExactMatchCache &emc = s.vswitch->emc();
        if (emc.managedEnabled())
            emc.setEpoch(
                static_cast<std::uint16_t>(s.activity->epoch()));
    }

    if (cfg.emcPolicy.adaptive &&
        ++sweepsSinceControl_ >= cfg.emcPolicy.controlIntervalSweeps) {
        sweepsSinceControl_ = 0;
        controlEpoch();
    }

    // Swap-pop walk: a flow idle past the timeout is erased from its
    // table and dropped from tracking. `max(stamp, installEpoch)`
    // grants fresh installs a full timeout even before their first
    // fast-path packet stamps the activity slot.
    for (std::size_t i = 0; i < tracked_.size();) {
        const TrackedFlow &flow = tracked_[i];
        const ShardHooks &s = shards_[flow.shard];
        const std::uint64_t cur = s.activity->epoch();
        const std::uint64_t last =
            std::max(s.activity->stamp(flow.hash), flow.installEpoch);
        if (cur - last <= ctl_[flow.shard].idleTimeout) {
            ++i;
            continue;
        }
        if (evict(flow)) {
            if (flow.emc) {
                agedEmc_.add(1);
            } else {
                agedFlows_.add(1);
                if (rss_)
                    rss_->noteFlowEnd(flow.tuple);
            }
        }
        tracked_[i] = std::move(tracked_.back());
        tracked_.pop_back();
    }
    // Published last, so a reader that sees the count knows the sweep
    // (epoch advance, control pass and aging walk) has finished.
    sweeps_.add(1);
}

} // namespace halo

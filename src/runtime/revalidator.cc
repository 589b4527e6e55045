#include "runtime/revalidator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace halo {

std::uint64_t
flowIdleTimeoutEpochs(std::uint64_t occupancy, std::uint64_t capacity,
                      std::uint64_t configured)
{
    if (4 * occupancy >= 3 * capacity)
        return std::min<std::uint64_t>(configured, 1);
    return configured;
}

Revalidator::Revalidator(const RevalidatorConfig &config,
                         MpscRing<UpcallRequest> &ring,
                         std::vector<ShardHooks> shards, EpochClock &clock)
    : cfg(config), ring_(ring), shards_(std::move(shards)), clock_(clock)
{
    HALO_ASSERT(!shards_.empty(), "revalidator needs at least one shard");
    for (const ShardHooks &s : shards_)
        HALO_ASSERT(s.vswitch && s.activity,
                    "revalidator shard hooks incomplete");
    drainBuf_.resize(std::max(cfg.drainBatch, 1u));
    idleTimeout_.resize(shards_.size());
    tracked_.reserve(
        std::min<std::size_t>(revalidatorMaxTrackedFlows, 1u << 16));
    if (cfg.traceCapacity)
        trace_ = std::make_unique<obs::TraceRecorder>(cfg.traceCapacity);
    if (cfg.perfEnabled)
        perf_ = std::make_unique<obs::PerfRecorder>(cfg.perfSampleShift);
}

Revalidator::~Revalidator()
{
    requestStop();
    join();
}

void
Revalidator::start()
{
    HALO_ASSERT(!thread_.joinable(), "revalidator already started");
    stop_.store(false, std::memory_order_release);
    // Here, not on the thread: a manual clock may advance right away.
    nextSweep_ = clock_.nowMicros() + cfg.sweepIntervalMicros;
    thread_ = std::thread([this] { threadMain(); });
}

void
Revalidator::requestStop()
{
    stop_.store(true, std::memory_order_release);
    clock_.notify();
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
    c.sweeps = sweeps_.value();
    c.agedFlows = agedFlows_.value();
    c.parks = parks_.value();
    return c;
}

void
Revalidator::threadMain()
{
    if (perf_)
        perf_->openThisThread();
    const obs::StageRecorders prev_rec =
        obs::installStageRecorders({trace_.get(), perf_.get()});

    while (true) {
        const std::size_t n =
            ring_.popBatch(drainBuf_.data(), drainBuf_.size());
        if (n) {
            HALO_STAGE("revalidator/drain");
            for (std::size_t i = 0; i < n; ++i)
                handle(drainBuf_[i]);
            upcallsProcessed_.add(n);
        }

        const std::uint64_t now = clock_.nowMicros();
        if (now >= nextSweep_) {
            sweep();
            nextSweep_ = now + cfg.sweepIntervalMicros;
        }

        if (n == 0) {
            // Drain-on-stop: exit only once the ring is observed empty
            // after a stop request (the workers have quiesced by then).
            if (stop_.load(std::memory_order_acquire))
                break;
            // Park until the next sweep, an upcall or stop.
            parks_.add(1);
            clock_.park(parked_, nextSweep_, [this] {
                return stop_.load(std::memory_order_acquire) ||
                       !ring_.empty();
            });
        }
    }

    obs::installStageRecorders(prev_rec);
}

void
Revalidator::handle(const UpcallRequest &rq)
{
    HALO_STAGE("revalidator/upcall");
    HALO_ASSERT(rq.worker < shards_.size(), "upcall from unknown shard");
    const ShardHooks &s = shards_[rq.worker];
    const auto key = rq.tuple.toKey();
    TupleSpace &tuples = s.vswitch->tupleSpace();
    CuckooHashTable &exact = tuples.table(s.exactTuple);

    // Dedup: duplicate upcalls race the install (worker-side
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

    TrackedFlow flow;
    flow.key = key;
    flow.hash = activityHash(key);
    flow.installEpoch = s.activity->epoch();
    flow.shard = rq.worker;
    track(std::move(flow));
}

bool
Revalidator::evict(const TrackedFlow &flow)
{
    const ShardHooks &s = shards_[flow.shard];
    const KeyView key(flow.key.data(), flow.key.size());
    return s.vswitch->tupleSpace().table(s.exactTuple).erase(key);
}

void
Revalidator::track(TrackedFlow &&flow)
{
    if (tracked_.size() >= revalidatorMaxTrackedFlows) {
        // At the cap: evict one tracked flow round-robin so the new
        // install stays accounted for (untracked entries would never
        // age).
        evictCursor_ %= tracked_.size();
        if (evict(tracked_[evictCursor_]))
            agedFlows_.add(1);
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
        idleTimeout_[i] = flowIdleTimeoutEpochs(
            exact.size(), exact.capacity(), cfg.idleTimeoutEpochs);
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
        if (cur - last <= idleTimeout_[flow.shard]) {
            ++i;
            continue;
        }
        if (evict(flow))
            agedFlows_.add(1);
        tracked_[i] = std::move(tracked_.back());
        tracked_.pop_back();
    }
    // Published last, so a reader that sees the count knows the sweep
    // (epoch advance and aging walk) has finished.
    sweeps_.add(1);
}

} // namespace halo

#include "runtime/elastic_controller.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace halo {

namespace {

/** Hot shard's buckets, hottest first, from the epoch heat map. */
std::vector<unsigned>
bucketsByHeat(const RebalanceInputs &in, unsigned shard)
{
    std::vector<unsigned> out;
    for (unsigned b = 0; b < in.buckets.size(); ++b)
        if (in.buckets[b].shard == shard)
            out.push_back(b);
    std::sort(out.begin(), out.end(), [&](unsigned a, unsigned b) {
        return in.buckets[a].packets > in.buckets[b].packets;
    });
    return out;
}

} // namespace

RebalanceDecision
decideRebalance(const ElasticConfig &cfg, const RebalanceInputs &in,
                ElasticEpochState &state)
{
    RebalanceDecision d;
    const unsigned n = static_cast<unsigned>(in.shards.size());
    if (n == 0)
        return d;

    double sum = 0.0, maxBusy = 0.0;
    unsigned hot = 0;
    for (unsigned i = 0; i < n; ++i) {
        const double b = in.shards[i].busyFraction;
        sum += b;
        if (b > maxBusy) {
            maxBusy = b;
            hot = i;
        }
    }
    const double meanBusy = sum / static_cast<double>(n);
    d.maxBusy = maxBusy;
    d.meanBusy = meanBusy;

    // Per-shard packet sums from the bucket heat map (decision input
    // for victim selection; busy fractions drive detection).
    std::vector<std::uint64_t> shardPk(n, 0);
    for (const BucketLoad &b : in.buckets)
        if (b.shard < n)
            shardPk[b.shard] += b.packets;

    // The streak advances even through cooldown so a persistent
    // imbalance fires the moment the cooldown expires.
    d.imbalanced = n > 1 && maxBusy > cfg.minBusyToAct &&
                   maxBusy > elasticImbalanceRatio * meanBusy;
    state.imbalancedEpochs =
        d.imbalanced ? state.imbalancedEpochs + 1 : 0;

    if (state.cooldown) {
        --state.cooldown;
        return d;
    }
    if (!d.imbalanced || state.imbalancedEpochs < cfg.hysteresisEpochs)
        return d;

    // Migrate away from the hot shard after the hysteresis streak.
    // Damped: move about half the excess per epoch, coldest targets
    // first, so the loop converges instead of sloshing.
    std::uint64_t totalPk = 0;
    for (unsigned i = 0; i < n; ++i)
        totalPk += shardPk[i];
    const std::uint64_t meanPk = totalPk / n;
    if (shardPk[hot] > meanPk) {
        const std::uint64_t excess = shardPk[hot] - meanPk;
        std::vector<std::pair<std::uint64_t, unsigned>> targets;
        for (unsigned i = 0; i < n; ++i)
            if (i != hot)
                targets.emplace_back(shardPk[i], i);
        std::uint64_t moved = 0;
        for (unsigned b : bucketsByHeat(in, hot)) {
            if (d.migrations.size() >= cfg.maxMigrationsPerEpoch)
                break;
            const std::uint64_t pk = in.buckets[b].packets;
            if (!pk || moved * 2 >= excess)
                break;
            // A bucket hotter than the whole excess stays: moving it
            // would only flip the imbalance to its destination.
            if (pk > excess)
                continue;
            auto dest = std::min_element(targets.begin(), targets.end());
            d.migrations.push_back({b, hot, dest->second});
            dest->first += pk;
            moved += pk;
        }
    }
    if (!d.migrations.empty()) {
        state.imbalancedEpochs = 0;
        state.cooldown = cfg.cooldownEpochs;
    }
    return d;
}

ElasticController::ElasticController(const ElasticConfig &config,
                                     Hooks hooks, EpochClock &clock)
    : cfg(config), hooks_(std::move(hooks)), clock_(clock),
      lastEpochMicros_(clock.nowMicros())
{
    HALO_ASSERT(hooks_.rss, "elastic controller needs a dispatcher");
    HALO_ASSERT(!hooks_.workers.empty(),
                "elastic controller needs workers");
    const std::size_t n = hooks_.workers.size();
    prevPackets_.assign(n, 0);
    prevBusy_.assign(n, 0);
    loads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        loads_.push_back(std::make_unique<PublishedLoad>());
}

ElasticController::~ElasticController()
{
    requestStop();
    join();
}

void
ElasticController::start()
{
    HALO_ASSERT(!thread_.joinable(), "controller already started");
    stop_.store(false, std::memory_order_release);
    // Here, not on the thread: a manual clock may advance right away.
    lastEpochMicros_ = clock_.nowMicros();
    thread_ = std::thread([this] { threadMain(); });
}

void
ElasticController::requestStop()
{
    stop_.store(true, std::memory_order_release);
    clock_.notify();
}

void
ElasticController::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
ElasticController::threadMain()
{
    while (!clock_.waitUntil(
        lastEpochMicros_ + cfg.controlIntervalMicros,
        [this] { return stop_.load(std::memory_order_acquire); }))
        runEpoch();
}

template <typename Pred>
bool
ElasticController::boundedWait(std::uint64_t micros, Pred pred) const
{
    const std::uint64_t deadline = clock_.nowMicros() + micros;
    while (!pred()) {
        if (clock_.nowMicros() >= deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

void
ElasticController::producerGrace() const
{
    if (!hooks_.offerSeq)
        return;
    // Dekker pairing with the producer: our setEntry CAS (seq_cst) is
    // ordered before this read; the producer's seqlock enter (seq_cst
    // RMW) is ordered before its table read. Whichever happened first,
    // either we see the odd sequence and wait the dispatch out, or the
    // dispatch sees the new mapping.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint64_t s =
        hooks_.offerSeq->load(std::memory_order_acquire);
    if (s & 1) {
        boundedWait(migrationTimeoutMicros, [this, s] {
            return hooks_.offerSeq->load(
                       std::memory_order_acquire) != s;
        });
    }
}

void
ElasticController::runEpoch()
{
    const std::uint64_t now = clock_.nowMicros();
    const std::uint64_t wall = (now - lastEpochMicros_) * 1000;
    lastEpochMicros_ = now;

    const std::size_t n = hooks_.workers.size();
    std::vector<ShardLoadSnapshot> shards(n);
    for (std::size_t i = 0; i < n; ++i) {
        Worker *w = hooks_.workers[i];
        const WorkerCounters c = w->counters();
        ShardLoadSnapshot &s = shards[i];
        s.packets = c.packets - prevPackets_[i];
        s.busyNanos = c.busyNanos - prevBusy_[i];
        prevPackets_[i] = c.packets;
        prevBusy_[i] = c.busyNanos;
        s.busyFraction =
            wall ? std::min(1.0, static_cast<double>(s.busyNanos) /
                                     static_cast<double>(wall))
                 : 0.0;
        s.ringDepthHwm = w->takeRingDepthHwm();

        PublishedLoad &p = *loads_[i];
        p.packets.store(s.packets, std::memory_order_relaxed);
        p.busyNanos.store(s.busyNanos, std::memory_order_relaxed);
        p.busyMicroFraction.store(
            static_cast<std::uint64_t>(s.busyFraction * 1e6),
            std::memory_order_relaxed);
        p.ringDepthHwm.store(s.ringDepthHwm,
                             std::memory_order_relaxed);
    }

    const unsigned tb = hooks_.rss->tableEntries();
    std::vector<BucketLoad> buckets(tb);
    for (unsigned b = 0; b < tb; ++b) {
        buckets[b].shard = hooks_.rss->entry(b);
        buckets[b].packets = hooks_.rss->takeBucketPackets(b);
    }

    // Forced migrations (ops/test hook) run first, with the full
    // protocol, re-sourced from the current mapping.
    std::vector<RebalanceDecision::Migration> forced;
    {
        std::lock_guard<std::mutex> lk(forcedMtx_);
        forced.swap(forced_);
    }
    for (auto &m : forced) {
        if (m.bucket >= tb)
            continue;
        m.from = hooks_.rss->entry(m.bucket);
        migrateBuckets(std::span<const RebalanceDecision::Migration>(
                           &m, 1),
                       migrationTimeoutMicros);
    }

    RebalanceInputs in;
    in.shards = shards;
    in.buckets = buckets;
    const RebalanceDecision d = decideRebalance(cfg, in, state_);
    actuate(d);
    epochs_.add(1);
}

void
ElasticController::actuate(const RebalanceDecision &d)
{
    // Migrations grouped by source worker, one group's gates cleared
    // before the next group flips: only one source is ever "drained
    // against" at a time, so a gated destination never has to make
    // progress for any armed gate to clear (no A⇄B deadlock).
    std::vector<RebalanceDecision::Migration> ms = d.migrations;
    std::stable_sort(ms.begin(), ms.end(),
                     [](const auto &a, const auto &b) {
                         return a.from < b.from;
                     });
    std::size_t i = 0;
    while (i < ms.size()) {
        std::size_t j = i;
        while (j < ms.size() && ms[j].from == ms[i].from)
            ++j;
        migrateBuckets(
            std::span<const RebalanceDecision::Migration>(
                ms.data() + i, j - i),
            migrationTimeoutMicros);
        i = j;
    }
}

void
ElasticController::migrateBuckets(
    std::span<const RebalanceDecision::Migration> group,
    std::uint64_t waitMicros)
{
    if (group.empty())
        return;
    const unsigned src = group.front().from;
    if (src >= hooks_.workers.size())
        return;
    Worker *source = hooks_.workers[src];

    // Validate the group against the current mapping.
    std::vector<RebalanceDecision::Migration> live;
    std::vector<unsigned> dests;
    for (const auto &m : group) {
        if (m.from != src || m.to >= hooks_.workers.size() ||
            m.bucket >= hooks_.rss->tableEntries())
            continue;
        if (hooks_.rss->entry(m.bucket) != m.from ||
            m.to == m.from)
            continue;
        live.push_back(m);
        if (std::find(dests.begin(), dests.end(), m.to) ==
            dests.end())
            dests.push_back(m.to);
    }
    if (live.empty())
        return;

    // Gate BEFORE flip: every destination is armed with an
    // unreachable hold fence first, so a post-flip packet of a moved
    // flow can never be processed while the source still holds
    // pre-flip packets. The real fence is published only after the
    // flip and the producer grace.
    constexpr std::uint64_t kHold =
        std::numeric_limits<std::uint64_t>::max();
    std::vector<unsigned> armed;
    for (unsigned d : dests) {
        Worker *dst = hooks_.workers[d];
        if (boundedWait(migrationTimeoutMicros, [dst, source] {
                return dst->armMigrationGate(source, kHold);
            }))
            armed.push_back(d);
        else
            gateTimeouts_.add(1);
    }
    if (armed.empty())
        return;

    std::uint64_t flipped = 0;
    for (const auto &m : live) {
        // A flip whose destination could not be gated would run
        // unprotected; skip it (the timeout already flagged the bug).
        if (std::find(armed.begin(), armed.end(), m.to) ==
            armed.end())
            continue;
        hooks_.rss->setEntry(m.bucket, m.to);
        ++flipped;
    }

    producerGrace();
    const std::uint64_t fence = source->ring().pushedCount();
    for (unsigned d : armed)
        hooks_.workers[d]->setMigrationGateFence(fence);
    migrations_.add(flipped);

    if (waitMicros) {
        for (unsigned d : armed) {
            Worker *dst = hooks_.workers[d];
            if (!boundedWait(waitMicros, [dst] {
                    return !dst->migrationGateActive();
                })) {
                // Slow drain (CPU oversubscription): stop blocking the
                // control loop, but never force-clear — the fence is
                // already published, so the gate self-clears on the
                // destination thread and ordering stays intact.
                gateTimeouts_.add(1);
            }
        }
    }
}

void
ElasticController::requestMigration(unsigned bucket, unsigned dest)
{
    std::lock_guard<std::mutex> lk(forcedMtx_);
    forced_.push_back({bucket, 0, dest});
}

bool
ElasticController::anyGateActive() const
{
    for (Worker *w : hooks_.workers)
        if (w->migrationGateActive())
            return true;
    return false;
}

ElasticCounters
ElasticController::counters() const
{
    ElasticCounters c;
    c.epochs = epochs_.value();
    c.migrations = migrations_.value();
    c.gateTimeouts = gateTimeouts_.value();
    return c;
}

ShardLoadSnapshot
ElasticController::shardLoad(unsigned shard) const
{
    ShardLoadSnapshot s;
    if (shard >= loads_.size())
        return s;
    const PublishedLoad &p = *loads_[shard];
    s.packets = p.packets.load(std::memory_order_relaxed);
    s.busyNanos = p.busyNanos.load(std::memory_order_relaxed);
    s.busyFraction =
        static_cast<double>(p.busyMicroFraction.load(
            std::memory_order_relaxed)) /
        1e6;
    s.ringDepthHwm =
        p.ringDepthHwm.load(std::memory_order_relaxed);
    return s;
}

void
ElasticController::registerMetrics(obs::MetricsRegistry &reg)
{
    reg.attachCounter("halo_ctrl_epochs", {}, epochs_);
    reg.attachCounter("halo_ctrl_migrations", {}, migrations_);
    reg.attachCounter("halo_ctrl_gate_timeouts", {}, gateTimeouts_);
    for (std::size_t i = 0; i < loads_.size(); ++i) {
        const PublishedLoad *p = loads_[i].get();
        const obs::MetricLabels l = {{"worker", std::to_string(i)}};
        reg.attach("halo_shard_busy_fraction", l,
                   obs::MetricKind::Gauge, [p] {
                       return static_cast<double>(
                                  p->busyMicroFraction.load(
                                      std::memory_order_relaxed)) /
                              1e6;
                   });
        reg.attach("halo_shard_ring_depth_hwm", l,
                   obs::MetricKind::Gauge, [p] {
                       return static_cast<double>(
                           p->ringDepthHwm.load(
                               std::memory_order_relaxed));
                   });
    }
}

} // namespace halo

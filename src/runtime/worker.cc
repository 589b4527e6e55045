#include "runtime/worker.hh"

#include <chrono>
#include <ctime>

namespace halo {

namespace {

/**
 * Per-thread CPU time. Immune to preemption and timeslicing, which is
 * what makes per-worker throughput honest on oversubscribed hosts: a
 * worker's packets / busyNanos is its single-core processing rate even
 * when many workers share one physical core.
 */
std::uint64_t
threadCpuNanos()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
#endif
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Worker::Worker(const WorkerConfig &config, const RuleSet &rules)
    : cfg(config),
      mem_(cfg.shardMemBytes),
      vs_(mem_, cfg.vswitch),
      ring_(cfg.ringCapacity)
{
    vs_.installRules(rules);
    batchBuf_.resize(cfg.batchSize);
    if (cfg.traceCapacity)
        trace_ = std::make_unique<obs::TraceRecorder>(cfg.traceCapacity);
    if (cfg.perfEnabled)
        perf_ = std::make_unique<obs::PerfRecorder>(cfg.perfSampleShift);
    if (cfg.upcallRing) {
        recentMiss_.resize(1024);
        rng_ = 0x9e3779b97f4a7c15ull ^ (cfg.id + 1);
    }
    if (cfg.activity)
        vs_.setActivityTracker(cfg.activity);
    if (cfg.flowEstimator)
        vs_.setFlowEstimator(cfg.flowEstimator);
}

Worker::~Worker()
{
    requestStop();
    if (thread_.joinable())
        thread_.join();
}

void
Worker::start()
{
    HALO_ASSERT(!thread_.joinable(), "worker already started");
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { threadMain(); });
}

void
Worker::requestStop()
{
    stop_.store(true, std::memory_order_release);
    // A parked thread must see the stop: notify under the lock so the
    // store cannot slip into the window between the condvar's predicate
    // check and its wait.
    {
        std::lock_guard<std::mutex> lk(parkMtx_);
    }
    parkCv_.notify_all();
}

void
Worker::requestPark()
{
    parkRequested_.store(true, std::memory_order_release);
}

void
Worker::requestUnpark()
{
    {
        std::lock_guard<std::mutex> lk(parkMtx_);
        parkRequested_.store(false, std::memory_order_release);
    }
    parkCv_.notify_all();
}

bool
Worker::armMigrationGate(const Worker *source, std::uint64_t fence)
{
    if (gateSource_.load(std::memory_order_acquire))
        return false;
    gateFence_.store(fence, std::memory_order_relaxed);
    gateSource_.store(source, std::memory_order_release);
    return true;
}

void
Worker::join()
{
    if (thread_.joinable())
        thread_.join();
}

WorkerCounters
Worker::counters() const
{
    WorkerCounters c;
    c.packets = packets_.value();
    c.batches = batches_.value();
    c.matched = matched_.value();
    c.emcHits = emcHits_.value();
    c.busyNanos = busyNanos_.value();
    c.upcallsEnqueued = upcallsEnqueued_.value();
    c.promotesEnqueued = promotesEnqueued_.value();
    c.upcallDrops = upcallDrops_.value();
    c.parks = parks_.value();
    return c;
}

void
Worker::offload(const PacketResult &res)
{
    HALO_STAGE("worker/offload");
    ++packetSeq_;
    if (res.slowPathPending) {
        // Dedup window: while a flow's install is in flight every one
        // of its packets reports slowPathPending; one upcall is
        // enough. Entries expire after ~4096 packets so a dropped
        // upcall gets re-sent instead of wedging the flow.
        const auto key = res.tuple.toKey();
        const std::uint64_t h = activityHash(
            std::span<const std::uint8_t>(key.data(), key.size()));
        MissEntry &e = recentMiss_[h & (recentMiss_.size() - 1)];
        if (e.hash == h && packetSeq_ - e.seenAt < 4096)
            return;
        e.hash = h;
        e.seenAt = packetSeq_;
        UpcallRequest rq;
        rq.kind = UpcallRequest::Kind::Miss;
        rq.worker = static_cast<std::uint16_t>(cfg.id);
        rq.tuple = res.tuple;
        if (cfg.upcallRing->tryPush(rq))
            upcallsEnqueued_.add(1);
        else
            upcallDrops_.add(1);
        return;
    }
    if (res.emcPromote) {
        if (cfg.promoteSampleShift) {
            // xorshift64: sample 1-in-2^shift promotions.
            rng_ ^= rng_ << 13;
            rng_ ^= rng_ >> 7;
            rng_ ^= rng_ << 17;
            if (rng_ & ((1ull << cfg.promoteSampleShift) - 1))
                return;
        }
        UpcallRequest rq;
        rq.kind = UpcallRequest::Kind::Promote;
        rq.worker = static_cast<std::uint16_t>(cfg.id);
        rq.tuple = res.tuple;
        rq.value = res.promoteValue;
        if (cfg.upcallRing->tryPush(rq))
            promotesEnqueued_.add(1);
        else
            upcallDrops_.add(1);
    }
}

void
Worker::threadMain()
{
    using SteadyClock = std::chrono::steady_clock;

    // Route this thread's HALO_STAGE sites (here and down in the
    // vswitch pipeline) into the worker's recorders, if configured. The
    // PMU group must be opened on the measured thread (perf_event_open
    // pid=0 counts the caller).
    if (perf_)
        perf_->openThisThread();
    const obs::StageRecorders prev_rec =
        obs::installStageRecorders({trace_.get(), perf_.get()});

    while (true) {
        // Migration gate: a bucket is being remapped *to* this shard;
        // hold all processing until the source worker has processed
        // past the fence so the moved flows' older packets finish
        // first. The gate always clears: the controller lowers the
        // fence to the source ring's pushedCount, which the source
        // reaches even on stop (drain guarantee).
        if (const Worker *src =
                gateSource_.load(std::memory_order_acquire)) {
            if (src->counters().packets >=
                gateFence_.load(std::memory_order_acquire)) {
                gateSource_.store(nullptr, std::memory_order_release);
            } else {
                std::this_thread::yield();
                continue;
            }
        }

        // Park: controller remapped our buckets away and asked us to
        // quiesce. Condvar wait (bounded, so a stray ring push or a
        // missed edge can never wedge the thread) instead of the
        // busy-poll yield loop.
        if (parkRequested_.load(std::memory_order_acquire) &&
            !stop_.load(std::memory_order_acquire) && ring_.empty()) {
            std::unique_lock<std::mutex> lk(parkMtx_);
            parked_.store(true, std::memory_order_release);
            parks_.add(1);
            while (parkRequested_.load(std::memory_order_acquire) &&
                   !stop_.load(std::memory_order_acquire) &&
                   ring_.empty()) {
                parkCv_.wait_for(lk, std::chrono::milliseconds(1));
            }
            parked_.store(false, std::memory_order_release);
            continue;
        }

        const std::size_t n =
            ring_.popBatch(batchBuf_.data(), cfg.batchSize);
        if (n == 0) {
            // Drain-on-stop: exit only once the ring is observed empty
            // after a stop request (the producer has quiesced by then).
            if (stop_.load(std::memory_order_acquire))
                break;
            std::this_thread::yield();
            continue;
        }

        // Re-check the gate now that packets are in hand: the pre-pop
        // check can miss a gate armed concurrently with the pop (the
        // arm happens-before the producer's post-flip push, so a
        // popped migrated packet implies this load sees the gate).
        // Holding the batch until the gate clears delays packets but
        // never reorders them.
        while (const Worker *src =
                   gateSource_.load(std::memory_order_acquire)) {
            if (src->counters().packets >=
                gateFence_.load(std::memory_order_acquire)) {
                gateSource_.store(nullptr, std::memory_order_release);
                break;
            }
            std::this_thread::yield();
        }

        // Occupancy at pop time = what we took plus what remains.
        const std::uint64_t depth =
            static_cast<std::uint64_t>(n) + ring_.size();
        if (depth > ringHwm_.load(std::memory_order_relaxed))
            ringHwm_.store(depth, std::memory_order_relaxed);

        // Report processing order to the reorder oracle before
        // classification (the loop below consumes the batch in index
        // order).
        if (cfg.orderValidator) [[unlikely]] {
            for (std::size_t i = 0; i < n; ++i)
                cfg.orderValidator->observe(batchBuf_[i]);
        }

        const auto wall0 = SteadyClock::now();
        const std::uint64_t cpu0 = threadCpuNanos();
        std::uint64_t matched = 0;
        std::uint64_t emc_hits = 0;
        {
            HALO_STAGE("worker/batch");
            // Offload right after each packet: the revalidator can
            // install a missed flow while the rest of the batch runs.
            for (std::size_t i = 0; i < n; ++i) {
                const PacketResult r = vs_.processPacket(batchBuf_[i]);
                matched += r.matched ? 1 : 0;
                emc_hits += r.emcHit ? 1 : 0;
                if (cfg.upcallRing)
                    offload(r);
            }
        }
        const std::uint64_t cpu1 = threadCpuNanos();
        const auto wall1 = SteadyClock::now();

        batchHist_.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 -
                                                                 wall0)
                .count()));
        packets_.add(n);
        batches_.add(1);
        matched_.add(matched);
        emcHits_.add(emc_hits);
        busyNanos_.add(cpu1 - cpu0);
    }

    obs::installStageRecorders(prev_rec);
}

} // namespace halo

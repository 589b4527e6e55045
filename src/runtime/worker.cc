#include "runtime/worker.hh"

#include <chrono>
#include <ctime>

#include "hash/seqlock.hh"
#include "runtime/revalidator.hh"

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
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** Monotonic wall time: a vDSO read, no system call (the thread-CPU
 *  clock above is one). */
std::uint64_t
wallNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// While the ring stays empty, the thread-CPU clock is re-read every
/// idleRemarkPolls polls and after any poll longer than
/// descheduledPollNanos: a yield poll takes ~0.45 µs, a switch to
/// another thread and back longer. Together they bound the busy time
/// a batch's estimate can lose to off-CPU idle time
/// (WorkerCounters::busyNanos).
constexpr unsigned idleRemarkPolls = 64;
constexpr std::uint64_t descheduledPollNanos = 2000;

/// Burst window. A batch of at least 2 but fewer than batchSize packets
/// means packets piled up while the worker was busy: traffic is
/// streaming in. Popping again at once would take the next packets a
/// few at a time, moving the ring's slot lines and its tail line
/// between the producer's core and this one for every few packets.
/// Instead the worker pause-spins this long without touching the ring,
/// so the producer fills a burst. 2 µs holds ~10 packets at the
/// producer's ~200 ns/packet floor, and it bounds the delay the window
/// adds to a streaming packet. A batch of 1 or an idle poll never opens
/// it, so a packet that finds the worker idle is popped at once.
constexpr std::uint64_t burstWindowNanos = 2000;

} // namespace

Worker::Worker(const WorkerConfig &config, const RuleSet &rules,
               EpochClock &clock)
    : cfg(config),
      clock_(clock),
      mem_(cfg.shardMemBytes),
      vs_(mem_, cfg.vswitch),
      ring_(cfg.ringCapacity)
{
    vs_.installRules(rules);
    batchBuf_.resize(cfg.batchSize);
    results_.resize(cfg.batchSize);
    if (cfg.traceCapacity)
        trace_ = std::make_unique<obs::TraceRecorder>(cfg.traceCapacity);
    if (cfg.perfEnabled)
        perf_ = std::make_unique<obs::PerfRecorder>(cfg.perfSampleShift);
    if (cfg.upcallRing) {
        HALO_ASSERT(cfg.activity,
                    "a decoupled worker needs its shard's activity");
        recentMiss_.resize(1024);
    }
    if (cfg.activity)
        vs_.setActivityTracker(cfg.activity);
}

Worker::~Worker()
{
    requestStop();
    join();
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
    clock_.notify(); // a parked thread must see the stop
}

void
Worker::requestPark()
{
    parkRequested_.store(true, std::memory_order_release);
}

void
Worker::requestUnpark()
{
    parkRequested_.store(false, std::memory_order_release);
    clock_.notify();
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
    c.upcallDrops = upcallDrops_.value();
    c.parks = parks_.value();
    c.burstWaits = burstWaits_.value();
    return c;
}

bool
Worker::offload(const PacketResult &res)
{
    HALO_STAGE("worker/offload");
    ++packetSeq_;
    if (!res.slowPathPending)
        return false;
    // Dedup window: while a flow's install is in flight every one of
    // its packets reports slowPathPending; one upcall is enough. An
    // entry expires after ~4096 packets, so a dropped upcall gets
    // re-sent instead of wedging the flow, and once the shard's
    // activity epoch moves on: a sweep advances the epoch before it
    // ages anything, so a flow aged out since its upcall is upcalled
    // again rather than left unmatched.
    const std::uint64_t h = activityHash(res.tuple.toKey());
    const std::uint64_t epoch = cfg.activity->epoch();
    MissEntry &e = recentMiss_[h & (recentMiss_.size() - 1)];
    if (e.hash == h && e.epoch == epoch && packetSeq_ - e.seenAt < 4096)
        return false;
    e.hash = h;
    e.seenAt = packetSeq_;
    e.epoch = epoch;
    UpcallRequest rq;
    rq.worker = static_cast<std::uint16_t>(cfg.id);
    rq.tuple = res.tuple;
    const bool pushed = cfg.upcallRing->tryPush(rq);
    (pushed ? upcallsEnqueued_ : upcallDrops_).add(1);
    return pushed;
}

bool
Worker::gateHolds()
{
    const Worker *src = gateSource_.load(std::memory_order_acquire);
    if (!src)
        return false;
    if (src->counters().packets < gateFence_.load(std::memory_order_acquire))
        return true;
    gateSource_.store(nullptr, std::memory_order_release);
    return false;
}

void
Worker::threadMain()
{
    // Route this thread's HALO_STAGE sites (here and down in the
    // vswitch pipeline) into the worker's recorders, if configured. The
    // PMU group must be opened on the measured thread (perf_event_open
    // pid=0 counts the caller).
    if (perf_)
        perf_->openThisThread();
    const obs::StageRecorders prev_rec =
        obs::installStageRecorders({trace_.get(), perf_.get()});

    // Busy-time accounting (WorkerCounters::busyNanos). A mark reads
    // the thread-CPU clock: after each batch is published, after a
    // park, and while the ring stays empty every idleRemarkPolls polls
    // or after a poll long enough to mean the thread was descheduled.
    // idleSince is the wall time read just before the latest mark (or
    // at the latest burst window's open, after the mark), lastPoll the
    // wall time just before the latest pop attempt. Wall
    // clocks are read around CPU clocks, so the wall time subtracted
    // for idle polling never falls short of its CPU time.
    std::uint64_t idleSince = 0;
    std::uint64_t cpuMark = 0;
    std::uint64_t lastPoll = 0;
    unsigned polls = 0;
    /// Polled the ring empty or spun a burst window since the last
    /// batch.
    bool idle = true;
    const auto remark = [&] {
        idleSince = wallNanos();
        cpuMark = threadCpuNanos();
        lastPoll = wallNanos();
        polls = 0;
    };
    remark();
    // One idle iteration: an empty ring or a held migration gate.
    const auto idlePoll = [&] {
        idle = true;
        std::this_thread::yield();
        const std::uint64_t now = wallNanos();
        if (now - lastPoll > descheduledPollNanos ||
            ++polls == idleRemarkPolls)
            remark();
        else
            lastPoll = now;
    };

    while (true) {
        // Migration gate: a bucket is being remapped *to* this shard;
        // hold all processing until the source worker has processed
        // past the fence so the moved flows' older packets finish
        // first. The gate always clears: the controller lowers the
        // fence to the source ring's pushedCount, which the source
        // reaches even on stop (drain guarantee).
        if (gateHolds()) {
            idlePoll();
            continue;
        }

        // Park: asked to quiesce. Sleep on the clock instead of
        // busy-polling; unpark and stop notify it.
        if (parkRequested_.load(std::memory_order_acquire) &&
            !stop_.load(std::memory_order_acquire) && ring_.empty()) {
            parks_.add(1);
            clock_.park(parked_, EpochClock::never, [this] {
                return !parkRequested_.load(std::memory_order_acquire) ||
                       stop_.load(std::memory_order_acquire) ||
                       !ring_.empty();
            });
            // The sleep was off-CPU: start the idle stretch afresh
            // rather than subtract its wall time from the next batch.
            remark();
            idle = true;
            continue;
        }

        const std::size_t n =
            ring_.popBatch(batchBuf_.data(), cfg.batchSize);
        if (n == 0) {
            // Drain-on-stop: exit only once the ring is observed empty
            // after a stop request (the producer has quiesced by then).
            if (stop_.load(std::memory_order_acquire))
                break;
            idlePoll();
            continue;
        }

        // Re-check the gate now that packets are in hand: the pre-pop
        // check can miss a gate armed concurrently with the pop (the
        // arm happens-before the producer's post-flip push, so a
        // popped migrated packet implies this load sees the gate).
        // Holding the batch until the gate clears delays packets but
        // never reorders them. The hold is idle time, timed on the
        // wall clock: no CPU clock is read before the publish below.
        std::uint64_t held = 0;
        if (gateHolds()) [[unlikely]] {
            const std::uint64_t hold_start = wallNanos();
            while (gateHolds())
                std::this_thread::yield();
            held = wallNanos() - hold_start;
        }

        // Occupancy at pop time = what we took plus what remains.
        const std::uint64_t depth =
            static_cast<std::uint64_t>(n) + ring_.size();
        if (depth > ringHwm_.load(std::memory_order_relaxed))
            ringHwm_.store(depth, std::memory_order_relaxed);

        // Report processing order to the reorder oracle before
        // classification (the switch consumes the batch in index
        // order).
        if (cfg.orderValidator) [[unlikely]] {
            for (std::size_t i = 0; i < n; ++i)
                cfg.orderValidator->observe(batchBuf_[i]);
        }

        std::uint64_t matched = 0;
        std::uint64_t emc_hits = 0;
        bool upcalled = false;
        {
            HALO_STAGE("worker/batch");
            vs_.processBurst(std::span<const Packet>(batchBuf_.data(), n),
                             std::span<PacketResult>(results_.data(), n));
            for (std::size_t i = 0; i < n; ++i) {
                const PacketResult &r = results_[i];
                matched += r.matched ? 1 : 0;
                emc_hits += r.emcHit ? 1 : 0;
                if (cfg.upcallRing)
                    upcalled |= offload(r);
            }
        }

        // Publish before any clock is read: a reader waiting on this
        // batch (drain(), a sojourn probe) sees it now. The upcall
        // counters were published by offload() before the count, and
        // the window count is published before it too.
        const bool streaming = n >= 2 && n < cfg.batchSize;
        if (streaming)
            burstWaits_.add(1);
        packets_.add(n);
        batches_.add(1);
        matched_.add(matched);
        emcHits_.add(emc_hits);
        // Once per batch, after the counters: no wake on the packet path.
        if (upcalled && reval_)
            reval_->wake();

        // Bookkeeping, off the packet path: one wall and one CPU read.
        // While the worker stays busy the end of one batch is the start
        // of the next; a batch that follows idle polls subtracts their
        // wall time, which bounds their CPU time from above.
        const std::uint64_t wall = wallNanos();
        const std::uint64_t cpu = threadCpuNanos();
        const std::uint64_t idle_wall =
            (idle ? lastPoll - idleSince : 0) + held;
        const std::uint64_t spent = cpu - cpuMark;
        busyNanos_.add(spent > idle_wall ? spent - idle_wall : 0);
        batchHist_.record(wall - (idle ? lastPoll : idleSince));
        // This read is also the next idle stretch's mark.
        idleSince = lastPoll = wall;
        cpuMark = cpu;
        polls = 0;
        idle = false;

        // Burst window (burstWindowNanos): no ring reads, so the
        // producer's lines stay on its core. It is idle time, kept
        // like an idle poll: the next batch subtracts [open, lastPoll)
        // from its CPU time and its latency starts at the window's end.
        if (streaming) {
            const std::uint64_t open = wallNanos();
            std::uint64_t now = open;
            while (now - open < burstWindowNanos) {
                cpuRelax();
                now = wallNanos();
            }
            idleSince = open;
            lastPoll = now;
            idle = true;
        }
    }

    obs::installStageRecorders(prev_rec);
}

} // namespace halo

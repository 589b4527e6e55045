/**
 * @file
 * One shared-nothing dataplane worker.
 *
 * A Worker owns a private SimMemory and a functional VirtualSwitch over
 * it: the tables and nothing else — no simulated hierarchy, core model
 * or HALO complex, so a packet costs only its classification. No table
 * state is shared between workers, so they scale without any
 * cross-shard synchronization, the NFOS/shared-nothing argument applied
 * to this codebase. Packets arrive through a single-producer ring and
 * are drained in configurable batches; each batch is classified in
 * stages by VirtualSwitch::processBurst (one key per packet, one bulk
 * EMC probe, one bulk tuple-space walk over the EMC misses, then
 * actions and stamps in packet order; a decoupled worker's switch has
 * no EMC, so it walks every packet), and its upcalls are offloaded
 * in packet order. While traffic streams in, a partial batch of
 * several packets opens a short burst window before the next pop, so
 * the ring's lines move between cores once per burst, not once per
 * packet or two.
 *
 * Progress is published after every batch through PublishedCounter
 * (release stores, see sim/stats.hh), before the batch's clock reads:
 * any thread may snapshot a running worker without locks; the exact
 * reduction — the batch-latency HdrHistogram — is read after join(),
 * which orders everything.
 *
 * Observability: per-batch wall latency goes into a fixed-memory
 * obs::HdrHistogram (p50..p999 in bounded space, mergeable across
 * workers) instead of an unbounded vector, and when traceCapacity is
 * nonzero the thread installs a private obs::TraceRecorder so
 * HALO_STAGE sites in the worker and the vswitch pipeline record into
 * it; the runtime drains all recorders into one Chrome trace
 * after stop().
 */

#ifndef HALO_RUNTIME_WORKER_HH
#define HALO_RUNTIME_WORKER_HH

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "flow/flow_activity.hh"
#include "net/packet.hh"
#include "obs/histogram.hh"
#include "obs/stage.hh"
#include "runtime/epoch_clock.hh"
#include "runtime/mpsc_ring.hh"
#include "runtime/order_validator.hh"
#include "runtime/spsc_ring.hh"
#include "runtime/upcall.hh"
#include "mem/sim_memory.hh"
#include "sim/stats.hh"
#include "vswitch/vswitch.hh"

namespace halo {

class Revalidator;

/** Per-worker configuration. */
struct WorkerConfig
{
    unsigned id = 0;
    std::size_t ringCapacity = 1024;
    /// Packets drained per ring visit (DPDK-style burst size).
    unsigned batchSize = 32;
    /// Capacity of the worker's private simulated memory.
    std::uint64_t shardMemBytes = 1ull << 30;
    /// Datapath configuration of the worker's functional switch
    /// (Software mode).
    VSwitchConfig vswitch;
    /// Trace-event ring slots for this worker's TraceRecorder
    /// (0 = no recorder). 16 bytes per slot.
    std::size_t traceCapacity = 0;
    /**
     * Decoupled slow path: deferred megaflow misses are enqueued here
     * (null = inline slow path). The ring is shared with the other
     * workers; the revalidator drains it. Requires the worker's
     * vswitch to run with deferSlowPath, and an activity tracker.
     */
    MpscRing<UpcallRequest> *upcallRing = nullptr;
    /// Flow-activity stamps for revalidator aging (null = off).
    FlowActivity *activity = nullptr;
    /// Install a PerfRecorder on the worker thread so HALO_STAGE sites
    /// attribute PMU counts to pipeline stages. The PMU group is
    /// opened on the worker thread itself; open failure degrades to
    /// rdtsc-only.
    bool perfEnabled = false;
    /// One full PMU group read per 2^shift scope entries per stage.
    unsigned perfSampleShift = 6;
    /// Intra-flow order oracle (null = off): every popped packet is
    /// reported in processing order before classification. Shared by
    /// all workers; observe() is thread-safe.
    FlowOrderValidator *orderValidator = nullptr;
};

/** Plain snapshot of a worker's published counters. */
struct WorkerCounters
{
    std::uint64_t packets = 0;
    std::uint64_t batches = 0;
    std::uint64_t matched = 0;
    std::uint64_t emcHits = 0;
    /**
     * CPU time (CLOCK_THREAD_CPUTIME_ID) the worker spent outside idle
     * polling: classifying batches and the bookkeeping between them.
     * Excludes ring-empty polling, burst windows, gate holds, parking
     * and preemption.
     * The CPU clock (a system call) is read once per batch, after its
     * count is published; while the worker stays busy the end of one
     * batch is the start of the next. A batch popped after idle polls
     * cannot read the clock at its pop, so it counts the CPU time since
     * the last read minus the wall time since then up to its pop,
     * clamped at zero. A burst window is idle time kept the same way:
     * the batch after it subtracts the window's wall time. Wall time
     * bounds CPU time from above, so
     * busyNanos never over-counts. It under-counts by the off-CPU share
     * of the subtracted wall time and by the previous batch's
     * bookkeeping after its read: the idle loop re-reads the CPU clock
     * every 64 polls and after any poll longer than 2 µs, so a batch
     * subtracts at most 64 polls of under 2 µs each. A yield poll takes
     * ~0.45 µs on a 4-vCPU KVM guest, and a switch to another thread
     * and back takes longer than 2 µs, so their off-CPU share is ~0
     * even when workers share a CPU.
     */
    std::uint64_t busyNanos = 0;
    /// Upcalls enqueued to the revalidator (decoupled mode).
    std::uint64_t upcallsEnqueued = 0;
    /// Requests lost to a full upcall ring (drop-not-block).
    std::uint64_t upcallDrops = 0;
    /// Times the thread parked on the clock.
    std::uint64_t parks = 0;
    /// Burst windows opened: after a batch of at least 2 but fewer
    /// than batchSize packets, the worker waits a bounded ~2 µs for
    /// the producer to fill a burst before its next pop.
    std::uint64_t burstWaits = 0;
};

class Worker
{
  public:
    /** Builds the private switch and installs @p rules into it; the
     *  thread is not started until start(). @p clock must outlive it. */
    Worker(const WorkerConfig &config, const RuleSet &rules,
           EpochClock &clock);
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    unsigned id() const { return cfg.id; }

    /** The worker's ingress ring. Single producer: whoever dispatches
     *  to this worker must be one thread at a time. */
    SpscRing<Packet> &ring() { return ring_; }

    /** Decoupled mode: the consumer of cfg.upcallRing, woken after
     *  every batch that pushed upcalls. Call before start(). */
    void attachRevalidator(Revalidator *reval) { reval_ = reval; }

    void start();

    /** Ask the thread to exit once its ring is empty. The producer
     *  must have quiesced first or the drain guarantee is void. */
    void requestStop();

    void join();

    /** Lock-free snapshot; callable from any thread while running. */
    WorkerCounters counters() const;

    /** @name Control surface
     *  Parking quiesces the busy-poll loop on the clock once the ring
     *  is drained; the migration gate stalls this worker's ring pops
     *  until a source worker has processed past a fence, which is the
     *  "drain" half of the elastic controller's drain-then-remap
     *  protocol. */
    /**@{*/
    /** Ask the thread to park once its ring is empty. It sleeps until
     *  requestUnpark() or requestStop(); a packet pushed meanwhile
     *  waits for one of them (or any other notify of the clock). */
    void requestPark();
    /** Wake a parked thread (also safe when not parked). */
    void requestUnpark();
    bool parked() const
    {
        return parked_.load(std::memory_order_acquire);
    }

    /** Stall this worker's packet processing until @p source 's
     *  processed packet count reaches @p fence. Armed *before* the
     *  indirection flip with an unreachable hold fence; the controller
     *  publishes the real fence (the source ring's pushedCount after
     *  the producer grace) via setMigrationGateFence. The gate
     *  self-clears on the worker thread. Returns false when a previous
     *  gate is still armed. Controller thread only. */
    bool armMigrationGate(const Worker *source, std::uint64_t fence);
    /** Lower (or raise) an armed gate's fence. Controller thread. */
    void setMigrationGateFence(std::uint64_t fence)
    {
        gateFence_.store(fence, std::memory_order_release);
    }
    bool migrationGateActive() const
    {
        return gateSource_.load(std::memory_order_acquire) != nullptr;
    }

    /** Epoch-and-reset read of the ring-occupancy high-watermark seen
     *  at popBatch time (controller/sampler thread). */
    std::uint64_t takeRingDepthHwm()
    {
        return ringHwm_.exchange(0, std::memory_order_relaxed);
    }
    /** Non-destructive read (metrics render). */
    std::uint64_t ringDepthHwm() const
    {
        return ringHwm_.load(std::memory_order_relaxed);
    }
    /**@}*/

    /** @name Post-join accessors (exact, single-threaded again) */
    /**@{*/
    VirtualSwitch &vswitch() { return vs_; }
    /** Wall-clock nanoseconds per drained batch, log-bucketed: from
     *  the pop (or the previous batch's end, while busy, or the end of
     *  the burst window before it) to the end of the batch's publish. */
    const obs::HdrHistogram &batchHistogram() const
    {
        return batchHist_;
    }
    /** Null unless cfg.traceCapacity was nonzero. */
    const obs::TraceRecorder *traceRecorder() const
    {
        return trace_.get();
    }
    /**@}*/

    /** Null unless cfg.perfEnabled. Live any-thread snapshots are
     *  safe (the recorder's totals are relaxed atomics). */
    const obs::PerfRecorder *perfRecorder() const
    {
        return perf_.get();
    }

  private:
    void threadMain();
    /** Post-classification hook (decoupled mode): enqueue deferred
     *  upcalls for one result; true if pushed. Worker thread only. */
    bool offload(const PacketResult &res);
    /** True while the migration gate holds; clears it past the fence. */
    bool gateHolds();

    WorkerConfig cfg;
    EpochClock &clock_;
    Revalidator *reval_ = nullptr;
    SimMemory mem_; ///< private, shared-nothing
    VirtualSwitch vs_; ///< functional: no timing model attached
    SpscRing<Packet> ring_;

    std::thread thread_;
    std::atomic<bool> stop_{false};

    /// Park lifecycle: request flag flipped by requestPark/Unpark,
    /// parked state published by the worker, which sleeps on the clock.
    std::atomic<bool> parkRequested_{false};
    std::atomic<bool> parked_{false};

    /// Migration gate. gateFence_ is written before the release store
    /// to gateSource_ publishes it; the worker thread acquires
    /// gateSource_ before reading the fence. The fence itself is
    /// atomic because the controller lowers it from the hold value to
    /// the real drain fence while the gate is armed.
    std::atomic<std::uint64_t> gateFence_{0};
    std::atomic<const Worker *> gateSource_{nullptr};

    /// Ring occupancy high-watermark (worker relaxed-max, controller
    /// exchange(0) per epoch).
    std::atomic<std::uint64_t> ringHwm_{0};

    PublishedCounter packets_;
    PublishedCounter batches_;
    PublishedCounter matched_;
    PublishedCounter emcHits_;
    PublishedCounter busyNanos_;
    PublishedCounter upcallsEnqueued_;
    PublishedCounter upcallDrops_;
    PublishedCounter parks_;
    PublishedCounter burstWaits_;

    obs::HdrHistogram batchHist_;           ///< worker thread only
    std::unique_ptr<obs::TraceRecorder> trace_; ///< worker thread only
    std::unique_ptr<obs::PerfRecorder> perf_; ///< scopes: worker thread
    std::vector<Packet> batchBuf_;          ///< worker thread only
    std::vector<PacketResult> results_;     ///< worker thread only

    /// Direct-mapped recent-miss cache (worker thread only):
    /// suppresses duplicate upcalls for a flow while its install is in
    /// flight at the revalidator. An entry expires by packet count, so
    /// a dropped upcall is re-sent shortly after, and with the shard's
    /// activity epoch, so a flow aged out by a sweep upcalls again.
    struct MissEntry
    {
        std::uint64_t hash = 0;
        std::uint64_t seenAt = 0;
        std::uint64_t epoch = 0;
    };
    std::vector<MissEntry> recentMiss_;
    std::uint64_t packetSeq_ = 0; ///< worker thread only
};

} // namespace halo

#endif // HALO_RUNTIME_WORKER_HH

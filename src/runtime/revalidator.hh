/**
 * @file
 * The revalidator: the decoupled slow path's single writer.
 *
 * OVS splits its userspace datapath into PMD threads (pure fast path)
 * and handler/revalidator threads (upcalls, flow installs, aging).
 * This runtime applies the same split: workers classify and forward
 * only, offloading every megaflow miss over one bounded MPSC ring to
 * this thread, which
 *
 *  - resolves the upcalls against the shard's OpenFlow layer and
 *    installs an exact-match (microflow) megaflow entry, so later
 *    packets of the flow take the fast path;
 *  - sweeps every sweepIntervalMicros on the runtime's EpochClock,
 *    advancing each shard's activity epoch and evicting every installed
 *    flow that has been idle longer than the configured timeout (OVS
 *    flow aging). While a shard's exact-match tuple is at least 3/4
 *    full, its timeout drops to one sweep (OVS's flow limit,
 *    flowIdleTimeoutEpochs()), so a table that fills faster than it
 *    ages keeps room for new installs.
 *
 * The single-writer invariant is what makes the seqlocked tables sound:
 * per shard, this thread is the only mutator of the megaflow tuple
 * tables once the runtime is running, so table writes need
 * no writer-side locking at all — just the per-bucket seqlock bumps
 * readers validate against (hash/seqlock.hh, the host analog of the
 * paper's SS3.4 lock bit).
 *
 * The shards are the workers' functional switches: every table
 * operation here is a plain functional read or write.
 *
 * With the ring empty the thread parks on the clock until its next
 * sweep or an upcall; workers wake() it once per batch that pushed.
 */

#ifndef HALO_RUNTIME_REVALIDATOR_HH
#define HALO_RUNTIME_REVALIDATOR_HH

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "flow/flow_activity.hh"
#include "obs/stage.hh"
#include "runtime/epoch_clock.hh"
#include "runtime/mpsc_ring.hh"
#include "runtime/upcall.hh"
#include "sim/stats.hh"
#include "vswitch/vswitch.hh"

namespace halo {

/// Tracked-install ceiling; at the cap the oldest tracked flow is
/// evicted (its table entry erased) to admit the new one, keeping
/// revalidator memory bounded however long the run.
inline constexpr std::size_t revalidatorMaxTrackedFlows = 1u << 20;

/**
 * The revalidator's flow limit (OVS ofproto-dpif-upcall: once
 * n_flows exceeds flow_limit, max_idle drops to 100 ms). Maps a shard's
 * exact-match tuple occupancy to the idle timeout its next sweep ages
 * by: @p configured epochs normally, one epoch — every flow idle for
 * more than one sweep goes — once @p occupancy reaches 3/4 of
 * @p capacity.
 */
std::uint64_t flowIdleTimeoutEpochs(std::uint64_t occupancy,
                                    std::uint64_t capacity,
                                    std::uint64_t configured);

struct RevalidatorConfig
{
    /// Upcall-ring slots shared by all workers (rounded up to a power
    /// of two). A full ring drops requests — counted, never blocking.
    std::size_t ringCapacity = 8192;
    /// Requests drained per ring visit.
    unsigned drainBatch = 128;
    /// Sweep cadence on the runtime's EpochClock; every sweep opens a
    /// new activity epoch on each shard, so idleTimeoutEpochs *
    /// sweepIntervalMicros is the flow idle timeout in clock time.
    std::uint64_t sweepIntervalMicros = 500;
    /// Idle epochs before an installed flow is aged out of the
    /// megaflow layer (one epoch while the shard is over its flow
    /// limit, see flowIdleTimeoutEpochs()).
    std::uint64_t idleTimeoutEpochs = 4;
    /// Trace-event ring slots for the revalidator's TraceRecorder
    /// (0 = no recorder).
    std::size_t traceCapacity = 0;
    /// Install a PerfRecorder on the revalidator thread (see
    /// WorkerConfig::perfEnabled).
    bool perfEnabled = false;
    unsigned perfSampleShift = 6;
};

/** Plain snapshot of the revalidator's published counters. */
struct RevalidatorCounters
{
    std::uint64_t upcallsProcessed = 0;
    /// Miss upcalls whose flow was already installed (duplicate
    /// requests raced the install, or a worker-side dedup miss).
    std::uint64_t dedupHits = 0;
    std::uint64_t installs = 0;
    /// Installs refused by a full tuple table.
    std::uint64_t installFailures = 0;
    /// Miss upcalls with no OpenFlow match (unroutable tuples).
    std::uint64_t unresolved = 0;
    std::uint64_t sweeps = 0;
    /// Megaflow entries aged out on idle timeout.
    std::uint64_t agedFlows = 0;
    /// Times the thread parked on the clock with its ring empty.
    std::uint64_t parks = 0;
};

class Revalidator
{
  public:
    /** Per-shard mutation targets. The revalidator becomes the only
     *  thread allowed to mutate vswitch->tupleSpace() tables once
     *  start()ed. */
    struct ShardHooks
    {
        VirtualSwitch *vswitch = nullptr;
        FlowActivity *activity = nullptr;
        /// Pre-created exact-mask tuple index installs go into
        /// (TupleSpace::ensureTuple(FlowMask::exact()) at setup).
        unsigned exactTuple = 0;
    };

    /** @param ring externally owned (the runtime shares it with every
     *  worker); must outlive the revalidator, as must @p clock. */
    Revalidator(const RevalidatorConfig &config,
                MpscRing<UpcallRequest> &ring,
                std::vector<ShardHooks> shards, EpochClock &clock);
    ~Revalidator();

    Revalidator(const Revalidator &) = delete;
    Revalidator &operator=(const Revalidator &) = delete;

    void start();

    /** Ask the thread to exit once the upcall ring is empty (producers
     *  must have quiesced first). No final sweep runs. */
    void requestStop();
    void join();

    /** Producer side, after pushing upcalls: wake the thread if it is
     *  parked (EpochClock::wakeIfParked). */
    void wake() { clock_.wakeIfParked(parked_); }

    /** Lock-free snapshot; callable from any thread while running. */
    RevalidatorCounters counters() const;

    /** Null unless cfg.traceCapacity was nonzero. */
    const obs::TraceRecorder *traceRecorder() const
    {
        return trace_.get();
    }

    /** Null unless cfg.perfEnabled; live snapshots are safe. */
    const obs::PerfRecorder *perfRecorder() const
    {
        return perf_.get();
    }

  private:
    struct TrackedFlow
    {
        std::array<std::uint8_t, FiveTuple::keyBytes> key{};
        std::uint64_t hash = 0;
        std::uint64_t installEpoch = 0;
        std::uint16_t shard = 0;
    };

    void threadMain();
    void handle(const UpcallRequest &rq);
    void sweep();
    /** Erase @p flow's table entry; true when it was still present. */
    bool evict(const TrackedFlow &flow);
    void track(TrackedFlow &&flow);

    RevalidatorConfig cfg;
    MpscRing<UpcallRequest> &ring_;
    std::vector<ShardHooks> shards_;
    EpochClock &clock_;

    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> parked_{false};
    /// Clock time of the next sweep; set by start(), then thread only.
    std::uint64_t nextSweep_ = 0;

    PublishedCounter upcallsProcessed_;
    PublishedCounter dedupHits_;
    PublishedCounter installs_;
    PublishedCounter installFailures_;
    PublishedCounter unresolved_;
    PublishedCounter sweeps_;
    PublishedCounter agedFlows_;
    PublishedCounter parks_;

    /// Per-shard idle timeout of the current sweep (flow limit
    /// applied); revalidator thread only.
    std::vector<std::uint64_t> idleTimeout_;

    std::vector<TrackedFlow> tracked_;  ///< revalidator thread only
    std::size_t evictCursor_ = 0;       ///< round-robin cap eviction
    std::vector<UpcallRequest> drainBuf_; ///< revalidator thread only
    std::unique_ptr<obs::TraceRecorder> trace_;
    std::unique_ptr<obs::PerfRecorder> perf_;
};

} // namespace halo

#endif // HALO_RUNTIME_REVALIDATOR_HH

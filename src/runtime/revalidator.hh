/**
 * @file
 * The revalidator: the decoupled slow path's single writer.
 *
 * OVS splits its userspace datapath into PMD threads (pure fast path)
 * and handler/revalidator threads (upcalls, flow installs, aging).
 * This runtime applies the same split: workers classify and forward
 * only, offloading every megaflow miss and EMC promotion over one
 * bounded MPSC ring to this thread, which
 *
 *  - resolves Miss upcalls against the shard's OpenFlow layer and
 *    installs an exact-match (microflow) megaflow entry, so later
 *    packets of the flow take the fast path;
 *  - performs Promote requests (EMC inserts) on the workers' behalf;
 *  - sweeps on a fixed cadence, advancing each shard's activity epoch
 *    and evicting every installed flow that has been idle longer than
 *    the configured timeout (OVS flow aging). While a shard's
 *    exact-match tuple is at least 3/4 full, its timeout drops to one
 *    sweep (OVS's flow limit, flowIdleTimeoutEpochs()), so a table
 *    that fills faster than it ages keeps room for new installs.
 *
 * The single-writer invariant is what makes the seqlocked tables sound:
 * per shard, this thread is the only mutator of the megaflow tuple
 * tables and the EMC once the runtime is running, so table writes need
 * no writer-side locking at all — just the per-bucket seqlock bumps
 * readers validate against (hash/seqlock.hh, the host analog of the
 * paper's SS3.4 lock bit).
 *
 * The shards are the workers' functional switches: every table
 * operation here is a plain functional read or write.
 */

#ifndef HALO_RUNTIME_REVALIDATOR_HH
#define HALO_RUNTIME_REVALIDATOR_HH

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "flow/flow_activity.hh"
#include "flow/flow_estimator.hh"
#include "obs/stage.hh"
#include "runtime/emc_controller.hh"
#include "runtime/mpsc_ring.hh"
#include "runtime/upcall.hh"
#include "sim/stats.hh"
#include "vswitch/vswitch.hh"

namespace halo {

class RssDispatcher;

struct RevalidatorConfig
{
    /// Upcall-ring slots shared by all workers (rounded up to a power
    /// of two). A full ring drops requests — counted, never blocking.
    std::size_t ringCapacity = 8192;
    /// Requests drained per ring visit.
    unsigned drainBatch = 128;
    /// Sweep cadence; every sweep opens a new activity epoch on each
    /// shard, so idleTimeoutEpochs * sweepIntervalMicros is the flow
    /// idle timeout in wall time.
    std::uint64_t sweepIntervalMicros = 500;
    /// Idle epochs before an installed flow is aged out of the
    /// megaflow/EMC layers (one epoch while the shard is over its flow
    /// limit, see flowIdleTimeoutEpochs()).
    std::uint64_t idleTimeoutEpochs = 4;
    /// Tracked-install ceiling; at the cap the oldest tracked flow is
    /// evicted (its table entry erased) to admit the new one, keeping
    /// revalidator memory bounded however long the run.
    std::size_t maxTrackedFlows = 1u << 20;
    /// Trace-event ring slots for the revalidator's TraceRecorder
    /// (0 = no recorder).
    std::size_t traceCapacity = 0;
    /// Install a PerfRecorder on the revalidator thread (see
    /// WorkerConfig::perfEnabled).
    bool perfEnabled = false;
    unsigned perfSampleShift = 6;
    /// Adaptive EMC management (emc_controller.hh). When
    /// emcPolicy.adaptive is set the revalidator runs the policy every
    /// controlIntervalSweeps sweeps against each shard's estimator.
    EmcPolicyConfig emcPolicy;
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
    std::uint64_t promotes = 0;
    std::uint64_t sweeps = 0;
    /// Megaflow entries aged out on idle timeout.
    std::uint64_t agedFlows = 0;
    /// EMC entries aged out on idle timeout.
    std::uint64_t agedEmc = 0;
    /// Promote requests refused by the occupancy throttle (or arriving
    /// while the controller has the EMC disabled).
    std::uint64_t promotesThrottled = 0;
    /// Adaptive-controller transitions.
    std::uint64_t ctrlDisables = 0;
    std::uint64_t ctrlEnables = 0;
    std::uint64_t ctrlResizes = 0;
};

class Revalidator
{
  public:
    /** Per-shard mutation targets. The revalidator becomes the only
     *  thread allowed to mutate vswitch->tupleSpace() tables and
     *  vswitch->emc() once start()ed. */
    struct ShardHooks
    {
        VirtualSwitch *vswitch = nullptr;
        FlowActivity *activity = nullptr;
        /// Pre-created exact-mask tuple index installs go into
        /// (TupleSpace::ensureTuple(FlowMask::exact()) at setup).
        unsigned exactTuple = 0;
        /// The shard worker's flow estimator (null unless the adaptive
        /// EMC policy is on). The revalidator is the sole closer of its
        /// windows.
        ShardFlowEstimator *estimator = nullptr;
    };

    /** @param ring externally owned (the runtime shares it with every
     *  worker); must outlive the revalidator. */
    Revalidator(const RevalidatorConfig &config,
                MpscRing<UpcallRequest> &ring,
                std::vector<ShardHooks> shards);
    ~Revalidator();

    Revalidator(const Revalidator &) = delete;
    Revalidator &operator=(const Revalidator &) = delete;

    /** Attach the RSS dispatcher so megaflow installs and aging keep
     *  the per-bucket live-flow accounting current (noteNewFlow on
     *  install, noteFlowEnd on age-out) — the flow counts the elastic
     *  controller's split decisions and flows-moved charges read.
     *  Call before start(); null (the default) disables accounting. */
    void attachRss(RssDispatcher *rss) { rss_ = rss; }

    void start();

    /** Ask the thread to exit once the upcall ring is empty (producers
     *  must have quiesced first). A final sweep runs before exit. */
    void requestStop();
    void join();
    bool joinable() const { return thread_.joinable(); }

    /** Lock-free snapshot; callable from any thread while running. */
    RevalidatorCounters counters() const;

    /** Flows currently tracked for aging. Thread only: post-join. */
    std::size_t trackedFlows() const { return tracked_.size(); }

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
        /// Original five-tuple, kept so aging can reverse the
        /// dispatcher's live-flow charge (noteFlowEnd re-hashes it).
        FiveTuple tuple;
        std::uint64_t hash = 0;
        std::uint64_t installEpoch = 0;
        std::uint16_t shard = 0;
        bool emc = false; ///< EMC entry vs megaflow entry
    };

    void threadMain();
    void handle(const UpcallRequest &rq);
    void handleMiss(const UpcallRequest &rq);
    void handlePromote(const UpcallRequest &rq);
    void sweep();
    /** Adaptive EMC policy pass: close each shard's estimator window
     *  and apply decideEmcPolicy()'s verdict. */
    void controlEpoch();
    /** Forget tracked EMC entries of @p shard (their cache generation
     *  was just invalidated wholesale). */
    void dropTrackedEmc(std::uint16_t shard);
    /** Erase @p flow's table entry; true when it was still present. */
    bool evict(const TrackedFlow &flow);
    void track(TrackedFlow &&flow);

    RevalidatorConfig cfg;
    MpscRing<UpcallRequest> &ring_;
    std::vector<ShardHooks> shards_;
    RssDispatcher *rss_ = nullptr; ///< live-flow accounting (optional)

    std::thread thread_;
    std::atomic<bool> stop_{false};

    PublishedCounter upcallsProcessed_;
    PublishedCounter dedupHits_;
    PublishedCounter installs_;
    PublishedCounter installFailures_;
    PublishedCounter unresolved_;
    PublishedCounter promotes_;
    PublishedCounter sweeps_;
    PublishedCounter agedFlows_;
    PublishedCounter agedEmc_;
    PublishedCounter promotesThrottled_;
    PublishedCounter ctrlDisables_;
    PublishedCounter ctrlEnables_;
    PublishedCounter ctrlResizes_;

    /** Per-shard adaptive-policy state (revalidator thread only). */
    struct ShardControl
    {
        unsigned throttleShift = 0;
        std::uint64_t promoteTick = 0; ///< throttle phase counter
        /// Idle timeout of the current sweep (flow limit applied).
        std::uint64_t idleTimeout = 0;
    };
    std::vector<ShardControl> ctl_;
    unsigned sweepsSinceControl_ = 0;

    std::vector<TrackedFlow> tracked_;  ///< revalidator thread only
    std::size_t evictCursor_ = 0;       ///< round-robin cap eviction
    std::vector<UpcallRequest> drainBuf_; ///< revalidator thread only
    std::unique_ptr<obs::TraceRecorder> trace_;
    std::unique_ptr<obs::PerfRecorder> perf_;
};

} // namespace halo

#endif // HALO_RUNTIME_REVALIDATOR_HH

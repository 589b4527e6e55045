/**
 * @file
 * Elastic workers: the measurement→decision→actuation loop that keeps
 * the shared-nothing runtime balanced under skewed traffic
 * (DESIGN.md §17).
 *
 * Measurement. Each control epoch the controller thread aggregates,
 * lock-free, one ShardLoadSnapshot per worker: packet and busy-cycle
 * deltas from the workers' PublishedCounters and the ring-occupancy
 * high-watermark. It also drains the dispatcher's per-bucket packet
 * counters — the heat map that says *which* indirection buckets made
 * a shard hot.
 *
 * Decision. decideRebalance() is a pure function of the snapshots, the
 * bucket heat map and a small carried streak state, so the whole
 * policy matrix is unit-testable without threads. It detects imbalance as max/mean busy fraction
 * over a threshold sustained for hysteresisEpochs and plans bucket
 * migrations that move roughly half the hot shard's excess to the
 * coldest shards. The indirection table has a fixed size
 * (RssConfig::tableEntries), so a migration is the controller's only
 * actuation.
 *
 * Actuation — the drain-then-remap migration protocol. Migrating a
 * bucket must not let a flow's packets be processed by two shards
 * concurrently (intra-flow reordering). Per source-worker group:
 *
 *   1. gate   — arm the destination worker's migration gate with an
 *               unreachable hold fence: the destination processes
 *               nothing from here on. Gating before the flip closes
 *               the window where the destination could run ahead on
 *               post-flip packets while the source still holds
 *               pre-flip ones;
 *   2. flip   — setEntry repoints the bucket (new packets now land on
 *               the destination ring);
 *   3. grace  — wait out the producer's offer seqlock so no dispatch
 *               that read the *old* mapping can still be mid-push;
 *   4. fence  — snapshot the source ring's pushedCount (everything the
 *               moved flows ever enqueued at the source is below it)
 *               and lower the gate fence to it: the destination
 *               resumes once the source worker's processed-packet
 *               counter passes the fence. The gate self-clears on the
 *               destination thread.
 *
 * The fence compares against *processed* packets, not the source ring
 * head: a popped batch is still being classified after the head moves,
 * so only the post-batch counter publish proves the old-shard packets
 * are done. Gates are armed for one source group at a time and waited
 * on before the next group (a gated worker never needs to make
 * progress for its own gate to clear, so there is no A⇄B deadlock).
 */

#ifndef HALO_RUNTIME_ELASTIC_CONTROLLER_HH
#define HALO_RUNTIME_ELASTIC_CONTROLLER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "runtime/epoch_clock.hh"
#include "runtime/rss.hh"
#include "runtime/worker.hh"
#include "sim/stats.hh"

namespace halo {

namespace obs {
class MetricsRegistry;
} // namespace obs

/// Imbalance trips when the max busy fraction exceeds this multiple of
/// the mean over all workers (and ElasticConfig::minBusyToAct).
inline constexpr double elasticImbalanceRatio = 1.25;

/// Bound on any protocol wait (gate arm, gate clear, producer grace)
/// before it counts a gate timeout. Safety never depends on it: the
/// gate still self-clears once the source drains to the fence.
inline constexpr std::uint64_t migrationTimeoutMicros = 200000;

/** Knobs for the elastic controller (RuntimeConfig::elastic). */
struct ElasticConfig
{
    /// Master switch: off = static RSS, exactly the PR 2 behaviour.
    bool enabled = false;

    /// Control epoch length on the runtime's EpochClock (measurement +
    /// decision cadence, and the busy fractions' denominator).
    std::uint64_t controlIntervalMicros = 2000;

    /// The hot worker must be at least this busy to trip imbalance
    /// (idle noise guard).
    double minBusyToAct = 0.05;
    /// Consecutive imbalanced epochs before migrating (hysteresis).
    unsigned hysteresisEpochs = 2;
    /// Epochs to sit out after any actuation (damping).
    unsigned cooldownEpochs = 2;
    /// Cap on migrations planned per epoch.
    unsigned maxMigrationsPerEpoch = 8;
};

/** One worker's epoch load, aggregated lock-free by the controller. */
struct ShardLoadSnapshot
{
    std::uint64_t packets = 0;      ///< processed this epoch
    std::uint64_t busyNanos = 0;    ///< batch CPU nanos this epoch
    double busyFraction = 0.0;      ///< busyNanos / epoch clock nanos
    std::uint64_t ringDepthHwm = 0; ///< max ring occupancy at pop time
};

/** One indirection bucket's epoch heat. */
struct BucketLoad
{
    unsigned shard = 0;
    std::uint64_t packets = 0; ///< dispatched this epoch
};

/** Streak state decideRebalance carries across epochs (hysteresis). */
struct ElasticEpochState
{
    unsigned imbalancedEpochs = 0;
    unsigned cooldown = 0;
};

/** Everything decideRebalance sees: one snapshot per worker and one
 *  heat entry per indirection bucket. */
struct RebalanceInputs
{
    std::span<const ShardLoadSnapshot> shards;
    std::span<const BucketLoad> buckets;
};

/** What the controller should actuate this epoch. */
struct RebalanceDecision
{
    struct Migration
    {
        unsigned bucket = 0;
        unsigned from = 0;
        unsigned to = 0;
    };
    std::vector<Migration> migrations;
    /// Telemetry / test hooks.
    double maxBusy = 0.0;
    double meanBusy = 0.0;
    bool imbalanced = false;
};

/**
 * Pure policy function: deterministic in (cfg, in, state); mutates
 * only @p state (the carried streaks). cfg.enabled is assumed true.
 */
RebalanceDecision decideRebalance(const ElasticConfig &cfg,
                                  const RebalanceInputs &in,
                                  ElasticEpochState &state);

/** Controller counter snapshot (relaxed reads, any thread). */
struct ElasticCounters
{
    std::uint64_t epochs = 0;
    std::uint64_t migrations = 0; ///< buckets actually flipped
    /// Bounded protocol waits that expired before the gate cleared.
    /// A liveness signal under CPU oversubscription, not a
    /// correctness one: the gate still self-clears on the worker.
    std::uint64_t gateTimeouts = 0;
};

class ElasticController
{
  public:
    /** Runtime internals the controller actuates against. */
    struct Hooks
    {
        RssDispatcher *rss = nullptr;
        std::vector<Worker *> workers;
        /// Producer offer seqlock (odd = a dispatch is in flight).
        /// Null skips the grace step (no concurrent producer).
        const std::atomic<std::uint64_t> *offerSeq = nullptr;
    };

    /** Epochs and protocol waits run on @p clock (must outlive this). */
    ElasticController(const ElasticConfig &config, Hooks hooks,
                      EpochClock &clock);
    ~ElasticController();

    ElasticController(const ElasticController &) = delete;
    ElasticController &operator=(const ElasticController &) = delete;

    void start();
    void requestStop();
    void join();

    /** One measurement→decision→actuation epoch. Controller thread;
     *  also callable directly (thread not started) from tests. */
    void runEpoch();

    /** Queue a forced migration (any thread; actuated next epoch with
     *  the full drain-then-remap protocol). Ops/test hook. */
    void requestMigration(unsigned bucket, unsigned dest);

    /**
     * Low-level protocol: flip + grace + fence + gate for a group of
     * migrations sharing one source worker. @p waitMicros bounds the
     * wait for the destination gates to clear; 0 returns with gates
     * armed (the deterministic fence test drives the rest by hand).
     * Controller thread (or a test standing in for it).
     */
    void migrateBuckets(std::span<const RebalanceDecision::Migration> group,
                        std::uint64_t waitMicros);

    bool anyGateActive() const;

    ElasticCounters counters() const;

    /** Last epoch's load snapshot for one shard (any thread). */
    ShardLoadSnapshot shardLoad(unsigned shard) const;

    /** Attach halo_ctrl_* counters and per-shard
     *  halo_shard_busy_fraction / halo_shard_ring_depth_hwm gauges.
     *  Must outlive @p reg. */
    void registerMetrics(obs::MetricsRegistry &reg);

  private:
    void threadMain();
    void producerGrace() const;
    void actuate(const RebalanceDecision &d);
    /** Yield until @p pred or @p micros on the clock; false on timeout. */
    template <typename Pred>
    bool boundedWait(std::uint64_t micros, Pred pred) const;

    ElasticConfig cfg;
    Hooks hooks_;
    EpochClock &clock_;

    std::thread thread_;
    std::atomic<bool> stop_{false};

    /// Forced-migration queue (requestMigration producers, epoch
    /// consumer).
    std::mutex forcedMtx_;
    std::vector<RebalanceDecision::Migration> forced_;

    /// Epoch bookkeeping (controller thread only).
    ElasticEpochState state_;
    std::vector<std::uint64_t> prevPackets_;
    std::vector<std::uint64_t> prevBusy_;
    std::uint64_t lastEpochMicros_ = 0; ///< clock time of last epoch

    /// Published per-shard snapshots (controller writes, any thread
    /// reads; busy fraction stored in micro-units).
    struct PublishedLoad
    {
        std::atomic<std::uint64_t> packets{0};
        std::atomic<std::uint64_t> busyNanos{0};
        std::atomic<std::uint64_t> busyMicroFraction{0};
        std::atomic<std::uint64_t> ringDepthHwm{0};
    };
    std::vector<std::unique_ptr<PublishedLoad>> loads_;

    PublishedCounter epochs_;
    PublishedCounter migrations_;
    PublishedCounter gateTimeouts_;
};

} // namespace halo

#endif // HALO_RUNTIME_ELASTIC_CONTROLLER_HH

/**
 * @file
 * Hardware-truth performance counters for the host dataplane.
 *
 * The simulator counts *simulated* bucket reads; this layer closes the
 * loop against real silicon. A PerfCounterGroup opens one
 * perf_event_open(2) group per thread — cycles, instructions,
 * LLC-load-misses, dTLB-load-misses, branch-misses — read with
 * PERF_FORMAT_GROUP so all five come back from a single syscall,
 * coherently, together with time_enabled/time_running for
 * multiplex-aware scaling (when the kernel rotates more events than
 * the PMU has counters, raw deltas are scaled by
 * enabled/running — the standard perf estimate).
 *
 * Attribution is per pipeline stage: a HALO_STAGE scope (obs/stage.hh)
 * charges its dynamic extent to a named stage ("vswitch/burst_emc",
 * "revalidator/sweep", ...). Because a PMU group
 * read is a syscall (~1 µs), a scope never reads the group on every
 * entry; it always accumulates an rdtsc delta (a few ns) and samples
 * the full group once per 2^sampleShift entries per stage. Reports
 * scale the sampled event totals back up by entries/sampledEntries.
 *
 * Degraded mode: perf_event_open fails with EPERM/EACCES under the
 * default perf_event_paranoid in containers and with ENOENT/ENOSYS
 * where the PMU or syscall is missing. The group then degrades to
 * rdtsc-only — scopes still account entries and TSC cycles, event
 * totals stay zero, and degraded() is surfaced as `perf_degraded` in
 * every report so a CI run can assert it completed cleanly without
 * hardware counters.
 *
 * Threading contract (mirrors TraceRecorder): exactly one thread —
 * the one that called openThisThread() and installed the recorder —
 * enters scopes on a recorder; the per-stage totals are relaxed atomics
 * so any other thread (sampler, Prometheus exporter) may snapshot a
 * live recorder without locks.
 */

#ifndef HALO_OBS_PERF_HH
#define HALO_OBS_PERF_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace halo::obs {

/** Events in the group, in opening (and read-back) order. */
enum class PerfEvent : unsigned {
    Cycles = 0,
    Instructions,
    LlcLoadMisses,
    DtlbLoadMisses,
    BranchMisses,
};

inline constexpr unsigned numPerfEvents = 5;

/** Stable snake_case name for JSON keys / metric names. */
const char *perfEventName(unsigned event);

/**
 * Monotonic cycle source for the always-on half of a scope: rdtsc on
 * x86-64 (constant_tsc on anything this runs on), the generic-timer
 * timebase on aarch64, steady_clock nanoseconds elsewhere. Units are
 * therefore "TSC cycles" loosely — comparable within a run on one
 * host, not across hosts.
 */
std::uint64_t perfTscNow();

/** One coherent read of the whole group. */
struct PerfGroupReading
{
    /// False in degraded mode (raw/time fields are zero then).
    bool hwValid = false;
    std::uint64_t timeEnabled = 0; ///< ns the group was scheduled-or-waiting
    std::uint64_t timeRunning = 0; ///< ns the group was actually counting
    std::array<std::uint64_t, numPerfEvents> raw{};
};

/**
 * Multiplex-aware delta: raw deltas scaled by
 * (timeEnabled delta / timeRunning delta), the standard perf(1)
 * estimate for rotated groups. Returns zeros when either reading is
 * invalid or no running time elapsed.
 */
std::array<std::uint64_t, numPerfEvents>
perfScaledDelta(const PerfGroupReading &before,
                const PerfGroupReading &after);

/**
 * One per-thread perf_event_open group over the five events above.
 *
 * Open on the thread you want measured (pid=0, cpu=-1: this thread,
 * any CPU). If any event fails to open the whole group degrades —
 * partial groups would silently skew ratios like instructions/cycle.
 */
class PerfCounterGroup
{
  public:
    /**
     * Injectable open syscall for tests: receives the perf event
     * (type, config) and the group leader fd (-1 for the leader),
     * returns a new fd >= 0 or a negative errno. Default ({}) is the
     * real perf_event_open on Linux and -ENOSYS elsewhere.
     */
    using OpenFn =
        std::function<int(std::uint32_t type, std::uint64_t config,
                          int group_fd)>;

    /** Opens the group for the *calling* thread. */
    explicit PerfCounterGroup(OpenFn open_fn = {});
    ~PerfCounterGroup();

    PerfCounterGroup(const PerfCounterGroup &) = delete;
    PerfCounterGroup &operator=(const PerfCounterGroup &) = delete;

    /** True when the group could not be opened (rdtsc-only mode). */
    bool degraded() const { return degraded_; }
    /** errno of the first failed open (0 when not degraded). */
    int degradedErrno() const { return degradedErrno_; }

    /** One read() syscall for all five events; hwValid=false when
     *  degraded. Owner thread (or any thread — the fds are stable). */
    PerfGroupReading read() const;

  private:
    std::array<int, numPerfEvents> fds_;
    bool degraded_ = true;
    int degradedErrno_ = 0;
};

/** Ceiling on stage ids (obs/stage.hh: numStages); PerfRecorder keeps
 *  one totals slot per id. */
inline constexpr std::size_t maxStages = 16;

/** Plain per-stage totals, snapshotted or merged for reports. */
struct PerfStageTotals
{
    std::string stage;
    std::uint64_t entries = 0;        ///< scope entries
    std::uint64_t tscCycles = 0;      ///< Σ rdtsc deltas (all entries)
    std::uint64_t sampledEntries = 0; ///< entries with a group read
    /// Multiplex-scaled event deltas over the *sampled* entries only.
    std::array<std::uint64_t, numPerfEvents> events{};

    /** Sampled totals scaled up to all entries (the report number). */
    double estimatedEvents(unsigned event) const;
};

/**
 * Per-thread stage accumulator behind HALO_STAGE.
 *
 * Construct anywhere (the owning Runtime usually does it while still
 * single-threaded), then openThisThread() from the measured thread —
 * perf_event_open counts the *calling* thread, so the group cannot be
 * opened in the constructor — and install it there with
 * installStageRecorders().
 */
class PerfRecorder
{
  public:
    /** @param sample_shift group-read sampling: one full PMU read per
     *         2^shift scope entries per stage (0 = every entry). */
    explicit PerfRecorder(unsigned sample_shift = 6,
                          PerfCounterGroup::OpenFn open_fn = {});

    PerfRecorder(const PerfRecorder &) = delete;
    PerfRecorder &operator=(const PerfRecorder &) = delete;

    /** Open the PMU group for the calling thread. Safe to call once
     *  from the measured thread; before it the recorder is degraded
     *  (scopes still count entries and TSC). */
    void openThisThread();

    /** Any thread. True until openThisThread() succeeds. */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }
    /** errno of the failed open (0 when healthy / not yet opened). */
    int degradedErrno() const
    {
        return degradedErrno_.load(std::memory_order_relaxed);
    }

    unsigned sampleShift() const { return sampleShift_; }

    /** @name Owner-thread hot path (used by StageScope) */
    /**@{*/
    bool shouldSample(std::uint16_t stage) const;
    PerfGroupReading readGroup() const;
    /** Charge one scope exit: always entries+tsc; when @p sampled,
     *  also the multiplex-scaled event delta since @p before. */
    void accumulate(std::uint16_t stage, std::uint64_t tsc_delta,
                    bool sampled, const PerfGroupReading &before);
    /**@}*/

    /** Test/report hook: inject one pre-scaled sample (any thread
     *  while the owner is quiescent). */
    void addSample(std::uint16_t stage, std::uint64_t tsc_delta,
                   const std::array<std::uint64_t, numPerfEvents>
                       *events = nullptr);

    /** Any thread: relaxed snapshot of one stage's totals. */
    PerfStageTotals stage(std::uint16_t id) const;

  private:
    struct StageTotals
    {
        std::atomic<std::uint64_t> entries{0};
        std::atomic<std::uint64_t> tscCycles{0};
        std::atomic<std::uint64_t> sampledEntries{0};
        std::array<std::atomic<std::uint64_t>, numPerfEvents> events{};
    };

    std::array<StageTotals, maxStages> stages_;
    std::unique_ptr<PerfCounterGroup> group_; ///< set by openThisThread
    PerfCounterGroup::OpenFn openFn_;
    unsigned sampleShift_;
    std::uint64_t sampleMask_;
    std::atomic<bool> degraded_{true};
    std::atomic<int> degradedErrno_{0};
};

/**
 * Snapshot every interned stage with nonzero entries (relaxed reads;
 * safe against a live owner thread). Sorted by stage name.
 */
std::vector<PerfStageTotals> perfSnapshotStages(const PerfRecorder &rec);

/** Merge @p from into @p into by stage name (report aggregation). */
void perfMergeStages(std::vector<PerfStageTotals> &into,
                     const std::vector<PerfStageTotals> &from);

} // namespace halo::obs

#endif // HALO_OBS_PERF_HH

/**
 * @file
 * Pipeline stage scopes: one macro feeds both the trace ring and the
 * per-stage PMU/rdtsc totals.
 *
 * Instrumentation sites drop one RAII scope into the code:
 *
 *   void Worker::threadMain() {
 *       ...
 *       { HALO_STAGE("worker/batch"); processBatch(); }
 *   }
 *
 * Every stage name lives in kStageNames below, and its index there is
 * the stage id both recorders key on: the TraceEvent name and the
 * PerfRecorder totals slot. HALO_STAGE resolves the id at compile time,
 * so a site whose name is missing from the table does not build, and
 * anything that enumerates stages (the Prometheus per-stage series)
 * reads the same table the sites do.
 *
 * Each thread has one slot holding its TraceRecorder* and
 * PerfRecorder* (installStageRecorders). A scope loads that slot once:
 *  - neither installed: one thread-local load and one branch;
 *  - trace installed: two steady_clock reads plus a 16-byte ring store;
 *  - perf installed: an rdtsc delta per entry plus one PMU group read
 *    per 2^sampleShift entries per stage (perf.hh).
 *
 * Threading contract: the recorders are single-writer. Install them on
 * exactly one thread; other threads may snapshot a PerfRecorder live
 * but drain a TraceRecorder only after its thread quiesced.
 */

#ifndef HALO_OBS_STAGE_HH
#define HALO_OBS_STAGE_HH

#include <cstdint>
#include <iterator>
#include <string_view>

#include "obs/perf.hh"
#include "obs/trace.hh"

namespace halo::obs {

/** Every HALO_STAGE name; the index is the stage id. */
inline constexpr std::string_view kStageNames[] = {
    "worker/batch",          "worker/offload",
    "vswitch/upcall",        "vswitch/burst_prepass",
    "vswitch/burst_emc",     "vswitch/burst_tss",
    "vswitch/emc",           "vswitch/tuple_space",
    "vswitch/cuckoo",        "revalidator/drain",
    "revalidator/upcall",    "revalidator/promote",
    "revalidator/control",   "revalidator/sweep",
};

inline constexpr std::size_t numStages = std::size(kStageNames);
static_assert(numStages <= maxStages, "grow obs::maxStages");

/** Reached only when a HALO_STAGE name is not in kStageNames, which
 *  makes the consteval stageId() call ill-formed. */
void stageNameNotInKStageNames();

/** Compile-time id of a kStageNames entry. */
consteval std::uint16_t
stageId(std::string_view name)
{
    for (std::size_t i = 0; i < numStages; ++i)
        if (kStageNames[i] == name)
            return static_cast<std::uint16_t>(i);
    stageNameNotInKStageNames();
    return 0;
}

/** Name for a stage id (asserts on out-of-range). */
const char *stageName(std::uint16_t id);

/** The recorders one thread's stage scopes feed (either may be null). */
struct StageRecorders
{
    TraceRecorder *trace = nullptr;
    PerfRecorder *perf = nullptr;
};

/** This thread's slot; read by StageScope, written by
 *  installStageRecorders. */
extern constinit thread_local StageRecorders tlsStageRecorders;

/** Install @p recorders on the calling thread; returns the previous
 *  pair so the caller can restore it. */
inline StageRecorders
installStageRecorders(StageRecorders recorders)
{
    const StageRecorders prev = tlsStageRecorders;
    tlsStageRecorders = recorders;
    return prev;
}

/** RAII stage scope: times construction → destruction into the
 *  recorders installed on this thread at construction. */
class StageScope
{
  public:
    explicit StageScope(std::uint16_t id)
        : rec_(tlsStageRecorders), id_(id)
    {
        if (!rec_.trace && !rec_.perf) [[likely]]
            return;
        if (rec_.trace)
            startNanos_ = TraceRecorder::nowNanos();
        if (rec_.perf) {
            sampled_ = rec_.perf->shouldSample(id_);
            if (sampled_)
                before_ = rec_.perf->readGroup();
            tsc0_ = perfTscNow();
        }
    }

    ~StageScope()
    {
        if (!rec_.trace && !rec_.perf) [[likely]]
            return;
        if (rec_.perf)
            rec_.perf->accumulate(id_, perfTscNow() - tsc0_, sampled_,
                                  before_);
        if (rec_.trace)
            rec_.trace->record(id_, startNanos_,
                               TraceRecorder::nowNanos());
    }

    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

  private:
    StageRecorders rec_;
    std::uint16_t id_;
    bool sampled_ = false;
    std::uint64_t startNanos_ = 0;
    std::uint64_t tsc0_ = 0;
    PerfGroupReading before_;
};

} // namespace halo::obs

#define HALO_STAGE_CONCAT2(a, b) a##b
#define HALO_STAGE_CONCAT(a, b) HALO_STAGE_CONCAT2(a, b)

/** Charge the rest of the enclosing block to stage @p name (a string
 *  literal listed in obs::kStageNames). */
#define HALO_STAGE(name)                                                  \
    ::halo::obs::StageScope HALO_STAGE_CONCAT(halo_stage_, __LINE__)(     \
        ::halo::obs::stageId(name))

#endif // HALO_OBS_STAGE_HH

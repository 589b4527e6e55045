/**
 * @file
 * Measurement helpers of the repository benchmark: percentiles, the
 * open-loop send schedule, the reference classifier, the host-speed
 * probe, in-memory spans and the heap-allocation counter.
 */

#ifndef PERFBENCH_SUPPORT_HH
#define PERFBENCH_SUPPORT_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/rule.hh"

namespace perfbench {

/** Steady-clock nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Percentile @p q in [0, 1] of @p samples, interpolating linearly
 * between closest ranks. Sorts @p samples in place; 0 when empty.
 */
double percentile(std::vector<double> &samples, double q);

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

/**
 * Percentile @p q of each run of @p chunk consecutive samples of
 * @p samples, in order; a trailing run shorter than @p chunk is dropped.
 */
std::vector<double> chunkPercentiles(const std::vector<double> &samples,
                                     std::size_t chunk, double q);

/**
 * Open-loop send schedule at a fixed absolute rate: packet i is due
 * i / rate seconds after the start, whatever the system does.
 */
class OpenLoopSchedule
{
  public:
    explicit OpenLoopSchedule(double rate_pps);

    /** Due time of packet @p i in ns after the start. */
    std::int64_t dueNs(std::uint64_t i) const;

    /** Packets due by @p elapsed_ns after the start. */
    std::uint64_t dueBy(std::int64_t elapsed_ns) const;

  private:
    double periodNs_;
};

/** Expected classification of one five-tuple. */
struct RefOutcome
{
    bool matched = false;
    halo::Action action;
    std::uint16_t priority = 0;
};

/**
 * Reference classifier: a priority search of a RuleSet that shares no
 * code with the datapath tables (one std::unordered_map per mask). The
 * highest-priority matching rule wins; on equal priority, the rule
 * listed first.
 */
class ReferenceClassifier
{
  public:
    explicit ReferenceClassifier(const halo::RuleSet &rules);

    RefOutcome classify(const halo::FiveTuple &tuple) const;

  private:
    using Key = std::array<std::uint8_t, halo::FiveTuple::keyBytes>;
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };
    struct Group
    {
        halo::FlowMask mask;
        std::unordered_map<Key, RefOutcome, KeyHash> rules;
    };
    std::vector<Group> groups_;
};

/** Host-speed probe, recorded as a diagnostic and never used to
 *  normalise a metric. */
struct HostProbe
{
    double chaseNsPerLoad = 0.0; ///< 1 MiB (L2-resident) pointer chase
    double spinNsPerIter = 0.0;  ///< fixed dependent integer loop
};

HostProbe probeHost();

/** One span: name, start and end (steady ns), parent id, batch id. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    std::uint32_t batch = 0;
};

/**
 * Spans kept in memory and written once at the end of a traced run.
 * Names must be string literals (the recorder keeps the pointers).
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::size_t capacity);

    /** Open a span; -1 once the store is full (the span is dropped). */
    std::int32_t begin(const char *name, std::int32_t parent,
                       std::uint32_t batch);
    void end(std::int32_t id);

    /** Total duration of the spans named @p name, in ns. */
    double totalNs(const std::string &name) const;

    /**
     * Layer table under the spans named @p root: the total duration of
     * each direct child name, plus the roots' self time (duration minus
     * their children's durations) as "unattributed". The rows sum to
     * totalNs(root).
     */
    std::vector<std::pair<std::string, double>>
    layerTable(const std::string &root) const;

    std::uint64_t dropped() const { return dropped_; }

    /** One JSON object per line. */
    void write(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
};

/**
 * What is wrong with a layer table, or "" when nothing is. A negative
 * row means its layer was timed longer than the root it is charged to.
 * A traced root total @p traced_ns more than a factor @p max_ratio away
 * from @p untraced_ns, an untraced measurement of the same work, means
 * the table does not describe the untraced run.
 */
std::string
layerTableProblem(const std::vector<std::pair<std::string, double>> &rows,
                  double traced_ns, double untraced_ns, double max_ratio);

/** @name Heap-allocation counter
 *  alloc_count.cc replaces the global operator new family in the
 *  benchmark binaries with counting versions. */
/**@{*/
/** operator new calls counted so far, process-wide. */
std::uint64_t heapAllocs();

/** While alive, allocations made by the constructing thread are not
 *  counted (the benchmark's own packet materialisation). */
class UncountedAllocs
{
  public:
    UncountedAllocs();
    ~UncountedAllocs();
    UncountedAllocs(const UncountedAllocs &) = delete;
    UncountedAllocs &operator=(const UncountedAllocs &) = delete;
};
/**@}*/

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_HH

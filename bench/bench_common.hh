/**
 * @file
 * Shared plumbing for the benchmark harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper and
 * prints it as an aligned text table plus TSV rows (grep for '\t' to
 * post-process). Simulated machines are constructed fresh per
 * configuration so results are order-independent.
 *
 * The host benches (host_throughput, cuckoo_miss_sweep and the four
 * runtime benches) share one harness, declared at the end: the flag
 * parser, the instrumented runtime run and the JSON/Prometheus writers.
 */

#ifndef HALO_BENCH_BENCH_COMMON_HH
#define HALO_BENCH_BENCH_COMMON_HH

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/halo_system.hh"
#include "cpu/core_model.hh"
#include "cpu/trace_builder.hh"
#include "flow/ruleset.hh"
#include "hash/cuckoo_table.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/perf.hh"
#include "obs/sampler.hh"
#include "runtime/runtime.hh"
#include "sim/random.hh"

namespace halo::bench {

/** Print a banner naming the experiment. */
inline void
banner(const char *experiment, const char *caption)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s — %s\n", experiment, caption);
    std::printf("==============================================="
                "=================\n");
}

/** One simulated machine: memory, hierarchy, HALO complex, one core. */
struct Machine
{
    SimMemory mem;
    MemoryHierarchy hier;
    HaloSystem halo;
    CoreModel core;
    TraceBuilder builder;

    explicit Machine(std::uint64_t mem_bytes = 2ull << 30,
                     const HaloConfig &halo_cfg = HaloConfig{},
                     const HierarchyConfig &hier_cfg = HierarchyConfig{})
        : mem(mem_bytes),
          hier(hier_cfg),
          halo(mem, hier, halo_cfg),
          core(hier, 0)
    {
        core.setLookupEngine(&halo);
    }
};

/** Round-robin key staging area (streaming-store semantics). */
class KeyStager
{
  public:
    KeyStager(Machine &machine, unsigned slots = 64)
        : m(machine), numSlots(slots)
    {
        base = m.mem.allocate(slots * cacheLineBytes, cacheLineBytes);
    }

    Addr
    stage(const void *key, std::size_t len)
    {
        const Addr a = base + (next++ % numSlots) * cacheLineBytes;
        m.mem.write(a, key, len);
        m.hier.warmLine(a);
        return a;
    }

  private:
    Machine &m;
    unsigned numSlots;
    Addr base = 0;
    unsigned next = 0;
};

/** Deterministic 16-byte keys identified by an integer. */
inline std::array<std::uint8_t, 16>
keyForId(std::uint64_t id)
{
    std::array<std::uint8_t, 16> key{};
    std::memcpy(key.data(), &id, sizeof(id));
    const std::uint64_t mixed = id * 0x9e3779b97f4a7c15ull;
    std::memcpy(key.data() + 8, &mixed, sizeof(mixed));
    return key;
}

/** Cycles-per-lookup of pure-software lookups over @p table. */
double
measureSoftwareLookups(Machine &m, const CuckooHashTable &table,
                       std::uint64_t populated, std::uint64_t lookups,
                       std::uint64_t seed);

/** Cycles-per-lookup of LOOKUP_B lookups over @p table. */
double
measureHaloBlocking(Machine &m, const CuckooHashTable &table,
                    std::uint64_t populated, std::uint64_t lookups,
                    std::uint64_t seed);

/** Cycles-per-lookup of batched LOOKUP_NB + SNAPSHOT_READ lookups. */
double
measureHaloNonBlocking(Machine &m, const CuckooHashTable &table,
                       std::uint64_t populated, std::uint64_t lookups,
                       std::uint64_t seed);

/** 10K-lookup warmup, as in paper SS5.2. */
void
warmupLookups(Machine &m, const CuckooHashTable &table,
              std::uint64_t populated, std::uint64_t count = 10000);

/** @name Shared telemetry surface for the host benches
 *  One JSON dialect for the sampler time series and the PMU
 *  attribution block, so every BENCH_*.json reads the same and
 *  tools/bench_diff.py can compare any pair. */
/**@{*/

/**
 * Sampler time series as {columns, t_nanos, rows, rows_recorded}.
 *
 * Committed BENCH files embed one series per sweep cell, so an
 * uncapped series dominates the file (a sweep bench once weighed in at
 * ~99k lines). @p maxRows stride-decimates at write time — first and
 * last samples always kept, the rest evenly spaced — while
 * rows_recorded preserves the pre-decimation count. 0 writes every
 * row. Run-time sampling resolution is unaffected.
 */
void writeSampleSeries(obs::JsonWriter &j, const obs::SampleSeries &s,
                       std::size_t maxRows = 96);

/**
 * PMU attribution block: {compiled_in, enabled, degraded, stages:[…]}.
 * Each stage carries raw entry/TSC totals plus multiplex-scaled,
 * sampling-corrected event estimates and per-entry rates. Emits the
 * object value only — callers write the key first.
 */
void writePerfBlock(obs::JsonWriter &j, bool enabled, bool degraded,
                    const std::vector<obs::PerfStageTotals> &stages);

/**@}*/

/** @name Shared harness for the host benches
 *  One flag parser, one instrumented runtime run, one output-file and
 *  Prometheus-file writer and one JSON header/per-run block, so a
 *  bench keeps only its workload, its sweep, its own JSON keys and its
 *  gates. */
/**@{*/

/** A command-line flag: its name, its value placeholder (null for a
 *  switch) and the setter. set() returns false on a bad value. */
struct Flag
{
    const char *name;
    const char *metavar;
    std::function<bool(const char *value)> set;
};

/** Strict decimal parse of a whole argument: no sign, no trailing
 *  garbage, no overflow. */
bool parseNumber(const char *text, std::uint64_t &out);
/** Strict parse of a whole argument as a finite double. */
bool parseNumber(const char *text, double &out);

/** A numeric flag accepting values in [@p lo, @p hi] only. */
template <class T>
Flag
numberFlag(const char *name, const char *metavar, T &dst,
           T lo = std::numeric_limits<T>::lowest(),
           T hi = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
    return {name, metavar, [&dst, lo, hi](const char *text) {
                using Parsed = std::conditional_t<std::is_integral_v<T>,
                                                  std::uint64_t, double>;
                Parsed v;
                if (!parseNumber(text, v) || v < Parsed(lo) ||
                    v > Parsed(hi))
                    return false;
                dst = static_cast<T>(v);
                return true;
            }};
}

Flag stringFlag(const char *name, const char *metavar, std::string &dst);
Flag switchFlag(const char *name, bool &dst);
/** --burst N: a batch width, clamped to [1, maxBulkLanes]. */
Flag burstFlag(unsigned &dst);

/** Which shared flags a bench accepts. */
enum SharedFlag : unsigned
{
    OutFlag = 1u << 0,      ///< --out FILE: JSON output path
    PacketsFlag = 1u << 1,  ///< --packets N: packets per run (>= 1)
    SmokeFlag = 1u << 2,    ///< --smoke: short CI run plus gates
    PerfFlag = 1u << 3,     ///< --perf: per-thread PMU groups
    PromFlag = 1u << 4,     ///< --prom FILE: Prometheus text dump
    PromPortFlag = 1u << 5, ///< --prom-port N: live GET /metrics
    TraceFlag = 1u << 6,    ///< --trace FILE: Chrome trace
    SampleUsFlag = 1u << 7, ///< --sample-us N: sampler period (0 = off)
    RuntimeFlags = (1u << 8) - 1,
};

/** The shared flags' values; benches seed the defaults before parsing. */
struct BenchFlags
{
    std::string outPath;
    std::uint64_t packets = 0;
    bool smoke = false;
    bool perf = false;
    std::string promPath;
    std::uint16_t promPort = 0;
    std::string tracePath;
    std::uint64_t sampleMicros = 0;
    /// Every flag the command line named, shared or bench-specific.
    std::set<std::string> given;

    bool has(const char *flag) const { return given.count(flag) != 0; }

    /** --smoke defaults: set @p dst unless the user passed @p flag. */
    template <class T, class V>
    void
    unlessGiven(const char *flag, T &dst, V value) const
    {
        if (!has(flag))
            dst = static_cast<T>(value);
    }
};

/**
 * Parse argv against the @p shared flags (a SharedFlag mask) plus the
 * bench's @p own flags. An unknown flag, a missing value or a value
 * its flag rejects prints one usage line built from both lists and
 * exits 2.
 */
void parseFlags(int argc, char **argv, BenchFlags &flags,
                unsigned shared, const std::vector<Flag> &own = {});

// --perf for the single-threaded benches: one main-thread PMU group
// covers the whole sweep, so exact reads around a dedicated pass need
// no sampling.

/** Exact per-op hardware deltas over one measured pass. */
struct HwPass
{
    bool valid = false; ///< PMU deltas usable (group not degraded)
    double tscCyclesPerOp = 0.0;
    std::array<double, obs::numPerfEvents> perOp{};
};

/** The --perf group (null without --perf). A refused syscall keeps
 *  an rdtsc-only group and says so on stderr. */
std::unique_ptr<obs::PerfCounterGroup> openPerfGroup(bool perf);

/** Run @p body, which performs @p ops operations, once between exact
 *  PMU reads. Call after the timed loop so caches are steady-state. */
HwPass measureHw(obs::PerfCounterGroup &group, std::uint64_t ops,
                 const std::function<void()> &body);

/** {valid, tsc_cycles_per_<unit>, <event>_per_<unit>...}; emits the
 *  object value only — callers write the key first. */
void writeHwBlock(obs::JsonWriter &j, const HwPass &hw,
                  const std::string &unit);

/** Open @p path for writing, or exit 1 naming it. */
std::ofstream openOutput(const std::string &path);

/** Write @p reg as Prometheus text to @p path (exit 1 on failure). */
void writePromFile(const obs::MetricsRegistry &reg,
                   const std::string &path);

/** One worker's packets per CLOCK_THREAD_CPUTIME_ID second. */
double cpuPps(const WorkerReport &w);
/** Sum of the per-worker cpuPps rates. */
double aggregateCpuPps(const RuntimeReport &rep);
/** Processed packets per wall second of produce + drain. */
double wallPps(const RuntimeReport &rep);

/** The runtime every runtime bench starts from: @p workers workers,
 *  1024-slot rings, 32-packet batches, symmetric RSS, and 65536
 *  bounded producer yields before a ring-full drop (single-CPU hosts
 *  hand the core to starved workers instead of spinning the producer;
 *  overflow still drops, counted). */
RuntimeConfig benchRuntimeConfig(unsigned workers);

/** Sampler interval, perfEnabled and, on the traced last run, the
 *  worker and revalidator trace-ring capacities. */
void applyTelemetry(RuntimeConfig &cfg, const BenchFlags &flags,
                    bool lastRun);

/**
 * Runtime::run(@p produce) with the shared telemetry around it. On the
 * last run: attach the metrics registry (and serve it live under
 * --prom-port), write the --trace file, and write the --prom file with
 * halo_rt_aggregate_cpu_pps plus whatever @p addSeries adds.
 */
RuntimeReport instrumentedRun(
    Runtime &rt, const BenchFlags &flags, bool lastRun,
    const std::function<void()> &produce,
    const std::function<void(obs::MetricsRegistry &,
                             const RuntimeReport &)> &addSeries = {});

/** Packet conservation: offered == enqueued + ring_full_drops,
 *  processed == enqueued, and something was processed. Prints the
 *  failing counts under @p label; false on violation. */
bool conserved(const RuntimeReport &rep, const std::string &label);

/** --perf gate: the worker/batch stage recorded cycles (rdtsc at
 *  least, so degraded runs pass too). Prints on failure. */
bool perfStagesRecorded(const RuntimeReport &rep);

/** Open the top-level object with the keys every runtime bench
 *  writes: benchmark, meta, host_cpus, smoke, packets_per_run,
 *  perf_enabled, perf_degraded. */
void writeHeader(obs::JsonWriter &j, const char *benchmark,
                 const BenchFlags &flags, bool perfDegraded);

/** Per-run keys every runtime bench writes: packet accounting, the
 *  two rates, batch percentiles, then samples and perf when present. */
void writeRunCommon(obs::JsonWriter &j, const RuntimeReport &rep);

/** Deterministic, never-repeating five-tuple for flow @p id. */
FiveTuple tupleForId(std::uint64_t id);

/** One match-all slow-path rule, so every flow resolves. */
RuleSet fallbackRules();

/**
 * Before start(): install flows [0, @p count) — flowAt(i) — as
 * exact-match megaflow entries carrying @p rule's value in each
 * owning shard, the entries the revalidator would install one upcall
 * at a time. Exits 1 when a shard's table is full.
 */
void preinstallExact(Runtime &rt, std::uint64_t count,
                     const std::function<FiveTuple(std::uint64_t)> &flowAt,
                     const FlowRule &rule);

/**@}*/

} // namespace halo::bench

#endif // HALO_BENCH_BENCH_COMMON_HH

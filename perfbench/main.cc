/**
 * @file
 * The repository benchmark: one workload per invocation, driven only
 * through public entry points of the runtime, the switch shard and its
 * tables (Runtime construct/start/offer/drain/stop/snapshot,
 * Worker::ringDepthHwm, SwitchShard and VirtualSwitch
 * processBurst/classifyBurst/classifyBurstNB,
 * ExactMatchCache::lookupBulk, TupleSpace::lookupFirstBulk,
 * CuckooHashTable::lookupUntracedBulk, Packet::parseHeaders and
 * HaloSystem::totalQueries).
 *
 * Usage:
 *   halo_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--spans FILE]
 *
 * Workloads (inputs are generated from --seed; the program under test
 * only receives rules and 64-byte packets from Packet::fromTuple):
 *
 *   emc_hot        SmallFlowCount rules over 4,096 flows, Zipf 0.9, one
 *                  inline worker, burst 16: per-packet fixed costs
 *                  (dispatch, ring, parse, EMC, pricing).
 *   megaflow_wide  ManyFlows rules (5 masks, 200k entries) over 1M
 *                  flows, Zipf 0.5, burst 16: tuple-space walks and
 *                  negative cuckoo lookups; about half the packets are
 *                  expected to miss every tuple.
 *   churn_upcall   decoupled runtime (worker + revalidator), empty
 *                  megaflow layer, OpenFlow rules ending in a match-all;
 *                  5% of packets open a never-seen flow, the rest draw
 *                  Zipf 0.9 over a sliding live set of 4,096 flows.
 *   paper_model    Fig. 11-style simulator run (20 tuples x 1,024
 *                  entries, 50/50 known/alien probes, EMC off) through
 *                  Software, HaloBlocking and HaloNonBlocking on fresh
 *                  HALO shards, interleaved in 256-packet chunks.
 *
 * --trace 0 measures the end-to-end metrics:
 *   goodput_pps            closed loop, the producer retries on a full
 *                          ring: the processing rate of the fast-decile
 *                          100 ms slice times the closed loop's share of
 *                          packets in their expected outcome
 *                          (paper_model: simulated packets per host
 *                          second over all three modes);
 *   sojourn_p90_us         open loop at the workload's fixed rate, from
 *                          each packet's scheduled send time until the
 *                          worker's published processed count passes it:
 *                          the p90 of each 100 ms slice of the schedule,
 *                          at the fast decile of slices (paper_model:
 *                          host time of one 16-packet burst through each
 *                          mode);
 *                          after warm-up, 1 s closed-loop and open-loop
 *                          segments alternate for 90% of the run, so
 *                          both loops sample the host over the whole run;
 *                          whole-run values (goodput over the window,
 *                          sojourn p50 to p99.9) are printed beside them
 *                          but not gated, because the host's CPU speed
 *                          swings up to 4x within tens of milliseconds;
 *   expected_outcome_ratio packets whose outcome matches the reference
 *                          classifier, over packets offered;
 *   setup_s                fast decile of repeated construction, rule
 *                          install and table warm (paper_model: median);
 *   peak_rss_mb            getrusage maximum resident set.
 * --trace 1 runs a shorter runtime pass for the runtime counters, then
 * replays the same inputs single-threaded with spans around each
 * module's public calls, sends the first packets of the same stream
 * through Software, HaloBlocking and HaloNonBlocking HALO shards for the
 * core.* layers, and prints the per-layer metrics and the layer table.
 * A layer the workload does not run (the upcall ring, revalidator,
 * seqlocked readers and OpenFlow layer of the decoupled runtime on the
 * inline workloads; the runtime on paper_model) is reported as 0 and
 * named on a "layers not run" line.
 *
 * The last stdout line is one JSON object {correct, attempted, failed,
 * metrics}. Exit status: 0 when every outcome check passed, 1 when one
 * failed, 2 on a usage or set-up error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "flow/ruleset.hh"
#include "runtime/runtime.hh"
#include "support.hh"
#include "vswitch/shard.hh"

using namespace halo;
using namespace perfbench;

namespace {

enum class Workload
{
    EmcHot,
    MegaflowWide,
    ChurnUpcall,
    PaperModel,
};

struct Options
{
    Workload workload = Workload::EmcHot;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

/// Burst width of the runtime worker and of every replayed call.
constexpr unsigned kBurst = 16;
/// Open-loop offered rates: about a third of the slowest closed-loop
/// goodput measured on a shared 4-vCPU VM.
constexpr double kEmcHotPps = 10000.0;
constexpr double kMegaflowWidePps = 3000.0;
constexpr double kChurnUpcallPps = 10000.0;
/// Gated runtime timings come from 100 ms slices of a run (no shorter
/// than the revalidator's sweep interval, so its periodic work stays
/// inside a slice), taken at the fast decile: the shared VM's CPU speed
/// swings up to 4x within tens of milliseconds, and only its fast
/// periods recur in every run.
constexpr double kSliceS = 0.1;
constexpr double kFastDecile = 0.1;
/// Slices per closed-loop or open-loop segment; the two alternate.
constexpr unsigned kSegmentSlices = 10;
/// churn_upcall traffic shape.
constexpr std::size_t kChurnLive = 4096;
constexpr double kChurnNewShare = 0.05;
/// paper_model shape (Fig. 11 at 20 tuples).
constexpr unsigned kPaperTuples = 20;
constexpr std::uint64_t kPaperEntries = 1024;
constexpr unsigned kPaperWarmBursts = 32;
constexpr unsigned kPaperPrefixBursts = 64;
constexpr unsigned kPaperChunkBursts = 16;
/// Flows re-classified after a runtime run to check actions.
constexpr std::size_t kVerifyFlows = 4096;
/// Keys per kind (hit, miss) of the cuckoo probe.
constexpr std::size_t kCuckooKeys = 4096;
constexpr unsigned kCuckooRounds = 8;
/// Packets of a runtime workload's stream sent through the HALO mode
/// shards, and the span capacity of that pass.
constexpr std::size_t kCoreProbes = 1u << 14;
constexpr std::size_t kCoreSpans = 1u << 14;
/// A traced layer-table total may differ from the untraced run of the
/// same work by at most this factor: tracing adds two clock reads per
/// span, but the host's speed drifts by tens of percent between windows.
constexpr double kMaxTraceRatio = 2.0;

std::int64_t
toNs(double seconds)
{
    return static_cast<std::int64_t>(seconds * 1e9);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Spin-wait hint: a poll loop should leave its core's execution
 *  resources to the threads it is waiting for. */
void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    for (int i = 0; i < 16; ++i)
        __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Outcome check of one datapath result against the reference. A miss
 *  whose upcall is still pending is allowed where upcalls are deferred. */
bool
outcomeOk(const PacketResult &r, const RefOutcome &ref, bool allow_pending)
{
    if (r.matched)
        return ref.matched && r.action == ref.action;
    return !ref.matched || (allow_pending && r.slowPathPending);
}

/** Simulated memory-hierarchy accesses (core side plus CHA side). */
double
hierarchyAccesses(MemoryHierarchy &hier)
{
    const StatGroup &g = hier.stats();
    double n = 0.0;
    for (const char *name : {"core_accesses", "cha_accesses"})
        if (g.hasCounter(name))
            n += static_cast<double>(g.counterValue(name));
    return n;
}

/** Metrics plus outcome accounting; prints the result line. */
struct Report
{
    struct Metric
    {
        const char *name;
        double value;
        const char *unit;
    };

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Run-level checks that are not per packet (golden cycles, stalls,
    /// layer tables).
    bool checksOk = true;
    std::vector<Metric> metrics;

    void
    add(const char *name, double value, const char *unit)
    {
        if (!std::isfinite(value)) {
            value = 0.0;
            checksOk = false;
        }
        metrics.push_back({name, value, unit});
    }

    bool correct() const { return checksOk && failed == 0 && attempted > 0; }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct() ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name, metrics[i].value,
                        metrics[i].unit);
        std::printf("}}\n");
    }
};

/** Every per-layer metric in print order, with its unit. */
constexpr std::pair<const char *, const char *> kLayerMetrics[] = {
    {"vswitch.process_ns_per_pkt", "ns"},
    {"vswitch.unattributed_ns_per_pkt", "ns"},
    {"vswitch.classify_ns_per_pkt", "ns"},
    {"vswitch.emc_hit_ratio", "ratio"},
    {"vswitch.tuples_searched_per_pkt", "count"},
    {"net.parse_ns_per_pkt", "ns"},
    {"runtime.offer_ns_per_pkt", "ns"},
    {"runtime.heap_allocs_per_pkt", "count"},
    {"runtime.worker_busy_ns_per_pkt", "ns"},
    {"runtime.batch_pkts_mean", "count"},
    {"runtime.ring_depth_hwm", "count"},
    {"runtime.ring_full_drops", "count"},
    {"flow.emc_probe_ns", "ns"},
    {"flow.tss_lookup_ns_per_pkt", "ns"},
    {"hash.cuckoo_lookup_ns_hit", "ns"},
    {"hash.cuckoo_lookup_ns_miss", "ns"},
    {"flow.openflow_lookup_ns", "ns"},
    {"runtime.upcalls_per_kpkt", "count"},
    {"runtime.upcall_drops", "count"},
    {"runtime.installs_per_new_flow", "ratio"},
    {"runtime.aged_flows", "count"},
    {"runtime.seqlock_retries_per_kpkt", "count"},
    {"core.accel_queries_per_pkt", "count"},
    {"core.host_ns_per_sim_pkt_sw", "ns"},
    {"core.host_ns_per_sim_pkt_halo_b", "ns"},
    {"core.host_ns_per_sim_pkt_halo_nb", "ns"},
    {"cpu.sim_cycles_per_pkt", "cycles"},
    {"mem.hierarchy_accesses_per_pkt", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"loadgen.lateness_us_p99", "us"},
};

/** Per-layer values. The result line carries every layer; one the
 *  workload did not run reads 0 and is named on a "layers not run"
 *  line, so that 0 is never taken for a measurement. */
class LayerMetrics
{
  public:
    void
    set(const std::string &name, double value)
    {
        HALO_ASSERT(std::any_of(std::begin(kLayerMetrics),
                                std::end(kLayerMetrics),
                                [&](const auto &m) {
                                    return name == m.first;
                                }),
                    "unknown layer metric ", name);
        values_[name] = value;
    }

    void
    addTo(Report &rep) const
    {
        std::string notRun;
        for (const auto &[name, unit] : kLayerMetrics) {
            const auto it = values_.find(name);
            if (it == values_.end())
                notRun += std::string(notRun.empty() ? "" : ", ") + name;
            rep.add(name, it == values_.end() ? 0.0 : it->second, unit);
        }
        if (!notRun.empty())
            std::printf("layers not run by this workload (reported as 0): "
                        "%s\n",
                        notRun.c_str());
    }

  private:
    std::unordered_map<std::string, double> values_;
};

/** Print a layer table whose root spans total @p total_ns, and fail the
 *  run when layerTableProblem() finds it wrong against @p untraced_ns,
 *  the untraced time of the same work. */
void
printLayerTable(const std::vector<std::pair<std::string, double>> &rows,
                const char *root, double total_ns, double untraced_ns,
                double packets, Report &rep)
{
    std::printf("layer table (traced replay, %.0f packets, self time "
                "ns/packet):\n",
                packets);
    double sum = 0.0;
    for (const auto &[name, ns] : rows) {
        std::printf("  %-24s %12.1f\n", name.c_str(), ns / packets);
        sum += ns;
    }
    const std::string problem =
        layerTableProblem(rows, total_ns, untraced_ns, kMaxTraceRatio);
    std::printf("  %-24s %12.1f  (rows sum %.1f, untraced %.1f: %s)\n",
                root, total_ns / packets, sum / packets,
                untraced_ns / packets,
                problem.empty() ? "ok" : problem.c_str());
    if (!problem.empty())
        rep.checksOk = false;
}

/**
 * Hit and miss lookups on the largest tuple table through the untraced
 * bulk pipeline. Hit keys are @p candidates the table holds (under its
 * mask); miss keys are random tuples it does not hold.
 */
void
cuckooProbes(const TupleSpace &ts, const std::vector<FiveTuple> &candidates,
             std::uint64_t seed, SpanRecorder &spans, LayerMetrics &lm)
{
    if (ts.numTuples() == 0)
        return;
    unsigned big = 0;
    for (unsigned t = 1; t < ts.numTuples(); ++t)
        if (ts.table(t).size() > ts.table(big).size())
            big = t;
    const CuckooHashTable &table = ts.table(big);
    const FlowMask &mask = ts.mask(big);

    using Key = std::array<std::uint8_t, FiveTuple::keyBytes>;
    auto present = [&](const Key &k) {
        const std::uint8_t *p = k.data();
        std::uint64_t v = 0;
        return table.lookupUntracedBulk(&p, 1, &v) != 0;
    };
    std::vector<Key> hits, misses;
    for (const FiveTuple &t : candidates) {
        const Key k = mask.apply(t.toKey());
        if (hits.size() < kCuckooKeys && present(k))
            hits.push_back(k);
    }
    Xoshiro256 rng(seed ^ 0xa11e0ull);
    for (std::size_t tries = 0;
         misses.size() < kCuckooKeys && tries < 8 * kCuckooKeys; ++tries) {
        FiveTuple t;
        t.srcIp = 0xc0000000u | static_cast<std::uint32_t>(rng.next());
        t.dstIp = 0xd0000000u | static_cast<std::uint32_t>(rng.next());
        t.srcPort = static_cast<std::uint16_t>(rng.next());
        t.dstPort = static_cast<std::uint16_t>(rng.next());
        const Key k = mask.apply(t.toKey());
        if (!present(k))
            misses.push_back(k);
    }

    auto timeKeys = [&](const std::vector<Key> &keys, const char *name) {
        const std::uint8_t *ptr[kBurst];
        std::uint64_t vals[kBurst];
        std::uint64_t lookups = 0;
        for (unsigned r = 0; r < kCuckooRounds; ++r) {
            for (std::size_t off = 0; off + kBurst <= keys.size();
                 off += kBurst) {
                for (unsigned i = 0; i < kBurst; ++i)
                    ptr[i] = keys[off + i].data();
                const std::int32_t s = spans.begin(name, -1, r);
                table.lookupUntracedBulk(ptr, kBurst, vals);
                spans.end(s);
                lookups += kBurst;
            }
        }
        return ratio(spans.totalNs(name), static_cast<double>(lookups));
    };
    lm.set("hash.cuckoo_lookup_ns_hit", timeKeys(hits, "hash.cuckoo_hit"));
    lm.set("hash.cuckoo_lookup_ns_miss",
           timeKeys(misses, "hash.cuckoo_miss"));
    std::printf("cuckoo probe on tuple %u (%llu entries): %zu hit keys, "
                "%zu miss keys\n",
                big, static_cast<unsigned long long>(table.size()),
                hits.size(), misses.size());
}

/** Span capacity the cuckoo probe needs. */
constexpr std::size_t kCuckooSpans = 2 * kCuckooRounds * kCuckooKeys / kBurst;

void
writeSpans(const SpanRecorder &spans, const Options &opt)
{
    if (opt.spansPath.empty())
        return;
    std::ofstream out(opt.spansPath);
    if (!out)
        fatal("cannot write ", opt.spansPath);
    spans.write(out);
    std::printf("spans written to %s (%llu dropped)\n",
                opt.spansPath.c_str(),
                static_cast<unsigned long long>(spans.dropped()));
}

// ---------------------------------------------------------------------
// Runtime workloads: emc_hot, megaflow_wide, churn_upcall
// ---------------------------------------------------------------------

/** Deterministic never-repeating five-tuple for churn flow @p id
 *  (unique while id < 2^24). */
FiveTuple
churnTuple(std::uint64_t id, std::uint64_t seed)
{
    const std::uint64_t m =
        (id ^ (seed * 0xd1b54a32d192ed03ull)) * 0x9e3779b97f4a7c15ull;
    FiveTuple t;
    t.srcIp = 0x0a000000u | static_cast<std::uint32_t>(id & 0xffffff);
    t.dstIp = 0xac100000u | static_cast<std::uint32_t>((m >> 24) & 0xfffff);
    t.srcPort = static_cast<std::uint16_t>(1024 + (m & 0xffff) % 60000);
    t.dstPort = (m >> 40) & 1 ? 443 : 80;
    t.proto = static_cast<std::uint8_t>(IpProto::Udp);
    return t;
}

/**
 * Slow-path rules of churn_upcall: one rule per canonical mask, seeded
 * from the first flows, then a match-all fallback so every generated
 * tuple resolves.
 */
RuleSet
churnOpenflowRules(std::uint64_t seed)
{
    RuleSet rules;
    const std::vector<FlowMask> masks = canonicalMasks(16);
    for (unsigned i = 0; i < masks.size(); ++i) {
        FlowRule r;
        r.mask = masks[i];
        r.maskedKey = r.mask.apply(churnTuple(i, seed).toKey());
        r.priority = static_cast<std::uint16_t>(10 + i);
        r.action = Action{ActionKind::Forward,
                          static_cast<std::uint16_t>(2 + i)};
        rules.push_back(r);
    }
    FlowRule fallback; // all-wildcard mask: matches everything
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 1};
    rules.push_back(fallback);
    return rules;
}

/**
 * The offered five-tuple sequence of a runtime workload. reset()
 * restarts it, so the runtime run and the traced replay see the same
 * packets.
 */
class TupleStream
{
  public:
    /** Cyclic sequence flows[order[k]]; expected matches from
     *  @p oracle. @p flows must outlive the stream. */
    TupleStream(const std::vector<FiveTuple> &flows,
                std::vector<std::uint32_t> order,
                const ReferenceClassifier &oracle)
        : flows_(&flows), order_(std::move(order))
    {
        prefix_.assign(order_.size() + 1, 0);
        for (std::size_t k = 0; k < order_.size(); ++k)
            prefix_[k + 1] =
                prefix_[k] +
                (oracle.classify(flows[order_[k]]).matched ? 1 : 0);
    }

    /** Churn: each packet opens a never-seen flow with probability
     *  @p new_share (replacing a random live slot), else draws
     *  Zipf(@p skew) over the live set. Every tuple is expected to
     *  match. */
    TupleStream(std::size_t live, double skew, double new_share,
                std::uint64_t seed)
        : newShare_(new_share),
          seed_(seed),
          zipf_(std::make_unique<ZipfDistribution>(live, skew))
    {
        for (std::size_t i = 0; i < live; ++i)
            initialLive_.push_back(churnTuple(i, seed));
        reset();
    }

    void
    reset()
    {
        cursor_ = 0;
        if (!flows_) {
            live_ = initialLive_;
            nextId_ = initialLive_.size();
            rng_ = Xoshiro256(seed_ ^ 0xc4u);
        }
    }

    const FiveTuple &
    next()
    {
        if (flows_)
            return (*flows_)[order_[cursor_++ % order_.size()]];
        if (rng_.nextBool(newShare_)) {
            FiveTuple &slot = live_[rng_.nextBounded(live_.size())];
            slot = churnTuple(nextId_++, seed_);
            return slot;
        }
        return live_[zipf_->sample(rng_)];
    }

    /** Expected matched packets among the first @p n. */
    std::uint64_t
    expectedMatches(std::uint64_t n) const
    {
        if (!flows_)
            return n;
        const std::uint64_t len = order_.size();
        return (n / len) * prefix_[len] + prefix_[n % len];
    }

    /** Distinct flows offered so far (churn: initial set + new ones). */
    std::uint64_t flowsSeen() const { return nextId_; }

    /** Up to @p n distinct tuples for the post-run action check: the
     *  order's flows in order of first use, or the live set. */
    std::vector<FiveTuple>
    verifySample(std::size_t n) const
    {
        std::vector<FiveTuple> out;
        if (flows_) {
            std::vector<bool> taken(flows_->size());
            for (std::size_t k = 0; k < order_.size() && out.size() < n;
                 ++k) {
                if (!taken[order_[k]]) {
                    taken[order_[k]] = true;
                    out.push_back((*flows_)[order_[k]]);
                }
            }
        } else {
            out.assign(live_.begin(),
                       live_.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(n, live_.size())));
        }
        return out;
    }

  private:
    const std::vector<FiveTuple> *flows_ = nullptr;
    std::vector<std::uint32_t> order_;
    std::vector<std::uint64_t> prefix_;
    std::uint64_t cursor_ = 0;

    double newShare_ = 0.0;
    std::uint64_t seed_ = 0;
    std::unique_ptr<ZipfDistribution> zipf_;
    std::vector<FiveTuple> initialLive_;
    std::vector<FiveTuple> live_;
    std::uint64_t nextId_ = 0;
    Xoshiro256 rng_{0};
};

/** Inputs and configuration of one runtime workload. Not movable: the
 *  stream and the config point into it. */
struct RuntimeWorkload
{
    RuleSet rules;    ///< megaflow rules (empty for churn_upcall)
    RuleSet openflow; ///< slow-path rules (churn_upcall only)
    std::vector<FiveTuple> flows;
    std::unique_ptr<ReferenceClassifier> oracle;
    std::unique_ptr<TupleStream> stream;
    RuntimeConfig cfg;
    double openLoopPps = 0.0;
    unsigned setupRepeats = 3;

    RuntimeWorkload() = default;
    RuntimeWorkload(const RuntimeWorkload &) = delete;
    RuntimeWorkload &operator=(const RuntimeWorkload &) = delete;

    bool decoupled() const { return cfg.decoupled; }
};

std::unique_ptr<RuntimeWorkload>
makeRuntimeWorkload(Workload w, std::uint64_t seed)
{
    auto wl = std::make_unique<RuntimeWorkload>();
    RuntimeConfig &cfg = wl->cfg;
    cfg.numWorkers = 1;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 32;
    cfg.classifyBurst = kBurst;
    cfg.shardMemBytes = 1ull << 30;
    // Closed loop with backpressure: a full ring makes the producer
    // retry (yielding), never drop.
    cfg.enqueueRetries = UINT_MAX;

    if (w == Workload::ChurnUpcall) {
        wl->openflow = churnOpenflowRules(seed);
        wl->oracle = std::make_unique<ReferenceClassifier>(wl->openflow);
        wl->stream = std::make_unique<TupleStream>(kChurnLive, 0.9,
                                                   kChurnNewShare, seed);
        cfg.decoupled = true;
        cfg.openflowRules = &wl->openflow;
        cfg.revalidator.ringCapacity = 8192;
        // OVS-like idle timeout in wall time (20 sweeps x 100 ms = 2 s),
        // independent of datapath speed: only departed flows age.
        cfg.revalidator.sweepIntervalMicros = 100000;
        cfg.revalidator.idleTimeoutEpochs = 20;
        wl->openLoopPps = kChurnUpcallPps;
        wl->setupRepeats = 9;
        return wl;
    }

    const bool hot = w == Workload::EmcHot;
    const TrafficScenario scenario = hot ? TrafficScenario::SmallFlowCount
                                         : TrafficScenario::ManyFlows;
    TrafficConfig tc =
        TrafficGenerator::scenarioConfig(scenario, hot ? 4096 : 1000000);
    tc.seed = seed;
    {
        TrafficGenerator gen(tc);
        wl->flows = gen.flows();
    }
    wl->rules = scenarioRules(scenario, wl->flows, seed);
    wl->oracle = std::make_unique<ReferenceClassifier>(wl->rules);
    const ZipfDistribution zipf(wl->flows.size(), tc.zipfSkew);
    Xoshiro256 rng(seed ^ 0x5eedull);
    std::vector<std::uint32_t> order(hot ? (1u << 18) : (1u << 20));
    for (std::uint32_t &o : order)
        o = static_cast<std::uint32_t>(zipf.sample(rng));
    wl->stream = std::make_unique<TupleStream>(wl->flows, std::move(order),
                                               *wl->oracle);
    wl->openLoopPps = hot ? kEmcHotPps : kMegaflowWidePps;
    wl->setupRepeats = hot ? 41 : 11;
    return wl;
}

/** Construct the runtime @p repeats times (destroying the previous one
 *  first) and keep the last; returns the construction time at the fast
 *  decile, which repeats across runs where the median flips between the
 *  host's speeds. */
double
buildRuntime(const RuntimeWorkload &wl, unsigned repeats,
             std::unique_ptr<Runtime> &rt)
{
    std::vector<double> times;
    for (unsigned k = 0; k < repeats; ++k) {
        rt.reset();
        const std::int64_t t0 = nowNs();
        rt = std::make_unique<Runtime>(wl.cfg, wl.rules);
        times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return percentile(times, kFastDecile);
}

/** What one pass of the runtime (alternating closed-loop and open-loop
 *  segments) measured. */
struct RuntimePhase
{
    // Closed-loop window.
    double windowSeconds = 0.0;
    std::uint64_t windowProcessed = 0;
    std::uint64_t windowGood = 0;
    std::uint64_t windowAllocs = 0;
    std::uint64_t windowBusyNs = 0;
    std::uint64_t windowBatches = 0;
    /// Packets processed per second in each kSliceS slice of it.
    std::vector<double> sliceRates;
    // Open loop.
    std::vector<double> sojournUs;
    std::vector<double> latenessUs;
    double offerNs = 0.0;
    std::uint64_t openPackets = 0;
    // Whole pass.
    std::uint64_t offered = 0;
    RuntimeSnapshot final;
    std::uint64_t ringHwm = 0;
    std::uint64_t seqlockRetries = 0;
    std::size_t verified = 0;
    std::uint64_t verifyWrong = 0;
    bool stalled = false;
};

/** Open-loop packets scheduled in one slice at @p rate_pps. */
std::size_t
slicePackets(double rate_pps)
{
    return std::max<std::size_t>(1,
                                 static_cast<std::size_t>(kSliceS * rate_pps));
}

RuntimePhase
runRuntimePhase(RuntimeWorkload &wl, Runtime &rt, double warm_s,
                double measure_s)
{
    RuntimePhase ph;
    TupleStream &stream = *wl.stream;
    stream.reset();
    Worker &worker = rt.worker(0);

    // One stream packet into the runtime; returns ns spent in offer().
    auto offerNext = [&]() -> std::int64_t {
        const FiveTuple &t = stream.next();
        Packet p;
        {
            UncountedAllocs bench_side;
            p = Packet::fromTuple(t);
        }
        const std::int64_t t0 = nowNs();
        rt.offer(std::move(p), t);
        ++ph.offered;
        return nowNs() - t0;
    };
    // Backpressure without spinning: keep at most a ring's worth of
    // packets in flight and sleep while the worker catches up, so the
    // producer never competes with the worker for a CPU.
    const std::uint64_t in_flight_cap = wl.cfg.ringCapacity - kBurst;
    auto offerFor = [&](double seconds, std::vector<double> *slice_rates) {
        std::int64_t mark = nowNs();
        std::uint64_t mark_pkts = worker.counters().packets;
        const std::int64_t end = mark + toNs(seconds);
        for (std::int64_t now = mark; now < end; now = nowNs()) {
            if (slice_rates && now - mark >= toNs(kSliceS)) {
                const std::uint64_t pkts = worker.counters().packets;
                slice_rates->push_back(static_cast<double>(pkts - mark_pkts) *
                                       1e9 / static_cast<double>(now - mark));
                mark = now;
                mark_pkts = pkts;
            }
            if (ph.offered - worker.counters().packets >= in_flight_cap) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                continue;
            }
            for (unsigned k = 0; k < kBurst; ++k)
                offerNext();
        }
    };

    // Closed-loop segment, added to the window totals; snapshots are
    // taken outside the allocation window.
    auto closedSegment = [&](double seconds) {
        RuntimeSnapshot s0;
        {
            UncountedAllocs bench_side;
            s0 = rt.snapshot();
        }
        const std::uint64_t a0 = heapAllocs();
        const std::int64_t t0 = nowNs();
        offerFor(seconds, &ph.sliceRates);
        const std::int64_t t1 = nowNs();
        const std::uint64_t a1 = heapAllocs();
        RuntimeSnapshot s1;
        {
            UncountedAllocs bench_side;
            s1 = rt.snapshot();
        }
        const std::uint64_t processed = s1.processed - s0.processed;
        // One FIFO worker: the k-th processed packet is the k-th offered.
        const std::uint64_t expect = stream.expectedMatches(s1.processed) -
                                     stream.expectedMatches(s0.processed);
        const std::uint64_t got = s1.matched - s0.matched;
        const std::uint64_t off = got > expect ? got - expect : expect - got;
        ph.windowSeconds += static_cast<double>(t1 - t0) / 1e9;
        ph.windowProcessed += processed;
        ph.windowGood += processed - std::min(off, processed);
        ph.windowAllocs += a1 - a0;
        ph.windowBusyNs += s1.busyNanos - s0.busyNanos;
        ph.windowBatches += s1.batches - s0.batches;
    };

    // Open-loop segment of @p target packets at the workload's fixed
    // rate, from an idle worker: every packet offered so far has been
    // processed. False when the worker stalled.
    const OpenLoopSchedule sched(wl.openLoopPps);
    auto openSegment = [&](std::uint64_t target) {
        const std::uint64_t base = ph.offered;
        while (worker.counters().packets < base)
            std::this_thread::yield();
        const std::int64_t start = nowNs();
        const std::int64_t give_up =
            start + sched.dueNs(target) + toNs(30.0);
        std::uint64_t sent = 0;
        std::uint64_t done = 0;
        while (done < target) {
            const std::int64_t now = nowNs();
            if (now > give_up)
                return false;
            const std::uint64_t due =
                std::min(sched.dueBy(now - start), target);
            while (sent < due) {
                ph.latenessUs.push_back(
                    static_cast<double>(nowNs() - start -
                                        sched.dueNs(sent)) /
                    1e3);
                ph.offerNs += static_cast<double>(offerNext());
                ++sent;
                ++ph.openPackets;
            }
            cpuRelax();
            const std::uint64_t processed = worker.counters().packets - base;
            if (processed > done) {
                const std::int64_t seen = nowNs() - start;
                for (; done < processed; ++done)
                    ph.sojournUs.push_back(
                        static_cast<double>(seen - sched.dueNs(done)) / 1e3);
            }
        }
        return true;
    };

    // Closed and open segments alternate, so both loops sample the
    // host's speed over the whole run.
    rt.start();
    offerFor(warm_s, nullptr);
    const std::uint64_t open_pkts =
        kSegmentSlices * slicePackets(wl.openLoopPps);
    const unsigned segments = std::max(
        1u,
        static_cast<unsigned>(measure_s / (2 * kSegmentSlices * kSliceS)));
    ph.sojournUs.reserve(segments * open_pkts);
    ph.latenessUs.reserve(segments * open_pkts);
    for (unsigned k = 0; k < segments && !ph.stalled; ++k) {
        closedSegment(kSegmentSlices * kSliceS);
        ph.stalled = !openSegment(open_pkts);
    }

    rt.drain();
    rt.stop();
    ph.final = rt.snapshot();
    ph.ringHwm = worker.ringDepthHwm();

    // Post-run action check on the (now quiescent) worker shard.
    VirtualSwitch &vs = worker.vswitch();
    ph.seqlockRetries = vs.emc().seqlockRetries();
    for (unsigned t = 0; t < vs.tupleSpace().numTuples(); ++t)
        ph.seqlockRetries += vs.tupleSpace().table(t).seqlockRetries();
    const std::vector<FiveTuple> sample = stream.verifySample(kVerifyFlows);
    ph.verified = sample.size();
    std::array<PacketResult, kBurst> res;
    for (std::size_t off0 = 0; off0 < sample.size(); off0 += kBurst) {
        const std::size_t n = std::min<std::size_t>(kBurst,
                                                    sample.size() - off0);
        const std::span<const FiveTuple> batch(sample.data() + off0, n);
        vs.classifyBurst(batch, res);
        for (std::size_t i = 0; i < n; ++i)
            if (!outcomeOk(res[i], wl.oracle->classify(batch[i]),
                           wl.decoupled()))
                ++ph.verifyWrong;
    }
    return ph;
}

/** Fold a runtime pass's outcomes into @p rep; returns the
 *  expected-outcome ratio. */
double
accountRuntime(const RuntimeWorkload &wl, const RuntimePhase &ph,
               Report &rep)
{
    const RuntimeSnapshot &s = ph.final;
    const std::uint64_t expect = wl.stream->expectedMatches(s.processed);
    const std::uint64_t over = s.matched > expect ? s.matched - expect : 0;
    const std::uint64_t under = expect > s.matched ? expect - s.matched : 0;
    const std::uint64_t lost = ph.offered - std::min(ph.offered, s.processed);
    // A decoupled run reports a miss whose upcall is in flight
    // (slowPathPending) as unmatched: not the expected outcome, so it
    // lowers the ratio, but the packet is neither lost nor misclassified.
    const std::uint64_t wrong = over + (wl.decoupled() ? 0 : under);
    rep.attempted += ph.offered;
    rep.failed += lost + wrong + ph.verifyWrong + s.revalidator.unresolved;
    if (ph.stalled)
        rep.checksOk = false;
    const std::uint64_t good = s.processed - std::min(s.processed,
                                                      over + under);
    std::printf("outcomes: %llu offered, %llu processed, %llu matched "
                "(%llu expected), %llu ring drops, %llu wrong in the "
                "post-run check of %zu distinct flows%s\n",
                static_cast<unsigned long long>(ph.offered),
                static_cast<unsigned long long>(s.processed),
                static_cast<unsigned long long>(s.matched),
                static_cast<unsigned long long>(expect),
                static_cast<unsigned long long>(s.ringFullDrops),
                static_cast<unsigned long long>(ph.verifyWrong),
                ph.verified, ph.stalled ? ", open loop STALLED" : "");
    return ratio(static_cast<double>(good), static_cast<double>(ph.offered));
}

void
runRuntimeEndToEnd(RuntimeWorkload &wl, const Options &opt, Report &rep)
{
    const double T = opt.seconds;
    std::unique_ptr<Runtime> rt;
    const double setup = buildRuntime(wl, wl.setupRepeats, rt);
    RuntimePhase ph = runRuntimePhase(wl, *rt, 0.08 * T, 0.9 * T);
    const double outcome = accountRuntime(wl, ph, rep);
    // Processing rate of the fast-decile slice, times the closed loop's
    // share of packets in their expected outcome.
    const double good_share = ratio(static_cast<double>(ph.windowGood),
                                    static_cast<double>(ph.windowProcessed));
    const std::size_t rate_slices = ph.sliceRates.size();
    const double goodput =
        percentile(ph.sliceRates, 1.0 - kFastDecile) * good_share;
    // p90 sojourn of each slice of the send schedule, at the fast decile.
    const std::size_t slice_pkts = slicePackets(wl.openLoopPps);
    std::vector<double> slice_p90 =
        chunkPercentiles(ph.sojournUs, slice_pkts, 0.90);
    const double p90 = percentile(slice_p90, kFastDecile);
    std::vector<double> &soj = ph.sojournUs;
    std::printf("closed loop: %.1f pkt/s goodput at the fast decile of %zu "
                "slices (%.1f over the whole window: %llu packets in "
                "%.2f s)\n",
                goodput, rate_slices,
                ratio(static_cast<double>(ph.windowGood), ph.windowSeconds),
                static_cast<unsigned long long>(ph.windowProcessed),
                ph.windowSeconds);
    std::printf("open loop at %.0f pkt/s: sojourn p90 %.1f us at the fast "
                "decile of %zu slices of %zu packets (median slice %.1f "
                "us); whole run p50 %.1f us, p90 %.1f us, p99 %.1f us, "
                "p99.9 %.1f us over %zu samples; send lateness p99 %.1f "
                "us\n",
                wl.openLoopPps, p90, slice_p90.size(), slice_pkts,
                percentile(slice_p90, 0.5), percentile(soj, 0.50),
                percentile(soj, 0.90), percentile(soj, 0.99),
                percentile(soj, 0.999), soj.size(),
                percentile(ph.latenessUs, 0.99));
    rep.add("goodput_pps", goodput, "1/s");
    rep.add("sojourn_p90_us", p90, "us");
    rep.add("expected_outcome_ratio", outcome, "ratio");
    rep.add("setup_s", setup, "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
}

/** A switch shard on private memory, set up like the runtime worker's;
 *  decoupled workloads resolve upcalls inline with the same exact-match
 *  installs the revalidator makes. */
struct ReplayShard
{
    SimMemory mem;
    SwitchShard shard;

    explicit ReplayShard(const RuntimeWorkload &wl)
        : mem(wl.cfg.shardMemBytes), shard(mem, config(wl))
    {
        shard.install(wl.rules, wl.cfg.warmTables);
        if (wl.decoupled()) {
            shard.vswitch().installOpenflowRules(wl.openflow);
            shard.vswitch().warmTables();
        }
    }

    static ShardConfig
    config(const RuntimeWorkload &wl)
    {
        ShardConfig sc = wl.cfg.shard;
        sc.vswitch.burstLanes = kBurst;
        if (wl.decoupled()) {
            sc.vswitch.useOpenflowLayer = true;
            sc.vswitch.exactUpcallInstalls = true;
        }
        return sc;
    }
};

void coreLayers(RuntimeWorkload &wl, double seconds, SpanRecorder &spans,
                Report &rep, LayerMetrics &lm);

/**
 * Replay the workload's stream single-threaded: once untraced
 * (processBurst alone) for @p budget_s, then the same bursts traced on a
 * fresh shard. processBurst has no spans inside, so its functional
 * layers are re-executed rather than nested: after each traced
 * processBurst, the burst's parse, EMC probe and tuple-space walk of its
 * EMC misses run again through their public calls on the same, now
 * cache-warm, state, and their spans are charged to that processBurst
 * span as its children. "unattributed" is processBurst time minus those
 * re-executed calls; today that is the cpu/mem timing model. The layer
 * table fails the run when a row is negative or the traced processBurst
 * total strays from the untraced one. Then come the cuckoo probes and,
 * for @p core_s, the core layer.
 */
void
replayLayers(RuntimeWorkload &wl, double budget_s, double core_s,
             const Options &opt, Report &rep, LayerMetrics &lm)
{
    TupleStream &stream = *wl.stream;
    std::array<FiveTuple, kBurst> tuples;
    std::vector<Packet> burst(kBurst);
    std::vector<PacketResult> res(kBurst);
    auto fill = [&] {
        for (unsigned i = 0; i < kBurst; ++i) {
            tuples[i] = stream.next();
            burst[i] = Packet::fromTuple(tuples[i]);
        }
    };

    std::uint64_t bursts = 0;
    double untracedNs = 0.0;
    {
        ReplayShard a(wl);
        stream.reset();
        const std::int64_t end = nowNs() + toNs(budget_s);
        while (nowNs() < end) {
            fill();
            const std::int64_t t0 = nowNs();
            a.shard.vswitch().processBurst(burst, res);
            untracedNs += static_cast<double>(nowNs() - t0);
            ++bursts;
        }
    }

    ReplayShard b(wl);
    VirtualSwitch &vs = b.shard.vswitch();
    stream.reset();
    SpanRecorder spans(bursts * 5 + kCuckooSpans + kCoreSpans);
    std::array<std::array<std::uint8_t, FiveTuple::keyBytes>, kBurst> keys;
    const std::uint8_t *keyPtr[kBurst];
    const std::uint8_t *missPtr[kBurst];
    std::uint64_t values[kBurst];
    std::uint64_t slots[kBurst][2];
    std::array<TupleSpace::BulkWalkLane, kBurst> walk;
    TupleSpace::BulkWalkLane *walkPtr[kBurst];
    std::uint64_t emcHits = 0, searched = 0, wrong = 0, parsed = 0;
    std::vector<FiveTuple> seen;
    for (std::uint64_t bi = 0; bi < bursts; ++bi) {
        fill();
        const auto batch = static_cast<std::uint32_t>(bi);
        const std::int32_t proc = spans.begin("vswitch.process", -1, batch);
        vs.processBurst(burst, res);
        spans.end(proc);

        std::int32_t s = spans.begin("net.parse", proc, batch);
        for (const Packet &p : burst)
            parsed += p.parseHeaders().has_value() ? 1 : 0;
        spans.end(s);

        for (unsigned i = 0; i < kBurst; ++i) {
            keys[i] = tuples[i].toKey();
            keyPtr[i] = keys[i].data();
        }
        s = spans.begin("flow.emc_probe", proc, batch);
        vs.emc().lookupBulk(keyPtr, kBurst, values, slots);
        spans.end(s);

        std::size_t m = 0;
        for (unsigned i = 0; i < kBurst; ++i) {
            if (res[i].emcHit)
                continue;
            walk[m].reset();
            walkPtr[m] = &walk[m];
            missPtr[m++] = keyPtr[i];
        }
        s = spans.begin("flow.tss_lookup", proc, batch);
        if (m)
            vs.tupleSpace().lookupFirstBulk(missPtr, m, walkPtr);
        spans.end(s);

        if (wl.decoupled()) {
            s = spans.begin("flow.openflow_lookup", -1, batch);
            for (unsigned i = 0; i < kBurst; ++i)
                vs.openflowLayer().lookupBest(std::span<const std::uint8_t>(
                    keys[i].data(), keys[i].size()));
            spans.end(s);
        }

        for (unsigned i = 0; i < kBurst; ++i) {
            emcHits += res[i].emcHit ? 1 : 0;
            searched += res[i].tuplesSearched;
            if (!outcomeOk(res[i], wl.oracle->classify(tuples[i]), false))
                ++wrong;
        }
        if (seen.size() < kCuckooKeys)
            seen.insert(seen.end(), tuples.begin(), tuples.end());
    }
    const double pk = static_cast<double>(bursts * kBurst);
    rep.attempted += bursts * kBurst;
    rep.failed += wrong + (bursts * kBurst - parsed);

    const double total = spans.totalNs("vswitch.process");
    const auto rows = spans.layerTable("vswitch.process");
    printLayerTable(rows, "vswitch.process", total, untracedNs, pk, rep);
    double functional = 0.0;
    for (const auto &[name, ns] : rows) {
        if (name == "net.parse")
            lm.set("net.parse_ns_per_pkt", ns / pk);
        else if (name == "flow.emc_probe")
            lm.set("flow.emc_probe_ns", ns / pk);
        else if (name == "flow.tss_lookup")
            lm.set("flow.tss_lookup_ns_per_pkt", ns / pk);
        else if (name == "unattributed")
            lm.set("vswitch.unattributed_ns_per_pkt", ns / pk);
        if (name == "flow.emc_probe" || name == "flow.tss_lookup")
            functional += ns;
    }
    lm.set("vswitch.process_ns_per_pkt", total / pk);
    lm.set("vswitch.classify_ns_per_pkt", functional / pk);
    lm.set("vswitch.emc_hit_ratio", static_cast<double>(emcHits) / pk);
    lm.set("vswitch.tuples_searched_per_pkt",
           static_cast<double>(searched) / pk);
    if (wl.decoupled())
        lm.set("flow.openflow_lookup_ns",
               spans.totalNs("flow.openflow_lookup") / pk);
    lm.set("obs.trace_overhead_ratio", ratio(total, untracedNs));
    lm.set("cpu.sim_cycles_per_pkt", vs.totals().cyclesPerPacket());
    lm.set("mem.hierarchy_accesses_per_pkt",
           hierarchyAccesses(b.shard.hierarchy()) / pk);
    cuckooProbes(vs.tupleSpace(), seen, opt.seed, spans, lm);
    coreLayers(wl, core_s, spans, rep, lm);
    writeSpans(spans, opt);
}

void
runRuntimeLayers(RuntimeWorkload &wl, const Options &opt, Report &rep,
                 LayerMetrics &lm)
{
    const double T = opt.seconds;
    RuntimePhase ph;
    {
        std::unique_ptr<Runtime> rt;
        buildRuntime(wl, 1, rt);
        ph = runRuntimePhase(wl, *rt, 0.05 * T, 0.4 * T);
    }
    accountRuntime(wl, ph, rep);
    const RuntimeSnapshot &s = ph.final;
    const double pk = static_cast<double>(ph.windowProcessed);
    const double kpkt = static_cast<double>(s.processed) / 1e3;
    lm.set("runtime.offer_ns_per_pkt",
           ratio(ph.offerNs, static_cast<double>(ph.openPackets)));
    lm.set("runtime.heap_allocs_per_pkt",
           ratio(static_cast<double>(ph.windowAllocs), pk));
    lm.set("runtime.worker_busy_ns_per_pkt",
           ratio(static_cast<double>(ph.windowBusyNs), pk));
    lm.set("runtime.batch_pkts_mean",
           ratio(pk, static_cast<double>(ph.windowBatches)));
    lm.set("runtime.ring_depth_hwm", static_cast<double>(ph.ringHwm));
    lm.set("runtime.ring_full_drops", static_cast<double>(s.ringFullDrops));
    // The upcall ring, the revalidator and the seqlocked readers exist
    // only in the decoupled runtime.
    if (wl.decoupled()) {
        lm.set("runtime.upcalls_per_kpkt",
               ratio(static_cast<double>(s.upcallsEnqueued), kpkt));
        lm.set("runtime.upcall_drops", static_cast<double>(s.upcallDrops));
        lm.set("runtime.installs_per_new_flow",
               ratio(static_cast<double>(s.revalidator.installs),
                     static_cast<double>(wl.stream->flowsSeen())));
        lm.set("runtime.aged_flows",
               static_cast<double>(s.revalidator.agedFlows));
        lm.set("runtime.seqlock_retries_per_kpkt",
               ratio(static_cast<double>(ph.seqlockRetries), kpkt));
    }
    lm.set("loadgen.lateness_us_p99", percentile(ph.latenessUs, 0.99));
    replayLayers(wl, 0.15 * T, 0.1 * T, opt, rep, lm);
}

// ---------------------------------------------------------------------
// The simulator's three lookup modes: paper_model, and the core layer
// of the runtime workloads
// ---------------------------------------------------------------------

/** Inputs of the mode shards: their rules, the probe tuples with their
 *  reference outcomes, and the order the probes are sent in. */
struct ModeInputs
{
    RuleSet rules;
    std::uint64_t tupleCapacity = 0;  ///< entries per tuple table
    std::vector<FiveTuple> probes;
    std::vector<RefOutcome> expect;   ///< per probe
    std::vector<std::uint32_t> order; ///< probe index per packet, cycled
};

void
makePaperInputs(ModeInputs &in, std::uint64_t seed)
{
    TrafficConfig tc;
    tc.numFlows = kPaperEntries * kPaperTuples * 4;
    tc.seed = seed;
    TrafficGenerator gen(tc);
    in.rules = deriveRules(gen.flows(), canonicalMasks(kPaperTuples),
                           kPaperEntries * kPaperTuples, seed);
    in.tupleCapacity = kPaperEntries * 2;
    // Half known flows (they match somewhere in the tuple space), half
    // alien flows that walk every tuple, as in Fig. 11.
    Xoshiro256 rng(seed ^ 0x5050u);
    for (std::size_t i = 0; i < gen.flows().size(); ++i) {
        if (i % 2 == 0) {
            in.probes.push_back(gen.flows()[i]);
            continue;
        }
        FiveTuple alien;
        alien.srcIp = 0xc0000000u | static_cast<std::uint32_t>(rng.next());
        alien.dstIp = 0xd0000000u | static_cast<std::uint32_t>(rng.next());
        alien.srcPort = static_cast<std::uint16_t>(rng.next());
        alien.dstPort = static_cast<std::uint16_t>(rng.next());
        alien.proto = 17;
        in.probes.push_back(alien);
    }
    const ReferenceClassifier oracle(in.rules);
    in.expect.reserve(in.probes.size());
    for (const FiveTuple &t : in.probes)
        in.expect.push_back(oracle.classify(t));
    Xoshiro256 pick(seed ^ 0x0ddeu);
    in.order.resize(1u << 16);
    for (std::uint32_t &o : in.order)
        o = static_cast<std::uint32_t>(pick.nextBounded(in.probes.size()));
}

constexpr LookupMode kPaperModes[] = {LookupMode::Software,
                                      LookupMode::HaloBlocking,
                                      LookupMode::HaloNonBlocking};
constexpr const char *kPaperModeNames[] = {"sw", "halo_b", "halo_nb"};
constexpr const char *kPaperSpanNames[] = {"core.sw", "core.halo_b",
                                           "core.halo_nb"};

/** One HALO shard per lookup mode, on its own simulated memory. */
struct ModeShard
{
    LookupMode mode;
    SimMemory mem;
    SwitchShard shard;
    std::uint64_t cursor = 0; ///< next position in ModeInputs::order
    std::uint64_t packets = 0;
    std::uint64_t wrong = 0;
    std::uint64_t searched = 0;

    ModeShard(LookupMode m, const ModeInputs &in)
        : mode(m), mem(2ull << 30), shard(mem, config(m, in.tupleCapacity))
    {
        shard.install(in.rules, true);
    }

    static ShardConfig
    config(LookupMode m, std::uint64_t tuple_capacity)
    {
        ShardConfig sc;
        sc.useHalo = true;
        sc.vswitch.mode = m;
        sc.vswitch.useEmc = false; // isolate the tuple-space search
        sc.vswitch.tupleConfig.tupleCapacity = tuple_capacity;
        sc.vswitch.burstLanes = kBurst;
        return sc;
    }

    /** Classify the next @p bursts bursts of the probe order. */
    void
    run(const ModeInputs &in, unsigned bursts)
    {
        VirtualSwitch &vs = shard.vswitch();
        std::array<FiveTuple, kBurst> batch;
        std::array<std::uint32_t, kBurst> idx;
        std::array<PacketResult, kBurst> res;
        for (unsigned b = 0; b < bursts; ++b) {
            for (unsigned i = 0; i < kBurst; ++i) {
                idx[i] = in.order[cursor++ % in.order.size()];
                batch[i] = in.probes[idx[i]];
            }
            if (mode == LookupMode::HaloNonBlocking) {
                const std::vector<PacketResult> r = vs.classifyBurstNB(batch);
                std::copy(r.begin(), r.end(), res.begin());
            } else {
                vs.classifyBurst(batch, res);
            }
            for (unsigned i = 0; i < kBurst; ++i) {
                wrong += outcomeOk(res[i], in.expect[idx[i]], false) ? 0 : 1;
                searched += res[i].tuplesSearched;
            }
            packets += kBurst;
        }
    }
};

using ModeShards = std::vector<std::unique_ptr<ModeShard>>;

void
accountShards(const ModeShards &shards, Report &rep)
{
    for (const auto &s : shards) {
        rep.attempted += s->packets;
        rep.failed += s->wrong;
    }
}

/**
 * Build the three mode shards @p repeats times (setup_s is the median
 * build time) and keep the last set. Every build runs the same warm-up
 * and golden prefix on its fresh shards; the prefix's simulated cycles
 * must repeat exactly, build after build.
 */
double
buildPaperShards(const ModeInputs &in, unsigned repeats, ModeShards &shards,
                 Report &rep)
{
    std::vector<double> times;
    std::array<Cycles, 3> golden{};
    for (unsigned k = 0; k < repeats; ++k) {
        accountShards(shards, rep);
        shards.clear();
        const std::int64_t t0 = nowNs();
        for (const LookupMode m : kPaperModes)
            shards.push_back(std::make_unique<ModeShard>(m, in));
        times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        for (std::size_t i = 0; i < shards.size(); ++i) {
            ModeShard &ms = *shards[i];
            ms.run(in, kPaperWarmBursts);
            const Cycles c0 = ms.shard.vswitch().now();
            ms.run(in, kPaperPrefixBursts);
            const Cycles cycles = ms.shard.vswitch().now() - c0;
            if (k == 0) {
                golden[i] = cycles;
            } else if (cycles != golden[i]) {
                std::printf("golden cycles MISMATCH in mode %s: %llu vs "
                            "%llu\n",
                            kPaperModeNames[i],
                            static_cast<unsigned long long>(cycles),
                            static_cast<unsigned long long>(golden[i]));
                rep.checksOk = false;
            }
        }
    }
    std::printf("golden prefix cycles/packet (%u builds agree: %s):",
                repeats, rep.checksOk ? "yes" : "NO");
    for (std::size_t i = 0; i < golden.size(); ++i)
        std::printf(" %s %.1f", kPaperModeNames[i],
                    static_cast<double>(golden[i]) /
                        (kPaperPrefixBursts * kBurst));
    std::printf("\n");
    return median(times);
}

void
runPaperEndToEnd(const ModeInputs &in, const Options &opt, Report &rep)
{
    ModeShards shards;
    const double setup = buildPaperShards(in, 5, shards, rep);
    std::uint64_t wrong0 = 0;
    for (const auto &s : shards)
        wrong0 += s->wrong;

    // One latency sample per round: the same 16 probes' worth of work
    // through each of the three modes.
    std::vector<double> lat;
    std::uint64_t packets = 0;
    const std::int64_t t0 = nowNs();
    const std::int64_t end = t0 + toNs(0.8 * opt.seconds);
    while (nowNs() < end) {
        const std::int64_t r0 = nowNs();
        for (auto &s : shards)
            s->run(in, 1);
        lat.push_back(static_cast<double>(nowNs() - r0) / 1e3);
        packets += shards.size() * kBurst;
    }
    const double wall = static_cast<double>(nowNs() - t0) / 1e9;
    std::uint64_t wrong = 0;
    for (const auto &s : shards)
        wrong += s->wrong;
    accountShards(shards, rep);

    const double goodput =
        ratio(static_cast<double>(packets - (wrong - wrong0)), wall);
    const double p50 = percentile(lat, 0.50);
    const double p90 = percentile(lat, 0.90);
    std::printf("simulated packets per host second over sw/halo_b/halo_nb: "
                "%.1f (%llu packets in %.2f s)\n",
                goodput, static_cast<unsigned long long>(packets), wall);
    std::printf("round (one 16-packet burst per mode) host time: p50 "
                "%.1f us, p90 %.1f us, p99 %.1f us over %zu rounds\n",
                p50, p90, percentile(lat, 0.99), lat.size());
    rep.add("goodput_pps", goodput, "1/s");
    rep.add("sojourn_p90_us", p90, "us");
    rep.add("expected_outcome_ratio",
            ratio(static_cast<double>(rep.attempted - rep.failed),
                  static_cast<double>(rep.attempted)),
            "ratio");
    rep.add("setup_s", setup, "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
}

/** Simulated work of the mode shards over one traced window. */
struct ModeWindow
{
    double packets = 0.0;
    double searched = 0.0;
    double cycles = 0.0;
    double accesses = 0.0;
};

/**
 * Traced window of at least one round and about @p seconds over the
 * mode shards: one @p root span per round, one child span per mode
 * chunk of kPaperChunkBursts bursts. Sets the core.* layer metrics.
 */
ModeWindow
traceModes(ModeShards &shards, const ModeInputs &in, double seconds,
           const char *root, SpanRecorder &spans, LayerMetrics &lm)
{
    std::array<std::uint64_t, 3> pk0{}, searched0{};
    std::array<Cycles, 3> cyc0{};
    std::array<double, 3> acc0{};
    std::uint64_t queries0 = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        pk0[i] = shards[i]->packets;
        searched0[i] = shards[i]->searched;
        cyc0[i] = shards[i]->shard.vswitch().now();
        acc0[i] = hierarchyAccesses(shards[i]->shard.hierarchy());
        queries0 += shards[i]->shard.halo()->totalQueries();
    }
    std::uint32_t round = 0;
    const std::int64_t end = nowNs() + toNs(seconds);
    do {
        const std::int32_t r = spans.begin(root, -1, round);
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const std::int32_t s = spans.begin(kPaperSpanNames[i], r, round);
            shards[i]->run(in, kPaperChunkBursts);
            spans.end(s);
        }
        spans.end(r);
        ++round;
    } while (nowNs() < end);

    ModeWindow w;
    double haloPackets = 0.0, queries = -static_cast<double>(queries0);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        ModeShard &ms = *shards[i];
        const double p = static_cast<double>(ms.packets - pk0[i]);
        w.packets += p;
        w.searched += static_cast<double>(ms.searched - searched0[i]);
        w.cycles += static_cast<double>(ms.shard.vswitch().now() - cyc0[i]);
        w.accesses += hierarchyAccesses(ms.shard.hierarchy()) - acc0[i];
        queries += static_cast<double>(ms.shard.halo()->totalQueries());
        if (ms.mode != LookupMode::Software)
            haloPackets += p;
        lm.set(std::string("core.host_ns_per_sim_pkt_") + kPaperModeNames[i],
               ratio(spans.totalNs(kPaperSpanNames[i]), p));
    }
    lm.set("core.accel_queries_per_pkt", ratio(queries, haloPackets));
    return w;
}

/**
 * Core-layer inputs of a runtime workload: the first kCoreProbes packets
 * of its stream, on shards that hold its megaflow rules. churn_upcall's
 * megaflow layer starts empty, so its shards hold the exact-match
 * entries the revalidator installs for those packets instead. The
 * fullest tuple table is kept at most three quarters full.
 */
void
makeCoreInputs(RuntimeWorkload &wl, ModeInputs &in)
{
    TupleStream &stream = *wl.stream;
    stream.reset();
    for (std::size_t k = 0; k < kCoreProbes; ++k) {
        in.probes.push_back(stream.next());
        in.expect.push_back(wl.oracle->classify(in.probes.back()));
    }
    in.order.resize(kCoreProbes);
    std::iota(in.order.begin(), in.order.end(), 0u);

    if (wl.decoupled()) {
        std::map<std::array<std::uint8_t, FiveTuple::keyBytes>, Action>
            exact;
        for (std::size_t k = 0; k < in.probes.size(); ++k)
            exact.try_emplace(in.probes[k].toKey(), in.expect[k].action);
        for (const auto &[key, action] : exact) {
            FlowRule r;
            r.mask = FlowMask::exact();
            r.maskedKey = r.mask.apply(key);
            r.priority = 1;
            r.action = action;
            in.rules.push_back(r);
        }
    } else {
        in.rules = wl.rules;
    }

    std::vector<std::pair<FlowMask, std::uint64_t>> perMask;
    std::uint64_t fullest = 0;
    for (const FlowRule &r : in.rules) {
        auto it = std::find_if(perMask.begin(), perMask.end(),
                               [&](const auto &c) {
                                   return c.first == r.mask;
                               });
        if (it == perMask.end()) {
            perMask.emplace_back(r.mask, 0);
            it = std::prev(perMask.end());
        }
        fullest = std::max(fullest, ++it->second);
    }
    in.tupleCapacity =
        std::bit_ceil(std::max<std::uint64_t>(1024, fullest * 4 / 3 + 1));
}

/**
 * The core layer on a runtime workload: its first kCoreProbes packets,
 * cycled through Software, HaloBlocking and HaloNonBlocking HALO shards
 * (EMC off, as in paper_model) for about @p seconds, traced per mode.
 */
void
coreLayers(RuntimeWorkload &wl, double seconds, SpanRecorder &spans,
           Report &rep, LayerMetrics &lm)
{
    ModeInputs in;
    makeCoreInputs(wl, in);
    ModeShards shards;
    for (const LookupMode m : kPaperModes) {
        shards.push_back(std::make_unique<ModeShard>(m, in));
        shards.back()->run(in, kPaperWarmBursts);
    }
    traceModes(shards, in, seconds, "core.round", spans, lm);
    accountShards(shards, rep);
}

void
runPaperLayers(const ModeInputs &in, const Options &opt, Report &rep,
               LayerMetrics &lm)
{
    const double T = opt.seconds;
    ModeShards shards;
    buildPaperShards(in, 1, shards, rep);

    // Untraced window: the tracing-overhead base.
    std::uint64_t untracedPackets = 0;
    const std::int64_t t0 = nowNs();
    const std::int64_t end = t0 + toNs(0.3 * T);
    while (nowNs() < end) {
        for (auto &s : shards) {
            s->run(in, kPaperChunkBursts);
            untracedPackets += kPaperChunkBursts * kBurst;
        }
    }
    const double untracedNsPerPkt = ratio(static_cast<double>(nowNs() - t0),
                                          static_cast<double>(untracedPackets));

    SpanRecorder spans((1u << 16) + kCuckooSpans);
    const ModeWindow w =
        traceModes(shards, in, 0.3 * T, "paper.round", spans, lm);
    accountShards(shards, rep);

    const double total = spans.totalNs("paper.round");
    const auto rows = spans.layerTable("paper.round");
    printLayerTable(rows, "paper.round", total, untracedNsPerPkt * w.packets,
                    w.packets, rep);
    double classify = 0.0;
    for (const auto &[name, ns] : rows) {
        if (name == "unattributed")
            lm.set("vswitch.unattributed_ns_per_pkt", ratio(ns, w.packets));
        else
            classify += ns;
    }
    lm.set("vswitch.process_ns_per_pkt", ratio(total, w.packets));
    lm.set("vswitch.classify_ns_per_pkt", ratio(classify, w.packets));
    lm.set("vswitch.tuples_searched_per_pkt", ratio(w.searched, w.packets));
    lm.set("cpu.sim_cycles_per_pkt", ratio(w.cycles, w.packets));
    lm.set("mem.hierarchy_accesses_per_pkt", ratio(w.accesses, w.packets));
    lm.set("obs.trace_overhead_ratio",
           ratio(ratio(total, w.packets), untracedNsPerPkt));
    const std::vector<FiveTuple> candidates(
        in.probes.begin(),
        in.probes.begin() + static_cast<std::ptrdiff_t>(
                                std::min(kCuckooKeys * 2, in.probes.size())));
    cuckooProbes(shards[0]->shard.vswitch().tupleSpace(), candidates,
                 opt.seed, spans, lm);
    writeSpans(spans, opt);
}

// ---------------------------------------------------------------------

int
run(const Options &opt)
{
    const HostProbe probe0 = probeHost();
    Report rep;
    LayerMetrics layers;
    if (opt.workload == Workload::PaperModel) {
        ModeInputs in;
        makePaperInputs(in, opt.seed);
        if (opt.trace)
            runPaperLayers(in, opt, rep, layers);
        else
            runPaperEndToEnd(in, opt, rep);
    } else {
        const auto wl = makeRuntimeWorkload(opt.workload, opt.seed);
        if (opt.trace)
            runRuntimeLayers(*wl, opt, rep, layers);
        else
            runRuntimeEndToEnd(*wl, opt, rep);
    }
    if (opt.trace)
        layers.addTo(rep);
    const HostProbe probe1 = probeHost();
    // Host-speed diagnostics only: never used to normalise a metric.
    std::printf("perfbench-diag {\"chase_ns_start\": %.4f, "
                "\"chase_ns_end\": %.4f, \"spin_ns_start\": %.4f, "
                "\"spin_ns_end\": %.4f}\n",
                probe0.chaseNsPerLoad, probe1.chaseNsPerLoad,
                probe0.spinNsPerIter, probe1.spinNsPerIter);
    rep.print();
    return rep.correct() ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload emc_hot|megaflow_wide|churn_upcall|"
                 "paper_model --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            haveWorkload = true;
            if (val == "emc_hot")
                opt.workload = Workload::EmcHot;
            else if (val == "megaflow_wide")
                opt.workload = Workload::MegaflowWide;
            else if (val == "churn_upcall")
                opt.workload = Workload::ChurnUpcall;
            else if (val == "paper_model")
                opt.workload = Workload::PaperModel;
            else
                return usage(argv[0]);
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), nullptr);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage(argv[0]);
            opt.trace = val == "1";
        } else if (arg == "--spans") {
            opt.spansPath = val;
        } else {
            return usage(argv[0]);
        }
    }
    if (!haveWorkload || !(opt.seconds > 0.0))
        return usage(argv[0]);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "halo_perfbench: %s\n", e.what());
        return 2;
    }
}

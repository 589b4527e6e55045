/**
 * @file
 * Host wall-clock throughput of the functional fast paths.
 *
 * Unlike every other bench (which reports *simulated* cycles), this
 * harness measures how fast the simulator itself executes on the host:
 * operations per second of the hot functional paths — cuckoo lookup,
 * EMC probe, tuple-space search, the end-to-end timed packet pipeline
 * in all four LookupModes (process_packet_*), and the same pipeline on
 * the functional switch the runtime workers run (classify_packet:
 * parse -> EMC -> megaflow, no timing model), and the frame build every
 * ingested packet pays (packet_from_tuple). It exists to track the
 * zero-copy line-view fast path over SimMemory and the per-packet
 * scratch reuse, and to catch regressions in simulator speed.
 *
 * The scalar benchmarks are deliberately restricted to APIs that exist
 * in the seed tree (lookup/insert, lookupFirst, processPacket), so
 * they keep measuring the same thing the embedded --baseline numbers
 * did. The *_burst benchmarks exercise the untraced, batched,
 * prefetch-pipelined table paths (lookupUntracedBulk, lookupBulk,
 * lookupFirstBulk) added on top of the seed.
 *
 * Usage: host_throughput [--out FILE] [--prom FILE] [--smoke] [--perf]
 *                        [--baseline FILE] [--min-time SECS] [--burst N]
 *
 * Shared flags: see bench_common.hh. Here --out defaults to
 * BENCH_host_throughput.json; --prom writes
 * halo_host_ops_per_sec{bench="..."}; --smoke shortens --min-time to
 * 0.05 unless it is given; --perf opens one main-thread PMU group and
 * records one exact-read pass per benchmark ("hw" per bench; rdtsc-only
 * with perf_degraded when the syscall is refused).
 *
 *   --baseline a previous output of this harness (e.g. one produced
 *              from the seed tree); its numbers are embedded under
 *              "seed" and per-benchmark speedups are computed
 *   --min-time minimum measured wall time per benchmark (default 0.5)
 *   --burst    batch window for the *_burst benchmarks (default 16,
 *              clamped to [1, 32]; 1 routes through the scalar APIs,
 *              reproducing the scalar numbers). The cuckoo sweep
 *              cuckoo_lookup_burst{4,8,16,32} always runs all four
 *              sizes regardless.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "flow/emc.hh"
#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "obs/json.hh"
#include "obs/meta.hh"
#include "obs/metrics.hh"
#include "vswitch/vswitch.hh"

using namespace halo;
using namespace halo::bench;

namespace {

using Clock = std::chrono::steady_clock;

double minTime = 0.5;
unsigned burstWindow = 16;

/// --perf: the main-thread PMU group and one exact pass per bench.
std::unique_ptr<obs::PerfCounterGroup> perfGroup;
std::map<std::string, HwPass> hwStats;

/** Measured results, in insertion order plus keyed access. */
struct Results
{
    std::vector<std::pair<std::string, double>> opsPerSec;

    void
    add(const std::string &name, double ops)
    {
        opsPerSec.emplace_back(name, ops);
    }
};

/**
 * Run @p body (which performs @p batch operations per call) repeatedly
 * until minTime has elapsed, after one untimed warmup call, and report
 * the throughput of the *fastest* pass. Each pass is sub-millisecond,
 * so on machines with scheduler interference (shared vCPUs) the best
 * pass reflects the code's actual speed while disturbed passes are
 * discarded — the mean would measure the neighbors, not the code.
 */
template <typename Body>
double
measure(const char *name, std::uint64_t batch, Body &&body)
{
    body(); // warmup (also faults in lazily-materialized pages)
    double best = 1e30;
    double elapsed = 0.0;
    std::uint64_t passes = 0;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        body();
        const auto t1 = Clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
        ++passes;
        elapsed =
            std::chrono::duration<double>(t1 - start).count();
    } while (elapsed < minTime);
    const double rate = static_cast<double>(batch) / best;
    std::printf("%-28s %12.0f ops/s  (%.2f Mops, best of %llu passes)\n",
                name, rate, rate / 1e6,
                static_cast<unsigned long long>(passes));
    // Hardware truth: one more pass with exact PMU reads around it,
    // after the timed loop so it does not perturb the reported rate.
    if (perfGroup)
        hwStats[name] = measureHw(*perfGroup, batch, body);
    return rate;
}

/** Volatile sink so the compiler cannot discard lookup results. */
volatile std::uint64_t sink = 0;

// --- Cuckoo lookup: 60K entries in a 64Ki-capacity table, random
//     hitting probes (the Table-1 workload shape). ---
void
benchCuckoo(Results &out)
{
    Machine m;
    CuckooHashTable::Config cfg;
    cfg.keyLen = 16;
    cfg.capacity = 65536;
    CuckooHashTable table(m.mem, cfg);

    const std::uint64_t populated = 60000;
    for (std::uint64_t i = 0; i < populated; ++i) {
        const auto key = keyForId(i);
        table.insert(KeyView(key.data(), key.size()), i + 1);
    }

    Xoshiro256 rng(0x1234);
    constexpr std::uint64_t batch = 8192;
    std::vector<std::array<std::uint8_t, 16>> keys(batch);
    for (auto &k : keys)
        k = keyForId(rng.next() % populated);

    out.add("cuckoo_lookup", measure("cuckoo_lookup", batch, [&] {
        std::uint64_t acc = 0;
        for (const auto &k : keys)
            acc += table.lookup(KeyView(k.data(), k.size())).value_or(0);
        sink = acc;
    }));

    AccessTrace trace;
    trace.reserve(64);
    out.add("cuckoo_lookup_traced",
            measure("cuckoo_lookup_traced", batch, [&] {
                std::uint64_t acc = 0;
                for (const auto &k : keys) {
                    trace.clear();
                    acc += table.lookup(KeyView(k.data(), k.size()),
                                        &trace)
                               .value_or(0);
                }
                sink = acc;
            }));

    // Pipelined bulk lookups at each batch window: the point of the
    // burst path is hiding one lane's cache misses behind the others'.
    const auto benchBulk = [&](unsigned window, const std::string &name) {
        out.add(name, measure(name.c_str(), batch, [&, window] {
            std::uint64_t acc = 0;
            std::array<const std::uint8_t *, maxBulkLanes> key_ptrs;
            std::array<std::uint64_t, maxBulkLanes> values;
            for (std::uint64_t i = 0; i < batch; i += window) {
                const std::size_t n =
                    std::min<std::uint64_t>(window, batch - i);
                for (std::size_t j = 0; j < n; ++j)
                    key_ptrs[j] = keys[i + j].data();
                const std::uint32_t mask = table.lookupUntracedBulk(
                    key_ptrs.data(), n, values.data());
                for (std::size_t j = 0; j < n; ++j)
                    acc += (mask >> j) & 1u ? values[j] : 0;
            }
            sink = acc;
        }));
    };
    for (const unsigned window : {4u, 8u, 16u, 32u})
        benchBulk(window,
                  "cuckoo_lookup_burst" + std::to_string(window));
    if (burstWindow > 1) {
        benchBulk(burstWindow, "cuckoo_lookup_burst");
    } else {
        // --burst 1: route the headline burst bench through the
        // scalar API so it reproduces cuckoo_lookup.
        out.add("cuckoo_lookup_burst",
                measure("cuckoo_lookup_burst", batch, [&] {
                    std::uint64_t acc = 0;
                    for (const auto &k : keys)
                        acc += table.lookup(KeyView(k.data(), k.size()))
                                   .value_or(0);
                    sink = acc;
                }));
    }
}

// --- Cuckoo lookup, DRAM-resident: a 2^20-entry table (~40 MB of
//     buckets + kv slots, past any LLC) probed with random hitting
//     keys. This is the regime the prefetch-pipelined burst path is
//     built for: the 64Ki table above stays cache-resident, where the
//     scalar loop's lookups already overlap in the out-of-order window
//     and batching can only win the bookkeeping margin. Here every
//     lookup eats two dependent DRAM latencies and the burst pipeline
//     overlaps them across lanes. ---
void
benchCuckooDram(Results &out)
{
    Machine m;
    CuckooHashTable::Config cfg;
    cfg.keyLen = 16;
    cfg.capacity = 1u << 20;
    CuckooHashTable table(m.mem, cfg);

    const std::uint64_t populated = (cfg.capacity / 10) * 9;
    for (std::uint64_t i = 0; i < populated; ++i) {
        const auto key = keyForId(i);
        table.insert(KeyView(key.data(), key.size()), i + 1);
    }

    Xoshiro256 rng(0x5678);
    constexpr std::uint64_t batch = 8192;
    std::vector<std::array<std::uint8_t, 16>> keys(batch);
    for (auto &k : keys)
        k = keyForId(rng.next() % populated);

    out.add("cuckoo_lookup_dram",
            measure("cuckoo_lookup_dram", batch, [&] {
                std::uint64_t acc = 0;
                for (const auto &k : keys)
                    acc += table.lookup(KeyView(k.data(), k.size()))
                               .value_or(0);
                sink = acc;
            }));

    if (burstWindow > 1) {
        out.add("cuckoo_lookup_dram_burst",
                measure("cuckoo_lookup_dram_burst", batch, [&] {
                    std::uint64_t acc = 0;
                    std::array<const std::uint8_t *, maxBulkLanes>
                        key_ptrs;
                    std::array<std::uint64_t, maxBulkLanes> values;
                    for (std::uint64_t i = 0; i < batch;
                         i += burstWindow) {
                        const std::size_t n = std::min<std::uint64_t>(
                            burstWindow, batch - i);
                        for (std::size_t j = 0; j < n; ++j)
                            key_ptrs[j] = keys[i + j].data();
                        const std::uint32_t mask =
                            table.lookupUntracedBulk(key_ptrs.data(), n,
                                                     values.data());
                        for (std::size_t j = 0; j < n; ++j)
                            acc += (mask >> j) & 1u ? values[j] : 0;
                    }
                    sink = acc;
                }));
    } else {
        out.add("cuckoo_lookup_dram_burst",
                measure("cuckoo_lookup_dram_burst", batch, [&] {
                    std::uint64_t acc = 0;
                    for (const auto &k : keys)
                        acc += table.lookup(KeyView(k.data(), k.size()))
                                   .value_or(0);
                    sink = acc;
                }));
    }
}

// --- EMC probe: 8192-entry cache, hitting probes. ---
void
benchEmc(Results &out)
{
    Machine m;
    ExactMatchCache emc(m.mem);

    TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::SmallFlowCount, 4096));
    for (const FiveTuple &flow : gen.flows())
        emc.insert(flow.toKey(), 1);

    constexpr std::uint64_t batch = 8192;
    std::vector<std::array<std::uint8_t, FiveTuple::keyBytes>> keys;
    keys.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i)
        keys.push_back(gen.nextTuple().toKey());

    out.add("emc_probe", measure("emc_probe", batch, [&] {
        std::uint64_t acc = 0;
        for (const auto &k : keys)
            acc += emc.lookup(k).value_or(0);
        sink = acc;
    }));

    if (burstWindow > 1) {
        out.add("emc_probe_burst",
                measure("emc_probe_burst", batch, [&] {
                    std::uint64_t acc = 0;
                    std::array<const std::uint8_t *, maxBulkLanes>
                        key_ptrs;
                    std::array<std::uint64_t, maxBulkLanes> values;
                    std::array<std::uint64_t[2], maxBulkLanes> slots;
                    for (std::uint64_t i = 0; i < batch;
                         i += burstWindow) {
                        const std::size_t n = std::min<std::uint64_t>(
                            burstWindow, batch - i);
                        for (std::size_t j = 0; j < n; ++j)
                            key_ptrs[j] = keys[i + j].data();
                        const std::uint32_t mask = emc.lookupBulk(
                            key_ptrs.data(), n, values.data(),
                            slots.data());
                        for (std::size_t j = 0; j < n; ++j)
                            acc += (mask >> j) & 1u ? values[j] : 0;
                    }
                    sink = acc;
                }));
    } else {
        out.add("emc_probe_burst",
                measure("emc_probe_burst", batch, [&] {
                    std::uint64_t acc = 0;
                    for (const auto &k : keys)
                        acc += emc.lookup(k).value_or(0);
                    sink = acc;
                }));
    }
}

// --- Tuple-space search: the ManyFlows scenario (~8 masks). ---
void
benchTupleSpace(Results &out)
{
    Machine m;
    TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, 100000));
    const RuleSet rules =
        scenarioRules(TrafficScenario::ManyFlows, gen.flows(), 0x303);

    TupleSpace::Config tcfg;
    tcfg.tupleCapacity = nextPowerOfTwo(maxRulesPerMask(rules) + 64);
    TupleSpace tuples(m.mem, tcfg);
    for (const FlowRule &rule : rules)
        tuples.addRule(rule);

    constexpr std::uint64_t batch = 4096;
    std::vector<std::array<std::uint8_t, FiveTuple::keyBytes>> keys;
    keys.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i)
        keys.push_back(gen.nextTuple().toKey());

    out.add("tuple_space_first",
            measure("tuple_space_first", batch, [&] {
                std::uint64_t acc = 0;
                for (const auto &k : keys) {
                    auto match = tuples.lookupFirst(
                        std::span<const std::uint8_t>(k.data(),
                                                      k.size()));
                    acc += match ? match->value : 0;
                }
                sink = acc;
            }));

    if (burstWindow > 1) {
        std::array<TupleSpace::BulkWalkLane, maxBulkLanes> lanes;
        out.add("tuple_space_first_burst",
                measure("tuple_space_first_burst", batch, [&] {
                    std::uint64_t acc = 0;
                    std::array<const std::uint8_t *, maxBulkLanes>
                        key_ptrs;
                    std::array<TupleSpace::BulkWalkLane *, maxBulkLanes>
                        lane_ptrs;
                    for (std::uint64_t i = 0; i < batch;
                         i += burstWindow) {
                        const std::size_t n = std::min<std::uint64_t>(
                            burstWindow, batch - i);
                        for (std::size_t j = 0; j < n; ++j) {
                            key_ptrs[j] = keys[i + j].data();
                            lanes[j].reset();
                            lane_ptrs[j] = &lanes[j];
                        }
                        tuples.lookupFirstBulk(key_ptrs.data(), n,
                                               lane_ptrs.data());
                        for (std::size_t j = 0; j < n; ++j)
                            acc += lanes[j].found ? lanes[j].match.value
                                                  : 0;
                    }
                    sink = acc;
                }));
    } else {
        out.add("tuple_space_first_burst",
                measure("tuple_space_first_burst", batch, [&] {
                    std::uint64_t acc = 0;
                    for (const auto &k : keys) {
                        auto match = tuples.lookupFirst(
                            std::span<const std::uint8_t>(k.data(),
                                                          k.size()));
                        acc += match ? match->value : 0;
                    }
                    sink = acc;
                }));
    }
}

// --- Packet::fromTuple over perfbench emc_hot's flow population
//     (SmallFlowCount, 4,096 flows, about half TCP 72-byte frames and
//     half UDP 60-byte ones): the frame build each producer pays per
//     packet before it offers one. ---
void
benchPacketBuild(Results &out)
{
    const TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::SmallFlowCount, 4096));
    const std::vector<FiveTuple> &flows = gen.flows();
    out.add("packet_from_tuple",
            measure("packet_from_tuple", flows.size(), [&] {
                std::uint64_t acc = 0;
                for (const FiveTuple &t : flows) {
                    const Packet p = Packet::fromTuple(t);
                    acc += p.size() + p.bytes()[24]; // checksum's high byte
                }
                sink = acc;
            }));
}

// --- End-to-end processPacket in each LookupMode on a timed switch,
//     or (timed = false) on a functional one. ---
void
benchProcessPacket(Results &out, LookupMode mode, const char *name,
                   bool timed = true)
{
    Machine m(6ull << 30);
    TrafficGenerator gen(TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, 100000));
    const RuleSet rules =
        scenarioRules(TrafficScenario::ManyFlows, gen.flows(), 0x303);

    VSwitchConfig vcfg;
    vcfg.mode = mode;
    vcfg.tupleConfig.tupleCapacity =
        nextPowerOfTwo(maxRulesPerMask(rules) + 64);
    VirtualSwitch vs = timed ? VirtualSwitch(m.mem, m.hier, m.core,
                                             &m.halo, vcfg)
                             : VirtualSwitch(m.mem, vcfg);
    vs.installRules(rules);
    vs.warmTables();

    constexpr std::uint64_t batch = 2048;
    std::vector<Packet> packets;
    packets.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i)
        packets.push_back(gen.nextPacket());

    out.add(name, measure(name, batch, [&] {
        std::uint64_t acc = 0;
        for (const Packet &p : packets)
            acc += vs.processPacket(p).matched ? 1 : 0;
        sink = acc;
    }));
}

/**
 * Parse a previous output of this harness: scans for
 * `"name": value` pairs inside the "ops_per_sec" object. Good enough
 * for the fixed shape this harness itself emits.
 */
std::map<std::string, double>
parseBaseline(const std::string &path)
{
    std::map<std::string, double> base;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "warning: cannot open baseline %s\n",
                     path.c_str());
        return base;
    }
    std::string line;
    bool in_ops = false;
    while (std::getline(in, line)) {
        // Only the object opener, not the `"unit": "ops_per_sec"` line.
        if (line.find("\"ops_per_sec\"") != std::string::npos &&
            line.find('{') != std::string::npos) {
            in_ops = true;
            continue;
        }
        if (!in_ops)
            continue;
        if (line.find('}') != std::string::npos)
            break;
        const auto q1 = line.find('"');
        const auto q2 = line.find('"', q1 + 1);
        const auto colon = line.find(':', q2);
        if (q1 == std::string::npos || q2 == std::string::npos ||
            colon == std::string::npos)
            continue;
        const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
        base[name] = std::strtod(line.c_str() + colon + 1, nullptr);
    }
    return base;
}

/**
 * The "ops_per_sec" object shape (one `"name": value` line per bench,
 * %.1f values) is load-bearing: parseBaseline() above reads it back, so
 * any output of this harness can serve as a --baseline for a later one.
 */
void
writeJson(const std::string &path, const Results &res,
          const std::map<std::string, double> &baseline)
{
    std::ofstream out = openOutput(path);
    obs::JsonWriter j(out);
    j.beginObject();
    j.kv("benchmark", "host_throughput");
    obs::writeMetaBlock(j);
    j.kv("unit", "ops_per_sec");
    j.kv("min_time_sec", minTime);
    j.kv("burst", static_cast<std::uint64_t>(burstWindow));
    j.kv("perf_enabled", perfGroup != nullptr);
    j.kv("perf_degraded", perfGroup && perfGroup->degraded());
    j.key("ops_per_sec").beginObject();
    for (const auto &[name, ops] : res.opsPerSec)
        j.kv(name, ops, 1);
    j.endObject();
    if (!hwStats.empty()) {
        j.key("hw").beginObject();
        for (const auto &[name, hw] : hwStats) {
            j.key(name);
            writeHwBlock(j, hw, "op");
        }
        j.endObject();
    }
    // Burst-vs-scalar ratios for the same-workload pairs (the CI smoke
    // gate reads these; > 1.0 means the burst path is pulling ahead).
    const auto find = [&](const char *name) {
        for (const auto &[n, ops] : res.opsPerSec)
            if (n == name)
                return ops;
        return 0.0;
    };
    j.key("burst_speedup").beginObject();
    struct Pair
    {
        const char *label, *scalar, *burst;
    };
    const Pair pairs[] = {
        {"cuckoo", "cuckoo_lookup", "cuckoo_lookup_burst"},
        {"cuckoo_dram", "cuckoo_lookup_dram", "cuckoo_lookup_dram_burst"},
        {"emc", "emc_probe", "emc_probe_burst"},
        {"tuple_space", "tuple_space_first", "tuple_space_first_burst"},
    };
    for (const Pair &p : pairs) {
        const double scalar_ops = find(p.scalar);
        j.kv(p.label,
             scalar_ops > 0 ? find(p.burst) / scalar_ops : 0.0, 2);
    }
    j.endObject();
    if (!baseline.empty()) {
        j.key("seed").beginObject();
        for (const auto &[name, ops] : baseline)
            j.kv(name, ops, 1);
        j.endObject();
        j.key("speedup_vs_seed").beginObject();
        for (const auto &[name, ops] : res.opsPerSec) {
            const auto it = baseline.find(name);
            j.kv(name,
                 it != baseline.end() && it->second > 0
                     ? ops / it->second
                     : 0.0,
                 2);
        }
        j.endObject();
    }
    j.endObject();
    std::printf("\nwrote %s\n", path.c_str());
}

void
writeProm(const std::string &path, const Results &res)
{
    obs::MetricsRegistry reg;
    reg.gauge("halo_host_min_time_sec", {}, minTime);
    for (const auto &[name, ops] : res.opsPerSec)
        reg.gauge("halo_host_ops_per_sec", {{"bench", name}}, ops);
    if (perfGroup)
        reg.gauge("halo_perf_degraded", {},
                  perfGroup->degraded() ? 1.0 : 0.0);
    for (const auto &[name, hw] : hwStats) {
        reg.gauge("halo_host_hw_tsc_cycles_per_op", {{"bench", name}},
                  hw.tscCyclesPerOp);
        if (hw.valid)
            reg.gauge(
                "halo_host_hw_llc_misses_per_op", {{"bench", name}},
                hw.perOp[unsigned(obs::PerfEvent::LlcLoadMisses)]);
    }
    writePromFile(reg, path);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchFlags flags;
    flags.outPath = "BENCH_host_throughput.json";
    std::string baselinePath;
    parseFlags(argc, argv, flags, OutFlag | PromFlag | SmokeFlag | PerfFlag,
               {stringFlag("--baseline", "FILE", baselinePath),
                numberFlag("--min-time", "SECS", minTime, 0.0),
                burstFlag(burstWindow)});
    // CI mode: short passes — enough to compute the burst_speedup
    // ratios the workflow gates on, without spending minutes on
    // publication-grade numbers.
    if (flags.smoke)
        flags.unlessGiven("--min-time", minTime, 0.05);

    banner("Host throughput",
           "wall-clock ops/sec of the functional fast paths");

    perfGroup = openPerfGroup(flags.perf);

    Results res;
    benchCuckoo(res);
    benchCuckooDram(res);
    benchEmc(res);
    benchTupleSpace(res);
    benchPacketBuild(res);
    benchProcessPacket(res, LookupMode::Software,
                       "process_packet_software");
    benchProcessPacket(res, LookupMode::Software, "classify_packet",
                       false);
    benchProcessPacket(res, LookupMode::HaloBlocking,
                       "process_packet_halo_blocking");
    benchProcessPacket(res, LookupMode::HaloNonBlocking,
                       "process_packet_halo_nonblocking");
    benchProcessPacket(res, LookupMode::Hybrid,
                       "process_packet_hybrid");

    std::map<std::string, double> baseline;
    if (!baselinePath.empty())
        baseline = parseBaseline(baselinePath);
    writeJson(flags.outPath, res, baseline);
    if (!flags.promPath.empty())
        writeProm(flags.promPath, res);
    return 0;
}

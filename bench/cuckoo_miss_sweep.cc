/**
 * @file
 * Negative-filter sweep over the cuckoo exact-match table: hit ratio x
 * occupancy x filter on/off (DESIGN.md §13).
 *
 * The Cuckoo++ per-bucket Bloom lets a miss stop after the primary
 * bucket's signature scan. That claim is about memory references, so
 * this bench measures two things per cell:
 *
 *   host throughput — ns/lookup and Mops over a large scalar
 *       lookup loop against a DRAM-resident table (the saved bucket line
 *       pays off only where a line costs a DRAM access);
 *   buckets per lookup — recorded AccessPhase::Bucket read references
 *       on a traced sample, split by hit/miss (~1 bucket per filtered
 *       miss).
 *
 * The sweep runs the table without ("none") and with ("cuckoopp") the
 * filter over occupancies {25,50,75,95}% of the bucket-entry slots and
 * hit ratios {0,25,50,75,100}%, plus a 32-lane lookupUntracedBulk pass
 * at 100% hits per (mode, occupancy) to cover the bulk pipeline (which
 * prefetches only the primary line per lane with the filter on).
 *
 * Usage: cuckoo_miss_sweep [--out FILE] [--smoke] [--perf] [--prom FILE]
 *                          [--sample-us N] [--lookups N]
 *
 * Shared flags: see bench_common.hh. Here --out defaults to
 * BENCH_cuckoo_miss.json; --smoke shrinks the table to occupancy 75%
 * only and exits nonzero unless filtered misses average <= 1.05 bucket
 * reads, the 0%-hit miss_speedup is >= 1.0x, and the 100%-hit
 * throughput ratio clears a loose sanity floor (>= 0.65x unfiltered);
 * --prom writes per-cell Mops, buckets per miss and perf degradation;
 * --sample-us records sweep progress (cells and lookups completed) as
 * a time series (default 0 = off); --perf runs a dedicated measured
 * pass per cell on one main-thread PMU group, recording exact (not
 * sampled) cycles/instructions/LLC/dTLB/branch-miss deltas — hardware
 * LLC-misses-per-lookup next to the simulated buckets-per-lookup —
 * and falls back to rdtsc-only (perf_degraded=true) when the kernel
 * refuses the syscall.
 *
 *   --lookups  timed lookups per cell (default 1M, smoke 200k)
 *
 * Gate calibration: the bucket-read counts are deterministic (traced
 * reference counting, no clock involved) and regime-independent, so
 * they carry strict thresholds. The wall-clock ratios depend on where
 * the table lives: on a host whose LLC swallows the whole table the
 * bucket line the filter saves is nearly free, so the filter buys its
 * wins in the DRAM-resident regime the paper targets. The throughput
 * gates are therefore loose floors against regressions (and CI-runner
 * noise), not the acceptance measurement; miss_speedup keeps a hard
 * >= 1.0x because the saved bucket read dominates in every regime.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "hash/bucket_scan.hh"
#include "hash/cuckoo_table.hh"
#include "obs/json.hh"
#include "obs/meta.hh"
#include "obs/metrics.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

using namespace halo;
using namespace halo::bench;

namespace {

constexpr unsigned keyLen = 16;

/** Sanitizer instrumentation skews relative memory-access costs, so
 *  the smoke gate drops its wall-clock checks there and keeps only the
 *  deterministic bucket-read assertions (gcc and clang both define
 *  these macros under -fsanitize=thread/address). */
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool sanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool sanitizedBuild = true;
#else
constexpr bool sanitizedBuild = false;
#endif
#else
constexpr bool sanitizedBuild = false;
#endif

struct Cell
{
    bool negative = false; ///< Cuckoo++ negative filter on
    double occupancy = 0.0;
    double hitRatio = 0.0;
    double nsPerLookup = 0.0;
    double mops = 0.0;
    double bucketsPerHit = 0.0;
    double bucketsPerMiss = 0.0;
    /// --perf: exact PMU deltas over a dedicated measured pass
    bool hwRecorded = false; ///< the pass ran (rdtsc at minimum)
    HwPass hw;
};

struct BulkCell
{
    bool negative = false;
    double occupancy = 0.0;
    double mops = 0.0;
};

/** Mode label in the JSON, the Prometheus labels and the table. */
const char *
modeName(bool negative)
{
    return negative ? "cuckoopp" : "none";
}

/** Deterministic 16-byte key. @p present tags the two disjoint key
 *  universes (inserted vs never-inserted). */
void
makeKey(std::uint64_t id, bool present, std::uint8_t *out)
{
    SplitMix64 sm(id * 2 + (present ? 0 : 1));
    std::uint64_t w0 = sm.next(), w1 = sm.next();
    std::memcpy(out, &w0, 8);
    std::memcpy(out + 8, &w1, 8);
    out[15] = present ? 0x11 : 0x22; // universes can never collide
}

/** Flat storage for a key universe plus per-key pointers. */
struct KeySet
{
    std::vector<std::uint8_t> bytes;
    explicit KeySet(std::uint64_t n, bool present) : bytes(n * keyLen)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            makeKey(i, present, bytes.data() + i * keyLen);
    }
    const std::uint8_t *at(std::uint64_t i) const
    {
        return bytes.data() + i * keyLen;
    }
    std::uint64_t count() const { return bytes.size() / keyLen; }
};

/** Dead-code-elimination defeat for the timed loops' checksums. */
volatile std::uint64_t checksumSink;

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

/** Count read references of @p phase in a trace. */
unsigned
readsOf(const AccessTrace &trace, AccessPhase phase)
{
    unsigned n = 0;
    for (const MemRef &r : trace)
        n += !r.write && r.phase == phase;
    return n;
}

struct ModeTable
{
    SimMemory mem;
    CuckooHashTable table;

    ModeTable(std::uint64_t buckets, std::uint64_t capacity,
              bool negative)
        : mem(1ull << 30),
          table(mem, [&] {
              CuckooHashTable::Config cfg;
              cfg.keyLen = keyLen;
              cfg.capacity = capacity;
              cfg.maxLoadFactor = 0.95;
              cfg.negativeFilter = negative;
              return cfg;
          }())
    {
        HALO_ASSERT(table.metadata().numBuckets == buckets,
                    "sweep geometry drifted");
    }
};

} // namespace

int
main(int argc, char **argv)
{
    BenchFlags flags;
    flags.outPath = "BENCH_cuckoo_miss.json";
    std::uint64_t lookups = 1u << 20;
    parseFlags(argc, argv, flags,
               OutFlag | SmokeFlag | PerfFlag | PromFlag | SampleUsFlag,
               {numberFlag("--lookups", "N", lookups, std::uint64_t{1})});
    if (flags.smoke)
        flags.unlessGiven("--lookups", lookups, 200000);

    banner("Cuckoo negative-filter sweep",
           "Cuckoo++ per-bucket Bloom of displaced signatures");

    const std::unique_ptr<obs::PerfCounterGroup> perfGroup =
        openPerfGroup(flags.perf);

    // --sample-us: sweep progress as a time series (long full sweeps
    // stall invisibly otherwise; the columns mirror the runtime
    // benches' sampler contract — relaxed-atomic reads only).
    PublishedCounter cellsDone, lookupsDone;
    std::unique_ptr<obs::Sampler> sampler;
    if (flags.sampleMicros > 0) {
        sampler = std::make_unique<obs::Sampler>(
            std::vector<std::string>{"cells_done", "lookups_done"},
            [&cellsDone, &lookupsDone] {
                return std::vector<double>{
                    double(cellsDone.value()),
                    double(lookupsDone.value())};
            });
        sampler->start(std::chrono::microseconds(flags.sampleMicros),
                       512);
    }

    // Geometry: pick the bucket count directly (capacity is derived so
    // the constructor lands on exactly `buckets`), making "occupancy"
    // an exact fraction of bucket-entry slots. The full-size table
    // (16 MiB of buckets + ~46 MiB of kv slots) spills far out of the
    // LLC, which is the regime the filter targets.
    const std::uint64_t buckets = flags.smoke ? 1u << 15 : 1u << 18;
    const std::uint64_t slots = buckets * entriesPerBucket;
    const std::uint64_t capacity = slots * 95 / 100;

    const std::vector<double> occupancies =
        flags.smoke ? std::vector<double>{0.75}
                  : std::vector<double>{0.25, 0.50, 0.75, 0.95};
    const std::vector<double> hitRatios = {0.0, 0.25, 0.50, 0.75, 1.0};
    const std::uint64_t tracedSamples = 4096;
    const unsigned timingReps = 3;

    std::vector<Cell> cells;
    std::vector<BulkCell> bulkCells;

    std::printf("%-9s %5s %5s %10s %8s %9s %10s\n", "mode", "occ%",
                "hit%", "ns/lookup", "Mops", "bkts/hit", "bkts/miss");

    for (const double occ : occupancies) {
        const auto present_n =
            static_cast<std::uint64_t>(occ * double(slots));
        HALO_ASSERT(present_n <= capacity, "occupancy exceeds capacity");
        const KeySet present(present_n, true);
        const KeySet absent(std::max<std::uint64_t>(present_n, 1u << 16),
                            false);

        for (const bool negative : {false, true}) {
            ModeTable mt(buckets, capacity, negative);
            for (std::uint64_t i = 0; i < present_n; ++i) {
                const bool ok = mt.table.insert(
                    KeyView(present.at(i), keyLen), i * 3 + 1);
                HALO_ASSERT(ok, "sweep fill failed");
            }

            for (const double hit : hitRatios) {
                // Pre-draw the lookup schedule so the timed loop does
                // no RNG work; reuse one schedule length regardless of
                // the requested lookup count by cycling it. The
                // filter-on seed offset (2) keeps the schedules, and so
                // the bucket counts, of the committed baselines.
                Xoshiro256 rng(0x5eedu + (negative ? 2u : 0u) +
                               static_cast<std::uint64_t>(occ * 100) *
                                   131);
                const std::uint64_t schedLen =
                    std::min<std::uint64_t>(lookups, 1u << 20);
                std::vector<const std::uint8_t *> sched(schedLen);
                for (auto &ptr : sched) {
                    const bool want_hit =
                        hit >= 1.0 ||
                        (hit > 0.0 && rng.nextBool(hit));
                    ptr = want_hit
                              ? present.at(rng.nextBounded(present_n))
                              : absent.at(
                                    rng.nextBounded(absent.count()));
                }

                // Timed scalar loop (untraced: the steady-state path).
                // Best-of-N wall times: the host may be preempted
                // mid-rep, and the shortest rep is the least disturbed
                // (first rep doubles as cache warm-up).
                std::uint64_t checksum = 0;
                double dt = 1e30;
                for (unsigned rep = 0; rep < timingReps; ++rep) {
                    const double t0 = nowSeconds();
                    for (std::uint64_t i = 0; i < lookups; ++i) {
                        const auto v = mt.table.lookup(
                            KeyView(sched[i % schedLen], keyLen));
                        checksum += v ? *v : 0;
                    }
                    dt = std::min(dt, nowSeconds() - t0);
                }

                Cell c;
                c.negative = negative;
                c.occupancy = occ;
                c.hitRatio = hit;
                c.nsPerLookup = dt * 1e9 / double(lookups);
                c.mops = dt > 0.0
                             ? double(lookups) / dt / 1e6
                             : 0.0;
                lookupsDone.add(lookups * timingReps);

                // Hardware truth: exact PMU deltas (no sampling, no
                // multiplex pressure beyond the 5-event group) around
                // one more pass over the same schedule. Runs after the
                // timed loop so caches are in steady state.
                if (perfGroup) {
                    const std::uint64_t hwLookups =
                        std::min<std::uint64_t>(lookups, schedLen);
                    c.hw = measureHw(*perfGroup, hwLookups, [&] {
                        std::uint64_t hwSum = 0;
                        for (std::uint64_t i = 0; i < hwLookups; ++i) {
                            const auto v = mt.table.lookup(
                                KeyView(sched[i % schedLen], keyLen));
                            hwSum += v ? *v : 0;
                        }
                        checksumSink = hwSum;
                    });
                    c.hwRecorded = true;
                    lookupsDone.add(hwLookups);
                }

                // Traced sample: count bucket-line reads per hit and
                // per miss.
                std::uint64_t hits = 0, misses = 0;
                std::uint64_t hitBuckets = 0, missBuckets = 0;
                AccessTrace trace;
                for (std::uint64_t s = 0; s < tracedSamples; ++s) {
                    trace.clear();
                    const std::uint8_t *key = sched[s % schedLen];
                    const auto v = mt.table.lookup(KeyView(key, keyLen),
                                                   &trace, invalidAddr);
                    const unsigned b =
                        readsOf(trace, AccessPhase::Bucket);
                    if (v) {
                        ++hits;
                        hitBuckets += b;
                    } else {
                        ++misses;
                        missBuckets += b;
                    }
                }
                c.bucketsPerHit =
                    hits ? double(hitBuckets) / double(hits) : 0.0;
                c.bucketsPerMiss =
                    misses ? double(missBuckets) / double(misses) : 0.0;
                cells.push_back(c);
                cellsDone.add(1);

                std::printf("%-9s %5.0f %5.0f %10.1f %8.2f %9.3f "
                            "%10.3f\n",
                            modeName(negative), occ * 100,
                            hit * 100, c.nsPerLookup, c.mops,
                            c.bucketsPerHit, c.bucketsPerMiss);
                checksumSink = checksum;
            }

            // Bulk pipeline at 100% hits: with the filter on, stage 0
            // prefetches ONE bucket line per lane instead of two.
            {
                Xoshiro256 rng(0xb01du);
                // Multiple of the lane count so cycling the schedule
                // never walks a batch off its end.
                const std::uint64_t schedLen = std::max<std::uint64_t>(
                    maxBulkLanes,
                    std::min<std::uint64_t>(lookups, 1u << 20) &
                        ~std::uint64_t(maxBulkLanes - 1));
                std::vector<const std::uint8_t *> sched(schedLen);
                for (auto &ptr : sched)
                    ptr = present.at(rng.nextBounded(present_n));
                std::uint64_t values[maxBulkLanes];
                std::uint64_t checksum = 0;
                double dt = 1e30;
                for (unsigned rep = 0; rep < timingReps; ++rep) {
                    const double t0 = nowSeconds();
                    for (std::uint64_t i = 0;
                         i + maxBulkLanes <= lookups;
                         i += maxBulkLanes) {
                        checksum += mt.table.lookupUntracedBulk(
                            &sched[i % schedLen], maxBulkLanes, values,
                            nullptr);
                    }
                    dt = std::min(dt, nowSeconds() - t0);
                }
                BulkCell b;
                b.negative = negative;
                b.occupancy = occ;
                b.mops = dt > 0.0 ? double(lookups) / dt / 1e6
                                  : 0.0;
                bulkCells.push_back(b);
                std::printf("%-9s %5.0f  bulk %10s %8.2f\n",
                            modeName(negative), occ * 100, "",
                            b.mops);
                checksumSink = checksum;
            }
        }
    }

    if (sampler)
        sampler->stop();
    const bool perfDegraded = perfGroup && perfGroup->degraded();

    // Headline ratios at 75% occupancy (the acceptance point), filter
    // on over off.
    auto cellAt = [&](bool negative, double occ,
                      double hit) -> const Cell * {
        for (const Cell &c : cells)
            if (c.negative == negative && c.occupancy == occ &&
                c.hitRatio == hit)
                return &c;
        return nullptr;
    };
    auto bulkAt = [&](bool negative, double occ) -> const BulkCell * {
        for (const BulkCell &b : bulkCells)
            if (b.negative == negative && b.occupancy == occ)
                return &b;
        return nullptr;
    };
    auto ratio = [](double on, double off) {
        return off > 0.0 ? on / off : 0.0;
    };
    const double accOcc = 0.75;
    const Cell *noneMiss = cellAt(false, accOcc, 0.0);
    const Cell *ppMiss = cellAt(true, accOcc, 0.0);
    const Cell *noneHit = cellAt(false, accOcc, 1.0);
    const Cell *ppHit = cellAt(true, accOcc, 1.0);
    const BulkCell *noneBulk = bulkAt(false, accOcc);
    const BulkCell *ppBulk = bulkAt(true, accOcc);
    const double missSpeedup =
        noneMiss && ppMiss ? ratio(ppMiss->mops, noneMiss->mops) : 0.0;
    const double hitRatio =
        noneHit && ppHit ? ratio(ppHit->mops, noneHit->mops) : 0.0;
    const double bulkSpeedup =
        noneBulk && ppBulk ? ratio(ppBulk->mops, noneBulk->mops) : 0.0;

    std::ofstream out = openOutput(flags.outPath);
    obs::JsonWriter j(out);
    j.beginObject();
    j.kv("benchmark", "cuckoo_miss_sweep");
    obs::writeMetaBlock(j);
    j.kv("smoke", flags.smoke);
    j.kv("buckets", buckets);
    j.kv("kv_slots", capacity);
    j.kv("key_len", keyLen);
    j.kv("lookups_per_cell", lookups);
    j.kv("traced_samples", tracedSamples);
    j.kv("bucket_scan", bucketScanKind);
    j.kv("sampler_interval_us", flags.sampleMicros);
    j.kv("perf_enabled", perfGroup != nullptr);
    j.kv("perf_degraded", perfDegraded);
    j.kv("miss_speedup", missSpeedup, 3);
    j.kv("hit_throughput_ratio", hitRatio, 3);
    j.kv("bulk_hit_speedup", bulkSpeedup, 3);
    j.kv("methodology",
         "Per (filter mode, occupancy, hit ratio) cell: a pre-drawn "
         "schedule of present/absent keys is looked up scalar-untraced "
         "and timed (ns_per_lookup, mops); a traced sample then counts "
         "AccessPhase::Bucket read references split by hit/miss. "
         "miss_speedup compares mode cuckoopp against none at 75% "
         "occupancy, 0% hits; hit_throughput_ratio at 100% hits. "
         "bulk_hit_speedup compares lookupUntracedBulk (the filtered "
         "pipeline prefetches one bucket line per lane) the same way. "
         "Timed loops keep the best of 3 reps (least-preempted). "
         "Wall-clock ratios are regime-dependent: with the table "
         "LLC-resident the saved bucket line is nearly free, so the "
         "bucket-read counts are the regime-independent assertion.");
    j.key("cells").beginArray();
    for (const Cell &c : cells) {
        j.beginObject();
        j.kv("mode", modeName(c.negative));
        j.kv("occupancy", c.occupancy, 2);
        j.kv("hit_ratio", c.hitRatio, 2);
        j.kv("ns_per_lookup", c.nsPerLookup, 2);
        j.kv("mops", c.mops, 3);
        j.kv("buckets_per_hit", c.bucketsPerHit, 4);
        j.kv("buckets_per_miss", c.bucketsPerMiss, 4);
        if (c.hwRecorded) {
            // Hardware buckets-per-lookup proxy next to the simulated
            // number: llc_load_misses_per_lookup is the DRAM-line
            // count the filter claims to save.
            j.key("hw");
            writeHwBlock(j, c.hw, "lookup");
        }
        j.endObject();
    }
    j.endArray();
    if (sampler && !sampler->series().columns.empty()) {
        j.key("samples");
        writeSampleSeries(j, sampler->series());
    }
    j.key("bulk").beginArray();
    for (const BulkCell &b : bulkCells) {
        j.beginObject();
        j.kv("mode", modeName(b.negative));
        j.kv("occupancy", b.occupancy, 2);
        j.kv("hit_mops", b.mops, 3);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::printf("\nwrote %s\n", flags.outPath.c_str());
    std::printf("miss_speedup (cuckoopp/none, 75%% occ, 0%% hit): "
                "%.2fx\n",
                missSpeedup);
    std::printf("hit throughput ratio (cuckoopp/none): %.2fx\n",
                hitRatio);
    std::printf("bulk hit speedup (cuckoopp/none): %.2fx\n",
                bulkSpeedup);

    if (!flags.promPath.empty()) {
        obs::MetricsRegistry reg;
        for (const Cell &c : cells) {
            const std::vector<std::pair<std::string, std::string>>
                labels = {{"mode", modeName(c.negative)},
                          {"occupancy",
                           std::to_string(int(c.occupancy * 100))},
                          {"hit_ratio",
                           std::to_string(int(c.hitRatio * 100))}};
            reg.gauge("halo_sweep_mops", labels, c.mops);
            reg.gauge("halo_sweep_buckets_per_miss", labels,
                      c.bucketsPerMiss);
            if (c.hw.valid)
                reg.gauge("halo_sweep_hw_llc_misses_per_lookup",
                          labels,
                          c.hw.perOp[unsigned(
                              obs::PerfEvent::LlcLoadMisses)]);
        }
        reg.gauge("halo_perf_degraded", {}, perfDegraded ? 1.0 : 0.0);
        writePromFile(reg, flags.promPath);
    }

    if (flags.smoke) {
        bool ok = true;
        if (!ppMiss || ppMiss->bucketsPerMiss > 1.05) {
            std::fprintf(stderr,
                         "smoke FAILED: cuckoopp misses read %.3f "
                         "buckets (> 1.05)\n",
                         ppMiss ? ppMiss->bucketsPerMiss : -1.0);
            ok = false;
        }
        // Loose floors only: see the gate-calibration note up top.
        if (sanitizedBuild) {
            std::printf("smoke: sanitized build, wall-clock gates "
                        "skipped\n");
        } else {
            if (hitRatio < 0.65) {
                std::fprintf(stderr,
                             "smoke FAILED: filtered hit throughput "
                             "%.2fx of unfiltered (floor 0.65x)\n",
                             hitRatio);
                ok = false;
            }
            if (missSpeedup < 1.0) {
                std::fprintf(stderr,
                             "smoke FAILED: miss_speedup %.2fx "
                             "(< 1.0x)\n",
                             missSpeedup);
                ok = false;
            }
        }
        if (perfGroup) {
            // Every cell must have recorded hardware cycles, degraded
            // or not (the rdtsc pass never needs privileges).
            for (const Cell &c : cells)
                if (!c.hwRecorded || c.hw.tscCyclesPerOp <= 0.0) {
                    std::fprintf(stderr,
                                 "smoke FAILED: --perf cell recorded "
                                 "no hw cycles\n");
                    ok = false;
                    break;
                }
            if (!perfDegraded) {
                // Hardware truth must agree with the simulated bucket
                // counts: filtered misses touch fewer DRAM lines than
                // unfiltered ones. Tolerances absorb prefetcher and
                // multiplex noise; absolute slack covers LLC-resident
                // tables where misses are ~0.
                const unsigned llc =
                    unsigned(obs::PerfEvent::LlcLoadMisses);
                if (noneMiss && ppMiss && noneMiss->hw.valid &&
                    ppMiss->hw.valid &&
                    ppMiss->hw.perOp[llc] >
                        noneMiss->hw.perOp[llc] * 1.25 + 0.5) {
                    std::fprintf(stderr,
                                 "smoke FAILED: cuckoopp hw llc "
                                 "misses/lookup %.3f > unfiltered %.3f "
                                 "(misses)\n",
                                 ppMiss->hw.perOp[llc],
                                 noneMiss->hw.perOp[llc]);
                    ok = false;
                }
            }
        }
        if (!ok)
            return 1;
        std::printf("smoke OK\n");
    }
    return 0;
}

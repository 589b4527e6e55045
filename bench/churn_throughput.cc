/**
 * @file
 * Data-path throughput under flow churn: inline vs decoupled slow path.
 *
 * The headline claim of the decoupled runtime (the OVS
 * handler/revalidator split, DESIGN.md §12) is that moving the
 * slow path — OpenFlow full-table search and megaflow install — off
 * the worker threads keeps data-path throughput flat
 * when flows churn. This bench measures exactly that: a Zipf-skewed
 * packet stream over a rotating flow population is pushed through the
 * multi-worker runtime twice per churn level, once with inline upcalls
 * (the worker resolves every miss itself, OVS pre-2.0 style) and once
 * decoupled (misses enqueue to the revalidator over the bounded MPSC
 * ring), and the per-worker CPU-time packet rates are compared.
 *
 * Workload: numFlows slots hold live five-tuples; packets draw a slot
 * from a Zipf(0.9) popularity distribution. With churn probability c,
 * each packet first rotates one uniformly chosen slot to a
 * never-before-seen tuple — the old flow dies (it stops receiving
 * packets and is eventually aged out by the revalidator), the new one
 * faults in through the slow path. Both modes install the same
 * exact-match (microflow) megaflow entries; the inline side also
 * probes and fills its EMC, the decoupled side runs without one.
 *
 * Methodology matches multiworker_throughput: aggregate_cpu_pps sums
 * per-worker CLOCK_THREAD_CPUTIME_ID rates (immune to preemption on
 * CPU-constrained CI hosts); wall_pps is reported for reference. The
 * background sampler records the upcall ring depth over time; drops on
 * that ring are counted, never blocking.
 *
 * Usage: churn_throughput [shared flags] [--flows N] [--workers N]
 *                         [--negative-filter]
 *
 * Shared flags: see bench_common.hh. Defaults here: --out
 * BENCH_churn.json, --packets 200000, --sample-us 2000.
 *
 *   --flows     live flow slots (default 20000)
 *   --workers   worker threads (default 4)
 *   --negative-filter  run every shard's cuckoo tables with the
 *               Cuckoo++ negative filter (DESIGN.md §13); recorded in
 *               the JSON
 *
 * --smoke runs 2 workers, 40000 packets, 5000 flows and churn {0, 10%}
 * (flags given explicitly win) and exits nonzero unless the decoupled
 * churn run ages flows (> 0 aged) and installs, and decoupled
 * throughput holds >= inline at 10% churn. Every run, smoke or not,
 * must conserve packets. The decoupled/inline line prints each side's
 * matched share and prints the ratio only when those shares agree
 * within one percentage point; the JSON records the same verdict as
 * headline_equal_work next to headline_speedup_10pct_churn.
 *
 * --trace adds one more decoupled run at the last churn level that
 * carries the trace recorders and the --prom export (marked "traced"
 * in the JSON), so the runs the ratio compares are both untraced.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "flow/ruleset.hh"
#include "hash/table_layout.hh"
#include "obs/json.hh"
#include "runtime/runtime.hh"

using namespace halo;
using namespace halo::bench;

namespace {

struct Options
{
    std::uint64_t flows = 20000;
    unsigned workers = 4;
    bool negativeFilter = false;
};

/**
 * Slow-path OpenFlow rules: a spread of wildcard masks seeded from the
 * initial flow population (each mask is one tuple table the upcall
 * search must probe — the cost inline mode pays on the worker), capped
 * by a match-all fallback so every churned-in flow resolves.
 */
RuleSet
openflowRules(const std::vector<FiveTuple> &slots, unsigned masks)
{
    RuleSet rules;
    const std::vector<FlowMask> lib = canonicalMasks(masks);
    for (unsigned i = 0; i < masks && i < slots.size(); ++i) {
        FlowRule r;
        r.mask = lib[i];
        r.maskedKey = r.mask.apply(slots[i].toKey());
        r.priority = static_cast<std::uint16_t>(10 + i);
        r.action = Action{ActionKind::Forward,
                          static_cast<std::uint16_t>(2 + i)};
        rules.push_back(r);
    }
    rules.push_back(fallbackRules().front());
    return rules;
}

struct ChurnResult
{
    bool decoupled = false;
    /// Carries the --trace recorders; kept out of the ratio gate.
    bool traced = false;
    double churn = 0.0;
    std::uint64_t newFlows = 0;
    double upcallRingDepthMax = 0.0;
    RuntimeReport rep;

    std::string
    label() const
    {
        char buf[56];
        std::snprintf(buf, sizeof buf, "%s churn %.2f%s",
                      decoupled ? "decoupled" : "inline", churn,
                      traced ? " traced" : "");
        return buf;
    }
};

ChurnResult
runOnce(bool decoupled, double churn, const BenchFlags &flags,
        const Options &opt, bool lastRun)
{
    std::vector<FiveTuple> slots;
    slots.reserve(opt.flows);
    for (std::uint64_t i = 0; i < opt.flows; ++i)
        slots.push_back(tupleForId(i));
    const RuleSet ofRules = openflowRules(slots, 16);

    // Upper bound on distinct flows the run can create; the inline
    // baseline never evicts, so the exact-match tuple must hold them
    // all (per shard it sees only its RSS share — generous slack).
    const std::uint64_t maxFlows =
        opt.flows +
        static_cast<std::uint64_t>(churn * double(flags.packets)) + 4096;

    RuntimeConfig cfg = benchRuntimeConfig(opt.workers);
    cfg.shardMemBytes = 2ull << 30; // lazily paged; bound, not footprint
    cfg.shard.vswitch.tupleConfig.tupleCapacity =
        nextPowerOfTwo(maxFlows);
    cfg.shard.vswitch.tupleConfig.negativeFilter = opt.negativeFilter;
    cfg.shard.vswitch.useOpenflowLayer = true;
    cfg.warmTables = false; // megaflow starts empty in both modes
    cfg.openflowRules = &ofRules;
    if (decoupled) {
        cfg.decoupled = true;
        cfg.revalidator.ringCapacity = 8192;
        if (flags.smoke) {
            // Short smoke runs still have to observe aging: sweep
            // faster and age after ~0.4 ms of inactivity.
            cfg.revalidator.sweepIntervalMicros = 200;
            cfg.revalidator.idleTimeoutEpochs = 2;
        }
    } else {
        // Inline baseline installs the same exact-match microflows the
        // revalidator would, from the worker thread.
        cfg.shard.vswitch.exactUpcallInstalls = true;
    }
    applyTelemetry(cfg, flags, lastRun);

    const RuleSet empty; // megaflow layer faults in via the slow path
    Runtime rt(cfg, empty);

    Xoshiro256 rng(0xc402u);
    ZipfDistribution zipf(slots.size(), 0.9);
    std::uint64_t nextFlowId = opt.flows;

    ChurnResult res;
    res.decoupled = decoupled;
    res.traced = lastRun && !flags.tracePath.empty();
    res.churn = churn;
    res.rep = instrumentedRun(rt, flags, lastRun, [&] {
        for (std::uint64_t p = 0; p < flags.packets; ++p) {
            if (churn > 0.0 && rng.nextBool(churn)) {
                const std::size_t victim = static_cast<std::size_t>(
                    rng.nextBounded(slots.size()));
                slots[victim] = tupleForId(nextFlowId++);
            }
            const FiveTuple &t =
                slots[zipf.sample(rng) % slots.size()];
            rt.offer(Packet::fromTuple(t), t);
        }
    });
    res.newFlows = nextFlowId - opt.flows;
    const obs::SampleSeries &samples = res.rep.samples;
    for (std::size_t c = 0; c < samples.columns.size(); ++c) {
        if (samples.columns[c] != "upcall_ring_depth")
            continue;
        for (const auto &row : samples.rows)
            res.upcallRingDepthMax =
                std::max(res.upcallRingDepthMax, row[c]);
    }

    const RuntimeSnapshot &a = res.rep.aggregate;
    std::printf(
        "%-9s churn %4.0f%%: %10.0f pkt/s cpu, %9.0f pkt/s wall, "
        "%llu upcalls, %llu drops, %llu aged%s\n",
        decoupled ? "decoupled" : "inline", churn * 100.0,
        aggregateCpuPps(res.rep), wallPps(res.rep),
        static_cast<unsigned long long>(a.upcallsEnqueued),
        static_cast<unsigned long long>(a.upcallDrops),
        static_cast<unsigned long long>(a.revalidator.agedFlows),
        res.traced ? " (traced)" : "");
    return res;
}

double
speedupAt(const std::vector<ChurnResult> &runs, double churn)
{
    double inlinePps = 0.0, decoupledPps = 0.0;
    for (const ChurnResult &r : runs) {
        if (r.churn != churn || r.traced)
            continue;
        (r.decoupled ? decoupledPps : inlinePps) = aggregateCpuPps(r.rep);
    }
    return inlinePps > 0.0 ? decoupledPps / inlinePps : 0.0;
}

/** Matched packets over processed packets of one side at @p churn. */
double
matchedShareAt(const std::vector<ChurnResult> &runs, double churn,
               bool decoupled)
{
    for (const ChurnResult &r : runs) {
        if (r.churn == churn && r.decoupled == decoupled && !r.traced) {
            const RuntimeSnapshot &a = r.rep.aggregate;
            return a.processed ? double(a.matched) / double(a.processed)
                               : 0.0;
        }
    }
    return 0.0;
}

void
writeJson(const BenchFlags &flags, const Options &opt,
          const std::vector<ChurnResult> &runs)
{
    std::ofstream out = openOutput(flags.outPath);
    obs::JsonWriter j(out);
    writeHeader(j, "churn_throughput", flags,
                runs.back().rep.perfDegraded);
    j.kv("flows", opt.flows);
    j.kv("workers", opt.workers);
    j.kv("negative_filter", opt.negativeFilter);
    j.kv("zipf_skew", 0.9, 2);
    // The ratio compares equal work only when both sides matched the
    // same share of their packets; headline_equal_work says whether
    // they did (the printed line omits the ratio when not).
    const double decShare = matchedShareAt(runs, 0.1, true);
    const double inlShare = matchedShareAt(runs, 0.1, false);
    j.kv("headline_speedup_10pct_churn", speedupAt(runs, 0.1), 2);
    j.kv("headline_equal_work", std::abs(decShare - inlShare) <= 0.01);
    j.kv("matched_share_10pct_churn_decoupled", decShare, 4);
    j.kv("matched_share_10pct_churn_inline", inlShare, 4);
    j.kv("methodology",
         "Each churn level runs twice over an identical Zipf(0.9) "
         "stream: inline resolves megaflow misses on the worker "
         "(OpenFlow search + exact-match install in the data path), "
         "decoupled enqueues them on the bounded MPSC upcall ring for "
         "the revalidator thread (single writer, seqlocked tables, "
         "background idle-flow aging). aggregate_cpu_pps sums "
         "per-worker CLOCK_THREAD_CPUTIME_ID packet rates; upcall "
         "ring overflow drops are counted, never blocking.");
    j.key("runs").beginArray();
    for (const ChurnResult &r : runs) {
        j.beginObject();
        j.kv("mode", r.decoupled ? "decoupled" : "inline");
        j.kv("churn", r.churn, 2);
        j.kv("traced", r.traced);
        writeRunCommon(j, r.rep);
        j.kv("new_flows", r.newFlows);
        if (r.decoupled) {
            const RuntimeSnapshot &a = r.rep.aggregate;
            const RevalidatorCounters &rv = a.revalidator;
            j.kv("upcalls_enqueued", a.upcallsEnqueued);
            j.kv("upcall_drops", a.upcallDrops);
            j.kv("upcall_ring_depth_max", r.upcallRingDepthMax, 0);
            j.kv("upcalls_processed", rv.upcallsProcessed);
            j.kv("dedup_hits", rv.dedupHits);
            j.kv("installs", rv.installs);
            j.kv("install_failures", rv.installFailures);
            j.kv("unresolved", rv.unresolved);
            j.kv("sweeps", rv.sweeps);
            j.kv("aged_flows", rv.agedFlows);
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::printf("\nwrote %s\n", flags.outPath.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchFlags flags;
    flags.outPath = "BENCH_churn.json";
    flags.packets = 200000;
    flags.sampleMicros = 2000;
    Options opt;
    parseFlags(argc, argv, flags, RuntimeFlags,
               {numberFlag("--flows", "N", opt.flows, std::uint64_t{1}),
                numberFlag("--workers", "N", opt.workers, 1u),
                switchFlag("--negative-filter", opt.negativeFilter)});

    banner("Flow-churn throughput",
           "inline vs decoupled slow path under Zipf churn");

    if (flags.smoke) {
        flags.unlessGiven("--workers", opt.workers, 2);
        flags.unlessGiven("--packets", flags.packets, 40000);
        flags.unlessGiven("--flows", opt.flows, 5000);
    }
    const std::vector<double> churns =
        flags.smoke ? std::vector<double>{0.0, 0.1}
                    : std::vector<double>{0.0, 0.1, 0.5};

    // Trace recorders slow the run that carries them, so with --trace
    // an extra decoupled run at the last churn level carries them (and
    // the --prom export) after the gated pairs: neither side of the
    // decoupled/inline ratio is traced.
    const bool tracedRun = !flags.tracePath.empty();
    std::vector<ChurnResult> runs;
    for (std::size_t c = 0; c < churns.size(); ++c) {
        for (const bool decoupled : {false, true}) {
            const bool last =
                !tracedRun && c + 1 == churns.size() && decoupled;
            runs.push_back(runOnce(decoupled, churns[c], flags, opt, last));
        }
    }
    if (tracedRun)
        runs.push_back(runOnce(true, churns.back(), flags, opt, true));
    writeJson(flags, opt, runs);

    // A rate ratio only compares equal work: print it only when both
    // sides matched the same share of their packets.
    const double speedup = speedupAt(runs, 0.1);
    const double decShare = matchedShareAt(runs, 0.1, true);
    const double inlShare = matchedShareAt(runs, 0.1, false);
    if (std::abs(decShare - inlShare) <= 0.01)
        std::printf("decoupled/inline @ 10%% churn: %.2fx", speedup);
    else
        std::printf("decoupled/inline @ 10%% churn: no ratio, unequal "
                    "work");
    std::printf(" (matched share: decoupled %.1f%%, inline %.1f%%)\n",
                100.0 * decShare, 100.0 * inlShare);

    bool ok = true;
    for (const ChurnResult &r : runs)
        ok &= conserved(r.rep, r.label());
    if (flags.smoke) {
        for (const ChurnResult &r : runs) {
            const RevalidatorCounters &rv = r.rep.aggregate.revalidator;
            if (aggregateCpuPps(r.rep) <= 0.0) {
                std::fprintf(stderr, "smoke FAILED (%s): zero pps\n",
                             r.label().c_str());
                ok = false;
            }
            if (r.decoupled && r.churn > 0.0 && rv.agedFlows == 0) {
                std::fprintf(stderr,
                             "smoke FAILED: decoupled churn run aged "
                             "no flows\n");
                ok = false;
            }
            if (r.decoupled && r.churn > 0.0 && rv.installs == 0) {
                std::fprintf(stderr,
                             "smoke FAILED: revalidator installed "
                             "nothing under churn\n");
                ok = false;
            }
        }
        if (flags.perf)
            ok &= perfStagesRecorded(runs.back().rep);
        if (speedup < 1.0) {
            std::fprintf(stderr,
                         "smoke FAILED: decoupled %.2fx inline at 10%% "
                         "churn (< 1.0x)\n",
                         speedup);
            ok = false;
        }
    }
    if (!ok)
        return 1;
    if (flags.smoke)
        std::printf("smoke OK\n");
    return 0;
}

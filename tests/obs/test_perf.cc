/**
 * @file
 * Unit tests for the hardware perf-counter layer: degraded-mode
 * fallback via an injected failing open syscall, multiplex scaling
 * math, sampled-attribution bookkeeping, and the golden Prometheus
 * exposition of a recorder wired like Runtime::registerMetrics.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/perf.hh"
#include "obs/stage.hh"

namespace halo::obs {
namespace {

/** OpenFn that always fails with a fixed errno. */
PerfCounterGroup::OpenFn
failingOpen(int err)
{
    return [err](std::uint32_t, std::uint64_t, int) { return -err; };
}

/** RAII TLS install, mirroring the runtime's worker setup. */
struct ScopedInstall
{
    explicit ScopedInstall(PerfRecorder *rec)
        : prev(installStageRecorders({nullptr, rec}))
    {
    }
    ~ScopedInstall() { installStageRecorders(prev); }
    StageRecorders prev;
};

TEST(PerfCounterGroup, DegradesWhenOpenFails)
{
    PerfCounterGroup g(failingOpen(EPERM));
    EXPECT_TRUE(g.degraded());
    EXPECT_EQ(g.degradedErrno(), EPERM);

    const PerfGroupReading r = g.read();
    EXPECT_FALSE(r.hwValid);
    EXPECT_EQ(r.timeEnabled, 0u);
    EXPECT_EQ(r.timeRunning, 0u);
    for (unsigned e = 0; e < numPerfEvents; ++e)
        EXPECT_EQ(r.raw[e], 0u);
}

TEST(PerfCounterGroup, AllOrNothingOnPartialFailure)
{
    // Leader opens, a later event fails: the whole group must degrade
    // (a partial group would skew cross-event ratios silently).
    int calls = 0;
    PerfCounterGroup g(
        [&calls](std::uint32_t, std::uint64_t, int) {
            return ++calls <= 2 ? -ENODEV : -EACCES;
        });
    EXPECT_TRUE(g.degraded());
    EXPECT_NE(g.degradedErrno(), 0);
    EXPECT_FALSE(g.read().hwValid);
}

TEST(PerfScaledDelta, ExactWhenNotMultiplexed)
{
    PerfGroupReading a, b;
    a.hwValid = b.hwValid = true;
    a.timeEnabled = 1000;
    a.timeRunning = 1000;
    b.timeEnabled = 2000;
    b.timeRunning = 2000;
    for (unsigned e = 0; e < numPerfEvents; ++e) {
        a.raw[e] = 100 * (e + 1);
        b.raw[e] = 100 * (e + 1) + 7 * (e + 1);
    }
    const auto d = perfScaledDelta(a, b);
    for (unsigned e = 0; e < numPerfEvents; ++e)
        EXPECT_EQ(d[e], 7u * (e + 1)) << perfEventName(e);
}

TEST(PerfScaledDelta, ScalesByEnabledOverRunning)
{
    // Group scheduled for 2000 ns but only counting for 1000 ns:
    // the standard perf estimate doubles the raw deltas.
    PerfGroupReading a, b;
    a.hwValid = b.hwValid = true;
    a.timeEnabled = 0;
    a.timeRunning = 0;
    b.timeEnabled = 2000;
    b.timeRunning = 1000;
    a.raw[0] = 500;
    b.raw[0] = 600; // raw delta 100 -> scaled 200
    const auto d = perfScaledDelta(a, b);
    EXPECT_EQ(d[0], 200u);
}

TEST(PerfScaledDelta, ZeroOnInvalidOrStalledReadings)
{
    PerfGroupReading valid;
    valid.hwValid = true;
    valid.timeEnabled = 100;
    valid.timeRunning = 100;
    valid.raw[0] = 42;

    PerfGroupReading invalid; // hwValid=false (degraded read)
    for (unsigned e = 0; e < numPerfEvents; ++e) {
        EXPECT_EQ(perfScaledDelta(invalid, valid)[e], 0u);
        EXPECT_EQ(perfScaledDelta(valid, invalid)[e], 0u);
    }

    // No running time elapsed between the reads: nothing to scale.
    PerfGroupReading stalled = valid;
    stalled.raw[0] = 99;
    EXPECT_EQ(perfScaledDelta(valid, stalled)[0], 0u);
}

TEST(PerfStageTotals, EstimatedEventsScalesSampledToAllEntries)
{
    PerfStageTotals t;
    t.entries = 8;
    t.sampledEntries = 2;
    t.events[0] = 50; // over the 2 sampled entries
    EXPECT_DOUBLE_EQ(t.estimatedEvents(0), 200.0); // 50 * 8/2

    PerfStageTotals unsampled;
    unsampled.entries = 8;
    EXPECT_DOUBLE_EQ(unsampled.estimatedEvents(0), 0.0);
}

TEST(PerfRecorder, DegradedScopesStillCountEntriesAndTsc)
{
    const std::uint16_t stage = stageId("worker/batch");
    PerfRecorder rec(/*sample_shift=*/0, failingOpen(EPERM));
    rec.openThisThread();
    EXPECT_TRUE(rec.degraded());
    EXPECT_EQ(rec.degradedErrno(), EPERM);

    {
        ScopedInstall install(&rec);
        ASSERT_EQ(tlsStageRecorders.perf, &rec);
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 16; ++i) {
            StageScope scope(stage);
            for (int j = 0; j < 64; ++j)
                sink = sink + static_cast<std::uint64_t>(j);
        }
    }
    EXPECT_EQ(tlsStageRecorders.perf, nullptr);

    const PerfStageTotals t = rec.stage(stage);
    EXPECT_EQ(t.stage, "worker/batch");
    EXPECT_EQ(t.entries, 16u);
    EXPECT_GT(t.tscCycles, 0u);
    // rdtsc-only mode: no group reads, no event counts.
    EXPECT_EQ(t.sampledEntries, 0u);
    for (unsigned e = 0; e < numPerfEvents; ++e)
        EXPECT_EQ(t.events[e], 0u);
}

TEST(PerfRecorder, ScopeIsNoopWithoutInstalledRecorder)
{
    ASSERT_EQ(tlsStageRecorders.perf, nullptr);
    const std::uint16_t stage = stageId("worker/offload");
    StageScope scope(stage); // must not crash or touch anything
}

TEST(PerfRecorder, AddSampleAndSnapshot)
{
    const std::uint16_t sa = stageId("revalidator/drain");
    const std::uint16_t sb = stageId("vswitch/emc");
    PerfRecorder rec(6, failingOpen(ENOENT));

    std::array<std::uint64_t, numPerfEvents> ev{};
    for (unsigned e = 0; e < numPerfEvents; ++e)
        ev[e] = 10 * (e + 1);
    rec.addSample(sa, 100, &ev);
    rec.addSample(sa, 100); // unsampled entry
    rec.addSample(sb, 7);

    const PerfStageTotals ta = rec.stage(sa);
    EXPECT_EQ(ta.entries, 2u);
    EXPECT_EQ(ta.tscCycles, 200u);
    EXPECT_EQ(ta.sampledEntries, 1u);
    EXPECT_EQ(ta.events[0], 10u);
    // Scaled estimate: sampled totals * entries/sampledEntries.
    EXPECT_DOUBLE_EQ(ta.estimatedEvents(0), 20.0);

    const std::vector<PerfStageTotals> snap = perfSnapshotStages(rec);
    // Only stages this recorder touched appear, sorted by name.
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].stage, "revalidator/drain");
    EXPECT_EQ(snap[1].stage, "vswitch/emc");
    EXPECT_EQ(snap[1].tscCycles, 7u);
}

TEST(PerfMergeStages, MergesByStageName)
{
    PerfStageTotals a;
    a.stage = "s/x";
    a.entries = 2;
    a.tscCycles = 10;
    a.sampledEntries = 1;
    a.events[0] = 5;

    PerfStageTotals b = a;
    b.tscCycles = 30;
    PerfStageTotals c;
    c.stage = "s/new";
    c.entries = 1;
    c.tscCycles = 1;

    std::vector<PerfStageTotals> into{a};
    perfMergeStages(into, {b, c});
    ASSERT_EQ(into.size(), 2u);
    // Sorted by name after merge.
    EXPECT_EQ(into[0].stage, "s/new");
    EXPECT_EQ(into[1].stage, "s/x");
    EXPECT_EQ(into[1].entries, 4u);
    EXPECT_EQ(into[1].tscCycles, 40u);
    EXPECT_EQ(into[1].sampledEntries, 2u);
    EXPECT_EQ(into[1].events[0], 10u);
}

TEST(PerfExposition, GoldenPrometheusRendering)
{
    // Mirror Runtime::registerMetrics' per-recorder wiring for two
    // known stages and pin the exact exposition text.
    const std::uint16_t ga = stageId("revalidator/sweep");
    const std::uint16_t gb = stageId("worker/batch");
    PerfRecorder rec(6, failingOpen(EPERM));
    rec.openThisThread();

    std::array<std::uint64_t, numPerfEvents> ev{10, 20, 30, 40, 50};
    rec.addSample(ga, 100, &ev);
    rec.addSample(gb, 7);

    MetricsRegistry reg;
    const MetricLabels base{{"worker", "0"}};
    reg.attach("halo_perf_degraded", base, MetricKind::Gauge,
               [&rec] { return rec.degraded() ? 1.0 : 0.0; });
    for (std::uint16_t id : {ga, gb}) {
        MetricLabels l = base;
        l.emplace_back("stage", stageName(id));
        reg.attach("halo_perf_stage_entries", l, MetricKind::Counter,
                   [&rec, id] {
                       return static_cast<double>(rec.stage(id).entries);
                   });
        reg.attach("halo_perf_stage_tsc_cycles", l,
                   MetricKind::Counter, [&rec, id] {
                       return static_cast<double>(
                           rec.stage(id).tscCycles);
                   });
        for (unsigned e = 0; e < numPerfEvents; ++e)
            reg.attach(std::string("halo_perf_stage_") +
                           perfEventName(e),
                       l, MetricKind::Counter, [&rec, id, e] {
                           return rec.stage(id).estimatedEvents(e);
                       });
    }

    const std::string expected =
        "# TYPE halo_perf_degraded gauge\n"
        "halo_perf_degraded{worker=\"0\"} 1\n"
        "# TYPE halo_perf_stage_branch_misses counter\n"
        "halo_perf_stage_branch_misses{worker=\"0\","
        "stage=\"revalidator/sweep\"}"
        " 50\n"
        "halo_perf_stage_branch_misses{worker=\"0\",stage=\"worker/batch\"}"
        " 0\n"
        "# TYPE halo_perf_stage_cycles counter\n"
        "halo_perf_stage_cycles{worker=\"0\",stage=\"revalidator/sweep\"} 10\n"
        "halo_perf_stage_cycles{worker=\"0\",stage=\"worker/batch\"} 0\n"
        "# TYPE halo_perf_stage_dtlb_load_misses counter\n"
        "halo_perf_stage_dtlb_load_misses{worker=\"0\","
        "stage=\"revalidator/sweep\"} 40\n"
        "halo_perf_stage_dtlb_load_misses{worker=\"0\","
        "stage=\"worker/batch\"} 0\n"
        "# TYPE halo_perf_stage_entries counter\n"
        "halo_perf_stage_entries{worker=\"0\",stage=\"revalidator/sweep\"} 1\n"
        "halo_perf_stage_entries{worker=\"0\",stage=\"worker/batch\"} 1\n"
        "# TYPE halo_perf_stage_instructions counter\n"
        "halo_perf_stage_instructions{worker=\"0\","
        "stage=\"revalidator/sweep\"}"
        " 20\n"
        "halo_perf_stage_instructions{worker=\"0\",stage=\"worker/batch\"}"
        " 0\n"
        "# TYPE halo_perf_stage_llc_load_misses counter\n"
        "halo_perf_stage_llc_load_misses{worker=\"0\","
        "stage=\"revalidator/sweep\"} 30\n"
        "halo_perf_stage_llc_load_misses{worker=\"0\","
        "stage=\"worker/batch\"} 0\n"
        "# TYPE halo_perf_stage_tsc_cycles counter\n"
        "halo_perf_stage_tsc_cycles{worker=\"0\",stage=\"revalidator/sweep\"}"
        " 100\n"
        "halo_perf_stage_tsc_cycles{worker=\"0\",stage=\"worker/batch\"}"
        " 7\n";
    EXPECT_EQ(reg.renderPrometheus(), expected);
}

TEST(PerfTsc, MonotonicNonDecreasing)
{
    std::uint64_t last = perfTscNow();
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t now = perfTscNow();
        ASSERT_GE(now, last);
        last = now;
    }
}

TEST(Perf, RealGroupWhenHardwareAllows)
{
    // With the default open fn this either opens real counters or
    // degrades cleanly (EPERM/EACCES/ENOENT in containers) — both are
    // valid outcomes; what must never happen is a half-open group.
    PerfCounterGroup g;
    if (g.degraded()) {
        EXPECT_NE(g.degradedErrno(), 0);
        EXPECT_FALSE(g.read().hwValid);
        GTEST_SKIP() << "perf_event_open unavailable (errno "
                     << g.degradedErrno() << ")";
    }
    const PerfGroupReading r0 = g.read();
    ASSERT_TRUE(r0.hwValid);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + static_cast<std::uint64_t>(i);
    const PerfGroupReading r1 = g.read();
    ASSERT_TRUE(r1.hwValid);
    const auto d = perfScaledDelta(r0, r1);
    EXPECT_GT(d[static_cast<unsigned>(PerfEvent::Cycles)], 0u);
    EXPECT_GT(d[static_cast<unsigned>(PerfEvent::Instructions)], 0u);
}

} // namespace
} // namespace halo::obs

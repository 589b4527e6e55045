/**
 * @file
 * Unit tests for the stage table and the HALO_STAGE scope that feeds
 * both the trace ring and the per-stage perf totals.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/stage.hh"

namespace halo::obs {
namespace {

/** Restore the thread's recorders on scope exit. */
struct ScopedInstall
{
    explicit ScopedInstall(StageRecorders recs)
        : prev(installStageRecorders(recs))
    {
    }
    ~ScopedInstall() { installStageRecorders(prev); }
    StageRecorders prev;
};

/** A PerfRecorder that never opens a PMU group (rdtsc-only). */
PerfRecorder
degradedPerf()
{
    return PerfRecorder(0, [](std::uint32_t, std::uint64_t, int) {
        return -EPERM;
    });
}

TEST(StageName, IdsIndexTheTable)
{
    for (std::size_t i = 0; i < numStages; ++i) {
        EXPECT_EQ(std::string(stageName(static_cast<std::uint16_t>(i))),
                  kStageNames[i]);
    }
    static_assert(stageId("worker/batch") == 0);
    static_assert(stageId("revalidator/sweep") < numStages);
}

TEST(StageScope, FeedsBothRecordersUnderOneName)
{
    TraceRecorder trace(16);
    PerfRecorder perf = degradedPerf();
    perf.openThisThread();
    {
        ScopedInstall install({&trace, &perf});
        HALO_STAGE("vswitch/emc");
    }
    ASSERT_EQ(trace.recorded(), 1u);
    EXPECT_STREQ(stageName(trace.event(0).nameId), "vswitch/emc");
    const PerfStageTotals t = perf.stage(stageId("vswitch/emc"));
    EXPECT_EQ(t.stage, "vswitch/emc");
    EXPECT_EQ(t.entries, 1u);
    EXPECT_GT(t.tscCycles, 0u);
}

TEST(StageScope, RecordsNothingWhenUninstalled)
{
    TraceRecorder trace(16);
    PerfRecorder perf = degradedPerf();
    ASSERT_EQ(tlsStageRecorders.trace, nullptr);
    ASSERT_EQ(tlsStageRecorders.perf, nullptr);
    {
        HALO_STAGE("vswitch/cuckoo");
    }
    EXPECT_EQ(trace.recorded(), 0u);
    EXPECT_EQ(perf.stage(stageId("vswitch/cuckoo")).entries, 0u);
}

TEST(StageScope, InstallationIsPerThread)
{
    TraceRecorder mine(16);
    ScopedInstall install({&mine, nullptr});
    std::thread other([] {
        // This thread never installed a recorder.
        EXPECT_EQ(tlsStageRecorders.trace, nullptr);
        HALO_STAGE("worker/batch");
    });
    other.join();
    EXPECT_EQ(mine.recorded(), 0u);
}

} // namespace
} // namespace halo::obs

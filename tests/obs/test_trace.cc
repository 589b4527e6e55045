/**
 * @file
 * Unit tests for the trace recorder ring and the Chrome drain (the
 * HALO_STAGE scope that feeds it is covered in test_stage.cc).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>

#include "obs/stage.hh"

namespace halo::obs {
namespace {

/** Uninstall the recorder on scope exit so tests stay independent. */
struct ScopedInstall
{
    explicit ScopedInstall(TraceRecorder *rec)
        : prev(installStageRecorders({rec, nullptr}))
    {
    }
    ~ScopedInstall() { installStageRecorders(prev); }
    StageRecorders prev;
};

TEST(TraceRecorder, CapacityRoundsUpToPowerOfTwo)
{
    TraceRecorder rec(5);
    EXPECT_EQ(rec.capacity(), 8u);
    TraceRecorder exact(16);
    EXPECT_EQ(exact.capacity(), 16u);
}

TEST(TraceRecorder, RecordsInOrder)
{
    TraceRecorder rec(8);
    const std::uint16_t id = stageId("worker/batch");
    for (std::uint64_t i = 0; i < 5; ++i)
        rec.record(id, i * 100, i * 100 + 50);
    ASSERT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.recorded(), 5u);
    EXPECT_EQ(rec.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(rec.event(i).startNanos, i * 100);
        EXPECT_EQ(rec.event(i).durNanos, 50u);
        EXPECT_EQ(rec.event(i).nameId, id);
    }
}

TEST(TraceRecorder, WraparoundKeepsNewestOldestFirst)
{
    TraceRecorder rec(4);
    const std::uint16_t id = stageId("worker/batch");
    for (std::uint64_t i = 0; i < 10; ++i)
        rec.record(id, i, i + 1);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    // Events 6..9 survive, oldest first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(rec.event(i).startNanos, 6 + i);
}

TEST(TraceRecorder, DurationSaturatesAt32Bits)
{
    TraceRecorder rec(4);
    const std::uint16_t id = stageId("worker/batch");
    rec.record(id, 0, 10ull << 32); // ~42.9 s
    EXPECT_EQ(rec.event(0).durNanos, 0xffffffffu);
    rec.record(id, 100, 50); // end before start clamps to 0
    EXPECT_EQ(rec.event(1).durNanos, 0u);
}

TEST(WriteChromeTrace, EmitsWellFormedJson)
{
    TraceRecorder rec(8);
    const std::uint16_t id = stageId("vswitch/emc");
    rec.record(id, 1000, 2500);
    rec.record(id, 3000, 3100);

    const TraceThread threads[] = {{&rec, "worker \"0\"", 1}};
    std::ostringstream os;
    writeChromeTrace(os, threads);
    const std::string json = os.str();

    // Structural balance scan (outside strings).
    int braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (const char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);

    // The span name survives, the thread row is labeled (escaped), and
    // both events are complete ("X") events.
    EXPECT_NE(json.find("\"vswitch/emc\""), std::string::npos);
    EXPECT_NE(json.find("worker \\\"0\\\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(WriteChromeTrace, DrainConcurrentWithLiveRecorderIsClean)
{
    // The contract is per-recorder: drain a recorder only after its
    // owner thread joined. Another thread recording into its *own*
    // ring must not race the drain. TSan builds verify exactly that.
    TraceRecorder joined(64);
    {
        std::thread t([&joined] {
            ScopedInstall install(&joined);
            const std::uint16_t id = stageId("revalidator/sweep");
            for (int i = 0; i < 32; ++i)
                joined.record(id, static_cast<std::uint64_t>(i) * 10,
                              static_cast<std::uint64_t>(i) * 10 + 5);
        });
        t.join();
    }

    TraceRecorder live(64);
    std::thread writer([&live] {
        ScopedInstall install(&live);
        for (int spin = 0; spin < 20000; ++spin) {
            StageScope scope(static_cast<std::uint16_t>(spin & 3));
        }
    });

    for (int pass = 0; pass < 8; ++pass) {
        const TraceThread threads[] = {{&joined, "joined", 1}};
        std::ostringstream os;
        writeChromeTrace(os, threads);
        EXPECT_NE(os.str().find("revalidator/sweep"),
                  std::string::npos);
    }
    writer.join();

    // Now the live thread has quiesced too; both rings drain together.
    const TraceThread threads[] = {{&joined, "joined", 1},
                                   {&live, "live", 2}};
    std::ostringstream os;
    writeChromeTrace(os, threads);
    EXPECT_NE(os.str().find(kStageNames[3]), std::string::npos);
}

TEST(WriteChromeTrace, EmptyRecorderStillValid)
{
    TraceRecorder rec(4);
    const TraceThread threads[] = {{&rec, "idle", 7}};
    std::ostringstream os;
    writeChromeTrace(os, threads);
    // Metadata only; still a complete JSON object.
    EXPECT_NE(os.str().find("traceEvents"), std::string::npos);
    EXPECT_EQ(os.str().back(), '\n');
}

} // namespace
} // namespace halo::obs

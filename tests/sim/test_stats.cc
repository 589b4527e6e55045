/**
 * @file
 * Unit tests for the statistics framework and type helpers.
 */

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace halo {
namespace {

TEST(PublishedCounter, SingleWriterConcurrentReader)
{
    PublishedCounter c;
    constexpr std::uint64_t target = 200000;

    std::thread writer([&] {
        for (std::uint64_t i = 0; i < target; ++i)
            c.add(1);
    });

    // Reader sees an eventually-consistent monotonic value.
    std::uint64_t last = 0;
    while (last < target) {
        const std::uint64_t v = c.value();
        ASSERT_GE(v, last);
        ASSERT_LE(v, target);
        last = v;
        std::this_thread::yield();
    }
    writer.join();
    EXPECT_EQ(c.value(), target);
}

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, TracksMeanMinMax)
{
    Average a;
    a.sample(2.0);
    a.sample(6.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_EQ(a.samples(), 3u);
}

TEST(Average, EmptyIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(StatGroup, ForEachEnumeratesAll)
{
    StatGroup g("fe");
    g.counter("a") += 1;
    g.counter("b") += 2;
    g.average("m").sample(6.0);

    std::map<std::string, std::uint64_t> seen;
    g.forEachCounter([&](const std::string &name, const Counter &c) {
        seen[name] = c.value();
    });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen["a"], 1u);
    EXPECT_EQ(seen["b"], 2u);

    unsigned averages = 0;
    g.forEachAverage([&](const std::string &name, const Average &a) {
        EXPECT_EQ(name, "m");
        EXPECT_DOUBLE_EQ(a.mean(), 6.0);
        ++averages;
    });
    EXPECT_EQ(averages, 1u);
}

TEST(StatGroup, RegisterAndRead)
{
    StatGroup g("test");
    ++g.counter("hits");
    g.counter("hits") += 2;
    EXPECT_EQ(g.counterValue("hits"), 3u);
    EXPECT_TRUE(g.hasCounter("hits"));
    EXPECT_FALSE(g.hasCounter("misses"));
    EXPECT_THROW(g.counterValue("misses"), PanicError);
}

TEST(StatGroup, DumpContainsEntries)
{
    StatGroup g("grp");
    g.counter("x") += 7;
    g.average("y").sample(3.0);
    const std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.x 7"), std::string::npos);
    EXPECT_NE(dump.find("grp.y.mean 3"), std::string::npos);
}

TEST(StatGroup, ResetClearsAll)
{
    StatGroup g("r");
    g.counter("c") += 4;
    g.average("a").sample(1.0);
    g.reset();
    EXPECT_EQ(g.counterValue("c"), 0u);
    EXPECT_EQ(g.average("a").samples(), 0u);
}

TEST(Types, LineAlignment)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(130), 128u);
    EXPECT_TRUE(isLineAligned(128));
    EXPECT_FALSE(isLineAligned(129));
}

TEST(Types, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(nextPowerOfTwo(0), 1u);
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(5), 8u);
    EXPECT_EQ(nextPowerOfTwo(4096), 4096u);
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(4096), 12u);
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
}

} // namespace
} // namespace halo

/**
 * @file
 * Tests for the host-path linear-counting flow estimator
 * (flow/flow_estimator.hh): estimation accuracy across the flow scales
 * the adaptive EMC controller operates at (1k → 1M distinct flows),
 * window rollover isolation, saturation reporting, and the 1-in-2^k
 * packet sampling that keeps the data-path cost negligible.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "flow/flow_estimator.hh"

namespace halo {
namespace {

/** SplitMix64 finalizer: well-mixed 64-bit hash per flow id. */
std::uint64_t
flowHash(std::uint64_t id)
{
    std::uint64_t z = id + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Linear counting with a 2^18-bit window must land within a few percent
 * of the true cardinality from 1k through 1M distinct flows — the range
 * the EMC controller's disable/enable decisions depend on. 1M flows
 * load the array at n/m ≈ 4, the deep end of the estimator's accurate
 * regime.
 */
TEST(FlowEstimator, AccurateFrom1kTo1MDistinctFlows)
{
    for (const std::uint64_t n :
         {std::uint64_t{1000}, std::uint64_t{100000},
          std::uint64_t{1000000}}) {
        ShardFlowEstimator est(1ull << 18, /*sampleShift=*/0);
        for (std::uint64_t id = 0; id < n; ++id)
            est.observe(flowHash(id));
        const ShardFlowEstimator::Window w = est.closeWindow();
        ASSERT_FALSE(w.saturated) << n << " flows";
        EXPECT_EQ(w.samples, n);
        const double relErr =
            std::abs(w.estimate - static_cast<double>(n)) /
            static_cast<double>(n);
        EXPECT_LT(relErr, 0.05) << n << " flows, estimate "
                                << w.estimate;
        // The any-thread snapshots mirror the closed window.
        EXPECT_DOUBLE_EQ(est.lastEstimate(), w.estimate);
        EXPECT_EQ(est.lastSamples(), w.samples);
    }
}

/**
 * Repeats within a window must not inflate the estimate: the
 * controller's repeat-fraction test (1 - E/W) relies on E counting
 * distinct flows while W counts packets.
 */
TEST(FlowEstimator, RepeatsCountAsSamplesNotFlows)
{
    ShardFlowEstimator est(1ull << 18, 0);
    constexpr std::uint64_t flows = 5000;
    constexpr int rounds = 8;
    for (int r = 0; r < rounds; ++r)
        for (std::uint64_t id = 0; id < flows; ++id)
            est.observe(flowHash(id));
    const ShardFlowEstimator::Window w = est.closeWindow();
    EXPECT_EQ(w.samples, flows * rounds);
    EXPECT_LT(std::abs(w.estimate - double(flows)) / double(flows),
              0.05);
    // Repeat fraction derived from the window ≈ 1 - 1/rounds.
    const double repeat = 1.0 - w.estimate / double(w.samples);
    EXPECT_NEAR(repeat, 1.0 - 1.0 / rounds, 0.02);
}

/**
 * Epoch rollover: closeWindow() retires the active buffer and starts
 * the next window empty, so consecutive windows measure independent
 * populations — including the empty idle window.
 */
TEST(FlowEstimator, WindowRolloverIsolatesEpochs)
{
    ShardFlowEstimator est(1ull << 16, 0);
    EXPECT_EQ(est.windowsClosed(), 0u);

    for (std::uint64_t id = 0; id < 600; ++id)
        est.observe(flowHash(id));
    const auto w1 = est.closeWindow();
    EXPECT_EQ(w1.samples, 600u);
    EXPECT_LT(std::abs(w1.estimate - 600.0) / 600.0, 0.10);
    EXPECT_EQ(est.windowsClosed(), 1u);

    // A disjoint, smaller population in the next window: the estimate
    // must track it alone, not the union with the previous window.
    for (std::uint64_t id = 10000; id < 10200; ++id)
        est.observe(flowHash(id));
    const auto w2 = est.closeWindow();
    EXPECT_EQ(w2.samples, 200u);
    EXPECT_LT(std::abs(w2.estimate - 200.0) / 200.0, 0.10);
    EXPECT_EQ(est.windowsClosed(), 2u);

    // Idle window: no traffic, no estimate.
    const auto w3 = est.closeWindow();
    EXPECT_EQ(w3.samples, 0u);
    EXPECT_DOUBLE_EQ(w3.estimate, 0.0);
    EXPECT_FALSE(w3.saturated);
    EXPECT_EQ(est.windowsClosed(), 3u);

    // And the buffer really was cleared: the double-buffer reuses the
    // retired array two closes later, so a fourth window over a fresh
    // population must not see ghost bits from window one.
    for (std::uint64_t id = 20000; id < 20400; ++id)
        est.observe(flowHash(id));
    const auto w4 = est.closeWindow();
    EXPECT_EQ(w4.samples, 400u);
    EXPECT_LT(std::abs(w4.estimate - 400.0) / 400.0, 0.10);
}

/**
 * Saturation: when every bit fills, the window must say so and clamp
 * the estimate at the saturation bound instead of reporting a bogus
 * finite cardinality — the controller treats saturation as "more
 * flows than I can count" and disables the EMC.
 */
TEST(FlowEstimator, SaturationIsReportedNotInvented)
{
    ShardFlowEstimator est(1ull << 10, 0); // tiny: 1024 bits
    ASSERT_EQ(est.bitCount(), 1024u);
    for (std::uint64_t id = 0; id < 200000; ++id)
        est.observe(flowHash(id));
    const auto w = est.closeWindow();
    EXPECT_TRUE(w.saturated);
    EXPECT_DOUBLE_EQ(w.estimate, est.saturationBound());
    // The next window starts clean and unsaturated.
    for (std::uint64_t id = 0; id < 16; ++id)
        est.observe(flowHash(id));
    const auto next = est.closeWindow();
    EXPECT_FALSE(next.saturated);
    EXPECT_EQ(next.samples, 16u);
}

/**
 * Sampling: with sampleShift = k the estimator observes 1-in-2^k
 * packets, so the window's sample count and estimate reflect the
 * sampled stream — which is exactly what the controller's
 * repeat-fraction test is defined over.
 */
TEST(FlowEstimator, SamplingObservesOneInTwoToTheShift)
{
    constexpr unsigned shift = 3;
    ShardFlowEstimator est(1ull << 16, shift);
    EXPECT_EQ(est.sampleShift(), shift);
    constexpr std::uint64_t packets = 64000;
    // Every packet a distinct flow: the sampled stream is also all
    // distinct, so estimate ≈ samples ≈ packets / 2^shift.
    for (std::uint64_t id = 0; id < packets; ++id)
        est.observe(flowHash(id));
    const auto w = est.closeWindow();
    EXPECT_EQ(w.samples, packets >> shift);
    EXPECT_LT(std::abs(w.estimate - double(w.samples)) /
                  double(w.samples),
              0.10);
}

} // namespace
} // namespace halo

/**
 * @file
 * Unit tests for the TCAM/SRAM-TCAM models and the power/area models
 * (paper Table 4).
 */

#include <gtest/gtest.h>

#include "power/power_model.hh"
#include "tcam/tcam.hh"

namespace halo {
namespace {

FlowRule
ruleFor(std::uint32_t dst_ip, unsigned prefix, std::uint16_t priority,
        std::uint16_t port)
{
    FlowRule r;
    r.mask = FlowMask::fields(0, prefix, false, false, false);
    FiveTuple t;
    t.dstIp = dst_ip;
    r.maskedKey = r.mask.apply(t.toKey());
    r.priority = priority;
    r.action = {ActionKind::Forward, port};
    return r;
}

TEST(Tcam, HighestPriorityWins)
{
    TcamModel tcam(TcamConfig{});
    tcam.addRule(ruleFor(0x0a0b0c0d, 32, 10, 1));
    tcam.addRule(ruleFor(0x0a0b0c00, 24, 50, 2));
    FiveTuple t;
    t.dstIp = 0x0a0b0c0d;
    const auto m = tcam.lookup(t.toKey());
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->action.port, 2); // priority 50 beats 10
}

TEST(Tcam, WildcardMatching)
{
    TcamModel tcam(TcamConfig{});
    tcam.addRule(ruleFor(0x0a0b0000, 16, 5, 9));
    FiveTuple in_net, out_net;
    in_net.dstIp = 0x0a0bffee;
    out_net.dstIp = 0x0a0cffee;
    EXPECT_TRUE(tcam.lookup(in_net.toKey()).has_value());
    EXPECT_FALSE(tcam.lookup(out_net.toKey()).has_value());
}

TEST(Tcam, CapacityIsEnforced)
{
    TcamConfig cfg;
    cfg.capacityBytes = 13 * 4; // four entries
    TcamModel tcam(cfg);
    EXPECT_EQ(tcam.capacityEntries(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(tcam.addRule(ruleFor(i << 8, 24, i, 0)));
    EXPECT_FALSE(tcam.addRule(ruleFor(99 << 8, 24, 99, 0)));
}

TEST(Tcam, UpdatesShiftEntries)
{
    TcamModel tcam(TcamConfig{});
    // Inserting in ascending priority forces shifting every time.
    for (unsigned i = 0; i < 16; ++i)
        tcam.addRule(ruleFor(i << 8, 24, static_cast<std::uint16_t>(i),
                             0));
    EXPECT_GT(tcam.entriesShifted(), 50u);
}

TEST(Tcam, RemoveRule)
{
    TcamModel tcam(TcamConfig{});
    tcam.addRule(ruleFor(0x01000000, 8, 10, 1));
    FiveTuple t;
    t.dstIp = 0x01020304;
    ASSERT_TRUE(tcam.lookup(t.toKey()).has_value());
    tcam.removeRule(tcam.lookup(t.toKey())->index);
    EXPECT_FALSE(tcam.lookup(t.toKey()).has_value());
}

TEST(Tcam, ConstantSearchLatency)
{
    TcamModel tcam(TcamConfig{});
    EXPECT_EQ(tcam.searchLatency(), 4u);
    SramTcam sram(SramTcam::Config{});
    EXPECT_GT(sram.searchLatency(), tcam.searchLatency());
}

TEST(SramTcam, FunctionalParityWithTcam)
{
    TcamModel tcam(TcamConfig{});
    SramTcam sram(SramTcam::Config{});
    for (unsigned i = 0; i < 32; ++i) {
        const FlowRule r = ruleFor(i << 16, 16,
                                   static_cast<std::uint16_t>(i), 3);
        tcam.addRule(r);
        sram.addRule(r);
    }
    for (unsigned i = 0; i < 32; ++i) {
        FiveTuple t;
        t.dstIp = (i << 16) | 0x1234;
        const auto a = tcam.lookup(t.toKey());
        const auto b = sram.lookup(t.toKey());
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(a->action.port, b->action.port);
        }
    }
}

TEST(Power, Table4CalibrationPointsExact)
{
    // The model must reproduce the paper's Table 4 rows exactly at the
    // calibration capacities.
    const PowerArea kb1 = tcamPowerArea(1 << 10);
    EXPECT_NEAR(kb1.areaTiles, 0.001, 1e-9);
    EXPECT_NEAR(kb1.staticMw, 71.1, 1e-6);
    EXPECT_NEAR(kb1.dynamicNjPerQuery, 0.04, 1e-9);

    const PowerArea mb1 = tcamPowerArea(1 << 20);
    EXPECT_NEAR(mb1.areaTiles, 9.343, 1e-6);
    EXPECT_NEAR(mb1.staticMw, 26733.1, 1e-3);
    EXPECT_NEAR(mb1.dynamicNjPerQuery, 84.82, 1e-6);
}

TEST(Power, TcamScalesMonotonically)
{
    double prev_area = 0, prev_power = 0;
    for (std::uint64_t cap = 1 << 10; cap <= (4u << 20); cap *= 2) {
        const PowerArea pa = tcamPowerArea(cap);
        EXPECT_GT(pa.areaTiles, prev_area);
        EXPECT_GT(pa.staticMw, prev_power);
        prev_area = pa.areaTiles;
        prev_power = pa.staticMw;
    }
}

TEST(Power, SramTcamCheaperThanTcam)
{
    for (std::uint64_t cap : {1u << 12, 1u << 16, 1u << 20}) {
        const PowerArea t = tcamPowerArea(cap);
        const PowerArea s = sramTcamPowerArea(cap);
        EXPECT_NEAR(s.areaTiles, t.areaTiles * 0.43, 1e-9);
        EXPECT_NEAR(s.staticMw, t.staticMw * 0.55, 1e-6);
        EXPECT_LT(s.dynamicNjPerQuery, t.dynamicNjPerQuery);
    }
}

TEST(Power, HaloHeadlineNumbers)
{
    const PowerArea halo = haloAcceleratorPowerArea();
    EXPECT_NEAR(halo.areaTiles, 0.012, 1e-9);
    EXPECT_NEAR(halo.staticMw, 97.2, 1e-6);
    EXPECT_NEAR(halo.dynamicNjPerQuery, 1.76, 1e-9);

    // The paper's 48.2x energy-efficiency headline vs the 1 MB TCAM.
    const double ratio =
        dynamicEfficiencyRatio(tcamPowerArea(1 << 20), halo);
    EXPECT_NEAR(ratio, 48.2, 0.3);
}

TEST(Power, ComplexScalesWithAccelerators)
{
    const PowerArea one = haloAcceleratorPowerArea();
    const PowerArea sixteen = haloComplexPowerArea(16);
    EXPECT_NEAR(sixteen.areaTiles, one.areaTiles * 16, 1e-9);
    EXPECT_NEAR(sixteen.staticMw, one.staticMw * 16, 1e-6);
    // Dynamic energy is per query, not per accelerator.
    EXPECT_NEAR(sixteen.dynamicNjPerQuery, one.dynamicNjPerQuery, 1e-9);
}

TEST(Power, EnergyPerQueryIncludesLeakage)
{
    const PowerArea halo = haloAcceleratorPowerArea();
    const double at_1mqps = energyPerQueryNj(halo, 1e6);
    const double at_100mqps = energyPerQueryNj(halo, 1e8);
    EXPECT_GT(at_1mqps, at_100mqps);
    EXPECT_GT(at_100mqps, halo.dynamicNjPerQuery);
}

} // namespace
} // namespace halo

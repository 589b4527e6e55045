/**
 * @file
 * Unit and calibration tests for the full memory hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace halo {
namespace {

TEST(Hierarchy, L1HitAfterFirstAccess)
{
    MemoryHierarchy h;
    const AccessResult miss = h.coreAccess(0, 0x10000, false);
    EXPECT_EQ(miss.level, MemLevel::DRAM);
    const AccessResult hit = h.coreAccess(0, 0x10000, false);
    EXPECT_EQ(hit.level, MemLevel::L1);
    EXPECT_EQ(hit.latency, h.config().l1Latency);
}

TEST(Hierarchy, LevelsAreProgressivelySlower)
{
    MemoryHierarchy h;
    const Cycles l1 = h.config().l1Latency;
    h.coreAccess(0, 0x20000, false); // DRAM fill
    const Cycles dram =
        h.coreAccess(0, 0x30000, false).latency; // fresh DRAM
    const Cycles l1_hit = h.coreAccess(0, 0x20000, false).latency;
    EXPECT_EQ(l1_hit, l1);
    EXPECT_GT(dram, 150u);
}

TEST(Hierarchy, LlcHitAfterWarm)
{
    MemoryHierarchy h;
    h.warmLine(0x40000);
    const AccessResult r = h.coreAccess(0, 0x40000, false);
    EXPECT_EQ(r.level, MemLevel::LLC);
    EXPECT_GT(r.latency, h.config().l2Latency);
    EXPECT_LT(r.latency, 150u);
}

TEST(Hierarchy, SliceHashIsStableAndUniform)
{
    MemoryHierarchy h;
    std::vector<unsigned> counts(h.config().llcSlices, 0);
    for (Addr a = 0; a < 16384; ++a) {
        const SliceId s = h.sliceOf(a * cacheLineBytes);
        ASSERT_LT(s, h.config().llcSlices);
        ASSERT_EQ(s, h.sliceOf(a * cacheLineBytes + 13));
        ++counts[s];
    }
    for (unsigned c : counts) {
        EXPECT_GT(c, 16384u / 16 / 2);
        EXPECT_LT(c, 16384u / 16 * 2);
    }
}

TEST(Hierarchy, RemoteDirtyLineForwarded)
{
    MemoryHierarchy h;
    h.coreAccess(0, 0x50000, true); // core 0 dirties the line
    const AccessResult r = h.coreAccess(1, 0x50000, false);
    EXPECT_EQ(r.level, MemLevel::RemoteCache);
    EXPECT_GT(r.latency, h.config().remoteSnoopPenalty);
    // Core 0 lost its copy (MSI-style invalidate-on-forward).
    EXPECT_FALSE(h.l1(0).contains(0x50000));
}

TEST(Hierarchy, InclusionBackInvalidatesPrivateCaches)
{
    HierarchyConfig cfg;
    cfg.llcSlices = 1;
    cfg.llcSliceBytes = 4096; // tiny LLC: 64 lines, 16-way, 4 sets
    cfg.cores = 1;
    MemoryHierarchy h(cfg);
    h.coreAccess(0, 0, false);
    EXPECT_TRUE(h.l1(0).contains(0));
    // Evict line 0 from the LLC by filling its set.
    for (Addr i = 1; i <= 16; ++i)
        h.coreAccess(0, i * 4 * 64 * 4, false);
    // The LLC eviction must have purged L1/L2 too (inclusion);
    // line 0 may or may not be evicted depending on set mapping, so
    // check the invariant for every line: present in L1 => present in
    // LLC.
    for (Addr i = 0; i <= 16; ++i) {
        const Addr a = i * 4 * 64 * 4;
        if (h.l1(0).contains(a)) {
            EXPECT_TRUE(h.llcSlice(h.sliceOf(a)).contains(a));
        }
    }
    EXPECT_GT(h.stats().counterValue("back_invalidations"), 0u);
}

TEST(Hierarchy, ChaAccessFasterThanCoreAccess)
{
    MemoryHierarchy h;
    // Warm a set of lines into the LLC, then compare average access
    // latency from a core against a CHA (paper Fig. 10: ~4.1x).
    std::uint64_t core_total = 0, cha_total = 0;
    const unsigned n = 512;
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x100000 + static_cast<Addr>(i) * 64;
        h.warmLine(a);
        cha_total += h.chaAccess(i % 16, a, false).latency;
    }
    h.flushAll();
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x100000 + static_cast<Addr>(i) * 64;
        h.warmLine(a);
        core_total += h.coreAccess(0, a, false).latency;
        h.l1(0).invalidate(a);
        h.l2(0).invalidate(a);
    }
    const double ratio = static_cast<double>(core_total) /
                         static_cast<double>(cha_total);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.5);
}

TEST(Hierarchy, ChaDramAccessFasterThanCoreDramAccess)
{
    MemoryHierarchy h;
    std::uint64_t core_total = 0, cha_total = 0;
    const unsigned n = 256;
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x4000000 + static_cast<Addr>(i) * 8192;
        core_total += h.coreAccess(0, a, false).latency;
    }
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = 0x8000000 + static_cast<Addr>(i) * 8192;
        cha_total += h.chaAccess(i % 16, a, false).latency;
    }
    const double ratio = static_cast<double>(core_total) /
                         static_cast<double>(cha_total);
    EXPECT_GT(ratio, 1.3); // paper reports 1.6x
    EXPECT_LT(ratio, 2.2);
}

TEST(Hierarchy, LockBlocksWritesWithPenalty)
{
    MemoryHierarchy h;
    h.warmLine(0x60000);
    EXPECT_TRUE(h.lockLine(0, 0x60000));
    EXPECT_TRUE(h.isLineLocked(0x60000));
    // Locking an already-locked line fails.
    EXPECT_FALSE(h.lockLine(1, 0x60000));

    const Cycles locked_write = h.coreAccess(0, 0x60000, true).latency;
    h.flushAll();
    h.warmLine(0x60000);
    const Cycles unlocked_write =
        h.coreAccess(0, 0x60000, true).latency;
    EXPECT_EQ(locked_write,
              unlocked_write + h.config().lockRetryPenalty);
    EXPECT_EQ(h.stats().counterValue("lock_retries"), 1u);

    h.unlockLine(0x60000);
    EXPECT_FALSE(h.isLineLocked(0x60000));
}

TEST(Hierarchy, LockLineFillsAbsentLine)
{
    MemoryHierarchy h;
    EXPECT_FALSE(h.llcSlice(h.sliceOf(0x70000)).contains(0x70000));
    EXPECT_TRUE(h.lockLine(0, 0x70000));
    EXPECT_TRUE(h.llcSlice(h.sliceOf(0x70000)).contains(0x70000));
    h.unlockLine(0x70000);
}

TEST(Hierarchy, MeshHopsAreSymmetricAndBounded)
{
    MemoryHierarchy h;
    for (unsigned a = 0; a < 16; ++a) {
        for (unsigned b = 0; b < 16; ++b) {
            EXPECT_EQ(h.sliceSliceHops(a, b), h.sliceSliceHops(b, a));
            EXPECT_LE(h.sliceSliceHops(a, b), 6u); // 4x4 mesh diameter
        }
        EXPECT_EQ(h.sliceSliceHops(a, a), 0u);
    }
}

TEST(Hierarchy, ChaAccessSnoopsDirtyPrivateCopies)
{
    MemoryHierarchy h;
    h.coreAccess(3, 0x90000, true); // dirty in core 3's L1
    const AccessResult r = h.chaAccess(0, 0x90000, false);
    EXPECT_EQ(r.level, MemLevel::RemoteCache);
    EXPECT_FALSE(h.l1(3).contains(0x90000));
}

} // namespace
} // namespace halo

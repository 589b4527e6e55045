/**
 * @file
 * Unit tests for the HALO accelerator, distributor, and system façade.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/halo_system.hh"
#include "hash/cuckoo_table.hh"
#include "sim/random.hh"

namespace halo {
namespace {

struct Rig
{
    SimMemory mem{512ull << 20};
    MemoryHierarchy hier;
    HaloSystem halo{mem, hier};

    CuckooHashTable
    makeTable(std::uint64_t capacity, std::uint64_t seed = 5)
    {
        return CuckooHashTable(
            mem, {16, capacity, HashKind::XxMix, seed, 0.95});
    }

    Addr
    stageKey(const std::vector<std::uint8_t> &key)
    {
        static Addr slot = 0;
        if (slot == 0)
            slot = mem.allocate(64 * cacheLineBytes, cacheLineBytes);
        const Addr a = slot;
        mem.write(a, key.data(), key.size());
        hier.warmLine(a);
        return a;
    }
};

std::vector<std::uint8_t>
makeKey(std::uint64_t id)
{
    std::vector<std::uint8_t> key(16, 0);
    std::memcpy(key.data(), &id, 8);
    return key;
}

TEST(Accelerator, FunctionalLookupMatchesSoftware)
{
    Rig rig;
    auto table = rig.makeTable(4096);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto key = makeKey(i);
        ASSERT_TRUE(table.insert(KeyView(key), i * 3 + 1));
    }
    // Every present key is found with the right value; absent keys miss.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto key = makeKey(i);
        const QueryResult r = rig.halo.rawQuery(
            0, table.metadataAddr(), rig.stageKey(key), 0);
        ASSERT_TRUE(r.found) << "key " << i;
        EXPECT_EQ(r.value, i * 3 + 1);
    }
    for (std::uint64_t i = 2000; i < 2100; ++i) {
        const auto key = makeKey(i);
        const QueryResult r = rig.halo.rawQuery(
            0, table.metadataAddr(), rig.stageKey(key), 0);
        EXPECT_FALSE(r.found);
    }
}

/**
 * On a negative-filter (Cuckoo++) table a bucket entry's top byte is
 * aux, not signature. A hit found in the primary bucket must not probe
 * the alternate: the accelerator probes a second bucket exactly for
 * the keys the software lookup finds there, in both layouts.
 */
TEST(Accelerator, SecondBucketProbesMatchSoftwareInBothLayouts)
{
    for (const bool filtered : {false, true}) {
        Rig rig;
        CuckooHashTable table(
            rig.mem, {16, 4096, HashKind::XxMix, 5, 0.95, filtered});
        const std::uint64_t keys = 4000; // some land in the alternate
        for (std::uint64_t i = 0; i < keys; ++i)
            ASSERT_TRUE(table.insert(KeyView(makeKey(i)), i + 1));

        const TableMetadata &md = table.metadata();
        const Addr buckets_end =
            md.bucketArrayAddr + md.numBuckets * cacheLineBytes;
        std::uint64_t software_two_bucket = 0;
        for (std::uint64_t i = 0; i < keys; ++i) {
            const auto key = makeKey(i);
            AccessTrace trace;
            ASSERT_TRUE(table.lookup(KeyView(key), &trace).has_value());
            const auto bucket_lines = std::count_if(
                trace.begin(), trace.end(), [&](const MemRef &r) {
                    return !r.write && r.addr >= md.bucketArrayAddr &&
                           r.addr < buckets_end;
                });
            software_two_bucket += bucket_lines > 1 ? 1 : 0;

            const QueryResult r = rig.halo.rawQuery(
                0, table.metadataAddr(), rig.stageKey(key), 0);
            ASSERT_TRUE(r.found) << "key " << i << " filtered " << filtered;
            EXPECT_EQ(r.value, i + 1);
        }
        std::uint64_t second_bucket_probes = 0;
        for (unsigned a = 0; a < rig.halo.numAccelerators(); ++a)
            second_bucket_probes += rig.halo.accelerator(a)
                                        .stats()
                                        .counter("second_bucket_probes")
                                        .value();
        EXPECT_GT(software_two_bucket, 0u);
        EXPECT_EQ(second_bucket_probes, software_two_bucket)
            << "filtered " << filtered;
    }
}

TEST(Accelerator, MetadataCacheHitsAfterFirstQuery)
{
    Rig rig;
    auto table = rig.makeTable(256);
    const auto key = makeKey(1);
    table.insert(KeyView(key), 7);
    const Addr key_addr = rig.stageKey(key);

    const SliceId target =
        rig.halo.distributor().route(table.metadataAddr(), key_addr);
    auto &acc = rig.halo.accelerator(target);
    rig.halo.rawQuery(0, table.metadataAddr(), key_addr, 0);
    EXPECT_EQ(acc.stats().counterValue("metadata_misses"), 1u);
    rig.halo.rawQuery(0, table.metadataAddr(), key_addr, 1000);
    EXPECT_EQ(acc.stats().counterValue("metadata_misses"), 1u);
    EXPECT_GE(acc.stats().counterValue("metadata_hits"), 1u);
}

TEST(Accelerator, MetadataCacheEvictsBeyondTenTables)
{
    Rig rig;
    std::vector<CuckooHashTable> tables;
    tables.reserve(24);
    for (int t = 0; t < 24; ++t)
        tables.push_back(rig.makeTable(64, 100 + t));
    const auto key = makeKey(1);
    const Addr key_addr = rig.stageKey(key);

    // Force all tables onto one accelerator by querying it directly.
    auto &acc = rig.halo.accelerator(0);
    for (auto &t : tables)
        acc.execute(t.metadataAddr(), key_addr, 0);
    const auto misses_first =
        acc.stats().counterValue("metadata_misses");
    EXPECT_EQ(misses_first, 24u);
    // Re-touch the first table: with only 10 entries it must have been
    // evicted.
    acc.execute(tables.front().metadataAddr(), key_addr, 0);
    EXPECT_EQ(acc.stats().counterValue("metadata_misses"), 25u);
}

TEST(Accelerator, InvalidateMetadataForcesRefetch)
{
    Rig rig;
    auto table = rig.makeTable(256);
    const auto key = makeKey(2);
    table.insert(KeyView(key), 1);
    const Addr key_addr = rig.stageKey(key);
    auto &acc = rig.halo.accelerator(3);
    acc.execute(table.metadataAddr(), key_addr, 0);
    acc.invalidateMetadata(table.metadataAddr());
    acc.execute(table.metadataAddr(), key_addr, 0);
    EXPECT_EQ(acc.stats().counterValue("metadata_misses"), 2u);
}

TEST(Accelerator, QueryAgainstGarbageAddressPanics)
{
    Rig rig;
    const Addr bogus = rig.mem.allocate(64);
    const auto key = makeKey(1);
    EXPECT_THROW(rig.halo.rawQuery(0, bogus, rig.stageKey(key), 0),
                 PanicError);
}

TEST(Accelerator, ScoreboardProvidesBackpressure)
{
    Rig rig;
    auto table = rig.makeTable(4096);
    for (std::uint64_t i = 0; i < 100; ++i) {
        const auto key = makeKey(i);
        table.insert(KeyView(key), i);
    }
    auto &acc = rig.halo.accelerator(0);
    // Saturate the scoreboard with same-cycle arrivals.
    Cycles last_accept = 0;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const auto key = makeKey(i % 100);
        const QueryResult r =
            acc.execute(table.metadataAddr(), rig.stageKey(key), 0);
        last_accept = std::max(last_accept, r.accepted);
    }
    // With a 10-deep scoreboard, the 40th same-cycle query cannot be
    // accepted at time 0.
    EXPECT_GT(last_accept, 0u);
}

TEST(Accelerator, EngineSerializesQueries)
{
    Rig rig;
    auto table = rig.makeTable(256);
    const auto key = makeKey(3);
    table.insert(KeyView(key), 1);
    const Addr key_addr = rig.stageKey(key);
    auto &acc = rig.halo.accelerator(1);
    const QueryResult a = acc.execute(table.metadataAddr(), key_addr, 0);
    const QueryResult b = acc.execute(table.metadataAddr(), key_addr, 0);
    EXPECT_GE(b.finished, a.finished);
    EXPECT_GT(b.breakdown.queueing, 0u);
}

TEST(Accelerator, LocksAreReleasedAfterQuery)
{
    Rig rig;
    auto table = rig.makeTable(256);
    const auto key = makeKey(4);
    table.insert(KeyView(key), 1);
    rig.halo.rawQuery(0, table.metadataAddr(), rig.stageKey(key), 0);
    // No line of the table may remain locked.
    table.forEachLine([&](Addr a) {
        EXPECT_FALSE(rig.hier.isLineLocked(a));
    });
}

TEST(Accelerator, BreakdownPhasesArePopulated)
{
    Rig rig;
    auto table = rig.makeTable(256);
    const auto key = makeKey(5);
    table.insert(KeyView(key), 1);
    table.forEachLine([&](Addr a) { rig.hier.warmLine(a); });
    // Query the accelerator directly with arrival 0 so the breakdown
    // must account for every cycle up to completion.
    const QueryResult r = rig.halo.accelerator(2).execute(
        table.metadataAddr(), rig.stageKey(key), 0);
    EXPECT_TRUE(r.found);
    EXPECT_GT(r.breakdown.compute, 0u);
    EXPECT_GT(r.breakdown.dataAccess, 0u);
    EXPECT_GT(r.breakdown.keyFetch, 0u);
    EXPECT_GT(r.breakdown.locking, 0u);
    EXPECT_EQ(r.finished, r.breakdown.total());
}

TEST(Accelerator, HardwareLockCanBeDisabled)
{
    Rig rig;
    HaloConfig cfg;
    cfg.useHardwareLock = false;
    HaloSystem halo(rig.mem, rig.hier, cfg);
    auto table = rig.makeTable(256);
    const auto key = makeKey(6);
    table.insert(KeyView(key), 1);
    const QueryResult r =
        halo.rawQuery(0, table.metadataAddr(), rig.stageKey(key), 0);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.breakdown.locking, 0u);
}

TEST(Distributor, TableHashIsStable)
{
    QueryDistributor d(16, DispatchPolicy::TableHash);
    const SliceId s1 = d.route(0x1000, 0x2000);
    const SliceId s2 = d.route(0x1000, 0x9999);
    EXPECT_EQ(s1, s2); // key address irrelevant under TableHash
    EXPECT_LT(s1, 16u);
}

TEST(Distributor, PoliciesSpreadLoad)
{
    for (const auto policy :
         {DispatchPolicy::TableHash, DispatchPolicy::KeyHash,
          DispatchPolicy::RoundRobin}) {
        QueryDistributor d(16, policy);
        std::vector<unsigned> counts(16, 0);
        for (std::uint64_t i = 0; i < 1600; ++i)
            ++counts[d.route(0x1000 + i * 640, 0x2000 + i * 64)];
        unsigned used = 0;
        for (unsigned c : counts)
            used += c > 0 ? 1 : 0;
        EXPECT_GE(used, 12u) << "policy "
                             << static_cast<int>(policy);
    }
}

TEST(HaloSystem, TransferLatencyGrowsWithDistance)
{
    Rig rig;
    // Core 0 sits at tile 0; slice 15 is across the mesh.
    EXPECT_GT(rig.halo.transferLatency(0, 15),
              rig.halo.transferLatency(0, 0));
}

TEST(HaloSystem, FlowRegisterSeesQueries)
{
    Rig rig;
    auto table = rig.makeTable(4096);
    for (std::uint64_t i = 0; i < 600; ++i) {
        const auto key = makeKey(i);
        table.insert(KeyView(key), i);
    }
    Xoshiro256 rng(4);
    for (int i = 0; i < 2000; ++i) {
        const auto key = makeKey(rng.nextBounded(600));
        rig.halo.rawQuery(0, table.metadataAddr(), rig.stageKey(key),
                          static_cast<Cycles>(i) * 100);
    }
    // 600 active flows >> 64 threshold: hybrid stays in HALO mode.
    EXPECT_EQ(rig.halo.hybrid().mode(), ComputeMode::Halo);
    EXPECT_GT(rig.halo.totalQueries(), 0u);
}

} // namespace
} // namespace halo

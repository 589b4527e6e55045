/**
 * @file
 * Unit and property tests for the cuckoo hash table.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hash/cuckoo_table.hh"
#include "sim/random.hh"

namespace halo {
namespace {

std::vector<std::uint8_t>
makeKey(std::uint64_t id, std::uint32_t len = 16)
{
    std::vector<std::uint8_t> key(len, 0);
    std::memcpy(key.data(), &id, sizeof(id));
    key[len - 1] = static_cast<std::uint8_t>(id >> 56) ^ 0x5a;
    return key;
}

TEST(Cuckoo, InsertLookupRoundTrip)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 1024, HashKind::XxMix, 1, 0.95});
    for (std::uint64_t i = 0; i < 100; ++i) {
        const auto key = makeKey(i);
        ASSERT_TRUE(t.insert(KeyView(key), i * 10 + 1));
    }
    EXPECT_EQ(t.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        const auto key = makeKey(i);
        const auto v = t.lookup(KeyView(key));
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i * 10 + 1);
    }
}

TEST(Cuckoo, MissingKeyNotFound)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 64, HashKind::XxMix, 2, 0.95});
    const auto key = makeKey(1);
    t.insert(KeyView(key), 5);
    const auto other = makeKey(999);
    EXPECT_FALSE(t.lookup(KeyView(other)).has_value());
}

TEST(Cuckoo, UpdateInPlace)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 64, HashKind::XxMix, 3, 0.95});
    const auto key = makeKey(7);
    t.insert(KeyView(key), 1);
    t.insert(KeyView(key), 2);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(*t.lookup(KeyView(key)), 2u);
}

TEST(Cuckoo, EraseRemovesAndFreesSlot)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 64, HashKind::XxMix, 4, 0.95});
    const auto key = makeKey(11);
    t.insert(KeyView(key), 3);
    EXPECT_TRUE(t.erase(KeyView(key)));
    EXPECT_FALSE(t.lookup(KeyView(key)).has_value());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.erase(KeyView(key)));
    // The slot can be reused.
    for (std::uint64_t i = 0; i < 64; ++i) {
        const auto k = makeKey(i + 100);
        ASSERT_TRUE(t.insert(KeyView(k), i));
    }
}

/**
 * Erase interleaved with displacement churn near the load-factor
 * ceiling: keys erased mid-sequence must stay gone, survivors must
 * stay findable with their latest value even after cuckoo moves
 * relocate them, and freed slots must admit new keys.
 */
TEST(Cuckoo, EraseInterleavedWithDisplacementAtHighLoad)
{
    SimMemory mem(64 << 20);
    const std::uint64_t capacity = 30000;
    CuckooHashTable t(mem, {16, capacity, HashKind::XxMix, 15, 0.95});
    std::map<std::uint64_t, std::uint64_t> ref;

    // Fill to the ceiling so every later insert displaces.
    for (std::uint64_t i = 0; i < capacity; ++i)
        if (t.insert(KeyView(makeKey(i)), i + 1))
            ref[i] = i + 1;
    const std::uint64_t movesAfterFill = t.cuckooMoves();
    ASSERT_GT(movesAfterFill, 0u);

    // Waves of erase-then-insert at full occupancy: each wave frees a
    // pseudo-random cohort, then inserts fresh keys into the holes.
    Xoshiro256 rng(0xe7a5e);
    std::uint64_t next_id = capacity;
    for (int wave = 0; wave < 8; ++wave) {
        std::vector<std::uint64_t> victims;
        for (const auto &[id, val] : ref)
            if ((rng.next() & 7) == 0)
                victims.push_back(id);
        for (const std::uint64_t id : victims) {
            ASSERT_TRUE(t.erase(KeyView(makeKey(id))));
            EXPECT_FALSE(t.erase(KeyView(makeKey(id)))); // idempotent
            ref.erase(id);
        }
        for (std::size_t n = 0; n < victims.size(); ++n) {
            const std::uint64_t id = next_id++;
            if (t.insert(KeyView(makeKey(id)), id + 1))
                ref[id] = id + 1;
        }
    }
    EXPECT_GT(t.cuckooMoves(), movesAfterFill)
        << "waves never displaced: load too low to stress erase";

    // No lost, resurrected, or corrupted entries.
    EXPECT_EQ(t.size(), ref.size());
    for (const auto &[id, val] : ref) {
        const auto got = t.lookup(KeyView(makeKey(id)));
        ASSERT_TRUE(got.has_value()) << "lost key " << id;
        EXPECT_EQ(*got, val);
    }
    for (std::uint64_t id = 0; id < capacity; ++id) {
        if (!ref.count(id)) {
            ASSERT_FALSE(t.lookup(KeyView(makeKey(id))).has_value())
                << "resurrected key " << id;
        }
    }
}

/**
 * Tracing is observation only: an identical op sequence (with erase)
 * against a traced and an untraced table must produce identical
 * return values and identical final table state. Erase traces must
 * record writes (version bumps + slot clear).
 */
TEST(Cuckoo, ErasedTracedMatchesUntraced)
{
    SimMemory mem_a(32 << 20), mem_b(32 << 20);
    const CuckooHashTable::Config cfg{16, 512, HashKind::XxMix, 16,
                                      0.95};
    CuckooHashTable traced(mem_a, cfg), plain(mem_b, cfg);

    Xoshiro256 rng(0x7ace);
    bool sawEraseWrites = false;
    for (int op = 0; op < 3000; ++op) {
        const auto key = makeKey(rng.nextBounded(300));
        const int what = static_cast<int>(rng.nextBounded(10));
        AccessTrace trace;
        if (what < 5) {
            const std::uint64_t val = rng.next() | 1;
            ASSERT_EQ(traced.insert(KeyView(key), val, &trace),
                      plain.insert(KeyView(key), val));
        } else if (what < 8) {
            const bool erased = traced.erase(KeyView(key), &trace);
            ASSERT_EQ(erased, plain.erase(KeyView(key)));
            if (erased) {
                unsigned writes = 0;
                for (const MemRef &ref : trace)
                    writes += ref.write ? 1 : 0;
                EXPECT_GE(writes, 3u); // version bump x2 + slot clear
                sawEraseWrites = true;
            } else {
                for (const MemRef &ref : trace)
                    EXPECT_FALSE(ref.write); // miss mutates nothing
            }
        } else {
            ASSERT_EQ(traced.lookup(KeyView(key), &trace),
                      plain.lookup(KeyView(key)));
        }
    }
    EXPECT_TRUE(sawEraseWrites);
    EXPECT_EQ(traced.size(), plain.size());
    for (std::uint64_t id = 0; id < 300; ++id) {
        const auto key = makeKey(id);
        ASSERT_EQ(traced.lookup(KeyView(key)),
                  plain.lookup(KeyView(key)));
    }
}

TEST(Cuckoo, FillsToHighOccupancyViaDisplacement)
{
    SimMemory mem(64 << 20);
    // Chosen so the power-of-two bucket array is nearly full at 95%:
    // 30000/0.95 entries round up to 4096 buckets = 32768 slots.
    const std::uint64_t capacity = 30000;
    CuckooHashTable t(mem, {16, capacity, HashKind::XxMix, 5, 0.95});
    std::uint64_t inserted = 0;
    for (std::uint64_t i = 0; i < capacity; ++i) {
        const auto key = makeKey(i);
        if (t.insert(KeyView(key), i))
            ++inserted;
    }
    // The paper quotes ~95% utilization for cuckoo hashing.
    EXPECT_GT(static_cast<double>(inserted) /
                  static_cast<double>(capacity),
              0.97);
    EXPECT_GT(t.loadFactor(), 0.80);
    EXPECT_GT(t.cuckooMoves(), 0u);
    // Everything inserted must still be findable (no lost entries).
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; i < capacity; ++i) {
        const auto key = makeKey(i);
        if (t.lookup(KeyView(key)).has_value())
            ++found;
    }
    EXPECT_EQ(found, inserted);
}

TEST(Cuckoo, LookupTraceShape)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 256, HashKind::XxMix, 6, 0.95});
    const auto key = makeKey(21);
    t.insert(KeyView(key), 9);

    AccessTrace trace;
    ASSERT_TRUE(t.lookup(KeyView(key), &trace).has_value());

    // Metadata first, then version lock, key fetch, bucket(s), kv.
    ASSERT_GE(trace.size(), 5u);
    EXPECT_EQ(trace[0].phase, AccessPhase::Metadata);
    EXPECT_EQ(trace[1].phase, AccessPhase::Lock);
    EXPECT_EQ(trace[2].phase, AccessPhase::KeyFetch);
    unsigned buckets = 0, kvs = 0, locks = 0;
    for (const MemRef &ref : trace) {
        EXPECT_FALSE(ref.write);
        buckets += ref.phase == AccessPhase::Bucket ? 1 : 0;
        kvs += ref.phase == AccessPhase::KeyValue ? 1 : 0;
        locks += ref.phase == AccessPhase::Lock ? 1 : 0;
    }
    EXPECT_GE(buckets, 1u);
    EXPECT_LE(buckets, 2u);
    EXPECT_GE(kvs, 1u);
    EXPECT_EQ(locks, 2u); // optimistic-lock sample + re-validate
}

TEST(Cuckoo, InsertTraceContainsWrites)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 256, HashKind::XxMix, 7, 0.95});
    const auto key = makeKey(33);
    AccessTrace trace;
    ASSERT_TRUE(t.insert(KeyView(key), 4, &trace));
    unsigned writes = 0;
    for (const MemRef &ref : trace)
        writes += ref.write ? 1 : 0;
    EXPECT_GE(writes, 3u); // version bump x2 + entry + kv
}

TEST(Cuckoo, VersionCounterAdvancesOnWrites)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 64, HashKind::XxMix, 8, 0.95});
    const Addr ver = t.versionAddr();
    EXPECT_EQ(mem.load<std::uint64_t>(ver), 0u);
    const auto key = makeKey(3);
    t.insert(KeyView(key), 1);
    const std::uint64_t after_insert = mem.load<std::uint64_t>(ver);
    EXPECT_GE(after_insert, 2u); // pre+post bump
    EXPECT_EQ(after_insert % 2, 0u); // readers see even = stable
    t.erase(KeyView(key));
    EXPECT_GT(mem.load<std::uint64_t>(ver), after_insert);
}

TEST(Cuckoo, MetadataSelfDescribing)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {24, 512, HashKind::Jenkins, 9, 0.95});
    const auto md = mem.load<TableMetadata>(t.metadataAddr());
    EXPECT_EQ(md.magic, tableMagic);
    EXPECT_EQ(md.keyLen, 24u);
    EXPECT_EQ(md.hashKind,
              static_cast<std::uint32_t>(HashKind::Jenkins));
    EXPECT_TRUE(isPowerOfTwo(md.numBuckets));
    EXPECT_EQ(md.bucketMask, md.numBuckets - 1);
    EXPECT_EQ(md.kvSlotBytes, kvSlotBytesFor(24));
}

TEST(Cuckoo, RejectsWrongKeyLength)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 64, HashKind::XxMix, 10, 0.95});
    const auto key = makeKey(1, 8);
    EXPECT_THROW(t.lookup(KeyView(key)), PanicError);
}

TEST(Cuckoo, ForEachLineCoversFootprint)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 1024, HashKind::XxMix, 11, 0.95});
    std::uint64_t lines = 0;
    t.forEachLine([&](Addr a) {
        EXPECT_TRUE(isLineAligned(a));
        ++lines;
    });
    EXPECT_GE(lines * cacheLineBytes, t.footprintBytes());
}

/** Property sweep: round-trip across key lengths and hash kinds. */
class CuckooParam
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, HashKind>>
{
};

TEST_P(CuckooParam, RandomOpsMatchReferenceMap)
{
    const auto [key_len, kind] = GetParam();
    SimMemory mem(64 << 20);
    CuckooHashTable t(mem, {key_len, 4096, kind, 12, 0.95});
    std::map<std::uint64_t, std::uint64_t> ref;
    Xoshiro256 rng(key_len * 7919 + static_cast<unsigned>(kind));

    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t id = rng.nextBounded(800);
        const auto key = makeKey(id, key_len);
        const int what = static_cast<int>(rng.nextBounded(10));
        if (what < 6) {
            const std::uint64_t val = rng.next() | 1;
            if (t.insert(KeyView(key), val))
                ref[id] = val;
        } else if (what < 8) {
            const bool erased = t.erase(KeyView(key));
            EXPECT_EQ(erased, ref.erase(id) > 0);
        } else {
            const auto got = t.lookup(KeyView(key));
            const auto it = ref.find(id);
            if (it == ref.end()) {
                EXPECT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, it->second);
            }
        }
    }
    EXPECT_EQ(t.size(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(
    KeyLenAndKind, CuckooParam,
    ::testing::Combine(::testing::Values(8u, 13u, 16u, 32u, 64u),
                       ::testing::Values(HashKind::Crc32c,
                                         HashKind::Jenkins,
                                         HashKind::XxMix)));

/** The pipelined bulk lookup must agree with the scalar path on
 *  values and hit mask. */
TEST(Cuckoo, BulkLookupMatchesScalar)
{
    SimMemory mem(64 << 20);
    // Small table: low-entropy bucket indices and forced alternates.
    for (const std::uint64_t capacity : {64ull, 4096ull}) {
        CuckooHashTable t(mem,
                          {16, capacity, HashKind::XxMix, 13, 0.95});
        const std::uint64_t present = capacity / 2;
        for (std::uint64_t i = 0; i < present; ++i)
            ASSERT_TRUE(t.insert(KeyView(makeKey(i)), i + 1));

        // Alternate hits and misses across a full 32-lane batch.
        std::vector<std::vector<std::uint8_t>> keys;
        for (std::uint64_t i = 0; i < maxBulkLanes; ++i)
            keys.push_back(makeKey(i % 2 ? i : i + 100000));

        std::array<const std::uint8_t *, maxBulkLanes> key_ptrs;
        std::array<std::uint64_t, maxBulkLanes> values{};
        for (std::size_t i = 0; i < maxBulkLanes; ++i)
            key_ptrs[i] = keys[i].data();

        const std::uint32_t mask = t.lookupUntracedBulk(
            key_ptrs.data(), maxBulkLanes, values.data());

        for (std::size_t i = 0; i < maxBulkLanes; ++i) {
            const auto scalar = t.lookup(KeyView(keys[i]));
            EXPECT_EQ((mask >> i) & 1u, scalar.has_value() ? 1u : 0u)
                << "lane " << i;
            if (scalar) {
                EXPECT_EQ(values[i], *scalar) << "lane " << i;
            }
        }
    }
}

TEST(Cuckoo, BulkLookupPartialBatch)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 1024, HashKind::XxMix, 14, 0.95});
    for (std::uint64_t i = 0; i < 200; ++i)
        ASSERT_TRUE(t.insert(KeyView(makeKey(i)), i * 3 + 1));

    const auto k0 = makeKey(5), k1 = makeKey(999999), k2 = makeKey(42);
    const std::uint8_t *key_ptrs[3] = {k0.data(), k1.data(), k2.data()};
    std::uint64_t values[3] = {0, 0, 0};
    const std::uint32_t mask =
        t.lookupUntracedBulk(key_ptrs, 3, values);
    EXPECT_EQ(mask, 0b101u);
    EXPECT_EQ(values[0], 5u * 3 + 1);
    EXPECT_EQ(values[1], 0u); // miss lane untouched
    EXPECT_EQ(values[2], 42u * 3 + 1);
}

} // namespace
} // namespace halo

/**
 * @file
 * Tests for the cuckoo table's Cuckoo++ negative filter (DESIGN.md
 * §13): a Bloom of displaced signatures packed into the bucket line's
 * aux bytes.
 *
 * The filter is a pure lookup accelerator, so the load-bearing
 * properties are (a) the table returns exactly what the unfiltered
 * table returns for any operation sequence, (b) traced and untraced
 * lookups agree, scalar and bulk agree, and (c) the traced reference
 * streams actually show the access-count win it claims: miss
 * termination after one bucket read without a key-value probe.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "hash/cuckoo_table.hh"
#include "mem/sim_memory.hh"
#include "sim/random.hh"

namespace halo {
namespace {

constexpr std::uint32_t keyLen = 16;

std::array<std::uint8_t, keyLen>
keyForId(std::uint64_t id)
{
    std::array<std::uint8_t, keyLen> key{};
    std::memcpy(key.data(), &id, sizeof(id));
    const std::uint64_t mixed = id * 0x9e3779b97f4a7c15ull;
    std::memcpy(key.data() + 8, &mixed, sizeof(mixed));
    return key;
}

unsigned
readsOf(const AccessTrace &trace, AccessPhase phase)
{
    unsigned n = 0;
    for (const MemRef &r : trace)
        n += !r.write && r.phase == phase;
    return n;
}

CuckooHashTable
makeTable(SimMemory &mem, std::uint64_t capacity, bool negative)
{
    CuckooHashTable::Config cfg;
    cfg.keyLen = keyLen;
    cfg.capacity = capacity;
    cfg.negativeFilter = negative;
    return CuckooHashTable(mem, cfg);
}

/**
 * With and without the filter the table must match a host-map
 * reference across a long random insert/erase/lookup sequence that
 * drives displacement (the mutation paths maintain the Bloom).
 */
TEST(CuckooFilters, RandomOpsMatchReferenceInEveryMode)
{
    constexpr std::uint64_t capacity = 30000;
    constexpr std::uint64_t keyRange = 40000; // > capacity: misses too
    constexpr std::uint64_t ops = 1u << 20;

    for (const bool negative : {false, true}) {
        SimMemory mem(256ull << 20);
        CuckooHashTable table = makeTable(mem, capacity, negative);
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        Xoshiro256 rng(0xf117e5 + (negative ? 1u : 0u));

        for (std::uint64_t op = 0; op < ops; ++op) {
            const std::uint64_t id = rng.nextBounded(keyRange);
            const auto key = keyForId(id);
            const KeyView kv(key.data(), key.size());
            switch (rng.next() % 4) {
              case 0:   // insert / update
              case 1: {
                const std::uint64_t val = (op << 16) | (id & 0xffff);
                if (table.insert(kv, val)) {
                    ref[id] = val;
                } else {
                    EXPECT_GE(ref.size(), capacity * 4 / 5)
                        << "insert failed far from the ceiling";
                }
                break;
              }
              case 2: { // erase
                const bool erased = table.erase(kv);
                EXPECT_EQ(erased, ref.erase(id) != 0) << "id " << id;
                break;
              }
              default: { // lookup
                const auto v = table.lookup(kv);
                const auto it = ref.find(id);
                ASSERT_EQ(v.has_value(), it != ref.end())
                    << "id " << id << " op " << op;
                if (v) {
                    EXPECT_EQ(*v, it->second);
                }
                break;
              }
            }
        }
        EXPECT_EQ(table.size(), ref.size());
        EXPECT_GT(table.cuckooMoves(), 0u)
            << "sequence never displaced; test is too weak";

        // Full sweep: everything the reference holds is findable with
        // its latest value; a sample of absent ids stays absent.
        for (const auto &[id, val] : ref) {
            const auto key = keyForId(id);
            const auto v = table.lookup(KeyView(key.data(), key.size()));
            ASSERT_TRUE(v.has_value()) << "id " << id;
            EXPECT_EQ(*v, val);
        }
        for (std::uint64_t id = keyRange; id < keyRange + 1000; ++id) {
            const auto key = keyForId(id);
            EXPECT_FALSE(
                table.lookup(KeyView(key.data(), key.size()))
                    .has_value());
        }
    }
}

/**
 * Traced and untraced lookups must return identical results with and
 * without the filter — tracing selects the reference-recording twin of
 * the same probe, never a different algorithm outcome.
 */
TEST(CuckooFilters, TracedAndUntracedLookupsAgree)
{
    constexpr std::uint64_t capacity = 8000;
    for (const bool negative : {false, true}) {
        SimMemory mem(64ull << 20);
        CuckooHashTable table = makeTable(mem, capacity, negative);
        for (std::uint64_t id = 0; id < capacity; ++id) {
            const auto key = keyForId(id);
            ASSERT_TRUE(table.insert(KeyView(key.data(), key.size()),
                                     id * 7 + 1));
        }
        AccessTrace trace;
        for (std::uint64_t id = 0; id < 2 * capacity; id += 3) {
            const auto key = keyForId(id);
            const KeyView kv(key.data(), key.size());
            const auto untraced = table.lookup(kv);
            trace.clear();
            const auto traced = table.lookup(kv, &trace, invalidAddr);
            ASSERT_EQ(traced.has_value(), untraced.has_value())
                << "id " << id;
            if (traced) {
                EXPECT_EQ(*traced, *untraced);
            }
            EXPECT_FALSE(trace.empty());
        }
    }
}

/**
 * Cuckoo++ negative filtering: while nothing has ever been displaced
 * out of a bucket, its Bloom is empty, so EVERY miss terminates after
 * the primary bucket's signature scan — exactly one bucket read (the
 * Bloom rides the bucket line itself), no key-value probe.
 */
TEST(CuckooFilters, CuckooPPBloomStopsMissesAtThePrimaryBucket)
{
    constexpr std::uint64_t capacity = 20000;
    SimMemory mem(128ull << 20);
    CuckooHashTable table = makeTable(mem, capacity, true);
    // Low occupancy: no displacement, so every Bloom stays empty.
    constexpr std::uint64_t fill = capacity / 5;
    for (std::uint64_t id = 0; id < fill; ++id) {
        const auto key = keyForId(id);
        ASSERT_TRUE(
            table.insert(KeyView(key.data(), key.size()), id + 1));
    }
    ASSERT_EQ(table.cuckooMoves(), 0u);

    AccessTrace trace;
    std::uint64_t misses = 0;
    for (std::uint64_t id = fill; id < fill + 5000; ++id) {
        const auto key = keyForId(id);
        trace.clear();
        const auto v = table.lookup(KeyView(key.data(), key.size()),
                                    &trace, invalidAddr);
        ASSERT_FALSE(v.has_value());
        ++misses;
        EXPECT_EQ(readsOf(trace, AccessPhase::Bucket), 1u);
        EXPECT_EQ(readsOf(trace, AccessPhase::KeyValue), 0u);
    }
    ASSERT_GT(misses, 0u);
}

/**
 * The bulk pipeline must agree lane-for-lane with scalar lookups with
 * and without the filter, and when traces are requested each lane's
 * stream must be byte-identical to the scalar traced lookup of that
 * key.
 */
TEST(CuckooFilters, BulkAgreesWithScalarInEveryMode)
{
    constexpr std::uint64_t capacity = 8000;
    for (const bool negative : {false, true}) {
        SimMemory mem(64ull << 20);
        CuckooHashTable table = makeTable(mem, capacity, negative);
        for (std::uint64_t id = 0; id < capacity; ++id) {
            const auto key = keyForId(id);
            ASSERT_TRUE(table.insert(KeyView(key.data(), key.size()),
                                     id * 11 + 3));
        }

        Xoshiro256 rng(0xbcd + (negative ? 2u : 0u));
        for (int batch = 0; batch < 64; ++batch) {
            std::array<std::array<std::uint8_t, keyLen>, maxBulkLanes>
                keys;
            std::array<const std::uint8_t *, maxBulkLanes> ptrs;
            for (unsigned lane = 0; lane < maxBulkLanes; ++lane) {
                keys[lane] = keyForId(rng.nextBounded(2 * capacity));
                ptrs[lane] = keys[lane].data();
            }

            std::uint64_t values[maxBulkLanes];
            const std::uint32_t mask = table.lookupUntracedBulk(
                ptrs.data(), maxBulkLanes, values, nullptr);

            std::array<AccessTrace, maxBulkLanes> laneTraces;
            std::array<AccessTrace *, maxBulkLanes> tracePtrs;
            for (unsigned lane = 0; lane < maxBulkLanes; ++lane)
                tracePtrs[lane] = &laneTraces[lane];
            std::uint64_t tracedValues[maxBulkLanes];
            const std::uint32_t tracedMask = table.lookupUntracedBulk(
                ptrs.data(), maxBulkLanes, tracedValues,
                tracePtrs.data());
            EXPECT_EQ(tracedMask, mask);

            for (unsigned lane = 0; lane < maxBulkLanes; ++lane) {
                AccessTrace scalarTrace;
                const auto v = table.lookup(
                    KeyView(ptrs[lane], keyLen), &scalarTrace,
                    invalidAddr);
                ASSERT_EQ(v.has_value(), (mask >> lane & 1) != 0)
                    << "lane " << lane;
                if (v) {
                    EXPECT_EQ(*v, values[lane]);
                    EXPECT_EQ(*v, tracedValues[lane]);
                }
                // Traced bulk records the scalar reference stream.
                ASSERT_EQ(laneTraces[lane].size(), scalarTrace.size())
                    << "lane " << lane;
                for (std::size_t r = 0; r < scalarTrace.size(); ++r) {
                    EXPECT_EQ(laneTraces[lane][r].addr,
                              scalarTrace[r].addr);
                    EXPECT_EQ(laneTraces[lane][r].size,
                              scalarTrace[r].size);
                    EXPECT_EQ(laneTraces[lane][r].write,
                              scalarTrace[r].write);
                    EXPECT_EQ(laneTraces[lane][r].phase,
                              scalarTrace[r].phase);
                }
            }
        }
    }
}

/**
 * The filter reports itself and costs no simulated memory: the Bloom
 * rides the bucket line.
 */
TEST(CuckooFilters, ModeReportingAndFootprint)
{
    SimMemory mem(64ull << 20);
    CuckooHashTable none = makeTable(mem, 1000, false);
    CuckooHashTable pp = makeTable(mem, 1000, true);
    EXPECT_FALSE(none.negativeFilter());
    EXPECT_TRUE(pp.negativeFilter());
    EXPECT_EQ(pp.footprintBytes(), none.footprintBytes());
}

} // namespace
} // namespace halo

/**
 * Concurrent-mode stress for the seqlocked tables (hash/seqlock.hh):
 * one writer thread mutating a CuckooHashTable / ExactMatchCache while
 * data-path readers run lock-free optimistic lookups. These tests are
 * the TSan CI job's evidence that the single-writer protocol the
 * decoupled runtime relies on (revalidator writes, workers read) is
 * race-free, and that readers never observe torn entries: a hit must
 * return exactly the value that key was inserted with.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "flow/emc.hh"
#include "hash/cuckoo_table.hh"
#include "mem/sim_memory.hh"

using namespace halo;

namespace {

std::array<std::uint8_t, 16>
keyForId(std::uint64_t id)
{
    std::array<std::uint8_t, 16> key{};
    std::memcpy(key.data(), &id, sizeof(id));
    const std::uint64_t mixed = id * 0x9e3779b97f4a7c15ull;
    std::memcpy(key.data() + 8, &mixed, sizeof(mixed));
    return key;
}

/** The value a key must carry if it is present at all. */
std::uint64_t
valueForId(std::uint64_t id)
{
    return (id << 8) | 0xabu;
}

} // namespace

/**
 * Readers race a writer that inserts (with cuckoo displacement at high
 * load) and erases. An optimistic reader may miss a key in motion —
 * that is the protocol's contract — but a hit must never be torn:
 * the returned value always matches the key looked up.
 */
TEST(ConcurrentTables, CuckooReadersNeverSeeTornEntries)
{
    SimMemory mem(64ull << 20);
    CuckooHashTable::Config cfg;
    // 30000/0.95 rounds up to 32768 slots: filling the whole keyRange
    // drives ~91% occupancy, so inserts displace (cuckoo moves) while
    // the readers run.
    cfg.capacity = 30000;
    CuckooHashTable table(mem, cfg);
    table.enableConcurrent();

    constexpr std::uint64_t keyRange = 30000;
    constexpr std::uint64_t writerOps = 3 * keyRange;
    std::atomic<unsigned> readersRunning{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> readers;
    for (unsigned r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
            readersRunning.fetch_add(1, std::memory_order_release);
            std::uint64_t id = r * 17;
            std::uint64_t hits = 0;
            while (!done.load(std::memory_order_acquire)) {
                id = (id + 31) % keyRange;
                const auto key = keyForId(id);
                const auto v = table.lookup(
                    KeyView(key.data(), key.size()));
                if (v) {
                    ASSERT_EQ(*v, valueForId(id))
                        << "torn read of key " << id;
                    ++hits;
                }
            }
            EXPECT_GT(hits, 0u);
        });
    }
    while (readersRunning.load(std::memory_order_acquire) < 3)
        std::this_thread::yield();

    // Single writer: fill toward the load-factor ceiling (forcing
    // displacement chains), then churn insert/erase over the range.
    for (std::uint64_t op = 0; op < writerOps; ++op) {
        const std::uint64_t id = op % keyRange;
        const auto key = keyForId(id);
        if (op < keyRange || (op & 3) != 0)
            table.insert(KeyView(key.data(), key.size()),
                         valueForId(id));
        else
            table.erase(KeyView(key.data(), key.size()));
    }
    done.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();

    EXPECT_GT(table.cuckooMoves(), 0u)
        << "stress never exercised displacement";
}

/**
 * The filtered concurrent path: with the Cuckoo++ negative filter on,
 * the writer stores the Bloom aux bytes inside the same seqlock
 * sections as the bucket entries, and optimistic readers consult the
 * Bloom in their word-copied line snapshot. A stale Bloom verdict may
 * cost a retry or a transient miss — never a torn or wrong value.
 * Readers also poll the published counters (size/loadFactor/
 * cuckooMoves) and run the bulk pipeline, covering every reader entry
 * point the runtime uses.
 */
TEST(ConcurrentTables, FilteredCuckooReadersNeverSeeTornEntries)
{
    SimMemory mem(128ull << 20);
    CuckooHashTable::Config cfg;
    cfg.capacity = 30000;
    cfg.negativeFilter = true;
    CuckooHashTable table(mem, cfg);
    table.enableConcurrent();

    constexpr std::uint64_t keyRange = 30000;
    constexpr std::uint64_t writerOps = 3 * keyRange;
    std::atomic<unsigned> readersRunning{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> readers;
    for (unsigned r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
            readersRunning.fetch_add(1, std::memory_order_release);
            std::uint64_t id = r * 19;
            std::uint64_t hits = 0;
            std::array<std::array<std::uint8_t, 16>, maxBulkLanes> keys;
            std::array<const std::uint8_t *, maxBulkLanes> ptrs;
            std::uint64_t values[maxBulkLanes];
            while (!done.load(std::memory_order_acquire)) {
                id = (id + 37) % keyRange;
                const auto key = keyForId(id);
                const auto v =
                    table.lookup(KeyView(key.data(), key.size()));
                if (v) {
                    ASSERT_EQ(*v, valueForId(id))
                        << "torn read of key " << id;
                    ++hits;
                }
                if ((id & 63) == 0) {
                    // Bulk pipeline against the same churn.
                    for (unsigned lane = 0; lane < maxBulkLanes;
                         ++lane) {
                        keys[lane] =
                            keyForId((id + lane * 7) % keyRange);
                        ptrs[lane] = keys[lane].data();
                    }
                    const std::uint32_t mask = table.lookupUntracedBulk(
                        ptrs.data(), maxBulkLanes, values, nullptr);
                    for (unsigned lane = 0; lane < maxBulkLanes;
                         ++lane) {
                        if (mask >> lane & 1) {
                            ASSERT_EQ(values[lane],
                                      valueForId(
                                          (id + lane * 7) % keyRange))
                                << "torn bulk read, lane " << lane;
                        }
                    }
                }
                if ((id & 255) == 0) {
                    // Published mirrors must stay readable and sane
                    // while the writer churns.
                    EXPECT_LE(table.size(), keyRange);
                    EXPECT_LE(table.loadFactor(), 1.0);
                    (void)table.cuckooMoves();
                }
            }
            EXPECT_GT(hits, 0u);
        });
    }
    while (readersRunning.load(std::memory_order_acquire) < 3)
        std::this_thread::yield();

    // Single writer: fill to ~91% occupancy (displacement churn keeps
    // the displaced-sig Blooms hot), then cycle erase/insert.
    for (std::uint64_t op = 0; op < writerOps; ++op) {
        const std::uint64_t id = op % keyRange;
        const auto key = keyForId(id);
        if (op < keyRange || (op & 3) != 0)
            table.insert(KeyView(key.data(), key.size()),
                         valueForId(id));
        else
            table.erase(KeyView(key.data(), key.size()));
    }
    done.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();

    EXPECT_GT(table.cuckooMoves(), 0u)
        << "stress never exercised displacement";
}

TEST(ConcurrentTables, EmcReadersNeverSeeTornEntries)
{
    SimMemory mem(16ull << 20);
    ExactMatchCache emc(mem, 1024);
    emc.enableConcurrent();

    constexpr std::uint64_t keyRange = 2048; // 2x entries: evictions
    constexpr std::uint64_t writerOps = 60000;
    std::atomic<unsigned> readersRunning{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> readers;
    for (unsigned r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
            readersRunning.fetch_add(1, std::memory_order_release);
            std::uint64_t id = r * 13;
            while (!done.load(std::memory_order_acquire)) {
                id = (id + 29) % keyRange;
                const auto key = keyForId(id);
                const auto v = emc.lookup(
                    std::span<const std::uint8_t, 16>(key));
                if (v) {
                    ASSERT_EQ(*v, valueForId(id))
                        << "torn read of key " << id;
                }
            }
        });
    }

    while (readersRunning.load(std::memory_order_acquire) < 3)
        std::this_thread::yield();

    for (std::uint64_t op = 0; op < writerOps; ++op) {
        const std::uint64_t id = op % keyRange;
        const auto key = keyForId(id);
        if ((op & 7) == 0)
            emc.erase(std::span<const std::uint8_t, 16>(key));
        else
            emc.insert(std::span<const std::uint8_t, 16>(key),
                       valueForId(id));
    }
    done.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();
}

/**
 * Deterministic reader-retry: hold a bucket's seqlock exactly as a
 * writer mid-mutation would (debug hook), prove a concurrent reader
 * of that bucket parks in its retry loop instead of returning a torn
 * entry, then release and prove it completes with the correct value.
 */
TEST(ConcurrentTables, SeqlockHeldWriterParksReaderUntilRelease)
{
    SimMemory mem(16ull << 20);
    CuckooHashTable::Config cfg;
    cfg.capacity = 256;
    CuckooHashTable table(mem, cfg);
    table.enableConcurrent();

    const auto key = keyForId(42);
    const KeyView kv(key.data(), key.size());
    ASSERT_TRUE(table.insert(kv, valueForId(42)));
    ASSERT_EQ(table.lookup(kv), valueForId(42));
    const std::uint64_t retriesBefore = table.seqlockRetries();

    table.debugSeqWriteBegin(kv);

    std::atomic<bool> finished{false};
    std::optional<std::uint64_t> result;
    std::thread reader([&] {
        result = table.lookup(kv);
        finished.store(true, std::memory_order_release);
    });

    // The reader must be pinned in its retry loop while the "writer"
    // holds the bucket; give it ample time to prove it is stuck.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(finished.load(std::memory_order_acquire))
        << "reader returned while the bucket seqlock was held";

    table.debugSeqWriteEnd(kv);
    reader.join();
    ASSERT_TRUE(finished.load(std::memory_order_acquire));
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result, valueForId(42));
    EXPECT_GT(table.seqlockRetries(), retriesBefore);
}

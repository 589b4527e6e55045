/**
 * @file
 * Property test: for every supported hash kind and key length, the
 * HALO accelerator's functional result equals the software table's for
 * hits, misses, and post-update lookups. This is the repository's
 * central invariant — the accelerator walks the same self-describing
 * bytes the software does.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/halo_system.hh"
#include "cpu/core_model.hh"
#include "cpu/trace_builder.hh"
#include "hash/cuckoo_table.hh"
#include "hash/hash_fn.hh"
#include "hash/table_layout.hh"
#include "sim/random.hh"

namespace halo {
namespace {

class EquivalenceParam
    : public ::testing::TestWithParam<
          std::tuple<HashKind, std::uint32_t, DispatchPolicy>>
{
};

std::vector<std::uint8_t>
makeKey(std::uint64_t id, std::uint32_t len)
{
    std::vector<std::uint8_t> key(len, 0);
    std::memcpy(key.data(), &id, sizeof(id));
    if (len > 8)
        key[len - 1] = static_cast<std::uint8_t>(id * 131);
    return key;
}

TEST_P(EquivalenceParam, AcceleratorMatchesSoftwareThroughChurn)
{
    const auto [kind, key_len, policy] = GetParam();
    SimMemory mem(256ull << 20);
    MemoryHierarchy hier;
    HaloConfig hcfg;
    hcfg.dispatchPolicy = policy;
    HaloSystem halo(mem, hier, hcfg);
    CuckooHashTable table(
        mem, {key_len, 2048, kind,
              0x1234 + static_cast<std::uint64_t>(kind), 0.95});
    const Addr key_stage = mem.allocate(cacheLineBytes, cacheLineBytes);

    Xoshiro256 rng(static_cast<std::uint64_t>(kind) * 100 + key_len);
    Cycles when = 0;
    for (int op = 0; op < 1200; ++op) {
        const std::uint64_t id = rng.nextBounded(700);
        const auto key = makeKey(id, key_len);
        const int what = static_cast<int>(rng.nextBounded(10));
        if (what < 4) {
            table.insert(KeyView(key.data(), key.size()),
                         rng.next() | 1);
        } else if (what < 5) {
            table.erase(KeyView(key.data(), key.size()));
        } else {
            mem.write(key_stage, key.data(), key.size());
            hier.warmLine(key_stage);
            const QueryResult qr = halo.rawQuery(
                0, table.metadataAddr(), key_stage, when += 400);
            const auto sw = table.lookup(KeyView(key.data(),
                                                 key.size()));
            ASSERT_EQ(qr.found, sw.has_value())
                << "op " << op << " id " << id;
            if (sw) {
                ASSERT_EQ(qr.value, *sw);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsKeysPolicies, EquivalenceParam,
    ::testing::Combine(
        ::testing::Values(HashKind::Crc32c, HashKind::Jenkins,
                          HashKind::XxMix),
        ::testing::Values(8u, 13u, 16u, 32u, 64u),
        ::testing::Values(DispatchPolicy::TableHash,
                          DispatchPolicy::KeyHash)));

/**
 * Reference reconstruction of a cuckoo lookup's access trace, written
 * against the *recorded* semantics the timing models rely on (what the
 * seed tree's byte-at-a-time lookup produced): metadata, version
 * sample, key fetch, bucket line, one kv probe per signature match
 * until the key matches, optional second bucket, version re-sample.
 * Reads table state only through SimMemory::read, deliberately not
 * through any host fast path.
 */
AccessTrace
referenceLookupTrace(const SimMemory &mem, const CuckooHashTable &table,
                     KeyView key, Addr key_addr)
{
    const TableMetadata &md = table.metadata();
    AccessTrace t;
    auto ref = [&](Addr addr, std::uint16_t size, AccessPhase phase,
                   bool depends) {
        t.push_back(MemRef{addr, size, false, phase, depends,
                           md.numBuckets <= 8});
        // Metadata/Lock/KeyFetch refs predate the branch-entropy logic.
        if (phase == AccessPhase::Metadata ||
            phase == AccessPhase::Lock || phase == AccessPhase::KeyFetch)
            t.back().lowEntropyBranch = false;
    };
    ref(table.metadataAddr(), cacheLineBytes, AccessPhase::Metadata,
        false);
    ref(table.versionAddr(), 8, AccessPhase::Lock, false);
    ref(key_addr, static_cast<std::uint16_t>(md.keyLen),
        AccessPhase::KeyFetch, false);

    const std::uint64_t h = hashBytes(
        static_cast<HashKind>(md.hashKind), md.seed, key);
    const std::uint32_t sig = shortSignature(h);
    const std::uint64_t b1 = h & md.bucketMask;
    const std::uint64_t b2 = alternativeBucket(b1, sig, md.bucketMask);

    bool found = false;
    auto scanBucket = [&](std::uint64_t bucket) {
        for (unsigned way = 0; way < entriesPerBucket && !found; ++way) {
            BucketEntry entry;
            mem.read(bucketEntryAddr(md, bucket, way), &entry,
                     sizeof(entry));
            if (entry.kvRef == 0 || entry.sig != sig)
                continue;
            ref(kvSlotAddr(md, entry.kvRef - 1),
                static_cast<std::uint16_t>(md.kvSlotBytes),
                AccessPhase::KeyValue, true);
            std::uint8_t stored[64];
            mem.read(kvSlotAddr(md, entry.kvRef - 1) + kvKeyOffset,
                     stored, md.keyLen);
            found = std::memcmp(stored, key.data(), md.keyLen) == 0;
        }
    };
    ref(bucketAddr(md, b1), cacheLineBytes, AccessPhase::Bucket, true);
    scanBucket(b1);
    if (!found && b2 != b1) {
        ref(bucketAddr(md, b2), cacheLineBytes, AccessPhase::Bucket,
            false);
        scanBucket(b2);
    }
    ref(table.versionAddr(), 8, AccessPhase::Lock, false);
    return t;
}

/**
 * The zero-copy host fast path must not change what the timing layer
 * sees: the recorded trace of every lookup must equal the reference
 * reconstruction field-by-field, the cycles the core model assigns to
 * that trace must be identical, and the untraced lookup must return
 * the same values as the traced one.
 */
TEST(TraceEquivalence, FastPathKeepsTraceAndCyclesIdentical)
{
    SimMemory mem(256ull << 20);
    // Two independent hierarchy+core pairs: replaying the two traces on
    // one core would let the first run warm the caches for the second.
    MemoryHierarchy hier_got, hier_want;
    CoreModel core_got(hier_got, 0), core_want(hier_want, 0);
    TraceBuilder builder;
    // The reference reconstruction below models the unfiltered probe
    // walk; filtered trace equivalence lives in tests/hash.
    CuckooHashTable table(mem, {16, 4096, HashKind::XxMix, 0xfeed,
                                0.95, false});
    const Addr key_stage = mem.allocate(cacheLineBytes, cacheLineBytes);

    Xoshiro256 rng(0x7777);
    std::vector<std::vector<std::uint8_t>> keys;
    for (int i = 0; i < 3000; ++i) {
        keys.push_back(makeKey(rng.nextBounded(4000), 16));
        table.insert(KeyView(keys.back().data(), 16), rng.next() | 1);
    }

    Cycles when = 0;
    for (int i = 0; i < 600; ++i) {
        // Mix hits and misses; misses exercise the both-buckets walk.
        const auto key = makeKey(rng.nextBounded(8000), 16);
        mem.write(key_stage, key.data(), key.size());

        AccessTrace got;
        const auto traced = table.lookup(KeyView(key.data(), 16), &got,
                                         key_stage);
        const auto untraced = table.lookup(KeyView(key.data(), 16));
        ASSERT_EQ(traced.has_value(), untraced.has_value()) << "i=" << i;
        if (traced) {
            ASSERT_EQ(*traced, *untraced) << "i=" << i;
        }

        const AccessTrace want = referenceLookupTrace(
            mem, table, KeyView(key.data(), 16), key_stage);
        ASSERT_EQ(got.size(), want.size()) << "i=" << i;
        for (std::size_t r = 0; r < want.size(); ++r) {
            ASSERT_EQ(got[r].addr, want[r].addr) << "i=" << i << " r=" << r;
            ASSERT_EQ(got[r].size, want[r].size) << "i=" << i << " r=" << r;
            ASSERT_EQ(got[r].write, want[r].write);
            ASSERT_EQ(got[r].phase, want[r].phase);
            ASSERT_EQ(got[r].dependsOnPrevious, want[r].dependsOnPrevious);
            ASSERT_EQ(got[r].lowEntropyBranch, want[r].lowEntropyBranch);
        }

        // Identical traces must also price identically on the core.
        OpTrace ops_got, ops_want;
        builder.lowerTableOp(got, ops_got);
        builder.lowerTableOp(want, ops_want);
        const Cycles start = (when += 500);
        const auto run_got = core_got.run(ops_got, start);
        const auto run_want = core_want.run(ops_want, start);
        ASSERT_EQ(run_got.endCycle, run_want.endCycle) << "i=" << i;
        ASSERT_EQ(run_got.instructions, run_want.instructions);
    }
}

} // namespace
} // namespace halo

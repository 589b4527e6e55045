/**
 * @file
 * Unit tests for micro-op lowering, including the Table-1 calibration.
 */

#include <gtest/gtest.h>

#include "cpu/trace_builder.hh"
#include "hash/cuckoo_table.hh"

namespace halo {
namespace {

AccessTrace
hitLookupRefs()
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 4096, HashKind::XxMix, 1, 0.95});
    std::uint8_t key[16] = {1, 2, 3, 4, 5};
    t.insert(KeyView(key, 16), 42);
    AccessTrace refs;
    EXPECT_TRUE(t.lookup(KeyView(key, 16), &refs).has_value());
    return refs;
}

TEST(TraceBuilder, Table1InstructionCount)
{
    TraceBuilder builder;
    OpTrace ops;
    builder.lowerTableOp(hitLookupRefs(), ops);
    // Paper Table 1: ~210 instructions per lookup.
    EXPECT_GE(ops.size(), 195u);
    EXPECT_LE(ops.size(), 225u);
}

TEST(TraceBuilder, Table1InstructionMix)
{
    TraceBuilder builder;
    OpTrace ops;
    builder.lowerTableOp(hitLookupRefs(), ops);
    const OpMix mix = mixOf(ops);
    const double total = static_cast<double>(mix.total());
    // Paper Table 1: 36.2% loads, 11.8% stores, 21.0% arith, 30.9%
    // others. Allow a few percent of slack for the real refs.
    EXPECT_NEAR(static_cast<double>(mix.loads) / total, 0.362, 0.05);
    EXPECT_NEAR(static_cast<double>(mix.stores) / total, 0.118, 0.04);
    EXPECT_NEAR(static_cast<double>(mix.arith) / total, 0.210, 0.05);
    EXPECT_NEAR(static_cast<double>(mix.others) / total, 0.309, 0.05);
}

TEST(TraceBuilder, MemoryOpsKeepRealAddresses)
{
    TraceBuilder builder;
    const AccessTrace refs = hitLookupRefs();
    OpTrace ops;
    builder.lowerTableOp(refs, ops);
    // Every bucket/kv reference address must appear in the ops.
    for (const MemRef &ref : refs) {
        if (ref.phase != AccessPhase::Bucket &&
            ref.phase != AccessPhase::KeyValue)
            continue;
        bool found = false;
        for (const MicroOp &op : ops)
            found |= op.addr == ref.addr;
        EXPECT_TRUE(found) << "missing ref to " << ref.addr;
    }
}

TEST(TraceBuilder, DependenciesPointBackward)
{
    TraceBuilder builder;
    OpTrace ops;
    builder.lowerTableOp(hitLookupRefs(), ops);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].dep >= 0) {
            EXPECT_LT(static_cast<std::size_t>(ops[i].dep), i);
        }
    }
}

TEST(TraceBuilder, BucketLoadDependsOnHashChain)
{
    TraceBuilder builder;
    const AccessTrace refs = hitLookupRefs();
    OpTrace ops;
    builder.lowerTableOp(refs, ops);
    // Find the first bucket load; its dep must be an Alu op (the hash).
    for (const MicroOp &op : ops) {
        if (op.kind == OpKind::Load &&
            op.phase == AccessPhase::Bucket) {
            ASSERT_GE(op.dep, 0);
            EXPECT_EQ(ops[op.dep].kind, OpKind::Alu);
            break;
        }
    }
}

TEST(TraceBuilder, InsertTraceLargerThanLookup)
{
    SimMemory mem(32 << 20);
    CuckooHashTable t(mem, {16, 4096, HashKind::XxMix, 2, 0.95});
    std::uint8_t key[16] = {9};
    AccessTrace insert_refs;
    t.insert(KeyView(key, 16), 1, &insert_refs);

    TraceBuilder builder;
    OpTrace lookup_ops, insert_ops;
    builder.lowerTableOp(hitLookupRefs(), lookup_ops);
    builder.lowerTableOp(insert_refs, insert_ops);
    EXPECT_GT(insert_ops.size(), lookup_ops.size());
}

TEST(TraceBuilder, LookupInstructionsAreTiny)
{
    TraceBuilder builder;
    OpTrace ops;
    builder.lowerLookupB(0x1000, 0x2000, ops);
    // The whole point of the ISA extension: single-digit op counts
    // instead of ~210 (paper SS4.5).
    EXPECT_LE(ops.size(), 3u);
    EXPECT_EQ(ops.back().kind, OpKind::LookupB);
    EXPECT_EQ(ops.back().tableAddr, 0x1000u);
    EXPECT_EQ(ops.back().addr, 0x2000u);

    OpTrace nb;
    builder.lowerLookupNB(0x1000, 0x2000, 0x3000, nb);
    EXPECT_LE(nb.size(), 3u);
    EXPECT_EQ(nb.back().kind, OpKind::LookupNB);
    EXPECT_EQ(nb.back().resultAddr, 0x3000u);
}

TEST(TraceBuilder, SnapshotCheckShape)
{
    TraceBuilder builder;
    OpTrace ops;
    builder.lowerSnapshotCheck(0x4000, ops);
    EXPECT_EQ(ops.front().kind, OpKind::SnapshotRead);
    EXPECT_EQ(ops.front().size, cacheLineBytes);
    // The AVX compare depends on the snapshot data.
    EXPECT_EQ(ops[1].dep, 0);
}

TEST(TraceBuilder, LowerComputeProducesRequestedCounts)
{
    TraceBuilder builder;
    OpTrace ops;
    builder.lowerCompute(10, 8, 6, ops);
    const OpMix mix = mixOf(ops);
    EXPECT_EQ(mix.arith, 10u);
    EXPECT_EQ(mix.others, 8u);
    EXPECT_EQ(mix.loads + mix.stores, 6u);
}

} // namespace
} // namespace halo

#include "cpu/trace_builder.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace halo {

namespace {

/** Number of discrete load instructions a read of @p size bytes costs
 *  (vectorized 16-byte accesses, at least one, at most one line). */
unsigned
loadsFor(const MemRef &ref)
{
    if (ref.phase == AccessPhase::Metadata)
        return 1; // hot fields only; the rest stays in registers
    const unsigned n = (ref.size + 15u) / 16u;
    return std::clamp(n, 1u, 4u);
}

unsigned
storesFor(const MemRef &ref)
{
    const unsigned n = (ref.size + 15u) / 16u;
    return std::clamp(n, 1u, 4u);
}

} // namespace

std::size_t
TraceBuilder::lowerTableOp(std::span<const MemRef> refs, OpTrace &out) const
{
    const std::size_t first = out.size();

    // --- Pass 1: count the real memory instructions. ---
    unsigned real_loads = 0, real_stores = 0;
    bool has_write = false;
    for (const MemRef &ref : refs) {
        if (ref.write) {
            real_stores += storesFor(ref);
            has_write = true;
        } else {
            real_loads += loadsFor(ref);
        }
    }

    // --- Budgets from the Table-1 profile. Updates (writes) run longer
    //     than lookups; scale their target accordingly. ---
    const unsigned target =
        has_write ? profile.targetTotal + profile.targetTotal / 3
                  : profile.targetTotal;
    // The profile budget bounds the op count: reserve once so the hot
    // path never grows the vector mid-lowering.
    out.reserve(out.size() + target + real_loads + real_stores +
                2 * refs.size());
    auto budget = [&](double frac) {
        return static_cast<unsigned>(frac * static_cast<double>(target) +
                                     0.5);
    };
    unsigned load_def = budget(profile.loadFraction);
    unsigned store_def = budget(profile.storeFraction);
    unsigned arith_def = budget(profile.arithFraction);
    unsigned other_def = budget(profile.otherFraction);
    load_def = load_def > real_loads ? load_def - real_loads : 0;
    store_def = store_def > real_stores ? store_def - real_stores : 0;

    auto emitScratchLoads = [&](unsigned n) {
        n = std::min(n, load_def);
        for (unsigned i = 0; i < n; ++i)
            out.push_back(MicroOp{OpKind::Load, invalidAddr, invalidAddr,
                                  invalidAddr, 8, -1,
                                  AccessPhase::Payload});
        load_def -= n;
    };
    auto emitScratchStores = [&](unsigned n) {
        n = std::min(n, store_def);
        for (unsigned i = 0; i < n; ++i)
            out.push_back(MicroOp{OpKind::Store, invalidAddr, invalidAddr,
                                  invalidAddr, 8, -1,
                                  AccessPhase::Payload});
        store_def -= n;
    };
    auto emitArith = [&](unsigned n, std::int32_t first_dep) {
        n = std::min(n, arith_def);
        std::int32_t last = first_dep;
        for (unsigned i = 0; i < n; ++i) {
            std::int32_t dep = -1;
            if (i < profile.hashIlp) {
                dep = last;
            } else {
                dep = static_cast<std::int32_t>(out.size()) -
                      static_cast<std::int32_t>(profile.hashIlp);
            }
            out.push_back(MicroOp{OpKind::Alu, invalidAddr, invalidAddr,
                                  invalidAddr, 8, dep,
                                  AccessPhase::Payload});
        }
        arith_def -= n;
        return n ? static_cast<std::int32_t>(out.size()) - 1 : first_dep;
    };
    auto emitOthers = [&](unsigned n) {
        n = std::min(n, other_def);
        for (unsigned i = 0; i < n; ++i) {
            const OpKind kind = (i % 3 == 2) ? OpKind::Branch
                                             : OpKind::Other;
            out.push_back(MicroOp{kind, invalidAddr, invalidAddr,
                                  invalidAddr, 8, -1,
                                  AccessPhase::Payload});
        }
        other_def -= n;
    };

    // --- Prologue: call overhead, argument spills, stack reloads. ---
    emitOthers(other_def / 4);
    emitScratchStores(store_def / 2);
    emitScratchLoads(load_def / 4);
    emitArith(arith_def / 10, -1);

    // Reserve the hash block budget; it is emitted just before the first
    // bucket reference.
    unsigned hash_budget = arith_def / 2;
    const unsigned per_bucket_arith =
        std::max(1u, (arith_def - hash_budget) / 4);
    const unsigned per_ref_others = std::max(1u, other_def / 8);

    std::int32_t last_key_load = -1;
    std::int32_t last_hash_op = -1;
    std::int32_t last_real_load = -1;
    bool hash_emitted = false;

    for (const MemRef &ref : refs) {
        if (!ref.write && ref.phase == AccessPhase::Bucket &&
            !hash_emitted) {
            // Hash computation: a multiply/xor/shift chain with modest
            // ILP feeding the bucket index.
            last_hash_op = emitArith(hash_budget, last_key_load);
            hash_budget = 0;
            hash_emitted = true;
        }

        const unsigned count = ref.write ? storesFor(ref) : loadsFor(ref);
        std::int32_t dep = -1;
        if (ref.dependsOnPrevious) {
            dep = (ref.phase == AccessPhase::Bucket && last_hash_op >= 0)
                      ? last_hash_op
                      : last_real_load;
        }
        std::int32_t first_of_ref = -1;
        for (unsigned c = 0; c < count; ++c) {
            MicroOp op;
            op.kind = ref.write ? OpKind::Store : OpKind::Load;
            op.addr = ref.addr;
            op.size = static_cast<std::uint16_t>(
                std::min<unsigned>(ref.size, 16));
            // Loads 2..n of the same line MSHR-merge with the first:
            // they cannot complete before the line arrives.
            op.dep = c == 0 ? dep : first_of_ref;
            op.phase = ref.phase;
            out.push_back(op);
            if (c == 0)
                first_of_ref = static_cast<std::int32_t>(out.size()) - 1;
        }
        if (!ref.write) {
            last_real_load = static_cast<std::int32_t>(out.size()) - 1;
            if (ref.phase == AccessPhase::KeyFetch)
                last_key_load = last_real_load;
        }

        // Signature comparisons and branch decisions after bucket and
        // key-value probes. The match/no-match branch consumes loaded
        // data and is data-dependent random for hash workloads — the
        // predictor cannot learn it, so mark it unpredictable.
        if (!ref.write && (ref.phase == AccessPhase::Bucket ||
                           ref.phase == AccessPhase::KeyValue)) {
            emitArith(per_bucket_arith, last_real_load);
            MicroOp branch;
            branch.kind = OpKind::Branch;
            branch.dep = static_cast<std::int32_t>(out.size()) - 1;
            branch.phase = ref.phase;
            branch.unpredictable = !ref.lowEntropyBranch;
            out.push_back(branch);
            if (other_def > 0)
                --other_def;
            emitOthers(per_ref_others);
        } else {
            emitOthers(1);
        }
    }

    if (!hash_emitted && hash_budget)
        emitArith(hash_budget, last_key_load);

    // --- Epilogue: flush every remaining budget. ---
    emitArith(arith_def, -1);
    emitScratchLoads(load_def);
    emitScratchStores(store_def);
    emitOthers(other_def);

    return out.size() - first;
}

std::size_t
TraceBuilder::lowerLookupB(Addr table_addr, Addr key_addr,
                           OpTrace &out) const
{
    const std::size_t first = out.size();
    // lea of the key address (RAX already holds the table address, which
    // is reused across consecutive lookups — paper SS4.5).
    out.push_back(MicroOp{OpKind::Other, invalidAddr, invalidAddr,
                          invalidAddr, 8, -1, AccessPhase::Payload});
    MicroOp op;
    op.kind = OpKind::LookupB;
    op.addr = key_addr;
    op.tableAddr = table_addr;
    op.phase = AccessPhase::Bucket;
    out.push_back(op);
    return out.size() - first;
}

std::size_t
TraceBuilder::lowerLookupNB(Addr table_addr, Addr key_addr,
                            Addr result_addr, OpTrace &out) const
{
    const std::size_t first = out.size();
    out.push_back(MicroOp{OpKind::Other, invalidAddr, invalidAddr,
                          invalidAddr, 8, -1, AccessPhase::Payload});
    MicroOp op;
    op.kind = OpKind::LookupNB;
    op.addr = key_addr;
    op.tableAddr = table_addr;
    op.resultAddr = result_addr;
    op.phase = AccessPhase::Bucket;
    out.push_back(op);
    return out.size() - first;
}

std::size_t
TraceBuilder::lowerSnapshotCheck(Addr result_line, OpTrace &out) const
{
    const std::size_t first = out.size();
    MicroOp snap;
    snap.kind = OpKind::SnapshotRead;
    snap.addr = result_line;
    snap.size = cacheLineBytes;
    snap.phase = AccessPhase::Result;
    out.push_back(snap);
    const auto snap_idx = static_cast<std::int32_t>(out.size()) - 1;
    // _mm256_cmpeq_epi64 + movemask + branch on the snapshot.
    out.push_back(MicroOp{OpKind::Alu, invalidAddr, invalidAddr,
                          invalidAddr, 8, snap_idx, AccessPhase::Result});
    out.push_back(MicroOp{OpKind::Alu, invalidAddr, invalidAddr,
                          invalidAddr, 8,
                          static_cast<std::int32_t>(out.size()) - 1,
                          AccessPhase::Result});
    out.push_back(MicroOp{OpKind::Branch, invalidAddr, invalidAddr,
                          invalidAddr, 8,
                          static_cast<std::int32_t>(out.size()) - 1,
                          AccessPhase::Result});
    return out.size() - first;
}

std::size_t
TraceBuilder::lowerCompute(unsigned arith, unsigned others,
                           unsigned scratch_refs, OpTrace &out) const
{
    const std::size_t first = out.size();
    unsigned a = arith, o = others, s = scratch_refs;
    while (a + o + s > 0) {
        if (a) {
            std::int32_t dep = -1;
            if ((a % 4) == 0 && out.size() > first)
                dep = static_cast<std::int32_t>(out.size()) - 1;
            out.push_back(MicroOp{OpKind::Alu, invalidAddr, invalidAddr,
                                  invalidAddr, 8, dep,
                                  AccessPhase::Payload});
            --a;
        }
        if (o) {
            const OpKind kind = (o % 4 == 0) ? OpKind::Branch
                                             : OpKind::Other;
            out.push_back(MicroOp{kind, invalidAddr, invalidAddr,
                                  invalidAddr, 8, -1,
                                  AccessPhase::Payload});
            --o;
        }
        if (s) {
            const OpKind kind = (s % 3 == 0) ? OpKind::Store
                                             : OpKind::Load;
            out.push_back(MicroOp{kind, invalidAddr, invalidAddr,
                                  invalidAddr, 8, -1,
                                  AccessPhase::Payload});
            --s;
        }
    }
    return out.size() - first;
}

std::size_t
TraceBuilder::lowerLoad(Addr addr, std::uint16_t size, AccessPhase phase,
                        OpTrace &out) const
{
    const std::size_t first = out.size();
    const unsigned n = std::clamp((size + 15u) / 16u, 1u, 4u);
    for (unsigned i = 0; i < n; ++i) {
        MicroOp op;
        op.kind = OpKind::Load;
        op.addr = addr;
        op.size = static_cast<std::uint16_t>(std::min<unsigned>(size, 16));
        op.phase = phase;
        out.push_back(op);
    }
    return out.size() - first;
}

std::size_t
TraceBuilder::lowerStore(Addr addr, std::uint16_t size, AccessPhase phase,
                         OpTrace &out) const
{
    const std::size_t first = out.size();
    const unsigned n = std::clamp((size + 15u) / 16u, 1u, 4u);
    for (unsigned i = 0; i < n; ++i) {
        MicroOp op;
        op.kind = OpKind::Store;
        op.addr = addr;
        op.size = static_cast<std::uint16_t>(std::min<unsigned>(size, 16));
        op.phase = phase;
        out.push_back(op);
    }
    return out.size() - first;
}

} // namespace halo

#include "core/accelerator.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "flow/tuple_space.hh"
#include "hash/hash_fn.hh"
#include "sim/logging.hh"

namespace halo {

HaloAccelerator::HaloAccelerator(SimMemory &memory,
                                 MemoryHierarchy &hierarchy,
                                 SliceId slice_id,
                                 const HaloConfig &config)
    : mem(memory),
      hier(hierarchy),
      slice(slice_id),
      cfg(config),
      scoreboardFreeAt(config.scoreboardEntries, 0),
      statGroup("halo.accel." + std::to_string(slice_id)),
      queries(statGroup.counter("queries")),
      hitsFound(statGroup.counter("hits")),
      metadataHits(statGroup.counter("metadata_hits")),
      metadataMisses(statGroup.counter("metadata_misses")),
      lockConflicts(statGroup.counter("lock_conflicts")),
      secondBucketProbes(statGroup.counter("second_bucket_probes")),
      boundsViolationCount(statGroup.counter("bounds_violations"))
{
    HALO_ASSERT(cfg.scoreboardEntries > 0);
    metadataCache.reserve(cfg.metadataCacheEntries);
}

Cycles
HaloAccelerator::nextAcceptTime() const
{
    return *std::min_element(scoreboardFreeAt.begin(),
                             scoreboardFreeAt.end());
}

Cycles
HaloAccelerator::fetchMetadata(
    Addr table_addr, std::array<std::uint8_t, cacheLineBytes> &out)
{
    for (auto &entry : metadataCache) {
        if (entry.tableAddr == table_addr) {
            entry.lruStamp = ++metadataLru;
            out = entry.blob;
            ++metadataHits;
            return cfg.metadataHitCycles;
        }
    }
    ++metadataMisses;
    const AccessResult acc = hier.chaAccess(slice, table_addr, false);
    mem.read(table_addr, out.data(), out.size());

    MetadataEntry entry;
    entry.tableAddr = table_addr;
    entry.blob = out;
    entry.lruStamp = ++metadataLru;
    if (metadataCache.size() <
        static_cast<std::size_t>(cfg.metadataCacheEntries)) {
        metadataCache.push_back(entry);
    } else if (!metadataCache.empty()) {
        auto victim = std::min_element(
            metadataCache.begin(), metadataCache.end(),
            [](const MetadataEntry &a, const MetadataEntry &b) {
                return a.lruStamp < b.lruStamp;
            });
        *victim = entry;
    }
    return acc.latency;
}

void
HaloAccelerator::invalidateMetadata(Addr table_addr)
{
    metadataCache.erase(
        std::remove_if(metadataCache.begin(), metadataCache.end(),
                       [table_addr](const MetadataEntry &e) {
                           return e.tableAddr == table_addr;
                       }),
        metadataCache.end());
}

Cycles
HaloAccelerator::acquireLock(Addr line, QueryBreakdown &bd)
{
    if (!cfg.useHardwareLock)
        return 0;
    Cycles cost = cfg.lockCycles;
    if (hier.isLineLocked(line)) {
        // Another query holds the line: wait one bounded retry round.
        ++lockConflicts;
        cost += cfg.lockContentionCycles;
    }
    hier.lockLine(slice, line);
    bd.locking += cost;
    return cost;
}

bool
HaloAccelerator::inBounds(const TableMetadata &md, Addr addr,
                          std::uint64_t bytes) const
{
    const bool in_buckets =
        addr >= md.bucketArrayAddr &&
        addr + bytes <= md.bucketArrayAddr +
                            md.numBuckets * cacheLineBytes;
    const bool in_kv =
        addr >= md.kvArrayAddr &&
        addr + bytes <= md.kvArrayAddr + md.kvSlots * md.kvSlotBytes;
    return in_buckets || in_kv;
}

void
HaloAccelerator::runHashLookup(const TableMetadata &md, Addr key_addr,
                               Cycles &now, QueryResult &result)
{
    // Fetch the key.
    std::uint8_t key[64];
    HALO_ASSERT(md.keyLen <= sizeof(key));
    const AccessResult key_acc = hier.chaAccess(slice, key_addr, false);
    mem.read(key_addr, key, md.keyLen);
    now += key_acc.latency;
    result.breakdown.keyFetch += key_acc.latency;

    // Hash.
    const std::uint64_t h =
        hashBytes(static_cast<HashKind>(md.hashKind), md.seed,
                  std::span<const std::uint8_t>(key, md.keyLen));
    result.primaryHash = h;
    // On a negative-filter table the entry's top byte is aux: compare
    // and derive the alternate bucket from the 24-bit signature.
    const bool filtered = md.flags & tableFlagNegativeFilter;
    const std::uint32_t sig = tableSignature(h, filtered);
    const std::uint32_t sig_mask = filtered ? sig24Mask : ~0u;
    now += cfg.hashCycles;
    result.breakdown.compute += cfg.hashCycles;

    const std::uint64_t b1 = h & md.bucketMask;
    const std::uint64_t b2 = alternativeBucket(b1, sig, md.bucketMask);
    const Cycles key_cmp =
        cfg.keyCompareCyclesPer32B * ceilDiv(md.keyLen, 32);

    // At most a bucket line and its eight kv slots per bucket probed.
    std::array<Addr, 2 * (1 + entriesPerBucket)> locked;
    std::size_t numLocked = 0;
    auto probeBucket = [&](std::uint64_t bucket) -> bool {
        // Fetch-and-lock: the CHA brings the line into its slice and
        // sets the lock bit as part of the same transaction, so the
        // full fetch latency (DRAM included) is charged before the
        // lock takes effect.
        const Addr bline = bucketAddr(md, bucket);
        if (!inBounds(md, bline, cacheLineBytes)) {
            ++boundsViolationCount;
            return false;
        }
        const AccessResult bucket_acc = hier.chaAccess(slice, bline,
                                                       false);
        now += bucket_acc.latency;
        result.breakdown.dataAccess += bucket_acc.latency;
        now += acquireLock(bline, result.breakdown);
        locked[numLocked++] = bline;

        // All 8 comparators check signatures in parallel.
        now += cfg.sigCompareCycles;
        result.breakdown.compute += cfg.sigCompareCycles;

        const std::uint8_t *line = mem.lineView(bline).data();
        for (unsigned way = 0; way < entriesPerBucket; ++way) {
            BucketEntry entry;
            std::memcpy(&entry, line + way * bucketEntryBytes,
                        sizeof(entry));
            if (entry.kvRef == 0 || (entry.sig & sig_mask) != sig)
                continue;

            const Addr slot_addr = kvSlotAddr(md, entry.kvRef - 1);
            if (!inBounds(md, slot_addr, md.kvSlotBytes)) {
                // A corrupt bucket entry points outside the kv array:
                // skip it rather than touch foreign memory.
                ++boundsViolationCount;
                continue;
            }
            const AccessResult kv_acc =
                hier.chaAccess(slice, slot_addr, false);
            now += kv_acc.latency;
            result.breakdown.dataAccess += kv_acc.latency;
            now += acquireLock(lineAlign(slot_addr), result.breakdown);
            locked[numLocked++] = lineAlign(slot_addr);

            now += key_cmp;
            result.breakdown.compute += key_cmp;
            bool key_equal;
            if (const std::uint8_t *stored =
                    mem.rangeView(slot_addr + kvKeyOffset, md.keyLen)) {
                key_equal = std::memcmp(key, stored, md.keyLen) == 0;
            } else {
                std::uint8_t stored_buf[64];
                mem.read(slot_addr + kvKeyOffset, stored_buf, md.keyLen);
                key_equal = std::memcmp(key, stored_buf, md.keyLen) == 0;
            }
            if (key_equal) {
                result.found = true;
                result.value = mem.load<std::uint64_t>(slot_addr +
                                                       kvValueOffset);
                return true;
            }
        }
        return false;
    };

    if (!probeBucket(b1) && b2 != b1) {
        ++secondBucketProbes;
        probeBucket(b2);
    }

    // Release every lock taken during the query (SS4.4: "the locked
    // state ... will not be cleared until the end of the query").
    for (std::size_t i = 0; i < numLocked; ++i)
        hier.unlockLine(locked[i]);
    if (cfg.useHardwareLock && numLocked > 0) {
        now += cfg.lockCycles;
        result.breakdown.locking += cfg.lockCycles;
    }
}

void
HaloAccelerator::runTreeWalk(const TreeHeader &hdr, Addr key_addr,
                             Cycles &now, QueryResult &result)
{
    // Fetch the key.
    std::uint8_t key[64];
    HALO_ASSERT(hdr.keyLen <= sizeof(key));
    const AccessResult key_acc = hier.chaAccess(slice, key_addr, false);
    mem.read(key_addr, key, hdr.keyLen);
    now += key_acc.latency;
    result.breakdown.keyFetch += key_acc.latency;
    result.primaryHash =
        hashBytes(HashKind::XxMix, 0,
                  std::span<const std::uint8_t>(key, hdr.keyLen));

    const Addr node_base = hdr.rootAddr;
    const Addr node_end =
        node_base + static_cast<Addr>(hdr.numNodes) * cacheLineBytes;
    const Addr rule_base = hdr.ruleArrayAddr;
    const Addr rule_end =
        rule_base +
        static_cast<Addr>(hdr.numRules) * hdr.ruleRecordBytes;

    // Walk internal nodes: one data fetch + one comparator op each.
    std::uint64_t node = 0;
    for (unsigned depth = 0; depth < 64; ++depth) {
        const Addr naddr = node_base + node * cacheLineBytes;
        if (naddr < node_base || naddr + cacheLineBytes > node_end) {
            ++boundsViolationCount;
            return;
        }
        const AccessResult acc = hier.chaAccess(slice, naddr, false);
        now += acc.latency + cfg.sigCompareCycles;
        result.breakdown.dataAccess += acc.latency;
        result.breakdown.compute += cfg.sigCompareCycles;

        if (mem.load<std::uint8_t>(naddr) == 1) {
            // Leaf: compare rule records until the first (highest
            // priority) match. The wide comparator masks and compares
            // a whole record in a couple of cycles.
            const unsigned count = mem.load<std::uint8_t>(naddr + 3);
            for (unsigned i = 0; i < count; ++i) {
                const std::uint32_t rid =
                    mem.load<std::uint32_t>(naddr + 12 + 4 * i);
                const Addr rec =
                    rule_base +
                    static_cast<Addr>(rid) * hdr.ruleRecordBytes;
                if (rec < rule_base ||
                    rec + hdr.ruleRecordBytes > rule_end) {
                    ++boundsViolationCount;
                    continue;
                }
                const AccessResult racc =
                    hier.chaAccess(slice, rec, false);
                now += racc.latency + 2 * cfg.sigCompareCycles;
                result.breakdown.dataAccess += racc.latency;
                result.breakdown.compute += 2 * cfg.sigCompareCycles;

                bool match = true;
                for (unsigned b = 0; b < hdr.keyLen && match; ++b) {
                    const auto mask_byte =
                        mem.load<std::uint8_t>(rec + 16 + b);
                    const auto want = mem.load<std::uint8_t>(rec + b);
                    match = (key[b] & mask_byte) == want;
                }
                if (match) {
                    result.found = true;
                    const Action action{
                        static_cast<ActionKind>(
                            mem.load<std::uint8_t>(rec + 36)),
                        mem.load<std::uint16_t>(rec + 34)};
                    result.value = encodeRuleValue(
                        action, mem.load<std::uint16_t>(rec + 32));
                    return;
                }
            }
            return;
        }

        const std::uint8_t cut = mem.load<std::uint8_t>(naddr + 1);
        const std::uint8_t threshold =
            mem.load<std::uint8_t>(naddr + 2);
        const std::uint32_t next =
            key[cut] < threshold
                ? mem.load<std::uint32_t>(naddr + 4)
                : mem.load<std::uint32_t>(naddr + 8);
        if (next == 0) {
            ++boundsViolationCount;
            return;
        }
        node = next - 1;
    }
}

QueryResult
HaloAccelerator::execute(Addr table_addr, Addr key_addr, Cycles arrival)
{
    ++queries;
    QueryResult result;

    // --- Scoreboard admission (busy-bit backpressure). ---
    auto slot = std::min_element(scoreboardFreeAt.begin(),
                                 scoreboardFreeAt.end());
    result.accepted = std::max(arrival, *slot);

    // --- Serial execution engine. ---
    const Cycles start = std::max(result.accepted, engineFreeAt);
    result.breakdown.queueing = start - arrival;
    Cycles now = start + cfg.queryOverheadCycles;
    result.breakdown.compute += cfg.queryOverheadCycles;

    // 1. Metadata line (dedicated metadata cache), then dispatch the
    //    microprogram on its magic word: hash table or decision tree
    //    (paper SS4.8 extends HALO to tree lookups).
    std::array<std::uint8_t, cacheLineBytes> blob;
    const Cycles md_lat = fetchMetadata(table_addr, blob);
    now += md_lat;
    result.breakdown.metadata += md_lat;

    std::uint32_t magic;
    std::memcpy(&magic, blob.data(), sizeof(magic));
    if (magic == tableMagic) {
        TableMetadata md;
        std::memcpy(&md, blob.data(), sizeof(md));
        runHashLookup(md, key_addr, now, result);
    } else if (magic == treeMagic) {
        TreeHeader hdr;
        std::memcpy(&hdr, blob.data(), sizeof(hdr));
        runTreeWalk(hdr, key_addr, now, result);
    } else {
        panic("HALO query against a non-table address ", table_addr);
    }

    if (result.found)
        ++hitsFound;

    result.finished = now;
    engineFreeAt = now;
    *slot = now; // scoreboard slot drains when the query completes
    return result;
}

void
HaloAccelerator::drain()
{
    engineFreeAt = 0;
    std::fill(scoreboardFreeAt.begin(), scoreboardFreeAt.end(), 0);
    metadataCache.clear();
}

} // namespace halo

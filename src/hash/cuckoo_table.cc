#include "hash/cuckoo_table.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>

#include "hash/bucket_scan.hh"
#include "sim/logging.hh"

namespace halo {

CuckooHashTable::CuckooHashTable(SimMemory &memory, const Config &config)
    : mem(memory)
{
    HALO_ASSERT(config.keyLen >= 4 && config.keyLen <= 64,
                "key length must be 4..64 bytes");
    HALO_ASSERT(config.capacity > 0);
    HALO_ASSERT(config.maxLoadFactor > 0.05 &&
                config.maxLoadFactor <= 0.96);

    const std::uint64_t wanted_entries = static_cast<std::uint64_t>(
        static_cast<double>(config.capacity) / config.maxLoadFactor);
    std::uint64_t buckets =
        nextPowerOfTwo(ceilDiv(wanted_entries, entriesPerBucket));
    if (buckets < 2)
        buckets = 2; // two distinct candidate buckets need >= 2

    md.magic = tableMagic;
    md.keyLen = config.keyLen;
    md.numBuckets = buckets;
    md.bucketMask = buckets - 1;
    md.kvSlots = config.capacity;
    md.kvSlotBytes = kvSlotBytesFor(config.keyLen);
    md.hashKind = static_cast<std::uint16_t>(config.hashKind);
    md.flags = config.negativeFilter ? tableFlagNegativeFilter : 0;
    md.seed = config.seed;

    // Metadata (2 lines: metadata + version lock), buckets, kv array.
    mdAddr = mem.allocate(2 * cacheLineBytes, cacheLineBytes);
    md.bucketArrayAddr =
        mem.allocate(buckets * cacheLineBytes, cacheLineBytes);
    md.kvArrayAddr = mem.allocate(md.kvSlots * md.kvSlotBytes,
                                  cacheLineBytes);

    mem.store(mdAddr, md);
    mem.store<std::uint64_t>(versionAddr(), 0);
    mem.zero(md.bucketArrayAddr, buckets * cacheLineBytes);

    freeSlots.reserve(md.kvSlots);
    for (std::uint64_t s = md.kvSlots; s > 0; --s)
        freeSlots.push_back(static_cast<std::uint32_t>(s - 1));

    negFilter_ = config.negativeFilter;
}

std::uint64_t
CuckooHashTable::primaryBucket(KeyView key, std::uint32_t &sig) const
{
    const std::uint64_t h =
        hashBytes(static_cast<HashKind>(md.hashKind), md.seed, key);
    // Negative-filter layout: the top sig byte is aux, so the stored
    // (and compared, and alternate-deriving) signature is 24 bits.
    sig = tableSignature(h, negFilter_);
    return h & md.bucketMask;
}

const std::uint8_t *
CuckooHashTable::bucketLine(std::uint64_t bucket) const
{
    return mem.lineView(bucketAddr(md, bucket)).data();
}

BucketEntry
CuckooHashTable::entryIn(const std::uint8_t *line, unsigned way)
{
    BucketEntry entry;
    std::memcpy(&entry, line + way * bucketEntryBytes, sizeof(entry));
    return entry;
}

unsigned
CuckooHashTable::sigScan(const std::uint8_t *line, std::uint32_t sig) const
{
    // Branchless over all 8 ways: the per-way occupied/signature branch
    // of the naive scan is data-dependent random on big tables, and the
    // resulting mispredicts serialize the lookup's memory chain. SIMD
    // when the build carries it (bucket_scan.hh). The negative-filter
    // layout compares only the low 24 sig bits (the top byte is aux).
    return negFilter_ ? scanBucketSigsMasked(line, sig)
                      : scanBucketSigs(line, sig);
}

BucketEntry
CuckooHashTable::entryAt(const std::uint8_t *line, unsigned way) const
{
    BucketEntry entry = entryIn(line, way);
    if (negFilter_)
        entry.sig &= sig24Mask;
    return entry;
}

BucketEntry
CuckooHashTable::readEntry(std::uint64_t bucket, unsigned way) const
{
    return entryAt(bucketLine(bucket), way);
}

void
CuckooHashTable::writeEntry(std::uint64_t bucket, unsigned way,
                            const BucketEntry &entry)
{
    BucketEntry stored = entry;
    if (negFilter_) {
        // The aux byte (Bloom) shares the entry word: carry
        // the current one through the store.
        const std::uint8_t aux =
            bucketLine(bucket)[way * bucketEntryBytes + auxByteInEntry];
        stored.sig = (entry.sig & sig24Mask) |
                     (static_cast<std::uint32_t>(aux) << 24);
    }
    if (concurrent_) [[unlikely]] {
        // Entries are exactly one aligned word, so the store itself is
        // atomic — a reader that races the write window never sees a
        // torn entry, only a seqlock counter mismatch.
        std::uint64_t word;
        std::memcpy(&word, &stored, sizeof(word));
        mem.storeWordAtomic(bucketEntryAddr(md, bucket, way), word);
        return;
    }
    mem.store(bucketEntryAddr(md, bucket, way), stored);
}

void
CuckooHashTable::auxByteStore(std::uint64_t bucket, unsigned aux_index,
                              std::uint8_t v)
{
    const Addr entry_addr = bucketEntryAddr(md, bucket, aux_index);
    if (concurrent_) [[unlikely]] {
        // Word RMW under the caller-held seqlock so concurrent readers
        // word-copying the line stay race-free.
        alignas(8) std::uint8_t word[8];
        mem.readAtomic(entry_addr, word, 8);
        word[auxByteInEntry] = v;
        std::uint64_t w;
        std::memcpy(&w, word, 8);
        mem.storeWordAtomic(entry_addr, w);
        return;
    }
    mem.store<std::uint8_t>(entry_addr + auxByteInEntry, v);
}

void
CuckooHashTable::bloomAdd(std::uint64_t bucket, std::uint32_t sig,
                          AccessTrace *trace)
{
    const std::uint32_t bits = bloomBitsForSig(sig & sig24Mask);
    const std::uint8_t *line = bucketLine(bucket);
    const std::uint32_t bloom = auxBloomOf(line);
    if ((bloom & bits) == bits)
        return; // both bits already set
    const std::uint32_t updated = bloom | bits;
    for (unsigned i = 0; i < 4; ++i) {
        const auto b = static_cast<std::uint8_t>(updated >> (8 * i));
        if (b != static_cast<std::uint8_t>(bloom >> (8 * i)))
            auxByteStore(bucket, i, b);
    }
    recordRef(trace, bucketAddr(md, bucket) + auxByteOffset(0), 1, true,
              AccessPhase::Bucket);
}

bool
CuckooHashTable::bloomMayContain(const std::uint8_t *line,
                                 std::uint32_t sig)
{
    const std::uint32_t bits = bloomBitsForSig(sig & sig24Mask);
    return (auxBloomOf(line) & bits) == bits;
}

void
CuckooHashTable::txBegin(std::uint64_t a, std::uint64_t b)
{
    if (!concurrent_) [[likely]]
        return;
    // One write section spanning every store of a mutation: a
    // writeBegin per store would nest and break the odd-means-writing
    // invariant, so each mutation locks the affected buckets once and
    // stores inside.
    seq_.writeBegin(a);
    if (b != a)
        seq_.writeBegin(b);
}

void
CuckooHashTable::txEnd(std::uint64_t a, std::uint64_t b)
{
    if (!concurrent_) [[likely]]
        return;
    if (b != a)
        seq_.writeEnd(b);
    seq_.writeEnd(a);
}

void
CuckooHashTable::enableConcurrent()
{
    HALO_ASSERT(!concurrent_, "concurrent mode enabled twice");
    seq_.reset(md.numBuckets);
    concurrent_ = true;
}

void
CuckooHashTable::debugSeqWriteBegin(KeyView key)
{
    HALO_ASSERT(concurrent_, "seqlock hooks need concurrent mode");
    std::uint32_t sig = 0;
    seq_.writeBegin(primaryBucket(key, sig));
}

void
CuckooHashTable::debugSeqWriteEnd(KeyView key)
{
    HALO_ASSERT(concurrent_, "seqlock hooks need concurrent mode");
    std::uint32_t sig = 0;
    seq_.writeEnd(primaryBucket(key, sig));
}

namespace {

/** memcmp with a runtime length is a real library call; the canonical
 *  16-byte flow key deserves two inline word compares instead. */
inline bool
bytesEqual(const std::uint8_t *a, const std::uint8_t *b,
           std::uint32_t len)
{
    if (len == 16) [[likely]] {
        std::uint64_t a0, a1, b0, b1;
        std::memcpy(&a0, a, 8);
        std::memcpy(&a1, a + 8, 8);
        std::memcpy(&b0, b, 8);
        std::memcpy(&b1, b + 8, 8);
        return ((a0 ^ b0) | (a1 ^ b1)) == 0;
    }
    return std::memcmp(a, b, len) == 0;
}

} // namespace

bool
CuckooHashTable::keyMatches(std::uint32_t slot, KeyView key) const
{
    const Addr key_src = kvSlotAddr(md, slot) + kvKeyOffset;
    // KV slots are packed, so a slot occasionally straddles a page; only
    // then pay a bounce-buffer copy.
    if (const std::uint8_t *stored = mem.rangeView(key_src, md.keyLen))
        return bytesEqual(key.data(), stored, md.keyLen);
    std::uint8_t stored[64];
    mem.read(key_src, stored, md.keyLen);
    return bytesEqual(key.data(), stored, md.keyLen);
}

std::optional<CuckooHashTable::Located>
CuckooHashTable::find(KeyView key, std::uint32_t sig, std::uint64_t b1,
                      std::uint64_t b2) const
{
    for (std::uint64_t bucket : {b1, b2}) {
        const std::uint8_t *line = bucketLine(bucket);
        for (unsigned mask = sigScan(line, sig); mask;
             mask &= mask - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(mask));
            const BucketEntry entry = entryAt(line, way);
            if (keyMatches(entry.kvRef - 1, key))
                return Located{bucket, way, entry.kvRef - 1};
        }
        if (b1 == b2)
            break;
    }
    return std::nullopt;
}

std::optional<std::uint64_t>
CuckooHashTable::probeConcurrent(const std::uint8_t *key, std::uint32_t sig,
                                 std::uint64_t b1) const
{
    const std::uint64_t b2 = alternativeBucket(b1, sig, md.bucketMask);

    for (;;) {
        // Both candidate counters are snapshotted up front even when
        // the Bloom skips the alternate: any mutation of this key's
        // pair (displacement, insert, erase) runs under at least one of
        // the two seqlocks, so validating both makes the single-bucket
        // miss safe against a concurrently moving key.
        const std::uint32_t v1 = seq_.readBegin(b1);
        const std::uint32_t v2 = b2 == b1 ? v1 : seq_.readBegin(b2);
        if ((v1 | v2) & 1u) { // writer mid-mutation: don't bother
            seqRetries_.fetch_add(1, std::memory_order_relaxed);
            cpuRelax();
            continue;
        }

        bool hit = false;
        bool stale = false;
        std::uint64_t value = 0;

        const auto probe_bucket = [&](std::uint64_t bucket,
                                      std::uint8_t *line_out) {
            alignas(8) std::uint8_t line_buf[cacheLineBytes];
            std::uint8_t *line = line_out ? line_out : line_buf;
            mem.readAtomic(bucketAddr(md, bucket), line, cacheLineBytes);
            for (unsigned mask = sigScan(line, sig);
                 mask && !hit && !stale; mask &= mask - 1) {
                const unsigned way =
                    static_cast<unsigned>(std::countr_zero(mask));
                const BucketEntry entry = entryAt(line, way);
                // Entries are single-word atomic so they cannot tear,
                // but stay defensive about indices read mid-mutation:
                // validation below rejects the attempt anyway.
                if (entry.kvRef == 0 || entry.kvRef > md.kvSlots) {
                    stale = true;
                    break;
                }
                const Addr slot_addr = kvSlotAddr(md, entry.kvRef - 1);
                alignas(8) std::uint8_t slot[8 + 64];
                mem.readAtomic(slot_addr, slot, md.kvSlotBytes);
                if (bytesEqual(key, slot + kvKeyOffset, md.keyLen)) {
                    std::memcpy(&value, slot + kvValueOffset,
                                sizeof(value));
                    hit = true;
                }
            }
        };

        // Keep the primary line snapshot around: the Cuckoo++ Bloom
        // that gates the alternate probe lives in it.
        alignas(8) std::uint8_t line1[cacheLineBytes];
        probe_bucket(b1, line1);
        if (!hit && !stale && b2 != b1 &&
            (!negFilter_ || bloomMayContain(line1, sig)))
            probe_bucket(b2, nullptr);

        // Order the data loads above before the counter re-check.
        std::atomic_thread_fence(std::memory_order_acquire);
        if (stale || seq_.readRetry(b1, v1) ||
            (b2 != b1 && seq_.readRetry(b2, v2))) {
            seqRetries_.fetch_add(1, std::memory_order_relaxed);
            cpuRelax();
            continue;
        }

        if (!hit)
            return std::nullopt;
        return value;
    }
}

std::uint32_t
CuckooHashTable::lookupUntracedBulk(const std::uint8_t *const *keys,
                                    std::size_t n,
                                    std::uint64_t *values) const
{
    HALO_ASSERT(n <= maxBulkLanes, "bulk lookup burst too large");

    if (concurrent_) [[unlikely]] {
        // The pipelined stages below read lines through plain loads;
        // under a concurrent writer every lane must take the
        // seqlock-validated probe instead. Its memory latency still
        // overlaps across lanes: hash every key and prefetch both
        // candidate buckets' seqlock counters and lines (the primary
        // line only with the negative filter, as below) before the
        // first lane is validated.
        std::uint32_t sigs[maxBulkLanes];
        std::uint64_t b1s[maxBulkLanes];
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t b1 =
                primaryBucket(KeyView(keys[i], md.keyLen), sigs[i]);
            const std::uint64_t b2 =
                alternativeBucket(b1, sigs[i], md.bucketMask);
            b1s[i] = b1;
            seq_.prefetch(b1);
            __builtin_prefetch(bucketLine(b1), 0, 3);
            if (b2 != b1) {
                seq_.prefetch(b2);
                if (!negFilter_)
                    __builtin_prefetch(bucketLine(b2), 0, 3);
            }
        }
        std::uint32_t found = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (const auto v = probeConcurrent(keys[i], sigs[i], b1s[i])) {
                values[i] = *v;
                found |= 1u << i;
            }
        }
        return found;
    }

    struct Lane
    {
        std::uint64_t b1, b2;
        const std::uint8_t *line1, *line2;
        /// Pre-translated host pointer of the first primary-bucket
        /// candidate's kv slot (nullptr: none, or page-straddling).
        const std::uint8_t *cand0;
        std::uint32_t sig;
        unsigned mask1;
    };
    Lane lanes[maxBulkLanes];

    // --- Stage 0: hash every key and prefetch both candidate bucket
    //     lines. By the time stage 1 reads lane 0's line, the other
    //     n-1 hashes have hidden most of its memory latency. With the
    //     negative filter only the primary line is prefetched here:
    //     most lanes end there, and stage 2a fetches the alternate of
    //     the lanes whose Bloom admits it. ---
    for (std::size_t i = 0; i < n; ++i) {
        Lane &ln = lanes[i];
        ln.b1 = primaryBucket(KeyView(keys[i], md.keyLen), ln.sig);
        ln.b2 = alternativeBucket(ln.b1, ln.sig, md.bucketMask);
        ln.line1 = bucketLine(ln.b1);
        ln.line2 = bucketLine(ln.b2);
        __builtin_prefetch(ln.line1, 0, 3);
        if (ln.b2 != ln.b1 && !negFilter_)
            __builtin_prefetch(ln.line2, 0, 3);
    }

    // --- Stage 1: branchless signature scan over the (now likely
    //     cached) primary bucket line only — cuckoo hits land in the
    //     primary bucket most of the time. Prefetch the candidate kv
    //     slots and keep the first one's translation so stage 2
    //     doesn't redo it.
    //
    //     The kv prefetch is worth ~15% when the slot array spills out
    //     of the LLC but costs more than it hides on cache-resident
    //     tables (the demand loads already overlap across lanes there),
    //     so it is gated on table footprint. ---
    const std::uint64_t kv_bytes = md.kvSlots * md.kvSlotBytes;
    const bool kv_prefetch = kv_bytes > (4ull << 20); // ~LLC-sized
    for (std::size_t i = 0; i < n; ++i) {
        Lane &ln = lanes[i];
        ln.mask1 = sigScan(ln.line1, ln.sig);
        ln.cand0 = nullptr;
        if (!kv_prefetch)
            continue;
        for (unsigned mask = ln.mask1; mask; mask &= mask - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(mask));
            const BucketEntry entry = entryIn(ln.line1, way);
            const Addr slot_addr = kvSlotAddr(md, entry.kvRef - 1);
            const std::uint8_t *p =
                mem.rangeView(slot_addr, md.kvSlotBytes);
            if (!p)
                continue; // page-straddling slot: stage 2 bounces it
            __builtin_prefetch(p, 0, 3);
            const auto a = reinterpret_cast<std::uintptr_t>(p);
            if ((a ^ (a + md.kvSlotBytes - 1)) >> 6)
                __builtin_prefetch(p + md.kvSlotBytes - 1, 0, 3);
            if (mask == ln.mask1)
                ln.cand0 = p; // first candidate, probe order
        }
    }

    std::uint32_t found = 0;

    // --- Stage 2, split in three sub-passes so the alternate-bucket
    //     lanes (displaced keys) get the same memory-level parallelism
    //     as the primary-bucket ones instead of a serialized line+slot
    //     chain per lane. Probe order across buckets doesn't matter: a
    //     key lives in at most one slot, so whichever pass finds it is
    //     the unique answer. ---
    auto probe = [&](std::size_t i, const std::uint8_t *line,
                     unsigned way, const std::uint8_t *known,
                     std::uint64_t &value) {
        const BucketEntry entry = entryIn(line, way);
        const Addr slot_addr = kvSlotAddr(md, entry.kvRef - 1);
        const std::uint8_t *slot =
            known ? known : mem.rangeView(slot_addr, md.kvSlotBytes);
        std::uint8_t bounce[8 + 64];
        if (!slot) [[unlikely]] { // slot straddles a page
            mem.read(slot_addr, bounce, md.kvSlotBytes);
            slot = bounce;
        }
        if (!bytesEqual(keys[i], slot + kvKeyOffset, md.keyLen))
            return false;
        std::memcpy(&value, slot + kvValueOffset, sizeof(value));
        return true;
    };

    // 2a: primary-bucket compares; collect the lanes that miss.
    std::uint8_t pending[maxBulkLanes];
    unsigned mask2[maxBulkLanes];
    std::size_t npending = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Lane &ln = lanes[i];
        bool hit = false;
        std::uint64_t value = 0;
        for (unsigned mask = ln.mask1; mask && !hit; mask &= mask - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(mask));
            hit = probe(i, ln.line1, way,
                        mask == ln.mask1 ? ln.cand0 : nullptr, value);
        }
        if (hit) {
            values[i] = value;
            found |= 1u << i;
        } else if (ln.b2 != ln.b1 &&
                   (!negFilter_ || bloomMayContain(ln.line1, ln.sig))) {
            if (negFilter_)
                __builtin_prefetch(ln.line2, 0, 3);
            pending[npending++] = static_cast<std::uint8_t>(i);
        }
    }

    // 2b: one shared alternate-bucket pass — scan every pending
    //     lane's second line (prefetched since stage 0) and get its
    //     kv slots in flight together.
    for (std::size_t p = 0; p < npending; ++p) {
        Lane &ln = lanes[pending[p]];
        mask2[p] = sigScan(ln.line2, ln.sig);
        for (unsigned mask = mask2[p]; mask; mask &= mask - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(mask));
            const BucketEntry entry = entryIn(ln.line2, way);
            const std::uint8_t *ptr = mem.rangeView(
                kvSlotAddr(md, entry.kvRef - 1), md.kvSlotBytes);
            if (ptr)
                __builtin_prefetch(ptr, 0, 3);
        }
    }

    // 2c: alternate-bucket compares over the warm slots.
    for (std::size_t p = 0; p < npending; ++p) {
        const std::size_t i = pending[p];
        Lane &ln = lanes[i];
        bool hit = false;
        std::uint64_t value = 0;
        for (unsigned mask = mask2[p]; mask && !hit; mask &= mask - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(mask));
            hit = probe(i, ln.line2, way, nullptr, value);
        }
        if (hit) {
            values[i] = value;
            found |= 1u << i;
        }
    }
    return found;
}

std::optional<std::uint64_t>
CuckooHashTable::lookup(KeyView key, AccessTrace *trace,
                        Addr key_addr) const
{
    HALO_ASSERT(key.size() == md.keyLen, "key length mismatch");

    std::uint32_t sig = 0;
    const std::uint64_t b1 = primaryBucket(key, sig);
    if (concurrent_) [[unlikely]] {
        // Concurrent tables serve the host data path; the timing models
        // price only single-threaded tables' streams.
        HALO_ASSERT(!trace, "a concurrent table records no trace");
        return probeConcurrent(key.data(), sig, b1);
    }

    // Metadata is consulted first (hot in L1 for the software path).
    recordRef(trace, mdAddr, cacheLineBytes, false, AccessPhase::Metadata);
    // Optimistic lock: sample the version counter.
    recordRef(trace, versionAddr(), 8, false, AccessPhase::Lock);
    // Fetch the key itself. Keys produced by header extraction live on
    // the stack; callers with an in-memory key pass its real address via
    // key_addr so the timing model sees the true location.
    recordRef(trace, key_addr, static_cast<std::uint16_t>(md.keyLen),
              false, AccessPhase::KeyFetch);

    const std::uint64_t b2 = alternativeBucket(b1, sig, md.bucketMask);
    // Probe branches on tiny tables are learnable by the predictor.
    const bool low_entropy = md.numBuckets <= 8;
    const auto record = [&](Addr addr, std::uint16_t size, AccessPhase phase,
                            bool depends) {
        if (!trace)
            return;
        recordRef(trace, addr, size, false, phase, depends);
        trace->back().lowEntropyBranch = low_entropy;
    };

    std::optional<std::uint64_t> found;
    for (const std::uint64_t bucket : {b1, b2}) {
        // DPDK software-prefetches both candidate buckets, so the two
        // bucket loads are independent of each other; each kv probe
        // depends on its bucket's contents.
        record(bucketAddr(md, bucket), cacheLineBytes, AccessPhase::Bucket,
               /*depends=*/bucket == b1);
        const std::uint8_t *line = bucketLine(bucket);
        for (unsigned mask = sigScan(line, sig); mask && !found;
             mask &= mask - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(mask));
            const Addr slot_addr =
                kvSlotAddr(md, entryIn(line, way).kvRef - 1);
            record(slot_addr, static_cast<std::uint16_t>(md.kvSlotBytes),
                   AccessPhase::KeyValue, /*depends=*/true);
            // One view over the whole kv slot serves both the key
            // compare and the value fetch.
            const std::uint8_t *slot =
                mem.rangeView(slot_addr, md.kvSlotBytes);
            std::uint8_t bounce[8 + 64];
            if (!slot) [[unlikely]] { // slot straddles a page
                mem.read(slot_addr, bounce, md.kvSlotBytes);
                slot = bounce;
            }
            if (bytesEqual(key.data(), slot + kvKeyOffset, md.keyLen)) {
                std::uint64_t value;
                std::memcpy(&value, slot + kvValueOffset, sizeof(value));
                found = value;
            }
        }
        // Cuckoo++ early termination: a primary miss proceeds to the
        // alternate only when the Bloom of signatures displaced OUT of
        // the primary admits the probe signature. Displaced keys always
        // leave their bits behind, so a clear Bloom makes the one-bucket
        // miss definitive.
        if (found || b1 == b2 ||
            (negFilter_ && !bloomMayContain(line, sig)))
            break;
    }

    // Optimistic lock: re-validate the version counter.
    recordRef(trace, versionAddr(), 8, false, AccessPhase::Lock);
    return found;
}

std::uint32_t
CuckooHashTable::allocSlot()
{
    HALO_ASSERT(!freeSlots.empty(), "kv array exhausted");
    const std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();
    return slot;
}

void
CuckooHashTable::freeSlot(std::uint32_t slot)
{
    freeSlots.push_back(slot);
}

void
CuckooHashTable::bumpVersion(AccessTrace *trace)
{
    const std::uint64_t v = mem.load<std::uint64_t>(versionAddr());
    mem.store<std::uint64_t>(versionAddr(), v + 1);
    recordRef(trace, versionAddr(), 8, true, AccessPhase::Lock);
}

bool
CuckooHashTable::makeRoom(std::uint64_t start_bucket, AccessTrace *trace)
{
    // BFS over displacement candidates: each frontier node is a bucket
    // slot whose occupant could move to its alternative bucket.
    struct Node
    {
        std::uint64_t bucket;
        unsigned way;
        int parent; ///< index into `nodes`, -1 for roots
    };
    constexpr unsigned maxNodes = 2048;

    std::vector<Node> nodes;
    std::deque<int> frontier;
    // Each bucket is expanded at most once so a displacement path never
    // visits the same slot twice (the alternative-bucket XOR is an
    // involution, so unrestricted BFS could cycle back).
    std::vector<std::uint64_t> visited{start_bucket};
    for (unsigned way = 0; way < entriesPerBucket; ++way) {
        nodes.push_back(Node{start_bucket, way, -1});
        frontier.push_back(static_cast<int>(nodes.size() - 1));
    }

    int free_node = -1;
    std::uint64_t free_bucket = 0;
    unsigned free_way = 0;

    while (!frontier.empty() && nodes.size() < maxNodes) {
        const int idx = frontier.front();
        frontier.pop_front();
        const Node node = nodes[idx];

        const BucketEntry entry = readEntry(node.bucket, node.way);
        HALO_ASSERT(entry.kvRef != 0, "BFS reached an empty slot early");
        const std::uint64_t alt =
            alternativeBucket(node.bucket, entry.sig, md.bucketMask);
        recordRef(trace, bucketAddr(md, alt), cacheLineBytes, false,
                  AccessPhase::Bucket);
        if (alt == node.bucket ||
            std::find(visited.begin(), visited.end(), alt) !=
                visited.end()) {
            continue;
        }
        bool found_free = false;
        for (unsigned way = 0; way < entriesPerBucket; ++way) {
            const BucketEntry alt_entry = readEntry(alt, way);
            if (alt_entry.kvRef == 0) {
                free_node = idx;
                free_bucket = alt;
                free_way = way;
                found_free = true;
                break;
            }
        }
        if (found_free)
            break;
        visited.push_back(alt);
        for (unsigned way = 0; way < entriesPerBucket; ++way) {
            nodes.push_back(Node{alt, way, idx});
            frontier.push_back(static_cast<int>(nodes.size() - 1));
        }
    }

    if (free_node < 0)
        return false;

    // Walk the path backwards, moving each occupant into the hole ahead
    // of it (the "cuckoo move" of Fig. 7a).
    int idx = free_node;
    while (idx >= 0) {
        const Node node = nodes[idx];
        const BucketEntry entry = readEntry(node.bucket, node.way);
        bool leaves_primary = false;
        if (negFilter_) [[unlikely]] {
            // The Bloom tracks keys displaced out of their PRIMARY
            // bucket, which only the key's full hash reveals: fetch
            // the moved key back out of its kv slot.
            const Addr slot_addr = kvSlotAddr(md, entry.kvRef - 1);
            std::uint8_t keybuf[64];
            mem.read(slot_addr + kvKeyOffset, keybuf, md.keyLen);
            recordRef(trace, slot_addr,
                      static_cast<std::uint16_t>(md.kvSlotBytes), false,
                      AccessPhase::KeyValue);
            std::uint32_t moved_sig = 0;
            const std::uint64_t primary =
                primaryBucket(KeyView(keybuf, md.keyLen), moved_sig);
            HALO_ASSERT(node.bucket == primary ||
                            free_bucket == primary,
                        "cuckoo move outside the key's bucket pair");
            leaves_primary = free_bucket != primary;
        }

        // Both the vacated and the filled bucket mutate inside one
        // write section, so an optimistic reader holding either
        // counter of the pair observes the move atomically.
        txBegin(free_bucket, node.bucket);
        writeEntry(free_bucket, free_way, entry);
        writeEntry(node.bucket, node.way, BucketEntry{});
        // Displaced OUT of its primary (then node.bucket): the primary's
        // Bloom keeps the crumb.
        if (leaves_primary)
            bloomAdd(node.bucket, entry.sig, trace);
        txEnd(free_bucket, node.bucket);
        recordRef(trace, bucketEntryAddr(md, free_bucket, free_way),
                  bucketEntryBytes, true, AccessPhase::Bucket);
        recordRef(trace, bucketEntryAddr(md, node.bucket, node.way),
                  bucketEntryBytes, true, AccessPhase::Bucket);
        ++displaceCount;
        free_bucket = node.bucket;
        free_way = node.way;
        idx = node.parent;
    }
    movesPub_.set(displaceCount);
    HALO_ASSERT(free_bucket == start_bucket,
                "displacement path must end at the requested bucket");
    return true;
}

bool
CuckooHashTable::insert(KeyView key, std::uint64_t value,
                        AccessTrace *trace)
{
    HALO_ASSERT(key.size() == md.keyLen, "key length mismatch");

    std::uint32_t sig = 0;
    const std::uint64_t b1 = primaryBucket(key, sig);
    const std::uint64_t b2 = alternativeBucket(b1, sig, md.bucketMask);

    recordRef(trace, mdAddr, cacheLineBytes, false, AccessPhase::Metadata);
    recordRef(trace, bucketAddr(md, b1), cacheLineBytes, false,
              AccessPhase::Bucket, true);
    recordRef(trace, bucketAddr(md, b2), cacheLineBytes, false,
              AccessPhase::Bucket);

    // Update in place when the key already exists.
    if (auto loc = find(key, sig, b1, b2)) {
        bumpVersion(trace);
        if (concurrent_) [[unlikely]] {
            // The slot is referenced by a live bucket entry, so a
            // reader may be copying it: gate the value store on the
            // owning bucket's seqlock.
            seq_.writeBegin(loc->bucket);
            mem.storeWordAtomic(kvSlotAddr(md, loc->slot) +
                                    kvValueOffset,
                                value);
            seq_.writeEnd(loc->bucket);
        } else {
            mem.store(kvSlotAddr(md, loc->slot) + kvValueOffset, value);
        }
        recordRef(trace, kvSlotAddr(md, loc->slot), 8, true,
                  AccessPhase::KeyValue, true);
        bumpVersion(trace);
        return true;
    }

    if (numItems >= md.kvSlots)
        return false; // kv array full

    // Find a free way in either candidate bucket.
    std::uint64_t target_bucket = b1;
    int target_way = -1;
    for (std::uint64_t bucket : {b1, b2}) {
        for (unsigned way = 0; way < entriesPerBucket; ++way) {
            if (readEntry(bucket, way).kvRef == 0) {
                target_bucket = bucket;
                target_way = static_cast<int>(way);
                break;
            }
        }
        if (target_way >= 0 || b1 == b2)
            break;
    }

    bumpVersion(trace);
    if (target_way < 0) {
        // Both buckets full: displace recursively (BFS) to free a way in
        // the primary bucket.
        if (!makeRoom(b1, trace)) {
            bumpVersion(trace);
            return false;
        }
        target_bucket = b1;
        target_way = -1;
        for (unsigned way = 0; way < entriesPerBucket; ++way) {
            if (readEntry(b1, way).kvRef == 0) {
                target_way = static_cast<int>(way);
                break;
            }
        }
        HALO_ASSERT(target_way >= 0, "makeRoom left no free way");
    }

    const std::uint32_t slot = allocSlot();
    const Addr slot_addr = kvSlotAddr(md, slot);
    if (concurrent_) [[unlikely]] {
        // Free slots are unreferenced, so no seqlock is needed for the
        // kv write itself — but a reader chasing a stale (pre-erase)
        // entry could still be copying these bytes, so the words go in
        // atomically; that reader's bucket validation then rejects the
        // snapshot. The bucket-entry publish below is what makes the
        // slot visible, after the kv bytes are complete.
        alignas(8) std::uint8_t kv[8 + 64] = {};
        std::memcpy(kv + kvValueOffset, &value, sizeof(value));
        std::memcpy(kv + kvKeyOffset, key.data(), key.size());
        mem.writeAtomic(slot_addr, kv, md.kvSlotBytes);
    } else {
        mem.store(slot_addr + kvValueOffset, value);
        mem.write(slot_addr + kvKeyOffset, key.data(), key.size());
    }
    recordRef(trace, slot_addr, static_cast<std::uint16_t>(md.kvSlotBytes),
              true, AccessPhase::KeyValue);

    // Publish the entry in one write section over the bucket pair.
    // Landing in the alternate straight away counts as displaced out of
    // the primary, so the filter's Bloom bits go in the same section: a
    // reader that Bloom-skipped the alternate while this key was landing
    // there fails its counter validation and retries.
    txBegin(target_bucket, b1);
    writeEntry(target_bucket, static_cast<unsigned>(target_way),
                  BucketEntry{sig, slot + 1});
    if (negFilter_ && target_bucket != b1)
        bloomAdd(b1, sig, trace);
    txEnd(target_bucket, b1);
    recordRef(trace,
              bucketEntryAddr(md, target_bucket,
                              static_cast<unsigned>(target_way)),
              bucketEntryBytes, true, AccessPhase::Bucket);
    bumpVersion(trace);
    ++numItems;
    itemsPub_.set(numItems);
    return true;
}

bool
CuckooHashTable::erase(KeyView key, AccessTrace *trace)
{
    HALO_ASSERT(key.size() == md.keyLen, "key length mismatch");

    std::uint32_t sig = 0;
    const std::uint64_t b1 = primaryBucket(key, sig);
    const std::uint64_t b2 = alternativeBucket(b1, sig, md.bucketMask);

    recordRef(trace, mdAddr, cacheLineBytes, false, AccessPhase::Metadata);
    recordRef(trace, bucketAddr(md, b1), cacheLineBytes, false,
              AccessPhase::Bucket, true);

    auto loc = find(key, sig, b1, b2);
    if (!loc)
        return false;
    if (loc->bucket == b2)
        recordRef(trace, bucketAddr(md, b2), cacheLineBytes, false,
                  AccessPhase::Bucket);

    bumpVersion(trace);
    // The primary's Bloom bits stay behind: stale crumbs cost at most an
    // extra probe, never an answer.
    txBegin(loc->bucket, loc->bucket);
    writeEntry(loc->bucket, loc->way, BucketEntry{});
    txEnd(loc->bucket, loc->bucket);
    recordRef(trace, bucketEntryAddr(md, loc->bucket, loc->way),
              bucketEntryBytes, true, AccessPhase::Bucket);
    freeSlot(loc->slot);
    bumpVersion(trace);
    --numItems;
    itemsPub_.set(numItems);
    return true;
}

std::uint64_t
CuckooHashTable::footprintBytes() const
{
    return 2 * cacheLineBytes + md.numBuckets * cacheLineBytes +
           md.kvSlots * md.kvSlotBytes;
}

void
CuckooHashTable::forEachLine(const std::function<void(Addr)> &fn) const
{
    fn(mdAddr);
    fn(versionAddr());
    for (std::uint64_t b = 0; b < md.numBuckets; ++b)
        fn(bucketAddr(md, b));
    const std::uint64_t kv_bytes = md.kvSlots * md.kvSlotBytes;
    for (std::uint64_t off = 0; off < kv_bytes; off += cacheLineBytes)
        fn(md.kvArrayAddr + off);
}

} // namespace halo

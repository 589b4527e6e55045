#include "hash/sfh_table.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace halo {

SingleFunctionTable::SingleFunctionTable(SimMemory &memory,
                                         const Config &config)
    : mem(memory)
{
    HALO_ASSERT(config.keyLen >= 4 && config.keyLen <= 64);
    HALO_ASSERT(config.capacity > 0 && config.oversize >= 1.0);

    const auto wanted_entries = static_cast<std::uint64_t>(
        static_cast<double>(config.capacity) * config.oversize);
    const std::uint64_t buckets = std::max<std::uint64_t>(
        1, nextPowerOfTwo(ceilDiv(wanted_entries, entriesPerBucket)));

    md.magic = tableMagic;
    md.keyLen = config.keyLen;
    md.numBuckets = buckets;
    md.bucketMask = buckets - 1;
    md.kvSlots = config.capacity;
    md.kvSlotBytes = kvSlotBytesFor(config.keyLen);
    md.hashKind = static_cast<std::uint16_t>(config.hashKind);
    md.seed = config.seed;

    mdAddr = mem.allocate(2 * cacheLineBytes, cacheLineBytes);
    md.bucketArrayAddr =
        mem.allocate(buckets * cacheLineBytes, cacheLineBytes);
    md.kvArrayAddr =
        mem.allocate(md.kvSlots * md.kvSlotBytes, cacheLineBytes);

    mem.store(mdAddr, md);
    mem.store<std::uint64_t>(mdAddr + cacheLineBytes, 0);
    mem.zero(md.bucketArrayAddr, buckets * cacheLineBytes);

    freeSlots.reserve(md.kvSlots);
    for (std::uint64_t s = md.kvSlots; s > 0; --s)
        freeSlots.push_back(static_cast<std::uint32_t>(s - 1));
}

std::uint64_t
SingleFunctionTable::bucketOf(KeyView key, std::uint32_t &sig) const
{
    const std::uint64_t h =
        hashBytes(static_cast<HashKind>(md.hashKind), md.seed, key);
    sig = shortSignature(h);
    return h & md.bucketMask;
}

BucketEntry
SingleFunctionTable::readEntry(std::uint64_t bucket, unsigned way) const
{
    return mem.load<BucketEntry>(bucketEntryAddr(md, bucket, way));
}

bool
SingleFunctionTable::keyMatches(std::uint32_t slot, KeyView key) const
{
    const Addr key_src = kvSlotAddr(md, slot) + kvKeyOffset;
    if (const std::uint8_t *stored = mem.rangeView(key_src, md.keyLen))
        return std::memcmp(key.data(), stored, md.keyLen) == 0;
    std::uint8_t stored[64];
    mem.read(key_src, stored, md.keyLen);
    return std::memcmp(key.data(), stored, md.keyLen) == 0;
}

std::optional<std::uint64_t>
SingleFunctionTable::lookup(KeyView key, AccessTrace *trace,
                            Addr key_addr) const
{
    HALO_ASSERT(key.size() == md.keyLen, "key length mismatch");
    recordRef(trace, mdAddr, cacheLineBytes, false, AccessPhase::Metadata);
    recordRef(trace, key_addr, static_cast<std::uint16_t>(md.keyLen),
              false, AccessPhase::KeyFetch);

    std::uint32_t sig = 0;
    const std::uint64_t bucket = bucketOf(key, sig);
    recordRef(trace, bucketAddr(md, bucket), cacheLineBytes, false,
              AccessPhase::Bucket, true);

    const std::uint8_t *line = mem.lineView(bucketAddr(md, bucket)).data();
    for (unsigned way = 0; way < entriesPerBucket; ++way) {
        BucketEntry entry;
        std::memcpy(&entry, line + way * bucketEntryBytes, sizeof(entry));
        if (entry.kvRef != 0 && entry.sig == sig) {
            recordRef(trace, kvSlotAddr(md, entry.kvRef - 1),
                      static_cast<std::uint16_t>(md.kvSlotBytes), false,
                      AccessPhase::KeyValue, true);
            if (keyMatches(entry.kvRef - 1, key)) {
                return mem.load<std::uint64_t>(
                    kvSlotAddr(md, entry.kvRef - 1) + kvValueOffset);
            }
        }
    }
    return std::nullopt;
}

bool
SingleFunctionTable::insert(KeyView key, std::uint64_t value,
                            AccessTrace *trace)
{
    HALO_ASSERT(key.size() == md.keyLen, "key length mismatch");
    std::uint32_t sig = 0;
    const std::uint64_t bucket = bucketOf(key, sig);
    recordRef(trace, bucketAddr(md, bucket), cacheLineBytes, false,
              AccessPhase::Bucket, true);

    int free_way = -1;
    for (unsigned way = 0; way < entriesPerBucket; ++way) {
        const BucketEntry entry = readEntry(bucket, way);
        if (entry.kvRef == 0) {
            if (free_way < 0)
                free_way = static_cast<int>(way);
            continue;
        }
        if (entry.sig == sig && keyMatches(entry.kvRef - 1, key)) {
            mem.store(kvSlotAddr(md, entry.kvRef - 1) + kvValueOffset,
                      value);
            recordRef(trace, kvSlotAddr(md, entry.kvRef - 1), 8, true,
                      AccessPhase::KeyValue, true);
            return true;
        }
    }
    if (free_way < 0 || numItems >= md.kvSlots)
        return false; // bucket overflow: SFH cannot displace

    const std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();
    const Addr slot_addr = kvSlotAddr(md, slot);
    mem.store(slot_addr + kvValueOffset, value);
    mem.write(slot_addr + kvKeyOffset, key.data(), key.size());
    recordRef(trace, slot_addr, static_cast<std::uint16_t>(md.kvSlotBytes),
              true, AccessPhase::KeyValue);
    mem.store(bucketEntryAddr(md, bucket,
                              static_cast<unsigned>(free_way)),
              BucketEntry{sig, slot + 1});
    recordRef(trace,
              bucketEntryAddr(md, bucket, static_cast<unsigned>(free_way)),
              bucketEntryBytes, true, AccessPhase::Bucket);
    ++numItems;
    return true;
}

bool
SingleFunctionTable::erase(KeyView key, AccessTrace *trace)
{
    HALO_ASSERT(key.size() == md.keyLen, "key length mismatch");
    std::uint32_t sig = 0;
    const std::uint64_t bucket = bucketOf(key, sig);
    recordRef(trace, bucketAddr(md, bucket), cacheLineBytes, false,
              AccessPhase::Bucket, true);

    for (unsigned way = 0; way < entriesPerBucket; ++way) {
        const BucketEntry entry = readEntry(bucket, way);
        if (entry.kvRef != 0 && entry.sig == sig &&
            keyMatches(entry.kvRef - 1, key)) {
            mem.store(bucketEntryAddr(md, bucket, way), BucketEntry{});
            recordRef(trace, bucketEntryAddr(md, bucket, way),
                      bucketEntryBytes, true, AccessPhase::Bucket);
            freeSlots.push_back(entry.kvRef - 1);
            --numItems;
            return true;
        }
    }
    return false;
}

std::uint64_t
SingleFunctionTable::footprintBytes() const
{
    return 2 * cacheLineBytes + md.numBuckets * cacheLineBytes +
           md.kvSlots * md.kvSlotBytes;
}

void
SingleFunctionTable::forEachLine(const std::function<void(Addr)> &fn) const
{
    fn(mdAddr);
    for (std::uint64_t b = 0; b < md.numBuckets; ++b)
        fn(bucketAddr(md, b));
    const std::uint64_t kv_bytes = md.kvSlots * md.kvSlotBytes;
    for (std::uint64_t off = 0; off < kv_bytes; off += cacheLineBytes)
        fn(md.kvArrayAddr + off);
}

} // namespace halo

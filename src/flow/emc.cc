#include "flow/emc.hh"

#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace halo {

namespace {

/** Slot field offsets. */
constexpr std::uint64_t sigOffset = 0;
constexpr std::uint64_t genOffset = 4;
constexpr std::uint64_t keyOffset = 8;
constexpr std::uint64_t valueOffset = 24;

/** A slot's signature word holds the low 16 bits of the key's short
 *  signature (the full-key compare still gates every hit); its high 16
 *  bits stay zero. */
constexpr std::uint32_t sigMask = 0xffffu;

} // namespace

ExactMatchCache::ExactMatchCache(SimMemory &memory, std::uint64_t entries,
                                 std::uint64_t seed)
    : mem(memory), numEntries(entries), seed_(seed)
{
    HALO_ASSERT(isPowerOfTwo(entries), "EMC entry count: power of two");
    base = mem.allocate(entries * slotBytes, cacheLineBytes, "EMC slots");
    mem.zero(base, entries * slotBytes);
}

std::uint64_t
ExactMatchCache::hashKey(
    std::span<const std::uint8_t, FiveTuple::keyBytes> key) const
{
    return hashBytes(HashKind::XxMix, seed_,
                     std::span<const std::uint8_t>(key.data(),
                                                   key.size()));
}

std::optional<std::uint64_t>
ExactMatchCache::lookup(
    std::span<const std::uint8_t, FiveTuple::keyBytes> key,
    AccessTrace *trace) const
{
    const std::uint64_t h = hashKey(key);
    const std::uint32_t sig = shortSignature(h) & sigMask;
    // Two candidate positions from independent halves of the hash
    // (OVS's EMC_FOR_EACH_POS_WITH_HASH probing).
    const std::uint64_t mask = indexMask();
    const std::uint64_t idx[2] = {h & mask, (h >> 32) & mask};

    for (int probe = 0; probe < 2; ++probe) {
        const Addr slot = slotAddr(idx[probe]);
        recordRef(trace, slot, slotBytes, false, AccessPhase::Bucket,
                  probe == 0);
        // Slots are 32 B within line-aligned storage, so a slot never
        // straddles a page and the view is always direct.
        const std::uint8_t *view = mem.rangeView(slot, slotBytes);
        HALO_ASSERT(view, "EMC slot straddles a page");
        std::uint32_t slot_gen, slot_sig;
        std::memcpy(&slot_gen, view + genOffset, sizeof(slot_gen));
        if (slot_gen != generation)
            continue;
        std::memcpy(&slot_sig, view + sigOffset, sizeof(slot_sig));
        if (slot_sig != sig)
            continue;
        if (std::memcmp(view + keyOffset, key.data(), key.size()) == 0) {
            std::uint64_t value;
            std::memcpy(&value, view + valueOffset, sizeof(value));
            hits_.fetch_add(1, std::memory_order_relaxed);
            return value;
        }
        if (idx[0] == idx[1])
            break;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
}

std::uint32_t
ExactMatchCache::lookupBulk(const std::uint8_t *const *keys,
                            std::size_t n, std::uint64_t *values,
                            std::uint64_t (*slots)[2]) const
{
    HALO_ASSERT(n <= maxBulkLanes, "bulk EMC probe burst too large");

    const std::uint64_t mask = indexMask();
    std::uint32_t sigs[maxBulkLanes];

    // --- Stage 0: hash every key, prefetch both candidate slots. ---
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t h = hashKey(
            std::span<const std::uint8_t, FiveTuple::keyBytes>(
                keys[i], FiveTuple::keyBytes));
        sigs[i] = shortSignature(h) & sigMask;
        slots[i][0] = h & mask;
        slots[i][1] = (h >> 32) & mask;
        // Slot prefetch only pays once the entry array outgrows the
        // LLC; small caches are L2-resident and the demand loads in
        // stage 1 already overlap across lanes (same policy as the
        // cuckoo bulk path).
        if (numEntries * slotBytes > (4ull << 20)) {
            for (const std::uint64_t idx : slots[i]) {
                if (const std::uint8_t *p =
                        mem.rangeView(slotAddr(idx), slotBytes))
                    __builtin_prefetch(p, 0, 3);
            }
        }
    }

    // --- Stage 1: probes over warm lines, scalar control flow. ---
    std::uint32_t found = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (int probe = 0; probe < 2; ++probe) {
            const std::uint8_t *view =
                mem.rangeView(slotAddr(slots[i][probe]), slotBytes);
            HALO_ASSERT(view, "EMC slot straddles a page");
            std::uint32_t slot_gen, slot_sig;
            std::memcpy(&slot_gen, view + genOffset, sizeof(slot_gen));
            if (slot_gen != generation)
                continue;
            std::memcpy(&slot_sig, view + sigOffset, sizeof(slot_sig));
            if (slot_sig != sigs[i])
                continue;
            if (std::memcmp(view + keyOffset, keys[i],
                            FiveTuple::keyBytes) == 0) {
                std::memcpy(&values[i], view + valueOffset,
                            sizeof(values[i]));
                found |= 1u << i;
                break;
            }
            if (slots[i][0] == slots[i][1])
                break;
        }
    }
    const std::uint64_t nh = std::popcount(found);
    hits_.fetch_add(nh, std::memory_order_relaxed);
    misses_.fetch_add(n - nh, std::memory_order_relaxed);
    return found;
}

std::uint64_t
ExactMatchCache::insert(
    std::span<const std::uint8_t, FiveTuple::keyBytes> key,
    std::uint64_t value, AccessTrace *trace)
{
    const std::uint64_t h = hashKey(key);
    const std::uint32_t sig = shortSignature(h) & sigMask;
    const std::uint64_t mask = indexMask();
    const std::uint64_t idx[2] = {h & mask, (h >> 32) & mask};

    // Fill an empty slot, update a matching key, and otherwise
    // overwrite the first candidate.
    bool overwrite = true;
    Addr victim = slotAddr(idx[0]);
    for (int probe = 0; probe < 2; ++probe) {
        const Addr slot = slotAddr(idx[probe]);
        if (mem.load<std::uint32_t>(slot + genOffset) != generation ||
            (mem.load<std::uint32_t>(slot + sigOffset) == sig &&
             mem.equals(slot + keyOffset, key.data(), key.size()))) {
            victim = slot;
            overwrite = false;
            break;
        }
    }

    mem.store<std::uint32_t>(victim + sigOffset, sig);
    mem.store<std::uint32_t>(victim + genOffset, generation);
    mem.write(victim + keyOffset, key.data(), key.size());
    mem.store<std::uint64_t>(victim + valueOffset, value);
    if (overwrite)
        evictOverwrites_.add(1);
    recordRef(trace, victim, slotBytes, true, AccessPhase::Bucket);
    return (victim - base) / slotBytes;
}

} // namespace halo

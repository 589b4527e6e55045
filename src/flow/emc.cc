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

/** A slot's signature word keeps the signature in its low 16 bits and
 *  the insert epoch in its high 16. */
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
ExactMatchCache::probeConcurrent(const std::uint8_t *key,
                                 std::uint64_t h) const
{
    const std::uint64_t mask = indexMask();
    const std::uint32_t sig = shortSignature(h);
    const std::uint32_t gen = generation.load(std::memory_order_relaxed);
    const std::uint64_t idx[2] = {h & mask, (h >> 32) & mask};

    for (int probe = 0; probe < 2; ++probe) {
        const Addr slot = slotAddr(idx[probe]);
        // Per-slot seqlock read section: slots are independent, so a
        // retry re-copies only this slot.
        alignas(8) std::uint8_t view[slotBytes];
        for (;;) {
            const std::uint32_t v = seq_.readBegin(idx[probe]);
            if (v & 1u) {
                seqRetries_.fetch_add(1, std::memory_order_relaxed);
                cpuRelax();
                continue;
            }
            mem.readAtomic(slot, view, slotBytes);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (!seq_.readRetry(idx[probe], v))
                break;
            seqRetries_.fetch_add(1, std::memory_order_relaxed);
            cpuRelax();
        }
        std::uint32_t slot_gen, slot_sig;
        std::memcpy(&slot_gen, view + genOffset, sizeof(slot_gen));
        if (slot_gen != gen)
            continue;
        std::memcpy(&slot_sig, view + sigOffset, sizeof(slot_sig));
        if ((slot_sig ^ sig) & sigMask)
            continue;
        if (std::memcmp(view + keyOffset, key, FiveTuple::keyBytes) == 0) {
            std::uint64_t value;
            std::memcpy(&value, view + valueOffset, sizeof(value));
            return value;
        }
        if (idx[0] == idx[1])
            break;
    }
    return std::nullopt;
}

std::optional<std::uint64_t>
ExactMatchCache::lookup(
    std::span<const std::uint8_t, FiveTuple::keyBytes> key,
    AccessTrace *trace) const
{
    if (concurrent_) [[unlikely]] {
        HALO_ASSERT(!trace, "a concurrent EMC records no trace");
        const auto v = probeConcurrent(key.data(), hashKey(key));
        (v ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
        return v;
    }

    const std::uint64_t h = hashKey(key);
    const std::uint32_t sig = shortSignature(h);
    const std::uint32_t gen = generation.load(std::memory_order_relaxed);
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
        if (slot_gen != gen)
            continue;
        std::memcpy(&slot_sig, view + sigOffset, sizeof(slot_sig));
        if ((slot_sig ^ sig) & sigMask)
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

    if (concurrent_) [[unlikely]] {
        // Under a concurrent writer every lane takes the seqlocked
        // probe, but the lanes' memory latency still overlaps: hash
        // all of them and prefetch their slots and seqlock counters
        // first, then validate lane by lane. The prefetch is not gated
        // on footprint here: lines the writer just stored to sit in
        // its cache whatever the table size.
        std::uint64_t hashes[maxBulkLanes];
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t h = hashKey(
                std::span<const std::uint8_t, FiveTuple::keyBytes>(
                    keys[i], FiveTuple::keyBytes));
            hashes[i] = h;
            slots[i][0] = h & mask;
            slots[i][1] = (h >> 32) & mask;
            for (const std::uint64_t idx : slots[i]) {
                seq_.prefetch(idx);
                if (const std::uint8_t *p =
                        mem.rangeView(slotAddr(idx), slotBytes))
                    __builtin_prefetch(p, 0, 3);
            }
        }
        std::uint32_t found = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (const auto v = probeConcurrent(keys[i], hashes[i])) {
                values[i] = *v;
                found |= 1u << i;
            }
        }
        const std::uint64_t nh = std::popcount(found);
        hits_.fetch_add(nh, std::memory_order_relaxed);
        misses_.fetch_add(n - nh, std::memory_order_relaxed);
        return found;
    }

    const std::uint32_t gen = generation.load(std::memory_order_relaxed);

    struct Lane
    {
        std::uint64_t idx[2];
        std::uint32_t sig;
    };
    Lane lanes[maxBulkLanes];

    // --- Stage 0: hash every key, prefetch both candidate slots. ---
    for (std::size_t i = 0; i < n; ++i) {
        Lane &ln = lanes[i];
        const std::uint64_t h = hashKey(
            std::span<const std::uint8_t, FiveTuple::keyBytes>(
                keys[i], FiveTuple::keyBytes));
        ln.sig = shortSignature(h);
        ln.idx[0] = h & mask;
        ln.idx[1] = (h >> 32) & mask;
        slots[i][0] = ln.idx[0];
        slots[i][1] = ln.idx[1];
        // Slot prefetch only pays once the entry array outgrows the
        // LLC; small caches are L2-resident and the demand loads in
        // stage 1 already overlap across lanes (same policy as the
        // cuckoo bulk path).
        if (numEntries * slotBytes > (4ull << 20)) {
            for (int probe = 0; probe < 2; ++probe) {
                if (const std::uint8_t *p = mem.rangeView(
                        slotAddr(ln.idx[probe]), slotBytes))
                    __builtin_prefetch(p, 0, 3);
            }
        }
    }

    // --- Stage 1: probes over warm lines, scalar control flow. ---
    std::uint32_t found = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Lane &ln = lanes[i];
        for (int probe = 0; probe < 2; ++probe) {
            const std::uint8_t *view =
                mem.rangeView(slotAddr(ln.idx[probe]), slotBytes);
            HALO_ASSERT(view, "EMC slot straddles a page");
            std::uint32_t slot_gen, slot_sig;
            std::memcpy(&slot_gen, view + genOffset, sizeof(slot_gen));
            if (slot_gen != gen)
                continue;
            std::memcpy(&slot_sig, view + sigOffset, sizeof(slot_sig));
            if ((slot_sig ^ ln.sig) & sigMask)
                continue;
            if (std::memcmp(view + keyOffset, keys[i],
                            FiveTuple::keyBytes) == 0) {
                std::memcpy(&values[i], view + valueOffset,
                            sizeof(values[i]));
                found |= 1u << i;
                break;
            }
            if (ln.idx[0] == ln.idx[1])
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
    const std::uint32_t sig = shortSignature(h);
    const std::uint32_t gen = generation.load(std::memory_order_relaxed);
    const std::uint64_t mask = indexMask();
    const std::uint64_t idx[2] = {h & mask, (h >> 32) & mask};

    // Fill an invalid slot, update a matching key, and otherwise evict
    // the candidate whose insert epoch is furthest behind the current
    // one (recency-informed replacement). A tie overwrites the first
    // candidate, so a cache whose epoch never advances always does.
    enum class Victim { Fill, Update, Overwrite };
    Victim kind = Victim::Overwrite;
    Addr victim = slotAddr(idx[0]);
    std::uint32_t sigs[2] = {};
    for (int probe = 0; probe < 2; ++probe) {
        const Addr slot = slotAddr(idx[probe]);
        sigs[probe] = mem.load<std::uint32_t>(slot + sigOffset);
        if (mem.load<std::uint32_t>(slot + genOffset) != gen) {
            victim = slot;
            kind = Victim::Fill;
            break;
        }
        if (((sigs[probe] ^ sig) & sigMask) == 0 &&
            mem.equals(slot + keyOffset, key.data(), key.size())) {
            victim = slot;
            kind = Victim::Update;
            break;
        }
    }
    if (kind == Victim::Overwrite && idx[0] != idx[1]) {
        // Wraparound distance from the current epoch: larger = staler.
        const auto age0 = static_cast<std::uint16_t>(
            epoch_ - static_cast<std::uint16_t>(sigs[0] >> 16));
        const auto age1 = static_cast<std::uint16_t>(
            epoch_ - static_cast<std::uint16_t>(sigs[1] >> 16));
        if (age1 > age0)
            victim = slotAddr(idx[1]);
    }

    const std::uint32_t stamp =
        (sig & sigMask) | (static_cast<std::uint32_t>(epoch_) << 16);

    if (concurrent_) [[unlikely]] {
        // Compose the slot off to the side, then publish it under the
        // victim's seqlock in atomic words.
        alignas(8) std::uint8_t slot[slotBytes];
        std::memcpy(slot + sigOffset, &stamp, sizeof(stamp));
        std::memcpy(slot + genOffset, &gen, sizeof(gen));
        std::memcpy(slot + keyOffset, key.data(), key.size());
        std::memcpy(slot + valueOffset, &value, sizeof(value));
        const std::uint64_t victim_idx = (victim - base) / slotBytes;
        seq_.writeBegin(victim_idx);
        mem.writeAtomic(victim, slot, slotBytes);
        seq_.writeEnd(victim_idx);
    } else {
        mem.store<std::uint32_t>(victim + sigOffset, stamp);
        mem.store<std::uint32_t>(victim + genOffset, gen);
        mem.write(victim + keyOffset, key.data(), key.size());
        mem.store<std::uint64_t>(victim + valueOffset, value);
    }
    if (kind == Victim::Overwrite)
        evictOverwrites_.add(1);
    recordRef(trace, victim, slotBytes, true, AccessPhase::Bucket);
    return (victim - base) / slotBytes;
}

bool
ExactMatchCache::erase(
    std::span<const std::uint8_t, FiveTuple::keyBytes> key)
{
    const std::uint64_t h = hashKey(key);
    const std::uint32_t sig = shortSignature(h);
    const std::uint32_t gen = generation.load(std::memory_order_relaxed);
    const std::uint64_t mask = indexMask();
    const std::uint64_t idx[2] = {h & mask, (h >> 32) & mask};

    for (int probe = 0; probe < 2; ++probe) {
        const Addr slot = slotAddr(idx[probe]);
        // Writer-side plain reads: the single writer owns all stores.
        if (mem.load<std::uint32_t>(slot + genOffset) != gen ||
            ((mem.load<std::uint32_t>(slot + sigOffset) ^ sig) &
             sigMask) != 0 ||
            !mem.equals(slot + keyOffset, key.data(), key.size())) {
            if (idx[0] == idx[1])
                break;
            continue;
        }
        if (concurrent_) [[unlikely]] {
            alignas(8) const std::uint8_t zeros[slotBytes] = {};
            seq_.writeBegin(idx[probe]);
            mem.writeAtomic(slot, zeros, slotBytes);
            seq_.writeEnd(idx[probe]);
        } else {
            mem.zero(slot, slotBytes);
        }
        return true;
    }
    return false;
}

void
ExactMatchCache::enableConcurrent()
{
    HALO_ASSERT(!concurrent_, "concurrent mode enabled twice");
    seq_.reset(numEntries);
    concurrent_ = true;
}

void
ExactMatchCache::clear()
{
    // Bumping the generation invalidates every entry in O(1).
    generation.fetch_add(1, std::memory_order_relaxed);
    clears_.add(1);
}

} // namespace halo

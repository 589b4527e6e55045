/**
 * @file
 * Hash functions shared by the software tables, the EMC, the tuple-space
 * classifier, and the HALO accelerator's hash unit.
 *
 * The accelerator's hash unit is "implemented with simple logics, such as
 * boolean, shift, and other bit-wise operations" (paper SS4.3), so every
 * function here is shift/xor/multiply only.
 */

#ifndef HALO_HASH_HASH_FN_HH
#define HALO_HASH_HASH_FN_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace halo {

/** Selector stored in table metadata so the accelerator can reproduce
 *  the table's hash (paper Fig. 6 shows MUL/XOR/shift stages). */
enum class HashKind : std::uint32_t
{
    Crc32c = 0,   ///< software CRC32c (what DPDK rte_hash uses on x86)
    Jenkins = 1,  ///< Jenkins one-at-a-time
    XxMix = 2,    ///< xxhash-style avalanche over 8-byte words
};

/** Number of distinct HashKind values. */
inline constexpr unsigned numHashKinds = 3;

/** CRC32c (Castagnoli), bitwise software implementation. */
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed);

/** Jenkins one-at-a-time. */
std::uint32_t jenkinsOaat(std::span<const std::uint8_t> data,
                          std::uint32_t seed);

/** The little-endian 64-bit word at @p p: one 8-byte load on
 *  little-endian hosts. */
inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t word;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&word, p, 8);
    } else {
        word = 0;
        for (int b = 0; b < 8; ++b)
            word |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    }
    return word;
}

/**
 * xxhash-style word mix. Inline: this is the default table hash and sits
 * on the critical path of every lookup the simulator executes, so the
 * call must vanish and word assembly must compile to one 8-byte load
 * (digests are defined by the little-endian byte order either way).
 */
inline std::uint64_t
xxMix(std::span<const std::uint8_t> data, std::uint64_t seed)
{
    constexpr std::uint64_t prime1 = 0x9e3779b185ebca87ull;
    constexpr std::uint64_t prime2 = 0xc2b2ae3d27d4eb4full;
    std::uint64_t h = seed ^ (data.size() * prime1);
    std::size_t i = 0;
    while (i + 8 <= data.size()) {
        h ^= loadLe64(data.data() + i) * prime2;
        h = (h << 31) | (h >> 33);
        h *= prime1;
        i += 8;
    }
    while (i < data.size()) {
        h ^= static_cast<std::uint64_t>(data[i]) * prime1;
        h = (h << 11) | (h >> 53);
        h *= prime2;
        ++i;
    }
    h ^= h >> 33;
    h *= prime2;
    h ^= h >> 29;
    h *= prime1;
    h ^= h >> 32;
    return h;
}

/** Out-of-line dispatch for the table-driven kinds. */
std::uint64_t hashBytesSlow(HashKind kind, std::uint64_t seed,
                            std::span<const std::uint8_t> data);

/**
 * The runtime's flow hash: a 16-byte flow key taken as two 64-bit
 * words @p a and @p b, mixed by 64x64 -> 128-bit multiply folds in the
 * style of wyhash (not its exact 16-byte path). The first fold
 * multiplies the two words together; the second takes each word back
 * in, so no value of one word blinds the product to the other (a bare
 * fold(a ^ k, b) is one constant for every b when a == k). No byte
 * loop and no ISA intrinsic, so every build runs the same code. RSS
 * dispatch, the activity/estimator stamps and the upcall dedup use it;
 * the tables keep xxMix, which the timed switch and the accelerator's
 * hash unit share.
 */
constexpr std::uint64_t
flowHash(std::uint64_t a, std::uint64_t b, std::uint64_t seed)
{
    // 64x64 -> 128-bit multiply, folded to 64 bits (high ^ low half).
    constexpr auto fold = [](std::uint64_t x, std::uint64_t y) {
        const unsigned __int128 r = static_cast<unsigned __int128>(x) * y;
        return static_cast<std::uint64_t>(r) ^
               static_cast<std::uint64_t>(r >> 64);
    };
    constexpr std::uint64_t p0 = 0xa0761d6478bd642full;
    constexpr std::uint64_t p1 = 0xe7037ed1a0b428dbull;
    seed ^= fold(seed ^ p0, p1);
    const std::uint64_t x = fold(a ^ p1, b ^ seed);
    return fold(x ^ a ^ p0, x ^ b ^ seed ^ p1);
}

/** Dispatch on HashKind; always returns a 64-bit digest. */
inline std::uint64_t
hashBytes(HashKind kind, std::uint64_t seed,
          std::span<const std::uint8_t> data)
{
    if (kind == HashKind::XxMix) [[likely]]
        return xxMix(data, seed);
    return hashBytesSlow(kind, seed, data);
}

/**
 * Short signature derived from the primary hash, stored in bucket
 * entries (paper Fig. 2b).
 */
constexpr std::uint32_t
shortSignature(std::uint64_t hash)
{
    std::uint32_t sig = static_cast<std::uint32_t>(hash >> 16) ^
                        static_cast<std::uint32_t>(hash >> 48);
    // Zero is reserved as the "empty entry" marker.
    return sig == 0 ? 1u : sig;
}

/**
 * Alternative-bucket derivation used by the cuckoo table, following the
 * DPDK scheme: the secondary index is computed from the primary index
 * and the signature so either bucket can recover the other.
 */
constexpr std::uint64_t
alternativeBucket(std::uint64_t primary_bucket, std::uint32_t sig,
                  std::uint64_t bucket_mask)
{
    const std::uint64_t mixed =
        (static_cast<std::uint64_t>(sig) * 0x5bd1e9955bd1e995ull) >> 17;
    return (primary_bucket ^ mixed) & bucket_mask;
}

} // namespace halo

#endif // HALO_HASH_HASH_FN_HH

/**
 * @file
 * On-simulated-memory layout of the flow-rule hash tables (paper Fig. 2b).
 *
 * A table is three regions inside SimMemory:
 *
 *   metadata (2 lines)  — TableMetadata in line 0, the software version
 *                         lock counter alone in line 1 (no false sharing);
 *   bucket array        — numBuckets * 64 B, each bucket exactly one
 *                         cache line of 8 (signature, kv-reference) pairs;
 *   key-value array     — fixed-size slots of [value][key].
 *
 * The layout is self-describing: the HALO accelerator model performs
 * lookups knowing only the metadata address, exactly as the hardware
 * would (paper SS4.3 "the associated table address is used to fetch the
 * table's metadata").
 */

#ifndef HALO_HASH_TABLE_LAYOUT_HH
#define HALO_HASH_TABLE_LAYOUT_HH

#include <cstdint>

#include "hash/hash_fn.hh"
#include "sim/types.hh"

namespace halo {

/** Entries per bucket; one bucket occupies exactly one cache line. */
inline constexpr unsigned entriesPerBucket = 8;

/** Largest lane count one bulk table operation processes. */
inline constexpr unsigned maxBulkLanes = 32;

/** Bytes per bucket entry: 32-bit signature + 32-bit kv reference. */
inline constexpr unsigned bucketEntryBytes = 8;

/** Magic tag identifying a valid table metadata line. */
inline constexpr std::uint32_t tableMagic = 0x48414c4fu; // "HALO"

/**
 * Table metadata exactly as stored in simulated memory (one cache line).
 * The accelerator's metadata cache caches these lines (640 B = 10 tables).
 */
struct TableMetadata
{
    std::uint32_t magic = tableMagic;
    std::uint32_t keyLen = 0;          ///< bytes per key (4..64)
    std::uint64_t numBuckets = 0;      ///< power of two
    std::uint64_t bucketMask = 0;      ///< numBuckets - 1
    std::uint64_t bucketArrayAddr = 0;
    std::uint64_t kvArrayAddr = 0;
    std::uint64_t kvSlots = 0;         ///< capacity of the kv array
    std::uint32_t kvSlotBytes = 0;     ///< bytes per kv slot
    std::uint16_t hashKind = 0;        ///< HashKind
    std::uint16_t flags = 0;           ///< tableFlag* bits
    std::uint64_t seed = 0;
};

/** TableMetadata::flags bit: the table uses the negative-filter
 *  bucket layout (24-bit signatures, see below). */
inline constexpr std::uint16_t tableFlagNegativeFilter = 1;

static_assert(sizeof(TableMetadata) == cacheLineBytes,
              "metadata must occupy exactly one cache line");

/** One bucket entry as stored in memory. kvRef==0 means empty;
 *  otherwise the slot index is kvRef-1. */
struct BucketEntry
{
    std::uint32_t sig = 0;
    std::uint32_t kvRef = 0;
};

static_assert(sizeof(BucketEntry) == bucketEntryBytes);

/** Address of bucket @p index given the metadata. */
constexpr Addr
bucketAddr(const TableMetadata &md, std::uint64_t index)
{
    return md.bucketArrayAddr + index * cacheLineBytes;
}

/** Address of bucket entry @p way inside bucket @p index. */
constexpr Addr
bucketEntryAddr(const TableMetadata &md, std::uint64_t index, unsigned way)
{
    return bucketAddr(md, index) + way * bucketEntryBytes;
}

/** Address of key-value slot @p slot. */
constexpr Addr
kvSlotAddr(const TableMetadata &md, std::uint64_t slot)
{
    return md.kvArrayAddr + slot * md.kvSlotBytes;
}

/** Bytes per kv slot for a given key length: [u64 value][key...] padded
 *  to 8 bytes. */
constexpr std::uint32_t
kvSlotBytesFor(std::uint32_t key_len)
{
    return 8 + ((key_len + 7u) & ~7u);
}

/** Offset of the value within a kv slot. */
inline constexpr std::uint32_t kvValueOffset = 0;

/** Offset of the key within a kv slot. */
inline constexpr std::uint32_t kvKeyOffset = 8;

/**
 * @name Negative-filter ("Cuckoo++") bucket layout.
 *
 * When a table runs with the per-bucket negative filter, signatures
 * shrink from 32 to 24 bits and the freed top byte of each of the 8
 * entries becomes an 8-byte aux region packed into the same cache
 * line — no extra memory reference on any path:
 *
 *   entry bytes  0..2   signature (24 bits, 0 reserved for empty)
 *   entry byte   3      aux byte (see below)
 *   entry bytes  4..7   kv reference (unchanged)
 *
 *   aux bytes of ways 0..3  — 32-bit Bloom of signatures displaced OUT
 *                             of this (their primary) bucket, so a miss
 *                             whose primary scan fails and whose Bloom
 *                             probe is negative terminates after ONE
 *                             bucket read;
 *   aux bytes of ways 4..7  — unused (zero).
 */
/**@{*/
/** Low 24 bits of an entry's sig field hold the filtered-mode
 *  signature; the top byte is aux. */
inline constexpr std::uint32_t sig24Mask = 0x00ffffffu;

/** The signature a table stores and compares for @p hash: the 24-bit
 *  cut of shortSignature on a negative-filter table (0 still reserved
 *  for empty), shortSignature itself otherwise. */
constexpr std::uint32_t
tableSignature(std::uint64_t hash, bool negative_filter)
{
    const std::uint32_t sig = shortSignature(hash);
    if (!negative_filter)
        return sig;
    return (sig & sig24Mask) ? sig & sig24Mask : 1u;
}

/** Byte offset of the aux byte within each 8-byte entry. */
inline constexpr unsigned auxByteInEntry = 3;

/** Aux byte index (0..7) → byte offset within the bucket line. */
constexpr unsigned
auxByteOffset(unsigned aux_index)
{
    return aux_index * bucketEntryBytes + auxByteInEntry;
}

/** Decode the 32-bit negative-filter Bloom out of a bucket-line view. */
constexpr std::uint32_t
auxBloomOf(const std::uint8_t *line)
{
    return static_cast<std::uint32_t>(line[auxByteOffset(0)]) |
           static_cast<std::uint32_t>(line[auxByteOffset(1)]) << 8 |
           static_cast<std::uint32_t>(line[auxByteOffset(2)]) << 16 |
           static_cast<std::uint32_t>(line[auxByteOffset(3)]) << 24;
}

/** Two Bloom bit positions (0..31) derived from a 24-bit signature. */
constexpr std::uint32_t
bloomBitsForSig(std::uint32_t sig24)
{
    const std::uint32_t b0 = (sig24 * 0x9e3779b1u) >> 27;
    const std::uint32_t b1 = (sig24 * 0x85ebca6bu) >> 27;
    return (1u << b0) | (1u << b1);
}
/**@}*/

} // namespace halo

#endif // HALO_HASH_TABLE_LAYOUT_HH

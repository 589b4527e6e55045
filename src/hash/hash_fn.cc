#include "hash/hash_fn.hh"

#include "sim/logging.hh"

namespace halo {

namespace {

/** Byte-at-a-time CRC32c table, built once. */
struct Crc32cTable
{
    std::uint32_t entries[256];

    Crc32cTable()
    {
        constexpr std::uint32_t poly = 0x82f63b78u; // reflected Castagnoli
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
            entries[i] = crc;
        }
    }
};

const Crc32cTable crcTable;

} // namespace

std::uint32_t
crc32c(std::span<const std::uint8_t> data, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    for (std::uint8_t byte : data)
        crc = (crc >> 8) ^ crcTable.entries[(crc ^ byte) & 0xff];
    return ~crc;
}

std::uint32_t
jenkinsOaat(std::span<const std::uint8_t> data, std::uint32_t seed)
{
    std::uint32_t h = seed;
    for (std::uint8_t byte : data) {
        h += byte;
        h += h << 10;
        h ^= h >> 6;
    }
    h += h << 3;
    h ^= h >> 11;
    h += h << 15;
    return h;
}

std::uint64_t
hashBytesSlow(HashKind kind, std::uint64_t seed,
              std::span<const std::uint8_t> data)
{
    switch (kind) {
      case HashKind::Crc32c: {
        const std::uint32_t lo =
            crc32c(data, static_cast<std::uint32_t>(seed));
        const std::uint32_t hi =
            crc32c(data, static_cast<std::uint32_t>(seed >> 32) ^ lo);
        return (static_cast<std::uint64_t>(hi) << 32) | lo;
      }
      case HashKind::Jenkins: {
        const std::uint32_t lo =
            jenkinsOaat(data, static_cast<std::uint32_t>(seed));
        const std::uint32_t hi =
            jenkinsOaat(data, lo ^ 0x9e3779b9u);
        return (static_cast<std::uint64_t>(hi) << 32) | lo;
      }
      case HashKind::XxMix:
        return xxMix(data, seed);
    }
    panic("unknown HashKind ", static_cast<std::uint32_t>(kind));
}

} // namespace halo

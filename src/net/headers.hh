/**
 * @file
 * Network protocol headers and the canonical five-tuple flow key.
 *
 * The virtual switch classifies packets on their Ethernet/IPv4/L4
 * headers. Headers serialize to and parse from real byte buffers
 * (network byte order) so the parsing path the switch pays for in
 * Figure 3 is genuine work, and flow keys have a canonical 16-byte
 * encoding shared by the EMC, the tuple space, and the TCAM models.
 */

#ifndef HALO_NET_HEADERS_HH
#define HALO_NET_HEADERS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace halo {

/**
 * Store @p v at @p out in network byte order: one byte-swapped word
 * store on little-endian hosts, where a byte loop would leave narrow
 * stores that a later wide load of the same bytes must wait on.
 */
template <typename T>
inline void
storeBe(std::uint8_t *out, T v)
{
    static_assert(std::is_unsigned_v<T> &&
                  (sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8));
    if constexpr (std::endian::native == std::endian::little) {
        if constexpr (sizeof(T) == 2)
            v = __builtin_bswap16(v);
        else if constexpr (sizeof(T) == 4)
            v = __builtin_bswap32(v);
        else
            v = __builtin_bswap64(v);
    }
    std::memcpy(out, &v, sizeof v);
}

/** IP protocol numbers used by the workloads. */
enum class IpProto : std::uint8_t
{
    Icmp = 1,
    Tcp = 6,
    Udp = 17,
};

/** Ethernet header (no VLAN). */
struct EthernetHeader
{
    std::array<std::uint8_t, 6> dstMac{};
    std::array<std::uint8_t, 6> srcMac{};
    std::uint16_t etherType = 0x0800; // IPv4

    static constexpr std::size_t wireBytes = 14;
    void serialize(std::uint8_t *out) const;
    static EthernetHeader parse(const std::uint8_t *in);
};

/** IPv4 header (no options). */
struct Ipv4Header
{
    std::uint8_t tos = 0;
    std::uint16_t totalLength = 20;
    std::uint16_t identification = 0;
    std::uint8_t ttl = 64;
    std::uint8_t protocol = static_cast<std::uint8_t>(IpProto::Udp);
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;

    static constexpr std::size_t wireBytes = 20;
    void serialize(std::uint8_t *out) const;
    static Ipv4Header parse(const std::uint8_t *in);

    /** RFC 1071 header checksum over the serialized form. */
    static std::uint16_t checksum(const std::uint8_t *hdr,
                                  std::size_t len);
};

/** UDP header. */
struct UdpHeader
{
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint16_t length = 8;

    static constexpr std::size_t wireBytes = 8;
    void serialize(std::uint8_t *out) const;
    static UdpHeader parse(const std::uint8_t *in);
};

/** TCP header (fixed 20-byte form). */
struct TcpHeader
{
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint8_t flags = 0;
    std::uint16_t window = 0xffff;

    static constexpr std::size_t wireBytes = 20;
    void serialize(std::uint8_t *out) const;
    static TcpHeader parse(const std::uint8_t *in);
};

/**
 * The classification five-tuple. Canonical key encoding is 16 bytes:
 * srcIp(4) dstIp(4) srcPort(2) dstPort(2) proto(1) pad(3). 16 bytes is
 * also what the paper's EMC-style exact-match workloads use.
 */
struct FiveTuple
{
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint8_t proto = static_cast<std::uint8_t>(IpProto::Udp);

    static constexpr std::size_t keyBytes = 16;

    /**
     * Canonical key encoding. IP addresses are serialized in network
     * byte order so that a prefix mask over the leading key bytes is a
     * prefix mask over the address's high bits.
     */
    std::array<std::uint8_t, keyBytes>
    toKey() const
    {
        // Two big-endian words: the addresses, then the ports, the
        // protocol and three zero pad bytes.
        std::array<std::uint8_t, keyBytes> key;
        storeBe(key.data(), std::uint64_t{srcIp} << 32 | dstIp);
        storeBe(key.data() + 8, std::uint64_t{srcPort} << 48 |
                                    std::uint64_t{dstPort} << 32 |
                                    std::uint64_t{proto} << 24);
        return key;
    }

    /** Rebuild a tuple from its canonical key encoding. */
    static FiveTuple
    fromKey(std::span<const std::uint8_t> key)
    {
        auto get_be32 = [](const std::uint8_t *in) {
            return (static_cast<std::uint32_t>(in[0]) << 24) |
                   (static_cast<std::uint32_t>(in[1]) << 16) |
                   (static_cast<std::uint32_t>(in[2]) << 8) |
                   static_cast<std::uint32_t>(in[3]);
        };
        FiveTuple t;
        t.srcIp = get_be32(key.data() + 0);
        t.dstIp = get_be32(key.data() + 4);
        t.srcPort = static_cast<std::uint16_t>((key[8] << 8) | key[9]);
        t.dstPort = static_cast<std::uint16_t>((key[10] << 8) | key[11]);
        t.proto = key[12];
        return t;
    }

    bool
    operator==(const FiveTuple &other) const
    {
        return srcIp == other.srcIp && dstIp == other.dstIp &&
               srcPort == other.srcPort && dstPort == other.dstPort &&
               proto == other.proto;
    }
};

/**
 * A wildcard mask over the canonical five-tuple key: a rule matches a
 * packet when (key & mask) == maskedRuleKey. One mask == one tuple in
 * the tuple-space search (paper SS2.2).
 */
struct FlowMask
{
    std::array<std::uint8_t, FiveTuple::keyBytes> bytes{};

    /** Mask that matches on every key bit (exact match). */
    static FlowMask exact();

    /** Mask from per-field choices. prefix lengths are in bits. */
    static FlowMask fields(unsigned src_prefix, unsigned dst_prefix,
                           bool src_port, bool dst_port, bool proto);

    /** Apply to a key: out = key & mask. */
    std::array<std::uint8_t, FiveTuple::keyBytes>
    apply(std::span<const std::uint8_t> key) const
    {
        std::array<std::uint8_t, FiveTuple::keyBytes> out{};
        applyInto(key, out.data());
        return out;
    }

    /**
     * Apply to a key, writing into a caller-provided buffer of
     * FiveTuple::keyBytes bytes. Lets hot loops reuse one scratch buffer
     * across tuples instead of producing a fresh array per probe.
     */
    void
    applyInto(std::span<const std::uint8_t> key, std::uint8_t *out) const
    {
        for (std::size_t i = 0; i < FiveTuple::keyBytes; ++i)
            out[i] = key[i] & bytes[i];
    }

    bool
    operator==(const FlowMask &other) const
    {
        return bytes == other.bytes;
    }

    /** Count of wildcarded (zero) bits; broader masks have more. */
    unsigned wildcardBits() const;
};

} // namespace halo

#endif // HALO_NET_HEADERS_HH

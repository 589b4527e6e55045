/**
 * @file
 * Packet representation and header extraction.
 *
 * A Packet carries its real wire-format frame inline. parseHeaders() is
 * the functional half of the switch's "packet pre-processing" stage; the
 * vswitch library charges its trace-calibrated instruction cost.
 */

#ifndef HALO_NET_PACKET_HH
#define HALO_NET_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "net/headers.hh"
#include "sim/types.hh"

namespace halo {

/** Parsed view of a packet's classification-relevant headers. */
struct ParsedHeaders
{
    EthernetHeader eth;
    Ipv4Header ip;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    bool l4Valid = false;

    /** The classification five-tuple. */
    FiveTuple
    tuple() const
    {
        FiveTuple t;
        t.srcIp = ip.srcIp;
        t.dstIp = ip.dstIp;
        t.srcPort = srcPort;
        t.dstPort = dstPort;
        t.proto = ip.protocol;
        return t;
    }
};

/**
 * A network packet with its frame inline: a 2-byte length and 126 frame
 * bytes fill one aligned 128-byte ring slot, like a DPDK mbuf, so
 * building, queueing and classifying a packet never touch the heap. A
 * constant, not a pool: the largest frame any workload builds is 94
 * bytes. The length comes first, so a frame of up to 62 bytes (every
 * minimum-size frame) lies wholly in the slot's first cache line, and
 * a push or pop of one moves that line alone.
 */
class alignas(cacheLineBytes) Packet
{
  public:
    /** Largest frame a Packet holds; growing past it panics. */
    static constexpr std::size_t frameCapacity = 126;
    /** Frame bytes that share the first cache line with the length. */
    static constexpr std::size_t lineOneFrameBytes =
        cacheLineBytes - sizeof(std::uint16_t);

    Packet() = default;
    /** A copy takes the length and the size() frame bytes in one
     *  block from the object's start: a frame of up to
     *  lineOneFrameBytes bytes reads and writes the first line alone. */
    Packet(const Packet &other) { *this = other; }
    Packet &
    operator=(const Packet &other)
    {
        static_assert(offsetof(Packet, len_) == 0 &&
                          offsetof(Packet, frame_) + lineOneFrameBytes ==
                              cacheLineBytes,
                      "the length and lineOneFrameBytes frame bytes "
                      "fill the first line");
        if (this != &other)
            std::memcpy(static_cast<void *>(this), &other,
                        offsetof(Packet, frame_) + other.len_);
        return *this;
    }

    /** Build a minimal UDP or TCP packet for @p tuple with @p payload
     *  bytes of zeros (64-byte minimum frame, like the IXIA workloads).
     *  The bytes are the header serializers', written at fixed offsets
     *  with the IPv4 checksum summed from the words that vary; every
     *  ingested packet pays this build. */
    static Packet fromTuple(const FiveTuple &tuple,
                            std::size_t payload = 18);

    /** Wire bytes: the first size() bytes of the frame. */
    std::span<const std::uint8_t> bytes() const { return {frame_, len_}; }
    std::span<std::uint8_t> bytes() { return {frame_, len_}; }
    std::size_t size() const { return len_; }

    /** Reshape the frame to @p n bytes: resize keeps the first
     *  min(n, size()) and zero-fills the rest, assign fills all. */
    /**@{*/
    void resize(std::size_t n);
    void assign(std::size_t n, std::uint8_t fill);
    /**@}*/

    /** Extract headers; nullopt for runts / non-IPv4. */
    std::optional<ParsedHeaders> parseHeaders() const;

    /**
     * The classification five-tuple alone, read at fixed offsets:
     * ethertype, protocol, addresses and ports, nothing else. Same
     * rules as parseHeaders()->tuple(): nullopt for runts and non-IPv4
     * frames, ports zero unless a TCP/UDP header fits whole. The
     * switch classifies from this; parseHeaders() serves the NFs.
     */
    std::optional<FiveTuple> flowTuple() const;

    /** @name Order tag (test/bench instrumentation)
     *  Stamp an opaque 64-bit tag (conventionally flow-id<<32 | seq)
     *  into the first eight L4 payload bytes, where the elastic
     *  runtime's FlowOrderValidator reads it back to prove no
     *  intra-flow reordering across migrations. Stamping requires a
     *  packet built with >= 8 payload bytes (fromTuple's default
     *  qualifies); orderTag() returns 0 for packets too short. */
    /**@{*/
    void stampOrderTag(std::uint64_t tag);
    std::uint64_t orderTag() const;
    /**@}*/

  private:
    std::uint16_t len_ = 0;
    std::uint8_t frame_[frameCapacity]; ///< only [0, len_) is ever read
};

static_assert(sizeof(Packet) == 2 * cacheLineBytes, "one ring slot");

} // namespace halo

#endif // HALO_NET_PACKET_HH

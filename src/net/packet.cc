#include "net/packet.hh"

#include "sim/logging.hh"

namespace halo {

void
Packet::resize(std::size_t n)
{
    HALO_ASSERT(n <= frameCapacity, "frame exceeds Packet::frameCapacity");
    if (n > len_)
        std::memset(frame_ + len_, 0, n - len_);
    len_ = static_cast<std::uint16_t>(n);
}

void
Packet::assign(std::size_t n, std::uint8_t fill)
{
    resize(n);
    std::memset(frame_, fill, n);
}

Packet
Packet::fromTuple(const FiveTuple &tuple, std::size_t payload)
{
    Packet pkt;
    const bool is_tcp =
        tuple.proto == static_cast<std::uint8_t>(IpProto::Tcp);
    const std::size_t l4 = is_tcp ? TcpHeader::wireBytes
                                  : UdpHeader::wireBytes;
    const std::size_t total =
        EthernetHeader::wireBytes + Ipv4Header::wireBytes + l4 + payload;
    pkt.resize(std::max<std::size_t>(total, 60)); // zero-filled

    EthernetHeader eth;
    eth.srcMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
    eth.dstMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
    eth.serialize(pkt.frame_);

    Ipv4Header ip;
    ip.protocol = tuple.proto;
    ip.srcIp = tuple.srcIp;
    ip.dstIp = tuple.dstIp;
    ip.totalLength =
        static_cast<std::uint16_t>(Ipv4Header::wireBytes + l4 + payload);
    ip.serialize(pkt.frame_ + EthernetHeader::wireBytes);

    std::uint8_t *l4_base = pkt.frame_ + EthernetHeader::wireBytes +
                            Ipv4Header::wireBytes;
    if (is_tcp) {
        TcpHeader tcp;
        tcp.srcPort = tuple.srcPort;
        tcp.dstPort = tuple.dstPort;
        tcp.serialize(l4_base);
    } else {
        UdpHeader udp;
        udp.srcPort = tuple.srcPort;
        udp.dstPort = tuple.dstPort;
        udp.length = static_cast<std::uint16_t>(UdpHeader::wireBytes +
                                                payload);
        udp.serialize(l4_base);
    }
    return pkt;
}

namespace {

std::uint16_t
be16At(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t
be32At(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

/** Byte offset of the L4 payload, or 0 when the frame is too short to
 *  carry an 8-byte tag there. */
std::size_t
orderTagOffset(std::span<const std::uint8_t> buffer)
{
    constexpr std::size_t ip_base = EthernetHeader::wireBytes;
    if (buffer.size() < ip_base + Ipv4Header::wireBytes)
        return 0;
    const bool is_tcp =
        buffer[ip_base + 9] == static_cast<std::uint8_t>(IpProto::Tcp);
    const std::size_t off = ip_base + Ipv4Header::wireBytes +
                            (is_tcp ? TcpHeader::wireBytes
                                    : UdpHeader::wireBytes);
    return buffer.size() >= off + 8 ? off : 0;
}

} // namespace

void
Packet::stampOrderTag(std::uint64_t tag)
{
    const std::size_t off = orderTagOffset(bytes());
    if (!off)
        return;
    for (unsigned i = 0; i < 8; ++i)
        frame_[off + i] = static_cast<std::uint8_t>(tag >> (8 * i));
}

std::uint64_t
Packet::orderTag() const
{
    const std::size_t off = orderTagOffset(bytes());
    if (!off)
        return 0;
    std::uint64_t tag = 0;
    for (unsigned i = 0; i < 8; ++i)
        tag |= static_cast<std::uint64_t>(frame_[off + i]) << (8 * i);
    return tag;
}

std::optional<ParsedHeaders>
Packet::parseHeaders() const
{
    if (len_ < EthernetHeader::wireBytes + Ipv4Header::wireBytes) {
        return std::nullopt;
    }

    ParsedHeaders parsed;
    parsed.eth = EthernetHeader::parse(frame_);
    if (parsed.eth.etherType != 0x0800)
        return std::nullopt; // only IPv4 traffic is classified

    parsed.ip =
        Ipv4Header::parse(frame_ + EthernetHeader::wireBytes);
    const std::uint8_t *l4_base =
        frame_ + EthernetHeader::wireBytes + Ipv4Header::wireBytes;
    const std::size_t l4_avail =
        len_ - EthernetHeader::wireBytes - Ipv4Header::wireBytes;

    if (parsed.ip.protocol == static_cast<std::uint8_t>(IpProto::Tcp) &&
        l4_avail >= TcpHeader::wireBytes) {
        const TcpHeader tcp = TcpHeader::parse(l4_base);
        parsed.srcPort = tcp.srcPort;
        parsed.dstPort = tcp.dstPort;
        parsed.l4Valid = true;
    } else if (parsed.ip.protocol ==
                   static_cast<std::uint8_t>(IpProto::Udp) &&
               l4_avail >= UdpHeader::wireBytes) {
        const UdpHeader udp = UdpHeader::parse(l4_base);
        parsed.srcPort = udp.srcPort;
        parsed.dstPort = udp.dstPort;
        parsed.l4Valid = true;
    }
    return parsed;
}

std::optional<FiveTuple>
Packet::flowTuple() const
{
    constexpr std::size_t ip = EthernetHeader::wireBytes;
    constexpr std::size_t l4 = ip + Ipv4Header::wireBytes;
    if (len_ < l4 || be16At(frame_ + 12) != 0x0800)
        return std::nullopt;

    FiveTuple t;
    t.proto = frame_[ip + 9];
    t.srcIp = be32At(frame_ + ip + 12);
    t.dstIp = be32At(frame_ + ip + 16);
    const std::size_t l4_avail = len_ - l4;
    if ((t.proto == static_cast<std::uint8_t>(IpProto::Tcp) &&
         l4_avail >= TcpHeader::wireBytes) ||
        (t.proto == static_cast<std::uint8_t>(IpProto::Udp) &&
         l4_avail >= UdpHeader::wireBytes)) {
        t.srcPort = be16At(frame_ + l4);
        t.dstPort = be16At(frame_ + l4 + 2);
    }
    return t;
}

} // namespace halo

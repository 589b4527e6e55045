/**
 * @file
 * Unit tests for headers, packets, masks, and the traffic generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/traffic_gen.hh"
#include "runtime/spsc_ring.hh"
#include "sim/random.hh"
#include "vswitch/vswitch.hh"

namespace halo {
namespace {

TEST(Headers, EthernetRoundTrip)
{
    EthernetHeader h;
    h.srcMac = {1, 2, 3, 4, 5, 6};
    h.dstMac = {7, 8, 9, 10, 11, 12};
    h.etherType = 0x0800;
    std::uint8_t wire[EthernetHeader::wireBytes];
    h.serialize(wire);
    const EthernetHeader back = EthernetHeader::parse(wire);
    EXPECT_EQ(back.srcMac, h.srcMac);
    EXPECT_EQ(back.dstMac, h.dstMac);
    EXPECT_EQ(back.etherType, 0x0800);
}

TEST(Headers, Ipv4RoundTripAndChecksum)
{
    Ipv4Header h;
    h.srcIp = 0x0a010203;
    h.dstIp = 0x0a040506;
    h.protocol = 17;
    h.ttl = 61;
    std::uint8_t wire[Ipv4Header::wireBytes];
    h.serialize(wire);
    // A serialized header checksums to zero.
    EXPECT_EQ(Ipv4Header::checksum(wire, sizeof(wire)), 0);
    const Ipv4Header back = Ipv4Header::parse(wire);
    EXPECT_EQ(back.srcIp, h.srcIp);
    EXPECT_EQ(back.dstIp, h.dstIp);
    EXPECT_EQ(back.protocol, 17);
    EXPECT_EQ(back.ttl, 61);
}

TEST(Headers, TcpUdpRoundTrip)
{
    UdpHeader u;
    u.srcPort = 1234;
    u.dstPort = 80;
    std::uint8_t uw[UdpHeader::wireBytes];
    u.serialize(uw);
    EXPECT_EQ(UdpHeader::parse(uw).srcPort, 1234);
    EXPECT_EQ(UdpHeader::parse(uw).dstPort, 80);

    TcpHeader t;
    t.srcPort = 4321;
    t.dstPort = 443;
    t.seq = 0xdeadbeef;
    t.flags = 0x12;
    std::uint8_t tw[TcpHeader::wireBytes];
    t.serialize(tw);
    EXPECT_EQ(TcpHeader::parse(tw).seq, 0xdeadbeefu);
    EXPECT_EQ(TcpHeader::parse(tw).flags, 0x12);
}

/** The canonical key built one byte at a time, as the encoding's
 *  definition reads. */
std::array<std::uint8_t, FiveTuple::keyBytes>
bytewiseKey(const FiveTuple &t)
{
    std::array<std::uint8_t, FiveTuple::keyBytes> key{};
    for (unsigned i = 0; i < 4; ++i) {
        key[i] = static_cast<std::uint8_t>(t.srcIp >> (24 - 8 * i));
        key[4 + i] = static_cast<std::uint8_t>(t.dstIp >> (24 - 8 * i));
    }
    key[8] = static_cast<std::uint8_t>(t.srcPort >> 8);
    key[9] = static_cast<std::uint8_t>(t.srcPort);
    key[10] = static_cast<std::uint8_t>(t.dstPort >> 8);
    key[11] = static_cast<std::uint8_t>(t.dstPort);
    key[12] = t.proto;
    return key;
}

TEST(FiveTuple, ToKeyMatchesBytewiseEncoding)
{
    std::vector<FiveTuple> tuples(2); // all-zero, then all-ones
    tuples[1].srcIp = tuples[1].dstIp = 0xffffffff;
    tuples[1].srcPort = tuples[1].dstPort = 0xffff;
    tuples[1].proto = 0xff;
    tuples[0].proto = 0;
    Xoshiro256 rng(0x7e11);
    for (int i = 0; i < 10000; ++i) {
        FiveTuple t;
        const std::uint64_t w = rng.next();
        t.srcIp = static_cast<std::uint32_t>(w);
        t.dstIp = static_cast<std::uint32_t>(w >> 32);
        const std::uint64_t v = rng.next();
        t.srcPort = static_cast<std::uint16_t>(v);
        t.dstPort = static_cast<std::uint16_t>(v >> 16);
        t.proto = static_cast<std::uint8_t>(v >> 32);
        tuples.push_back(t);
    }
    for (const FiveTuple &t : tuples) {
        const auto key = t.toKey();
        ASSERT_EQ(key, bytewiseKey(t))
            << std::hex << t.srcIp << " " << t.dstIp << " " << t.srcPort
            << " " << t.dstPort << " " << unsigned{t.proto};
        ASSERT_EQ(FiveTuple::fromKey(key), t);
    }
}

TEST(FlowMask, ExactMatchesOnlyIdentical)
{
    const FlowMask exact = FlowMask::exact();
    FiveTuple a, b;
    a.srcIp = 0x0a000001;
    b = a;
    EXPECT_EQ(exact.apply(a.toKey()), exact.apply(b.toKey()));
    b.dstPort = 99;
    EXPECT_NE(exact.apply(a.toKey()), exact.apply(b.toKey()));
}

TEST(FlowMask, PrefixWildcarding)
{
    const FlowMask m = FlowMask::fields(24, 0, false, false, false);
    FiveTuple a, b;
    a.srcIp = 0x0a0b0c01;
    b.srcIp = 0x0a0b0cff; // same /24
    b.dstIp = 0x12345678; // ignored
    b.srcPort = 999;      // ignored
    EXPECT_EQ(m.apply(a.toKey()), m.apply(b.toKey()));
    b.srcIp = 0x0a0b0d01; // different /24
    EXPECT_NE(m.apply(a.toKey()), m.apply(b.toKey()));
}

TEST(FlowMask, WildcardBitsOrdering)
{
    EXPECT_LT(FlowMask::exact().wildcardBits(),
              FlowMask::fields(24, 24, true, true, true).wildcardBits());
    EXPECT_LT(FlowMask::fields(24, 24, true, true, true).wildcardBits(),
              FlowMask::fields(8, 0, false, false, false).wildcardBits());
}

TEST(Packet, BuildAndParse)
{
    FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.srcPort = 5555;
    t.dstPort = 53;
    t.proto = static_cast<std::uint8_t>(IpProto::Udp);
    const Packet pkt = Packet::fromTuple(t);
    EXPECT_GE(pkt.bytes().size(), 60u); // min frame
    const auto parsed = pkt.parseHeaders();
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->l4Valid);
    EXPECT_EQ(parsed->tuple(), t);
}

TEST(Packet, TcpPacketsParseToo)
{
    FiveTuple t;
    t.srcIp = 1;
    t.dstIp = 2;
    t.srcPort = 3;
    t.dstPort = 4;
    t.proto = static_cast<std::uint8_t>(IpProto::Tcp);
    const auto parsed = Packet::fromTuple(t).parseHeaders();
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tuple(), t);
}

/** The frame Packet::fromTuple must build, written by the header
 *  serializers over a zero-filled frame of at least 60 bytes. */
std::vector<std::uint8_t>
referenceFrame(const FiveTuple &t, std::size_t payload)
{
    const bool is_tcp = t.proto == static_cast<std::uint8_t>(IpProto::Tcp);
    const std::size_t l4 =
        is_tcp ? TcpHeader::wireBytes : UdpHeader::wireBytes;
    const std::size_t ip_len = Ipv4Header::wireBytes + l4 + payload;
    std::vector<std::uint8_t> frame(
        std::max<std::size_t>(EthernetHeader::wireBytes + ip_len, 60), 0);
    EthernetHeader eth;
    eth.srcMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
    eth.dstMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
    eth.serialize(frame.data());
    Ipv4Header ip;
    ip.protocol = t.proto;
    ip.srcIp = t.srcIp;
    ip.dstIp = t.dstIp;
    ip.totalLength = static_cast<std::uint16_t>(ip_len);
    std::uint8_t *at = frame.data() + EthernetHeader::wireBytes;
    ip.serialize(at);
    at += Ipv4Header::wireBytes;
    if (is_tcp) {
        TcpHeader tcp;
        tcp.srcPort = t.srcPort;
        tcp.dstPort = t.dstPort;
        tcp.serialize(at);
    } else {
        UdpHeader udp;
        udp.srcPort = t.srcPort;
        udp.dstPort = t.dstPort;
        udp.length = static_cast<std::uint16_t>(UdpHeader::wireBytes +
                                                payload);
        udp.serialize(at);
    }
    return frame;
}

::testing::AssertionResult
buildsReferenceFrame(const FiveTuple &t, std::size_t payload)
{
    const Packet pkt = Packet::fromTuple(t, payload);
    const std::vector<std::uint8_t> ref = referenceFrame(t, payload);
    auto fail = [&] {
        return ::testing::AssertionFailure()
               << "tuple " << t.srcIp << " " << t.dstIp << " " << t.srcPort
               << " " << t.dstPort << " proto " << unsigned{t.proto}
               << " payload " << payload << ": ";
    };
    if (pkt.size() != ref.size())
        return fail() << "size " << pkt.size() << " != " << ref.size();
    const auto bytes = pkt.bytes();
    const auto diff = std::mismatch(ref.begin(), ref.end(), bytes.begin());
    if (diff.first != ref.end())
        return fail() << "byte " << (diff.first - ref.begin()) << " is "
                      << unsigned{*diff.second} << ", want "
                      << unsigned{*diff.first};
    if (Ipv4Header::checksum(bytes.data() + EthernetHeader::wireBytes,
                             Ipv4Header::wireBytes) != 0)
        return fail() << "IPv4 header checksum does not verify";
    FiveTuple want = t;
    if (t.proto != static_cast<std::uint8_t>(IpProto::Tcp) &&
        t.proto != static_cast<std::uint8_t>(IpProto::Udp))
        want.srcPort = want.dstPort = 0;
    const std::optional<FiveTuple> got = pkt.flowTuple();
    if (!got || !(*got == want))
        return fail() << "flowTuple() differs";
    return ::testing::AssertionSuccess();
}

TEST(Packet, FromTupleMatchesHeaderSerializers)
{
    constexpr std::uint8_t protos[] = {6, 17, 1, 0, 255};
    constexpr std::size_t maxPayload = 72; // a TCP frame fills the slot
    for (const std::uint8_t proto : protos) {
        for (std::size_t payload = 0; payload <= maxPayload; ++payload) {
            FiveTuple zeros;
            zeros.proto = proto;
            ASSERT_TRUE(buildsReferenceFrame(zeros, payload));
            FiveTuple ones;
            ones.srcIp = ones.dstIp = 0xffffffff;
            ones.srcPort = ones.dstPort = 0xffff;
            ones.proto = proto;
            ASSERT_TRUE(buildsReferenceFrame(ones, payload));
        }
        // Every low half of one address under all-ones elsewhere: the
        // header sum's low 16 bits take every value, so some sums carry
        // again after the first fold.
        for (std::uint32_t lo = 0; lo <= 0xffff; ++lo) {
            FiveTuple t;
            t.srcIp = 0xffffffff;
            t.dstIp = 0xffff0000 | lo;
            t.srcPort = t.dstPort = 0xffff;
            t.proto = proto;
            ASSERT_TRUE(buildsReferenceFrame(t, 18));
        }
    }
    Xoshiro256 rng(0xf7a3e);
    for (int i = 0; i < 100000; ++i) {
        FiveTuple t;
        const std::uint64_t w = rng.next();
        t.srcIp = static_cast<std::uint32_t>(w);
        t.dstIp = static_cast<std::uint32_t>(w >> 32);
        const std::uint64_t v = rng.next();
        t.srcPort = static_cast<std::uint16_t>(v);
        t.dstPort = static_cast<std::uint16_t>(v >> 16);
        t.proto = protos[(v >> 32) % std::size(protos)];
        ASSERT_TRUE(buildsReferenceFrame(t, (v >> 40) % (maxPayload + 1)));
    }
}

TEST(Packet, RuntIsRejected)
{
    Packet p;
    p.assign(10, 0);
    EXPECT_FALSE(p.parseHeaders().has_value());
}

FiveTuple
sampleTuple(IpProto proto)
{
    FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.srcPort = 5555;
    t.dstPort = 80;
    t.proto = static_cast<std::uint8_t>(proto);
    return t;
}

TEST(Packet, LargestFittingFramesRoundTrip)
{
    for (const IpProto proto : {IpProto::Tcp, IpProto::Udp}) {
        const FiveTuple t = sampleTuple(proto);
        const std::size_t headers =
            EthernetHeader::wireBytes + Ipv4Header::wireBytes +
            (proto == IpProto::Tcp ? TcpHeader::wireBytes
                                   : UdpHeader::wireBytes);
        Packet p =
            Packet::fromTuple(t, Packet::frameCapacity - headers);
        EXPECT_EQ(p.size(), Packet::frameCapacity);
        p.stampOrderTag(0x1122334455667788ull);
        EXPECT_EQ(p.orderTag(), 0x1122334455667788ull);
        const auto parsed = p.parseHeaders();
        ASSERT_TRUE(parsed.has_value());
        EXPECT_TRUE(parsed->l4Valid);
        EXPECT_EQ(parsed->tuple(), t);
        // One byte more does not fit: a panic, never a truncated frame.
        EXPECT_THROW(Packet::fromTuple(t, Packet::frameCapacity -
                                              headers + 1),
                     PanicError);
    }
}

TEST(Packet, CopyKeepsBytesAndLength)
{
    Packet a = Packet::fromTuple(sampleTuple(IpProto::Udp), 40);
    a.stampOrderTag(42);
    Packet b = Packet::fromTuple(sampleTuple(IpProto::Tcp), 60);
    b = a; // a shorter frame over a longer one
    const Packet c(a);
    for (const Packet *copy : {&std::as_const(b), &c}) {
        EXPECT_EQ(copy->size(), a.size());
        EXPECT_TRUE(std::ranges::equal(copy->bytes(), a.bytes()));
        EXPECT_EQ(copy->orderTag(), 42u);
    }
}

static_assert(Packet::lineOneFrameBytes == 62,
              "a minimum-size frame fits the slot's first line");

/** A packet of exactly @p frame_bytes (>= 60) bytes for @p proto,
 *  its payload bytes numbered from @p fill so every byte is checked. */
Packet
packetOfSize(IpProto proto, std::size_t frame_bytes, std::uint8_t fill)
{
    const std::size_t headers =
        EthernetHeader::wireBytes + Ipv4Header::wireBytes +
        (proto == IpProto::Tcp ? TcpHeader::wireBytes
                               : UdpHeader::wireBytes);
    Packet p = Packet::fromTuple(sampleTuple(proto), frame_bytes - headers);
    EXPECT_EQ(p.size(), frame_bytes);
    for (std::size_t i = headers; i < frame_bytes; ++i)
        p.bytes()[i] = static_cast<std::uint8_t>(fill + i);
    return p;
}

std::vector<std::uint8_t>
frameOf(const Packet &p)
{
    return {p.bytes().begin(), p.bytes().end()};
}

/**
 * Frames on both sides of the first line's end (62 bytes fit the slot's
 * first line with the length, 63 do not) survive a push and a pop
 * through reused ring slots, whatever the slot held before: a short
 * frame over a long one and a long one over a short one.
 */
TEST(Packet, FramesRoundTripThroughRingSlots)
{
    SpscRing<Packet> ring(4);
    std::uint64_t tag = 0x0102030405060708ull;
    for (int round = 0; round < 3; ++round) {
        for (const IpProto proto : {IpProto::Udp, IpProto::Tcp}) {
            for (const std::size_t n : {60u, 62u, 63u, 94u, 126u, 60u}) {
                Packet in = packetOfSize(proto, n, 0x40);
                in.stampOrderTag(++tag);
                const std::vector<std::uint8_t> want = frameOf(in);
                ASSERT_TRUE(ring.tryPush(std::move(in)));
                Packet out = packetOfSize(proto, n < 94 ? 126 : 60, 0x90);
                ASSERT_TRUE(ring.tryPop(out));
                EXPECT_EQ(frameOf(out), want) << n << " bytes";
                EXPECT_EQ(out.flowTuple(), sampleTuple(proto));
                // A 60-byte TCP frame has 6 payload bytes: no tag.
                EXPECT_EQ(out.orderTag(),
                          proto == IpProto::Tcp && n == 60 ? 0 : tag);
            }
        }
    }
}

TEST(Packet, SelfAssignmentKeepsTheFrame)
{
    for (const std::size_t n : {60u, 62u, 63u, 126u}) {
        Packet p = packetOfSize(IpProto::Udp, n, 0x40);
        const std::vector<std::uint8_t> want = frameOf(p);
        Packet &alias = p;
        p = alias;
        EXPECT_EQ(frameOf(p), want) << n << " bytes";
    }
}

/**
 * Seeded mutation check of the switch's fixed-offset tuple reader
 * against the full header parser: frames of every length 0..126 built
 * from TCP, UDP and other-protocol packets, with the ethertype and
 * protocol bytes flipped and random bytes overwritten, must give the
 * same tuple from flowTuple() as from parseHeaders()->tuple(), and
 * nullopt from both on the same frames.
 */
TEST(Packet, FlowTupleAgreesWithParseHeadersOnMutatedFrames)
{
    constexpr std::size_t ethertypeByte = 12;
    constexpr std::size_t protoByte = EthernetHeader::wireBytes + 9;
    Xoshiro256 rng(0xf10e7u);
    std::size_t parsed = 0, rejected = 0, portless = 0;
    for (unsigned iter = 0; iter < 40000; ++iter) {
        FiveTuple t;
        t.srcIp = static_cast<std::uint32_t>(rng.next());
        t.dstIp = static_cast<std::uint32_t>(rng.next());
        t.srcPort = static_cast<std::uint16_t>(rng.next());
        t.dstPort = static_cast<std::uint16_t>(rng.next());
        const std::uint8_t protos[] = {6, 17, 1,
                                       static_cast<std::uint8_t>(rng.next())};
        t.proto = protos[rng.nextBounded(4)];
        const std::size_t payload = rng.nextBounded(40);
        Packet p = Packet::fromTuple(t, payload);
        p.resize(rng.nextBounded(Packet::frameCapacity + 1));
        auto bytes = p.bytes();
        switch (rng.nextBounded(4)) {
          case 0: // flip one ethertype bit
            if (bytes.size() > ethertypeByte + 1)
                bytes[ethertypeByte + rng.nextBounded(2)] ^=
                    static_cast<std::uint8_t>(1u << rng.nextBounded(8));
            break;
          case 1: // switch the protocol after the L4 header was built
            if (bytes.size() > protoByte)
                bytes[protoByte] = protos[rng.nextBounded(4)];
            break;
          case 2: // overwrite random bytes anywhere in the frame
            for (unsigned k = 0; k < 4 && !bytes.empty(); ++k)
                bytes[rng.nextBounded(bytes.size())] =
                    static_cast<std::uint8_t>(rng.next());
            break;
          default: // leave the frame as built
            break;
        }

        const std::optional<ParsedHeaders> headers = p.parseHeaders();
        const std::optional<FiveTuple> tuple = p.flowTuple();
        ASSERT_EQ(tuple.has_value(), headers.has_value())
            << "iteration " << iter << ", " << p.size() << " bytes";
        if (!headers) {
            ++rejected;
            continue;
        }
        ASSERT_EQ(*tuple, headers->tuple())
            << "iteration " << iter << ", " << p.size() << " bytes";
        ++parsed;
        portless += headers->l4Valid ? 0 : 1;
    }
    // Every rule was exercised: accepted frames, rejected ones, and
    // accepted frames whose L4 header was missing or unknown.
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(portless, 1000u);
}

TEST(Packet, RuntsAreDroppedBeforeClassification)
{
    SimMemory mem(64ull << 20);
    VSwitchConfig cfg;
    cfg.tupleConfig.tupleCapacity = 1024;
    VirtualSwitch vs(mem, cfg);
    FlowRule match_all;
    match_all.mask = FlowMask{};
    match_all.priority = 1;
    match_all.action = Action{ActionKind::Forward, 3};
    vs.installRules({match_all});

    const Packet whole = Packet::fromTuple(sampleTuple(IpProto::Udp));
    EXPECT_TRUE(vs.processPacket(whole).matched);
    Packet assigned = whole;
    assigned.assign(8, 0xee);
    Packet resized = whole;
    resized.resize(20);
    EXPECT_TRUE(std::ranges::equal(resized.bytes(),
                                   whole.bytes().first(20)));
    for (const Packet *runt : {&assigned, &resized}) {
        const PacketResult r = vs.processPacket(*runt);
        EXPECT_FALSE(r.matched);
        EXPECT_EQ(r.tuplesSearched, 0u);
    }
    EXPECT_EQ(vs.totals().packets, 3u);
    EXPECT_EQ(vs.totals().matches, 1u);
}

TEST(TrafficGen, GeneratesDistinctFlows)
{
    TrafficConfig cfg;
    cfg.numFlows = 5000;
    TrafficGenerator gen(cfg);
    EXPECT_EQ(gen.flows().size(), 5000u);
    std::set<std::array<std::uint8_t, FiveTuple::keyBytes>> keys;
    for (const FiveTuple &t : gen.flows())
        keys.insert(t.toKey());
    EXPECT_EQ(keys.size(), 5000u);
}

TEST(TrafficGen, DeterministicUnderSeed)
{
    TrafficConfig cfg;
    cfg.numFlows = 100;
    cfg.seed = 77;
    TrafficGenerator a(cfg), b(cfg);
    for (int i = 0; i < 500; ++i)
        ASSERT_EQ(a.nextTuple(), b.nextTuple());
}

TEST(TrafficGen, ZipfSkewConcentratesTraffic)
{
    TrafficConfig cfg = TrafficGenerator::scenarioConfig(
        TrafficScenario::ManyFlows, 10000);
    EXPECT_GT(cfg.zipfSkew, 0.0);
    TrafficGenerator gen(cfg);
    std::map<std::uint32_t, unsigned> hits;
    for (int i = 0; i < 20000; ++i)
        ++hits[gen.nextTuple().srcIp];
    // Skewed draws revisit hot flows more than uniform sampling would.
    EXPECT_LT(hits.size(), 8646u - 500u); // uniform expectation ~8646
}

TEST(TrafficGen, UniformCoversPopulation)
{
    TrafficConfig cfg;
    cfg.numFlows = 50;
    TrafficGenerator gen(cfg);
    std::set<std::uint16_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(gen.nextTuple().srcPort);
    EXPECT_GT(seen.size(), 40u);
}

} // namespace
} // namespace halo

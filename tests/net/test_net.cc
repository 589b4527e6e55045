/**
 * @file
 * Unit tests for headers, packets, masks, and the traffic generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "net/traffic_gen.hh"
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

TEST(FiveTuple, KeyRoundTrip)
{
    FiveTuple t;
    t.srcIp = 0x01020304;
    t.dstIp = 0x05060708;
    t.srcPort = 1111;
    t.dstPort = 2222;
    t.proto = 6;
    const auto key = t.toKey();
    EXPECT_EQ(FiveTuple::fromKey(key), t);
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

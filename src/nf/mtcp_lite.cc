#include "nf/mtcp_lite.hh"

#include "sim/logging.hh"

namespace halo {

MtcpLite::MtcpLite(SimMemory &memory, MemoryHierarchy &hierarchy,
                   const Config &config)
    : NetworkFunction(memory, hierarchy, "mtcp"),
      cfg(config),
      connTable(memory,
                CuckooHashTable::Config{FiveTuple::keyBytes,
                                        config.maxConnections,
                                        HashKind::XxMix, 0x317c9, 0.90})
{
    tcbBase = mem.allocate(cfg.maxConnections * tcbBytes, cacheLineBytes);
    initKeyStage();
}

std::uint64_t
MtcpLite::footprintBytes() const
{
    return connTable.footprintBytes() + cfg.maxConnections * tcbBytes;
}

void
MtcpLite::warm()
{
    connTable.forEachLine([this](Addr a) { hier.warmLine(a); });
    for (std::uint32_t t = 0; t < nextTcb; ++t)
        hier.warmLine(tcbAddr(t));
}

void
MtcpLite::process(const ParsedHeaders &headers, const Packet &packet,
                  OpTrace &ops)
{
    if (headers.ip.protocol != static_cast<std::uint8_t>(IpProto::Tcp))
        return; // not ours

    // Recover the TCP flags from the wire bytes.
    std::uint8_t flags = tcpAck;
    const std::size_t tcp_off =
        EthernetHeader::wireBytes + Ipv4Header::wireBytes;
    if (packet.bytes().size() >= tcp_off + TcpHeader::wireBytes)
        flags = TcpHeader::parse(packet.bytes().data() + tcp_off).flags;

    const auto key = headers.tuple().toKey();
    const KeyView kv(key.data(), key.size());

    const auto tcb_idx = tableLookup(connTable, kv, cfg.engine, ops);

    if (!tcb_idx) {
        if ((flags & tcpSyn) == 0)
            return; // stray segment: no connection, not a SYN
        // Accept: allocate a TCB and install the connection.
        std::uint32_t idx;
        if (!freeTcbs.empty()) {
            idx = freeTcbs.back();
            freeTcbs.pop_back();
        } else if (nextTcb < cfg.maxConnections) {
            idx = nextTcb++;
        } else {
            return; // accept queue full
        }
        mem.zero(tcbAddr(idx), tcbBytes);
        mem.store<std::uint32_t>(tcbAddr(idx), 1); // state = SYN_RCVD
        AccessTrace refs;
        connTable.insert(kv, idx, &refs);
        builder.lowerTableOp(refs, ops);
        builder.lowerStore(tcbAddr(idx), 32, AccessPhase::Payload, ops);
        builder.lowerCompute(24, 18, 6, ops); // socket setup
        ++accepted;
        ++open;
        return;
    }

    // Established path: read-modify-write the control block.
    const auto idx = static_cast<std::uint32_t>(*tcb_idx);
    const Addr tcb = tcbAddr(idx);
    const std::uint32_t seq = mem.load<std::uint32_t>(tcb + 4);
    mem.store<std::uint32_t>(tcb + 4, seq + 1);
    mem.store<std::uint32_t>(tcb + 8,
                             mem.load<std::uint32_t>(tcb + 8) + 1);
    builder.lowerLoad(tcb, 16, AccessPhase::Payload, ops);
    builder.lowerStore(tcb, 16, AccessPhase::Payload, ops);
    builder.lowerCompute(16, 14, 4, ops); // ACK/window processing

    if (flags & (tcpFin | tcpRst)) {
        AccessTrace refs;
        connTable.erase(kv, &refs);
        builder.lowerTableOp(refs, ops);
        freeTcbs.push_back(idx);
        ++closed;
        HALO_ASSERT(open > 0);
        --open;
    }
}

} // namespace halo

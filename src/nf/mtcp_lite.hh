/**
 * @file
 * User-level TCP stack model (mTCP; paper Table 3, Fig. 12).
 *
 * Per packet: look up the connection in a cuckoo-backed connection
 * table, update the connection control block (a read-modify-write of a
 * per-connection record), and run ACK/window bookkeeping. SYN packets
 * establish connections, FIN/RST tear them down — enough state-machine
 * to give the NF mTCP's cache profile: a hot connection table plus hot
 * per-connection records.
 */

#ifndef HALO_NF_MTCP_LITE_HH
#define HALO_NF_MTCP_LITE_HH

#include "hash/cuckoo_table.hh"
#include "nf/network_function.hh"

namespace halo {

/** Minimal TCP flags used by the model. */
inline constexpr std::uint8_t tcpFin = 0x01;
inline constexpr std::uint8_t tcpSyn = 0x02;
inline constexpr std::uint8_t tcpRst = 0x04;
inline constexpr std::uint8_t tcpAck = 0x10;

/** mTCP-like connection-table NF. */
class MtcpLite : public NetworkFunction
{
  public:
    struct Config
    {
        std::uint64_t maxConnections = 65536;
        NfEngine engine = NfEngine::Software;
    };

    MtcpLite(SimMemory &memory, MemoryHierarchy &hierarchy,
             const Config &config);

    void process(const ParsedHeaders &headers, const Packet &packet,
                 OpTrace &ops) override;

    std::uint64_t footprintBytes() const override;
    void warm() override;

    std::uint64_t connectionsOpen() const { return open; }
    std::uint64_t connectionsAccepted() const { return accepted; }
    std::uint64_t connectionsClosed() const { return closed; }

  private:
    /// Per-connection control block: 64 B (one line).
    static constexpr std::uint64_t tcbBytes = 64;

    Addr tcbAddr(std::uint32_t idx) const
    {
        return tcbBase + static_cast<std::uint64_t>(idx) * tcbBytes;
    }

    Config cfg;
    CuckooHashTable connTable;
    Addr tcbBase = invalidAddr;
    std::uint32_t nextTcb = 0;
    std::vector<std::uint32_t> freeTcbs;
    std::uint64_t open = 0;
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
};

} // namespace halo

#endif // HALO_NF_MTCP_LITE_HH

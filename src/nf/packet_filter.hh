/**
 * @file
 * Hash-table-based IP packet filter (paper Table 3, Fig. 13).
 *
 * Filtering rules are exact five-tuple drop entries loaded ahead of
 * time; per packet, one table lookup decides drop/pass. 100/1K/10K rule
 * configurations follow Table 3.
 */

#ifndef HALO_NF_PACKET_FILTER_HH
#define HALO_NF_PACKET_FILTER_HH

#include <vector>

#include "hash/cuckoo_table.hh"
#include "nf/network_function.hh"

namespace halo {

/** Exact-match drop filter. */
class PacketFilter : public NetworkFunction
{
  public:
    struct Config
    {
        std::uint64_t numRules = 1000; ///< 100/1K/10K in Table 3
        NfEngine engine = NfEngine::Software;
        std::uint64_t seed = 0xf117e5;
    };

    PacketFilter(SimMemory &memory, MemoryHierarchy &hierarchy,
                 const Config &config);

    /** Install a drop rule for @p tuple. */
    void addRule(const FiveTuple &tuple);

    /** Install drop rules covering a fraction of @p flows. */
    void installRulesFrom(const std::vector<FiveTuple> &flows,
                          double fraction);

    void process(const ParsedHeaders &headers, const Packet &packet,
                 OpTrace &ops) override;

    std::uint64_t footprintBytes() const override
    {
        return table.footprintBytes();
    }

    void warm() override;

    std::uint64_t dropped() const { return drops; }
    std::uint64_t passed() const { return passes; }
    CuckooHashTable &ruleTable() { return table; }

  private:
    Config cfg;
    CuckooHashTable table;
    std::uint64_t drops = 0;
    std::uint64_t passes = 0;
};

} // namespace halo

#endif // HALO_NF_PACKET_FILTER_HH

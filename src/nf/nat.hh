/**
 * @file
 * Network Address Translation (paper SS4.8, Table 3, Fig. 13).
 *
 * A cuckoo hash table maps the LAN five-tuple to a (WAN IP, WAN port)
 * binding; unseen flows allocate a binding and install it. Lookups run
 * in software or through HALO; inserts always run in software (the
 * accelerator is read-only, paper SS4.3).
 */

#ifndef HALO_NF_NAT_HH
#define HALO_NF_NAT_HH

#include "hash/cuckoo_table.hh"
#include "nf/network_function.hh"

namespace halo {

/** NAT with an exact-match translation table. */
class NatFunction : public NetworkFunction
{
  public:
    struct Config
    {
        std::uint64_t tableEntries = 10000; ///< 1K/10K/100K in Table 3
        NfEngine engine = NfEngine::Software;
        std::uint32_t wanIp = 0xc6336401; // 198.51.100.1
    };

    NatFunction(SimMemory &memory, MemoryHierarchy &hierarchy,
                const Config &config);

    void process(const ParsedHeaders &headers, const Packet &packet,
                 OpTrace &ops) override;

    std::uint64_t footprintBytes() const override
    {
        return table.footprintBytes();
    }

    void warm() override;

    /** Translation-table hits so far. */
    std::uint64_t translationHits() const { return hits; }
    /** New bindings allocated so far. */
    std::uint64_t bindingsAllocated() const { return allocations; }

    CuckooHashTable &translationTable() { return table; }

  private:
    Config cfg;
    CuckooHashTable table;
    std::uint16_t nextPort = 1024;
    std::uint64_t hits = 0;
    std::uint64_t allocations = 0;
};

} // namespace halo

#endif // HALO_NF_NAT_HH

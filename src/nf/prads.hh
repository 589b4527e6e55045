/**
 * @file
 * Passive real-time asset detection (prads; paper Table 3, Fig. 13).
 *
 * Tracks an asset record per observed (host IP, port, protocol): first
 * sighting inserts a record, later sightings update its counters — a
 * lookup-then-modify pattern over a cuckoo table (1K/10K/100K entries
 * in Table 3).
 */

#ifndef HALO_NF_PRADS_HH
#define HALO_NF_PRADS_HH

#include "hash/cuckoo_table.hh"
#include "nf/network_function.hh"

namespace halo {

/** Asset-detection NF. */
class PradsLite : public NetworkFunction
{
  public:
    struct Config
    {
        std::uint64_t assetEntries = 10000;
        NfEngine engine = NfEngine::Software;
    };

    PradsLite(SimMemory &memory, MemoryHierarchy &hierarchy,
              const Config &config);

    void process(const ParsedHeaders &headers, const Packet &packet,
                 OpTrace &ops) override;

    std::uint64_t footprintBytes() const override
    {
        return table.footprintBytes();
    }

    void warm() override;

    std::uint64_t assetsDiscovered() const { return discoveries; }
    std::uint64_t sightingUpdates() const { return updates; }

  private:
    /// Asset key: ip(4) port(2) proto(1) pad(1) = 8 bytes.
    static std::array<std::uint8_t, 8>
    assetKey(const ParsedHeaders &headers);

    Config cfg;
    CuckooHashTable table;
    std::uint64_t discoveries = 0;
    std::uint64_t updates = 0;
};

} // namespace halo

#endif // HALO_NF_PRADS_HH

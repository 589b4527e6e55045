#include "nf/prads.hh"

#include <cstring>

namespace halo {

PradsLite::PradsLite(SimMemory &memory, MemoryHierarchy &hierarchy,
                     const Config &config)
    : NetworkFunction(memory, hierarchy, "prads"),
      cfg(config),
      table(memory,
            CuckooHashTable::Config{8, config.assetEntries,
                                    HashKind::XxMix, 0x9ead5, 0.90})
{
    initKeyStage();
}

std::array<std::uint8_t, 8>
PradsLite::assetKey(const ParsedHeaders &headers)
{
    std::array<std::uint8_t, 8> key{};
    std::memcpy(key.data(), &headers.ip.srcIp, 4);
    std::memcpy(key.data() + 4, &headers.srcPort, 2);
    key[6] = headers.ip.protocol;
    return key;
}

void
PradsLite::warm()
{
    table.forEachLine([this](Addr a) { hier.warmLine(a); });
}

void
PradsLite::process(const ParsedHeaders &headers, const Packet &packet,
                   OpTrace &ops)
{
    (void)packet;
    const auto key = assetKey(headers);
    const KeyView kv(key.data(), key.size());

    const auto record = tableLookup(table, kv, cfg.engine, ops);

    if (record) {
        // Sighting update: bump the packed sighting counter in place.
        ++updates;
        AccessTrace refs;
        table.insert(kv, *record + 1, &refs);
        builder.lowerCompute(6, 4, 1, ops);
        // The in-place value store (refs carries the kv slot address).
        for (const MemRef &ref : refs) {
            if (ref.write && ref.phase == AccessPhase::KeyValue) {
                builder.lowerStore(ref.addr, ref.size, ref.phase, ops);
                break;
            }
        }
    } else if (table.size() < table.capacity()) {
        // New asset: fingerprint + insert.
        ++discoveries;
        AccessTrace refs;
        table.insert(kv, 1, &refs);
        builder.lowerTableOp(refs, ops);
        builder.lowerCompute(20, 12, 4, ops); // fingerprint matching
    }
}

} // namespace halo

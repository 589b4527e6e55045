#include "nf/packet_filter.hh"

namespace halo {

PacketFilter::PacketFilter(SimMemory &memory, MemoryHierarchy &hierarchy,
                           const Config &config)
    : NetworkFunction(memory, hierarchy, "packet_filter"),
      cfg(config),
      table(memory,
            CuckooHashTable::Config{FiveTuple::keyBytes,
                                    std::max<std::uint64_t>(
                                        config.numRules, 16),
                                    HashKind::XxMix, config.seed, 0.90})
{
    initKeyStage();
}

void
PacketFilter::addRule(const FiveTuple &tuple)
{
    const auto key = tuple.toKey();
    table.insert(KeyView(key.data(), key.size()), 1 /* drop marker */);
}

void
PacketFilter::installRulesFrom(const std::vector<FiveTuple> &flows,
                               double fraction)
{
    std::uint64_t installed = 0;
    const auto want = static_cast<std::uint64_t>(
        fraction * static_cast<double>(flows.size()));
    for (const auto &flow : flows) {
        if (installed >= cfg.numRules || installed >= want)
            break;
        addRule(flow);
        ++installed;
    }
}

void
PacketFilter::warm()
{
    table.forEachLine([this](Addr a) { hier.warmLine(a); });
}

void
PacketFilter::process(const ParsedHeaders &headers, const Packet &packet,
                      OpTrace &ops)
{
    (void)packet;
    const auto key = headers.tuple().toKey();
    const KeyView kv(key.data(), key.size());

    const auto verdict = tableLookup(table, kv, cfg.engine, ops);

    if (verdict) {
        ++drops;
        builder.lowerCompute(2, 4, 1, ops); // drop bookkeeping
    } else {
        ++passes;
        builder.lowerCompute(4, 6, 2, ops); // forward
    }
}

} // namespace halo

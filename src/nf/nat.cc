#include "nf/nat.hh"

namespace halo {

NatFunction::NatFunction(SimMemory &memory, MemoryHierarchy &hierarchy,
                         const Config &config)
    : NetworkFunction(memory, hierarchy, "nat"),
      cfg(config),
      table(memory,
            CuckooHashTable::Config{FiveTuple::keyBytes,
                                    config.tableEntries,
                                    HashKind::XxMix, 0x4a17, 0.90})
{
    initKeyStage();
}

void
NatFunction::warm()
{
    table.forEachLine([this](Addr a) { hier.warmLine(a); });
}

void
NatFunction::process(const ParsedHeaders &headers, const Packet &packet,
                     OpTrace &ops)
{
    (void)packet;
    const auto key = headers.tuple().toKey();
    const KeyView kv(key.data(), key.size());

    const auto binding = tableLookup(table, kv, cfg.engine, ops);

    if (binding) {
        ++hits;
        // Header rewrite with the found binding.
        builder.lowerCompute(10, 8, 2, ops);
        return;
    }

    // Allocate a WAN binding and install it (software path; the write
    // also invalidates the tuple in any accelerator metadata caches —
    // not needed here since table metadata is immutable).
    ++allocations;
    const std::uint64_t value =
        (static_cast<std::uint64_t>(cfg.wanIp) << 16) | nextPort;
    nextPort = nextPort == 0xffff ? 1024 : nextPort + 1;

    AccessTrace insert_refs;
    if (table.size() < table.capacity())
        table.insert(kv, value, &insert_refs);
    builder.lowerTableOp(insert_refs, ops);
    builder.lowerCompute(10, 8, 2, ops);
}

} // namespace halo

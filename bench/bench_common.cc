#include "bench_common.hh"

namespace halo::bench {

namespace {

constexpr std::uint64_t chunkSize = 512;

} // namespace

void
warmupLookups(Machine &m, const CuckooHashTable &table,
              std::uint64_t populated, std::uint64_t count)
{
    Xoshiro256 rng(0x3a3a);
    Cycles now = 0;
    for (std::uint64_t i = 0; i < count; i += chunkSize) {
        OpTrace ops;
        for (std::uint64_t j = 0; j < chunkSize && i + j < count; ++j) {
            const auto key = keyForId(rng.nextBounded(populated));
            AccessTrace refs;
            table.lookup(KeyView(key.data(), key.size()), &refs);
            m.builder.lowerTableOp(refs, ops);
        }
        now = m.core.run(ops, now).endCycle;
    }
}

double
measureSoftwareLookups(Machine &m, const CuckooHashTable &table,
                       std::uint64_t populated, std::uint64_t lookups,
                       std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    Cycles now = 0;
    bool first = true;
    Cycles begin = 0;
    for (std::uint64_t i = 0; i < lookups; i += chunkSize) {
        OpTrace ops;
        for (std::uint64_t j = 0; j < chunkSize && i + j < lookups;
             ++j) {
            const auto key = keyForId(rng.nextBounded(populated));
            AccessTrace refs;
            table.lookup(KeyView(key.data(), key.size()), &refs);
            m.builder.lowerTableOp(refs, ops);
        }
        const RunResult rr = m.core.run(ops, now);
        if (first) {
            begin = rr.startCycle;
            first = false;
        }
        now = rr.endCycle;
    }
    return static_cast<double>(now - begin) /
           static_cast<double>(lookups);
}

double
measureHaloBlocking(Machine &m, const CuckooHashTable &table,
                    std::uint64_t populated, std::uint64_t lookups,
                    std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    KeyStager stager(m);
    // Keys are staged before each chunk runs, so a chunk may not exceed
    // the staging buffer or later keys would overwrite earlier ones
    // before their queries execute.
    constexpr std::uint64_t bChunk = 64;
    Cycles now = 0;
    Cycles begin = 0;
    bool first = true;
    for (std::uint64_t i = 0; i < lookups; i += bChunk) {
        OpTrace ops;
        for (std::uint64_t j = 0; j < bChunk && i + j < lookups;
             ++j) {
            const auto key = keyForId(rng.nextBounded(populated));
            const Addr key_addr = stager.stage(key.data(), key.size());
            m.builder.lowerCompute(2, 2, 1, ops);
            m.builder.lowerLookupB(table.metadataAddr(), key_addr, ops);
        }
        const RunResult rr = m.core.run(ops, now);
        if (first) {
            begin = rr.startCycle;
            first = false;
        }
        now = rr.endCycle;
    }
    return static_cast<double>(now - begin) /
           static_cast<double>(lookups);
}

double
measureHaloNonBlocking(Machine &m, const CuckooHashTable &table,
                       std::uint64_t populated, std::uint64_t lookups,
                       std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    KeyStager stager(m);
    const Addr results =
        m.mem.allocate(8 * cacheLineBytes, cacheLineBytes);
    Cycles now = 0;
    Cycles begin = 0;
    bool first = true;

    // Paper SS5.1: queries are sent in batches of eight, then one
    // SNAPSHOT_READ per batch checks the packed result line.
    for (std::uint64_t i = 0; i < lookups; i += 8) {
        m.mem.zero(results, cacheLineBytes);
        m.hier.warmLine(results);
        OpTrace ops;
        const std::uint64_t batch = std::min<std::uint64_t>(
            8, lookups - i);
        for (std::uint64_t j = 0; j < batch; ++j) {
            const auto key = keyForId(rng.nextBounded(populated));
            const Addr key_addr = stager.stage(key.data(), key.size());
            m.builder.lowerCompute(2, 2, 1, ops);
            m.builder.lowerLookupNB(table.metadataAddr(), key_addr,
                                    results + j * 8, ops);
        }
        const RunResult rr = m.core.run(ops, now);
        if (first) {
            begin = rr.startCycle;
            first = false;
        }
        now = rr.endCycle;
        // Poll the result line until every slot is written.
        while (now < rr.lastNbReady) {
            OpTrace check;
            m.builder.lowerSnapshotCheck(results, check);
            now = m.core.run(check, now).endCycle;
        }
    }
    return static_cast<double>(now - begin) /
           static_cast<double>(lookups);
}

void
writeSampleSeries(obs::JsonWriter &j, const obs::SampleSeries &s,
                  std::size_t maxRows)
{
    const std::size_t n = s.rows.size();
    // Evenly spaced retained indices, endpoints pinned so the series
    // still spans the whole run after decimation.
    std::vector<std::size_t> keep;
    if (maxRows == 0 || n <= maxRows || maxRows < 2) {
        keep.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            keep.push_back(i);
    } else {
        keep.reserve(maxRows);
        for (std::size_t i = 0; i < maxRows; ++i)
            keep.push_back(i * (n - 1) / (maxRows - 1));
    }

    j.beginObject();
    j.key("columns").beginArray();
    for (const std::string &c : s.columns)
        j.value(c);
    j.endArray();
    j.key("t_nanos").beginArray();
    for (const std::size_t i : keep)
        j.value(s.tNanos[i]);
    j.endArray();
    j.key("rows").beginArray();
    for (const std::size_t i : keep) {
        j.beginArray();
        for (const double v : s.rows[i])
            j.value(v, 1);
        j.endArray();
    }
    j.endArray();
    j.kv("rows_recorded", static_cast<std::uint64_t>(n));
    j.endObject();
}

void
writePerfBlock(obs::JsonWriter &j, bool enabled, bool degraded,
               const std::vector<obs::PerfStageTotals> &stages)
{
    j.beginObject();
    j.kv("enabled", enabled);
    j.kv("degraded", degraded);
    j.key("stages").beginArray();
    for (const obs::PerfStageTotals &s : stages) {
        j.beginObject();
        j.kv("stage", s.stage);
        j.kv("entries", s.entries);
        j.kv("tsc_cycles", s.tscCycles);
        j.kv("tsc_cycles_per_entry",
             s.entries ? static_cast<double>(s.tscCycles) /
                             static_cast<double>(s.entries)
                       : 0.0,
             2);
        j.kv("sampled_entries", s.sampledEntries);
        for (unsigned e = 0; e < obs::numPerfEvents; ++e) {
            const double est = s.estimatedEvents(e);
            j.kv(obs::perfEventName(e), est, 1);
            j.kv(std::string(obs::perfEventName(e)) + "_per_entry",
                 s.entries ? est / static_cast<double>(s.entries)
                           : 0.0,
                 4);
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

} // namespace halo::bench

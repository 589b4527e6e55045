#include "bench_common.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "flow/tuple_space.hh"
#include "obs/meta.hh"
#include "obs/prom_http.hh"

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

bool
parseNumber(const char *text, std::uint64_t &out)
{
    // strtoull alone accepts leading blanks, a sign (negatives wrap)
    // and trailing garbage; only a bare digit string is a count.
    if (!text || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseNumber(const char *text, double &out)
{
    if (!text || *text == '\0' ||
        std::isspace(static_cast<unsigned char>(*text)))
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (errno != 0 || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

Flag
stringFlag(const char *name, const char *metavar, std::string &dst)
{
    return {name, metavar, [&dst](const char *text) {
                dst = text;
                return true;
            }};
}

Flag
switchFlag(const char *name, bool &dst)
{
    return {name, nullptr, [&dst](const char *) {
                dst = true;
                return true;
            }};
}

Flag
burstFlag(unsigned &dst)
{
    return {"--burst", "N", [&dst](const char *text) {
                std::uint64_t raw;
                if (!parseNumber(text, raw))
                    return false;
                dst = static_cast<unsigned>(
                    std::clamp<std::uint64_t>(raw, 1, maxBulkLanes));
                return true;
            }};
}

void
parseFlags(int argc, char **argv, BenchFlags &f, unsigned shared,
           const std::vector<Flag> &own)
{
    std::vector<Flag> flags;
    const auto add = [&](SharedFlag bit, Flag flag) {
        if (shared & bit)
            flags.push_back(std::move(flag));
    };
    add(OutFlag, stringFlag("--out", "FILE", f.outPath));
    add(PacketsFlag,
        numberFlag("--packets", "N", f.packets, std::uint64_t{1}));
    add(SmokeFlag, switchFlag("--smoke", f.smoke));
    add(PerfFlag, switchFlag("--perf", f.perf));
    add(PromFlag, stringFlag("--prom", "FILE", f.promPath));
    add(PromPortFlag, numberFlag("--prom-port", "N", f.promPort));
    add(TraceFlag, stringFlag("--trace", "FILE", f.tracePath));
    add(SampleUsFlag, numberFlag("--sample-us", "N", f.sampleMicros));
    flags.insert(flags.end(), own.begin(), own.end());

    for (int i = 1; i < argc; ++i) {
        const Flag *flag = nullptr;
        for (const Flag &candidate : flags)
            if (std::string_view(argv[i]) == candidate.name)
                flag = &candidate;
        bool ok = flag != nullptr;
        if (ok && flag->metavar) {
            ok = i + 1 < argc && flag->set(argv[i + 1]);
            if (!ok)
                std::fprintf(stderr, "error: %s needs a valid %s\n",
                             flag->name, flag->metavar);
            ++i;
        } else if (ok) {
            flag->set(nullptr);
        }
        if (!ok) {
            std::string usage;
            for (const Flag &fl : flags)
                usage += std::string(" [") + fl.name +
                         (fl.metavar ? std::string(" ") + fl.metavar
                                     : std::string()) +
                         "]";
            std::fprintf(stderr, "usage: %s%s\n", argv[0],
                         usage.c_str());
            std::exit(2);
        }
        f.given.insert(flag->name);
    }
}

std::unique_ptr<obs::PerfCounterGroup>
openPerfGroup(bool perf)
{
    if (!perf)
        return nullptr;
    auto group = std::make_unique<obs::PerfCounterGroup>();
    if (group->degraded())
        std::fprintf(stderr,
                     "note: perf_event_open failed (errno %d); "
                     "recording rdtsc-only hw cycles\n",
                     group->degradedErrno());
    return group;
}

HwPass
measureHw(obs::PerfCounterGroup &group, std::uint64_t ops,
          const std::function<void()> &body)
{
    const obs::PerfGroupReading r0 = group.read();
    const std::uint64_t t0 = obs::perfTscNow();
    body();
    const std::uint64_t t1 = obs::perfTscNow();
    const obs::PerfGroupReading r1 = group.read();
    HwPass hw;
    hw.tscCyclesPerOp = double(t1 - t0) / double(ops);
    if (r0.hwValid && r1.hwValid) {
        const auto delta = obs::perfScaledDelta(r0, r1);
        hw.valid = true;
        for (unsigned e = 0; e < obs::numPerfEvents; ++e)
            hw.perOp[e] = double(delta[e]) / double(ops);
    }
    return hw;
}

void
writeHwBlock(obs::JsonWriter &j, const HwPass &hw, const std::string &unit)
{
    j.beginObject();
    j.kv("valid", hw.valid);
    j.kv("tsc_cycles_per_" + unit, hw.tscCyclesPerOp, 2);
    if (hw.valid)
        for (unsigned e = 0; e < obs::numPerfEvents; ++e)
            j.kv(std::string(obs::perfEventName(e)) + "_per_" + unit,
                 hw.perOp[e], 4);
    j.endObject();
}

std::ofstream
openOutput(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return out;
}

void
writePromFile(const obs::MetricsRegistry &reg, const std::string &path)
{
    std::ofstream out = openOutput(path);
    reg.writePrometheus(out);
    std::printf("wrote %s\n", path.c_str());
}

double
cpuPps(const WorkerReport &w)
{
    return w.counters.busyNanos > 0 ? double(w.counters.packets) * 1e9 /
                                          double(w.counters.busyNanos)
                                    : 0.0;
}

double
aggregateCpuPps(const RuntimeReport &rep)
{
    double pps = 0.0;
    for (const WorkerReport &w : rep.workers)
        pps += cpuPps(w);
    return pps;
}

double
wallPps(const RuntimeReport &rep)
{
    return rep.wallSeconds > 0.0
               ? double(rep.aggregate.processed) / rep.wallSeconds
               : 0.0;
}

RuntimeConfig
benchRuntimeConfig(unsigned workers)
{
    RuntimeConfig cfg;
    cfg.numWorkers = workers;
    cfg.ringCapacity = 1024;
    cfg.batchSize = 32;
    cfg.rss.symmetric = true;
    cfg.enqueueRetries = 65536;
    return cfg;
}

void
applyTelemetry(RuntimeConfig &cfg, const BenchFlags &f, bool lastRun)
{
    cfg.samplerIntervalMicros = f.sampleMicros;
    cfg.perfEnabled = f.perf;
    if (lastRun && !f.tracePath.empty()) {
        cfg.traceCapacity = 1 << 15; // 512 KiB per worker
        cfg.revalidator.traceCapacity = 1 << 14;
    }
}

RuntimeReport
instrumentedRun(
    Runtime &rt, const BenchFlags &f, bool lastRun,
    const std::function<void()> &produce,
    const std::function<void(obs::MetricsRegistry &,
                             const RuntimeReport &)> &addSeries)
{
    // The registry's attached sources are relaxed atomics inside the
    // runtime, so the exporter may render it while workers run. The
    // same registry backs the --prom file afterwards.
    obs::MetricsRegistry reg;
    const bool serve = lastRun && f.has("--prom-port");
    const bool dump = lastRun && !f.promPath.empty();
    if (serve || dump)
        rt.registerMetrics(reg);
    std::unique_ptr<obs::PromHttpExporter> exporter;
    if (serve) {
        obs::PromHttpExporter::Options eo;
        eo.port = f.promPort;
        exporter = std::make_unique<obs::PromHttpExporter>(
            eo, [&reg] { return reg.renderPrometheus(); });
        if (exporter->start())
            std::printf("serving GET http://127.0.0.1:%u/metrics\n",
                        exporter->port());
        else
            std::fprintf(stderr, "warning: prom exporter: %s\n",
                         exporter->lastError().c_str());
    }

    const RuntimeReport rep = rt.run(produce);

    if (exporter) {
        exporter->stop();
        std::printf("prom exporter served %llu scrape%s\n",
                    static_cast<unsigned long long>(
                        exporter->scrapesServed()),
                    exporter->scrapesServed() == 1 ? "" : "s");
    }
    if (lastRun && !f.tracePath.empty()) {
        std::ofstream trace = openOutput(f.tracePath);
        rt.writeChromeTrace(trace);
        std::printf("wrote %s\n", f.tracePath.c_str());
    }
    if (dump) {
        reg.gauge("halo_rt_aggregate_cpu_pps", {}, aggregateCpuPps(rep));
        if (addSeries)
            addSeries(reg, rep);
        writePromFile(reg, f.promPath);
    }
    return rep;
}

bool
conserved(const RuntimeReport &rep, const std::string &label)
{
    const RuntimeSnapshot &a = rep.aggregate;
    if (a.processed > 0 && a.processed == a.enqueued &&
        a.enqueued + a.ringFullDrops == a.offered)
        return true;
    std::fprintf(stderr,
                 "GATE FAILED (%s): packet conservation (offered %llu "
                 "enqueued %llu processed %llu drops %llu)\n",
                 label.c_str(),
                 static_cast<unsigned long long>(a.offered),
                 static_cast<unsigned long long>(a.enqueued),
                 static_cast<unsigned long long>(a.processed),
                 static_cast<unsigned long long>(a.ringFullDrops));
    return false;
}

bool
perfStagesRecorded(const RuntimeReport &rep)
{
    for (const obs::PerfStageTotals &s : rep.perfStages)
        if (s.stage == "worker/batch" && s.entries > 0 && s.tscCycles > 0)
            return true;
    std::fprintf(stderr,
                 "smoke FAILED: --perf recorded no worker/batch stage "
                 "cycles (degraded=%s)\n",
                 rep.perfDegraded ? "true" : "false");
    return false;
}

void
writeHeader(obs::JsonWriter &j, const char *benchmark,
            const BenchFlags &f, bool perfDegraded)
{
    j.beginObject();
    j.kv("benchmark", benchmark);
    obs::writeMetaBlock(j);
    j.kv("host_cpus", std::thread::hardware_concurrency());
    j.kv("smoke", f.smoke);
    j.kv("packets_per_run", f.packets);
    j.kv("perf_enabled", f.perf);
    j.kv("perf_degraded", perfDegraded);
}

void
writeRunCommon(obs::JsonWriter &j, const RuntimeReport &rep)
{
    const RuntimeSnapshot &a = rep.aggregate;
    j.kv("aggregate_cpu_pps", aggregateCpuPps(rep), 1);
    j.kv("wall_pps", wallPps(rep), 1);
    j.kv("offered", a.offered);
    j.kv("enqueued", a.enqueued);
    j.kv("processed", a.processed);
    j.kv("matched", a.matched);
    j.kv("ring_full_drops", a.ringFullDrops);
    j.kv("batches", a.batches);
    j.kv("burst_waits", a.burstWaits);
    j.kv("batch_p50_us", rep.batchP50Nanos / 1e3, 1);
    j.kv("batch_p90_us", rep.batchP90Nanos / 1e3, 1);
    j.kv("batch_p99_us", rep.batchP99Nanos / 1e3, 1);
    j.kv("batch_p999_us", rep.batchP999Nanos / 1e3, 1);
    if (!rep.samples.columns.empty()) {
        j.key("samples");
        writeSampleSeries(j, rep.samples);
    }
    if (rep.perfEnabled) {
        j.key("perf");
        writePerfBlock(j, rep.perfEnabled, rep.perfDegraded,
                       rep.perfStages);
    }
}

FiveTuple
tupleForId(std::uint64_t id)
{
    const std::uint64_t m = id * 0x9e3779b97f4a7c15ull;
    FiveTuple t;
    // Low 24 id bits in srcIp keep tuples unique for any id < 2^24.
    t.srcIp = 0x0a000000u | static_cast<std::uint32_t>(id & 0xffffff);
    t.dstIp = 0xac100000u |
              static_cast<std::uint32_t>((m >> 24) & 0xfffff);
    t.srcPort = static_cast<std::uint16_t>(1024 + (m & 0xffff) % 60000);
    t.dstPort = (m >> 40) & 1 ? 443 : 80;
    t.proto = static_cast<std::uint8_t>(IpProto::Udp);
    return t;
}

RuleSet
fallbackRules()
{
    FlowRule fallback;
    fallback.mask = FlowMask{}; // all-wildcard: matches everything
    fallback.priority = 1;
    fallback.action = Action{ActionKind::Forward, 1};
    return {fallback};
}

void
preinstallExact(Runtime &rt, std::uint64_t count,
                const std::function<FiveTuple(std::uint64_t)> &flowAt,
                const FlowRule &rule)
{
    // Single-threaded and before start(): the workers have not
    // spawned, so plain inserts are safe.
    const std::uint64_t value =
        encodeRuleValue(rule.action, rule.priority);
    std::vector<unsigned> exactTuple(rt.numWorkers());
    for (unsigned w = 0; w < rt.numWorkers(); ++w)
        exactTuple[w] = rt.worker(w).vswitch().tupleSpace().ensureTuple(
            FlowMask::exact());
    for (std::uint64_t i = 0; i < count; ++i) {
        const FiveTuple t = flowAt(i);
        const unsigned shard = rt.dispatcher().shardFor(t);
        const auto key = t.toKey();
        CuckooHashTable &table =
            rt.worker(shard).vswitch().tupleSpace().table(
                exactTuple[shard]);
        if (!table.insert(KeyView(key.data(), key.size()), value)) {
            std::fprintf(stderr,
                         "error: pre-install failed at flow %llu of "
                         "%llu (shard %u, capacity %llu)\n",
                         static_cast<unsigned long long>(i),
                         static_cast<unsigned long long>(count), shard,
                         static_cast<unsigned long long>(
                             table.capacity()));
            std::exit(1);
        }
    }
}

} // namespace halo::bench

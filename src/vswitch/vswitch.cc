#include "vswitch/vswitch.hh"

#include <algorithm>

#include "core/halo_system.hh"
#include "cpu/core_model.hh"
#include "cpu/trace_builder.hh"
#include "obs/stage.hh"
#include "sim/logging.hh"

namespace halo {

namespace {

constexpr unsigned rxRingSlots = 64;
constexpr unsigned rxSlotBytes = 128; // two lines per 64-B frame slot
constexpr unsigned keySlots = 1024;

} // namespace

/**
 * The timing model a timed switch carries: the simulated core and
 * hierarchy every stage is priced on, the optional HALO complex, the
 * trace builders and scratch that lower reference streams to micro-ops,
 * the simulated-memory buffers only priced stages touch (RX ring, key
 * staging, LOOKUP_NB results), and the datapath clock. Its methods are
 * a timed switch's side of the pipeline's stages: each does the stage's
 * lookup through a traced probe, prices it on the core and advances the
 * clock.
 */
struct VirtualSwitch::Timing
{
    Timing(SimMemory &memory, MemoryHierarchy &hierarchy,
           CoreModel &core_model, HaloSystem *halo_system,
           const VSwitchConfig &cfg)
        : mem(memory),
          hier(hierarchy),
          core(core_model),
          halo(halo_system),
          tableBuilder(SoftwareProfile{}),
          emcBuilder(SoftwareProfile{cfg.emcProfileInstructions, 0.362,
                                     0.118, 0.210, 0.309, 3})
    {
        core.setLookupEngine(halo);
        rxRing = mem.allocate(rxRingSlots * rxSlotBytes, cacheLineBytes);
        keyStage = mem.allocate(keySlots * cacheLineBytes, cacheLineBytes);
        // One result word per key slot, 8 words per line (paper SS4.5).
        resultBuffer = mem.allocate(ceilDiv(keySlots, 8) * cacheLineBytes,
                                    cacheLineBytes);
        // Pre-size the per-packet scratch so the steady state never
        // grows it.
        refScratch.reserve(64);
        opScratch.reserve(4096);
        pollScratch.reserve(512);
    }

    /** Cleared reference-stream scratch for the next traced lookup. */
    AccessTrace *
    trace()
    {
        refScratch.clear();
        return &refScratch;
    }

    /** Cleared micro-op scratch for the next stage. */
    OpTrace &
    ops()
    {
        opScratch.clear();
        return opScratch;
    }

    /** Run @p lowered on the core from the clock (advanced to the
     *  end); returns the elapsed cycles, instructions accrue to @p res. */
    Cycles
    run(const OpTrace &lowered, PacketResult &res)
    {
        const RunResult rr = core.run(lowered, clock);
        res.instructions += rr.instructions;
        clock = rr.endCycle;
        return rr.elapsed();
    }

    /** @p key masked by @p mask, into the mask scratch. */
    KeyView
    masked(const FlowMask &mask, KeySpan key)
    {
        mask.applyInto(key, maskScratch.data());
        return KeyView(maskScratch.data(), maskScratch.size());
    }

    /** Stage a key into the streaming buffer (see the vswitch.hh file
     *  comment). */
    Addr
    stageKey(KeyView key, unsigned slot)
    {
        const Addr addr = keyStage + (slot % keySlots) * cacheLineBytes;
        mem.write(addr, key.data(), key.size());
        // Streaming store: lands in LLC, never dirties the private
        // caches.
        hier.warmLine(addr);
        return addr;
    }

    void priceFrame(const VSwitchConfig &cfg, const Packet &packet,
                    PacketResult &res);
    std::optional<std::uint64_t> probeEmc(const ExactMatchCache &emc,
                                          KeySpan key, PacketResult &res);
    void walkSoftware(const TupleSpace &tuples, KeySpan key,
                      TupleSpace::BulkWalkLane &lane, PacketResult &res);
    void walkBlocking(const TupleSpace &tuples, KeySpan key,
                      TupleSpace::BulkWalkLane &lane, PacketResult &res);
    void walkNonBlocking(const TupleSpace &tuples, KeySpan key,
                         TupleSpace::BulkWalkLane &lane, PacketResult &res);
    void priceUpcall(const TupleSpace &openflow, KeySpan key,
                     PacketResult &res);
    void priceAction(const VSwitchConfig &cfg, PacketResult &res);

    SimMemory &mem;
    MemoryHierarchy &hier;
    CoreModel &core;
    HaloSystem *halo;
    TraceBuilder tableBuilder; ///< Table-1 profile (cuckoo lookups)
    TraceBuilder emcBuilder;   ///< lighter profile for EMC probes

    /// Per-packet scratch reused across packets (cleared, never
    /// reallocated) so steady-state classification does zero heap
    /// allocation: one AccessTrace for functional reference streams,
    /// one OpTrace for the lowered micro-ops of the current stage, one
    /// for SNAPSHOT_READ poll rounds, one masked key.
    AccessTrace refScratch;
    OpTrace opScratch;
    OpTrace pollScratch;
    std::array<std::uint8_t, FiveTuple::keyBytes> maskScratch{};

    /// Monotonic datapath clock: accelerator and cache reservation
    /// state advances in absolute time, so packets must too.
    Cycles clock = 0;
    Addr rxRing = invalidAddr;       ///< DDIO-resident packet buffers
    Addr keyStage = invalidAddr;     ///< streaming key buffers
    Addr resultBuffer = invalidAddr; ///< LOOKUP_NB result lines
    unsigned rxSlot = 0;
};

/** Stage 1: packet IO (RX descriptor + frame copy into the ring; DDIO
 *  places the frame in LLC, the core then reads it) and header
 *  pre-processing over the frame. */
void
VirtualSwitch::Timing::priceFrame(const VSwitchConfig &cfg,
                                  const Packet &packet, PacketResult &res)
{
    const Addr slot_addr =
        rxRing + (rxSlot++ % rxRingSlots) * rxSlotBytes;
    const std::size_t n =
        std::min<std::size_t>(packet.bytes().size(), rxSlotBytes);
    mem.write(slot_addr, packet.bytes().data(), n);
    hier.warmLine(slot_addr);
    hier.warmLine(slot_addr + cacheLineBytes);

    OpTrace &io = ops();
    tableBuilder.lowerCompute(cfg.ioArith, cfg.ioOthers, cfg.ioScratch, io);
    tableBuilder.lowerLoad(slot_addr, 16, AccessPhase::Payload, io);
    res.packetIo = run(io, res);

    OpTrace &pre = ops();
    tableBuilder.lowerLoad(slot_addr, 48, AccessPhase::Payload, pre);
    tableBuilder.lowerCompute(cfg.preArith, cfg.preOthers, cfg.preScratch,
                              pre);
    res.preprocess = run(pre, res);
}

/** Stage 2: one traced EMC probe. */
std::optional<std::uint64_t>
VirtualSwitch::Timing::probeEmc(const ExactMatchCache &emc, KeySpan key,
                                PacketResult &res)
{
    AccessTrace *refs = trace();
    const auto hit = emc.lookup(key, refs);
    OpTrace &probe = ops();
    emcBuilder.lowerTableOp(*refs, probe);
    res.emcCycles = run(probe, res);
    return hit;
}

/** Stage 3, Software: the traced MegaFlow first-match walk, each probed
 *  tuple priced as a full Table-1-profile cuckoo lookup. */
void
VirtualSwitch::Timing::walkSoftware(const TupleSpace &tuples, KeySpan key,
                                    TupleSpace::BulkWalkLane &lane,
                                    PacketResult &res)
{
    OpTrace &walk = ops();
    for (unsigned t = 0; t < tuples.numTuples(); ++t) {
        const KeyView probe = masked(tuples.mask(t), key);
        AccessTrace *refs = trace();
        std::optional<std::uint64_t> value;
        {
            HALO_STAGE("vswitch/cuckoo");
            value = tuples.table(t).lookup(probe, refs);
        }
        // Mask application: a handful of vector ANDs per tuple.
        tableBuilder.lowerCompute(4, 2, 0, walk);
        tableBuilder.lowerTableOp(*refs, walk);
        ++lane.searched;
        if (value) {
            lane.found = true;
            lane.match = TupleMatch{*value, decodeRulePriority(*value), t,
                                    lane.searched};
            break;
        }
    }
    res.megaflowCycles = run(walk, res);
    if (halo) {
        // The software path maintains its own linear-counting estimate
        // so Hybrid mode can switch back (paper SS4.6).
        halo->hybrid().observe(hashBytes(HashKind::XxMix, 0, key));
    }
}

/** Stage 3, HaloBlocking: LOOKUP_B per probed tuple with
 *  result-dependent sequencing (each next probe waits on the previous
 *  result). Which tuples a sequential first-match walk probes is
 *  determined functionally first. */
void
VirtualSwitch::Timing::walkBlocking(const TupleSpace &tuples, KeySpan key,
                                    TupleSpace::BulkWalkLane &lane,
                                    PacketResult &res)
{
    const auto match = tuples.lookupFirst(key);
    lane.searched = match ? match->tuplesSearched : tuples.numTuples();
    if (match) {
        lane.found = true;
        lane.match = *match;
    }

    OpTrace &walk = ops();
    std::int32_t prev_lookup = -1;
    for (unsigned t = 0; t < lane.searched; ++t) {
        const Addr key_addr = stageKey(masked(tuples.mask(t), key), t);
        // Masking + staging cost.
        tableBuilder.lowerCompute(4, 3, 1, walk);
        tableBuilder.lowerLookupB(tuples.table(t).metadataAddr(), key_addr,
                                  walk);
        const auto lookup_idx = static_cast<std::int32_t>(walk.size()) - 1;
        if (prev_lookup >= 0)
            walk[lookup_idx].dep = prev_lookup + 1; // after prior branch
        // Branch consuming the result: serializes the walk.
        MicroOp branch;
        branch.kind = OpKind::Branch;
        branch.dep = lookup_idx;
        branch.phase = AccessPhase::Bucket;
        branch.unpredictable = true;
        walk.push_back(branch);
        prev_lookup = lookup_idx;
    }
    res.megaflowCycles = run(walk, res);
}

/** Stage 3, HaloNonBlocking: zero the result lines (they signal
 *  completion by becoming non-zero), stage all masked keys, fan out
 *  LOOKUP_NB to every tuple, then SNAPSHOT_READ each result line until
 *  all slots are non-zero (paper SS4.5 batching: 8 results per line).
 *  The first tuple's hit wins, as MegaFlow first-match semantics
 *  dictate. */
void
VirtualSwitch::Timing::walkNonBlocking(const TupleSpace &tuples,
                                       KeySpan key,
                                       TupleSpace::BulkWalkLane &lane,
                                       PacketResult &res)
{
    const unsigned n = tuples.numTuples();
    if (n == 0)
        return;
    lane.searched = n;

    const unsigned lines = static_cast<unsigned>(ceilDiv(n, 8));
    for (unsigned l = 0; l < lines; ++l) {
        mem.zero(resultBuffer + l * cacheLineBytes, cacheLineBytes);
        hier.warmLine(resultBuffer + l * cacheLineBytes);
    }

    OpTrace &fanout = ops();
    for (unsigned t = 0; t < n; ++t) {
        const Addr key_addr = stageKey(masked(tuples.mask(t), key), t);
        tableBuilder.lowerCompute(4, 3, 1, fanout);
        const Addr result_addr =
            resultBuffer + (t / 8) * cacheLineBytes + (t % 8) * 8;
        tableBuilder.lowerLookupNB(tuples.table(t).metadataAddr(), key_addr,
                                   result_addr, fanout);
    }
    const RunResult rr = core.run(fanout, clock);
    res.instructions += rr.instructions;
    const Cycles results_ready = rr.lastNbReady;

    // Poll with SNAPSHOT_READ until every line reports 8 ready slots.
    Cycles poll = rr.endCycle;
    do {
        OpTrace &check = pollScratch;
        check.clear();
        for (unsigned l = 0; l < lines; ++l)
            tableBuilder.lowerSnapshotCheck(resultBuffer + l * cacheLineBytes,
                                            check);
        const RunResult cr = core.run(check, poll);
        res.instructions += cr.instructions;
        poll = cr.endCycle;
    } while (poll < results_ready);

    clock = std::max(poll, results_ready);
    res.megaflowCycles = clock - rr.startCycle;

    for (unsigned t = 0; t < n; ++t) {
        const std::uint64_t word = mem.load<std::uint64_t>(
            resultBuffer + (t / 8) * cacheLineBytes + (t % 8) * 8);
        if (word != nbPendingWord && word != nbMissWord) {
            lane.found = true;
            lane.match = TupleMatch{word, decodeRulePriority(word), t, t + 1};
            break;
        }
    }
}

/** The upcall's OpenFlow search: one traced probe per tuple, then the
 *  priority comparison across matches. */
void
VirtualSwitch::Timing::priceUpcall(const TupleSpace &openflow, KeySpan key,
                                   PacketResult &res)
{
    OpTrace &search = ops();
    for (unsigned i = 0; i < openflow.numTuples(); ++i) {
        const KeyView probe = masked(openflow.mask(i), key);
        AccessTrace *refs = trace();
        openflow.table(i).lookup(probe, refs);
        tableBuilder.lowerCompute(4, 2, 0, search);
        tableBuilder.lowerTableOp(*refs, search);
    }
    tableBuilder.lowerCompute(2 * openflow.numTuples(), openflow.numTuples(),
                              0, search);
    res.megaflowCycles += run(search, res);
}

/** Action execution + bookkeeping ("others" in Fig. 3). */
void
VirtualSwitch::Timing::priceAction(const VSwitchConfig &cfg,
                                   PacketResult &res)
{
    OpTrace &act = ops();
    tableBuilder.lowerCompute(cfg.actArith, cfg.actOthers, cfg.actScratch,
                              act);
    res.otherCycles = run(act, res);
}

void
SwitchTotals::add(const PacketResult &r)
{
    ++packets;
    emcHits += r.emcHit ? 1 : 0;
    matches += r.matched ? 1 : 0;
    total += r.total;
    packetIo += r.packetIo;
    preprocess += r.preprocess;
    emcCycles += r.emcCycles;
    megaflowCycles += r.megaflowCycles;
    otherCycles += r.otherCycles;
    instructions += r.instructions;
}

double
SwitchTotals::cyclesPerPacket() const
{
    return packets ? static_cast<double>(total) /
                         static_cast<double>(packets)
                   : 0.0;
}

VirtualSwitch::VirtualSwitch(SimMemory &memory, const VSwitchConfig &config)
    : mem(memory),
      cfg(config),
      emcCache(memory, config.emcEntries),
      tuples(memory, config.tupleConfig),
      openflow(memory, config.tupleConfig)
{
    if (cfg.mode != LookupMode::Software)
        fatal("a functional VirtualSwitch runs Software mode only; the "
              "HALO modes need a timed switch");
}

VirtualSwitch::VirtualSwitch(SimMemory &memory, MemoryHierarchy &hierarchy,
                             CoreModel &core_model,
                             HaloSystem *halo_system,
                             const VSwitchConfig &config)
    : mem(memory),
      cfg(config),
      emcCache(memory, config.emcEntries),
      tuples(memory, config.tupleConfig),
      openflow(memory, config.tupleConfig)
{
    if (cfg.mode != LookupMode::Software)
        HALO_ASSERT(halo_system, "HALO mode requires a HaloSystem");
    timing_ = std::make_unique<Timing>(memory, hierarchy, core_model,
                                       halo_system, cfg);
}

VirtualSwitch::VirtualSwitch(VirtualSwitch &&) = default;
VirtualSwitch::~VirtualSwitch() = default;

Cycles
VirtualSwitch::now() const
{
    return timing_ ? timing_->clock : 0;
}

void
VirtualSwitch::installRules(const RuleSet &rules)
{
    for (const FlowRule &rule : rules) {
        if (!tuples.addRule(rule))
            fatal("tuple table overflow while installing rules; raise "
                  "tupleConfig.tupleCapacity");
    }
}

void
VirtualSwitch::installOpenflowRules(const RuleSet &rules)
{
    // Only upcalls read these tables: size each to its mask's rules,
    // not to tupleCapacity (65,536 entries per mask).
    using MaskCount = std::pair<FlowMask, std::uint64_t>;
    std::vector<MaskCount> counts;
    for (const FlowRule &rule : rules) {
        auto it = std::ranges::find(counts, rule.mask, &MaskCount::first);
        if (it == counts.end())
            it = counts.insert(it, {rule.mask, 0});
        ++it->second;
    }
    for (const auto &[mask, n] : counts)
        openflow.ensureTuple(mask, std::max<std::uint64_t>(
                                       64, nextPowerOfTwo(2 * n)));
    for (const FlowRule &rule : rules) {
        if (!openflow.addRule(rule))
            fatal("OpenFlow tuple overflow while installing rules");
    }
}

void
VirtualSwitch::warmTables()
{
    if (!timing_)
        return;
    MemoryHierarchy &hier = timing_->hier;
    tuples.forEachLine([&hier](Addr a) { hier.warmLine(a); });
    openflow.forEachLine([&hier](Addr a) { hier.warmLine(a); });
    emcCache.forEachLine([&hier](Addr a) { hier.warmLine(a); });
}

void
VirtualSwitch::openflowUpcall(KeySpan key, PacketResult &res)
{
    HALO_STAGE("vswitch/upcall");
    // The OpenFlow layer searches EVERY tuple and keeps the highest
    // priority match (paper SS2.2) — strictly slower than MegaFlow.
    if (timing_)
        timing_->priceUpcall(openflow, key, res);
    const auto best = openflow.lookupBest(key);
    if (!best)
        return;
    ++upcallCount;
    res.matched = true;
    res.action = Action::decode(best->value);

    // Install the winning rule's pattern into the MegaFlow layer so
    // later packets of this flow take the fast path (the upcall's
    // flow-install step; write cost is charged to "others" as OVS
    // batches installs off the packet path).
    FlowRule mega;
    mega.mask = cfg.exactUpcallInstalls ? FlowMask::exact()
                                        : openflow.mask(best->tupleIndex);
    mega.maskedKey = mega.mask.apply(key);
    mega.priority = best->priority;
    mega.action = res.action;
    tuples.addRule(mega);
}

LookupMode
VirtualSwitch::effectiveMode() const
{
    if (cfg.mode != LookupMode::Hybrid)
        return cfg.mode;
    return timing_->halo->hybrid().mode() == ComputeMode::Software
               ? LookupMode::Software
               : LookupMode::HaloNonBlocking;
}

PacketResult
VirtualSwitch::processPacket(const Packet &packet)
{
    PacketResult res;
    processBurst(std::span<const Packet>(&packet, 1),
                 std::span<PacketResult>(&res, 1));
    return res;
}

PacketResult
VirtualSwitch::classifyTuple(const FiveTuple &tuple)
{
    PacketResult res;
    PacketResult *out = &res;
    classifyStaged(&tuple, nullptr, 1, &out);
    return res;
}

std::vector<PacketResult>
VirtualSwitch::classifyBurstNB(std::span<const FiveTuple> batch)
{
    std::vector<PacketResult> results(batch.size());
    nbBurst(batch, results.data());
    return results;
}

void
VirtualSwitch::nbBurst(std::span<const FiveTuple> batch,
                       PacketResult *out)
{
    HALO_ASSERT(timing_ && timing_->halo,
                "burst NB classification requires HALO");
    const unsigned n = tuples.numTuples();
    for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = PacketResult{};
    if (batch.empty())
        return;
    // Each packet consumes one key-staging slot per tuple; split the
    // burst so a chunk never outgrows the staging buffer.
    const std::size_t chunk =
        n ? std::max<std::size_t>(1, keySlots / n) : batch.size();
    for (std::size_t off = 0; off < batch.size(); off += chunk) {
        const std::size_t c =
            std::min<std::size_t>(chunk, batch.size() - off);
        nbBurstChunk(batch.subspan(off, c), out + off);
    }
}

void
VirtualSwitch::nbBurstChunk(std::span<const FiveTuple> batch,
                            PacketResult *results)
{
    const unsigned n = tuples.numTuples();
    HALO_ASSERT(batch.size() * n <= keySlots,
                "burst too large for the key staging buffer");

    Timing &tm = *timing_;
    const Addr results_base = tm.resultBuffer;
    const Cycles start = tm.clock;
    const unsigned lines =
        static_cast<unsigned>(ceilDiv(batch.size() * n, 8));
    for (unsigned l = 0; l < lines; ++l) {
        mem.zero(results_base + l * cacheLineBytes, cacheLineBytes);
        tm.hier.warmLine(results_base + l * cacheLineBytes);
    }

    // Issue every query of every packet back to back.
    OpTrace &ops = tm.ops();
    unsigned slot = 0;
    for (const FiveTuple &tuple : batch) {
        const auto key = tuple.toKey();
        for (unsigned t = 0; t < n; ++t) {
            const Addr key_addr =
                tm.stageKey(tm.masked(tuples.mask(t), key), slot);
            tm.tableBuilder.lowerCompute(4, 3, 1, ops);
            const Addr result_addr = results_base +
                                     (slot / 8) * cacheLineBytes +
                                     (slot % 8) * 8;
            tm.tableBuilder.lowerLookupNB(tuples.table(t).metadataAddr(),
                                          key_addr, result_addr, ops);
            ++slot;
        }
    }
    const RunResult rr = tm.core.run(ops, start);
    Cycles now = rr.endCycle;
    std::uint64_t instructions = rr.instructions;

    // One SNAPSHOT_READ sweep per poll round across all result lines.
    while (now < rr.lastNbReady) {
        OpTrace &check = tm.pollScratch;
        check.clear();
        for (unsigned l = 0; l < lines; ++l)
            tm.tableBuilder.lowerSnapshotCheck(
                results_base + l * cacheLineBytes, check);
        const RunResult cr = tm.core.run(check, now);
        instructions += cr.instructions;
        now = cr.endCycle;
    }
    tm.clock = now;

    // Harvest per-packet first-match results, then resolve each packet
    // through stage 4 in packet order: a miss's upcall is priced after
    // the burst.
    slot = 0;
    const Cycles per_packet =
        (now - start) / static_cast<Cycles>(batch.size());
    bool installed = false;
    for (std::size_t p = 0; p < batch.size(); ++p) {
        PacketResult &res = results[p];
        res.tuple = batch[p];
        TupleSpace::BulkWalkLane lane;
        lane.searched = n;
        for (unsigned t = 0; t < n; ++t, ++slot) {
            const std::uint64_t word = mem.load<std::uint64_t>(
                results_base + (slot / 8) * cacheLineBytes +
                (slot % 8) * 8);
            if (!lane.found && word != nbPendingWord &&
                word != nbMissWord) {
                lane.found = true;
                lane.match =
                    TupleMatch{word, decodeRulePriority(word), t, t + 1};
            }
        }
        res.megaflowCycles = per_packet;
        // An even share of the burst's issue and poll instructions; the
        // first (instructions % size) packets carry the remainder.
        res.instructions = instructions / batch.size() +
                           (p < instructions % batch.size() ? 1 : 0);
        resolveMiss(batch[p].toKey(), lane, false, installed, res);
        res.total = res.megaflowCycles;
        sums.add(res);
    }
}

void
VirtualSwitch::classifyBurst(std::span<const FiveTuple> batch,
                             std::span<PacketResult> results)
{
    HALO_ASSERT(results.size() >= batch.size(),
                "result span smaller than the batch");
    if (cfg.mode == LookupMode::HaloNonBlocking) {
        nbBurst(batch, results.data());
        return;
    }
    const std::size_t width = lanes();
    for (std::size_t off = 0; off < batch.size(); off += width) {
        const std::size_t n = std::min(width, batch.size() - off);
        PacketResult *out[maxBulkLanes];
        for (std::size_t i = 0; i < n; ++i)
            out[i] = &results[off + i];
        classifyStaged(batch.data() + off, nullptr, n, out);
    }
}

void
VirtualSwitch::processBurst(std::span<const Packet> batch,
                            std::span<PacketResult> results)
{
    HALO_ASSERT(results.size() >= batch.size(),
                "result span smaller than the batch");
    const std::size_t width = lanes();
    for (std::size_t off = 0; off < batch.size(); off += width) {
        const std::size_t end = std::min(off + width, batch.size());
        PacketResult *out[maxBulkLanes];
        const Packet *frames[maxBulkLanes];
        std::size_t n = 0;
        for (std::size_t i = off; i < end; ++i) {
            if (const auto tuple = batch[i].flowTuple()) {
                burstTuples_[n] = *tuple;
                frames[n] = &batch[i];
                out[n++] = &results[i];
            } else {
                results[i] = PacketResult{}; // malformed: dropped
                ++sums.packets;
            }
        }
        classifyStaged(burstTuples_.data(), frames, n, out);
    }
}

void
VirtualSwitch::classifyStaged(const FiveTuple *batch,
                              const Packet *const *frames, std::size_t n,
                              PacketResult *const *out)
{
    HALO_ASSERT(n <= lanes(), "staged burst too large");
    if (n == 0)
        return;

    // --- Stage 1: each packet's key, once. A timed switch prices the
    //     frame's IO and pre-processing, before the Hybrid controller
    //     picks the engine. ---
    std::array<std::uint8_t, FiveTuple::keyBytes> keys[maxBulkLanes];
    const std::uint8_t *keyPtr[maxBulkLanes];
    for (std::size_t i = 0; i < n; ++i) {
        *out[i] = PacketResult{};
        out[i]->tuple = batch[i];
        keys[i] = batch[i].toKey();
        keyPtr[i] = keys[i].data();
    }
    const Cycles start = now();
    if (timing_ && frames)
        timing_->priceFrame(cfg, *frames[0], *out[0]);
    const LookupMode mode = effectiveMode();

    // --- Stage 2: the EMC probe, Software engine only (the adaptive
    //     controller may have the EMC off: one relaxed flag load per
    //     batch then). ---
    const bool emc_on = mode == LookupMode::Software && cfg.useEmc &&
                        emcCache.enabled();
    std::uint32_t emc_hits = 0;
    std::uint64_t emc_values[maxBulkLanes];
    if (emc_on) {
        HALO_STAGE("vswitch/emc");
        if (timing_) {
            if (const auto hit = timing_->probeEmc(emcCache, keys[0],
                                                   *out[0])) {
                emc_hits = 1;
                emc_values[0] = *hit;
            }
        } else {
            std::uint64_t slots[maxBulkLanes][2];
            emc_hits = emcCache.lookupBulk(keyPtr, n, emc_values, slots);
        }
    }

    // --- Stage 3: one first-match walk over the EMC misses: bulk and
    //     untraced, or the timed engine's walk of its one lane. ---
    TupleSpace::BulkWalkLane *walk = burstWalk_.data();
    TupleSpace::BulkWalkLane *walkPtr[maxBulkLanes];
    const std::uint8_t *missKeys[maxBulkLanes];
    std::size_t misses = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (emc_hits >> i & 1u)
            continue;
        walk[i].reset();
        walkPtr[misses] = &walk[i];
        missKeys[misses++] = keyPtr[i];
    }
    if (misses) {
        HALO_STAGE("vswitch/tuple_space");
        if (!timing_)
            tuples.lookupFirstBulk(missKeys, misses, walkPtr);
        else if (mode == LookupMode::Software)
            timing_->walkSoftware(tuples, keys[0], walk[0], *out[0]);
        else if (mode == LookupMode::HaloBlocking)
            timing_->walkBlocking(tuples, keys[0], walk[0], *out[0]);
        else
            timing_->walkNonBlocking(tuples, keys[0], walk[0], *out[0]);
    }

    // --- Stage 4: actions, slow path and stamps, in packet order. ---
    bool installed = false;
    for (std::size_t i = 0; i < n; ++i) {
        PacketResult &res = *out[i];
        const KeySpan key(keys[i]);
        if (emc_hits >> i & 1u) {
            res.emcHit = true;
            res.matched = true;
            res.action = Action::decode(emc_values[i]);
        } else {
            resolveMiss(key, walk[i], emc_on, installed, res);
        }

        // Aging support: stamp the flow's activity slot on every match
        // (one relaxed store; the revalidator compares against it). The
        // flow estimator shares the same hash — every packet counts
        // toward cardinality, matched or not.
        if ((activity_ && res.matched) || estimator_) [[unlikely]] {
            const std::uint64_t h = activityHash(key);
            if (activity_ && res.matched)
                activity_->touch(h);
            if (estimator_)
                estimator_->observe(h);
        }
    }
    if (timing_) {
        timing_->priceAction(cfg, *out[0]);
        out[0]->total = now() - start;
    }
    for (std::size_t i = 0; i < n; ++i)
        sums.add(*out[i]);
}

void
VirtualSwitch::resolveMiss(KeySpan key, const TupleSpace::BulkWalkLane &walk,
                           bool promote, bool &installed, PacketResult &res)
{
    // Once an inline upcall of this burst has installed a megaflow, the
    // later misses' walks are stale: like OVS, walk again before
    // resolving another upcall (the flow may be the one just installed).
    // Every later walk is redone, hits included, because a masked
    // install can also precede a later packet's first match.
    std::optional<TupleMatch> match;
    if (installed) {
        match = tuples.lookupFirst(key);
        res.tuplesSearched =
            match ? match->tuplesSearched : tuples.numTuples();
    } else {
        res.tuplesSearched = walk.searched;
        if (walk.found)
            match = walk.match;
    }
    if (match) {
        res.matched = true;
        res.action = Action::decode(match->value);
        if (promote) {
            if (cfg.deferSlowPath) {
                // Single-writer invariant: the revalidator performs the
                // insert; hand the wish back to the caller.
                res.emcPromote = true;
                res.promoteValue = match->value;
            } else {
                // Promote the flow into the EMC (write charged as part
                // of "others"; OVS batches these inserts).
                emcCache.insert(key, match->value);
            }
        }
    } else if (cfg.useOpenflowLayer) {
        // Upcalls run in software whatever the engine, as in OVS.
        // Deferred mode hands the miss back to the caller instead: the
        // revalidator thread owns the upcall and the install.
        if (cfg.deferSlowPath) {
            res.slowPathPending = true;
        } else {
            openflowUpcall(key, res);
            installed |= res.matched;
        }
    }
}

} // namespace halo

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
 * and the simulated-memory buffers only priced stages touch (RX ring,
 * key staging, LOOKUP_NB results).
 */
struct VirtualSwitch::Timing
{
    Timing(SimMemory &mem, MemoryHierarchy &hierarchy, CoreModel &core_model,
           HaloSystem *halo_system, const VSwitchConfig &cfg)
        : hier(hierarchy),
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

    /** Run @p ops on the core from @p now (advanced to the end);
     *  returns the elapsed cycles, instructions accrue to @p res. */
    Cycles
    run(const OpTrace &ops, PacketResult &res, Cycles &now)
    {
        const RunResult rr = core.run(ops, now);
        res.instructions += rr.instructions;
        now = rr.endCycle;
        return rr.elapsed();
    }

    MemoryHierarchy &hier;
    CoreModel &core;
    HaloSystem *halo;
    TraceBuilder tableBuilder; ///< Table-1 profile (cuckoo lookups)
    TraceBuilder emcBuilder;   ///< lighter profile for EMC probes

    /// Per-packet scratch reused across packets (cleared, never
    /// reallocated) so steady-state classification does zero heap
    /// allocation: one AccessTrace for functional reference streams,
    /// one OpTrace for the lowered micro-ops of the current stage, one
    /// for SNAPSHOT_READ poll rounds.
    AccessTrace refScratch;
    OpTrace opScratch;
    OpTrace pollScratch;

    /// Monotonic datapath clock: accelerator and cache reservation
    /// state advances in absolute time, so packets must too.
    Cycles clock = 0;
    Addr rxRing = invalidAddr;       ///< DDIO-resident packet buffers
    Addr keyStage = invalidAddr;     ///< streaming key buffers
    Addr resultBuffer = invalidAddr; ///< LOOKUP_NB result lines
    unsigned rxSlot = 0;
};

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
VirtualSwitch::openflowUpcall(const FiveTuple &tuple, PacketResult &res,
                              Cycles &now)
{
    HALO_STAGE("vswitch/upcall");
    // The OpenFlow layer searches EVERY tuple and keeps the highest
    // priority match (paper SS2.2) — strictly slower than MegaFlow.
    const auto key = tuple.toKey();
    if (timing_) {
        // Price the search: one traced probe per tuple, then the
        // priority comparison across matches.
        Timing &t = *timing_;
        OpTrace &ops = t.ops();
        for (unsigned i = 0; i < openflow.numTuples(); ++i) {
            openflow.mask(i).applyInto(key, maskScratch.data());
            AccessTrace *trace = t.trace();
            openflow.table(i).lookup(
                KeyView(maskScratch.data(), maskScratch.size()), trace);
            t.tableBuilder.lowerCompute(4, 2, 0, ops);
            t.tableBuilder.lowerTableOp(*trace, ops);
        }
        t.tableBuilder.lowerCompute(2 * openflow.numTuples(),
                                    openflow.numTuples(), 0, ops);
        res.megaflowCycles += t.run(ops, res, now);
    }

    const auto best = openflow.lookupBest(
        std::span<const std::uint8_t>(key.data(), key.size()));
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

Addr
VirtualSwitch::stageKey(std::span<const std::uint8_t> key, unsigned slot)
{
    const Addr addr = timing_->keyStage + (slot % keySlots) * cacheLineBytes;
    mem.write(addr, key.data(), key.size());
    // Streaming store: lands in LLC, never dirties the private caches.
    timing_->hier.warmLine(addr);
    return addr;
}

PacketResult
VirtualSwitch::processPacket(const Packet &packet)
{
    const auto parsed = packet.parseHeaders();
    PacketResult res;
    if (!parsed) {
        ++sums.packets;
        return res; // malformed: dropped before classification
    }
    return classifyTupleAt(parsed->tuple(), &packet);
}

PacketResult
VirtualSwitch::classifyTuple(const FiveTuple &tuple)
{
    return classifyTupleAt(tuple, nullptr);
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
    if (batch.empty() || n == 0)
        return;
    // Each packet consumes one key-staging slot per tuple; split the
    // burst so a chunk never outgrows the staging buffer.
    const std::size_t chunk = std::max<std::size_t>(1, keySlots / n);
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
            tuples.mask(t).applyInto(key, maskScratch.data());
            const Addr key_addr = stageKey(
                std::span<const std::uint8_t>(maskScratch.data(),
                                              maskScratch.size()),
                slot);
            tm.tableBuilder.lowerCompute(4, 3, 1, ops);
            const Addr result_addr = results_base +
                                     (slot / 8) * cacheLineBytes +
                                     (slot % 8) * 8;
            tm.tableBuilder.lowerLookupNB(tuples.table(t).metadataAddr(),
                                          key_addr, result_addr, ops);
            ++slot;
        }
    }
    RunResult rr = tm.core.run(ops, start);
    Cycles now = rr.endCycle;

    // One SNAPSHOT_READ sweep per poll round across all result lines.
    while (now < rr.lastNbReady) {
        OpTrace &check = tm.pollScratch;
        check.clear();
        for (unsigned l = 0; l < lines; ++l)
            tm.tableBuilder.lowerSnapshotCheck(
                results_base + l * cacheLineBytes, check);
        now = tm.core.run(check, now).endCycle;
    }

    // Harvest per-packet first-match results.
    slot = 0;
    const Cycles per_packet =
        (now - start) / static_cast<Cycles>(batch.size());
    for (std::size_t p = 0; p < batch.size(); ++p) {
        PacketResult &res = results[p];
        res.tuplesSearched = n;
        for (unsigned t = 0; t < n; ++t, ++slot) {
            const std::uint64_t word = mem.load<std::uint64_t>(
                results_base + (slot / 8) * cacheLineBytes +
                (slot % 8) * 8);
            if (!res.matched && word != nbPendingWord &&
                word != nbMissWord) {
                res.matched = true;
                res.action = Action::decode(word);
            }
        }
        res.megaflowCycles = per_packet;
        res.total = per_packet;
        res.instructions = rr.instructions / batch.size();
        sums.add(res);
    }
    tm.clock = now;
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
    for (std::size_t i = 0; i < batch.size(); ++i)
        results[i] = classifyTupleAt(batch[i], nullptr);
}

void
VirtualSwitch::processBurst(std::span<const Packet> batch,
                            std::span<PacketResult> results)
{
    HALO_ASSERT(results.size() >= batch.size(),
                "result span smaller than the batch");
    for (std::size_t i = 0; i < batch.size(); ++i)
        results[i] = processPacket(batch[i]);
}

PacketResult
VirtualSwitch::classifyTupleAt(const FiveTuple &tuple, const Packet *packet)
{
    PacketResult res;
    res.tuple = tuple;
    const Cycles start = this->now();
    Cycles now = start;

    if (timing_ && packet) {
        Timing &tm = *timing_;
        // --- Packet IO: RX descriptor + frame copy into the ring.
        //     DDIO places the frame in LLC; the core then reads it. ---
        const Addr slot_addr = tm.rxRing + (tm.rxSlot++ % rxRingSlots) *
                                               rxSlotBytes;
        const std::size_t n =
            std::min<std::size_t>(packet->bytes().size(), rxSlotBytes);
        mem.write(slot_addr, packet->bytes().data(), n);
        tm.hier.warmLine(slot_addr);
        tm.hier.warmLine(slot_addr + cacheLineBytes);

        OpTrace &io = tm.ops();
        tm.tableBuilder.lowerCompute(cfg.ioArith, cfg.ioOthers,
                                     cfg.ioScratch, io);
        tm.tableBuilder.lowerLoad(slot_addr, 16, AccessPhase::Payload, io);
        res.packetIo = tm.run(io, res, now);

        // --- Pre-processing: header extraction over the frame. ---
        OpTrace &pre = tm.ops();
        tm.tableBuilder.lowerLoad(slot_addr, 48, AccessPhase::Payload,
                                  pre);
        tm.tableBuilder.lowerCompute(cfg.preArith, cfg.preOthers,
                                     cfg.preScratch, pre);
        res.preprocess = tm.run(pre, res, now);
    }

    switch (effectiveMode()) {
      case LookupMode::Software:
        softwareClassify(tuple, res, now);
        break;
      case LookupMode::HaloBlocking:
        haloBlockingClassify(tuple, res, now);
        break;
      case LookupMode::HaloNonBlocking:
        haloNonBlockingClassify(tuple, res, now);
        break;
      case LookupMode::Hybrid:
        panic("effectiveMode() must resolve Hybrid");
    }

    // --- OpenFlow slow path on a MegaFlow miss (any lookup engine:
    //     upcalls always run in software, as in OVS). Deferred mode
    //     hands the miss back to the caller instead: the revalidator
    //     thread owns the upcall and the install. ---
    if (!res.matched && cfg.useOpenflowLayer) {
        if (cfg.deferSlowPath)
            res.slowPathPending = true;
        else
            openflowUpcall(tuple, res, now);
    }

    // Aging support: stamp the flow's activity slot on every match
    // (one relaxed store; the revalidator compares against it). The
    // flow estimator shares the same hash — every packet counts toward
    // cardinality, matched or not.
    if ((activity_ && res.matched) || estimator_) [[unlikely]] {
        const auto key = tuple.toKey();
        const std::uint64_t h = activityHash(
            std::span<const std::uint8_t>(key.data(), key.size()));
        if (activity_ && res.matched)
            activity_->touch(h);
        if (estimator_)
            estimator_->observe(h);
    }

    if (timing_) {
        // --- Action execution + bookkeeping ("others" in Fig. 3). ---
        Timing &tm = *timing_;
        OpTrace &act = tm.ops();
        tm.tableBuilder.lowerCompute(cfg.actArith, cfg.actOthers,
                                     cfg.actScratch, act);
        res.otherCycles = tm.run(act, res, now);
        res.total = now - start;
        tm.clock = now;
    }
    sums.add(res);
    return res;
}

void
VirtualSwitch::softwareClassify(const FiveTuple &tuple, PacketResult &res,
                                Cycles &now)
{
    const auto key = tuple.toKey();
    Timing *tm = timing_.get();

    // --- EMC probe (the adaptive controller may have it off: one
    // relaxed flag load is the entire hybrid-mode cost then). ---
    if (cfg.useEmc && emcCache.enabled()) {
        HALO_STAGE("vswitch/emc");
        AccessTrace *trace = tm ? tm->trace() : nullptr;
        const auto hit = emcCache.lookup(key, trace);
        if (tm) {
            OpTrace &emc_ops = tm->ops();
            tm->emcBuilder.lowerTableOp(*trace, emc_ops);
            res.emcCycles = tm->run(emc_ops, res, now);
        }
        if (hit) {
            res.emcHit = true;
            res.matched = true;
            res.action = Action::decode(*hit);
            return;
        }
    }

    // --- MegaFlow tuple-space search (first match). A timed switch
    //     prices each probed tuple as a full Table-1-profile cuckoo
    //     lookup. ---
    std::optional<TupleMatch> match;
    {
        HALO_STAGE("vswitch/tuple_space");
        OpTrace *ops = tm ? &tm->ops() : nullptr;
        unsigned searched = 0;
        for (unsigned t = 0; t < tuples.numTuples(); ++t) {
            tuples.mask(t).applyInto(key, maskScratch.data());
            AccessTrace *trace = tm ? tm->trace() : nullptr;
            std::optional<std::uint64_t> value;
            {
                HALO_STAGE("vswitch/cuckoo");
                value = tuples.table(t).lookup(
                    KeyView(maskScratch.data(), maskScratch.size()),
                    trace);
            }
            if (ops) {
                // Mask application: a handful of vector ANDs per tuple.
                tm->tableBuilder.lowerCompute(4, 2, 0, *ops);
                tm->tableBuilder.lowerTableOp(*trace, *ops);
            }
            ++searched;
            if (value) {
                match = TupleMatch{*value, decodeRulePriority(*value),
                                   t, searched};
                break;
            }
        }
        if (ops)
            res.megaflowCycles = tm->run(*ops, res, now);
        res.tuplesSearched = searched;
    }

    if (match) {
        res.matched = true;
        res.action = Action::decode(match->value);
        if (cfg.useEmc && emcCache.enabled()) {
            if (cfg.deferSlowPath) {
                // Single-writer invariant: the revalidator performs
                // the insert; hand the wish back to the caller.
                res.emcPromote = true;
                res.promoteValue = match->value;
            } else {
                // Promote the flow into the EMC (write charged as part
                // of "others"; OVS batches these inserts).
                emcCache.insert(key, match->value);
            }
        }
    }
    if (tm && tm->halo) {
        // The software path maintains its own linear-counting estimate
        // so Hybrid mode can switch back (paper SS4.6).
        tm->halo->hybrid().observe(hashBytes(
            HashKind::XxMix, 0,
            std::span<const std::uint8_t>(key.data(), key.size())));
    }
}

void
VirtualSwitch::haloBlockingClassify(const FiveTuple &tuple,
                                    PacketResult &res, Cycles &now)
{
    Timing &tm = *timing_;
    const auto key = tuple.toKey();

    // Determine functionally which tuples a sequential first-match walk
    // probes, then price LOOKUP_B per probed tuple with result-dependent
    // sequencing (each next probe waits on the previous result).
    const auto match = tuples.lookupFirst(
        std::span<const std::uint8_t>(key.data(), key.size()), nullptr);
    const unsigned searched = match ? match->tuplesSearched
                                    : tuples.numTuples();
    res.tuplesSearched = searched;

    OpTrace &ops = tm.ops();
    std::int32_t prev_lookup = -1;
    for (unsigned t = 0; t < searched; ++t) {
        tuples.mask(t).applyInto(key, maskScratch.data());
        const Addr key_addr = stageKey(
            std::span<const std::uint8_t>(maskScratch.data(),
                                          maskScratch.size()),
            t);
        // Masking + staging cost.
        tm.tableBuilder.lowerCompute(4, 3, 1, ops);
        tm.tableBuilder.lowerLookupB(tuples.table(t).metadataAddr(),
                                  key_addr, ops);
        const auto lookup_idx = static_cast<std::int32_t>(ops.size()) - 1;
        if (prev_lookup >= 0)
            ops[lookup_idx].dep = prev_lookup + 1; // after prior branch
        // Branch consuming the result: serializes the walk.
        MicroOp branch;
        branch.kind = OpKind::Branch;
        branch.dep = lookup_idx;
        branch.phase = AccessPhase::Bucket;
        branch.unpredictable = true;
        ops.push_back(branch);
        prev_lookup = lookup_idx;
    }

    RunResult rr = tm.core.run(ops, now);
    res.megaflowCycles = rr.elapsed();
    res.instructions += rr.instructions;
    now = rr.endCycle;

    if (match) {
        res.matched = true;
        res.action = Action::decode(match->value);
    }
}

void
VirtualSwitch::haloNonBlockingClassify(const FiveTuple &tuple,
                                       PacketResult &res, Cycles &now)
{
    Timing &tm = *timing_;
    const auto key = tuple.toKey();
    const unsigned n = tuples.numTuples();
    if (n == 0) {
        return;
    }
    res.tuplesSearched = n;

    // Zero the result lines (they signal completion by becoming
    // non-zero), stage all masked keys, fan out LOOKUP_NB to every
    // tuple, then SNAPSHOT_READ each result line until all slots are
    // non-zero (paper SS4.5 batching: 8 results per line).
    const unsigned lines = static_cast<unsigned>(ceilDiv(n, 8));
    for (unsigned l = 0; l < lines; ++l) {
        mem.zero(tm.resultBuffer + l * cacheLineBytes, cacheLineBytes);
        tm.hier.warmLine(tm.resultBuffer + l * cacheLineBytes);
    }

    OpTrace &ops = tm.ops();
    for (unsigned t = 0; t < n; ++t) {
        tuples.mask(t).applyInto(key, maskScratch.data());
        const Addr key_addr = stageKey(
            std::span<const std::uint8_t>(maskScratch.data(),
                                          maskScratch.size()),
            t);
        tm.tableBuilder.lowerCompute(4, 3, 1, ops);
        const Addr result_addr = tm.resultBuffer + (t / 8) * cacheLineBytes +
                                 (t % 8) * 8;
        tm.tableBuilder.lowerLookupNB(tuples.table(t).metadataAddr(),
                                   key_addr, result_addr, ops);
    }
    RunResult rr = tm.core.run(ops, now);
    res.instructions += rr.instructions;
    Cycles done = rr.endCycle;
    const Cycles results_ready = rr.lastNbReady;

    // Poll with SNAPSHOT_READ until every line reports 8 ready slots.
    Cycles poll = done;
    do {
        OpTrace &check = tm.pollScratch;
        check.clear();
        for (unsigned l = 0; l < lines; ++l)
            tm.tableBuilder.lowerSnapshotCheck(
                tm.resultBuffer + l * cacheLineBytes, check);
        RunResult cr = tm.core.run(check, poll);
        res.instructions += cr.instructions;
        poll = cr.endCycle;
    } while (poll < results_ready);

    now = std::max(poll, results_ready);
    res.megaflowCycles = now - rr.startCycle;

    // Collect the highest-specificity (first-tuple) hit, as MegaFlow
    // first-match semantics dictate.
    for (unsigned t = 0; t < n; ++t) {
        const std::uint64_t word = mem.load<std::uint64_t>(
            tm.resultBuffer + (t / 8) * cacheLineBytes + (t % 8) * 8);
        if (word != nbPendingWord && word != nbMissWord) {
            res.matched = true;
            res.action = Action::decode(word);
            break;
        }
    }
}

} // namespace halo

#include "vswitch/vswitch.hh"

#include <algorithm>

#include "obs/stage.hh"
#include "sim/logging.hh"

namespace halo {

namespace {

constexpr unsigned rxRingSlots = 64;
constexpr unsigned rxSlotBytes = 128; // two lines per 64-B frame slot
constexpr unsigned keySlots = 1024;

} // namespace

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

VirtualSwitch::VirtualSwitch(SimMemory &memory, MemoryHierarchy &hierarchy,
                             CoreModel &core_model,
                             HaloSystem *halo_system,
                             const VSwitchConfig &config)
    : mem(memory),
      hier(hierarchy),
      core(core_model),
      haloSys(halo_system),
      cfg(config),
      emcCache(memory, config.emcEntries),
      tuples(memory, config.tupleConfig),
      openflow(memory, config.tupleConfig),
      tableBuilder(SoftwareProfile{}),
      emcBuilder(SoftwareProfile{config.emcProfileInstructions, 0.362,
                                 0.118, 0.210, 0.309, 3})
{
    if (cfg.mode != LookupMode::Software)
        HALO_ASSERT(haloSys, "HALO mode requires a HaloSystem");
    core.setLookupEngine(haloSys);

    rxRing = mem.allocate(rxRingSlots * rxSlotBytes, cacheLineBytes);
    keyStage = mem.allocate(keySlots * cacheLineBytes, cacheLineBytes);
    // One result word per key slot, 8 words per line (paper SS4.5).
    resultBuffer =
        mem.allocate(ceilDiv(keySlots, 8) * cacheLineBytes,
                     cacheLineBytes);

    // Pre-size the per-packet scratch so the steady state never grows it.
    refScratch.reserve(64);
    opScratch.reserve(4096);
    pollScratch.reserve(512);
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
    for (const FlowRule &rule : rules) {
        if (!openflow.addRule(rule))
            fatal("OpenFlow tuple overflow; raise "
                  "tupleConfig.tupleCapacity");
    }
}

void
VirtualSwitch::warmTables()
{
    tuples.forEachLine([this](Addr a) { hier.warmLine(a); });
    openflow.forEachLine([this](Addr a) { hier.warmLine(a); });
    emcCache.forEachLine([this](Addr a) { hier.warmLine(a); });
}

void
VirtualSwitch::openflowUpcall(const FiveTuple &tuple, PacketResult &res,
                              Cycles &now)
{
    HALO_STAGE("vswitch/upcall");
    // The OpenFlow layer searches EVERY tuple and keeps the highest
    // priority match (paper SS2.2) — strictly slower than MegaFlow.
    const auto key = tuple.toKey();
    OpTrace &ops = opScratch;
    ops.clear();
    for (unsigned t = 0; t < openflow.numTuples(); ++t) {
        openflow.mask(t).applyInto(key, maskScratch.data());
        refScratch.clear();
        openflow.table(t).lookup(
            KeyView(maskScratch.data(), maskScratch.size()), &refScratch);
        tableBuilder.lowerCompute(4, 2, 0, ops);
        tableBuilder.lowerTableOp(refScratch, ops);
    }
    // Priority comparison across matches.
    tableBuilder.lowerCompute(2 * openflow.numTuples(),
                              openflow.numTuples(), 0, ops);
    const RunResult rr = core.run(ops, now);
    res.megaflowCycles += rr.elapsed();
    res.instructions += rr.instructions;
    now = rr.endCycle;

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
    // The install changes what later lanes of an in-flight burst would
    // find: their prepass walks are stale from here on.
    if (burstActive)
        burst.tssDirty = true;
}

LookupMode
VirtualSwitch::effectiveMode() const
{
    if (cfg.mode != LookupMode::Hybrid)
        return cfg.mode;
    return haloSys->hybrid().mode() == ComputeMode::Software
               ? LookupMode::Software
               : LookupMode::HaloNonBlocking;
}

Addr
VirtualSwitch::stageKey(std::span<const std::uint8_t> key, unsigned slot)
{
    const Addr addr = keyStage + (slot % keySlots) * cacheLineBytes;
    mem.write(addr, key.data(), key.size());
    // Streaming store: lands in LLC, never dirties the private caches.
    hier.warmLine(addr);
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
    return classifyTupleAt(parsed->tuple(), true, &packet);
}

PacketResult
VirtualSwitch::classifyTuple(const FiveTuple &tuple)
{
    return classifyTupleAt(tuple, false, nullptr);
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
    HALO_ASSERT(haloSys, "burst NB classification requires HALO");
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

    const Cycles start = clock;
    const unsigned lines =
        static_cast<unsigned>(ceilDiv(batch.size() * n, 8));
    for (unsigned l = 0; l < lines; ++l) {
        mem.zero(resultBuffer + l * cacheLineBytes, cacheLineBytes);
        hier.warmLine(resultBuffer + l * cacheLineBytes);
    }

    // Issue every query of every packet back to back.
    OpTrace &ops = opScratch;
    ops.clear();
    unsigned slot = 0;
    for (const FiveTuple &tuple : batch) {
        const auto key = tuple.toKey();
        for (unsigned t = 0; t < n; ++t) {
            tuples.mask(t).applyInto(key, maskScratch.data());
            const Addr key_addr = stageKey(
                std::span<const std::uint8_t>(maskScratch.data(),
                                              maskScratch.size()),
                slot);
            tableBuilder.lowerCompute(4, 3, 1, ops);
            const Addr result_addr = resultBuffer +
                                     (slot / 8) * cacheLineBytes +
                                     (slot % 8) * 8;
            tableBuilder.lowerLookupNB(tuples.table(t).metadataAddr(),
                                       key_addr, result_addr, ops);
            ++slot;
        }
    }
    RunResult rr = core.run(ops, start);
    Cycles now = rr.endCycle;

    // One SNAPSHOT_READ sweep per poll round across all result lines.
    while (now < rr.lastNbReady) {
        OpTrace &check = pollScratch;
        check.clear();
        for (unsigned l = 0; l < lines; ++l)
            tableBuilder.lowerSnapshotCheck(
                resultBuffer + l * cacheLineBytes, check);
        now = core.run(check, now).endCycle;
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
                resultBuffer + (slot / 8) * cacheLineBytes +
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
    clock = now;
}

bool
VirtualSwitch::emcPrepassConflicts(const SoftLane &lane) const
{
    for (const std::uint64_t slot : burst.writtenEmcSlots) {
        if (slot == lane.emcSlots[0] || slot == lane.emcSlots[1])
            return true;
    }
    return false;
}

void
VirtualSwitch::burstChunkSoftware(std::span<const FiveTuple> batch,
                                  PacketResult *out,
                                  bool charge_io_stages,
                                  const Packet *const *packets)
{
    const std::size_t n = batch.size();
    HALO_ASSERT(n <= maxBulkLanes, "burst chunk too large");
    burst.writtenEmcSlots.clear();
    burst.tssDirty = false;

    // --- Pipelined prepass: pure functional reads against the current
    //     table state, simulation-invisible. Every lane's probe results
    //     and reference streams are captured here; the replay below
    //     prices them against the core model in packet order. ---
    {
        HALO_STAGE("vswitch/burst_prepass");
        const std::uint8_t *key_ptrs[maxBulkLanes];
        for (std::size_t i = 0; i < n; ++i) {
            SoftLane &ln = burst.lanes[i];
            ln.key = batch[i].toKey();
            ln.emcProbed = false;
            ln.emcHit = false;
            ln.emcTrace.clear();
            ln.walked = false;
            ln.walk.reset();
            key_ptrs[i] = ln.key.data();
        }

        std::uint32_t emc_hits = 0;
        if (cfg.useEmc && emcCache.enabled()) {
            HALO_STAGE("vswitch/burst_emc");
            std::uint64_t values[maxBulkLanes];
            std::uint64_t slots[maxBulkLanes][2];
            AccessTrace *traces[maxBulkLanes];
            for (std::size_t i = 0; i < n; ++i)
                traces[i] = &burst.lanes[i].emcTrace;
            emc_hits =
                emcCache.lookupBulk(key_ptrs, n, values, slots, traces);
            for (std::size_t i = 0; i < n; ++i) {
                SoftLane &ln = burst.lanes[i];
                ln.emcProbed = true;
                ln.emcSlots[0] = slots[i][0];
                ln.emcSlots[1] = slots[i][1];
                if (emc_hits & (1u << i)) {
                    ln.emcHit = true;
                    ln.emcValue = values[i];
                }
            }
        }

        // Tuple-space walk for the EMC misses, all lanes in flight.
        {
            HALO_STAGE("vswitch/burst_tss");
            const std::uint8_t *walk_keys[maxBulkLanes];
            TupleSpace::BulkWalkLane *walk_lanes[maxBulkLanes];
            unsigned lane_of[maxBulkLanes];
            std::size_t m = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (emc_hits & (1u << i))
                    continue;
                walk_keys[m] = burst.lanes[i].key.data();
                walk_lanes[m] = &burst.lanes[i].walk;
                lane_of[m] = static_cast<unsigned>(i);
                ++m;
            }
            if (m) {
                const std::uint32_t walk_hits =
                    tuples.lookupFirstBulk(walk_keys, m, walk_lanes);
                for (std::size_t j = 0; j < m; ++j)
                    burst.lanes[lane_of[j]].walked = true;
                // Shared upcall warm-up: lanes the MegaFlow layer
                // missed are about to probe every OpenFlow tuple;
                // prefetch those bucket lines in one pass.
                if (cfg.useOpenflowLayer) {
                    std::array<std::uint8_t, FiveTuple::keyBytes> masked;
                    for (std::size_t j = 0; j < m; ++j) {
                        if (walk_hits & (1u << j))
                            continue;
                        for (unsigned t = 0; t < openflow.numTuples();
                             ++t) {
                            openflow.mask(t).applyInto(
                                std::span<const std::uint8_t>(
                                    walk_keys[j], FiveTuple::keyBytes),
                                masked.data());
                            openflow.table(t).prefetchBuckets(
                                masked.data());
                        }
                    }
                }
            }
        }
    }

    // --- Sequential replay: timing charges and every mutation (EMC
    //     promotion, upcall install, hybrid observe) land in exact
    //     scalar order; lanes invalidated by an earlier lane's write
    //     fall back to the scalar path inside softwareClassify. ---
    burstActive = true;
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = classifyTupleAt(batch[i], charge_io_stages,
                                 packets ? packets[i] : nullptr,
                                 &burst.lanes[i]);
    }
    burstActive = false;
}

void
VirtualSwitch::classifyBurst(std::span<const FiveTuple> batch,
                             std::span<PacketResult> results)
{
    HALO_ASSERT(results.size() >= batch.size(),
                "result span smaller than the batch");
    const unsigned lanes =
        std::clamp(cfg.burstLanes, 1u, maxBulkLanes);
    switch (cfg.mode) {
      case LookupMode::Software:
        if (lanes > 1) {
            for (std::size_t off = 0; off < batch.size(); off += lanes) {
                const std::size_t c =
                    std::min<std::size_t>(lanes, batch.size() - off);
                burstChunkSoftware(batch.subspan(off, c),
                                   results.data() + off, false, nullptr);
            }
            return;
        }
        break;
      case LookupMode::HaloNonBlocking:
        nbBurst(batch, results.data());
        return;
      default:
        // Blocking sequences on each result; Hybrid can flip engines
        // mid-burst. Both classify packet by packet.
        break;
    }
    for (std::size_t i = 0; i < batch.size(); ++i)
        results[i] = classifyTupleAt(batch[i], false, nullptr);
}

void
VirtualSwitch::processBurst(std::span<const Packet> batch,
                            std::span<PacketResult> results)
{
    HALO_ASSERT(results.size() >= batch.size(),
                "result span smaller than the batch");
    const unsigned lanes =
        std::clamp(cfg.burstLanes, 1u, maxBulkLanes);
    if (cfg.mode != LookupMode::Software || lanes <= 1) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            results[i] = processPacket(batch[i]);
        return;
    }

    // Gather runs of well-formed packets into burst chunks; a malformed
    // packet flushes the run ahead of it, then drops in place exactly
    // as processPacket drops it — result order and datapath state match
    // the packet-by-packet loop.
    FiveTuple tuple_buf[maxBulkLanes];
    const Packet *pkt_buf[maxBulkLanes];
    std::size_t run_start = 0;
    std::size_t m = 0;
    auto flush = [&] {
        if (!m)
            return;
        burstChunkSoftware(std::span<const FiveTuple>(tuple_buf, m),
                           results.data() + run_start, true, pkt_buf);
        m = 0;
    };
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto parsed = batch[i].parseHeaders();
        if (!parsed) {
            flush();
            ++sums.packets;
            results[i] = PacketResult{};
            continue;
        }
        if (m == 0)
            run_start = i;
        tuple_buf[m] = parsed->tuple();
        pkt_buf[m] = &batch[i];
        ++m;
        if (m == lanes)
            flush();
    }
    flush();
}

PacketResult
VirtualSwitch::classifyTupleAt(const FiveTuple &tuple,
                               bool charge_io_stages,
                               const Packet *packet,
                               const SoftLane *lane)
{
    PacketResult res;
    res.tuple = tuple;
    const Cycles start = clock;
    Cycles now = start;

    if (charge_io_stages) {
        // --- Packet IO: RX descriptor + frame copy into the ring.
        //     DDIO places the frame in LLC; the core then reads it. ---
        const Addr slot_addr = rxRing + (rxSlot++ % rxRingSlots) *
                                            rxSlotBytes;
        if (packet) {
            const std::size_t n =
                std::min<std::size_t>(packet->bytes().size(),
                                      rxSlotBytes);
            mem.write(slot_addr, packet->bytes().data(), n);
        }
        hier.warmLine(slot_addr);
        hier.warmLine(slot_addr + cacheLineBytes);

        OpTrace &io = opScratch;
        io.clear();
        tableBuilder.lowerCompute(cfg.ioArith, cfg.ioOthers,
                                  cfg.ioScratch, io);
        tableBuilder.lowerLoad(slot_addr, 16, AccessPhase::Payload, io);
        RunResult rr = core.run(io, now);
        res.packetIo = rr.elapsed();
        res.instructions += rr.instructions;
        now = rr.endCycle;

        // --- Pre-processing: header extraction over the frame. ---
        OpTrace &pre = opScratch;
        pre.clear();
        tableBuilder.lowerLoad(slot_addr, 48, AccessPhase::Payload, pre);
        tableBuilder.lowerCompute(cfg.preArith, cfg.preOthers,
                                  cfg.preScratch, pre);
        rr = core.run(pre, now);
        res.preprocess = rr.elapsed();
        res.instructions += rr.instructions;
        now = rr.endCycle;
    }

    switch (effectiveMode()) {
      case LookupMode::Software:
        softwareClassify(tuple, res, now, lane);
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

    // --- Action execution + bookkeeping ("others" in Fig. 3). ---
    OpTrace &act = opScratch;
    act.clear();
    tableBuilder.lowerCompute(cfg.actArith, cfg.actOthers, cfg.actScratch,
                              act);
    RunResult rr = core.run(act, now);
    res.otherCycles = rr.elapsed();
    res.instructions += rr.instructions;
    now = rr.endCycle;

    res.total = now - start;
    clock = now;
    sums.add(res);
    return res;
}

void
VirtualSwitch::softwareClassify(const FiveTuple &tuple, PacketResult &res,
                                Cycles &now, const SoftLane *lane)
{
    const auto key = tuple.toKey();

    // --- EMC probe (the adaptive controller may have it off: one
    // relaxed flag load is the entire hybrid-mode cost then). ---
    if (cfg.useEmc && emcCache.enabled()) {
        HALO_STAGE("vswitch/emc");
        bool hit = false;
        std::uint64_t hit_value = 0;
        const AccessTrace *refs = nullptr;
        if (lane && lane->emcProbed && !emcPrepassConflicts(*lane)) {
            // Replay the prepass probe: no earlier lane wrote either
            // candidate slot, so a fresh lookup would read the same
            // bytes and record the same refs.
            hit = lane->emcHit;
            hit_value = lane->emcValue;
            refs = &lane->emcTrace;
        } else {
            refScratch.clear();
            const auto emc_hit = emcCache.lookup(key, &refScratch);
            if (emc_hit) {
                hit = true;
                hit_value = *emc_hit;
            }
            refs = &refScratch;
        }
        OpTrace &emc_ops = opScratch;
        emc_ops.clear();
        emcBuilder.lowerTableOp(*refs, emc_ops);
        RunResult rr = core.run(emc_ops, now);
        res.emcCycles = rr.elapsed();
        res.instructions += rr.instructions;
        now = rr.endCycle;
        if (hit) {
            res.emcHit = true;
            res.matched = true;
            res.action = Action::decode(hit_value);
            return;
        }
    }

    // --- MegaFlow tuple-space search (first match). Each probed tuple
    //     costs a full Table-1-profile cuckoo lookup. ---
    std::optional<TupleMatch> match;
    {
        HALO_STAGE("vswitch/tuple_space");
        OpTrace &ops = opScratch;
        ops.clear();
        unsigned searched = 0;
        if (lane && lane->walked && !burst.tssDirty) {
            // Replay the prepass walk: the tuple tables are untouched
            // since the bulk probe (EMC promotions don't live there),
            // so price its recorded per-probe reference streams.
            const TupleSpace::BulkWalkLane &walk = lane->walk;
            std::uint32_t begin = 0;
            for (const std::uint32_t end : walk.probeEnds) {
                tableBuilder.lowerCompute(4, 2, 0, ops);
                tableBuilder.lowerTableOp(
                    std::span<const MemRef>(walk.trace.data() + begin,
                                            end - begin),
                    ops);
                begin = end;
            }
            searched = walk.searched;
            if (walk.found)
                match = walk.match;
        } else {
            for (unsigned t = 0; t < tuples.numTuples(); ++t) {
                tuples.mask(t).applyInto(key, maskScratch.data());
                refScratch.clear();
                std::optional<std::uint64_t> value;
                {
                    HALO_STAGE("vswitch/cuckoo");
                    value = tuples.table(t).lookup(
                        KeyView(maskScratch.data(), maskScratch.size()),
                        &refScratch);
                }
                // Mask application: a handful of vector ANDs per tuple.
                tableBuilder.lowerCompute(4, 2, 0, ops);
                tableBuilder.lowerTableOp(refScratch, ops);
                ++searched;
                if (value) {
                    match = TupleMatch{*value, decodeRulePriority(*value),
                                       t, searched};
                    break;
                }
            }
        }
        RunResult rr = core.run(ops, now);
        res.megaflowCycles = rr.elapsed();
        res.instructions += rr.instructions;
        now = rr.endCycle;
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
                const std::uint64_t slot =
                    emcCache.insert(key, match->value);
                if (burstActive)
                    burst.writtenEmcSlots.push_back(slot);
            }
        }
    }
    if (haloSys) {
        // The software path maintains its own linear-counting estimate
        // so Hybrid mode can switch back (paper SS4.6).
        haloSys->hybrid().observe(hashBytes(
            HashKind::XxMix, 0,
            std::span<const std::uint8_t>(key.data(), key.size())));
    }
}

void
VirtualSwitch::haloBlockingClassify(const FiveTuple &tuple,
                                    PacketResult &res, Cycles &now)
{
    const auto key = tuple.toKey();

    // Determine functionally which tuples a sequential first-match walk
    // probes, then price LOOKUP_B per probed tuple with result-dependent
    // sequencing (each next probe waits on the previous result).
    const auto match = tuples.lookupFirst(
        std::span<const std::uint8_t>(key.data(), key.size()), nullptr);
    const unsigned searched = match ? match->tuplesSearched
                                    : tuples.numTuples();
    res.tuplesSearched = searched;

    OpTrace &ops = opScratch;
    ops.clear();
    std::int32_t prev_lookup = -1;
    for (unsigned t = 0; t < searched; ++t) {
        tuples.mask(t).applyInto(key, maskScratch.data());
        const Addr key_addr = stageKey(
            std::span<const std::uint8_t>(maskScratch.data(),
                                          maskScratch.size()),
            t);
        // Masking + staging cost.
        tableBuilder.lowerCompute(4, 3, 1, ops);
        tableBuilder.lowerLookupB(tuples.table(t).metadataAddr(),
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

    RunResult rr = core.run(ops, now);
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
        mem.zero(resultBuffer + l * cacheLineBytes, cacheLineBytes);
        hier.warmLine(resultBuffer + l * cacheLineBytes);
    }

    OpTrace &ops = opScratch;
    ops.clear();
    for (unsigned t = 0; t < n; ++t) {
        tuples.mask(t).applyInto(key, maskScratch.data());
        const Addr key_addr = stageKey(
            std::span<const std::uint8_t>(maskScratch.data(),
                                          maskScratch.size()),
            t);
        tableBuilder.lowerCompute(4, 3, 1, ops);
        const Addr result_addr = resultBuffer + (t / 8) * cacheLineBytes +
                                 (t % 8) * 8;
        tableBuilder.lowerLookupNB(tuples.table(t).metadataAddr(),
                                   key_addr, result_addr, ops);
    }
    RunResult rr = core.run(ops, now);
    res.instructions += rr.instructions;
    Cycles done = rr.endCycle;
    const Cycles results_ready = rr.lastNbReady;

    // Poll with SNAPSHOT_READ until every line reports 8 ready slots.
    Cycles poll = done;
    do {
        OpTrace &check = pollScratch;
        check.clear();
        for (unsigned l = 0; l < lines; ++l)
            tableBuilder.lowerSnapshotCheck(
                resultBuffer + l * cacheLineBytes, check);
        RunResult cr = core.run(check, poll);
        res.instructions += cr.instructions;
        poll = cr.endCycle;
    } while (poll < results_ready);

    now = std::max(poll, results_ready);
    res.megaflowCycles = now - rr.startCycle;

    // Collect the highest-specificity (first-tuple) hit, as MegaFlow
    // first-match semantics dictate.
    for (unsigned t = 0; t < n; ++t) {
        const std::uint64_t word = mem.load<std::uint64_t>(
            resultBuffer + (t / 8) * cacheLineBytes + (t % 8) * 8);
        if (word != nbPendingWord && word != nbMissWord) {
            res.matched = true;
            res.action = Action::decode(word);
            break;
        }
    }
}

} // namespace halo

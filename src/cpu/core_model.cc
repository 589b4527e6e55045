#include "cpu/core_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace halo {

CoreModel::CoreModel(MemoryHierarchy &hierarchy, CoreId core_id,
                     const CoreConfig &config)
    : mem(hierarchy), core(core_id), cfg(config)
{
    HALO_ASSERT(cfg.issueWidth > 0 && cfg.robEntries > 0);
}

RunResult
CoreModel::run(const OpTrace &trace, Cycles start)
{
    RunResult res;
    res.startCycle = start;
    res.endCycle = start;
    if (trace.empty())
        return res;

    const std::size_t n = trace.size();
    complete.assign(n, 0);

    // Ring buffers for in-order resource reclamation.
    retireRing.assign(cfg.robEntries, 0);
    loadRing.assign(cfg.lqEntries, 0);
    storeRing.assign(cfg.sqEntries, 0);
    mshrRing.assign(cfg.mshrs, 0);
    std::size_t loadSeq = 0, storeSeq = 0;

    Cycles dispatchCycle = start;
    unsigned slotsThisCycle = 0;
    Cycles lastRetire = start;
    Cycles fetchBlockedUntil = start;

    for (std::size_t i = 0; i < n; ++i) {
        const MicroOp &op = trace[i];

        // --- Dispatch: W per cycle, gated by ROB/LQ/SQ occupancy. ---
        if (slotsThisCycle >= cfg.issueWidth) {
            ++dispatchCycle;
            slotsThisCycle = 0;
        }
        Cycles dispatch = dispatchCycle;
        dispatch = std::max(dispatch, fetchBlockedUntil);
        dispatch = std::max(dispatch, retireRing[i % cfg.robEntries]);
        const bool is_load = op.kind == OpKind::Load ||
                             op.kind == OpKind::SnapshotRead ||
                             op.kind == OpKind::LookupB;
        const bool is_store = op.kind == OpKind::Store ||
                              op.kind == OpKind::LookupNB;
        if (is_load)
            dispatch = std::max(dispatch,
                                loadRing[loadSeq % cfg.lqEntries]);
        if (is_store)
            dispatch = std::max(dispatch,
                                storeRing[storeSeq % cfg.sqEntries]);
        if (dispatch > dispatchCycle) {
            dispatchCycle = dispatch;
            slotsThisCycle = 0;
        }
        ++slotsThisCycle;

        // --- Execute when inputs are ready. ---
        Cycles ready = dispatch;
        if (op.dep >= 0) {
            HALO_ASSERT(static_cast<std::size_t>(op.dep) < i,
                        "dependency must precede its consumer");
            ready = std::max(ready, complete[op.dep]);
        }

        Cycles done;
        MemLevel load_level = MemLevel::L1;
        switch (op.kind) {
          case OpKind::Alu:
          case OpKind::Branch:
          case OpKind::Other:
            done = ready + 1;
            if (op.kind == OpKind::Branch && op.unpredictable) {
                // The front end speculates down the wrong path until the
                // branch resolves, then refills the pipeline.
                fetchBlockedUntil = done + cfg.mispredictPenalty;
            }
            break;

          case OpKind::Load:
          case OpKind::SnapshotRead: {
            if (op.addr == invalidAddr) {
                // Stack / scratch reference: L1-resident by construction.
                done = ready + cfg.scratchLatency;
                ++res.levelHits[static_cast<int>(MemLevel::L1)];
            } else {
                const AccessResult acc =
                    mem.coreAccess(core, op.addr, false);
                ++res.levelHits[static_cast<int>(acc.level)];
                load_level = acc.level;
                Cycles begin = ready;
                if (acc.level != MemLevel::L1) {
                    // A miss occupies an MSHR for its duration.
                    auto slot = std::min_element(mshrRing.begin(),
                                                 mshrRing.end());
                    begin = std::max(begin, *slot);
                    *slot = begin + acc.latency;
                }
                done = begin + acc.latency;
            }
            break;
          }

          case OpKind::Store: {
            if (op.addr != invalidAddr)
                mem.coreAccess(core, op.addr, true);
            // Stores complete into the store buffer.
            done = ready + 1;
            break;
          }

          case OpKind::LookupB: {
            HALO_ASSERT(engine, "LOOKUP_B without a lookup engine");
            done = engine->lookupBlocking(core, op.tableAddr, op.addr,
                                          ready);
            break;
          }

          case OpKind::LookupNB: {
            HALO_ASSERT(engine, "LOOKUP_NB without a lookup engine");
            const NbTicket ticket = engine->lookupNonBlocking(
                core, op.tableAddr, op.addr, op.resultAddr, ready);
            res.lastNbReady = std::max(res.lastNbReady,
                                       ticket.resultReady);
            // The core pays the dispatch cost, plus any distributor
            // backpressure (busy-bit) stall.
            done = std::max(ready + 2, ticket.accepted);
            break;
          }

          default:
            panic("unhandled op kind");
        }

        complete[i] = done;
        if (is_load)
            loadRing[loadSeq++ % cfg.lqEntries] = done;
        if (is_store)
            storeRing[storeSeq++ % cfg.sqEntries] = done;

        // --- In-order retire with attribution. ---
        const Cycles min_retire = std::max(lastRetire, dispatch + 1);
        const Cycles retire = std::max(min_retire, done);
        if (retire > min_retire &&
            (op.kind == OpKind::Load || op.kind == OpKind::SnapshotRead)) {
            // Cycles the retire stage waited on this load, attributed to
            // the level that serviced it (Fig. 4's stall-ratio metric).
            res.stallCycles[static_cast<int>(load_level)] +=
                retire - min_retire;
        }
        const Cycles increment = retire - lastRetire;
        // Attribute this op's retire-interval contribution.
        switch (op.kind) {
          case OpKind::Alu:
          case OpKind::Branch:
          case OpKind::Other:
            res.computeCycles += increment;
            break;
          default:
            res.phaseCycles[static_cast<int>(op.phase)] += increment;
            break;
        }
        lastRetire = retire;
        retireRing[i % cfg.robEntries] = retire;
        res.mix.add(op.kind);
    }

    res.instructions = n;
    res.endCycle = lastRetire;
    return res;
}

} // namespace halo

/**
 * @file
 * Trace-driven out-of-order core timing model (Table 2 configuration).
 *
 * The model prices a lowered micro-op stream on a W-wide OoO window:
 * ops dispatch in order (bounded by ROB/LQ/SQ occupancy), execute when
 * their data dependency resolves, overlap memory latency up to the MSHR
 * limit, and retire in order. Retire-time gaps are attributed to the
 * responsible op so benches can reproduce the paper's breakdowns
 * (Fig. 3, Fig. 4 stall ratios, Fig. 10).
 */

#ifndef HALO_CPU_CORE_MODEL_HH
#define HALO_CPU_CORE_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/micro_op.hh"
#include "mem/hierarchy.hh"

namespace halo {

/** Core resources (defaults = paper Table 2). */
struct CoreConfig
{
    unsigned issueWidth = 4;
    unsigned robEntries = 192;
    unsigned lqEntries = 128;
    unsigned sqEntries = 128;
    unsigned mshrs = 20;
    /// Latency charged to scratch/stack references (always L1-resident).
    Cycles scratchLatency = 1;
    /// Pipeline refill cost after a mispredicted (unpredictable) branch.
    Cycles mispredictPenalty = 14;
};

/** Completion times of a non-blocking lookup. */
struct NbTicket
{
    /// Cycle the distributor accepted the query (the core's LOOKUP_NB
    /// stalls until then when the target accelerator's busy bit is set).
    Cycles accepted = 0;
    /// Cycle the result word lands at the destination address.
    Cycles resultReady = 0;
};

/**
 * Interface to the HALO accelerator complex: the core model calls into
 * it when it encounters LOOKUP_B / LOOKUP_NB micro-ops. Implemented by
 * core/HaloSystem; a null engine makes lookup ops illegal.
 */
class LookupEngine
{
  public:
    virtual ~LookupEngine() = default;

    /**
     * Execute a blocking lookup issued at @p issue.
     * @return cycle at which the result reaches the core's register.
     */
    virtual Cycles lookupBlocking(CoreId core, Addr table_addr,
                                  Addr key_addr, Cycles issue) = 0;

    /**
     * Execute a non-blocking lookup issued at @p issue; the engine
     * writes the result word to @p result_addr.
     */
    virtual NbTicket lookupNonBlocking(CoreId core, Addr table_addr,
                                       Addr key_addr, Addr result_addr,
                                       Cycles issue) = 0;
};

/** Aggregated results of running a trace. */
struct RunResult
{
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    std::uint64_t instructions = 0;
    OpMix mix;

    /// Loads by servicing level (scratch refs count as L1).
    std::uint64_t levelHits[5] = {0, 0, 0, 0, 0}; // indexed by MemLevel

    /// Retire-stall cycles attributed to load latency per level.
    Cycles stallCycles[5] = {0, 0, 0, 0, 0};

    /// Retire cycles attributed per access phase (data-access ops).
    std::array<Cycles, 8> phaseCycles{};

    /// Retire cycles attributed to non-memory (compute) ops.
    Cycles computeCycles = 0;

    /// Latest non-blocking-lookup result-ready time reported by the
    /// engine (0 when no LookupNB ops ran).
    Cycles lastNbReady = 0;

    Cycles elapsed() const { return endCycle - startCycle; }
};

/**
 * The core model itself. No run() sees state from an earlier one apart
 * from the attached memory hierarchy (cache contents persist, as they
 * should); the per-run bookkeeping lives in reused member scratch so a
 * warm run allocates nothing.
 */
class CoreModel
{
  public:
    CoreModel(MemoryHierarchy &hierarchy, CoreId core_id,
              const CoreConfig &config = CoreConfig());

    /** Attach the accelerator complex for LOOKUP_* ops. */
    void setLookupEngine(LookupEngine *eng) { engine = eng; }

    /** Change effective issue width (SMT co-run modeling). */
    void setIssueWidth(unsigned width) { cfg.issueWidth = width; }

    const CoreConfig &config() const { return cfg; }
    CoreId coreId() const { return core; }

    /**
     * Price @p trace starting at @p start.
     * Cache state in the hierarchy is updated as a side effect.
     */
    RunResult run(const OpTrace &trace, Cycles start = 0);

  private:
    MemoryHierarchy &mem;
    CoreId core;
    CoreConfig cfg;
    LookupEngine *engine = nullptr;

    /// run() scratch: per-op completion cycles, and ring buffers for
    /// in-order resource reclamation (ROB, load/store queues, MSHRs).
    std::vector<Cycles> complete;
    std::vector<Cycles> retireRing;
    std::vector<Cycles> loadRing;
    std::vector<Cycles> storeRing;
    std::vector<Cycles> mshrRing;
};

} // namespace halo

#endif // HALO_CPU_CORE_MODEL_HH

/**
 * @file
 * The software virtual switch datapath (paper SS2, Fig. 1/2a).
 *
 * Pipeline: header pre-processing -> EMC lookup -> MegaFlow tuple-space
 * search -> OpenFlow upcall on a miss -> action. Every stage does its
 * functional work through the tables' lookups; the timing model is an
 * optional attachment on top of the same stages.
 *
 *  - A functional switch (the two-argument constructor) classifies
 *    only, in stages over a burst, OVS dpif-netdev style: every
 *    packet's tuple and key once, one bulk EMC probe, one bulk
 *    tuple-space walk over the EMC misses, then slow path, actions and
 *    stamps in packet order. No traces, no simulated machine, Software
 *    mode; a single packet is a burst of one. The runtime workers run
 *    this one.
 *  - A timed switch (the constructor taking a hierarchy and a core)
 *    additionally records each stage's reference stream, lowers it to
 *    micro-ops and prices it on the core model, giving the Fig. 3
 *    breakdown. Only a timed switch runs the HALO modes:
 *
 *   Software        — EMC + cuckoo TSS entirely on the core (baseline);
 *   HaloBlocking    — LOOKUP_B per tuple, result-dependent sequencing;
 *   HaloNonBlocking — LOOKUP_NB fan-out to all tuples + SNAPSHOT_READ;
 *   Hybrid          — flow-register-driven switch between Software and
 *                     HaloNonBlocking (paper SS4.6).
 *
 * Modeling notes (timed switch): packet buffers are DDIO-resident (the
 * NIC writes RX descriptors into the LLC), and masked-key staging
 * buffers for HALO queries are written with streaming stores
 * (functional write + LLC warm), so accelerator key fetches do not pay
 * dirty-private-copy snoops — matching how DPDK stages lookup batches in
 * practice.
 */

#ifndef HALO_VSWITCH_VSWITCH_HH
#define HALO_VSWITCH_VSWITCH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "flow/emc.hh"
#include "flow/flow_activity.hh"
#include "flow/flow_estimator.hh"
#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "net/packet.hh"
#include "sim/types.hh"

namespace halo {

class CoreModel;
class HaloSystem;
class MemoryHierarchy;

/** Which engine performs flow classification. */
enum class LookupMode
{
    Software,
    HaloBlocking,
    HaloNonBlocking,
    Hybrid,
};

/** Datapath configuration. */
struct VSwitchConfig
{
    /**
     * Enable the third datapath layer (paper Fig. 2a): on a MegaFlow
     * miss, search *all* OpenFlow tuples for the highest-priority match
     * and install the result into the MegaFlow layer (OVS upcall
     * behaviour). Without it, MegaFlow misses are reported unmatched.
     */
    bool useOpenflowLayer = false;
    /**
     * Decoupled slow path: a MegaFlow miss does NOT run the OpenFlow
     * upcall inline. The packet is returned with slowPathPending set
     * (a provisional unmatched result) and the caller — the runtime
     * worker — enqueues an upcall for the revalidator thread, the
     * single writer of this shard's megaflow tables and EMC.
     * Megaflow-hit EMC promotions are deferred the same way
     * (emcPromote/promoteValue). Requires useOpenflowLayer.
     */
    bool deferSlowPath = false;
    /**
     * Inline upcalls install an exact-match (microflow) megaflow
     * entry keyed on the full five-tuple instead of the winning
     * OpenFlow rule's own mask — the same entries the decoupled
     * revalidator installs, so inline vs decoupled churn comparisons
     * are apples-to-apples. Off by default: the simulated benches
     * keep the masked-install behaviour bit-for-bit.
     */
    bool exactUpcallInstalls = false;
    LookupMode mode = LookupMode::Software;
    /// EMC entries (OVS default 8192). The EMC runs in software in every
    /// mode; HALO modes can disable it entirely (it mostly misses at
    /// high flow counts and pollutes private caches).
    std::uint64_t emcEntries = 8192;
    bool useEmc = true;
    /// MegaFlow search semantics: first match (OVS MegaFlow layer).
    TupleSpace::Config tupleConfig;
    /// Instruction-cost knobs (arith/others/stack) per stage; read by
    /// a timed switch only.
    unsigned ioArith = 90, ioOthers = 220, ioScratch = 70;
    unsigned preArith = 120, preOthers = 150, preScratch = 50;
    unsigned actArith = 24, actOthers = 48, actScratch = 18;
    /// EMC lookups are cheaper than full cuckoo lookups.
    unsigned emcProfileInstructions = 90;
    /// Read by nothing: a functional switch stages maxBulkLanes
    /// packets at a time, a timed one classifies packet by packet.
    /// Kept only because the perfbench harness still assigns it; drop
    /// it with that harness's next revision.
    unsigned burstLanes = 16;
};

/** Per-packet result + Fig. 3 stage breakdown (the cycle and
 *  instruction fields stay zero on a functional switch). */
struct PacketResult
{
    bool matched = false;
    bool emcHit = false;
    Action action;
    unsigned tuplesSearched = 0;

    /// The classified five-tuple, echoed back so callers that defer
    /// slow-path work (cfg.deferSlowPath) can build the upcall.
    FiveTuple tuple{};
    /// MegaFlow miss whose upcall was deferred (cfg.deferSlowPath):
    /// the caller owns enqueueing it to the revalidator.
    bool slowPathPending = false;
    /// MegaFlow hit whose EMC promotion was deferred: the caller may
    /// forward {tuple, promoteValue} as a Promote upcall.
    bool emcPromote = false;
    std::uint64_t promoteValue = 0;

    Cycles total = 0;
    Cycles packetIo = 0;
    Cycles preprocess = 0;
    Cycles emcCycles = 0;
    Cycles megaflowCycles = 0;
    Cycles otherCycles = 0;

    /// Instructions retired for this packet.
    std::uint64_t instructions = 0;
};

/** Aggregate counters over a run. */
struct SwitchTotals
{
    std::uint64_t packets = 0;
    std::uint64_t emcHits = 0;
    std::uint64_t matches = 0;
    Cycles total = 0;
    Cycles packetIo = 0;
    Cycles preprocess = 0;
    Cycles emcCycles = 0;
    Cycles megaflowCycles = 0;
    Cycles otherCycles = 0;
    std::uint64_t instructions = 0;

    void add(const PacketResult &r);
    double cyclesPerPacket() const;
};

/**
 * The virtual switch.
 */
class VirtualSwitch
{
  public:
    /**
     * Functional switch: classification without a timing model.
     * Software mode only — a HALO or Hybrid mode is a fatal error.
     */
    VirtualSwitch(SimMemory &memory, const VSwitchConfig &config);

    /**
     * Timed switch: every stage is also priced on @p core_model.
     * @param halo_system required for the HALO/Hybrid modes; may be null
     *                    for pure software operation.
     */
    VirtualSwitch(SimMemory &memory, MemoryHierarchy &hierarchy,
                  CoreModel &core_model, HaloSystem *halo_system,
                  const VSwitchConfig &config);
    VirtualSwitch(VirtualSwitch &&);
    ~VirtualSwitch();

    /** True when a timing model is attached (the timed constructor). */
    bool timed() const { return timing_ != nullptr; }

    /** Install the rule table (builds the MegaFlow tuple space). */
    void installRules(const RuleSet &rules);

    /**
     * Install the slow-path OpenFlow rules (priority semantics). Only
     * consulted when cfg.useOpenflowLayer is set and the MegaFlow
     * layer misses. One-shot setup: each mask's tuple is sized to its
     * rules (2x, >= 64), so a later call that overflows one is fatal.
     */
    void installOpenflowRules(const RuleSet &rules);

    /** Warm the classification tables into the LLC (10K-lookup warmup
     *  equivalent, paper SS5.2). A functional switch has no cache to
     *  warm: no-op. */
    void warmTables();

    /** Process one packet through the full pipeline (a functional
     *  switch: a burst of one). */
    PacketResult processPacket(const Packet &packet);

    /** Fast path: classification only, from a pre-parsed tuple. */
    PacketResult classifyTuple(const FiveTuple &tuple);

    /**
     * Classify a burst of pre-parsed tuples into @p results (one per
     * tuple, results.size() >= batch.size()). HaloNonBlocking mode
     * routes through the LOOKUP_NB burst engine (chunked to the
     * key-staging capacity); a functional switch classifies in stages
     * (file comment); every other mode classifies packet by packet,
     * exactly as classifyTuple does.
     */
    void classifyBurst(std::span<const FiveTuple> batch,
                       std::span<PacketResult> results);

    /**
     * Full pipeline over a burst of packets (malformed packets are
     * dropped in place). A functional switch classifies it in stages,
     * maxBulkLanes packets at a time; a timed one runs processPacket on
     * each, in order. Within one stage burst a flow that repeats may
     * miss the EMC where a packet-by-packet walk would hit the entry
     * an earlier packet just promoted; match, action and slow-path
     * outcome are the same.
     */
    void processBurst(std::span<const Packet> batch,
                      std::span<PacketResult> results);

    /**
     * Burst classification in non-blocking HALO mode (DPDK-style): the
     * LOOKUP_NB queries of every packet in the burst are issued before
     * any result is awaited, so accelerator work for packet k+1 overlaps
     * the in-flight queries of packet k. This is the mode that lets the
     * tuple-space search scale (paper SS6.2, Fig. 11). Returns one
     * result per packet; cycle cost is amortized across the burst.
     * Timed switches with a HaloSystem only.
     */
    std::vector<PacketResult>
    classifyBurstNB(std::span<const FiveTuple> batch);

    const SwitchTotals &totals() const { return sums; }
    void resetTotals() { sums = SwitchTotals{}; }

    TupleSpace &tupleSpace() { return tuples; }
    TupleSpace &openflowLayer() { return openflow; }
    ExactMatchCache &emc() { return emcCache; }

    /** MegaFlow misses that were resolved by the OpenFlow layer. */
    std::uint64_t upcalls() const { return upcallCount; }

    /** Route per-match activity stamps into @p activity (null = off).
     *  The decoupled runtime wires the revalidator's aging here; one
     *  relaxed store per matched packet, nothing else changes.
     *  Functional switch only: a timed switch stamps nothing. */
    void setActivityTracker(FlowActivity *activity)
    {
        activity_ = activity;
    }

    /** Feed per-packet flow hashes into @p estimator (null = off).
     *  The adaptive-EMC runtime wires the shard's linear-counting
     *  estimator here; it shares the activity tracker's hash, so the
     *  data path pays at most one extra sampled bit-set per packet.
     *  Functional switch only, like setActivityTracker(). */
    void setFlowEstimator(ShardFlowEstimator *estimator)
    {
        estimator_ = estimator;
    }

    /** Mode selected for the *next* packet (Hybrid consults the flow
     *  register). */
    LookupMode effectiveMode() const;

    /** Current datapath time (advances with every packet of a timed
     *  switch; always 0 on a functional one). */
    Cycles now() const;

  private:
    /// The attached timing model (defined in vswitch.cc).
    struct Timing;

    /** The timed pipeline, one traced packet at a time; @p packet
     *  (null for pre-parsed tuples) is what the packet-IO stages are
     *  charged on. */
    PacketResult classifyTupleAt(const FiveTuple &tuple,
                                 const Packet *packet);

    /** Timed Software-mode classification: traced EMC probe, then the
     *  traced MegaFlow first-match walk. */
    void softwareClassify(const FiveTuple &tuple, PacketResult &res,
                          Cycles &now);

    /** The functional pipeline: classify @p n <= maxBulkLanes tuples
     *  in stages (file comment), result i into *out[i]. */
    void classifyStaged(const FiveTuple *batch, std::size_t n,
                        PacketResult *const *out);

    /** OpenFlow slow path: search all tuples, best priority wins, and
     *  promote the result into the MegaFlow layer. */
    void openflowUpcall(const FiveTuple &tuple, PacketResult &res,
                        Cycles &now);

    /** @name HALO modes (timed switch only) */
    /**@{*/
    /** Chunked LOOKUP_NB burst engine shared by classifyBurst and
     *  classifyBurstNB. */
    void nbBurst(std::span<const FiveTuple> batch, PacketResult *out);
    void nbBurstChunk(std::span<const FiveTuple> batch,
                      PacketResult *out);

    /** LOOKUP_B sequential tuple search. */
    void haloBlockingClassify(const FiveTuple &tuple, PacketResult &res,
                              Cycles &now);

    /** LOOKUP_NB fan-out + SNAPSHOT_READ completion check. */
    void haloNonBlockingClassify(const FiveTuple &tuple,
                                 PacketResult &res, Cycles &now);

    /** Stage a key into the streaming buffer (see file comment). */
    Addr stageKey(std::span<const std::uint8_t> key, unsigned slot);
    /**@}*/

    SimMemory &mem;
    VSwitchConfig cfg;

    ExactMatchCache emcCache;
    TupleSpace tuples;   ///< MegaFlow layer
    TupleSpace openflow; ///< OpenFlow layer (slow path)
    std::uint64_t upcallCount = 0;
    FlowActivity *activity_ = nullptr; ///< aging stamps (may be null)
    ShardFlowEstimator *estimator_ = nullptr; ///< flow-count bits
    std::array<std::uint8_t, FiveTuple::keyBytes> maskScratch{};
    /// Staged-burst scratch, built once so that a burst constructs no
    /// per-lane state (both types carry member initializers).
    std::array<FiveTuple, maxBulkLanes> burstTuples_{};
    std::array<TupleSpace::BulkWalkLane, maxBulkLanes> burstWalk_{};

    std::unique_ptr<Timing> timing_; ///< null on a functional switch

    SwitchTotals sums;
};

} // namespace halo

#endif // HALO_VSWITCH_VSWITCH_HH

/**
 * @file
 * Lowers functional access traces into micro-op streams.
 *
 * The builder is the calibration point between the functional layer and
 * the timing layer: a software hash-table lookup is lowered into ~210
 * micro-ops whose category mix matches the paper's Table 1 measurement
 * of DPDK's cuckoo implementation (36.2% loads, 11.8% stores, 21.0%
 * arithmetic, 30.9% others), with realistic dependency structure — the
 * hash computation feeds the bucket load, each key-value probe depends
 * on its bucket's contents, and stack traffic always hits L1.
 */

#ifndef HALO_CPU_TRACE_BUILDER_HH
#define HALO_CPU_TRACE_BUILDER_HH

#include <cstdint>
#include <span>

#include "cpu/micro_op.hh"
#include "hash/access.hh"

namespace halo {

/** Calibration for lowering software table operations (Table 1). */
struct SoftwareProfile
{
    /// Target instruction count for one hit lookup.
    unsigned targetTotal = 210;
    double loadFraction = 0.362;
    double storeFraction = 0.118;
    double arithFraction = 0.210;
    double otherFraction = 0.309;
    /// Instruction-level parallelism of the hash arithmetic block: op i
    /// depends on op i-hashIlp (CRC/multiply chains overlap ~3-wide).
    unsigned hashIlp = 3;
};

/**
 * Builds micro-op streams from functional traces.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(const SoftwareProfile &prof = SoftwareProfile())
        : profile(prof)
    {
    }

    /**
     * Lower a software table operation (lookup/insert/erase) recorded in
     * @p refs. Appends to @p out and returns the number of ops appended.
     *
     * The real memory references are embedded at their natural program
     * positions; register arithmetic, branches, and stack traffic are
     * added around them so the final mix matches the profile.
     */
    std::size_t lowerTableOp(std::span<const MemRef> refs,
                             OpTrace &out) const;

    /**
     * Lower a HALO LOOKUP_B instruction: one micro-op, plus the handful
     * of surrounding register moves the instruction needs (loading
     * RAX/EAX with the table address is amortized across lookups).
     */
    std::size_t lowerLookupB(Addr table_addr, Addr key_addr,
                             OpTrace &out) const;

    /** Lower a HALO LOOKUP_NB instruction. */
    std::size_t lowerLookupNB(Addr table_addr, Addr key_addr,
                              Addr result_addr, OpTrace &out) const;

    /**
     * Lower a SNAPSHOT_READ of a result line plus the AVX comparison
     * checking that all 8 slots are ready (paper SS4.5).
     */
    std::size_t lowerSnapshotCheck(Addr result_line, OpTrace &out) const;

    /**
     * Lower generic computation: @p arith ALU ops, @p others
     * branch/move ops, and @p scratch_refs stack references. Used for
     * packet pre-processing, NF bodies, and padding.
     */
    std::size_t lowerCompute(unsigned arith, unsigned others,
                             unsigned scratch_refs, OpTrace &out) const;

    /** Lower a raw load to a simulated address. */
    std::size_t lowerLoad(Addr addr, std::uint16_t size, AccessPhase phase,
                          OpTrace &out) const;

    /** Lower a raw store to a simulated address. */
    std::size_t lowerStore(Addr addr, std::uint16_t size,
                           AccessPhase phase, OpTrace &out) const;

  private:
    SoftwareProfile profile;
};

} // namespace halo

#endif // HALO_CPU_TRACE_BUILDER_HH

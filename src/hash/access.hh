/**
 * @file
 * Memory-access trace vocabulary.
 *
 * Every functional operation on a simulated data structure can record the
 * exact sequence of simulated-memory references it performed. Those
 * traces are what couple the functional layer to the timing layer: the
 * CPU model replays them as load/store micro-ops, and the HALO
 * accelerator model replays them as CHA-side data requests.
 */

#ifndef HALO_HASH_ACCESS_HH
#define HALO_HASH_ACCESS_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace halo {

/** What stage of a lookup/update an access belongs to (Fig. 10 bars). */
enum class AccessPhase : std::uint8_t
{
    Metadata,   ///< table metadata line
    Lock,       ///< software version-lock protocol accesses
    KeyFetch,   ///< reading the lookup key
    Bucket,     ///< bucket line of the hash table
    KeyValue,   ///< key-value pair slot
    Payload,    ///< other structure data (tree nodes, rule bodies, ...)
    Result,     ///< writing a lookup result (LOOKUP_NB destination)
};

/** One recorded reference to simulated memory. */
struct MemRef
{
    Addr addr = invalidAddr;
    std::uint16_t size = 0;
    bool write = false;
    AccessPhase phase = AccessPhase::Payload;
    /**
     * True when this reference's address depends on the *data* returned
     * by the previous reference (pointer chasing); the CPU model
     * serializes such pairs, while independent references overlap.
     */
    bool dependsOnPrevious = false;
    /**
     * True when the branch that consumes this reference's data has low
     * outcome entropy (tiny tables: few buckets, few live entries), so
     * a real branch predictor learns it. The trace builder then emits a
     * predictable branch instead of a pipeline-flushing one — this is
     * what lets software win on L1-resident tables (paper SS6.1).
     */
    bool lowEntropyBranch = false;
};

/** A functional operation's ordered reference stream. */
using AccessTrace = std::vector<MemRef>;

/** Convenience appender that tolerates a null trace pointer. */
inline void
recordRef(AccessTrace *trace, Addr addr, std::uint16_t size, bool write,
          AccessPhase phase, bool depends_on_previous = false)
{
    if (trace)
        trace->push_back(
            MemRef{addr, size, write, phase, depends_on_previous});
}

} // namespace halo

#endif // HALO_HASH_ACCESS_HH

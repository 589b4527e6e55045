/**
 * @file
 * Common interface for the modeled virtual network functions
 * (paper Table 3).
 *
 * Each NF owns real state in simulated memory and, per packet, appends
 * the micro-ops of its processing to a trace (functional side effects
 * happen immediately). Hash-table-backed NFs (NAT, prads, packet
 * filter) can run their lookups in software or through HALO (Fig. 13);
 * the compute-heavy NFs (ACL, Snort, mTCP) are used as co-located
 * workloads in the interference study (Fig. 12).
 */

#ifndef HALO_NF_NETWORK_FUNCTION_HH
#define HALO_NF_NETWORK_FUNCTION_HH

#include <optional>
#include <string>

#include "cpu/trace_builder.hh"
#include "hash/cuckoo_table.hh"
#include "mem/hierarchy.hh"
#include "mem/sim_memory.hh"
#include "net/packet.hh"

namespace halo {

/** Which engine executes an NF's hash-table lookups. */
enum class NfEngine
{
    Software,
    Halo, ///< LOOKUP_B through the accelerators
};

/** Base class for all modeled network functions. */
class NetworkFunction
{
  public:
    NetworkFunction(SimMemory &memory, MemoryHierarchy &hierarchy,
                    std::string nf_name)
        : mem(memory), hier(hierarchy), name_(std::move(nf_name))
    {
    }

    virtual ~NetworkFunction() = default;

    NetworkFunction(const NetworkFunction &) = delete;
    NetworkFunction &operator=(const NetworkFunction &) = delete;

    /** Human-readable name. */
    const std::string &name() const { return name_; }

    /**
     * Process one packet: perform the NF's functional work and append
     * the corresponding micro-ops to @p ops.
     */
    virtual void process(const ParsedHeaders &headers,
                         const Packet &packet, OpTrace &ops) = 0;

    /** Bytes of simulated state the NF owns. */
    virtual std::uint64_t footprintBytes() const = 0;

    /** Pull the NF's working state into the LLC. */
    virtual void warm() = 0;

  protected:
    /** Allocate the rotating key-staging ring used by HALO lookups. */
    void
    initKeyStage()
    {
        keyStageBase = mem.allocate(keyStageSlots * cacheLineBytes,
                                    cacheLineBytes);
    }

    /**
     * Stage a lookup key with a streaming store (lands in LLC, never
     * dirties the private caches). The ring is deep enough for a DPDK
     * burst of queries to be in flight at once.
     */
    Addr
    stageKey(const void *key, std::size_t len)
    {
        const Addr addr = keyStageBase +
                          (keyStageNext++ % keyStageSlots) *
                              cacheLineBytes;
        mem.write(addr, key, len);
        hier.warmLine(addr);
        return addr;
    }

    /**
     * Look @p key up in @p table on @p engine and append the lookup's
     * micro-ops to @p ops: the traced software probe, or HALO's key
     * staging and LOOKUP_B (the functional result still comes from the
     * table).
     */
    std::optional<std::uint64_t>
    tableLookup(const CuckooHashTable &table, KeyView key, NfEngine engine,
                OpTrace &ops)
    {
        if (engine == NfEngine::Software) {
            lookupRefs.clear();
            const auto value = table.lookup(key, &lookupRefs);
            builder.lowerTableOp(lookupRefs, ops);
            return value;
        }
        const auto value = table.lookup(key);
        const Addr staged = stageKey(key.data(), key.size());
        builder.lowerCompute(2, 2, 1, ops);
        builder.lowerLookupB(table.metadataAddr(), staged, ops);
        return value;
    }

    static constexpr unsigned keyStageSlots = 16;

    SimMemory &mem;
    MemoryHierarchy &hier;
    TraceBuilder builder;
    Addr keyStageBase = invalidAddr;
    unsigned keyStageNext = 0;

  private:
    AccessTrace lookupRefs; ///< tableLookup's reused scratch
    std::string name_;
};

} // namespace halo

#endif // HALO_NF_NETWORK_FUNCTION_HH

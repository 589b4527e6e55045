/**
 * @file
 * Tuple-space search over wildcard rules (paper SS2.2, Fig. 2a).
 *
 * One "tuple" per distinct wildcard mask, each backed by a cuckoo hash
 * table keyed on the masked five-tuple. The MegaFlow layer returns the
 * first matching tuple; the OpenFlow layer searches every tuple and
 * keeps the highest-priority match.
 */

#ifndef HALO_FLOW_TUPLE_SPACE_HH
#define HALO_FLOW_TUPLE_SPACE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "flow/rule.hh"
#include "hash/cuckoo_table.hh"
#include "mem/sim_memory.hh"

namespace halo {

/** A classification match. */
struct TupleMatch
{
    std::uint64_t value = 0;   ///< encoded action (+priority bits)
    std::uint16_t priority = 0;
    unsigned tupleIndex = 0;   ///< which tuple produced the match
    unsigned tuplesSearched = 0;
};

/** Pack priority into the stored value next to the action encoding. */
constexpr std::uint64_t
encodeRuleValue(const Action &action, std::uint16_t priority)
{
    return action.encode() | (static_cast<std::uint64_t>(priority) << 40);
}

/** Recover the priority from a stored rule value. */
constexpr std::uint16_t
decodeRulePriority(std::uint64_t value)
{
    return static_cast<std::uint16_t>((value >> 40) & 0xffff);
}

/**
 * The tuple space: an ordered list of (mask, cuckoo table) pairs.
 */
class TupleSpace
{
  public:
    struct Config
    {
        /// Capacity of each tuple's hash table.
        std::uint64_t tupleCapacity = 65536;
        HashKind hashKind = HashKind::XxMix;
        std::uint64_t seed = 0x7a57e;
        /// Cuckoo++ negative filter on every tuple's cuckoo table
        /// (CuckooHashTable::Config::negativeFilter).
        bool negativeFilter = false;
    };

    explicit TupleSpace(SimMemory &memory);
    TupleSpace(SimMemory &memory, const Config &config);

    /**
     * Insert a rule; the tuple for its mask is created on demand.
     * @return false when the tuple's table is full.
     */
    bool addRule(const FlowRule &rule);

    /**
     * Create (or find) the tuple for @p mask without inserting a rule,
     * and return its index. The decoupled runtime pre-creates every
     * tuple a revalidator may install into during setup, so the tuple
     * vector — and the SimMemory allocator behind it — is never
     * mutated while data-path readers walk the space.
     */
    unsigned ensureTuple(const FlowMask &mask);

    /**
     * Remove the rule stored under (@p mask, @p masked_key), if any
     * (flow aging). @return true when a rule was removed.
     */
    bool eraseRule(const FlowMask &mask,
                   std::span<const std::uint8_t> masked_key);

    /** First-match search (MegaFlow semantics). */
    std::optional<TupleMatch>
    lookupFirst(std::span<const std::uint8_t> key,
                AccessTrace *trace = nullptr) const;

    /** Per-lane result of one bulk first-match walk. */
    struct BulkWalkLane
    {
        unsigned searched = 0;
        bool found = false;
        TupleMatch match;

        void
        reset()
        {
            searched = 0;
            found = false;
        }
    };

    /**
     * Untraced bulk first-match walk over @p n full (unmasked) keys of
     * FiveTuple::keyBytes each (n <= maxBulkLanes). Walks the tuples in
     * order; at each tuple every still-unmatched lane is masked and
     * probed through the pipelined CuckooHashTable::lookupUntracedBulk,
     * so the memory latency of one lane's probe hides behind the
     * others'. lanes[i] must be reset() by the caller; on return bit i
     * of the result mask is set for every lane whose match is filled
     * in, and every lane's searched count equals the scalar
     * first-match walk's.
     */
    std::uint32_t lookupFirstBulk(const std::uint8_t *const *keys,
                                  std::size_t n,
                                  BulkWalkLane *const *lanes) const;

    /** Best-match search across all tuples (OpenFlow semantics). */
    std::optional<TupleMatch>
    lookupBest(std::span<const std::uint8_t> key,
               AccessTrace *trace = nullptr) const;

    unsigned numTuples() const { return static_cast<unsigned>(
        tuples.size()); }

    const FlowMask &mask(unsigned i) const { return tuples.at(i)->mask; }
    const CuckooHashTable &table(unsigned i) const
    {
        return tuples.at(i)->table;
    }
    CuckooHashTable &table(unsigned i) { return tuples.at(i)->table; }

    /** Total rules installed. */
    std::uint64_t ruleCount() const;

    /** Iterate every line of every tuple table (cache warming). */
    void forEachLine(const std::function<void(Addr)> &fn) const;

  private:
    struct Tuple
    {
        FlowMask mask;
        CuckooHashTable table;

        Tuple(SimMemory &memory, const FlowMask &m,
              const CuckooHashTable::Config &cfg)
            : mask(m), table(memory, cfg)
        {
        }
    };

    SimMemory &mem;
    Config cfg;
    std::vector<std::unique_ptr<Tuple>> tuples;
    /// Per-lane masked-key scratch for bulk walks (worker-only path;
    /// scalar lookups use stack-local scratch so the revalidator can
    /// search concurrently with the data path).
    mutable std::array<std::array<std::uint8_t, FiveTuple::keyBytes>,
                       maxBulkLanes>
        bulkMaskScratch{};
};

} // namespace halo

#endif // HALO_FLOW_TUPLE_SPACE_HH

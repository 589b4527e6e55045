#include "flow/tuple_space.hh"

#include "sim/logging.hh"

namespace halo {

TupleSpace::TupleSpace(SimMemory &memory) : mem(memory), cfg()
{
}

TupleSpace::TupleSpace(SimMemory &memory, const Config &config)
    : mem(memory), cfg(config)
{
}

unsigned
TupleSpace::ensureTuple(const FlowMask &mask)
{
    for (unsigned i = 0; i < tuples.size(); ++i) {
        if (tuples[i]->mask == mask)
            return i;
    }
    CuckooHashTable::Config tcfg;
    tcfg.keyLen = FiveTuple::keyBytes;
    tcfg.capacity = cfg.tupleCapacity;
    tcfg.hashKind = cfg.hashKind;
    tcfg.seed = cfg.seed + tuples.size() * 0x9e3779b9u;
    tcfg.negativeFilter = cfg.negativeFilter;
    tuples.push_back(std::make_unique<Tuple>(mem, mask, tcfg));
    return static_cast<unsigned>(tuples.size() - 1);
}

bool
TupleSpace::addRule(const FlowRule &rule)
{
    Tuple *tuple = tuples[ensureTuple(rule.mask)].get();
    const std::uint64_t value = encodeRuleValue(rule.action,
                                                rule.priority);
    return tuple->table.insert(
        KeyView(rule.maskedKey.data(), rule.maskedKey.size()), value);
}

bool
TupleSpace::eraseRule(const FlowMask &mask,
                      std::span<const std::uint8_t> masked_key)
{
    for (auto &t : tuples) {
        if (t->mask == mask)
            return t->table.erase(
                KeyView(masked_key.data(), masked_key.size()));
    }
    return false;
}

std::optional<TupleMatch>
TupleSpace::lookupFirst(std::span<const std::uint8_t> key,
                        AccessTrace *trace) const
{
    HALO_ASSERT(key.size() == FiveTuple::keyBytes);
    // Stack-local masked-key scratch: lookupFirst/lookupBest may run on
    // a data-path worker and the revalidator concurrently, so they must
    // not share a member buffer.
    std::array<std::uint8_t, FiveTuple::keyBytes> maskScratch;
    unsigned searched = 0;
    for (unsigned i = 0; i < tuples.size(); ++i) {
        tuples[i]->mask.applyInto(key, maskScratch.data());
        ++searched;
        if (auto value = tuples[i]->table.lookup(
                KeyView(maskScratch.data(), maskScratch.size()), trace)) {
            TupleMatch match;
            match.value = *value;
            match.priority = decodeRulePriority(*value);
            match.tupleIndex = i;
            match.tuplesSearched = searched;
            return match;
        }
    }
    return std::nullopt;
}

std::uint32_t
TupleSpace::lookupFirstBulk(const std::uint8_t *const *keys,
                            std::size_t n,
                            BulkWalkLane *const *lanes) const
{
    HALO_ASSERT(n <= maxBulkLanes, "bulk walk burst too large");

    // Live-lane compaction: lanes drop out as they match, so later
    // (broader) tuples are only probed for the remaining misses.
    unsigned live[maxBulkLanes];
    for (std::size_t i = 0; i < n; ++i)
        live[i] = static_cast<unsigned>(i);
    std::size_t num_live = n;

    std::uint32_t found = 0;
    for (unsigned t = 0;
         t < static_cast<unsigned>(tuples.size()) && num_live; ++t) {
        const std::uint8_t *key_ptrs[maxBulkLanes];
        std::uint64_t values[maxBulkLanes];
        for (std::size_t j = 0; j < num_live; ++j) {
            const unsigned lane = live[j];
            tuples[t]->mask.applyInto(
                std::span<const std::uint8_t>(keys[lane],
                                              FiveTuple::keyBytes),
                bulkMaskScratch[j].data());
            key_ptrs[j] = bulkMaskScratch[j].data();
        }
        const std::uint32_t hits = tuples[t]->table.lookupUntracedBulk(
            key_ptrs, num_live, values);

        std::size_t out = 0;
        for (std::size_t j = 0; j < num_live; ++j) {
            const unsigned lane = live[j];
            BulkWalkLane &st = *lanes[lane];
            ++st.searched;
            if (hits & (1u << j)) {
                st.found = true;
                st.match = TupleMatch{values[j],
                                      decodeRulePriority(values[j]), t,
                                      st.searched};
                found |= 1u << lane;
            } else {
                live[out++] = lane;
            }
        }
        num_live = out;
    }
    return found;
}

std::optional<TupleMatch>
TupleSpace::lookupBest(std::span<const std::uint8_t> key,
                       AccessTrace *trace) const
{
    HALO_ASSERT(key.size() == FiveTuple::keyBytes);
    std::array<std::uint8_t, FiveTuple::keyBytes> maskScratch;
    std::optional<TupleMatch> best;
    for (unsigned i = 0; i < tuples.size(); ++i) {
        tuples[i]->mask.applyInto(key, maskScratch.data());
        if (auto value = tuples[i]->table.lookup(
                KeyView(maskScratch.data(), maskScratch.size()), trace)) {
            const std::uint16_t prio = decodeRulePriority(*value);
            if (!best || prio > best->priority) {
                best = TupleMatch{*value, prio, i, 0};
            }
        }
    }
    if (best)
        best->tuplesSearched = numTuples();
    return best;
}

std::uint64_t
TupleSpace::ruleCount() const
{
    std::uint64_t n = 0;
    for (const auto &t : tuples)
        n += t->table.size();
    return n;
}

void
TupleSpace::forEachLine(const std::function<void(Addr)> &fn) const
{
    for (const auto &t : tuples)
        t->table.forEachLine(fn);
}

} // namespace halo

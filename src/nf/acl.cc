#include "nf/acl.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

namespace halo {

namespace {

/// Serialized rule record size in the rule array.
constexpr std::uint64_t ruleRecordBytes = 16;

} // namespace

AclFunction::AclFunction(SimMemory &memory, MemoryHierarchy &hierarchy)
    : NetworkFunction(memory, hierarchy, "acl")
{
}

void
AclFunction::addRule(const AclRule &rule)
{
    HALO_ASSERT(!built, "addRule after build");
    HALO_ASSERT(rule.prefixLen <= 32);
    rules.push_back(rule);
}

void
AclFunction::populateFrom(const std::vector<FiveTuple> &flows, unsigned n,
                          std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    for (unsigned i = 0; i < n && i < flows.size(); ++i) {
        const FiveTuple &flow = flows[rng.nextBounded(flows.size())];
        AclRule rule;
        rule.dstPrefix = flow.dstIp;
        rule.prefixLen = 16 + 4 * static_cast<unsigned>(
                                  rng.nextBounded(5)); // 16..32
        rule.anyPort = rng.nextBool(0.5);
        rule.dstPort = flow.dstPort;
        rule.anyProto = rng.nextBool(0.5);
        rule.proto = flow.proto;
        rule.permit = rng.nextBool(0.7);
        rule.priority = static_cast<std::uint16_t>(100 + i);
        addRule(rule);
    }
    // Default route: permit-all at lowest priority.
    AclRule route;
    route.prefixLen = 0;
    route.anyPort = true;
    route.anyProto = true;
    route.permit = true;
    route.priority = 1;
    addRule(route);
}

std::uint32_t
AclFunction::allocNode()
{
    HALO_ASSERT(nodeCount < nodeCapacity, "ACL trie node pool exhausted");
    const std::uint32_t idx = nodeCount++;
    mem.zero(nodeAddr(idx), nodeBytes);
    return idx;
}

void
AclFunction::build()
{
    HALO_ASSERT(!built, "double build");
    // Worst case: every rule contributes a full path.
    nodeCapacity = static_cast<std::uint32_t>(rules.size() * levels + 2);
    trieBase = mem.allocate(static_cast<std::uint64_t>(nodeCapacity) *
                                nodeBytes,
                            cacheLineBytes);
    ruleArray = mem.allocate(rules.size() * ruleRecordBytes,
                             cacheLineBytes);
    nodeCount = 0;
    allocNode(); // root = node 0

    // Serialize rules for the qualification step.
    for (std::size_t r = 0; r < rules.size(); ++r) {
        const Addr rec = ruleArray + r * ruleRecordBytes;
        mem.store<std::uint32_t>(rec, rules[r].dstPrefix);
        mem.store<std::uint16_t>(rec + 4, rules[r].dstPort);
        mem.store<std::uint8_t>(rec + 6, rules[r].proto);
        mem.store<std::uint8_t>(
            rec + 7, static_cast<std::uint8_t>(
                         (rules[r].permit ? 1 : 0) |
                         (rules[r].anyPort ? 2 : 0) |
                         (rules[r].anyProto ? 4 : 0)));
        mem.store<std::uint16_t>(rec + 8, rules[r].priority);
        mem.store<std::uint8_t>(
            rec + 10, static_cast<std::uint8_t>(rules[r].prefixLen));
    }

    // Insert prefixes. A rule terminating mid-stride is expanded over
    // the covered child slots (standard multi-bit trie expansion).
    for (std::size_t r = 0; r < rules.size(); ++r) {
        const AclRule &rule = rules[r];
        std::uint32_t node = 0;
        unsigned consumed = 0;
        while (consumed + strideBits <= rule.prefixLen) {
            const unsigned shift = 32 - consumed - strideBits;
            const std::uint32_t nibble = (rule.dstPrefix >> shift) &
                                         (fanout - 1);
            const Addr child_slot = nodeAddr(node) + nibble * 4;
            std::uint32_t child = mem.load<std::uint32_t>(child_slot);
            if (child == 0) {
                child = allocNode() + 1;
                mem.store<std::uint32_t>(child_slot, child);
            }
            node = child - 1;
            consumed += strideBits;
        }
        const Addr rule_slot = nodeAddr(node) + fanout * 4;
        if (consumed == rule.prefixLen) {
            // Exact stride boundary: attach at this node if it wins.
            const std::uint32_t cur = mem.load<std::uint32_t>(rule_slot);
            if (cur == 0 ||
                rules[cur - 1].priority < rule.priority ||
                rules[cur - 1].prefixLen < rule.prefixLen) {
                mem.store<std::uint32_t>(
                    rule_slot, static_cast<std::uint32_t>(r + 1));
            }
        } else {
            // Expand over the child slots the partial nibble covers.
            const unsigned rem = rule.prefixLen - consumed;
            const unsigned shift = 32 - consumed - strideBits;
            const std::uint32_t base_nibble =
                (rule.dstPrefix >> shift) & (fanout - 1);
            const std::uint32_t span = 1u << (strideBits - rem);
            const std::uint32_t first = base_nibble &
                                        ~(span - 1);
            for (std::uint32_t c = first; c < first + span; ++c) {
                const Addr child_slot = nodeAddr(node) + c * 4;
                std::uint32_t child = mem.load<std::uint32_t>(child_slot);
                if (child == 0) {
                    child = allocNode() + 1;
                    mem.store<std::uint32_t>(child_slot, child);
                }
                const Addr leaf_rule =
                    nodeAddr(child - 1) + fanout * 4;
                const std::uint32_t cur =
                    mem.load<std::uint32_t>(leaf_rule);
                if (cur == 0 ||
                    rules[cur - 1].prefixLen < rule.prefixLen ||
                    (rules[cur - 1].prefixLen == rule.prefixLen &&
                     rules[cur - 1].priority < rule.priority)) {
                    mem.store<std::uint32_t>(
                        leaf_rule, static_cast<std::uint32_t>(r + 1));
                }
            }
        }
    }
    built = true;
}

std::optional<AclRule>
AclFunction::match(const FiveTuple &tuple) const
{
    HALO_ASSERT(built, "match before build");
    std::uint32_t node = 0;
    std::int64_t best = -1;
    for (unsigned level = 0; level < levels; ++level) {
        const Addr rule_slot = nodeAddr(node) + fanout * 4;
        const std::uint32_t rid = mem.load<std::uint32_t>(rule_slot);
        if (rid != 0) {
            const AclRule &cand = rules[rid - 1];
            const bool port_ok = cand.anyPort ||
                                 cand.dstPort == tuple.dstPort;
            const bool proto_ok = cand.anyProto ||
                                  cand.proto == tuple.proto;
            if (port_ok && proto_ok &&
                (best < 0 ||
                 rules[best].priority <= cand.priority)) {
                best = rid - 1;
            }
        }
        const unsigned shift = 32 - (level + 1) * strideBits;
        const std::uint32_t nibble = (tuple.dstIp >> shift) &
                                     (fanout - 1);
        const std::uint32_t child = mem.load<std::uint32_t>(
            nodeAddr(node) + nibble * 4);
        if (child == 0)
            break;
        node = child - 1;
    }
    if (best < 0)
        return std::nullopt;
    return rules[best];
}

void
AclFunction::process(const ParsedHeaders &headers, const Packet &packet,
                     OpTrace &ops)
{
    (void)packet;
    const FiveTuple tuple = headers.tuple();

    // Walk the trie, emitting the dependent loads the walk performs.
    std::uint32_t node = 0;
    std::int64_t best = -1;
    std::int32_t prev_load = -1;
    for (unsigned level = 0; level < levels; ++level) {
        const Addr rule_slot = nodeAddr(node) + fanout * 4;
        const std::uint32_t rid = mem.load<std::uint32_t>(rule_slot);
        if (rid != 0) {
            builder.lowerLoad(ruleArray + (rid - 1) * ruleRecordBytes,
                              ruleRecordBytes, AccessPhase::Payload,
                              ops);
            builder.lowerCompute(6, 4, 0, ops); // qualify + compare
            const AclRule &cand = rules[rid - 1];
            const bool port_ok = cand.anyPort ||
                                 cand.dstPort == tuple.dstPort;
            const bool proto_ok = cand.anyProto ||
                                  cand.proto == tuple.proto;
            if (port_ok && proto_ok &&
                (best < 0 || rules[best].priority <= cand.priority))
                best = rid - 1;
        }
        const unsigned shift = 32 - (level + 1) * strideBits;
        const std::uint32_t nibble = (tuple.dstIp >> shift) &
                                     (fanout - 1);
        const Addr child_slot = nodeAddr(node) + nibble * 4;
        builder.lowerLoad(child_slot, 4, AccessPhase::Payload, ops);
        // Each level's load depends on the previous node pointer.
        if (prev_load >= 0)
            ops.back().dep = prev_load;
        prev_load = static_cast<std::int32_t>(ops.size()) - 1;
        const std::uint32_t child = mem.load<std::uint32_t>(child_slot);
        if (child == 0)
            break;
        node = child - 1;
    }
    builder.lowerCompute(8, 10, 3, ops); // verdict + bookkeeping

    if (best >= 0 && rules[best].permit)
        ++permitted;
    else
        ++denied;
}

std::uint64_t
AclFunction::footprintBytes() const
{
    return static_cast<std::uint64_t>(nodeCount) * nodeBytes +
           rules.size() * ruleRecordBytes;
}

void
AclFunction::warm()
{
    for (std::uint32_t n = 0; n < nodeCount; ++n) {
        hier.warmLine(nodeAddr(n));
        hier.warmLine(nodeAddr(n) + cacheLineBytes);
    }
    for (std::uint64_t off = 0; off < rules.size() * ruleRecordBytes;
         off += cacheLineBytes)
        hier.warmLine(ruleArray + off);
}

} // namespace halo

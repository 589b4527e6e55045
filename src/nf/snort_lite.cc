#include "nf/snort_lite.hh"

#include <deque>

#include "sim/logging.hh"

namespace halo {

SnortLite::SnortLite(SimMemory &memory, MemoryHierarchy &hierarchy)
    : NetworkFunction(memory, hierarchy, "snort")
{
}

void
SnortLite::addPattern(const std::string &pattern)
{
    HALO_ASSERT(!built, "addPattern after build");
    HALO_ASSERT(!pattern.empty());
    patterns.push_back(pattern);
}

void
SnortLite::addDefaultPatterns()
{
    // Stand-ins for VRT/ET content strings.
    for (const char *p :
         {"/bin/sh", "cmd.exe", "SELECT", "UNION ALL", "../..",
          "<script>", "wget http", "etc/passwd", "powershell",
          "\xde\xad\xbe\xef", "0wned", "USER root"}) {
        addPattern(p);
    }
}

void
SnortLite::build()
{
    HALO_ASSERT(!built, "double build");
    HALO_ASSERT(!patterns.empty(), "no patterns");

    // --- Host-side trie over nibbles. ---
    struct Node
    {
        std::int32_t next[fanout];
        std::uint32_t matches = 0;
        std::int32_t fail = 0;

        Node()
        {
            for (auto &n : next)
                n = -1;
        }
    };
    std::vector<Node> trie(1);

    for (const std::string &pat : patterns) {
        std::int32_t state = 0;
        for (char ch : pat) {
            const auto byte = static_cast<std::uint8_t>(ch);
            for (std::uint8_t nib :
                 {static_cast<std::uint8_t>(byte >> 4),
                  static_cast<std::uint8_t>(byte & 0xf)}) {
                if (trie[state].next[nib] < 0) {
                    trie[state].next[nib] =
                        static_cast<std::int32_t>(trie.size());
                    trie.emplace_back();
                }
                state = trie[state].next[nib];
            }
        }
        ++trie[state].matches;
    }

    // --- BFS failure links; resolve into a dense DFA. ---
    std::deque<std::int32_t> queue;
    for (unsigned c = 0; c < fanout; ++c) {
        if (trie[0].next[c] < 0) {
            trie[0].next[c] = 0;
        } else {
            trie[trie[0].next[c]].fail = 0;
            queue.push_back(trie[0].next[c]);
        }
    }
    while (!queue.empty()) {
        const std::int32_t s = queue.front();
        queue.pop_front();
        trie[s].matches += trie[trie[s].fail].matches;
        for (unsigned c = 0; c < fanout; ++c) {
            const std::int32_t t = trie[s].next[c];
            if (t < 0) {
                trie[s].next[c] = trie[trie[s].fail].next[c];
            } else {
                trie[t].fail = trie[trie[s].fail].next[c];
                queue.push_back(t);
            }
        }
    }

    // --- Serialize into simulated memory. ---
    numStates = static_cast<std::uint32_t>(trie.size());
    automatonBase = mem.allocate(
        static_cast<std::uint64_t>(numStates) * stateBytes,
        cacheLineBytes);
    for (std::uint32_t s = 0; s < numStates; ++s) {
        const Addr base = stateAddr(s);
        for (unsigned c = 0; c < fanout; ++c)
            mem.store<std::uint32_t>(
                base + c * 4,
                static_cast<std::uint32_t>(trie[s].next[c]));
        mem.store<std::uint32_t>(base + fanout * 4, trie[s].matches);
    }
    built = true;
}

unsigned
SnortLite::scan(std::span<const std::uint8_t> data) const
{
    HALO_ASSERT(built, "scan before build");
    unsigned hits = 0;
    std::uint32_t state = 0;
    for (std::uint8_t byte : data) {
        for (std::uint8_t nib : {static_cast<std::uint8_t>(byte >> 4),
                                 static_cast<std::uint8_t>(byte & 0xf)}) {
            state = mem.load<std::uint32_t>(stateAddr(state) + nib * 4);
            hits += mem.load<std::uint32_t>(stateAddr(state) +
                                            fanout * 4);
        }
    }
    return hits;
}

void
SnortLite::process(const ParsedHeaders &headers, const Packet &packet,
                   OpTrace &ops)
{
    (void)headers;
    HALO_ASSERT(built, "process before build");

    const auto bytes = packet.bytes();
    const std::size_t payload_off =
        EthernetHeader::wireBytes + Ipv4Header::wireBytes + 8;
    if (bytes.size() <= payload_off)
        return;

    std::uint32_t state = 0;
    std::int32_t prev_load = -1;
    unsigned hits = 0;
    for (std::size_t i = payload_off; i < bytes.size(); ++i) {
        const std::uint8_t byte = bytes[i];
        for (std::uint8_t nib : {static_cast<std::uint8_t>(byte >> 4),
                                 static_cast<std::uint8_t>(byte & 0xf)}) {
            const Addr slot = stateAddr(state) + nib * 4;
            builder.lowerLoad(slot, 4, AccessPhase::Payload, ops);
            if (prev_load >= 0)
                ops.back().dep = prev_load; // state-dependent chain
            prev_load = static_cast<std::int32_t>(ops.size()) - 1;
            state = mem.load<std::uint32_t>(slot);
            hits += mem.load<std::uint32_t>(stateAddr(state) +
                                            fanout * 4);
            builder.lowerCompute(1, 1, 0, ops);
        }
    }
    builder.lowerCompute(6, 8, 2, ops);
    alertCount += hits;
}

std::uint64_t
SnortLite::footprintBytes() const
{
    return static_cast<std::uint64_t>(numStates) * stateBytes;
}

void
SnortLite::warm()
{
    for (std::uint32_t s = 0; s < numStates; ++s) {
        hier.warmLine(stateAddr(s));
        hier.warmLine(stateAddr(s) + cacheLineBytes);
    }
}

} // namespace halo

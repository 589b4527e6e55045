#include "support.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>

#include "sim/random.hh"

namespace perfbench {

double
percentile(std::vector<double> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(std::vector<double> samples)
{
    return percentile(samples, 0.5);
}

std::vector<double>
chunkPercentiles(const std::vector<double> &samples, std::size_t chunk,
                 double q)
{
    std::vector<double> out;
    if (chunk == 0)
        return out;
    for (std::size_t i = 0; i + chunk <= samples.size(); i += chunk) {
        std::vector<double> part(samples.begin() + i,
                                 samples.begin() + i + chunk);
        out.push_back(percentile(part, q));
    }
    return out;
}

OpenLoopSchedule::OpenLoopSchedule(double rate_pps)
    : periodNs_(1e9 / rate_pps)
{
}

std::int64_t
OpenLoopSchedule::dueNs(std::uint64_t i) const
{
    return static_cast<std::int64_t>(static_cast<double>(i) * periodNs_);
}

std::uint64_t
OpenLoopSchedule::dueBy(std::int64_t elapsed_ns) const
{
    if (elapsed_ns < 0)
        return 0;
    // Estimate, then settle on the first packet not yet due.
    std::uint64_t n = static_cast<std::uint64_t>(
                          static_cast<double>(elapsed_ns) / periodNs_) +
                      1;
    while (dueNs(n) <= elapsed_ns)
        ++n;
    while (n > 0 && dueNs(n - 1) > elapsed_ns)
        --n;
    return n;
}

std::size_t
ReferenceClassifier::KeyHash::operator()(const Key &k) const
{
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, k.data(), sizeof(a));
    std::memcpy(&b, k.data() + sizeof(a), sizeof(b));
    std::uint64_t h =
        (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
}

ReferenceClassifier::ReferenceClassifier(const halo::RuleSet &rules)
{
    for (const halo::FlowRule &rule : rules) {
        auto g = std::find_if(groups_.begin(), groups_.end(),
                              [&](const Group &x) {
                                  return x.mask == rule.mask;
                              });
        if (g == groups_.end()) {
            groups_.push_back(Group{rule.mask, {}});
            g = std::prev(groups_.end());
        }
        const RefOutcome o{true, rule.action, rule.priority};
        const auto [it, inserted] = g->rules.try_emplace(rule.maskedKey, o);
        if (!inserted && rule.priority > it->second.priority)
            it->second = o;
    }
}

RefOutcome
ReferenceClassifier::classify(const halo::FiveTuple &tuple) const
{
    const Key key = tuple.toKey();
    RefOutcome best;
    for (const Group &g : groups_) {
        const auto it = g.rules.find(g.mask.apply(key));
        if (it != g.rules.end() &&
            (!best.matched || it->second.priority > best.priority))
            best = it->second;
    }
    return best;
}

HostProbe
probeHost()
{
    HostProbe p;

    // 1 MiB of cache-line nodes linked into one random cycle: every load
    // depends on the previous one and stays L2-resident on a typical core.
    struct alignas(64) Node
    {
        std::uint32_t next = 0;
    };
    constexpr std::size_t nodes = (1u << 20) / sizeof(Node);
    std::vector<Node> ring(nodes);
    std::vector<std::uint32_t> order(nodes);
    std::iota(order.begin(), order.end(), 0u);
    halo::Xoshiro256 rng(0x1d2c3b4au);
    for (std::size_t i = nodes - 1; i > 0; --i)
        std::swap(order[i], order[rng.nextBounded(i + 1)]);
    for (std::size_t i = 0; i < nodes; ++i)
        ring[order[i]].next = order[(i + 1) % nodes];

    std::uint32_t cur = order[0];
    for (std::size_t i = 0; i < nodes; ++i)
        cur = ring[cur].next;
    constexpr std::uint64_t loads = 4u << 20;
    std::int64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < loads; ++i) {
        cur = ring[cur].next;
        asm volatile("" : "+r"(cur));
    }
    std::int64_t t1 = nowNs();
    p.chaseNsPerLoad =
        static_cast<double>(t1 - t0) / static_cast<double>(loads);

    constexpr std::uint64_t iters = 20u << 20;
    std::uint64_t x = cur;
    t0 = nowNs();
    for (std::uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        asm volatile("" : "+r"(x));
    }
    t1 = nowNs();
    p.spinNsPerIter =
        static_cast<double>(t1 - t0) / static_cast<double>(iters);
    return p;
}

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity)
{
    spans_.reserve(capacity);
}

std::int32_t
SpanRecorder::begin(const char *name, std::int32_t parent,
                    std::uint32_t batch)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return -1;
    }
    spans_.push_back(Span{name, nowNs(), 0, parent, batch});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
SpanRecorder::end(std::int32_t id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

double
SpanRecorder::totalNs(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            sum += static_cast<double>(s.endNs - s.startNs);
    return sum;
}

std::vector<std::pair<std::string, double>>
SpanRecorder::layerTable(const std::string &root) const
{
    std::map<std::string, double> rows;
    double roots = 0.0;
    double children = 0.0;
    for (const Span &s : spans_) {
        const double d = static_cast<double>(s.endNs - s.startNs);
        if (root == s.name) {
            roots += d;
        } else if (s.parent >= 0 &&
                   root == spans_[static_cast<std::size_t>(s.parent)].name) {
            rows[s.name] += d;
            children += d;
        }
    }
    std::vector<std::pair<std::string, double>> out(rows.begin(),
                                                    rows.end());
    out.emplace_back("unattributed", roots - children);
    return out;
}

std::string
layerTableProblem(const std::vector<std::pair<std::string, double>> &rows,
                  double traced_ns, double untraced_ns, double max_ratio)
{
    for (const auto &[name, ns] : rows)
        if (ns < 0.0)
            return "row " + name + " is negative";
    if (!(traced_ns > 0.0) || !(untraced_ns > 0.0))
        return "no time measured";
    const double r = traced_ns / untraced_ns;
    if (r > max_ratio || r < 1.0 / max_ratio)
        return "traced total is " + std::to_string(r) +
               "x the untraced total";
    return "";
}

void
SpanRecorder::write(std::ostream &os) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << ",\"parent\":" << s.parent << ",\"batch\":" << s.batch
           << "}\n";
    }
}

} // namespace perfbench

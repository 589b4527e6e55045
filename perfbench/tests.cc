/**
 * @file
 * Tests of the benchmark's own percentile, pacing and oracle code.
 * Exit status 0 when every check passes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "flow/ruleset.hh"
#include "flow/tuple_space.hh"
#include "support.hh"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,     \
                         __LINE__, #cond);                                  \
            ++failures;                                                     \
        }                                                                   \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testPercentile()
{
    std::vector<double> empty;
    CHECK(percentile(empty, 0.5) == 0.0);
    std::vector<double> one{7.0};
    CHECK(percentile(one, 0.9) == 7.0);
    std::vector<double> v{4, 1, 3, 2, 5};
    CHECK(near(percentile(v, 0.0), 1.0));
    CHECK(near(percentile(v, 1.0), 5.0));
    CHECK(near(percentile(v, 0.5), 3.0));
    CHECK(near(percentile(v, 0.9), 4.6)); // rank 3.6 between 4 and 5
    std::vector<double> w{20, 10};
    CHECK(near(percentile(w, 0.25), 12.5));
    CHECK(near(median({1, 2, 3, 4}), 2.5));
    CHECK(near(median({}), 0.0));
    const std::vector<double> seq{5, 1, 3, 10, 30, 20, 99};
    const std::vector<double> maxes = chunkPercentiles(seq, 3, 1.0);
    CHECK(maxes.size() == 2); // the trailing 99 is dropped
    CHECK(near(maxes[0], 5.0) && near(maxes[1], 30.0));
    CHECK(near(chunkPercentiles(seq, 3, 0.5)[1], 20.0));
    CHECK(chunkPercentiles(seq, 0, 0.5).empty());
    CHECK(chunkPercentiles(seq, 8, 0.5).empty());
}

void
testSchedule()
{
    const OpenLoopSchedule s(8000.0); // 125 us apart
    CHECK(s.dueNs(0) == 0);
    CHECK(s.dueNs(1) == 125000);
    CHECK(s.dueNs(8000) == 1000000000);
    CHECK(s.dueBy(-1) == 0);
    CHECK(s.dueBy(0) == 1);
    CHECK(s.dueBy(124999) == 1);
    CHECK(s.dueBy(125000) == 2);
    // dueBy inverts dueNs exactly at an awkward rate too.
    const OpenLoopSchedule odd(7777.7);
    for (std::uint64_t i = 1; i < 20000; i += 37) {
        CHECK(odd.dueBy(odd.dueNs(i)) == i + 1);
        CHECK(odd.dueBy(odd.dueNs(i) - 1) == i);
    }
}

halo::FlowRule
rule(const halo::FlowMask &mask, const halo::FiveTuple &t,
     std::uint16_t priority, std::uint16_t port)
{
    halo::FlowRule r;
    r.mask = mask;
    r.maskedKey = mask.apply(t.toKey());
    r.priority = priority;
    r.action = halo::Action{halo::ActionKind::Forward, port};
    return r;
}

void
testOracle()
{
    halo::FiveTuple a;
    a.srcIp = 0x0a000001;
    a.dstIp = 0x0a000002;
    a.srcPort = 1000;
    a.dstPort = 80;
    halo::FiveTuple b = a;
    b.srcPort = 1001;
    halo::FiveTuple c = a;
    c.dstIp = 0x0b000000;
    const halo::FlowMask exact = halo::FlowMask::exact();
    const halo::FlowMask hosts =
        halo::FlowMask::fields(32, 32, false, false, false);

    const ReferenceClassifier ref(
        {rule(hosts, a, 5, 1), rule(exact, a, 9, 2), rule(exact, b, 3, 3)});
    const RefOutcome ra = ref.classify(a);
    CHECK(ra.matched && ra.action.port == 2 && ra.priority == 9);
    const RefOutcome rb = ref.classify(b); // host rule outranks its own
    CHECK(rb.matched && rb.action.port == 1);
    CHECK(!ref.classify(c).matched);

    // Equal priority: the rule listed first wins.
    const ReferenceClassifier tie({rule(hosts, a, 4, 7), rule(exact, a, 4, 8)});
    CHECK(tie.classify(a).action.port == 7);

    halo::FlowRule any; // all-wildcard mask
    any.priority = 1;
    any.action = halo::Action{halo::ActionKind::Forward, 9};
    CHECK(ReferenceClassifier({any}).classify(c).action.port == 9);
}

/** The oracle agrees with the OpenFlow layer's priority search on a
 *  ManyFlows rule set, for known and unknown flows. */
void
testOracleMatchesTupleSpace()
{
    halo::TrafficConfig tc;
    tc.numFlows = 4000;
    tc.seed = 7;
    const halo::TrafficGenerator known(tc);
    tc.seed = 8;
    const halo::TrafficGenerator unknown(tc);
    const halo::RuleSet rules = halo::scenarioRules(
        halo::TrafficScenario::ManyFlows, known.flows(), 7);
    halo::SimMemory mem(256ull << 20);
    halo::TupleSpace ts(mem);
    for (const halo::FlowRule &r : rules)
        CHECK(ts.addRule(r));
    const ReferenceClassifier ref(rules);
    std::uint64_t matched = 0;
    for (const auto *flows : {&known.flows(), &unknown.flows()}) {
        for (const halo::FiveTuple &t : *flows) {
            const auto key = t.toKey();
            const auto best = ts.lookupBest(
                std::span<const std::uint8_t>(key.data(), key.size()));
            const RefOutcome o = ref.classify(t);
            CHECK(o.matched == best.has_value());
            if (best && o.matched) {
                CHECK(halo::Action::decode(best->value) == o.action);
                ++matched;
            }
        }
    }
    CHECK(matched >= known.flows().size());
}

void
testSpans()
{
    SpanRecorder spans(8);
    const std::int32_t root = spans.begin("root", -1, 0);
    const std::int32_t child = spans.begin("child", root, 0);
    spans.end(child);
    spans.end(root);
    const auto rows = spans.layerTable("root");
    CHECK(rows.size() == 2 && rows[0].first == "child" &&
          rows[1].first == "unattributed");
    CHECK(near(rows[0].second + rows[1].second, spans.totalNs("root")));
    SpanRecorder full(1);
    CHECK(full.begin("a", -1, 0) == 0);
    CHECK(full.begin("b", -1, 0) == -1);
    CHECK(full.dropped() == 1);
}

void
testAllocCounter()
{
    const std::uint64_t a0 = heapAllocs();
    auto *counted = new int(1);
    const std::uint64_t a1 = heapAllocs();
    int *uncounted = nullptr;
    {
        UncountedAllocs scope;
        uncounted = new int(2);
    }
    const std::uint64_t a2 = heapAllocs();
    CHECK(a1 == a0 + 1);
    CHECK(a2 == a1);
    delete counted;
    delete uncounted;
}

void
testLayerTableProblem()
{
    using Rows = std::vector<std::pair<std::string, double>>;
    const Rows ok{{"child", 30.0}, {"unattributed", 70.0}};
    CHECK(layerTableProblem(ok, 100.0, 80.0, 2.0).empty());
    CHECK(layerTableProblem(ok, 100.0, 190.0, 2.0).empty());
    // The traced total strays too far from the untraced one, either way.
    CHECK(!layerTableProblem(ok, 100.0, 40.0, 2.0).empty());
    CHECK(!layerTableProblem(ok, 100.0, 210.0, 2.0).empty());
    // A child timed longer than the root it is charged to.
    const Rows neg{{"child", 130.0}, {"unattributed", -30.0}};
    CHECK(!layerTableProblem(neg, 100.0, 100.0, 2.0).empty());
    CHECK(!layerTableProblem(ok, 0.0, 0.0, 2.0).empty());
}

} // namespace

int
main()
{
    testPercentile();
    testSchedule();
    testOracle();
    testOracleMatchesTupleSpace();
    testSpans();
    testLayerTableProblem();
    testAllocCounter();
    if (failures) {
        std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("perfbench_tests: all checks passed\n");
    return 0;
}

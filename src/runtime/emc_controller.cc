#include "runtime/emc_controller.hh"

#include <algorithm>

namespace halo {

EmcControlDecision
decideEmcPolicy(const EmcPolicyConfig &cfg, const EmcControlInputs &in)
{
    EmcControlDecision d;

    // An idle or warming-up shard carries no signal: hold everything.
    if (in.samples < cfg.minWindowSamples)
        return d;

    // Repeat fraction: of W sampled packets, at most W - E are repeat
    // sightings of a flow already seen this window, so 1 - E/W bounds
    // the hit rate any cache of any size could reach on this traffic.
    const double w = static_cast<double>(in.samples);
    d.repeatFraction =
        std::clamp(1.0 - in.estimate / w, 0.0, 1.0);

    const double maxE = static_cast<double>(in.maxEntries);

    if (in.enabled) {
        // A saturated estimator means "more flows than I can count" —
        // treat the estimate as the flow-ratio trip it already is.
        const bool tooManyFlows =
            in.saturated || in.estimate > emcDisableFlowRatio * maxE;
        if (d.repeatFraction < emcDisableRepeatFraction || tooManyFlows)
            d.action = EmcControlDecision::Action::Disable;
        return d;
    }

    // Disabled: re-enable only when the traffic shows enough repeats
    // to be cacheable at all AND the working set (with headroom) fits
    // in the footprint. The estimator keeps measuring while the cache
    // is off, so this needs no probing to discover.
    if (!in.saturated && d.repeatFraction >= emcEnableRepeatFraction &&
        in.estimate * emcEnableHeadroom <= maxE)
        d.action = EmcControlDecision::Action::Enable;
    return d;
}

std::uint64_t
flowIdleTimeoutEpochs(std::uint64_t occupancy, std::uint64_t capacity,
                      std::uint64_t configured)
{
    if (4 * occupancy >= 3 * capacity)
        return std::min<std::uint64_t>(configured, 1);
    return configured;
}

} // namespace halo

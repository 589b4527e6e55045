#include "runtime/emc_controller.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace halo {

namespace {

/** Next power of two >= ceil(x), clamped to [lo, hi] (both pow2). */
std::uint64_t
targetPow2(double x, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t n = lo;
    const double want = std::ceil(std::max(x, 1.0));
    if (want >= static_cast<double>(hi))
        n = hi;
    else
        n = std::max(lo, std::bit_ceil(static_cast<std::uint64_t>(want)));
    return std::min(n, hi);
}

} // namespace

EmcControlDecision
decideEmcPolicy(const EmcPolicyConfig &cfg, const EmcControlInputs &in)
{
    EmcControlDecision d;
    d.throttleShift = in.currentThrottleShift;

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
    const double wanted = in.estimate * cfg.sizeHeadroom;

    if (in.enabled) {
        // A saturated estimator means "more flows than I can count" —
        // treat the estimate as the flow-ratio trip it already is.
        const bool tooManyFlows =
            in.saturated || in.estimate > cfg.disableFlowRatio * maxE;
        if (d.repeatFraction < cfg.disableRepeatFraction ||
            tooManyFlows) {
            d.action = EmcControlDecision::Action::Disable;
            d.throttleShift = 0;
            return d;
        }

        // Right-size the probed range. Growing is cheap (misses warm
        // the larger range); shrinking clears the cache, so it needs
        // the margin to hold a full power-of-two step down.
        const std::uint64_t target =
            targetPow2(wanted, cfg.minEntries, in.maxEntries);
        if (target > in.activeEntries ||
            (target < in.activeEntries &&
             wanted * cfg.shrinkMargin <=
                 static_cast<double>(target))) {
            d.action = EmcControlDecision::Action::Resize;
            d.targetEntries = target;
        }

        // Promotion throttle: once the cache is occupied past the
        // threshold, admit promotions in inverse proportion to how
        // oversubscribed the active range is. An undersubscribed full
        // cache (steady state, working set fits) still admits 1-in-2 so
        // churn can't evict the resident set wholesale.
        const std::uint64_t active =
            d.action == EmcControlDecision::Action::Resize
                ? d.targetEntries
                : in.activeEntries;
        const double occupancy =
            in.activeEntries
                ? static_cast<double>(in.liveEntries) /
                      static_cast<double>(in.activeEntries)
                : 0.0;
        if (occupancy < cfg.throttleOccupancy) {
            d.throttleShift = 0;
        } else {
            const double pressure =
                in.estimate / static_cast<double>(active);
            unsigned shift = 1;
            if (pressure > 1.0)
                shift = 1 + static_cast<unsigned>(
                                std::ceil(std::log2(pressure)));
            d.throttleShift =
                std::min(shift, cfg.maxThrottleShift);
        }
        return d;
    }

    // Disabled: re-enable only when the traffic shows enough repeats
    // to be cacheable at all AND the working set (with headroom) fits
    // in the footprint. The estimator keeps measuring while the cache
    // is off, so this needs no probing to discover.
    if (!in.saturated &&
        d.repeatFraction >= cfg.enableRepeatFraction &&
        wanted <= maxE) {
        d.action = EmcControlDecision::Action::Enable;
        d.targetEntries =
            targetPow2(wanted, cfg.minEntries, in.maxEntries);
        d.throttleShift = 0;
    }
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

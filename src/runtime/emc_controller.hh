/**
 * @file
 * Flow-count-driven EMC policy: the paper's §3.5 hybrid computation
 * mode reborn as a runtime controller (DESIGN.md §16).
 *
 * Each control epoch the revalidator closes the shard's
 * ShardFlowEstimator window and feeds the result through
 * decideEmcPolicy() — a pure function of the window and the cache
 * state, so the policy is unit-testable without threads. Two signals
 * drive it:
 *
 *  - the windowed cardinality estimate E, which measures the *working
 *    set* (a skewed 10M-flow trace still shows a small E per window,
 *    because the window only sees the flows that actually recur);
 *  - the repeat fraction 1 - E/W over W window samples, an upper bound
 *    on any cache's achievable hit rate for that traffic: every packet
 *    beyond the first of a flow is a repeat, and only repeats can hit.
 *
 * Low repeat fraction or a working set far beyond capacity means every
 * EMC probe is a wasted miss plus an insert that evicts something
 * useful — the regime where the paper disables the EMC outright. The
 * controller also right-sizes the probed range (smaller active range =
 * smaller cache footprint) and throttles promotions when the cache is
 * full and oversubscribed.
 */

#ifndef HALO_RUNTIME_EMC_CONTROLLER_HH
#define HALO_RUNTIME_EMC_CONTROLLER_HH

#include <cstdint>

namespace halo {

/** Knobs for the adaptive EMC controller (RuntimeConfig::emcPolicy). */
struct EmcPolicyConfig
{
    /// Master switch: off = the EMC stays a fixed always-on cache with
    /// blind promotion, exactly the pre-adaptive behaviour.
    bool adaptive = false;

    /// Revalidator sweeps per control epoch (policy runs on every
    /// controlIntervalSweeps-th sweep).
    unsigned controlIntervalSweeps = 4;

    /// Estimator sizing: bits per window buffer (power of two) and the
    /// 1-in-2^shift packet sampling rate on the data path.
    std::uint64_t estimatorBits = 1ull << 18;
    unsigned estimatorSampleShift = 1;

    /// Windows with fewer samples than this carry no signal (idle
    /// shard, warm-up): keep the current policy.
    std::uint64_t minWindowSamples = 512;

    /// Disable when the repeat fraction drops below this, or re-enable
    /// once it recovers above the (higher) enable threshold. The gap is
    /// the hysteresis that stops border traffic from flapping.
    double disableRepeatFraction = 0.25;
    double enableRepeatFraction = 0.40;

    /// Disable when the windowed estimate exceeds this multiple of the
    /// EMC's maximum entry count — the working set is so far beyond
    /// capacity that even perfect replacement thrashes.
    double disableFlowRatio = 4.0;

    /// Sizing: the active range targets estimate * sizeHeadroom entries
    /// (next power of two); re-enabling requires the working set to fit
    /// under the same headroom.
    double sizeHeadroom = 2.0;

    /// Shrink only when the target (with this extra margin) still sits
    /// a full power-of-two step below the active range: shrinking
    /// clears the cache, so it must not oscillate on jitter.
    double shrinkMargin = 1.25;

    /// Never resize below this many entries.
    std::uint64_t minEntries = 1024;

    /// Promotion throttling engages above this live/active occupancy.
    double throttleOccupancy = 0.5;
    /// Throttle admits 1-in-2^shift promotions, at most this shift.
    unsigned maxThrottleShift = 6;
};

/** Per-epoch policy inputs: the closed estimator window + cache state. */
struct EmcControlInputs
{
    double estimate = 0.0;        ///< windowed distinct-flow estimate
    std::uint64_t samples = 0;    ///< window sample count
    bool saturated = false;       ///< estimator bit array filled up
    bool enabled = true;          ///< cache currently probed
    std::uint64_t activeEntries = 0;
    std::uint64_t maxEntries = 0;
    std::uint64_t liveEntries = 0;
    unsigned currentThrottleShift = 0;
};

/** What the revalidator should do this epoch. */
struct EmcControlDecision
{
    enum class Action : std::uint8_t
    {
        None,     ///< keep the current state
        Disable,  ///< stop probing; clear so re-enable starts cold
        Enable,   ///< resume probing at targetEntries
        Resize,   ///< stay enabled, re-range to targetEntries
    };

    Action action = Action::None;
    /// Active-entry target for Enable/Resize (power of two).
    std::uint64_t targetEntries = 0;
    /// Promotion throttle to apply from now on (1-in-2^shift).
    unsigned throttleShift = 0;
    /// Repeat fraction the decision was based on (telemetry/tests).
    double repeatFraction = 0.0;
};

/**
 * Pure policy function: no side effects, deterministic in its inputs.
 * @p cfg.adaptive is assumed true (callers gate on it).
 */
EmcControlDecision decideEmcPolicy(const EmcPolicyConfig &cfg,
                                   const EmcControlInputs &in);

/**
 * The revalidator's flow limit (OVS ofproto-dpif-upcall: once
 * n_flows exceeds flow_limit, max_idle drops to 100 ms). Maps a shard's
 * exact-match tuple occupancy to the idle timeout its next sweep ages
 * by: @p configured epochs normally, one epoch — every flow idle for
 * more than one sweep goes — once @p occupancy reaches 3/4 of
 * @p capacity. Pure, like decideEmcPolicy().
 */
std::uint64_t flowIdleTimeoutEpochs(std::uint64_t occupancy,
                                    std::uint64_t capacity,
                                    std::uint64_t configured);

} // namespace halo

#endif // HALO_RUNTIME_EMC_CONTROLLER_HH

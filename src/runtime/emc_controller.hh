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
 * controller makes exactly that one decision: the cache is either off
 * or on over its whole footprint.
 */

#ifndef HALO_RUNTIME_EMC_CONTROLLER_HH
#define HALO_RUNTIME_EMC_CONTROLLER_HH

#include <cstdint>

namespace halo {

/// Bits per flow-estimator window buffer (a power of two).
inline constexpr std::uint64_t emcEstimatorBits = 1ull << 18;

/// Disable when the repeat fraction drops below this; re-enable once it
/// recovers to the (higher) enable threshold. The gap is the hysteresis
/// that stops border traffic from flapping. A short window's repeat
/// fraction underestimates the long-run EMC hit rate (every window pays
/// the working set's first touches), so a higher 0.25/0.40 band flaps
/// on EMC-friendly Zipf traffic whose windowed repeat hovers near 0.3.
/// Hostile traffic (scans, uniform draws over millions of flows) still
/// measures near-zero repeat and disables decisively.
inline constexpr double emcDisableRepeatFraction = 0.15;
inline constexpr double emcEnableRepeatFraction = 0.30;

/// Disable when the windowed estimate exceeds this multiple of the
/// EMC's entry count — the working set is so far beyond capacity that
/// even perfect replacement thrashes.
inline constexpr double emcDisableFlowRatio = 4.0;

/// Re-enable only once the working set, times this headroom, fits in
/// the EMC's entry count.
inline constexpr double emcEnableHeadroom = 2.0;

/** Knobs for the adaptive EMC controller (RuntimeConfig::emcPolicy). */
struct EmcPolicyConfig
{
    /// Master switch: off = the EMC stays a fixed always-on cache with
    /// blind promotion, exactly the pre-adaptive behaviour.
    bool adaptive = false;

    /// Revalidator sweeps per control epoch (policy runs on every
    /// controlIntervalSweeps-th sweep).
    unsigned controlIntervalSweeps = 4;

    /// Estimator's 1-in-2^shift packet sampling rate on the data path.
    unsigned estimatorSampleShift = 1;

    /// Windows with fewer samples than this carry no signal (idle
    /// shard, warm-up): keep the current policy.
    std::uint64_t minWindowSamples = 512;
};

/** Per-epoch policy inputs: the closed estimator window + cache state. */
struct EmcControlInputs
{
    double estimate = 0.0;        ///< windowed distinct-flow estimate
    std::uint64_t samples = 0;    ///< window sample count
    bool saturated = false;       ///< estimator bit array filled up
    bool enabled = true;          ///< cache currently probed
    std::uint64_t maxEntries = 0; ///< the EMC's entry count
};

/** What the revalidator should do this epoch. */
struct EmcControlDecision
{
    enum class Action : std::uint8_t
    {
        None,     ///< keep the current state
        Disable,  ///< stop probing; clear so re-enable starts cold
        Enable,   ///< resume probing over the whole footprint
    };

    Action action = Action::None;
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

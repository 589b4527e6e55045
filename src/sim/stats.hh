/**
 * @file
 * Lightweight statistics framework in the spirit of the gem5 Stats package.
 *
 * Components register named statistics inside a StatGroup; benches and
 * tests read them back by name or via typed references. Everything is
 * header-light and allocation-cheap because stats are bumped on the
 * simulator fast path (every cache access).
 *
 * Threading contract: Counter/Average/Histogram/StatGroup are plain
 * (non-atomic) and deliberately stay that way — each simulated shard is
 * single-threaded, and making every cache-access bump atomic would tax
 * the simulator fast path for nothing. They must only be touched by the
 * thread that owns the shard; in particular StatGroup::counter() can
 * rehash its map, so even concurrent *reads* from another thread are a
 * data race. Cross-thread aggregation (the multi-worker runtime's stats
 * reduction) goes through PublishedCounter below: workers publish with
 * relaxed atomic stores after each batch, and any thread may snapshot
 * the published values at any time without locks.
 */

#ifndef HALO_SIM_STATS_HH
#define HALO_SIM_STATS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace halo {

/** Monotonic event counter. */
class Counter
{
  public:
    void operator++() { ++count; }
    void operator++(int) { ++count; }
    void operator+=(std::uint64_t n) { count += n; }
    std::uint64_t value() const { return count; }
    void reset() { count = 0; }

  private:
    std::uint64_t count = 0;
};

/**
 * Single-writer counter whose value may be read from any thread.
 *
 * The owning thread accumulates with add(); because there is exactly
 * one writer, the update is a plain load+store pair rather than an
 * atomic RMW, so publishing costs no more than a plain increment plus
 * a store on x86. Release store / acquire load (still plain MOVs on
 * x86): a reader that loads this and then another atomic sees the
 * latter at least as new as what preceded the store, which
 * Runtime::snapshot() relies on. Exact reductions happen after join().
 */
class PublishedCounter
{
  public:
    PublishedCounter() = default;
    PublishedCounter(const PublishedCounter &) = delete;
    PublishedCounter &operator=(const PublishedCounter &) = delete;

    /** Owner thread only. */
    void
    add(std::uint64_t n)
    {
        v.store(v.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
    }

    /** Any thread. */
    std::uint64_t value() const { return v.load(std::memory_order_acquire); }

    /**
     * Owner thread only: publish an absolute value. For mirrored
     * counters whose source of truth is a plain writer-owned variable
     * (e.g. a table's item count, which both increments and
     * decrements), set() republishes the current value instead of
     * accumulating deltas.
     */
    void set(std::uint64_t n) { v.store(n, std::memory_order_release); }

    /** Owner thread only, and only while no reader expects
     *  monotonicity (e.g. between runs). */
    void reset() { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v{0};
};

/** Running mean/min/max of a sampled quantity. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++n;
        if (v < minV || n == 1)
            minV = v;
        if (v > maxV || n == 1)
            maxV = v;
    }

    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double min() const { return n ? minV : 0.0; }
    double max() const { return n ? maxV : 0.0; }
    std::uint64_t samples() const { return n; }
    double total() const { return sum; }

    void
    reset()
    {
        sum = 0;
        n = 0;
        minV = 0;
        maxV = 0;
    }

  private:
    double sum = 0.0;
    double minV = 0.0;
    double maxV = 0.0;
    std::uint64_t n = 0;
};

/**
 * Fixed-bucket histogram over [lo, hi); out-of-range samples land in
 * saturating underflow/overflow buckets.
 *
 * Saturation semantics: a sample below @p lo is counted in the
 * underflow bucket and thereafter *behaves as if its value were
 * exactly lo*; a sample at or above @p hi is counted in the overflow
 * bucket and behaves as if it were hi. In particular percentile()
 * returns lo for any rank that falls into the underflow mass and hi
 * for any rank in the overflow mass — the true magnitude of
 * out-of-range samples is not retained. Size the [lo, hi) range to
 * cover the distribution if the tails matter (or use
 * obs::HdrHistogram, which covers the full uint64 range).
 */
class Histogram
{
  public:
    Histogram() : Histogram(0.0, 1.0, 1) {}

    Histogram(double lo, double hi, unsigned buckets)
        : low(lo), high(hi), counts(buckets, 0)
    {
        HALO_ASSERT(buckets > 0 && hi > lo);
    }

    void
    sample(double v)
    {
        ++total_;
        if (v < low) {
            ++underflow_;
            return;
        }
        if (v >= high) {
            ++overflow_;
            return;
        }
        const double frac = (v - low) / (high - low);
        auto idx = static_cast<std::size_t>(frac * counts.size());
        if (idx >= counts.size())
            idx = counts.size() - 1;
        ++counts[idx];
    }

    std::uint64_t bucket(std::size_t i) const { return counts.at(i); }
    std::size_t buckets() const { return counts.size(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }

    /**
     * Value at quantile @p q in [0, 1], linearly interpolated within
     * the containing bucket. Underflow/overflow ranks saturate to lo
     * and hi respectively (see the class comment); an empty histogram
     * returns lo.
     */
    double
    percentile(double q) const
    {
        if (total_ == 0)
            return low;
        if (q < 0.0)
            q = 0.0;
        if (q > 1.0)
            q = 1.0;
        // 1-based rank of the q-th sample: ceil(q * total).
        const double exact = q * static_cast<double>(total_);
        std::uint64_t rank = static_cast<std::uint64_t>(exact);
        if (static_cast<double>(rank) < exact)
            ++rank;
        if (rank == 0)
            rank = 1;

        if (rank <= underflow_)
            return low; // saturated below the range
        std::uint64_t cum = underflow_;
        const double width =
            (high - low) / static_cast<double>(counts.size());
        for (std::size_t i = 0; i < counts.size(); ++i) {
            const std::uint64_t c = counts[i];
            if (c == 0)
                continue;
            if (cum + c >= rank) {
                const double frac =
                    (static_cast<double>(rank - cum) - 0.5) /
                    static_cast<double>(c);
                return low + (static_cast<double>(i) + frac) * width;
            }
            cum += c;
        }
        return high; // saturated above the range
    }

  private:
    double low;
    double high;
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * A named collection of statistics owned by a simulated component.
 *
 * Unlike gem5 we keep ownership in the group itself (components hold
 * references), which keeps reset/dump logic in one place.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string group_name) : name_(std::move(group_name))
    {
    }

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register (or fetch) a counter called @p stat_name. */
    Counter &
    counter(const std::string &stat_name)
    {
        return counters_[stat_name];
    }

    /** Register (or fetch) a running average called @p stat_name. */
    Average &
    average(const std::string &stat_name)
    {
        return averages_[stat_name];
    }

    /** Read a counter; panics if it was never registered. */
    std::uint64_t
    counterValue(const std::string &stat_name) const
    {
        auto it = counters_.find(stat_name);
        HALO_ASSERT(it != counters_.end(), "no counter ", stat_name);
        return it->second.value();
    }

    /** True when a counter with this name exists. */
    bool
    hasCounter(const std::string &stat_name) const
    {
        return counters_.count(stat_name) != 0;
    }

    /** @name Enumeration (metric exposition, dumps)
     *  Visits statistics in name order. Only from the owning thread,
     *  or after it has quiesced (see the file threading contract). */
    /**@{*/
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        for (const auto &kv : counters_)
            fn(kv.first, kv.second);
    }

    template <typename Fn>
    void
    forEachAverage(Fn &&fn) const
    {
        for (const auto &kv : averages_)
            fn(kv.first, kv.second);
    }
    /**@}*/

    /** Reset every statistic in the group. */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second.reset();
        for (auto &kv : averages_)
            kv.second.reset();
    }

    /** Render all stats as "group.stat value" lines. */
    std::string dump() const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
};

} // namespace halo

#endif // HALO_SIM_STATS_HH

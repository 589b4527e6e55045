/**
 * @file
 * One namespace for every runtime metric, with Prometheus exposition.
 *
 * The repo grew three disjoint metric families: StatGroup counters on
 * the simulated components (caches, accelerator), PublishedCounters on
 * the host runtime (workers publish, any thread snapshots), and ad-hoc
 * doubles computed by the benches. MetricsRegistry unifies them behind
 * one name+labels namespace:
 *
 *   MetricsRegistry reg;
 *   reg.gauge("halo_worker_cpu_pps", {{"worker", "0"}}, 1.2e6);
 *   reg.attachCounter("halo_rt_processed", {}, processed_);  // live
 *   reg.addStatGroup(shard.hierarchy().stats(), {{"worker", "0"}});
 *   reg.writePrometheus(out);
 *
 * Attached sources are sampled at render time (PublishedCounter reads
 * are relaxed atomics, so rendering while the dataplane runs is safe
 * under the documented stats threading contract); plain set values are
 * snapshots. Exposition follows the Prometheus text format: families
 * sorted by name, one # TYPE line per family, label values escaped.
 * Metric names are sanitized ([a-zA-Z0-9_:], everything else -> '_').
 *
 * Threading contract: the registry itself is built and rendered from
 * one thread (benches, post-run reductions); only the *attached
 * sources* may be written concurrently by their owners.
 */

#ifndef HALO_OBS_METRICS_HH
#define HALO_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace halo::obs {

/** Label set, e.g. {{"worker", "3"}}. Order is preserved. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind
{
    Counter, ///< monotonic
    Gauge,   ///< instantaneous
};

class MetricsRegistry
{
  public:
    /** Record a point-in-time counter value. */
    void counter(const std::string &name, MetricLabels labels,
                 double value_now);

    /** Record a point-in-time gauge value. */
    void gauge(const std::string &name, MetricLabels labels,
               double value_now);

    /** Attach a live source sampled at render time. */
    void attach(const std::string &name, MetricLabels labels,
                MetricKind kind, std::function<double()> source);

    /** Attach a PublishedCounter (atomic read at render). The
     *  counter must outlive the registry. */
    void attachCounter(const std::string &name, MetricLabels labels,
                       const PublishedCounter &published);

    /**
     * Mirror every counter and average of @p group under
     * "<prefix><group-name>_<stat>" with @p labels. Values are read at
     * render time; per the stats threading contract the group's owner
     * thread must have quiesced by then. The group must outlive the
     * registry.
     */
    void addStatGroup(const StatGroup &group, MetricLabels labels,
                      const std::string &prefix = "halo_");

    /** Prometheus text exposition (0.0.4): families sorted by name. */
    void writePrometheus(std::ostream &os) const;
    std::string renderPrometheus() const;

    std::size_t size() const { return metrics_.size(); }

  private:
    struct Metric
    {
        std::string name; ///< sanitized
        MetricLabels labels;
        MetricKind kind;
        double value = 0.0;
        std::function<double()> source; ///< overrides value when set
    };

    void add(const std::string &name, MetricLabels labels,
             MetricKind kind, double value,
             std::function<double()> source);

    std::vector<Metric> metrics_;
};

} // namespace halo::obs

#endif // HALO_OBS_METRICS_HH

/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * fixed-bucket histograms.
 *
 * The registry is the always-on half of the observability layer (the
 * run-telemetry recorder in obs/telemetry.hh is the opt-in half).
 * Long-lived subsystems — the LambdaLut cache, the RSU pipeline, the
 * thread pool, the Gibbs solvers — register metrics by name once and
 * update them as they run, so any entry point (tests, benches, the
 * quality gate) can dump a consistent snapshot without wiring every
 * component to every sink.
 *
 * Concurrency contract: add()/set()/observe() lock the registry
 * mutex and are meant for cold paths (a temperature change, a
 * pipeline run boundary, a sweep join).  Hot loops count into plain
 * tallies of their own and add the sums once: the Gibbs solvers'
 * stripes count into per-stripe tallies that the sweep join sums
 * (mrf/solver_telemetry.hh).
 */

#ifndef RETSIM_OBS_METRICS_HH
#define RETSIM_OBS_METRICS_HH

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace retsim {
namespace obs {

enum class MetricKind { Counter, Gauge, Histogram };

/** Opaque handle to a registered metric; cheap to copy and store. */
struct MetricId
{
    std::uint32_t index = std::numeric_limits<std::uint32_t>::max();

    bool valid() const
    {
        return index != std::numeric_limits<std::uint32_t>::max();
    }
};

/**
 * Fixed-bucket histogram state: counts[i] holds observations with
 * value <= bounds[i]; the final slot is the overflow bucket.
 */
struct HistogramData
{
    std::vector<double> bounds;        ///< ascending upper bounds
    std::vector<std::uint64_t> counts; ///< size bounds.size() + 1
    double sum = 0.0;
    std::uint64_t count = 0;

    explicit HistogramData(std::vector<double> upper_bounds = {});

    void observe(double value);
    /** Sum another histogram with identical bounds into this one. */
    void merge(const HistogramData &other);
};

/** Point-in-time copy of one metric, for reporting sinks. */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counter = 0; ///< Counter kinds
    double gauge = 0.0;        ///< Gauge kinds
    HistogramData histogram;   ///< Histogram kinds
};

class Registry
{
  public:
    /** The process-wide instance the subsystems register with. */
    static Registry &global();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Register-or-look-up a metric.  Re-registering an existing name
     * with the same kind returns the original handle; a kind mismatch
     * is an internal error.
     */
    MetricId counter(const std::string &name);
    MetricId gauge(const std::string &name);
    MetricId histogram(const std::string &name,
                       std::vector<double> upper_bounds);

    // Cold-path direct updates (mutex-protected).
    void add(MetricId id, std::uint64_t delta = 1);
    void set(MetricId id, double value);
    void observe(MetricId id, double value);

    std::uint64_t counterValue(MetricId id) const;
    double gaugeValue(MetricId id) const;

    std::vector<MetricSnapshot> snapshot() const;

    /** Registry snapshot as a JSON object string. */
    std::string toJson() const;

    /**
     * Merge a delta produced by diffSnapshots() into this registry:
     * counters add, histograms register-and-merge (bounds must match
     * any existing registration), gauges are skipped (last-write
     * values have no meaningful cross-process merge).  Metrics the
     * delta names but this registry has not seen yet are registered
     * on the fly, so a worker process can fold back metrics the
     * parent never touched.  Together with diffSnapshots this is how
     * a worker process's metrics reach its coordinator: plain sums,
     * so any process decomposition yields exactly the totals of a
     * serial run.
     */
    void applyDelta(const std::vector<MetricSnapshot> &delta);

    /** Zero every value; registrations (names, bounds) survive. */
    void reset();

    std::size_t size() const;

  private:
    struct Metric
    {
        std::string name;
        MetricKind kind;
        std::uint64_t counter = 0;
        double gauge = 0.0;
        HistogramData histogram;
    };

    MetricId registerMetric(const std::string &name, MetricKind kind,
                            std::vector<double> bounds);

    mutable std::mutex mutex_;
    std::vector<Metric> metrics_;
};

/**
 * Per-metric difference @p after - @p before, for shipping a worker
 * process's metric activity back to a coordinator.  @p before must be
 * a prefix of @p after in registration order (the worker only ever
 * appends registrations), histogram bounds must match, and entries
 * with no activity are dropped.  Gauges are carried verbatim from
 * @p after but ignored by applyDelta().
 */
std::vector<MetricSnapshot>
diffSnapshots(const std::vector<MetricSnapshot> &before,
              const std::vector<MetricSnapshot> &after);

} // namespace obs
} // namespace retsim

#endif // RETSIM_OBS_METRICS_HH

#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace retsim {
namespace obs {

// ------------------------------------------------------------------
// HistogramData

HistogramData::HistogramData(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), counts(bounds.size() + 1, 0)
{
    RETSIM_ASSERT(std::is_sorted(bounds.begin(), bounds.end()),
                  "histogram bounds must be ascending");
}

void
HistogramData::observe(double value)
{
    // Bucket i holds values <= bounds[i]; anything above every bound
    // lands in the trailing overflow slot.
    std::size_t b = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
    ++counts[b];
    sum += value;
    ++count;
}

void
HistogramData::merge(const HistogramData &other)
{
    RETSIM_ASSERT(bounds == other.bounds,
                  "merging histograms with different bucket layouts");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    sum += other.sum;
    count += other.count;
}

// ------------------------------------------------------------------
// Registry

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

MetricId
Registry::registerMetric(const std::string &name, MetricKind kind,
                         std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].name == name) {
            RETSIM_ASSERT(metrics_[i].kind == kind,
                          "metric '", name,
                          "' re-registered with a different kind");
            return MetricId{i};
        }
    }
    Metric m;
    m.name = name;
    m.kind = kind;
    m.histogram = HistogramData(std::move(bounds));
    metrics_.push_back(std::move(m));
    return MetricId{static_cast<std::uint32_t>(metrics_.size() - 1)};
}

MetricId
Registry::counter(const std::string &name)
{
    return registerMetric(name, MetricKind::Counter, {});
}

MetricId
Registry::gauge(const std::string &name)
{
    return registerMetric(name, MetricKind::Gauge, {});
}

MetricId
Registry::histogram(const std::string &name,
                    std::vector<double> upper_bounds)
{
    return registerMetric(name, MetricKind::Histogram,
                          std::move(upper_bounds));
}

void
Registry::add(MetricId id, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Counter,
                  "add() needs a registered counter");
    metrics_[id.index].counter += delta;
}

void
Registry::set(MetricId id, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Gauge,
                  "set() needs a registered gauge");
    metrics_[id.index].gauge = value;
}

void
Registry::observe(MetricId id, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Histogram,
                  "observe() needs a registered histogram");
    metrics_[id.index].histogram.observe(value);
}

std::uint64_t
Registry::counterValue(MetricId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Counter,
                  "counterValue() needs a registered counter");
    return metrics_[id.index].counter;
}

double
Registry::gaugeValue(MetricId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RETSIM_ASSERT(id.index < metrics_.size() &&
                      metrics_[id.index].kind == MetricKind::Gauge,
                  "gaugeValue() needs a registered gauge");
    return metrics_[id.index].gauge;
}

std::vector<MetricSnapshot>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSnapshot> out;
    out.reserve(metrics_.size());
    for (const Metric &m : metrics_) {
        MetricSnapshot s;
        s.name = m.name;
        s.kind = m.kind;
        s.counter = m.counter;
        s.gauge = m.gauge;
        s.histogram = m.histogram;
        out.push_back(std::move(s));
    }
    return out;
}

namespace {

void
appendJsonNumber(std::ostringstream &oss, double v)
{
    if (std::isfinite(v)) {
        oss << v;
    } else {
        // JSON has no inf/nan literals; clamp to null.
        oss << "null";
    }
}

} // namespace

std::string
Registry::toJson() const
{
    std::vector<MetricSnapshot> snap = snapshot();
    std::ostringstream oss;
    oss.precision(17);
    oss << "{\"counters\":{";
    bool first = true;
    for (const MetricSnapshot &m : snap) {
        if (m.kind != MetricKind::Counter)
            continue;
        oss << (first ? "" : ",") << '"' << m.name << "\":"
            << m.counter;
        first = false;
    }
    oss << "},\"gauges\":{";
    first = true;
    for (const MetricSnapshot &m : snap) {
        if (m.kind != MetricKind::Gauge)
            continue;
        oss << (first ? "" : ",") << '"' << m.name << "\":";
        appendJsonNumber(oss, m.gauge);
        first = false;
    }
    oss << "},\"histograms\":{";
    first = true;
    for (const MetricSnapshot &m : snap) {
        if (m.kind != MetricKind::Histogram)
            continue;
        oss << (first ? "" : ",") << '"' << m.name
            << "\":{\"bounds\":[";
        for (std::size_t i = 0; i < m.histogram.bounds.size(); ++i) {
            if (i)
                oss << ',';
            appendJsonNumber(oss, m.histogram.bounds[i]);
        }
        oss << "],\"counts\":[";
        for (std::size_t i = 0; i < m.histogram.counts.size(); ++i) {
            if (i)
                oss << ',';
            oss << m.histogram.counts[i];
        }
        oss << "],\"sum\":";
        appendJsonNumber(oss, m.histogram.sum);
        oss << ",\"count\":" << m.histogram.count << '}';
        first = false;
    }
    oss << "}}";
    return oss.str();
}

void
Registry::applyDelta(const std::vector<MetricSnapshot> &delta)
{
    for (const MetricSnapshot &m : delta) {
        switch (m.kind) {
        case MetricKind::Counter:
            add(counter(m.name), m.counter);
            break;
        case MetricKind::Histogram: {
            MetricId id = histogram(m.name, m.histogram.bounds);
            std::lock_guard<std::mutex> lock(mutex_);
            metrics_[id.index].histogram.merge(m.histogram);
            break;
        }
        case MetricKind::Gauge:
            // Last-write values: a remote worker's gauge has no
            // meaningful merge with the coordinator's.
            break;
        }
    }
}

std::vector<MetricSnapshot>
diffSnapshots(const std::vector<MetricSnapshot> &before,
              const std::vector<MetricSnapshot> &after)
{
    RETSIM_ASSERT(before.size() <= after.size(),
                  "diffSnapshots: 'after' lost registrations");
    std::vector<MetricSnapshot> out;
    for (std::size_t i = 0; i < after.size(); ++i) {
        MetricSnapshot d = after[i];
        if (i < before.size()) {
            RETSIM_ASSERT(before[i].name == d.name &&
                              before[i].kind == d.kind,
                          "diffSnapshots: snapshots diverge at '",
                          d.name, "'");
            switch (d.kind) {
            case MetricKind::Counter:
                RETSIM_ASSERT(before[i].counter <= d.counter,
                              "diffSnapshots: counter '", d.name,
                              "' went backwards");
                d.counter -= before[i].counter;
                break;
            case MetricKind::Histogram: {
                const HistogramData &b = before[i].histogram;
                RETSIM_ASSERT(b.bounds == d.histogram.bounds,
                              "diffSnapshots: histogram '", d.name,
                              "' changed bucket layout");
                for (std::size_t j = 0; j < d.histogram.counts.size();
                     ++j)
                    d.histogram.counts[j] -= b.counts[j];
                d.histogram.sum -= b.sum;
                d.histogram.count -= b.count;
                break;
            }
            case MetricKind::Gauge:
                break;
            }
        }
        const bool active =
            (d.kind == MetricKind::Counter && d.counter != 0) ||
            (d.kind == MetricKind::Histogram &&
             d.histogram.count != 0);
        if (active)
            out.push_back(std::move(d));
    }
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Metric &m : metrics_) {
        m.counter = 0;
        m.gauge = 0.0;
        m.histogram = HistogramData(m.histogram.bounds);
    }
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size();
}

} // namespace obs
} // namespace retsim

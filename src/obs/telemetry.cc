#include "obs/telemetry.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace retsim {
namespace obs {

namespace {

/** Minimal JSON string escaping for names and annotations. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendNumber(std::ostringstream &oss, double v)
{
    if (std::isfinite(v))
        oss << v;
    else
        oss << "null"; // JSON has no inf/nan literals
}

} // namespace

TelemetryRecorder::TelemetryRecorder(std::string run_label)
    : runLabel_(std::move(run_label))
{
}

void
TelemetryRecorder::record(const std::string &stream,
                          std::initializer_list<Field> fields)
{
    record(stream, std::vector<Field>(fields));
}

void
TelemetryRecorder::record(const std::string &stream,
                          std::vector<Field> fields)
{
    std::lock_guard<std::mutex> lock(mutex_);
    streams_[stream].push_back(Record{std::move(fields)});
}

void
TelemetryRecorder::annotate(const std::string &key,
                            const std::string &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    annotations_.emplace_back(key, value);
}

std::size_t
TelemetryRecorder::recordCount(const std::string &stream) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(stream);
    return it == streams_.end() ? 0 : it->second.size();
}

std::vector<std::string>
TelemetryRecorder::streamNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(streams_.size());
    for (const auto &[name, records] : streams_)
        names.push_back(name);
    return names;
}

double
TelemetryRecorder::lastValue(const std::string &stream,
                             const std::string &field) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(stream);
    if (it != streams_.end()) {
        for (auto r = it->second.rbegin(); r != it->second.rend();
             ++r) {
            for (const Field &f : r->fields) {
                if (f.name == field)
                    return f.value;
            }
        }
    }
    return std::numeric_limits<double>::quiet_NaN();
}

std::string
TelemetryRecorder::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream oss;
    oss.precision(17);
    oss << "{\"run\":\"" << jsonEscape(runLabel_) << "\",\"meta\":{";
    for (std::size_t i = 0; i < annotations_.size(); ++i) {
        if (i)
            oss << ',';
        oss << '"' << jsonEscape(annotations_[i].first) << "\":\""
            << jsonEscape(annotations_[i].second) << '"';
    }
    oss << "},\"streams\":{";
    bool first_stream = true;
    for (const auto &[name, records] : streams_) {
        if (!first_stream)
            oss << ',';
        first_stream = false;
        oss << '"' << jsonEscape(name) << "\":[";
        for (std::size_t r = 0; r < records.size(); ++r) {
            if (r)
                oss << ',';
            oss << '{';
            const std::vector<Field> &fields = records[r].fields;
            for (std::size_t f = 0; f < fields.size(); ++f) {
                if (f)
                    oss << ',';
                oss << '"' << jsonEscape(fields[f].name) << "\":";
                appendNumber(oss, fields[f].value);
            }
            oss << '}';
        }
        oss << ']';
    }
    oss << "},\"metrics\":" << Registry::global().toJson() << '}';
    return oss.str();
}

std::string
TelemetryRecorder::toCsv() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream oss;
    oss.precision(17);
    oss << "stream,record,field,value\n";
    for (const auto &[name, records] : streams_) {
        for (std::size_t r = 0; r < records.size(); ++r) {
            for (const Field &f : records[r].fields) {
                oss << name << ',' << r << ',' << f.name << ','
                    << f.value << '\n';
            }
        }
    }
    return oss.str();
}

bool
TelemetryRecorder::writeTo(const std::string &path) const
{
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    std::ofstream out(path);
    if (!out) {
        RETSIM_WARN("cannot open telemetry sink '", path, "'");
        return false;
    }
    out << (csv ? toCsv() : toJson());
    if (!csv)
        out << '\n';
    out.flush();
    if (!out) {
        RETSIM_WARN("short write to telemetry sink '", path, "'");
        return false;
    }
    return true;
}

// ------------------------------------------------------------------
// TelemetryScope

TelemetryScope::TelemetryScope(std::string path, std::string run_label)
    : path_(std::move(path)),
      recorder_(std::make_unique<TelemetryRecorder>(
          std::move(run_label)))
{
    setActiveRecorder(recorder_.get());
}

TelemetryScope::~TelemetryScope()
{
    finish();
}

void
TelemetryScope::finish()
{
    if (!recorder_)
        return;
    if (activeRecorder() == recorder_.get())
        setActiveRecorder(nullptr);
    if (!path_.empty())
        recorder_->writeTo(path_);
    recorder_.reset();
}

} // namespace obs
} // namespace retsim

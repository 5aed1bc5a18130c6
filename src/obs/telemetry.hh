/**
 * @file
 * Run-telemetry recorder: time-ordered streams of named numeric
 * records with JSON and CSV sinks.
 *
 * Where the metrics registry (obs/metrics.hh) keeps cumulative
 * process-wide totals, the recorder captures *trajectories*: one
 * record per solver sweep (energy, temperature, acceptance /
 * tie / no-sample rates, LambdaLut cache traffic), one per pipeline
 * run (FIFO occupancy, stalls), one per application outer iteration
 * (BP% / PSNR / EPE / segmentation quality) — the per-sweep
 * instrumentation MRF-accelerator studies use to watch convergence,
 * not just the final number.
 *
 * Overhead policy: every instrumentation site is guarded by
 * activeRecorder(), an inline relaxed atomic load that returns
 * nullptr unless a TelemetryScope is live.  Compiling with
 * RETSIM_DISABLE_TELEMETRY pins activeRecorder() to a constexpr
 * nullptr so the guarded blocks — including their argument
 * evaluation — fold away entirely; either way the sampler hot loops
 * carry no telemetry code, because recording happens at sweep / run
 * granularity only.  The striped solver's output is unaffected:
 * telemetry reads state, never touches RNG streams.
 */

#ifndef RETSIM_OBS_TELEMETRY_HH
#define RETSIM_OBS_TELEMETRY_HH

#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace retsim {
namespace obs {

/** One named value of a telemetry record. */
struct Field
{
    std::string name;
    double value = 0.0;
};

class TelemetryRecorder
{
  public:
    explicit TelemetryRecorder(std::string run_label = "run");

    /** Append one record to @p stream (creating the stream). */
    void record(const std::string &stream,
                std::initializer_list<Field> fields);
    void record(const std::string &stream, std::vector<Field> fields);

    /** Attach a free-form metadata string to the run. */
    void annotate(const std::string &key, const std::string &value);

    const std::string &runLabel() const { return runLabel_; }

    std::size_t recordCount(const std::string &stream) const;
    std::vector<std::string> streamNames() const;

    /** Last value of @p field in @p stream; NaN when absent. */
    double lastValue(const std::string &stream,
                     const std::string &field) const;

    /**
     * Whole run as a JSON object: run label, annotations, every
     * stream's records, and a snapshot of the global metrics
     * registry.
     */
    std::string toJson() const;

    /**
     * Whole run as tidy (long-format) CSV with the header
     * `stream,record,field,value` — one row per field so
     * heterogeneous streams share a single well-formed table.
     */
    std::string toCsv() const;

    /**
     * Serialize to @p path — CSV when the path ends in ".csv", JSON
     * otherwise.  Returns false (with a warning) on I/O failure.
     */
    bool writeTo(const std::string &path) const;

  private:
    struct Record
    {
        std::vector<Field> fields;
    };

    mutable std::mutex mutex_;
    std::string runLabel_;
    std::vector<std::pair<std::string, std::string>> annotations_;
    std::map<std::string, std::vector<Record>> streams_;
};

#ifdef RETSIM_DISABLE_TELEMETRY

/** Telemetry compiled out: the guard folds to `if (nullptr)`. */
constexpr TelemetryRecorder *
activeRecorder()
{
    return nullptr;
}

inline void
setActiveRecorder(TelemetryRecorder *)
{
}

#else

namespace detail {
inline std::atomic<TelemetryRecorder *> g_activeRecorder{nullptr};
} // namespace detail

/** The recorder instrumentation sites feed, or nullptr when off. */
inline TelemetryRecorder *
activeRecorder()
{
    return detail::g_activeRecorder.load(std::memory_order_acquire);
}

/** Install (or with nullptr, remove) the process-wide recorder. */
inline void
setActiveRecorder(TelemetryRecorder *recorder)
{
    detail::g_activeRecorder.store(recorder, std::memory_order_release);
}

#endif // RETSIM_DISABLE_TELEMETRY

/**
 * RAII activation of run telemetry: constructs a recorder, installs
 * it as the process-wide active recorder, and on destruction
 * uninstalls it and writes the sink file.  A default-constructed
 * scope is inert, so callers can unconditionally hold one and let
 * a CLI flag decide whether it does anything.
 */
class TelemetryScope
{
  public:
    TelemetryScope() = default;
    TelemetryScope(std::string path, std::string run_label);
    ~TelemetryScope();

    TelemetryScope(TelemetryScope &&) = delete;
    TelemetryScope &operator=(TelemetryScope &&) = delete;

    bool active() const { return recorder_ != nullptr; }
    TelemetryRecorder *recorder() { return recorder_.get(); }

  private:
    void finish();

    std::string path_;
    std::unique_ptr<TelemetryRecorder> recorder_;
};

} // namespace obs
} // namespace retsim

#endif // RETSIM_OBS_TELEMETRY_HH

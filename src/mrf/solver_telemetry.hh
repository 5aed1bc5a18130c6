/**
 * @file
 * Internal per-sweep counting glue shared by the Gibbs solvers.
 *
 * Every solver counts into one plain tally, StripeCounters: each
 * stripe (or the raster loop) adds its pixel updates, label changes
 * and energy-cache traffic to its own, the sweep join sums them (in
 * process for the striped solver, from the JOIN frames for the
 * sharded one), and SolverRun::endSweep hands the sum to the trace,
 * the registry (SolverMetricIds) and SweepTelemetry, which emits one
 * record per sweep: energy, temperature, those counts, the
 * acceptance / tie / no-sample rates (the tie and no-sample counts
 * differenced from the samplers' cumulative SamplerStats) and the
 * LambdaLut cache traffic observed during the sweep (differenced
 * from the process-wide registry counters the cache maintains — the
 * mrf layer never includes core headers, the coupling is by metric
 * name only).  Records are gated on obs::activeRecorder(): with no
 * recorder installed the helper is a null pointer check per sweep.
 */

#ifndef RETSIM_MRF_SOLVER_TELEMETRY_HH
#define RETSIM_MRF_SOLVER_TELEMETRY_HH

#include <cstdint>
#include <string>

#include "mrf/problem.hh"
#include "mrf/sampler.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace retsim {
namespace mrf {
namespace detail {

/** Registry handles the solvers update; registered once. */
struct SolverMetricIds
{
    obs::MetricId runs;
    obs::MetricId sweeps;
    obs::MetricId pixelUpdates;
    obs::MetricId labelChanges;
    obs::MetricId lutHits;   ///< maintained by core::LambdaLutCache
    obs::MetricId lutMisses; ///< maintained by core::LambdaLutCache
    obs::MetricId cacheHits;          ///< energy planes served clean
    obs::MetricId cacheRecomputed;    ///< energy planes recomputed
    obs::MetricId cacheInvalidations; ///< dirty marks written

    static const SolverMetricIds &get()
    {
        static const SolverMetricIds ids = [] {
            obs::Registry &r = obs::Registry::global();
            return SolverMetricIds{
                r.counter("mrf.solver.runs"),
                r.counter("mrf.solver.sweeps"),
                r.counter("mrf.solver.pixel_updates"),
                r.counter("mrf.solver.label_changes"),
                r.counter("core.lambda_lut.hits"),
                r.counter("core.lambda_lut.misses"),
                r.counter("mrf.energy_cache.clean_hits"),
                r.counter("mrf.energy_cache.recomputed"),
                r.counter("mrf.energy_cache.invalidations"),
            };
        }();
        return ids;
    }
};

/**
 * What a stripe, a rank or a sweep counted: the one tally every solver
 * counts into.  Each stripe owns one, so no two threads write the same
 * tally; the sweep join sums them.
 */
struct StripeCounters
{
    std::uint64_t pixelUpdates = 0;
    std::uint64_t labelChanges = 0;
    std::uint64_t cacheHits = 0;          ///< energy planes served clean
    std::uint64_t cacheRecomputed = 0;    ///< energy planes recomputed
    std::uint64_t cacheInvalidations = 0; ///< dirty marks written

    StripeCounters &
    operator+=(const StripeCounters &o)
    {
        pixelUpdates += o.pixelUpdates;
        labelChanges += o.labelChanges;
        cacheHits += o.cacheHits;
        cacheRecomputed += o.cacheRecomputed;
        cacheInvalidations += o.cacheInvalidations;
        return *this;
    }
};

/**
 * One instance per solver run: emits one record per sweep, differencing
 * the cumulative sampler stats and LambdaLut counters from the
 * baselines start() takes.
 */
class SweepTelemetry
{
  public:
    /** @p energyCache: the run keeps an energy-plane cache, so its
     *  records carry the energy_cache_* fields. */
    SweepTelemetry(const MrfProblem &problem, const char *solver_kind,
                   bool energyCache)
        : rec_(obs::activeRecorder()), energyCache_(energyCache)
    {
        if (rec_)
            stream_ = std::string("sweep.") + problem.name() + '.' +
                      solver_kind;
    }

    /** A recorder is installed; per-sweep bookkeeping is worth it. */
    bool active() const { return rec_ != nullptr; }

    /**
     * Take the baselines: @p cum, the samplers' cumulative stats once
     * a resume has restored every one of them, and the LambdaLut
     * counters.
     */
    void
    start(const SamplerStats &cum)
    {
        if (!rec_)
            return;
        const SolverMetricIds &ids = SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        lastStats_ = cum;
        lastLutHits_ = reg.counterValue(ids.lutHits);
        lastLutMisses_ = reg.counterValue(ids.lutMisses);
    }

    /**
     * Emit the record for one completed sweep: @p counts is the
     * sweep's tally; @p cum the samplers' cumulative stats (the
     * caller's sampler and every stripe clone).
     */
    void
    recordSweep(int sweep, double temperature, double energy,
                const StripeCounters &counts, const SamplerStats &cum)
    {
        if (!rec_)
            return;
        const SolverMetricIds &ids = SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        SamplerStats d = cum - lastStats_;
        lastStats_ = cum;
        std::uint64_t lut_hits = reg.counterValue(ids.lutHits);
        std::uint64_t lut_misses = reg.counterValue(ids.lutMisses);
        std::uint64_t d_hits = lut_hits - lastLutHits_;
        std::uint64_t d_misses = lut_misses - lastLutMisses_;
        lastLutHits_ = lut_hits;
        lastLutMisses_ = lut_misses;

        double den = counts.pixelUpdates > 0
                         ? static_cast<double>(counts.pixelUpdates)
                         : 1.0;
        double sden =
            d.samples > 0 ? static_cast<double>(d.samples) : 1.0;
        std::vector<obs::Field> fields{
            {"sweep", static_cast<double>(sweep)},
            {"temperature", temperature},
            {"energy", energy},
            {"pixel_updates", static_cast<double>(counts.pixelUpdates)},
            {"label_changes", static_cast<double>(counts.labelChanges)},
            {"accept_rate",
             static_cast<double>(counts.labelChanges) / den},
            {"no_sample_rate", static_cast<double>(d.noSample) / sden},
            {"tie_rate", static_cast<double>(d.ties) / sden},
            {"lut_hits", static_cast<double>(d_hits)},
            {"lut_misses", static_cast<double>(d_misses)}};
        if (energyCache_) {
            // Hit rate over the planes served this sweep.
            const std::uint64_t served =
                counts.cacheHits + counts.cacheRecomputed;
            fields.push_back({"energy_cache_hits",
                              static_cast<double>(counts.cacheHits)});
            fields.push_back(
                {"energy_cache_recomputed",
                 static_cast<double>(counts.cacheRecomputed)});
            fields.push_back(
                {"energy_cache_invalidations",
                 static_cast<double>(counts.cacheInvalidations)});
            fields.push_back(
                {"energy_cache_hit_rate",
                 served > 0 ? static_cast<double>(counts.cacheHits) /
                                  static_cast<double>(served)
                            : 0.0});
        }
        rec_->record(stream_, fields);
    }

  private:
    obs::TelemetryRecorder *rec_ = nullptr;
    bool energyCache_;
    std::string stream_;
    SamplerStats lastStats_;
    std::uint64_t lastLutHits_ = 0;
    std::uint64_t lastLutMisses_ = 0;
};

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_SOLVER_TELEMETRY_HH

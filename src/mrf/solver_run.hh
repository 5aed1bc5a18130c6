/**
 * @file
 * The run scaffold the Gibbs solvers share.
 *
 * GibbsSolver, CheckerboardGibbsSolver and
 * shard::ShardedCheckerboardSolver differ in how they sweep, not in
 * what surrounds the sweep loop: the argument checks, the trace and
 * telemetry choice, resume or label initialization, the per-sweep
 * tail (trace, telemetry, observer, checkpoint) and the run-end
 * counters.  SolverRun holds that once, so every solver checks the
 * same things and a snapshot one chromatic solver writes is the one
 * the other resumes, field for field.
 *
 * Nothing in this header is public API.
 */

#ifndef RETSIM_MRF_SOLVER_RUN_HH
#define RETSIM_MRF_SOLVER_RUN_HH

#include <cstdint>

#include "img/image.hh"
#include "mrf/checkpoint.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"
#include "mrf/solver_telemetry.hh"
#include "obs/metrics.hh"
#include "rng/rng.hh"
#include "util/logging.hh"

namespace retsim {
namespace mrf {
namespace detail {

/** Trace counters of one stripe or one sweep. */
struct StripeCounters
{
    std::uint64_t pixelUpdates = 0;
    std::uint64_t labelChanges = 0;
};

class SolverRun
{
  public:
    /**
     * The prologue.  Checks the label map and the checkpoint
     * destination; picks the trace (the caller's, else a run-local
     * one when telemetry or checkpointing needs it, else none, which
     * keeps the counting out of the pixel loops); then resumes from
     * config.resume or initializes @p labels (random draws, or a range
     * check of the caller's).  @p kind names the solver in snapshots
     * and telemetry; @p stripes is the snapshot's stripe count, 0 for
     * the single-stream chains.
     */
    SolverRun(const SolverConfig &config, const char *kind,
              const MrfProblem &problem, LabelSampler &sampler,
              img::LabelMap &labels, SolverTrace *callerTrace,
              int stripes)
        : checkpointing(config.checkpointEvery > 0), gen(config.seed),
          telemetry(problem, sampler, kind), config_(config),
          kind_(kind), problem_(problem), sampler_(sampler),
          labels_(labels), stripes_(stripes)
    {
        RETSIM_ASSERT(labels.width() == problem.width() &&
                          labels.height() == problem.height(),
                      "label map size mismatch");
        if (checkpointing && !config.checkpointSink &&
            config.checkpointPath.empty())
            RETSIM_FATAL("checkpointEvery is set but neither "
                         "checkpointPath nor checkpointSink is "
                         "configured");
        trace = callerTrace ? callerTrace
                            : ((telemetry.active() || checkpointing)
                                   ? &localTrace_
                                   : nullptr);
        const int m = problem.numLabels();
        if (const SolverCheckpoint *resume = config.resume.get()) {
            validateResume(*resume, kind, config, problem.width(),
                           problem.height(), m, sampler.name(), stripes);
            labels = resume->labels;
            if (!gen.loadState(resume->solverGen))
                RETSIM_FATAL("resume snapshot: solver generator state "
                             "does not fit ", gen.name());
            if (!sampler.loadState(resume->samplerState))
                RETSIM_FATAL("resume snapshot: sampler state does not "
                             "fit sampler '", sampler.name(), "'");
            if (trace)
                *trace = resume->trace;
            startSweep = resume->sweepsDone;
        } else if (config.randomInit) {
            for (int &l : labels.data())
                l = static_cast<int>(gen.nextBounded(m));
        } else {
            for (int l : labels.data()) {
                RETSIM_ASSERT(l >= 0 && l < m,
                              "initial label ", l, " out of range");
            }
        }
        if (trace)
            telemetry.setTraceBaseline(trace->pixelUpdates,
                                       trace->labelChanges);
    }

    SolverRun(const SolverRun &) = delete;
    SolverRun &operator=(const SolverRun &) = delete;

    /**
     * The tail of sweep @p sweep: add @p counts to the trace and push
     * energy() and the temperature, record telemetry (the caller
     * sampler's stats plus @p cloneStats), call the sweep observer,
     * and emit a checkpoint when one is due, after fill(cp) adds what
     * only the schedule holds (scan order, stripe clone states).
     */
    template <class Energy, class Fill>
    void
    endSweep(int sweep, double temperature, StripeCounters counts,
             Energy &&energy, const SamplerStats &cloneStats,
             const EnergyCacheStats *cacheStats, Fill &&fill)
    {
        if (trace) {
            trace->pixelUpdates += counts.pixelUpdates;
            trace->labelChanges += counts.labelChanges;
            trace->energyPerSweep.push_back(energy());
            trace->temperaturePerSweep.push_back(temperature);
        }
        if (telemetry.active()) {
            SamplerStats cum = sampler_.stats();
            cum += cloneStats;
            telemetry.recordSweep(sweep, temperature,
                                  trace->energyPerSweep.back(),
                                  trace->pixelUpdates,
                                  trace->labelChanges, cum, cacheStats);
        }
        if (config_.sweepObserver)
            config_.sweepObserver(sweep, temperature, labels_);
        if (checkpointing && shouldCheckpoint(config_, sweep + 1)) {
            SolverCheckpoint cp = capture(sweep + 1);
            fill(cp);
            emitCheckpoint(config_, cp);
        }
    }

    /** Count the run and the sweeps it ran. */
    void
    finish() const
    {
        const SolverMetricIds &ids = SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        reg.add(ids.runs, 1);
        reg.add(ids.sweeps, static_cast<std::uint64_t>(
                                config_.annealing.sweeps - startSweep));
    }

    const bool checkpointing;
    rng::Xoshiro256 gen; ///< the solver's own stream
    SweepTelemetry telemetry;
    SolverTrace *trace = nullptr;
    int startSweep = 0;

  private:
    SolverCheckpoint
    capture(int done) const
    {
        SolverCheckpoint cp;
        cp.solverKind = kind_;
        cp.samplerName = sampler_.name();
        cp.seed = config_.seed;
        cp.t0 = config_.annealing.t0;
        cp.tEnd = config_.annealing.tEnd;
        cp.sweepsTotal = config_.annealing.sweeps;
        cp.width = problem_.width();
        cp.height = problem_.height();
        cp.numLabels = problem_.numLabels();
        cp.stripes = stripes_;
        cp.randomScan = config_.randomScan;
        cp.sweepsDone = done;
        cp.labels = labels_;
        gen.saveState(cp.solverGen);
        sampler_.saveState(cp.samplerState);
        if (trace)
            cp.trace = *trace;
        return cp;
    }

    const SolverConfig &config_;
    const char *kind_;
    const MrfProblem &problem_;
    LabelSampler &sampler_;
    img::LabelMap &labels_;
    int stripes_;
    SolverTrace localTrace_;
};

} // namespace detail
} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_SOLVER_RUN_HH

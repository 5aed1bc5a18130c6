#include "mrf/checkerboard.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "mrf/checkerboard_detail.hh"
#include "mrf/checkpoint.hh"
#include "mrf/solver_run.hh"
#include "mrf/solver_telemetry.hh"
#include "util/logging.hh"

namespace retsim {
namespace mrf {

int
CheckerboardGibbsSolver::effectiveStripes(int height) const
{
    return detail::effectiveStripes(config_, height);
}

img::LabelMap
CheckerboardGibbsSolver::run(const MrfProblem &problem,
                             LabelSampler &sampler,
                             img::LabelMap &labels,
                             SolverTrace *caller_trace) const
{
    RETSIM_ASSERT(problem.neighborhood() == Neighborhood::Four,
                  "the two-color chromatic schedule is only valid on "
                  "the 4-neighborhood (8-connectivity needs 4 colors)");
    RETSIM_ASSERT(config_.threads >= 0 && config_.stripes >= 0,
                  "threads/stripes cannot be negative");
    // Serial reference path: one RNG stream drives every pixel, the
    // historical (pre-striping) behavior.  Taken only when neither a
    // stripe decomposition nor threading was requested.
    const bool serial = config_.threads == 1 && config_.stripes == 0;
    const int stripes = serial ? 0 : effectiveStripes(problem.height());
    detail::SolverRun scaffold(config_, "checkerboard", problem, sampler,
                               labels, caller_trace, stripes);

    // Striped chromatic path.  Within one color phase all same-color
    // pixels are conditionally independent (their neighbors all have
    // the other color), so contiguous row stripes can be sampled
    // concurrently from a consistent snapshot — the software analog of
    // the paper's concurrent RSU-G array.  Each stripe owns a private
    // sampler clone and a per-phase RNG stream keyed by (seed, sweep,
    // color, stripe), making the output bit-deterministic for a fixed
    // (seed, stripe count) regardless of thread count or scheduling.
    // The serial path runs the executor's one slot over every row.
    const std::vector<std::unique_ptr<LabelSampler>> clones =
        detail::cloneStripes(sampler, stripes, config_.resume.get());
    const int slots = std::max(stripes, 1);
    detail::StripeExecutor exec(config_, problem, labels, clones, slots,
                                0, slots);

    for (int s = scaffold.startSweep; s < config_.annealing.sweeps; ++s) {
        const double temperature = config_.annealing.temperature(s);
        for (int color = 0; color < 2; ++color) {
            if (serial)
                exec.runRows(0, sampler, scaffold.gen, 0,
                             problem.height(), color, temperature);
            else
                exec.runStripes(s, color, 0, stripes, temperature);
            exec.applyOwnDeferred();
        }
        exec.foldShards();
        scaffold.endSweep(
            s, temperature, exec.takeCounters(),
            [&] { return problem.totalEnergy(labels); },
            exec.cloneStatsSum(), exec.cacheStats(),
            [&](SolverCheckpoint &cp) {
                cp.stripeSamplerState.resize(clones.size());
                for (std::size_t k = 0; k < clones.size(); ++k)
                    clones[k]->saveState(cp.stripeSamplerState[k]);
            });
    }
    scaffold.finish();
    if (exec.cache())
        detail::foldCacheStats(exec.cache()->stats());

    // Fold every stripe clone's instrumentation counters back into
    // the caller's sampler so striped runs report the same totals
    // (samples, no-sample events, ties, rebuilds) as serial ones.
    for (const std::unique_ptr<LabelSampler> &clone : clones)
        sampler.mergeStats(*clone);
    return labels;
}

img::LabelMap
CheckerboardGibbsSolver::run(const MrfProblem &problem,
                             LabelSampler &sampler,
                             SolverTrace *trace) const
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return run(problem, sampler, labels, trace);
}

} // namespace mrf
} // namespace retsim

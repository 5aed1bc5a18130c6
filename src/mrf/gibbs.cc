#include "mrf/gibbs.hh"

#include <algorithm>
#include <cmath>

#include "mrf/checkpoint.hh"
#include "mrf/energy_cache.hh"
#include "mrf/solver_run.hh"
#include "mrf/solver_telemetry.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace retsim {
namespace mrf {

double
AnnealingSchedule::temperature(int s) const
{
    RETSIM_ASSERT(t0 > 0.0 && tEnd > 0.0 && tEnd <= t0,
                  "invalid annealing endpoints");
    RETSIM_ASSERT(sweeps >= 1, "need at least one sweep");
    if (sweeps == 1)
        return t0;
    double ratio = std::pow(tEnd / t0,
                            1.0 / static_cast<double>(sweeps - 1));
    return std::max(t0 * std::pow(ratio, static_cast<double>(s)), tEnd);
}

img::LabelMap
GibbsSolver::run(const MrfProblem &problem, LabelSampler &sampler,
                 img::LabelMap &labels, SolverTrace *caller_trace) const
{
    detail::SolverRun scaffold(config_, "gibbs", problem, sampler, labels,
                               caller_trace, /*stripes=*/0);
    rng::Xoshiro256 &gen = scaffold.gen;
    SolverTrace *const trace = scaffold.trace;
    const int m = problem.numLabels();

    std::vector<float> energies(m);
    const std::size_t pixels =
        static_cast<std::size_t>(problem.width()) * problem.height();
    // Filled lazily on the first random-scan sweep (or restored from
    // the snapshot), then reshuffled in place; pixel ids must narrow
    // to 32 bits without loss.
    std::vector<std::uint32_t> order;
    if (config_.randomScan) {
        RETSIM_ASSERT(pixels <= UINT32_MAX,
                      "random-scan order buffer limited to 2^32 pixels");
    }
    if (config_.resume)
        order = config_.resume->scanOrder;

    const std::uint64_t start_updates = trace ? trace->pixelUpdates : 0;
    const std::uint64_t start_changes = trace ? trace->labelChanges : 0;

    // Flip-aware energy-plane cache (see energy_cache.hh): serve each
    // pixel's conditional energies from the sweep-persistent plane
    // unless a neighborhood label write dirtied it.  Byte-identical
    // to the uncached path; m > 256 falls back (no shadow labels).
    std::unique_ptr<EnergyPlaneCache> cache;
    if (config_.energyCache && m <= 256)
        cache = std::make_unique<EnergyPlaneCache>(
            problem.width(), problem.height(), m, /*phases=*/1);

    // Dirty marks written this sweep, counted with one add next to
    // flushPixelCounts().
    std::uint64_t marks = 0;
    auto update_pixel = [&](int x, int y, double temperature) {
        std::span<const float> e;
        if (cache) {
            e = std::span<const float>(
                cache->pixelEnergies(problem, labels, x, y),
                static_cast<std::size_t>(m));
        } else {
            problem.conditionalEnergies(labels, x, y, energies);
            e = std::span<const float>(energies.data(),
                                       energies.size());
        }
        int current = labels(x, y);
        int chosen = sampler.sample(e, temperature, current, gen);
        RETSIM_ASSERT(chosen >= 0 && chosen < m,
                      "sampler returned invalid label ", chosen);
        labels(x, y) = chosen;
        if (cache && chosen != current)
            marks += cache->markFlip(x, y, problem.neighborhood(), 0,
                                     problem.height(), nullptr);
        if (trace) {
            ++trace->pixelUpdates;
            if (chosen != current)
                ++trace->labelChanges;
        }
    };

    for (int s = scaffold.startSweep; s < config_.annealing.sweeps; ++s) {
        double temperature = config_.annealing.temperature(s);
        if (config_.randomScan) {
            if (order.empty()) {
                order.resize(pixels);
                for (std::size_t i = 0; i < pixels; ++i)
                    order[i] = static_cast<std::uint32_t>(i);
            }
            // Fisher-Yates with the solver's own generator keeps the
            // whole run deterministic per seed.
            for (std::size_t i = pixels; i > 1; --i) {
                std::size_t j = gen.nextBounded(i);
                std::swap(order[i - 1], order[j]);
            }
            for (std::uint32_t p : order)
                update_pixel(static_cast<int>(p % problem.width()),
                             static_cast<int>(p / problem.width()),
                             temperature);
        } else {
            for (int y = 0; y < problem.height(); ++y)
                for (int x = 0; x < problem.width(); ++x)
                    update_pixel(x, y, temperature);
        }
        if (cache) {
            cache->flushPixelCounts();
            cache->addInvalidations(marks);
            marks = 0;
        }
        scaffold.endSweep(
            s, temperature, {},
            [&] { return problem.totalEnergy(labels); }, {},
            cache ? &cache->stats() : nullptr,
            [&](SolverCheckpoint &cp) { cp.scanOrder = order; });
    }

    scaffold.finish();
    if (trace) {
        const auto &ids = detail::SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        reg.add(ids.pixelUpdates, trace->pixelUpdates - start_updates);
        reg.add(ids.labelChanges, trace->labelChanges - start_changes);
    }
    if (cache)
        detail::foldCacheStats(cache->stats());
    return labels;
}

img::LabelMap
GibbsSolver::run(const MrfProblem &problem, LabelSampler &sampler,
                 SolverTrace *trace) const
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return run(problem, sampler, labels, trace);
}

img::LabelMap
runSolver(const SolverConfig &config, const MrfProblem &problem,
          LabelSampler &sampler, img::LabelMap &labels,
          SolverTrace *trace)
{
    if (config.solverBackend) {
        SolverConfig inner = config;
        inner.solverBackend = nullptr;
        return config.solverBackend(inner, problem, sampler, labels,
                                    trace);
    }
    return GibbsSolver(config).run(problem, sampler, labels, trace);
}

img::LabelMap
runSolver(const SolverConfig &config, const MrfProblem &problem,
          LabelSampler &sampler, SolverTrace *trace)
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return runSolver(config, problem, sampler, labels, trace);
}

} // namespace mrf
} // namespace retsim

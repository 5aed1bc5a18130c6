#include "mrf/gibbs.hh"

#include <algorithm>
#include <cmath>

#include "mrf/checkpoint.hh"
#include "mrf/energy_cache.hh"
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
    RETSIM_ASSERT(labels.width() == problem.width() &&
                      labels.height() == problem.height(),
                  "label map size mismatch");
    const int m = problem.numLabels();
    rng::Xoshiro256 gen(config_.seed);
    const bool checkpointing = config_.checkpointEvery > 0;
    if (checkpointing && !config_.checkpointSink &&
        config_.checkpointPath.empty())
        RETSIM_FATAL("checkpointEvery is set but neither "
                     "checkpointPath nor checkpointSink is configured");

    // Telemetry wants the per-sweep counters even when the caller
    // passed no trace; a run-local trace stands in.  Checkpoints carry
    // the trace too, so checkpointing also forces one — that keeps the
    // final snapshot byte-identical whether or not the caller asked
    // for a trace.  With none of the three the counting stays compiled
    // out of the pixel loop exactly as before.
    detail::SweepTelemetry telemetry(problem, sampler, "gibbs");
    SolverTrace local_trace;
    SolverTrace *trace =
        caller_trace ? caller_trace
                     : ((telemetry.active() || checkpointing)
                            ? &local_trace
                            : nullptr);

    std::vector<float> energies(m);
    const std::size_t pixels =
        static_cast<std::size_t>(problem.width()) * problem.height();
    // Filled lazily on the first random-scan sweep, then reshuffled in
    // place; pixel ids must narrow to 32 bits without loss.
    std::vector<std::uint32_t> order;
    if (config_.randomScan) {
        RETSIM_ASSERT(pixels <= UINT32_MAX,
                      "random-scan order buffer limited to 2^32 pixels");
    }

    const SolverCheckpoint *resume = config_.resume.get();
    int start_sweep = 0;
    if (resume) {
        detail::validateResume(*resume, "gibbs", config_,
                               problem.width(), problem.height(), m,
                               sampler.name(), /*stripes=*/0);
        labels = resume->labels;
        if (!gen.loadState(resume->solverGen))
            RETSIM_FATAL("resume snapshot: solver generator state "
                         "does not fit ", gen.name());
        if (!sampler.loadState(resume->samplerState))
            RETSIM_FATAL("resume snapshot: sampler state does not fit "
                         "sampler '", sampler.name(), "'");
        order = resume->scanOrder;
        if (trace)
            *trace = resume->trace;
        start_sweep = resume->sweepsDone;
    } else if (config_.randomInit) {
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

    for (int s = start_sweep; s < config_.annealing.sweeps; ++s) {
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
        if (trace) {
            trace->energyPerSweep.push_back(
                problem.totalEnergy(labels));
            trace->temperaturePerSweep.push_back(temperature);
        }
        if (telemetry.active()) {
            telemetry.recordSweep(s, temperature,
                                  trace->energyPerSweep.back(),
                                  trace->pixelUpdates,
                                  trace->labelChanges,
                                  sampler.stats(),
                                  cache ? &cache->stats() : nullptr);
        }
        if (config_.sweepObserver)
            config_.sweepObserver(s, temperature, labels);
        if (checkpointing && detail::shouldCheckpoint(config_, s + 1)) {
            SolverCheckpoint cp;
            cp.solverKind = "gibbs";
            cp.samplerName = sampler.name();
            cp.seed = config_.seed;
            cp.t0 = config_.annealing.t0;
            cp.tEnd = config_.annealing.tEnd;
            cp.sweepsTotal = config_.annealing.sweeps;
            cp.width = problem.width();
            cp.height = problem.height();
            cp.numLabels = m;
            cp.stripes = 0;
            cp.randomScan = config_.randomScan;
            cp.sweepsDone = s + 1;
            cp.labels = labels;
            gen.saveState(cp.solverGen);
            cp.scanOrder = order;
            sampler.saveState(cp.samplerState);
            if (trace)
                cp.trace = *trace;
            detail::emitCheckpoint(config_, cp);
        }
    }

    {
        const auto &ids = detail::SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        reg.add(ids.runs, 1);
        reg.add(ids.sweeps,
                static_cast<std::uint64_t>(config_.annealing.sweeps -
                                           start_sweep));
        if (trace) {
            reg.add(ids.pixelUpdates,
                    trace->pixelUpdates - start_updates);
            reg.add(ids.labelChanges,
                    trace->labelChanges - start_changes);
        }
        if (cache)
            detail::foldCacheStats(cache->stats());
    }
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

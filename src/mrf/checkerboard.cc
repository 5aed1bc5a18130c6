#include "mrf/checkerboard.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mrf/checkerboard_detail.hh"
#include "mrf/checkpoint.hh"
#include "mrf/energy_cache.hh"
#include "mrf/solver_telemetry.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace retsim {
namespace mrf {

// The probabilistic core (per-phase RNG stream derivation, row arena,
// cache slot, batched row update) lives in checkerboard_detail.hh,
// shared verbatim with shard::ShardedCheckerboardSolver so the two
// solvers can never drift apart numerically.
using detail::CacheSlot;
using detail::RowArena;
using detail::StripeCounters;
using detail::stripeStreamSeed;
using detail::updateRow;

int
CheckerboardGibbsSolver::effectiveStripes(int height) const
{
    int stripes =
        config_.stripes > 0 ? config_.stripes : std::min(height, 16);
    return std::min(stripes, height);
}

img::LabelMap
CheckerboardGibbsSolver::run(const MrfProblem &problem,
                             LabelSampler &sampler,
                             img::LabelMap &labels,
                             SolverTrace *caller_trace) const
{
    RETSIM_ASSERT(labels.width() == problem.width() &&
                      labels.height() == problem.height(),
                  "label map size mismatch");
    RETSIM_ASSERT(problem.neighborhood() == Neighborhood::Four,
                  "the two-color chromatic schedule is only valid on "
                  "the 4-neighborhood (8-connectivity needs 4 colors)");
    RETSIM_ASSERT(config_.threads >= 0 && config_.stripes >= 0,
                  "threads/stripes cannot be negative");
    const int m = problem.numLabels();
    rng::Xoshiro256 gen(config_.seed);
    const bool checkpointing = config_.checkpointEvery > 0;
    if (checkpointing && !config_.checkpointSink &&
        config_.checkpointPath.empty())
        RETSIM_FATAL("checkpointEvery is set but neither "
                     "checkpointPath nor checkpointSink is configured");
    const bool serial = config_.threads == 1 && config_.stripes == 0;
    const int cp_stripes =
        serial ? 0 : effectiveStripes(problem.height());

    const detail::SolverMetricIds &ids = detail::SolverMetricIds::get();
    obs::Registry &reg = obs::Registry::global();
    detail::SweepTelemetry telemetry(problem, sampler, "checkerboard");
    SolverTrace local_trace;
    SolverTrace *trace =
        caller_trace ? caller_trace
                     : ((telemetry.active() || checkpointing)
                            ? &local_trace
                            : nullptr);

    const SolverCheckpoint *resume = config_.resume.get();
    int start_sweep = 0;
    if (resume) {
        detail::validateResume(*resume, "checkerboard", config_,
                               problem.width(), problem.height(), m,
                               sampler.name(), cp_stripes);
        labels = resume->labels;
        if (!gen.loadState(resume->solverGen))
            RETSIM_FATAL("resume snapshot: solver generator state "
                         "does not fit ", gen.name());
        if (!sampler.loadState(resume->samplerState))
            RETSIM_FATAL("resume snapshot: sampler state does not fit "
                         "sampler '", sampler.name(), "'");
        if (trace)
            *trace = resume->trace;
        start_sweep = resume->sweepsDone;
    } else if (config_.randomInit) {
        for (int &l : labels.data())
            l = static_cast<int>(gen.nextBounded(m));
    }

    if (trace)
        telemetry.setTraceBaseline(trace->pixelUpdates,
                                   trace->labelChanges);

    // Shared snapshot assembly: everything but the per-stripe clone
    // states, which only the striped path owns.
    auto capture = [&](int done) {
        SolverCheckpoint cp;
        cp.solverKind = "checkerboard";
        cp.samplerName = sampler.name();
        cp.seed = config_.seed;
        cp.t0 = config_.annealing.t0;
        cp.tEnd = config_.annealing.tEnd;
        cp.sweepsTotal = config_.annealing.sweeps;
        cp.width = problem.width();
        cp.height = problem.height();
        cp.numLabels = m;
        cp.stripes = cp_stripes;
        cp.randomScan = config_.randomScan;
        cp.sweepsDone = done;
        cp.labels = labels;
        gen.saveState(cp.solverGen);
        sampler.saveState(cp.samplerState);
        if (trace)
            cp.trace = *trace;
        return cp;
    };

    // Serial reference path: one RNG stream drives every pixel, the
    // historical (pre-striping) behavior.  Taken only when neither a
    // stripe decomposition nor threading was requested.
    // Flip-aware energy-plane cache shared by both execution paths
    // (see energy_cache.hh).  Per-run state: fresh all-dirty planes
    // plus a shadow-label sync at entry, so resume replay stays
    // byte-identical to the uninterrupted run.
    std::unique_ptr<EnergyPlaneCache> cache;
    if (config_.energyCache && m <= 256) {
        cache = std::make_unique<EnergyPlaneCache>(
            problem.width(), problem.height(), m, /*phases=*/2);
        cache->syncShadow(labels);
    }

    if (serial) {
        RowArena arena(problem.width(), m);
        obs::MetricShard shard = reg.makeShard();
        CacheSlot slot;
        CacheSlot *cs = nullptr;
        if (cache) {
            slot = CacheSlot{cache.get(), 0, problem.height(), nullptr};
            cs = &slot;
        }
        for (int s = start_sweep; s < config_.annealing.sweeps; ++s) {
            double temperature = config_.annealing.temperature(s);
            for (int color = 0; color < 2; ++color) {
                for (int y = 0; y < problem.height(); ++y) {
                    StripeCounters c =
                        updateRow(problem, sampler, labels, y, color,
                                  temperature, arena, gen, cs);
                    shard.add(ids.pixelUpdates, c.pixelUpdates);
                    shard.add(ids.labelChanges, c.labelChanges);
                    if (trace) {
                        trace->pixelUpdates += c.pixelUpdates;
                        trace->labelChanges += c.labelChanges;
                    }
                }
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
                                      cache ? &cache->stats()
                                            : nullptr);
            }
            if (config_.sweepObserver)
                config_.sweepObserver(s, temperature, labels);
            if (checkpointing &&
                detail::shouldCheckpoint(config_, s + 1))
                detail::emitCheckpoint(config_, capture(s + 1));
        }
        reg.fold(shard);
        reg.add(ids.runs, 1);
        reg.add(ids.sweeps, static_cast<std::uint64_t>(
                                config_.annealing.sweeps -
                                start_sweep));
        if (cache)
            detail::foldCacheStats(cache->stats());
        return labels;
    }

    // Striped chromatic path.  Within one color phase all same-color
    // pixels are conditionally independent (their neighbors all have
    // the other color), so contiguous row stripes can be sampled
    // concurrently from a consistent snapshot — the software analog of
    // the paper's concurrent RSU-G array.  Each stripe owns a private
    // sampler clone and a per-phase RNG stream keyed by (seed, sweep,
    // color, stripe), making the output bit-deterministic for a fixed
    // (seed, stripe count) regardless of thread count or scheduling.
    const int height = problem.height();
    const int width = problem.width();
    const int stripes = effectiveStripes(height);
    int threads = config_.threads == 0
                      ? static_cast<int>(
                            util::ThreadPool::global().numThreads())
                      : config_.threads;
    threads = std::min(threads, stripes);

    // parallelFor's caller participates, so a pool of threads-1
    // workers yields exactly `threads` concurrent executors.
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<util::ThreadPool>(
            static_cast<std::size_t>(threads - 1));

    std::vector<std::unique_ptr<LabelSampler>> workers(
        static_cast<std::size_t>(stripes));
    std::vector<RowArena> scratch(static_cast<std::size_t>(stripes),
                                  RowArena(width, m));
    for (int k = 0; k < stripes; ++k)
        workers[k] = sampler.clone(static_cast<std::uint64_t>(k));

    if (resume) {
        // validateResume already matched the stripe count against the
        // snapshot; restore each clone's counters and entropy position.
        RETSIM_ASSERT(static_cast<int>(
                          resume->stripeSamplerState.size()) == stripes,
                      "stripe-state table size mismatch");
        for (int k = 0; k < stripes; ++k) {
            if (!workers[k]->loadState(resume->stripeSamplerState[k]))
                RETSIM_FATAL("resume snapshot: stripe ", k,
                             " sampler state does not fit sampler '",
                             workers[k]->name(), "'");
        }
    }

    std::vector<StripeCounters> counters(
        static_cast<std::size_t>(stripes));

    // Per-stripe deferred dirty marks: a flip on a stripe-boundary row
    // must dirty the neighbor pixel in the adjacent stripe, but that
    // stripe's bitset words belong to the other executor during the
    // phase.  Each stripe queues those out-of-range marks privately and
    // the coordinator applies them at the color-phase join, before any
    // other executor can read the affected rows.
    std::vector<std::vector<std::uint64_t>> deferredMarks(
        static_cast<std::size_t>(stripes));

    // One metrics shard per stripe: workers accumulate lock-free and
    // the coordinator folds them back into the process-wide registry
    // at the sweep join, so instrumentation never serializes the hot
    // path (and never perturbs the per-stripe RNG streams).
    std::vector<obs::MetricShard> shards;
    shards.reserve(static_cast<std::size_t>(stripes));
    for (int k = 0; k < stripes; ++k)
        shards.push_back(reg.makeShard());

    auto run_stripe = [&](int sweep, int color, int k,
                          double temperature) {
        const int y0 = detail::stripeRowStart(k, height, stripes);
        const int y1 = detail::stripeRowStart(k + 1, height, stripes);
        rng::Xoshiro256 stripe_gen(
            stripeStreamSeed(config_.seed, sweep, color, k));
        LabelSampler &stripe_sampler = *workers[k];
        RowArena &arena = scratch[k];
        StripeCounters &c = counters[k];
        obs::MetricShard &shard = shards[static_cast<std::size_t>(k)];
        CacheSlot slot;
        CacheSlot *cs = nullptr;
        if (cache) {
            slot = CacheSlot{cache.get(), y0, y1,
                             &deferredMarks[static_cast<std::size_t>(k)]};
            cs = &slot;
        }
        for (int y = y0; y < y1; ++y) {
            StripeCounters rc =
                updateRow(problem, stripe_sampler, labels, y, color,
                          temperature, arena, stripe_gen, cs);
            c.pixelUpdates += rc.pixelUpdates;
            c.labelChanges += rc.labelChanges;
            shard.add(ids.pixelUpdates, rc.pixelUpdates);
            shard.add(ids.labelChanges, rc.labelChanges);
        }
    };

    for (int s = start_sweep; s < config_.annealing.sweeps; ++s) {
        double temperature = config_.annealing.temperature(s);
        for (int color = 0; color < 2; ++color) {
            if (pool) {
                pool->parallelFor(
                    static_cast<std::size_t>(stripes),
                    [&](std::size_t k) {
                        run_stripe(s, color, static_cast<int>(k),
                                   temperature);
                    });
            } else {
                for (int k = 0; k < stripes; ++k)
                    run_stripe(s, color, k, temperature);
            }
            // Color-phase join: land the stripe-boundary dirty marks
            // before the next phase reads the affected rows.
            if (cache) {
                for (std::vector<std::uint64_t> &d : deferredMarks)
                    cache->applyDeferred(d);
            }
            // Merge trace counters at the phase barrier so the trace
            // totals are exact after every sweep.
            if (trace) {
                for (StripeCounters &c : counters) {
                    trace->pixelUpdates += c.pixelUpdates;
                    trace->labelChanges += c.labelChanges;
                    c = StripeCounters{};
                }
            }
        }
        if (trace) {
            trace->energyPerSweep.push_back(
                problem.totalEnergy(labels));
            trace->temperaturePerSweep.push_back(temperature);
        }
        // Stripe join: fold the workers' metric shards into the
        // registry.  Shard merges are plain sums, so the totals equal
        // a serial run's regardless of stripe count or scheduling.
        for (obs::MetricShard &shard : shards)
            reg.fold(shard);
        if (telemetry.active()) {
            SamplerStats cum = sampler.stats();
            for (int k = 0; k < stripes; ++k)
                cum += workers[k]->stats();
            telemetry.recordSweep(s, temperature,
                                  trace->energyPerSweep.back(),
                                  trace->pixelUpdates,
                                  trace->labelChanges, cum,
                                  cache ? &cache->stats() : nullptr);
        }
        if (config_.sweepObserver)
            config_.sweepObserver(s, temperature, labels);
        if (checkpointing && detail::shouldCheckpoint(config_, s + 1)) {
            SolverCheckpoint cp = capture(s + 1);
            cp.stripeSamplerState.resize(
                static_cast<std::size_t>(stripes));
            for (int k = 0; k < stripes; ++k)
                workers[k]->saveState(cp.stripeSamplerState[k]);
            detail::emitCheckpoint(config_, cp);
        }
    }

    reg.add(ids.runs, 1);
    reg.add(ids.sweeps,
            static_cast<std::uint64_t>(config_.annealing.sweeps -
                                       start_sweep));

    if (cache)
        detail::foldCacheStats(cache->stats());

    // Fold every stripe clone's instrumentation counters back into
    // the caller's sampler so striped runs report the same totals
    // (samples, no-sample events, ties, rebuilds) as serial ones.
    for (int k = 0; k < stripes; ++k)
        sampler.mergeStats(*workers[k]);
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

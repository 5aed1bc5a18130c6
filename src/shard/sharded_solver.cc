#include "shard/sharded_solver.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "mrf/checkerboard.hh"
#include "mrf/checkerboard_detail.hh"
#include "mrf/checkpoint.hh"
#include "mrf/energy_cache.hh"
#include "mrf/solver_telemetry.hh"
#include "obs/metrics.hh"
#include "rng/rng.hh"
#include "shard/payload_codec.hh"
#include "shard/tile_partition.hh"
#include "shard/transport.hh"
#include "util/checkpoint.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace retsim {
namespace shard {

namespace {

using detail::decodeGather;
using detail::decodeGhostRow;
using detail::deserializeRegistryDelta;
using detail::serializeRegistryDelta;
using mrf::detail::CacheSlot;
using mrf::detail::RowArena;
using mrf::detail::StripeCounters;
using mrf::detail::stripeRowStart;
using mrf::detail::stripeStreamSeed;
using mrf::detail::updateRow;

/** Transport-behavior counters, folded per rank at the sweep join
 *  (same static-registration pattern as SolverMetricIds). */
struct ShardMetricIds
{
    obs::MetricId haloBytesSent; ///< ghost-row payload bytes posted
    obs::MetricId haloSendNs;    ///< time spent posting ghost rows
    obs::MetricId haloWaitNs;    ///< time blocked on inbound ghosts
    obs::MetricId interiorNs;    ///< per-phase stripe compute time

    static const ShardMetricIds &
    get()
    {
        static const ShardMetricIds ids = [] {
            obs::Registry &r = obs::Registry::global();
            return ShardMetricIds{
                r.counter("shard.halo.bytes_sent"),
                r.counter("shard.halo.send_ns"),
                r.counter("shard.halo.wait_ns"),
                r.counter("shard.phase.interior_ns"),
            };
        }();
        return ids;
    }
};

/** Monotonic nanoseconds since @p t0 (counter accumulation only —
 *  results never depend on time). */
std::uint64_t
nsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** Flags every rank must agree on, computed by rank 0 before spawn
 *  (workers inherit them by fork / thread capture) so both sides of
 *  every conditional message derive the same frame sequence. */
struct ShardSpec
{
    int startSweep = 0;
    bool wantEnergy = false; ///< rank 0 keeps a SolverTrace
    bool wantStats = false;  ///< telemetry recorder active on rank 0
    bool gatherObserver = false; ///< sweepObserver needs labels/sweep
    bool checkpointing = false;
};

/** Both sides of the GATHER exchange must evaluate this identically:
 *  rank 0 needs the full label field (and per-stripe sampler states)
 *  on observer sweeps, checkpoint sweeps, and the final sweep. */
bool
gatherNeeded(const ShardSpec &spec, const mrf::SolverConfig &config,
             int sweep)
{
    return spec.gatherObserver ||
           sweep + 1 == config.annealing.sweeps ||
           (spec.checkpointing &&
            mrf::detail::shouldCheckpoint(config, sweep + 1));
}

/** Crash-drill trigger, evaluated identically on the dying worker and
 *  on rank 0: first checkpointed sweep >= dieAtSweep, never the last
 *  sweep, and only when the run actually passes through it (a resumed
 *  run that starts past the trigger completes normally). */
bool
dieSweep(const ShardOptions &options, const ShardSpec &spec,
         const mrf::SolverConfig &config, int sweep)
{
    return options.dieRank >= 0 && options.dieAtSweep > 0 &&
           spec.checkpointing &&
           sweep + 1 >= options.dieAtSweep &&
           spec.startSweep < options.dieAtSweep &&
           sweep + 1 < config.annealing.sweeps &&
           mrf::detail::shouldCheckpoint(config, sweep + 1);
}

/** The rank that folds the full cache stats (including the one
 *  rebuild + one shadow sync a serial run records).  Usually rank 0;
 *  rank 0 can be empty (and cache-less) when shards > stripes. */
int
firstNonEmptyRank(const TilePartition &part)
{
    for (int j = 0; j < part.shards(); ++j)
        if (!part.empty(j))
            return j;
    return 0;
}

/**
 * One rank's compute state and per-phase work: its contiguous run of
 * global stripes, a PRIVATE full-size label map (ghost rows refreshed
 * by message, so loopback threads and socket processes execute
 * identical code paths), and a private energy-plane cache covering
 * its rows.
 */
struct TileWork
{
    const mrf::SolverConfig &config;
    const mrf::MrfProblem &problem;
    const TilePartition &part;
    ShardTransport &tr;
    img::LabelMap &labels;
    std::vector<std::unique_ptr<mrf::LabelSampler>> &clones;

    int rank;
    int k0, k1;  ///< global stripe range [k0, k1)
    int lo, hi;  ///< owned row range [lo, hi)
    int up, down; ///< neighbor ranks (-1 = grid boundary)

    std::unique_ptr<mrf::EnergyPlaneCache> cache;
    std::vector<RowArena> scratch;
    std::vector<StripeCounters> counters;
    std::vector<std::vector<std::uint64_t>> deferred;
    /** One ghost row's inner-row marks, landed by applyDeferred. */
    std::vector<std::uint64_t> ghostMarks;
    /** One received ghost row's labels, validated before use. */
    std::vector<int> ghostRow;
    std::vector<obs::MetricShard> shards;

    /** True while a posted halo has not been consumed yet (cleared on
     *  (re)start, so the first phase after resume never waits). */
    bool ghostsInFlight = false;
    /** Intra-rank stripe dispatch (SolverConfig::threads, same rule
     *  as the single-process checkerboard solver). */
    std::unique_ptr<util::ThreadPool> pool;

    // Transport-behavior tallies, folded by foldShards() per sweep.
    std::uint64_t haloBytesSent = 0;
    std::uint64_t haloSendNs = 0;
    std::uint64_t haloWaitNs = 0;
    std::uint64_t interiorNs = 0;

    TileWork(const mrf::SolverConfig &cfg,
             const mrf::MrfProblem &prob, const TilePartition &p,
             ShardTransport &transport, img::LabelMap &lab,
             std::vector<std::unique_ptr<mrf::LabelSampler>> &cl,
             int r)
        : config(cfg), problem(prob), part(p), tr(transport),
          labels(lab), clones(cl), rank(r),
          k0(p.stripeBegin(r)), k1(p.stripeEnd(r)),
          lo(p.rowBegin(r)), hi(p.rowEnd(r)),
          up(p.neighborAbove(r)), down(p.neighborBelow(r))
    {
        if (empty())
            return;
        const int m = problem.numLabels();
        const int width = problem.width();
        obs::Registry &reg = obs::Registry::global();
        // Same cache gate as the single-process solver; each rank's
        // cache holds planes for its own rows [lo, hi) only, the only
        // rows it refreshes, marks and serves (other ranks' marks are
        // dropped, ghost-row marks land on the inner row), plus the
        // full-grid shadow labels its edge rows read.
        if (config.energyCache && m <= 256) {
            cache = std::make_unique<mrf::EnergyPlaneCache>(
                width, problem.height(), m, /*phases=*/2, lo, hi);
            cache->syncShadow(labels);
        }
        const std::size_t n = static_cast<std::size_t>(k1 - k0);
        scratch.assign(n, RowArena(width, m));
        counters.assign(n, StripeCounters{});
        deferred.assign(n, {});
        shards.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            shards.push_back(reg.makeShard());
        // parallelFor's caller participates, so a pool of threads-1
        // workers yields exactly `threads` concurrent executors —
        // the single-process solver's sizing rule, capped at this
        // rank's stripe count.
        int threads =
            config.threads == 0
                ? static_cast<int>(
                      util::ThreadPool::global().numThreads())
                : config.threads;
        threads = std::min(threads, k1 - k0);
        if (threads > 1)
            pool = std::make_unique<util::ThreadPool>(
                static_cast<std::size_t>(threads - 1));
    }

    bool empty() const { return k0 == k1; }

    void
    runStripe(int sweep, int color, int k, double temperature)
    {
        const int height = problem.height();
        const int stripes = part.stripes();
        const int y0 = stripeRowStart(k, height, stripes);
        const int y1 = stripeRowStart(k + 1, height, stripes);
        rng::Xoshiro256 stripe_gen(
            stripeStreamSeed(config.seed, sweep, color, k));
        mrf::LabelSampler &stripe_sampler =
            *clones[static_cast<std::size_t>(k)];
        const std::size_t i = static_cast<std::size_t>(k - k0);
        RowArena &arena = scratch[i];
        StripeCounters &c = counters[i];
        obs::MetricShard &shard = shards[i];
        const auto &ids = mrf::detail::SolverMetricIds::get();
        CacheSlot slot;
        CacheSlot *cs = nullptr;
        if (cache) {
            slot = CacheSlot{cache.get(), y0, y1, &deferred[i]};
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
    }

    /**
     * Land the phase's stripe-boundary dirty marks.  Marks into rows
     * this rank owns are applied (counted) exactly like the serial
     * coordinator's applyDeferred; marks into another rank's rows are
     * dropped UNcounted — the owning rank re-derives each of them
     * from its ghost-row diff (one mark per changed ghost pixel, the
     * same 1:1 flip correspondence the serial deferral has), so the
     * process-wide invalidation total equals the serial run's.
     */
    void
    applyOwnDeferred()
    {
        if (!cache)
            return;
        for (std::vector<std::uint64_t> &d : deferred) {
            std::size_t keep = 0;
            for (std::uint64_t p : d) {
                const int y =
                    static_cast<int>(p & 0xffffffffu);
                if (y >= lo && y < hi)
                    d[keep++] = p;
            }
            d.resize(keep);
            cache->applyDeferred(d);
        }
    }

    void
    postBoundaryRow(int peer, int y)
    {
        util::ByteWriter w;
        w.u32(static_cast<std::uint32_t>(y));
        for (int x = 0; x < problem.width(); ++x)
            w.i32(labels(x, y));
        const auto t0 = std::chrono::steady_clock::now();
        tr.sendAsync(peer, tag::kHalo, w.bytes().data(),
                     w.bytes().size());
        haloSendNs += nsSince(t0);
        haloBytesSent += w.bytes().size();
    }

    /**
     * Land one received ghost row: refresh the ghost labels and mark
     * the adjacent inner row — the only row of ours whose planes
     * depend on ghost labels — once per changed ghost pixel.  The
     * change test reads the cache's SHADOW plane, not the label map:
     * on rank 0 a GATHER may overwrite ghost rows with their
     * post-phase values before the deferred halo is consumed, and the
     * shadow is what the cached planes were actually computed
     * against, so the diff (and the invalidation count) stays
     * identical to the serial run's.
     */
    void
    applyGhostRow(int peer, int yg,
                  std::span<const unsigned char> payload)
    {
        ghostRow.resize(static_cast<std::size_t>(problem.width()));
        decodeGhostRow(payload, peer, yg, problem.numLabels(), ghostRow);
        const int inner = yg < lo ? lo : hi - 1;
        const std::uint8_t *shadow =
            cache ? cache->shadow() +
                        static_cast<std::size_t>(yg) *
                            problem.width()
                  : nullptr;
        for (int x = 0; x < problem.width(); ++x) {
            const int nv = ghostRow[static_cast<std::size_t>(x)];
            labels(x, yg) = nv;
            if (shadow &&
                shadow[x] != static_cast<std::uint8_t>(nv)) {
                cache->setShadow(x, yg, nv);
                ghostMarks.push_back(
                    (static_cast<std::uint64_t>(x) << 32) |
                    static_cast<std::uint32_t>(inner));
            }
        }
        if (cache)
            cache->applyDeferred(ghostMarks);
    }

    /** Consume the ghost rows posted by the neighbors' previous
     *  phase.  tryRecv first, so halo.wait_ns accrues only when the
     *  transfer did NOT finish behind the interior compute. */
    void
    waitGhosts()
    {
        if (!ghostsInFlight)
            return;
        ghostsInFlight = false;
        const int peers[2] = {up, down};
        const int rows[2] = {lo - 1, hi};
        for (int i = 0; i < 2; ++i) {
            if (peers[i] < 0)
                continue;
            std::vector<unsigned char> payload;
            if (!tr.tryRecv(peers[i], tag::kHalo, &payload)) {
                const auto t0 = std::chrono::steady_clock::now();
                payload = tr.recv(peers[i], tag::kHalo);
                haloWaitNs += nsSince(t0);
            }
            applyGhostRow(peers[i], rows[i], payload);
        }
    }

    /** Run stripes [ka, kb) of this phase, across the pool when one
     *  exists.  Any stripe order (and any thread interleaving) yields
     *  byte-identical results: each stripe draws from its own (seed,
     *  sweep, color, stripe) RNG stream and sampler clone, and every
     *  neighbor read within a phase is a frozen other-color pixel. */
    void
    runStripes(int sweep, int color, int ka, int kb,
               double temperature)
    {
        if (pool && kb - ka > 1)
            pool->parallelFor(
                static_cast<std::size_t>(kb - ka),
                [&](std::size_t i) {
                    runStripe(sweep, color, ka + static_cast<int>(i),
                              temperature);
                });
        else
            for (int k = ka; k < kb; ++k)
                runStripe(sweep, color, k, temperature);
    }

    /**
     * One color phase, boundary-first: consume the ghosts posted by
     * the previous phase, run the stripes owning this rank's boundary
     * rows, post their ghost rows WITHOUT blocking, and hide the
     * transfer behind the interior stripes.  The next consumption
     * point's waitGhosts() — the following phase, or the sweep join
     * whose row energies read ghost rows — is the only point that may
     * block.  Every sweep join consumes the ghosts its phases posted,
     * so no halo frame is ever left unread at teardown (an unread
     * frame would RST the connection).
     */
    void
    runPhase(int sweep, int color, double temperature)
    {
        if (empty())
            return;
        waitGhosts();
        runStripe(sweep, color, k0, temperature);
        if (k1 - k0 > 1)
            runStripe(sweep, color, k1 - 1, temperature);
        if (up >= 0)
            postBoundaryRow(up, lo);
        if (down >= 0)
            postBoundaryRow(down, hi - 1);
        if (up >= 0 || down >= 0)
            ghostsInFlight = true;
        const auto t0 = std::chrono::steady_clock::now();
        runStripes(sweep, color, k0 + 1, k1 - 1, temperature);
        interiorNs += nsSince(t0);
        tr.progress();
        applyOwnDeferred();
    }

    /** Sum and reset the per-stripe trace counters (sweep join). */
    StripeCounters
    takeSweepCounters()
    {
        StripeCounters tot;
        for (StripeCounters &c : counters) {
            tot.pixelUpdates += c.pixelUpdates;
            tot.labelChanges += c.labelChanges;
            c = StripeCounters{};
        }
        return tot;
    }

    void
    foldShards()
    {
        obs::Registry &reg = obs::Registry::global();
        for (obs::MetricShard &s : shards)
            reg.fold(s);
        const ShardMetricIds &sids = ShardMetricIds::get();
        reg.add(sids.haloBytesSent, haloBytesSent);
        reg.add(sids.haloSendNs, haloSendNs);
        reg.add(sids.haloWaitNs, haloWaitNs);
        reg.add(sids.interiorNs, interiorNs);
        haloBytesSent = haloSendNs = haloWaitNs = interiorNs = 0;
    }

    mrf::SamplerStats
    cloneStatsSum() const
    {
        mrf::SamplerStats s;
        for (int k = k0; k < k1; ++k)
            s += clones[static_cast<std::size_t>(k)]->stats();
        return s;
    }

    /**
     * Fold this rank's cache traffic into its registry.  Exactly one
     * rank (the first non-empty one) folds everything; the others
     * skip rebuilds/shadowSyncs — the per-rank caches are an
     * implementation artifact of sharding (serial has ONE cache, one
     * rebuild, one shadow sync), while the traffic counters
     * hits/recomputed/invalidations partition exactly across ranks.
     */
    void
    foldCacheCounters(bool fullFold)
    {
        if (!cache)
            return;
        if (fullFold) {
            mrf::detail::foldCacheStats(cache->stats());
            return;
        }
        const auto &ids = mrf::detail::SolverMetricIds::get();
        obs::Registry &reg = obs::Registry::global();
        const mrf::EnergyCacheStats &s = cache->stats();
        reg.add(ids.cacheHits, s.cleanHits);
        reg.add(ids.cacheRecomputed, s.recomputed);
        reg.add(ids.cacheInvalidations, s.invalidations);
    }
};

// ------------------------------------------------------------------
// Message payloads

std::vector<unsigned char>
buildJoin(TileWork &work, const ShardSpec &spec,
          const StripeCounters &tot)
{
    util::ByteWriter w;
    w.u64(tot.pixelUpdates);
    w.u64(tot.labelChanges);
    if (spec.wantStats) {
        mrf::SamplerStats s = work.cloneStatsSum();
        w.u64(s.samples);
        w.u64(s.noSample);
        w.u64(s.ties);
        const mrf::EnergyCacheStats *c =
            work.cache ? &work.cache->stats() : nullptr;
        w.u64(c ? c->cleanHits.load() : 0);
        w.u64(c ? c->recomputed.load() : 0);
        w.u64(c ? c->invalidations.load() : 0);
    }
    if (spec.wantEnergy) {
        w.u32(static_cast<std::uint32_t>(work.hi - work.lo));
        for (int y = work.lo; y < work.hi; ++y)
            w.f64(work.problem.rowEnergy(work.labels, y));
    }
    return w.take();
}

std::vector<unsigned char>
buildGather(TileWork &work)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(work.lo));
    w.u32(static_cast<std::uint32_t>(work.hi - work.lo));
    for (int y = work.lo; y < work.hi; ++y)
        for (int x = 0; x < work.problem.width(); ++x)
            w.i32(work.labels(x, y));
    w.u32(static_cast<std::uint32_t>(work.k1 - work.k0));
    std::vector<std::uint64_t> state;
    for (int k = work.k0; k < work.k1; ++k) {
        state.clear();
        work.clones[static_cast<std::size_t>(k)]->saveState(state);
        w.words(state);
    }
    return w.take();
}

// ------------------------------------------------------------------
// Worker rank

/**
 * The full life of a worker rank (loopback thread or forked socket
 * process): run the sweep loop over its tile, JOIN every sweep,
 * GATHER when rank 0 needs the labels, fold metrics, and — on the
 * crash drill — _Exit(17) right after the die-sweep state reached
 * rank 0.  Returns normally otherwise (the socket caller _Exit(0)s).
 */
void
runWorkerRank(const mrf::SolverConfig &config,
              const ShardOptions &options, const ShardSpec &spec,
              const TilePartition &part,
              const mrf::MrfProblem &problem, ShardTransport &tr,
              img::LabelMap &labels,
              std::vector<std::unique_ptr<mrf::LabelSampler>> &clones)
{
    obs::Registry &reg = obs::Registry::global();
    std::vector<obs::MetricSnapshot> baseline;
    if (!tr.sharedRegistry())
        baseline = reg.snapshot();

    TileWork work(config, problem, part, tr, labels, clones,
                  tr.rank());
    if (!work.empty()) {
        for (int s = spec.startSweep; s < config.annealing.sweeps;
             ++s) {
            const double temperature =
                config.annealing.temperature(s);
            for (int color = 0; color < 2; ++color)
                work.runPhase(s, color, temperature);
            // The JOIN's per-row energies read the ghost rows, so the
            // posted halos must land before they are computed.
            work.waitGhosts();
            work.foldShards();
            StripeCounters tot = work.takeSweepCounters();
            std::vector<unsigned char> join =
                buildJoin(work, spec, tot);
            tr.send(0, tag::kJoin, join.data(), join.size());
            if (gatherNeeded(spec, config, s)) {
                std::vector<unsigned char> gather =
                    buildGather(work);
                tr.send(0, tag::kGather, gather.data(),
                        gather.size());
            }
            if (tr.rank() == options.dieRank &&
                dieSweep(options, spec, config, s)) {
                // Crash drill: this rank's sweep state is fully in
                // flight to rank 0; vanish like a lost machine whose
                // last checkpoint survived.  The join above consumed
                // every posted ghost, so the links close clean: FIN,
                // not an RST that could discard the JOIN/GATHER/DIE
                // frames rank 0 has not read yet.
                tr.send(0, tag::kDie, nullptr, 0);
                std::_Exit(17);
            }
        }
    }
    work.foldCacheCounters(tr.rank() == firstNonEmptyRank(part));
    if (!tr.sharedRegistry()) {
        std::vector<unsigned char> delta = serializeRegistryDelta(
            obs::diffSnapshots(baseline, reg.snapshot()));
        tr.send(0, tag::kRegistry, delta.data(), delta.size());
    }
}

} // namespace

// ------------------------------------------------------------------
// Coordinator (rank 0) + public entry points

img::LabelMap
ShardedCheckerboardSolver::run(const mrf::MrfProblem &problem,
                               mrf::LabelSampler &sampler,
                               img::LabelMap &labels,
                               mrf::SolverTrace *caller_trace) const
{
    RETSIM_ASSERT(config_.threads >= 0 && config_.stripes >= 0,
                  "threads/stripes cannot be negative");
    if (options_.shards <= 1 && options_.dieRank < 0) {
        // Single shard: the striped single-process solver IS the
        // reference semantics; no transport needed.
        return mrf::CheckerboardGibbsSolver(config_).run(
            problem, sampler, labels, caller_trace);
    }

    RETSIM_ASSERT(labels.width() == problem.width() &&
                      labels.height() == problem.height(),
                  "label map size mismatch");
    RETSIM_ASSERT(problem.neighborhood() ==
                      mrf::Neighborhood::Four,
                  "sharding uses the two-color chromatic schedule, "
                  "which is only valid on the 4-neighborhood");
    RETSIM_ASSERT(options_.shards >= 1, "bad shard count");
    const int m = problem.numLabels();
    const int height = problem.height();
    const int width = problem.width();
    rng::Xoshiro256 gen(config_.seed);
    const bool checkpointing = config_.checkpointEvery > 0;
    if (checkpointing && !config_.checkpointSink &&
        config_.checkpointPath.empty())
        RETSIM_FATAL("checkpointEvery is set but neither "
                     "checkpointPath nor checkpointSink is "
                     "configured");
    if (options_.dieRank >= 0) {
        RETSIM_ASSERT(options_.transport ==
                          ShardOptions::Transport::Socket,
                      "the crash drill kills a worker PROCESS; use "
                      "the socket transport");
        RETSIM_ASSERT(options_.dieRank >= 1 &&
                          options_.dieRank < options_.shards,
                      "dieRank must name a worker rank");
        RETSIM_ASSERT(checkpointing && options_.dieAtSweep > 0,
                      "the crash drill needs checkpointing and a "
                      "positive dieAtSweep");
    }

    // Sharded runs ALWAYS use the striped decomposition (the legacy
    // single-stream serial path has no partition identity), with the
    // same effective stripe count rule as the single-process solver —
    // so snapshots and results interchange with serial striped runs.
    const int stripes = std::min(
        config_.stripes > 0 ? config_.stripes : std::min(height, 16),
        height);
    const TilePartition part(height, stripes, options_.shards);

    const mrf::detail::SolverMetricIds &ids =
        mrf::detail::SolverMetricIds::get();
    obs::Registry &reg = obs::Registry::global();
    mrf::detail::SweepTelemetry telemetry(problem, sampler,
                                          "checkerboard");
    mrf::SolverTrace local_trace;
    mrf::SolverTrace *trace =
        caller_trace ? caller_trace
                     : ((telemetry.active() || checkpointing)
                            ? &local_trace
                            : nullptr);

    const mrf::SolverCheckpoint *resume = config_.resume.get();
    int start_sweep = 0;
    if (resume) {
        mrf::detail::validateResume(*resume, "checkerboard", config_,
                                    width, height, m, sampler.name(),
                                    stripes);
        labels = resume->labels;
        if (!gen.loadState(resume->solverGen))
            RETSIM_FATAL("resume snapshot: solver generator state "
                         "does not fit ",
                         gen.name());
        if (!sampler.loadState(resume->samplerState))
            RETSIM_FATAL("resume snapshot: sampler state does not "
                         "fit sampler '",
                         sampler.name(), "'");
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

    // All S sampler clones are created on rank 0 BEFORE spawn, in
    // ascending stripe order — the exact clone sequence of the serial
    // striped run — and every rank inherits them (fork / shared
    // address space), each using only its own stripes' clones.
    std::vector<std::unique_ptr<mrf::LabelSampler>> clones(
        static_cast<std::size_t>(stripes));
    for (int k = 0; k < stripes; ++k)
        clones[static_cast<std::size_t>(k)] =
            sampler.clone(static_cast<std::uint64_t>(k));
    if (resume) {
        RETSIM_ASSERT(static_cast<int>(
                          resume->stripeSamplerState.size()) ==
                          stripes,
                      "stripe-state table size mismatch");
        for (int k = 0; k < stripes; ++k) {
            if (!clones[static_cast<std::size_t>(k)]->loadState(
                    resume->stripeSamplerState[k]))
                RETSIM_FATAL("resume snapshot: stripe ", k,
                             " sampler state does not fit sampler '",
                             clones[static_cast<std::size_t>(k)]
                                 ->name(),
                             "'");
        }
    }

    ShardSpec spec;
    spec.startSweep = start_sweep;
    spec.wantEnergy = trace != nullptr;
    spec.wantStats = telemetry.active();
    spec.gatherObserver = static_cast<bool>(config_.sweepObserver);
    spec.checkpointing = checkpointing;

    const int N = options_.shards;

    // ---- spawn the mesh ------------------------------------------
    std::unique_ptr<LoopbackMesh> mesh;
    std::vector<img::LabelMap> workerLabels;
    std::vector<std::thread> workerThreads;
    SocketBoot boot;
    ShardTransport *tr = nullptr;
    if (options_.transport == ShardOptions::Transport::Loopback) {
        mesh = std::make_unique<LoopbackMesh>(N);
        workerLabels.assign(static_cast<std::size_t>(N - 1), labels);
        for (int r = 1; r < N; ++r)
            workerThreads.emplace_back([&, r] {
                runWorkerRank(config_, options_, spec, part, problem,
                              mesh->transport(r),
                              workerLabels[static_cast<std::size_t>(
                                  r - 1)],
                              clones);
            });
        tr = &mesh->transport(0);
    } else {
        boot = spawnSocketMesh(N, part);
        if (boot.rank != 0) {
            runWorkerRank(config_, options_, spec, part, problem,
                          *boot.transport, labels, clones);
            // Worker processes never return into the caller.
            std::_Exit(0);
        }
        tr = boot.transport.get();
    }

    // ---- rank 0 ---------------------------------------------------
    TileWork work(config_, problem, part, *tr, labels, clones, 0);

    auto capture = [&](int done) {
        mrf::SolverCheckpoint cp;
        cp.solverKind = "checkerboard";
        cp.samplerName = sampler.name();
        cp.seed = config_.seed;
        cp.t0 = config_.annealing.t0;
        cp.tEnd = config_.annealing.tEnd;
        cp.sweepsTotal = config_.annealing.sweeps;
        cp.width = width;
        cp.height = height;
        cp.numLabels = m;
        cp.stripes = stripes;
        cp.randomScan = config_.randomScan;
        cp.sweepsDone = done;
        cp.labels = labels;
        gen.saveState(cp.solverGen);
        sampler.saveState(cp.samplerState);
        if (trace)
            cp.trace = *trace;
        return cp;
    };

    // Latest per-stripe sampler states gathered from workers,
    // refreshed on every GATHER sweep; local stripes read the live
    // clones instead.
    std::vector<std::vector<std::uint64_t>> remoteStripeState(
        static_cast<std::size_t>(stripes));
    std::vector<double> rowEnergies(
        static_cast<std::size_t>(height), 0.0);
    // Cumulative remote-side stats, rebuilt each sweep from the JOIN
    // frames; the telemetry aggregate below mirrors serial's single
    // cache/sampler totals.
    mrf::EnergyCacheStats aggCache;

    // expectRank >= 0: only that rank's status is asserted (the
    // others were torn down by fd closure and exit nonzero).
    // expectRank == -1: every worker must exit expectStatus.
    auto waitChildren = [&](int expectRank, int expectStatus) {
        for (std::size_t i = 0; i < boot.children.size(); ++i) {
            int status = 0;
            pid_t pid = boot.children[i];
            if (::waitpid(pid, &status, 0) != pid)
                RETSIM_FATAL("shard: waitpid failed for rank ",
                             i + 1);
            const int r = static_cast<int>(i) + 1;
            if (expectRank == -1 || r == expectRank) {
                RETSIM_ASSERT(WIFEXITED(status) &&
                                  WEXITSTATUS(status) ==
                                      expectStatus,
                              "shard: rank ", r,
                              " did not exit with the expected "
                              "status ",
                              expectStatus);
            }
        }
    };

    for (int s = start_sweep; s < config_.annealing.sweeps; ++s) {
        const double temperature = config_.annealing.temperature(s);
        for (int color = 0; color < 2; ++color)
            work.runPhase(s, color, temperature);
        // The join's per-row energies read the ghost rows, so the
        // posted halos must land before they are computed.
        work.waitGhosts();

        // ---- sweep join ------------------------------------------
        StripeCounters tot = work.takeSweepCounters();
        if (spec.wantEnergy)
            for (int y = work.lo; y < work.hi; ++y)
                rowEnergies[static_cast<std::size_t>(y)] =
                    problem.rowEnergy(labels, y);
        mrf::SamplerStats remoteStats;
        std::uint64_t remoteHits = 0, remoteRecomputed = 0,
                      remoteInvalidations = 0;
        for (int r = 1; r < N; ++r) {
            if (part.empty(r))
                continue;
            std::vector<unsigned char> payload =
                tr->recv(r, tag::kJoin);
            util::ByteReader rd(payload);
            tot.pixelUpdates += rd.u64();
            tot.labelChanges += rd.u64();
            if (spec.wantStats) {
                remoteStats +=
                    mrf::SamplerStats{rd.u64(), rd.u64(), rd.u64()};
                remoteHits += rd.u64();
                remoteRecomputed += rd.u64();
                remoteInvalidations += rd.u64();
            }
            if (spec.wantEnergy) {
                const int rows = static_cast<int>(rd.u32());
                RETSIM_ASSERT(rows == part.rowEnd(r) -
                                          part.rowBegin(r),
                              "shard: JOIN row count mismatch");
                for (int i = 0; i < rows; ++i)
                    rowEnergies[static_cast<std::size_t>(
                        part.rowBegin(r) + i)] = rd.f64();
            }
            RETSIM_ASSERT(rd.ok() && rd.atEnd(),
                          "shard: malformed JOIN from rank ", r);
        }
        if (trace) {
            trace->pixelUpdates += tot.pixelUpdates;
            trace->labelChanges += tot.labelChanges;
            // Reduced in row order, exactly like totalEnergy(): the
            // folded sum is bit-identical to the serial value.
            double e = 0.0;
            for (double p : rowEnergies)
                e += p;
            trace->energyPerSweep.push_back(e);
            trace->temperaturePerSweep.push_back(temperature);
        }
        work.foldShards();
        if (gatherNeeded(spec, config_, s)) {
            for (int r = 1; r < N; ++r) {
                if (part.empty(r))
                    continue;
                decodeGather(
                    tr->recv(r, tag::kGather), r, part.rowBegin(r),
                    part.rowEnd(r), m, labels,
                    std::span(remoteStripeState)
                        .subspan(static_cast<std::size_t>(
                                     part.stripeBegin(r)),
                                 static_cast<std::size_t>(
                                     part.stripeEnd(r) -
                                     part.stripeBegin(r))));
            }
        }
        if (telemetry.active()) {
            mrf::SamplerStats cum = sampler.stats();
            cum += work.cloneStatsSum();
            cum += remoteStats;
            const mrf::EnergyCacheStats *cacheStats = nullptr;
            if (config_.energyCache && m <= 256) {
                const mrf::EnergyCacheStats &own =
                    work.cache ? work.cache->stats() : aggCache;
                aggCache.cleanHits.store(
                    (work.cache ? own.cleanHits.load() : 0) +
                    remoteHits);
                aggCache.recomputed.store(
                    (work.cache ? own.recomputed.load() : 0) +
                    remoteRecomputed);
                aggCache.invalidations.store(
                    (work.cache ? own.invalidations.load() : 0) +
                    remoteInvalidations);
                cacheStats = &aggCache;
            }
            telemetry.recordSweep(s, temperature,
                                  trace->energyPerSweep.back(),
                                  trace->pixelUpdates,
                                  trace->labelChanges, cum,
                                  cacheStats);
        }
        if (config_.sweepObserver)
            config_.sweepObserver(s, temperature, labels);
        if (checkpointing &&
            mrf::detail::shouldCheckpoint(config_, s + 1)) {
            mrf::SolverCheckpoint cp = capture(s + 1);
            cp.stripeSamplerState.resize(
                static_cast<std::size_t>(stripes));
            for (int k = 0; k < stripes; ++k) {
                if (k >= work.k0 && k < work.k1)
                    clones[static_cast<std::size_t>(k)]->saveState(
                        cp.stripeSamplerState[static_cast<
                            std::size_t>(k)]);
                else
                    cp.stripeSamplerState[static_cast<std::size_t>(
                        k)] =
                        remoteStripeState[static_cast<std::size_t>(
                            k)];
            }
            mrf::detail::emitCheckpoint(config_, cp);
        }
        if (dieSweep(options_, spec, config_, s)) {
            // The drill checkpoint is on disk; acknowledge the dying
            // worker, tear down the mesh (surviving workers exit on
            // EOF), and propagate its exit code like a job scheduler
            // would.
            tr->recv(options_.dieRank, tag::kDie);
            boot.transport.reset();
            waitChildren(options_.dieRank, 17);
            std::exit(17);
        }
    }

    reg.add(ids.runs, 1);
    reg.add(ids.sweeps,
            static_cast<std::uint64_t>(config_.annealing.sweeps -
                                       start_sweep));
    work.foldCacheCounters(firstNonEmptyRank(part) == 0);

    if (tr->sharedRegistry()) {
        for (std::thread &t : workerThreads)
            t.join();
    } else {
        for (int r = 1; r < N; ++r)
            reg.applyDelta(deserializeRegistryDelta(
                tr->recv(r, tag::kRegistry)));
    }

    // Restore every remote stripe clone to its final worker-side
    // state (the final sweep always GATHERs), then fold all S clones
    // into the caller's sampler in ascending stripe order — the
    // serial striped run's exact mergeStats sequence.  A resume from
    // an already-complete snapshot runs zero sweeps, so no GATHER
    // fired; the clones keep the state restored from the snapshot,
    // exactly as the serial striped solver's do.
    const bool gathered = start_sweep < config_.annealing.sweeps;
    for (int k = 0; k < stripes; ++k) {
        if (gathered && (k < work.k0 || k >= work.k1)) {
            if (!clones[static_cast<std::size_t>(k)]->loadState(
                    remoteStripeState[static_cast<std::size_t>(k)]))
                RETSIM_FATAL("shard: stripe ", k,
                             " final sampler state does not fit");
        }
        sampler.mergeStats(*clones[static_cast<std::size_t>(k)]);
    }

    if (options_.transport == ShardOptions::Transport::Socket) {
        boot.transport.reset();
        waitChildren(-1, 0);
    }
    return labels;
}

img::LabelMap
ShardedCheckerboardSolver::run(const mrf::MrfProblem &problem,
                               mrf::LabelSampler &sampler,
                               mrf::SolverTrace *trace) const
{
    img::LabelMap labels(problem.width(), problem.height(), 0);
    return run(problem, sampler, labels, trace);
}

mrf::SolverBackend
makeShardBackend(const ShardOptions &options)
{
    return [options](const mrf::SolverConfig &config,
                     const mrf::MrfProblem &problem,
                     mrf::LabelSampler &sampler,
                     img::LabelMap &labels,
                     mrf::SolverTrace *trace) {
        return ShardedCheckerboardSolver(config, options)
            .run(problem, sampler, labels, trace);
    };
}

} // namespace shard
} // namespace retsim

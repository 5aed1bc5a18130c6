#include "shard/sharded_solver.hh"

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
#include "mrf/solver_run.hh"
#include "obs/metrics.hh"
#include "shard/payload_codec.hh"
#include "shard/tile_partition.hh"
#include "shard/transport.hh"
#include "util/checkpoint.hh"
#include "util/logging.hh"

namespace retsim {
namespace shard {

namespace {

using detail::decodeGather;
using detail::decodeGhostRow;
using detail::deserializeRegistryDelta;
using detail::serializeRegistryDelta;
using mrf::detail::StripeCounters;

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

/**
 * One rank's compute state and per-phase work: a StripeExecutor over
 * its contiguous run of global stripes, a PRIVATE full-size label map
 * (ghost rows refreshed by message, so loopback threads and socket
 * processes execute identical code paths), and what sharding adds to
 * the executor: ghost rows, the boundary-first order and the rank's
 * transport counters.
 */
struct TileWork
{
    const mrf::MrfProblem &problem;
    ShardTransport &tr;
    img::LabelMap &labels;

    int k0, k1;  ///< global stripe range [k0, k1)
    int lo, hi;  ///< owned row range [lo, hi)
    int up, down; ///< neighbor ranks (-1 = grid boundary)

    mrf::detail::StripeExecutor exec;
    /** One ghost row's inner-row marks, landed by applyDeferred. */
    std::vector<std::uint64_t> ghostMarks;
    /** One received ghost row's labels, validated before use. */
    std::vector<int> ghostRow;

    /** True while a posted halo has not been consumed yet (cleared on
     *  (re)start, so the first phase after resume never waits). */
    bool ghostsInFlight = false;

    /** Dirty marks the ghost rows wrote this sweep: the rank's part
     *  of its tally that no stripe owns (see takeCounters()). */
    std::uint64_t ghostInvalidations = 0;

    // Transport-behavior tallies, folded by foldTransport() per sweep.
    std::uint64_t haloBytesSent = 0;
    std::uint64_t haloSendNs = 0;
    std::uint64_t haloWaitNs = 0;
    std::uint64_t interiorNs = 0;

    TileWork(const mrf::SolverConfig &config,
             const mrf::MrfProblem &prob, const TilePartition &p,
             ShardTransport &transport, img::LabelMap &lab,
             const std::vector<std::unique_ptr<mrf::LabelSampler>> &clones,
             int r)
        : problem(prob), tr(transport), labels(lab),
          k0(p.stripeBegin(r)), k1(p.stripeEnd(r)),
          lo(p.rowBegin(r)), hi(p.rowEnd(r)),
          up(p.neighborAbove(r)), down(p.neighborBelow(r)),
          exec(config, prob, lab, std::span(clones).subspan(k0, k1 - k0),
               p.stripes(), k0, k1)
    {
    }

    bool empty() const { return k0 == k1; }

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
        mrf::EnergyPlaneCache *cache = exec.cache();
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
            ghostInvalidations += cache->applyDeferred(ghostMarks);
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
        exec.runStripe(sweep, color, k0, temperature);
        if (k1 - k0 > 1)
            exec.runStripe(sweep, color, k1 - 1, temperature);
        if (up >= 0)
            postBoundaryRow(up, lo);
        if (down >= 0)
            postBoundaryRow(down, hi - 1);
        if (up >= 0 || down >= 0)
            ghostsInFlight = true;
        const auto t0 = std::chrono::steady_clock::now();
        exec.runStripes(sweep, color, k0 + 1, k1 - 1, temperature);
        interiorNs += nsSince(t0);
        tr.progress();
        exec.applyOwnDeferred();
    }

    /** This rank's sweep tally: its stripes' and its ghost rows'
     *  marks (sweep join). */
    StripeCounters
    takeCounters()
    {
        StripeCounters tot = exec.takeCounters();
        tot.cacheInvalidations += ghostInvalidations;
        ghostInvalidations = 0;
        return tot;
    }

    /** Fold the transport tallies into this rank's registry. */
    void
    foldTransport()
    {
        obs::Registry &reg = obs::Registry::global();
        const ShardMetricIds &sids = ShardMetricIds::get();
        reg.add(sids.haloBytesSent, haloBytesSent);
        reg.add(sids.haloSendNs, haloSendNs);
        reg.add(sids.haloWaitNs, haloWaitNs);
        reg.add(sids.interiorNs, interiorNs);
        haloBytesSent = haloSendNs = haloWaitNs = interiorNs = 0;
    }
};

// ------------------------------------------------------------------
// Message payloads

/** A worker's JOIN: its sweep tally, its clones' cumulative sampler
 *  stats and, when rank 0 keeps a trace, its rows' energies. */
std::vector<unsigned char>
buildJoin(TileWork &work, const ShardSpec &spec)
{
    util::ByteWriter w;
    const StripeCounters tot = work.takeCounters();
    w.u64(tot.pixelUpdates);
    w.u64(tot.labelChanges);
    w.u64(tot.cacheHits);
    w.u64(tot.cacheRecomputed);
    w.u64(tot.cacheInvalidations);
    const mrf::SamplerStats s = work.exec.cloneStatsSum();
    w.u64(s.samples);
    w.u64(s.noSample);
    w.u64(s.ties);
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
    for (const auto &clone : work.exec.clones()) {
        state.clear();
        clone->saveState(state);
        w.words(state);
    }
    return w.take();
}

// ------------------------------------------------------------------
// Worker rank

/**
 * The full life of a worker rank (loopback thread or forked socket
 * process): run the sweep loop over its tile, JOIN every sweep,
 * GATHER when rank 0 needs the labels, fold its transport counters,
 * and — on the crash drill — _Exit(17) right after the die-sweep
 * state reached rank 0.  Returns normally otherwise (the socket
 * caller _Exit(0)s).  Its solver counts reach the registry only
 * through its JOINs and rank 0's sweep tail.
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
            work.foldTransport();
            std::vector<unsigned char> join = buildJoin(work, spec);
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
    RETSIM_ASSERT(options_.shards >= 1, "bad shard count");
    // Sharded runs ALWAYS use the striped decomposition (the legacy
    // single-stream serial path has no partition identity), with the
    // same effective stripe count rule as the single-process solver —
    // so snapshots and results interchange with serial striped runs.
    const int stripes =
        mrf::detail::effectiveStripes(config_, problem.height());
    if (options_.shards == 1 && options_.dieRank < 0) {
        // Single shard: the striped single-process solver IS the
        // reference semantics; no transport needed.
        mrf::SolverConfig striped = config_;
        striped.stripes = stripes;
        return mrf::CheckerboardGibbsSolver(striped).run(
            problem, sampler, labels, caller_trace);
    }

    RETSIM_ASSERT(problem.neighborhood() ==
                      mrf::Neighborhood::Four,
                  "sharding uses the two-color chromatic schedule, "
                  "which is only valid on the 4-neighborhood");
    if (options_.dieRank >= 0) {
        RETSIM_ASSERT(options_.transport ==
                          ShardOptions::Transport::Socket,
                      "the crash drill kills a worker PROCESS; use "
                      "the socket transport");
        RETSIM_ASSERT(options_.dieRank >= 1 &&
                          options_.dieRank < options_.shards,
                      "dieRank must name a worker rank");
        RETSIM_ASSERT(config_.checkpointEvery > 0 &&
                          options_.dieAtSweep > 0,
                      "the crash drill needs checkpointing and a "
                      "positive dieAtSweep");
    }
    const int m = problem.numLabels();
    const int height = problem.height();
    const TilePartition part(height, stripes, options_.shards);
    mrf::detail::SolverRun scaffold(config_, "checkerboard", problem,
                                    sampler, labels, caller_trace,
                                    stripes);

    // The scaffold made all S sampler clones on rank 0 BEFORE spawn,
    // in ascending stripe order — the exact clone sequence of the
    // serial striped run — and every rank inherits them (fork /
    // shared address space), each using only its own stripes' clones.
    std::vector<std::unique_ptr<mrf::LabelSampler>> &clones =
        scaffold.clones;

    ShardSpec spec;
    spec.startSweep = scaffold.startSweep;
    spec.wantEnergy = scaffold.trace != nullptr;
    spec.gatherObserver = static_cast<bool>(config_.sweepObserver);
    spec.checkpointing = scaffold.checkpointing;

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

    // Latest per-stripe sampler states gathered from workers,
    // refreshed on every GATHER sweep; local stripes read the live
    // clones instead.
    std::vector<std::vector<std::uint64_t>> remoteStripeState(
        static_cast<std::size_t>(stripes));
    std::vector<double> rowEnergies(
        static_cast<std::size_t>(height), 0.0);

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

    for (int s = scaffold.startSweep; s < config_.annealing.sweeps;
         ++s) {
        const double temperature = config_.annealing.temperature(s);
        for (int color = 0; color < 2; ++color)
            work.runPhase(s, color, temperature);
        // The join's per-row energies read the ghost rows, so the
        // posted halos must land before they are computed.
        work.waitGhosts();

        // ---- sweep join ------------------------------------------
        // Every rank's tally and clone stats, summed: what one
        // process's stripes would have counted.
        StripeCounters tot = work.takeCounters();
        if (spec.wantEnergy)
            for (int y = work.lo; y < work.hi; ++y)
                rowEnergies[static_cast<std::size_t>(y)] =
                    problem.rowEnergy(labels, y);
        mrf::SamplerStats cloneStats = work.exec.cloneStatsSum();
        for (int r = 1; r < N; ++r) {
            if (part.empty(r))
                continue;
            std::vector<unsigned char> payload =
                tr->recv(r, tag::kJoin);
            util::ByteReader rd(payload);
            tot += StripeCounters{rd.u64(), rd.u64(), rd.u64(), rd.u64(),
                                  rd.u64()};
            cloneStats += mrf::SamplerStats{rd.u64(), rd.u64(), rd.u64()};
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
        work.foldTransport();
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
        auto energy = [&] {
            // Reduced in row order, exactly like totalEnergy(): the
            // folded sum is bit-identical to the serial value.
            double e = 0.0;
            for (double p : rowEnergies)
                e += p;
            return e;
        };
        scaffold.endSweep(
            s, temperature, tot, energy, cloneStats,
            [&](mrf::SolverCheckpoint &cp) {
                // Rank 0's own stripes from the live clones, the
                // others as last gathered.
                cp.stripeSamplerState = remoteStripeState;
                for (int k = work.k0; k < work.k1; ++k) {
                    std::vector<std::uint64_t> &st =
                        cp.stripeSamplerState[static_cast<std::size_t>(
                            k)];
                    st.clear();
                    clones[static_cast<std::size_t>(k)]->saveState(st);
                }
            });
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

    if (tr->sharedRegistry()) {
        for (std::thread &t : workerThreads)
            t.join();
    } else {
        for (int r = 1; r < N; ++r)
            obs::Registry::global().applyDelta(
                deserializeRegistryDelta(tr->recv(r, tag::kRegistry)));
    }

    // Restore every remote stripe clone to its final worker-side
    // state (the final sweep always GATHERs) before finish() folds
    // all S clones into the caller's sampler — the serial striped
    // run's exact mergeStats sequence.  A resume from an
    // already-complete snapshot runs zero sweeps, so no GATHER fired;
    // the clones keep the state restored from the snapshot, exactly
    // as the serial striped solver's do.
    if (scaffold.startSweep < config_.annealing.sweeps) {
        for (int k = 0; k < stripes; ++k) {
            if (k >= work.k0 && k < work.k1)
                continue;
            if (!clones[static_cast<std::size_t>(k)]->loadState(
                    remoteStripeState[static_cast<std::size_t>(k)]))
                RETSIM_FATAL("shard: stripe ", k,
                             " final sampler state does not fit");
        }
    }
    scaffold.finish();

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

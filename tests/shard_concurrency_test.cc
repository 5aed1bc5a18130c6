/**
 * @file
 * ThreadSanitizer coverage for the loopback-transport sharded solver:
 * the rank threads exchange ghost rows and sweep results through the
 * in-memory mesh while rank 0 folds traces, telemetry and sampler
 * stats, so a full sharded anneal under TSan exercises every
 * cross-rank synchronization point the transport has.  The threaded
 * case additionally runs an intra-rank thread pool, putting the async
 * halo posts, the deferred ghost waits and the pool's stripe dispatch
 * under TSan at once.  Runs in the "concurrency" ctest label
 * alongside the striped-solver suite.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/sampler_software.hh"
#include "img/image.hh"
#include "mrf/checkerboard.hh"
#include "mrf/problem.hh"
#include "shard/sharded_solver.hh"

namespace {

using namespace retsim;

mrf::MrfProblem
makeProblem(int width, int height, int num_labels)
{
    mrf::MrfProblem p(
        width, height,
        mrf::PairwiseTable(mrf::DistanceKind::Absolute, num_labels,
                           1.5),
        "shard-concurrency-test");
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            for (int l = 0; l < num_labels; ++l)
                p.singleton(x, y, l) = static_cast<float>(
                    ((x * 3 + y * 17 + l * 13) % 23) * 0.25);
    return p;
}

// Runs the sharded anneal on `threads` intra-rank threads at 2 and 4
// loopback shards and expects the serial striped run's bytes.
void
expectLoopbackMatchesStriped(int threads)
{
    const mrf::MrfProblem problem = makeProblem(24, 20, 4);
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = 10.0;
    cfg.annealing.tEnd = 0.9;
    cfg.annealing.sweeps = 6;
    cfg.seed = 1234;
    cfg.stripes = 5;

    mrf::SolverTrace refTrace;
    core::SoftwareSampler refSampler;
    img::LabelMap ref = mrf::CheckerboardGibbsSolver(cfg).run(
        problem, refSampler, &refTrace);

    cfg.threads = threads;
    for (int shards : {2, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        shard::ShardOptions options;
        options.shards = shards;
        options.transport = shard::ShardOptions::Transport::Loopback;
        mrf::SolverTrace trace;
        core::SoftwareSampler sampler;
        img::LabelMap got =
            shard::ShardedCheckerboardSolver(cfg, options)
                .run(problem, sampler, &trace);
        EXPECT_EQ(got.data(), ref.data());
        EXPECT_EQ(trace.energyPerSweep, refTrace.energyPerSweep);
        EXPECT_EQ(trace.labelChanges, refTrace.labelChanges);
        EXPECT_EQ(trace.pixelUpdates, refTrace.pixelUpdates);
    }
}

TEST(ShardedSolverConcurrency, LoopbackRanksRaceFreeAndDeterministic)
{
    expectLoopbackMatchesStriped(1);
}

TEST(ShardedSolverConcurrency,
     OverlappedThreadedLoopbackRaceFreeAndDeterministic)
{
    expectLoopbackMatchesStriped(2);
}

} // namespace

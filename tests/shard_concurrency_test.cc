/**
 * @file
 * ThreadSanitizer coverage for the loopback-transport sharded solver:
 * the rank threads exchange ghost rows and sweep results through the
 * in-memory mesh while rank 0 folds traces, telemetry and sampler
 * stats, so a full sharded anneal under TSan exercises every
 * cross-rank synchronization point the transport has.  The threaded
 * case additionally runs an intra-rank thread pool, putting the async
 * halo posts, the deferred ghost waits and the pool's stripe dispatch
 * under TSan at once.  Both cases also run the RSU fast path, whose
 * rank threads race their first inserts into one shared packed race
 * table and bind through one shared rate-binding handle, and each of
 * whose ranks keeps an energy-plane cache over its own rows only.
 * Runs in the "concurrency" ctest label alongside the striped-solver
 * suite.
 */

#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/race_fastpath.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/image.hh"
#include "mrf/checkerboard.hh"
#include "mrf/problem.hh"
#include "obs/telemetry.hh"
#include "shard/sharded_solver.hh"
#include "support/sweep_records.hh"

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
// loopback shards and expects the serial striped run's bytes, with the
// software sampler and with the RSU new design's fast path.
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

    core::RsuConfig fast = core::RsuConfig::newDesign();
    fast.raceMode = core::RaceMode::FastPath;
    struct Input
    {
        std::string name;
        std::function<std::unique_ptr<mrf::LabelSampler>()> make;
    };
    const Input inputs[] = {
        {"software",
         [] { return std::make_unique<core::SoftwareSampler>(); }},
        {"rsu-fastpath",
         [&] { return std::make_unique<core::RsuSampler>(fast); }},
    };
    const std::string stream = test::sweepStream(problem, "checkerboard");
    for (const Input &in : inputs) {
        SCOPED_TRACE(in.name);
        mrf::SolverConfig run_cfg = cfg;
        mrf::SolverTrace refTrace;
        const std::unique_ptr<mrf::LabelSampler> refSampler = in.make();
        obs::TelemetryRecorder refRec;
        test::RegistryCounts before = test::RegistryCounts::read();
        obs::setActiveRecorder(&refRec);
        img::LabelMap ref = mrf::CheckerboardGibbsSolver(run_cfg).run(
            problem, *refSampler, &refTrace);
        obs::setActiveRecorder(nullptr);
        const test::RegistryCounts refAdded =
            test::RegistryCounts::read() - before;
        const std::vector<test::Record> refRecords =
            test::recordsOf(refRec, stream);
        test::expectSinksAgree(refRecords, refTrace, refAdded);

        run_cfg.threads = threads;
        for (int shards : {2, 4}) {
            SCOPED_TRACE("shards=" + std::to_string(shards));
            // Empty tables, so the ranks race the packed inserts.
            core::RaceTableCache::global().clear();
            shard::ShardOptions options;
            options.shards = shards;
            options.transport = shard::ShardOptions::Transport::Loopback;
            mrf::SolverTrace trace;
            const std::unique_ptr<mrf::LabelSampler> sampler = in.make();
            obs::TelemetryRecorder rec;
            before = test::RegistryCounts::read();
            obs::setActiveRecorder(&rec);
            img::LabelMap got =
                shard::ShardedCheckerboardSolver(run_cfg, options)
                    .run(problem, *sampler, &trace);
            obs::setActiveRecorder(nullptr);
            EXPECT_EQ(got.data(), ref.data());
            EXPECT_EQ(trace.energyPerSweep, refTrace.energyPerSweep);
            EXPECT_EQ(trace.labelChanges, refTrace.labelChanges);
            EXPECT_EQ(trace.pixelUpdates, refTrace.pixelUpdates);
            // The ranks' tallies, summed by rank 0, are the striped
            // run's counts in every sink.
            EXPECT_EQ(test::RegistryCounts::read() - before, refAdded);
            test::expectSameRecords(refRecords,
                                    test::recordsOf(rec, stream),
                                    {"lut_hits", "lut_misses"});
        }
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

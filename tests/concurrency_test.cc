/**
 * @file
 * Concurrency tests for the striped chromatic Gibbs solver and the
 * sampler/RNG cloning layer.  Built as a separate ctest binary with
 * the "concurrency" label so the suite can be run in isolation under
 * ThreadSanitizer (cmake -DRETSIM_SANITIZE=thread; ctest -L
 * concurrency).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/denoising.hh"
#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "core/rate_binding.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/problem.hh"
#include "obs/telemetry.hh"
#include "rng/lfsr.hh"
#include "support/sweep_records.hh"
#include "util/shared_table.hh"
#include "util/thread_pool.hh"

namespace {

using namespace retsim;
using namespace retsim::mrf;

/** A small denoising problem with a non-trivial singleton field. */
MrfProblem
denoisingProblem(int side, std::uint64_t seed, int levels = 32)
{
    img::ImageU8 clean(side, side);
    for (int y = 0; y < side; ++y)
        for (int x = 0; x < side; ++x)
            clean(x, y) = static_cast<std::uint8_t>(
                img::textureIntensity(x, y, 0xabc));
    img::ImageU8 noisy = apps::addGaussianNoise(clean, 12.0, seed);
    apps::DenoisingParams params;
    params.levels = levels;
    return apps::buildDenoisingProblem(noisy, params);
}

SolverConfig
annealConfig(int sweeps, std::uint64_t seed)
{
    SolverConfig cfg;
    cfg.annealing.sweeps = sweeps;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.5;
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------------- solver determinism

TEST(ThreadedCheckerboard, BitIdenticalAcrossRunsAndThreadCounts)
{
    MrfProblem p = denoisingProblem(32, 7);
    SolverConfig cfg = annealConfig(8, 42);
    cfg.stripes = 4; // fixed decomposition: results may not depend on
                     // anything else below

    std::vector<img::LabelMap> outs;
    for (int threads : {1, 2, 4, 4}) { // repeated 4: run-to-run check
        cfg.threads = threads;
        core::SoftwareSampler s;
        outs.push_back(CheckerboardGibbsSolver(cfg).run(p, s));
    }
    for (std::size_t i = 1; i < outs.size(); ++i)
        EXPECT_EQ(outs[0].data(), outs[i].data())
            << "labeling diverged at variant " << i;
}

TEST(ThreadedCheckerboard, StripeCountChangesTheChain)
{
    // The stripe count selects the RNG decomposition, so different
    // stripe counts are different (equally valid) chains.
    MrfProblem p = denoisingProblem(24, 3);
    SolverConfig cfg = annealConfig(4, 9);
    cfg.threads = 2;
    cfg.stripes = 2;
    core::SoftwareSampler s1, s2;
    auto a = CheckerboardGibbsSolver(cfg).run(p, s1);
    cfg.stripes = 6;
    auto b = CheckerboardGibbsSolver(cfg).run(p, s2);
    EXPECT_NE(a.data(), b.data());
}

TEST(ThreadedCheckerboard, TraceCountersExactUnderThreading)
{
    // Each stripe counts into its own tally, summed at the sweep join:
    // the trace, the registry and the sweep records all see every
    // update and every energy plane served, exactly once.
    MrfProblem p = denoisingProblem(20, 5);
    SolverConfig cfg = annealConfig(6, 11);
    cfg.threads = 4;
    cfg.stripes = 5;
    core::SoftwareSampler s;
    SolverTrace trace;
    obs::TelemetryRecorder rec;
    const test::RegistryCounts before = test::RegistryCounts::read();
    obs::setActiveRecorder(&rec);
    CheckerboardGibbsSolver(cfg).run(p, s, &trace);
    obs::setActiveRecorder(nullptr);
    const test::RegistryCounts added = test::RegistryCounts::read() - before;
    EXPECT_EQ(trace.pixelUpdates, 6u * 20 * 20);
    ASSERT_EQ(trace.energyPerSweep.size(), 6u);
    EXPECT_GT(trace.labelChanges, 0u);
    EXPECT_EQ(added.cleanHits + added.recomputed, 6u * 20 * 20);
    test::expectSinksAgree(
        test::recordsOf(rec, test::sweepStream(p, "checkerboard")), trace,
        added);
}

TEST(ThreadedCheckerboard, StatisticallyEquivalentToSerial)
{
    // Same problem, serial reference chain vs. striped chain: both
    // must anneal to final energies in the same band.
    MrfProblem p = denoisingProblem(48, 21);
    SolverConfig cfg = annealConfig(30, 77);

    core::SoftwareSampler s1, s2;
    SolverTrace serial_trace, striped_trace;
    CheckerboardGibbsSolver(cfg).run(p, s1, &serial_trace);
    cfg.threads = 4;
    cfg.stripes = 6;
    CheckerboardGibbsSolver(cfg).run(p, s2, &striped_trace);

    double serial_e = serial_trace.energyPerSweep.back();
    double striped_e = striped_trace.energyPerSweep.back();
    // Both anneals must have made real progress...
    EXPECT_LT(serial_e, serial_trace.energyPerSweep.front() * 0.8);
    EXPECT_LT(striped_e, striped_trace.energyPerSweep.front() * 0.8);
    // ...and land within 5% of each other.
    EXPECT_NEAR(striped_e, serial_e, 0.05 * std::abs(serial_e));
}

TEST(ThreadedCheckerboard, AutoStripesIndependentOfThreadCount)
{
    // stripes=0 with threading derives min(height, 16) — the same
    // decomposition for any thread count, so outputs still agree.
    MrfProblem p = denoisingProblem(20, 2);
    SolverConfig cfg = annealConfig(4, 5);
    cfg.stripes = 0;
    cfg.threads = 2;
    core::SoftwareSampler s1, s2;
    auto a = CheckerboardGibbsSolver(cfg).run(p, s1);
    cfg.threads = 4;
    auto b = CheckerboardGibbsSolver(cfg).run(p, s2);
    EXPECT_EQ(a.data(), b.data());
    EXPECT_EQ(CheckerboardGibbsSolver(cfg).effectiveStripes(20), 16);
    EXPECT_EQ(CheckerboardGibbsSolver(cfg).effectiveStripes(9), 9);
}

TEST(ThreadedCheckerboard, RsuSamplerDeterministicWhenStriped)
{
    // The RSU functional model must stay reproducible through the
    // clone/stripe path too (it draws from the stripe's generator).
    // The fast path's clones share the process-wide race tables;
    // emptying them before each run makes the threads race the
    // inserts, and its 48x48, 16-level problem fills a packed table
    // past its first doubling.
    SolverConfig cfg = annealConfig(4, 19);
    cfg.stripes = 4;
    core::RsuConfig fast = core::RsuConfig::newDesign();
    fast.raceMode = core::RaceMode::FastPath;
    struct Input
    {
        core::RsuConfig rsu;
        MrfProblem problem;
    };
    for (const Input &in :
         {Input{core::RsuConfig::newDesign(), denoisingProblem(16, 13)},
          Input{fast, denoisingProblem(48, 13, 16)}}) {
        std::vector<img::LabelMap> outs;
        for (int threads : {1, 3}) {
            cfg.threads = threads;
            core::RaceTableCache::global().clear();
            core::RsuSampler s(in.rsu);
            outs.push_back(
                CheckerboardGibbsSolver(cfg).run(in.problem, s));
        }
        EXPECT_EQ(outs[0].data(), outs[1].data()) << in.rsu.describe();
    }
}

// ----------------------------------------------------- sampler clones

std::vector<float>
rampEnergies(int m)
{
    std::vector<float> e(m);
    for (int i = 0; i < m; ++i)
        e[i] = static_cast<float>((i * 13) % 29);
    return e;
}

/**
 * Draw a label sequence from one sampler, giving it a private
 * generator stream.
 */
std::vector<int>
drawSequence(mrf::LabelSampler &sampler, int draws, std::uint64_t seed)
{
    auto energies = rampEnergies(8);
    rng::Xoshiro256 gen(seed);
    std::vector<int> labels(draws);
    for (int i = 0; i < draws; ++i)
        labels[i] = sampler.sample(energies, 4.0, 0, gen);
    return labels;
}

template <typename MakeSampler>
void
expectCloneIsolation(MakeSampler make)
{
    auto parent = make();
    constexpr int kClones = 6;
    constexpr int kDraws = 400;

    // Serial reference sequences, one per clone index.
    std::vector<std::vector<int>> serial(kClones);
    for (int k = 0; k < kClones; ++k) {
        auto clone = parent->clone(static_cast<std::uint64_t>(k));
        serial[k] = drawSequence(*clone, kDraws,
                                 static_cast<std::uint64_t>(100 + k));
    }

    // The same clone indices drawn concurrently must reproduce the
    // serial sequences exactly — any shared mutable state between
    // clones (scratch vectors, LUT caches, entropy sources) would
    // corrupt them.
    std::vector<std::vector<int>> concurrent(kClones);
    std::vector<std::unique_ptr<mrf::LabelSampler>> clones(kClones);
    for (int k = 0; k < kClones; ++k)
        clones[k] = parent->clone(static_cast<std::uint64_t>(k));
    util::ThreadPool pool(4);
    pool.parallelFor(kClones, [&](std::size_t k) {
        concurrent[k] =
            drawSequence(*clones[k], kDraws,
                         static_cast<std::uint64_t>(100 + k));
    });

    for (int k = 0; k < kClones; ++k) {
        ASSERT_EQ(serial[k].size(), concurrent[k].size());
        EXPECT_EQ(serial[k], concurrent[k]) << "clone " << k;
        for (int l : concurrent[k]) {
            ASSERT_GE(l, 0);
            ASSERT_LT(l, 8);
        }
    }
}

TEST(SamplerClone, SoftwareSamplerIsolatedUnderParallelFor)
{
    expectCloneIsolation(
        [] { return std::make_unique<core::SoftwareSampler>(); });
}

TEST(SamplerClone, RsuSamplerIsolatedUnderParallelFor)
{
    expectCloneIsolation([] {
        return std::make_unique<core::RsuSampler>(
            core::RsuConfig::newDesign());
    });
}

TEST(SamplerClone, CdfSamplerIsolatedUnderParallelFor)
{
    expectCloneIsolation([] {
        return std::make_unique<core::CdfLutSampler>(
            std::make_unique<rng::Mt19937>(1234), 64);
    });
}

TEST(SamplerClone, CdfClonesForkIndependentStreams)
{
    // Clones with different stream indices must not replay the parent
    // stream (or each other's): their draw sequences should differ.
    core::CdfLutSampler parent(
        std::make_unique<rng::Xoshiro256>(55), 64);
    auto c0 = parent.clone(0);
    auto c1 = parent.clone(1);
    auto s0 = drawSequence(*c0, 200, 1);
    auto s1 = drawSequence(*c1, 200, 1);
    EXPECT_NE(s0, s1);

    // Using a clone must not advance the parent: a fresh clone(0)
    // reproduces the first clone's draws.
    auto c0b = parent.clone(0);
    EXPECT_EQ(s0, drawSequence(*c0b, 200, 1));
}

TEST(SamplerClone, ClonePreservesConfiguration)
{
    core::RsuSampler rsu(core::RsuConfig::newDesign());
    EXPECT_EQ(rsu.clone(3)->name(), rsu.name());

    core::CdfLutSampler cdf(rng::Lfsr::makeLfsr19(9).split(0), 32);
    auto cdf_clone = cdf.clone(2);
    EXPECT_EQ(cdf_clone->name(), cdf.name());

    core::SoftwareSampler sw;
    EXPECT_EQ(sw.clone(0)->name(), sw.name());
}

// ----------------------------------------------------- LUT cache races

TEST(LambdaLutCacheConcurrency, ConcurrentGetsShareOneTable)
{
    core::LambdaLutCache &cache = core::LambdaLutCache::global();
    cache.clear();
    const core::RsuConfig cfg = core::RsuConfig::newDesign();

    // Hammer the cache from many workers over a small temperature set,
    // as striped solver clones do at the start of each sweep.  Every
    // worker must end up holding the same table per temperature, with
    // no torn builds (TSan validates the locking discipline).
    util::ThreadPool pool(7);
    constexpr int kWorkers = 48;
    std::vector<std::shared_ptr<const core::LambdaLut>> seen(kWorkers);
    pool.parallelFor(kWorkers, [&](std::size_t w) {
        const double t = 0.5 + static_cast<double>(w % 4);
        auto lut = cache.get(cfg, t);
        // Touch the table to surface incomplete publication.
        (void)lut->lookup(lut->entries() - 1);
        seen[w] = std::move(lut);
    });

    for (int w = 0; w < kWorkers; ++w)
        EXPECT_EQ(seen[w].get(), seen[w % 4].get());
    EXPECT_EQ(cache.size(), 4u);
    cache.clear();
}

// ------------------------------------------------ shared table races

TEST(SharedTableConcurrency, LookupsRaceInsertsAcrossDoublings)
{
    // Workers insert and look up overlapping key sets in different
    // orders while the table doubles from 256 slots to 16384, so
    // lock-free probes race both the inserts and the generation
    // swaps.  Every value read must be the one its key's single build
    // stored (TSan validates the publication).
    struct Value
    {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
    };
    constexpr std::uint64_t kKeys = 6007; // prime
    const auto expected = [](std::uint64_t k) {
        return Value{k * 0x9e3779b97f4a7c15ULL, ~k};
    };
    util::SharedTable<std::uint64_t, Value> table(kKeys);
    std::atomic<std::uint64_t> builds{0};
    std::atomic<std::uint64_t> wrong{0};
    constexpr int kWorkers = 6;
    util::ThreadPool pool(kWorkers - 1);
    pool.parallelFor(kWorkers, [&](std::size_t w) {
        for (std::uint64_t i = 0; i < kKeys; ++i) {
            // Worker w walks every key with stride 2w + 1 (coprime
            // to the prime kKeys) from offset w, so insertion orders
            // differ; each step also probes another key.
            const std::uint64_t k = 1 + (w + i * (2 * w + 1)) % kKeys;
            const Value *v = table.get(k, [&] {
                builds.fetch_add(1, std::memory_order_relaxed);
                return expected(k);
            });
            const std::uint64_t back = 1 + (k * 7) % kKeys;
            const Value *old = table.find(back);
            if (!v || v->a != expected(k).a || v->b != expected(k).b ||
                (old && (old->a != expected(back).a ||
                         old->b != expected(back).b)))
                wrong.fetch_add(1, std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(table.size(), kKeys);
    EXPECT_EQ(builds.load(), kKeys) << "a key was built twice";
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
        const Value *v = table.find(k);
        ASSERT_NE(v, nullptr) << "key " << k;
        EXPECT_EQ(v->a, expected(k).a);
    }
}

// --------------------------------------------------------- rng splits

TEST(RateBindingConcurrency, ThreadsBindingOneLadderShareBindings)
{
    // Six clones on six threads walk one temperature ladder through
    // the run's shared RateBindingCache.  In lockstep (a barrier per
    // rung) every thread must hold the one binding the rung built;
    // free-running, threads drift past each other and race builds
    // against hits, and every binding must still equal, byte for
    // byte, the one a lone sampler walking the ladder builds.
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    cfg.raceMode = core::RaceMode::FastPath;
    constexpr int kThreads = 6;
    std::vector<double> ladder;
    for (int k = 0; k < 48; ++k)
        ladder.push_back(8.0 * std::pow(0.93, k));
    const std::size_t n = 4, m = 16;
    std::vector<float> e(n * m);
    for (std::size_t i = 0; i < e.size(); ++i)
        e[i] = static_cast<float>((i * 37) % 200);

    core::RsuSampler lone(cfg);
    std::vector<std::shared_ptr<const core::RateBinding>> want;
    {
        rng::Xoshiro256 gen(1);
        std::vector<int> cur(n, 0), out(n);
        for (double t : ladder) {
            lone.sampleRow(e, static_cast<int>(m), t, cur, out, gen);
            want.push_back(lone.rateBinding());
        }
    }
    const auto same = [](const core::RateBinding &a,
                         const core::RateBinding &b) {
        return a.rateTable == b.rateTable && a.alphabet == b.alphabet &&
               a.classOf == b.classOf && a.classBytes == b.classBytes &&
               a.tieP == b.tieP && a.packedOk == b.packedOk &&
               a.firingMask == b.firingMask && a.packed == b.packed;
    };

    for (const bool lockstep : {true, false}) {
        core::RsuSampler parent(cfg);
        std::vector<std::unique_ptr<LabelSampler>> clones;
        for (int k = 0; k < kThreads; ++k)
            clones.push_back(parent.clone(static_cast<std::uint64_t>(k)));
        std::vector<std::vector<const core::RateBinding *>> got(
            kThreads);
        std::vector<std::shared_ptr<const core::RateBinding>> keep;
        std::mutex keep_mutex;
        std::barrier sync(kThreads);
        std::vector<std::thread> threads;
        for (int k = 0; k < kThreads; ++k) {
            threads.emplace_back([&, k] {
                auto &s = static_cast<core::RsuSampler &>(*clones[k]);
                rng::Xoshiro256 gen(10 + k);
                std::vector<int> cur(n, 0), out(n);
                for (double t : ladder) {
                    s.sampleRow(e, static_cast<int>(m), t, cur, out, gen);
                    got[k].push_back(s.rateBinding().get());
                    {
                        std::lock_guard<std::mutex> lock(keep_mutex);
                        keep.push_back(s.rateBinding());
                    }
                    if (lockstep)
                        sync.arrive_and_wait();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        for (int k = 0; k < kThreads; ++k) {
            ASSERT_EQ(got[k].size(), ladder.size());
            for (std::size_t r = 0; r < ladder.size(); ++r) {
                EXPECT_TRUE(same(*got[k][r], *want[r]))
                    << "thread " << k << " rung " << r;
                if (lockstep) {
                    EXPECT_EQ(got[k][r], got[0][r])
                        << "thread " << k << " rung " << r;
                }
            }
        }
        const core::RateBindingCache &c = parent.rateBindings();
        EXPECT_EQ(c.hits() + c.builds(), kThreads * ladder.size());
        if (lockstep) {
            EXPECT_EQ(c.builds(), ladder.size());
        }
    }
}

TEST(RngSplit, ChildrenAreDeterministicAndDistinct)
{
    rng::Xoshiro256 parent(77);
    auto a = parent.split(0);
    auto b = parent.split(1);
    auto a2 = parent.split(0);
    EXPECT_EQ(a->next64(), a2->next64());
    EXPECT_NE(a->next64(), b->next64());

    rng::Mt19937 mt(5);
    EXPECT_EQ(mt.split(4)->next64(), mt.split(4)->next64());
    EXPECT_NE(mt.split(4)->next64(), mt.split(5)->next64());

    auto lfsr = rng::Lfsr::makeLfsr19(3);
    EXPECT_EQ(lfsr.split(2)->next64(), lfsr.split(2)->next64());
    EXPECT_NE(lfsr.split(2)->next64(), lfsr.split(3)->next64());
}

} // namespace

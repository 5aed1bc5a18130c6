/**
 * @file
 * Tests for the flip-aware incremental energy-plane cache.
 *
 * The cache is a pure throughput knob: with energyCache on, every
 * solver must produce byte-identical labels, traces and sampler state
 * to the uncached run — across both solvers, serial and striped
 * execution, 4- and 8-neighborhoods, every sampler (including the RSU
 * packed fast path), tie-break modes, boundary-heavy tiny grids, and
 * label alphabets wide enough to leave the packed lane.  On top of
 * the equivalence sweep: the cache must actually engage (clean-hit
 * counters advance), its invalidation total must count every dirty
 * mark exactly once, and a run killed and resumed with the cache on
 * must replay to the same bytes as an uninterrupted run with the
 * cache off (cache state is per-run, never checkpointed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkpoint.hh"
#include "mrf/energy_cache.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "obs/metrics.hh"
#include "rng/rng.hh"

namespace {

using namespace retsim;
using namespace retsim::core;

/** Potts problem with randomized singletons; tie-prone integer costs
 *  keep the RSU quantizer honest. */
mrf::MrfProblem
randomProblem(int w, int h, int m, std::uint64_t seed,
              mrf::Neighborhood nb = mrf::Neighborhood::Four)
{
    mrf::MrfProblem p(w, h,
                      mrf::PairwiseTable(mrf::DistanceKind::Binary, m,
                                         2.5),
                      "cachetest", nb);
    rng::Xoshiro256 gen(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            for (int l = 0; l < m; ++l)
                p.singleton(x, y, l) = static_cast<float>(
                    gen.nextBounded(2) ? gen.nextDouble() * 40.0
                                       : gen.nextBounded(6));
    return p;
}

mrf::SolverConfig
annealConfig(int sweeps, std::uint64_t seed)
{
    mrf::SolverConfig cfg;
    cfg.annealing.sweeps = sweeps;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.5;
    cfg.seed = seed;
    return cfg;
}

struct RunResult
{
    std::vector<int> labels;
    mrf::SolverTrace trace;
    std::vector<std::uint64_t> samplerState;
};

enum class Kind { Gibbs, Checkerboard };

template <typename MakeSampler>
RunResult
runOnce(Kind kind, const mrf::MrfProblem &p, MakeSampler make,
        mrf::SolverConfig cfg, bool cache)
{
    cfg.energyCache = cache;
    auto sampler = make();
    RunResult r;
    img::LabelMap out =
        kind == Kind::Gibbs
            ? mrf::GibbsSolver(cfg).run(p, *sampler, &r.trace)
            : mrf::CheckerboardGibbsSolver(cfg).run(p, *sampler,
                                                    &r.trace);
    r.labels = out.data();
    sampler->saveState(r.samplerState);
    return r;
}

/** Run cache-on vs cache-off on fresh sampler instances and demand
 *  byte-identity of labels, trace and checkpointed sampler state. */
template <typename MakeSampler>
void
expectCacheTransparent(Kind kind, const mrf::MrfProblem &p,
                       MakeSampler make, const mrf::SolverConfig &cfg,
                       const char *what)
{
    RunResult on = runOnce(kind, p, make, cfg, true);
    RunResult off = runOnce(kind, p, make, cfg, false);
    EXPECT_EQ(on.labels, off.labels) << what << ": label divergence";
    EXPECT_EQ(on.trace.energyPerSweep, off.trace.energyPerSweep)
        << what << ": per-sweep energy divergence";
    EXPECT_EQ(on.trace.labelChanges, off.trace.labelChanges)
        << what << ": flip-count divergence";
    EXPECT_EQ(on.trace.pixelUpdates, off.trace.pixelUpdates)
        << what << ": update-count divergence";
    EXPECT_EQ(on.samplerState, off.samplerState)
        << what << ": sampler state divergence";
}

// ------------------------------------------------- raster/random scan

TEST(EnergyCache, GibbsSolverFourAndEightNeighborhood)
{
    for (auto nb :
         {mrf::Neighborhood::Four, mrf::Neighborhood::Eight}) {
        mrf::MrfProblem p = randomProblem(17, 13, 8, 41, nb);
        const char *what = nb == mrf::Neighborhood::Four
                               ? "gibbs/four"
                               : "gibbs/eight";
        expectCacheTransparent(
            Kind::Gibbs, p,
            [] { return std::make_unique<SoftwareSampler>(); },
            annealConfig(6, 9), what);
        expectCacheTransparent(
            Kind::Gibbs, p,
            [] {
                return std::make_unique<RsuSampler>(
                    RsuConfig::newDesign());
            },
            annealConfig(6, 9), what);
    }
}

TEST(EnergyCache, GibbsSolverRandomScan)
{
    mrf::MrfProblem p = randomProblem(14, 19, 6, 77);
    mrf::SolverConfig cfg = annealConfig(5, 31);
    cfg.randomScan = true;
    expectCacheTransparent(
        Kind::Gibbs, p,
        [] { return std::make_unique<SoftwareSampler>(); }, cfg,
        "gibbs/random-scan");
}

// --------------------------------------------- chromatic serial path

TEST(EnergyCache, CheckerboardSerialAllSamplers)
{
    mrf::MrfProblem p = randomProblem(31, 23, 12, 5); // odd width:
                                                      // both phases
                                                      // hit the edge
    const mrf::SolverConfig cfg = annealConfig(6, 91);
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] { return std::make_unique<SoftwareSampler>(); }, cfg,
        "cb/software");
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] {
            return std::make_unique<CdfLutSampler>(
                std::make_unique<rng::Mt19937>(7), 64);
        },
        cfg, "cb/cdf-lut");
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] {
            return std::make_unique<RsuSampler>(RsuConfig::newDesign());
        },
        cfg, "cb/rsu-race");
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] {
            RsuConfig rc = RsuConfig::newDesign();
            rc.raceMode = RaceMode::FastPath;
            return std::make_unique<RsuSampler>(rc);
        },
        cfg, "cb/rsu-fastpath");
}

TEST(EnergyCache, CheckerboardRsuTieBreaks)
{
    mrf::MrfProblem p = randomProblem(20, 20, 16, 123);
    const mrf::SolverConfig cfg = annealConfig(5, 17);
    for (TieBreak tb :
         {TieBreak::Random, TieBreak::First, TieBreak::Last}) {
        RsuConfig rc = RsuConfig::newDesign();
        rc.tieBreak = tb;
        rc.raceMode = RaceMode::FastPath;
        expectCacheTransparent(
            Kind::Checkerboard, p,
            [rc] { return std::make_unique<RsuSampler>(rc); }, cfg,
            "cb/tie-break");
    }
}

// ------------------------------------------------------ striped path

TEST(EnergyCache, CheckerboardStripedMatchesUncached)
{
    mrf::MrfProblem p = randomProblem(30, 29, 10, 55);
    for (int threads : {1, 3}) {
        mrf::SolverConfig cfg = annealConfig(5, 23);
        cfg.threads = threads;
        cfg.stripes = 4;
        expectCacheTransparent(
            Kind::Checkerboard, p,
            [] { return std::make_unique<SoftwareSampler>(); }, cfg,
            "striped/software");
        expectCacheTransparent(
            Kind::Checkerboard, p,
            [] {
                RsuConfig rc = RsuConfig::newDesign();
                rc.raceMode = RaceMode::FastPath;
                return std::make_unique<RsuSampler>(rc);
            },
            cfg, "striped/rsu-fastpath");
    }
}

TEST(EnergyCache, StripedManyThinStripesStressBoundaryMarks)
{
    // Height 16 with 8 stripes: every stripe is 2 rows, so almost
    // every flip defers a dirty mark across a stripe boundary.
    // The RSU fast-path run repeats the check with the packed lane
    // drawing every row from the cached planes.
    mrf::MrfProblem p = randomProblem(12, 16, 6, 301);
    mrf::SolverConfig cfg = annealConfig(6, 3);
    cfg.threads = 4;
    cfg.stripes = 8;
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] { return std::make_unique<SoftwareSampler>(); }, cfg,
        "striped/thin");
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] {
            RsuConfig rc = RsuConfig::newDesign();
            rc.raceMode = RaceMode::FastPath;
            return std::make_unique<RsuSampler>(rc);
        },
        cfg, "striped/thin/rsu-fastpath");
}

// -------------------------------------------------- boundary shapes

TEST(EnergyCache, TinyAndDegenerateGrids)
{
    struct Shape
    {
        int w, h;
    };
    for (Shape s : {Shape{1, 1}, Shape{2, 2}, Shape{1, 7}, Shape{9, 1},
                    Shape{3, 3}}) {
        mrf::MrfProblem p = randomProblem(s.w, s.h, 4, 1000 + s.w);
        const mrf::SolverConfig cfg = annealConfig(4, 7);
        expectCacheTransparent(
            Kind::Gibbs, p,
            [] { return std::make_unique<SoftwareSampler>(); }, cfg,
            "tiny/gibbs");
        expectCacheTransparent(
            Kind::Checkerboard, p,
            [] { return std::make_unique<SoftwareSampler>(); }, cfg,
            "tiny/cb");
        expectCacheTransparent(
            Kind::Checkerboard, p,
            [] {
                RsuConfig rc = RsuConfig::newDesign();
                rc.raceMode = RaceMode::FastPath;
                return std::make_unique<RsuSampler>(rc);
            },
            cfg, "tiny/cb/rsu-fastpath");
    }
}

TEST(EnergyCache, WideAlphabetLeavesPackedLane)
{
    // 24 labels: the RSU packed lane (m <= 16) is out, so the sampler
    // draws every row through the general lane.
    mrf::MrfProblem p = randomProblem(15, 11, 24, 67);
    const mrf::SolverConfig cfg = annealConfig(5, 13);
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] {
            RsuConfig rc = RsuConfig::newDesign();
            rc.raceMode = RaceMode::FastPath;
            return std::make_unique<RsuSampler>(rc);
        },
        cfg, "wide/rsu");
    expectCacheTransparent(
        Kind::Checkerboard, p,
        [] {
            return std::make_unique<CdfLutSampler>(
                std::make_unique<rng::Mt19937>(3), 64);
        },
        cfg, "wide/cdf-lut");
}

// ------------------------------------------------- cache must engage

TEST(EnergyCache, CountersAdvanceWhenEnabled)
{
    obs::Registry &reg = obs::Registry::global();
    const obs::MetricId hits =
        reg.counter("mrf.energy_cache.clean_hits");
    const obs::MetricId recomputed =
        reg.counter("mrf.energy_cache.recomputed");
    const obs::MetricId invals =
        reg.counter("mrf.energy_cache.invalidations");
    mrf::MrfProblem p = randomProblem(24, 24, 8, 99);

    struct Solver
    {
        Kind kind;
        bool randomScan;
        const char *what;
    };
    for (const Solver &solver :
         {Solver{Kind::Checkerboard, false, "checkerboard"},
          Solver{Kind::Gibbs, false, "raster"},
          Solver{Kind::Gibbs, true, "random scan"}}) {
        const std::uint64_t h0 = reg.counterValue(hits);
        const std::uint64_t c0 = reg.counterValue(recomputed);
        const std::uint64_t i0 = reg.counterValue(invals);
        mrf::SolverConfig cfg = annealConfig(8, 21);
        cfg.randomScan = solver.randomScan;
        // Raster and random scan update every pixel once per sweep,
        // so a label that differs between consecutive sweepObserver
        // maps (the first against the all-zero start) is exactly one
        // flip, which marks the pixel and its in-grid 4-neighbours.
        std::uint64_t recount = 0;
        std::vector<int> prev(static_cast<std::size_t>(p.width()) *
                                  p.height(),
                              0);
        if (solver.kind == Kind::Gibbs) {
            cfg.randomInit = false;
            cfg.sweepObserver = [&](int, double,
                                    const img::LabelMap &labels) {
                for (int y = 0; y < p.height(); ++y) {
                    for (int x = 0; x < p.width(); ++x) {
                        int &old = prev[static_cast<std::size_t>(y) *
                                            p.width() +
                                        x];
                        if (labels(x, y) == old)
                            continue;
                        old = labels(x, y);
                        recount += 1 + (x > 0) + (x + 1 < p.width()) +
                                   (y > 0) + (y + 1 < p.height());
                    }
                }
            };
        }
        const RunResult run = runOnce(
            solver.kind, p,
            [] { return std::make_unique<SoftwareSampler>(); }, cfg,
            true);

        // Past the first sweep the anneal cools and flips get rare, so
        // a working cache must serve clean planes and record dirty
        // marks.
        EXPECT_GT(reg.counterValue(hits), h0)
            << solver.what << ": no clean hits, the cache never engaged";
        EXPECT_GT(reg.counterValue(invals), i0) << solver.what;
        // Every pixel update reads one plane, served clean or
        // recomputed, and is counted exactly once.
        EXPECT_EQ((reg.counterValue(hits) - h0) +
                      (reg.counterValue(recomputed) - c0),
                  run.trace.pixelUpdates)
            << solver.what;
        // The per-pixel marks are tallied per sweep and added once;
        // the total must still be every mark, exactly once.
        if (solver.kind == Kind::Gibbs) {
            EXPECT_GT(recount, 0u) << solver.what;
            EXPECT_EQ(reg.counterValue(invals) - i0, recount)
                << solver.what;
        }
    }
}

// ------------------------------------- row marks equal per-flip marks

TEST(EnergyCache, RowFlipMarksMatchPerFlipMarks)
{
    // markRowFlips must mark, defer and count exactly what one
    // markFlip per flipped pixel does: every dirty word of every
    // slab, the deferred entries as a multiset, and the invalidation
    // count.  Widths straddle the 64-pixel word edges (a color-phase
    // row holds (w + 1) / 2 or w / 2 pixels), rows cover the first
    // and last grid rows and stripe-edge rows, and flip masks range
    // from empty and single bits to dense and full.
    constexpr int kHeight = 7;
    rng::Xoshiro256 gen(0x7f11);
    std::size_t cases = 0;
    for (const int w : {1, 2, 3, 63, 64, 65, 127, 128, 129, 257}) {
        mrf::EnergyPlaneCache per(w, kHeight, 4, 2);
        mrf::EnergyPlaneCache row(w, kHeight, 4, 2);
        const auto clear_all = [&](mrf::EnergyPlaneCache &c) {
            for (int y = 0; y < kHeight; ++y)
                for (int color = 0; color < 2; ++color)
                    c.clearRow(y, color);
        };
        const std::size_t words = (static_cast<std::size_t>(w + 1) / 2 +
                                   63) / 64;
        // (rowLo, rowHi) ownership ranges: the whole grid, a stripe
        // of one row, and stripes whose edges cut between rows.
        const std::pair<int, int> ranges[] = {
            {0, kHeight}, {3, 4}, {2, 5}, {0, 1}, {6, 7}, {1, 7}};
        for (const auto &[lo, hi] : ranges) {
            for (int y = lo; y < hi; ++y) {
                for (int color = 0; color < 2; ++color) {
                    const int n = per.phasePixels(y, color);
                    for (int pattern = 0; pattern < 6; ++pattern) {
                        std::vector<std::uint64_t> flips(words, 0);
                        for (int i = 0; i < n; ++i) {
                            bool on = false;
                            switch (pattern) {
                              case 0: on = false; break;
                              case 1: on = i == 0; break;
                              case 2: on = i == n - 1; break;
                              case 3: on = true; break;
                              case 4: on = i % 64 == 63 || i % 64 == 0;
                                      break;
                              default:
                                  on = gen.nextBounded(3) == 0;
                            }
                            if (on)
                                flips[static_cast<std::size_t>(i) >> 6] |=
                                    std::uint64_t{1} << (i & 63);
                        }
                        clear_all(per);
                        clear_all(row);
                        std::vector<std::uint64_t> dper, drow;
                        std::uint64_t marks = 0;
                        const int x0 = (y + color) & 1;
                        for (int i = 0; i < n; ++i)
                            if ((flips[static_cast<std::size_t>(i) >> 6] >>
                                 (i & 63)) &
                                1)
                                marks += per.markFlip(
                                    x0 + 2 * i, y, mrf::Neighborhood::Four,
                                    lo, hi, &dper);
                        const std::uint64_t row_marks = row.markRowFlips(
                            y, color, flips.data(), lo, hi, &drow);
                        const std::string what =
                            "w=" + std::to_string(w) +
                            " y=" + std::to_string(y) +
                            " color=" + std::to_string(color) +
                            " rows=[" + std::to_string(lo) + "," +
                            std::to_string(hi) + ") pattern=" +
                            std::to_string(pattern);
                        for (int sy = 0; sy < kHeight; ++sy)
                            for (int sc = 0; sc < 2; ++sc)
                                for (std::size_t k = 0; k < words; ++k)
                                    ASSERT_EQ(per.rowDirty(sy, sc)[k],
                                              row.rowDirty(sy, sc)[k])
                                        << what << " slab (" << sy
                                        << ", " << sc << ") word " << k;
                        std::sort(dper.begin(), dper.end());
                        std::sort(drow.begin(), drow.end());
                        ASSERT_EQ(dper, drow) << what;
                        ASSERT_EQ(marks, row_marks) << what;
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 1000u);
}

// ------------------------------------- a row window equals the grid

TEST(EnergyCache, RowWindowMatchesFullGrid)
{
    // A shard rank's cache holds planes and dirty bits for its own
    // rows only.  Driven through one random sequence of refreshRow,
    // markRowFlips (over stripes inside the window, the out-of-window
    // deferred marks dropped as a rank drops them) and applyDeferred,
    // a windowed cache must hold bit-identical planes and dirty words
    // to a full-grid cache on every row of its window, count the same
    // traffic, and allocate planes for its rows only.  Widths
    // straddle the 64-pixel word edges; windows include the first and
    // last rows and single rows.
    constexpr int kHeight = 9, kLabels = 3;
    std::size_t steps = 0;
    for (const int w : {1, 63, 64, 65}) {
        const mrf::MrfProblem problem =
            randomProblem(w, kHeight, kLabels, 300 + w);
        const std::pair<int, int> windows[] = {
            {0, kHeight}, {0, 3}, {6, kHeight}, {2, 7}, {0, 1},
            {kHeight - 1, kHeight}, {4, 5}};
        for (const auto &[lo, hi] : windows) {
            const std::string what = "w=" + std::to_string(w) +
                                     " rows=[" + std::to_string(lo) +
                                     "," + std::to_string(hi) + ")";
            mrf::EnergyPlaneCache full(w, kHeight, kLabels, 2);
            mrf::EnergyPlaneCache win(w, kHeight, kLabels, 2, lo, hi);
            EXPECT_EQ(win.planeBytes() * kHeight,
                      full.planeBytes() * static_cast<std::size_t>(hi - lo))
                << what;
            rng::Xoshiro256 gen(static_cast<std::uint64_t>(w * 64 + lo));
            // A uniform int in [a, b).
            const auto pick = [&](int a, int b) {
                return a + static_cast<int>(gen.nextBounded(
                               static_cast<std::uint64_t>(b - a)));
            };
            img::LabelMap labels(w, kHeight, 0);
            for (int y = 0; y < kHeight; ++y)
                for (int x = 0; x < w; ++x)
                    labels(x, y) = pick(0, kLabels);
            full.syncShadow(labels);
            win.syncShadow(labels);
            // Each cache's traffic, as its calls return it.
            std::uint64_t full_marks = 0, win_marks = 0;
            std::uint64_t full_recomputed = 0, win_recomputed = 0;
            const auto keep_window = [&](std::vector<std::uint64_t> &d) {
                std::erase_if(d, [&](std::uint64_t p) {
                    const int y = static_cast<int>(p & 0xffffffffu);
                    return y < lo || y >= hi;
                });
            };
            for (int step = 0; step < 160; ++step, ++steps) {
                const int y = pick(lo, hi);
                const int color = pick(0, 2);
                const int n = full.phasePixels(y, color);
                switch (gen.nextBounded(3)) {
                  case 0:
                    full_recomputed += static_cast<std::uint64_t>(
                        full.refreshRow(problem, labels, y, color));
                    win_recomputed += static_cast<std::uint64_t>(
                        win.refreshRow(problem, labels, y, color));
                    break;
                  case 1: {
                    // Flip a random subset of the row, then mark it as
                    // a stripe [slo, shi) around y inside the window.
                    const int slo = pick(lo, y + 1);
                    const int shi = pick(y + 1, hi + 1);
                    std::vector<std::uint64_t> flips(
                        (static_cast<std::size_t>(n) + 63) / 64 + 1, 0);
                    const int x0 = (y + color) & 1;
                    for (int i = 0; i < n; ++i) {
                        if (pick(0, 3) != 0)
                            continue;
                        const int x = x0 + 2 * i;
                        const int nv =
                            (labels(x, y) + pick(1, kLabels)) % kLabels;
                        labels(x, y) = nv;
                        full.setShadow(x, y, nv);
                        win.setShadow(x, y, nv);
                        flips[static_cast<std::size_t>(i) >> 6] |=
                            std::uint64_t{1} << (i & 63);
                    }
                    std::vector<std::uint64_t> dfull, dwin;
                    full_marks += full.markRowFlips(y, color, flips.data(),
                                                    slo, shi, &dfull);
                    win_marks += win.markRowFlips(y, color, flips.data(),
                                                  slo, shi, &dwin);
                    ASSERT_EQ(dfull, dwin) << what;
                    keep_window(dfull);
                    keep_window(dwin);
                    full_marks += full.applyDeferred(dfull);
                    win_marks += win.applyDeferred(dwin);
                    break;
                  }
                  default: {
                    std::vector<std::uint64_t> marks;
                    for (int k = 0; k < 4; ++k)
                        marks.push_back(
                            (static_cast<std::uint64_t>(pick(0, w)) << 32) |
                            static_cast<std::uint64_t>(pick(lo, hi)));
                    std::vector<std::uint64_t> copy = marks;
                    full_marks += full.applyDeferred(marks);
                    win_marks += win.applyDeferred(copy);
                  }
                }
                for (int sy = lo; sy < hi; ++sy) {
                    for (int sc = 0; sc < 2; ++sc) {
                        const int sn = full.phasePixels(sy, sc);
                        const std::size_t words =
                            (static_cast<std::size_t>(sn) + 63) / 64;
                        for (std::size_t k = 0; k < words; ++k)
                            ASSERT_EQ(full.rowDirty(sy, sc)[k],
                                      win.rowDirty(sy, sc)[k])
                                << what << " step " << step << " slab ("
                                << sy << ", " << sc << ") word " << k;
                        const std::size_t floats =
                            static_cast<std::size_t>(sn) * kLabels;
                        ASSERT_TRUE(std::equal(
                            full.plane(sy, sc), full.plane(sy, sc) + floats,
                            win.plane(sy, sc),
                            [](float a, float b) {
                                return std::bit_cast<std::uint32_t>(a) ==
                                       std::bit_cast<std::uint32_t>(b);
                            }))
                            << what << " step " << step << " plane ("
                            << sy << ", " << sc << ")";
                    }
                }
                ASSERT_EQ(full_marks, win_marks)
                    << what << " step " << step;
                ASSERT_EQ(full_recomputed, win_recomputed)
                    << what << " step " << step;
            }
        }
    }
    EXPECT_EQ(steps, 4u * 7u * 160u);
}

// ------------------------------------- dirty-mark totals are exact

/** Run @p solve with randomInit off and demand the exact invalidation
 *  total: every flip marks the flipped pixel and its in-grid
 *  4-neighbours once.  Each pixel is updated once per sweep, so a
 *  label that differs between consecutive sweepObserver maps (the
 *  first against the all-zero start) is exactly one flip. */
template <typename Solve>
void
expectExactInvalidations(const mrf::MrfProblem &p, mrf::SolverConfig cfg,
                         Solve solve, const char *what)
{
    const int w = p.width(), h = p.height();
    std::vector<int> prev(static_cast<std::size_t>(w) * h, 0);
    std::uint64_t expected = 0;
    cfg.randomInit = false;
    cfg.sweepObserver = [&](int, double, const img::LabelMap &labels) {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                int &old = prev[static_cast<std::size_t>(y) * w + x];
                if (labels(x, y) == old)
                    continue;
                old = labels(x, y);
                expected += 1 + (x > 0) + (x + 1 < w) + (y > 0) +
                            (y + 1 < h);
            }
        }
    };
    obs::Registry &reg = obs::Registry::global();
    const obs::MetricId invals =
        reg.counter("mrf.energy_cache.invalidations");
    const std::uint64_t before = reg.counterValue(invals);
    solve(cfg);
    EXPECT_GT(expected, 0u) << what;
    EXPECT_EQ(reg.counterValue(invals) - before, expected) << what;
}

TEST(EnergyCache, InvalidationTotalsCountEveryMarkOnce)
{
    // 3-row stripes put two rows in three on a stripe boundary, so
    // many marks are deferred and counted when applied.
    mrf::MrfProblem p = randomProblem(19, 24, 8, 211);
    for (int threads : {1, 4}) {
        mrf::SolverConfig cfg = annealConfig(6, 5);
        cfg.threads = threads;
        cfg.stripes = 8;
        expectExactInvalidations(
            p, cfg,
            [&](const mrf::SolverConfig &c) {
                RsuConfig rc = RsuConfig::newDesign();
                rc.raceMode = RaceMode::FastPath;
                RsuSampler s(rc);
                mrf::CheckerboardGibbsSolver(c).run(p, s);
            },
            threads == 1 ? "striped/1 thread" : "striped/4 threads");
    }
    expectExactInvalidations(
        p, annealConfig(6, 5),
        [&](const mrf::SolverConfig &c) {
            SoftwareSampler s;
            mrf::GibbsSolver(c).run(p, s);
        },
        "raster");
}

// ------------------------------------------ resume crosses the knob

TEST(EnergyCache, ResumeWithCacheOnReplaysCacheOffRun)
{
    // Kill at sweep 4 with the cache ON, resume with the cache ON,
    // and demand the final snapshot equal an uninterrupted run with
    // the cache OFF: cache state is per-run and never serialized, so
    // the knob must not leak into the replay contract.
    const int sweeps = 10, kill_at = 4;
    mrf::MrfProblem p = randomProblem(18, 15, 6, 8);

    auto run = [&](bool cache, bool resume_from_mid,
                   std::shared_ptr<const mrf::SolverCheckpoint> mid,
                   mrf::SolverCheckpoint *mid_out) {
        mrf::SolverConfig cfg = annealConfig(sweeps, 77);
        cfg.energyCache = cache;
        cfg.checkpointEvery = kill_at;
        std::vector<unsigned char> final_bytes;
        cfg.checkpointSink =
            [&](const mrf::SolverCheckpoint &cp) {
                if (mid_out && cp.sweepsDone == kill_at)
                    *mid_out = cp;
                if (cp.sweepsDone == cp.sweepsTotal)
                    final_bytes = cp.serialize();
            };
        if (resume_from_mid)
            cfg.resume = std::move(mid);
        SoftwareSampler s;
        mrf::CheckerboardGibbsSolver(cfg).run(p, s);
        return final_bytes;
    };

    mrf::SolverCheckpoint mid;
    const auto whole_on = run(true, false, nullptr, &mid);
    const auto whole_off = run(false, false, nullptr, nullptr);
    ASSERT_FALSE(whole_on.empty());
    ASSERT_EQ(whole_on, whole_off)
        << "cache changed the uninterrupted run";

    auto restored = std::make_shared<mrf::SolverCheckpoint>();
    std::string error;
    ASSERT_TRUE(mrf::SolverCheckpoint::deserialize(
        mid.serialize(), restored.get(), &error))
        << error;
    const auto resumed = run(true, true, std::move(restored), nullptr);
    EXPECT_EQ(resumed, whole_off);
}

} // namespace

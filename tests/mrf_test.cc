/**
 * @file
 * Unit tests for the MRF substrate: distance functions, pairwise
 * tables, conditional-energy assembly against a brute-force reference,
 * total energy, annealing schedules, and Gibbs solver behavior
 * (determinism, energy descent under annealing).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/sampler_software.hh"
#include "mrf/energy.hh"
#include "mrf/checkerboard.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"

namespace {

using namespace retsim;
using namespace retsim::mrf;

// --------------------------------------------------------------- energy

TEST(Distance, AllKinds)
{
    EXPECT_DOUBLE_EQ(labelDistance(DistanceKind::Squared, 3, 7), 16.0);
    EXPECT_DOUBLE_EQ(labelDistance(DistanceKind::Absolute, 3, 7), 4.0);
    EXPECT_DOUBLE_EQ(labelDistance(DistanceKind::Binary, 3, 7), 1.0);
    EXPECT_DOUBLE_EQ(labelDistance(DistanceKind::Binary, 5, 5), 0.0);
    EXPECT_DOUBLE_EQ(labelDistance(DistanceKind::Squared, 5, 5), 0.0);
}

TEST(PairwiseTable, ScalarAbsoluteTruncated)
{
    PairwiseTable t(DistanceKind::Absolute, 10, 2.0, 4.0);
    EXPECT_FLOAT_EQ(t(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(t(0, 3), 6.0f);  // 2 * 3
    EXPECT_FLOAT_EQ(t(0, 9), 8.0f);  // truncated at 4, then * 2
    EXPECT_FLOAT_EQ(t(9, 0), 8.0f);  // symmetric
    EXPECT_FLOAT_EQ(t.maxEntry(), 8.0f);
}

TEST(PairwiseTable, BinaryIsPottsModel)
{
    PairwiseTable t(DistanceKind::Binary, 5, 7.0);
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j)
            EXPECT_FLOAT_EQ(t(i, j), i == j ? 0.0f : 7.0f);
}

TEST(PairwiseTable, VectorLabelsSquared)
{
    // 2-D motion labels: distance is summed per component.
    std::vector<std::vector<double>> coords = {
        {0, 0}, {1, 0}, {1, 1}, {-2, 3}};
    PairwiseTable t(DistanceKind::Squared, coords, 1.0, 0.0);
    EXPECT_FLOAT_EQ(t(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(t(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(t(0, 3), 13.0f);
    EXPECT_FLOAT_EQ(t(3, 3), 0.0f);
}

TEST(PairwiseTable, ToStringNames)
{
    EXPECT_EQ(toString(DistanceKind::Squared), "squared");
    EXPECT_EQ(toString(DistanceKind::Absolute), "absolute");
    EXPECT_EQ(toString(DistanceKind::Binary), "binary");
}

// -------------------------------------------------------------- problem

class ProblemTest : public ::testing::Test
{
  protected:
    ProblemTest()
        : problem_(4, 3, PairwiseTable(DistanceKind::Absolute, 5, 2.0),
                   "test")
    {
        // Distinctive singleton pattern.
        for (int y = 0; y < 3; ++y)
            for (int x = 0; x < 4; ++x)
                for (int l = 0; l < 5; ++l)
                    problem_.singleton(x, y, l) =
                        static_cast<float>((x + 2 * y + 3 * l) % 11);
    }

    MrfProblem problem_;
};

TEST_F(ProblemTest, ConditionalEnergiesMatchBruteForce)
{
    img::LabelMap labels(4, 3);
    int v = 0;
    for (int &l : labels.data())
        l = (v++ * 3) % 5;

    std::vector<float> fast(5);
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 4; ++x) {
            problem_.conditionalEnergies(labels, x, y, fast);
            for (int l = 0; l < 5; ++l) {
                // Brute force: singleton + sum over in-bounds
                // neighbors of weight * |l - l_q|.
                double e = problem_.singleton(x, y, l);
                const int dx[] = {-1, 1, 0, 0};
                const int dy[] = {0, 0, -1, 1};
                for (int k = 0; k < 4; ++k) {
                    int nx = x + dx[k], ny = y + dy[k];
                    if (nx < 0 || nx >= 4 || ny < 0 || ny >= 3)
                        continue;
                    e += 2.0 * std::abs(l - labels(nx, ny));
                }
                EXPECT_NEAR(fast[l], e, 1e-4)
                    << "pixel (" << x << "," << y << ") label " << l;
            }
        }
    }
}

TEST_F(ProblemTest, TotalEnergyCountsEachEdgeOnce)
{
    img::LabelMap zeros(4, 3, 0);
    double e0 = problem_.totalEnergy(zeros);
    // All labels equal: pairwise contributes nothing.
    double singleton_sum = 0;
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 4; ++x)
            singleton_sum += problem_.singleton(x, y, 0);
    EXPECT_NEAR(e0, singleton_sum, 1e-6);

    // Flipping one interior pixel to label 1 adds |1-0|*2 per edge
    // touching it (4 edges) plus the singleton delta.
    img::LabelMap flip = zeros;
    flip(1, 1) = 1;
    double expected = e0 + 4 * 2.0 +
                      problem_.singleton(1, 1, 1) -
                      problem_.singleton(1, 1, 0);
    EXPECT_NEAR(problem_.totalEnergy(flip), expected, 1e-6);
}

TEST_F(ProblemTest, MaxConditionalEnergyBound)
{
    // Bound must dominate any reachable conditional energy.
    img::LabelMap labels(4, 3, 4);
    std::vector<float> e(5);
    double bound = problem_.maxConditionalEnergy();
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 4; ++x) {
            problem_.conditionalEnergies(labels, x, y, e);
            for (float v : e)
                EXPECT_LE(v, bound + 1e-6);
        }
    }
}

TEST_F(ProblemTest, SingletonRowSpan)
{
    auto row = problem_.singletonRow(2, 1);
    ASSERT_EQ(row.size(), 5u);
    for (int l = 0; l < 5; ++l)
        EXPECT_FLOAT_EQ(row[l], problem_.singleton(2, 1, l));
}

TEST(Problem, EightNeighborhoodConditionals)
{
    MrfProblem p(4, 4, PairwiseTable(DistanceKind::Binary, 2, 3.0),
                 "eight", Neighborhood::Eight);
    img::LabelMap labels(4, 4, 0);
    labels(2, 2) = 1; // a diagonal neighbor of (1, 1)
    std::vector<float> e(2);
    p.conditionalEnergies(labels, 1, 1, e);
    // Label 0 at (1,1): only the diagonal disagreement contributes,
    // weighted 1/sqrt(2).
    EXPECT_NEAR(e[0], 3.0 / std::sqrt(2.0), 1e-4);
    // Label 1: four axial + three diagonal disagreements.
    EXPECT_NEAR(e[1], 4 * 3.0 + 3 * 3.0 / std::sqrt(2.0), 1e-3);
}

TEST(Problem, EightNeighborhoodTotalEnergyCountsDiagonalsOnce)
{
    MrfProblem p(3, 3, PairwiseTable(DistanceKind::Binary, 2, 2.0),
                 "eight", Neighborhood::Eight);
    img::LabelMap labels(3, 3, 0);
    labels(1, 1) = 1;
    // The center disagrees with 4 axial and 4 diagonal neighbors.
    EXPECT_NEAR(p.totalEnergy(labels),
                4 * 2.0 + 4 * 2.0 / std::sqrt(2.0), 1e-4);
}

TEST(Problem, EightNeighborhoodSmoothsHarder)
{
    // Same Potts anneal; 8-connectivity couples more strongly, so
    // the final disagreement count cannot be higher.
    core::SoftwareSampler s4, s8;
    SolverConfig cfg;
    cfg.annealing.sweeps = 30;
    cfg.annealing.t0 = 6.0;
    cfg.annealing.tEnd = 0.4;
    cfg.seed = 13;

    MrfProblem p4(10, 10, PairwiseTable(DistanceKind::Binary, 3, 2.0),
                  "four", Neighborhood::Four);
    MrfProblem p8(10, 10, PairwiseTable(DistanceKind::Binary, 3, 2.0),
                  "eight", Neighborhood::Eight);
    auto l4 = GibbsSolver(cfg).run(p4, s4);
    auto l8 = GibbsSolver(cfg).run(p8, s8);

    auto axial_disagreements = [](const img::LabelMap &l) {
        int d = 0;
        for (int y = 0; y < l.height(); ++y)
            for (int x = 0; x < l.width(); ++x) {
                if (x + 1 < l.width())
                    d += l(x, y) != l(x + 1, y);
                if (y + 1 < l.height())
                    d += l(x, y) != l(x, y + 1);
            }
        return d;
    };
    EXPECT_LE(axial_disagreements(l8),
              axial_disagreements(l4) + 5);
}

TEST(Problem, ChromaticScheduleRejectsEightNeighborhood)
{
    MrfProblem p(4, 4, PairwiseTable(DistanceKind::Binary, 2, 1.0),
                 "eight", Neighborhood::Eight);
    core::SoftwareSampler s;
    SolverConfig cfg;
    cfg.annealing.sweeps = 1;
    EXPECT_DEATH(CheckerboardGibbsSolver(cfg).run(p, s),
                 "4-neighborhood");
}

TEST(Problem, RandomizedBruteForceCrossCheck)
{
    // Property sweep: on random problems of every distance kind, the
    // optimized conditional-energy assembly must equal the direct
    // definition at random pixels and labelings.
    rng::Xoshiro256 gen(0xc0ffee);
    for (int trial = 0; trial < 12; ++trial) {
        int w = 3 + static_cast<int>(gen.nextBounded(6));
        int h = 3 + static_cast<int>(gen.nextBounded(6));
        int m = 2 + static_cast<int>(gen.nextBounded(7));
        DistanceKind kind = static_cast<DistanceKind>(
            gen.nextBounded(3));
        double weight = 0.5 + gen.nextDouble() * 4.0;
        double tau = gen.nextDouble() < 0.5
                         ? 0.0
                         : 1.0 + gen.nextDouble() * 6.0;

        MrfProblem p(w, h, PairwiseTable(kind, m, weight, tau),
                     "random");
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                for (int l = 0; l < m; ++l)
                    p.singleton(x, y, l) =
                        static_cast<float>(gen.nextDouble() * 50.0);

        img::LabelMap labels(w, h);
        for (int &l : labels.data())
            l = static_cast<int>(gen.nextBounded(m));

        std::vector<float> fast(m);
        for (int check = 0; check < 10; ++check) {
            int x = static_cast<int>(gen.nextBounded(w));
            int y = static_cast<int>(gen.nextBounded(h));
            p.conditionalEnergies(labels, x, y, fast);
            for (int l = 0; l < m; ++l) {
                double expect = p.singleton(x, y, l);
                const int dx[] = {-1, 1, 0, 0};
                const int dy[] = {0, 0, -1, 1};
                for (int k = 0; k < 4; ++k) {
                    int nx = x + dx[k], ny = y + dy[k];
                    if (nx < 0 || nx >= w || ny < 0 || ny >= h)
                        continue;
                    double d = labelDistance(
                        kind, static_cast<double>(l),
                        static_cast<double>(labels(nx, ny)));
                    if (tau > 0.0)
                        d = std::min(d, tau);
                    expect += weight * d;
                }
                ASSERT_NEAR(fast[l], expect, 1e-3)
                    << "trial " << trial << " pixel " << x << ","
                    << y << " label " << l;
            }
        }
    }
}

// ------------------------------------------------------------ annealing

TEST(Annealing, GeometricEndpoints)
{
    AnnealingSchedule s;
    s.t0 = 32.0;
    s.tEnd = 0.5;
    s.sweeps = 7;
    EXPECT_NEAR(s.temperature(0), 32.0, 1e-9);
    EXPECT_NEAR(s.temperature(6), 0.5, 1e-9);
    for (int i = 1; i < 7; ++i)
        EXPECT_LT(s.temperature(i), s.temperature(i - 1));
}

TEST(Annealing, ConstantWhenSingleSweep)
{
    AnnealingSchedule s;
    s.t0 = 10.0;
    s.tEnd = 10.0;
    s.sweeps = 1;
    EXPECT_DOUBLE_EQ(s.temperature(0), 10.0);
}

TEST(Annealing, FlooredAtEnd)
{
    AnnealingSchedule s;
    s.t0 = 8.0;
    s.tEnd = 1.0;
    s.sweeps = 4;
    EXPECT_GE(s.temperature(100), 1.0 - 1e-12);
}

// --------------------------------------------------------------- solver

/** A tiny Potts attraction problem the solver must lock to a
 *  constant labeling on. */
MrfProblem
pottsProblem(int side, int labels, double beta)
{
    MrfProblem p(side, side,
                 PairwiseTable(DistanceKind::Binary, labels, beta),
                 "potts");
    return p; // zero singletons: any constant labeling is optimal
}

TEST(GibbsSolver, DeterministicGivenSeed)
{
    MrfProblem p = pottsProblem(8, 3, 2.0);
    core::SoftwareSampler s1, s2;
    SolverConfig cfg;
    cfg.annealing.sweeps = 20;
    cfg.annealing.t0 = 4.0;
    cfg.annealing.tEnd = 0.5;
    cfg.seed = 99;
    GibbsSolver solver(cfg);
    auto a = solver.run(p, s1);
    auto b = solver.run(p, s2);
    EXPECT_EQ(a.data(), b.data());
}

TEST(GibbsSolver, SeedChangesTrajectory)
{
    MrfProblem p = pottsProblem(8, 3, 0.5);
    core::SoftwareSampler s;
    SolverConfig cfg;
    cfg.annealing.sweeps = 3;
    cfg.annealing.t0 = 4.0;
    cfg.annealing.tEnd = 2.0;
    GibbsSolver a(cfg);
    cfg.seed = 2;
    GibbsSolver b(cfg);
    EXPECT_NE(a.run(p, s).data(), b.run(p, s).data());
}

TEST(GibbsSolver, AnnealingReducesPottsEnergy)
{
    MrfProblem p = pottsProblem(12, 4, 3.0);
    core::SoftwareSampler s;
    SolverConfig cfg;
    cfg.annealing.sweeps = 40;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.3;
    cfg.seed = 5;
    GibbsSolver solver(cfg);
    SolverTrace trace;
    auto labels = solver.run(p, s, &trace);

    ASSERT_EQ(trace.energyPerSweep.size(), 40u);
    // Energy after the final sweep must be far below the random-init
    // expectation (~ 3/4 of edges disagreeing).
    double edges = 2.0 * 12 * 11;
    EXPECT_LT(trace.energyPerSweep.back(), 3.0 * edges * 0.25);
    EXPECT_LT(trace.energyPerSweep.back(),
              trace.energyPerSweep.front() * 0.6);
    EXPECT_EQ(trace.pixelUpdates, 40u * 12 * 12);
}

TEST(GibbsSolver, StrongDataTermWins)
{
    // Singleton forces a checkerboard against a weak smoothness term.
    MrfProblem p(6, 6, PairwiseTable(DistanceKind::Binary, 2, 0.1),
                 "data");
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 6; ++x) {
            int want = (x + y) % 2;
            p.singleton(x, y, want) = 0.0f;
            p.singleton(x, y, 1 - want) = 50.0f;
        }
    core::SoftwareSampler s;
    SolverConfig cfg;
    cfg.annealing.sweeps = 30;
    cfg.annealing.t0 = 10.0;
    cfg.annealing.tEnd = 0.3;
    cfg.seed = 3;
    auto labels = GibbsSolver(cfg).run(p, s);
    int correct = 0;
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 6; ++x)
            correct += labels(x, y) == (x + y) % 2;
    EXPECT_GE(correct, 34); // at most a pixel or two of noise
}

TEST(GibbsSolver, RandomScanCoversEveryPixelOncePerSweep)
{
    MrfProblem p = pottsProblem(9, 3, 1.0);
    core::SoftwareSampler s;
    SolverConfig cfg;
    cfg.annealing.sweeps = 4;
    cfg.annealing.t0 = 4.0;
    cfg.annealing.tEnd = 1.0;
    cfg.randomScan = true;
    SolverTrace trace;
    GibbsSolver(cfg).run(p, s, &trace);
    EXPECT_EQ(trace.pixelUpdates, 4u * 81);
}

TEST(GibbsSolver, RandomScanReachesRasterQuality)
{
    MrfProblem p = pottsProblem(12, 4, 3.0);
    core::SoftwareSampler s1, s2;
    SolverConfig cfg;
    cfg.annealing.sweeps = 40;
    cfg.annealing.t0 = 8.0;
    cfg.annealing.tEnd = 0.3;
    cfg.seed = 11;
    SolverTrace raster_trace;
    GibbsSolver(cfg).run(p, s1, &raster_trace);
    cfg.randomScan = true;
    SolverTrace random_trace;
    GibbsSolver(cfg).run(p, s2, &random_trace);
    // Same energy class; random scan must not be worse than ~1.5x.
    EXPECT_LT(random_trace.energyPerSweep.back(),
              raster_trace.energyPerSweep.back() * 1.5 + 20.0);
}

TEST(GibbsSolver, RandomScanDeterministicPerSeed)
{
    MrfProblem p = pottsProblem(7, 3, 1.0);
    core::SoftwareSampler s1, s2;
    SolverConfig cfg;
    cfg.annealing.sweeps = 10;
    cfg.annealing.t0 = 4.0;
    cfg.annealing.tEnd = 1.0;
    cfg.randomScan = true;
    cfg.seed = 77;
    auto a = GibbsSolver(cfg).run(p, s1);
    auto b = GibbsSolver(cfg).run(p, s2);
    EXPECT_EQ(a.data(), b.data());
}

TEST(GibbsSolver, RespectsProvidedInitialLabels)
{
    MrfProblem p = pottsProblem(5, 4, 1.0);
    core::SoftwareSampler s;
    SolverConfig cfg;
    cfg.annealing.sweeps = 1;
    cfg.annealing.t0 = 0.30;
    cfg.annealing.tEnd = 0.30;
    cfg.randomInit = false;
    img::LabelMap init(5, 5, 2);
    GibbsSolver solver(cfg);
    auto out = solver.run(p, s, init);
    // At a freezing temperature with a constant (optimal) init, the
    // labeling must stay constant.
    for (int l : out.data())
        EXPECT_EQ(l, 2);
}

TEST(SolverDeathTest, OutOfRangeInitialLabelIsFatal)
{
    // With randomInit off every solver range-checks the caller's
    // labels before a sweep reads a pairwise row: the raster chain,
    // the serial checkerboard chain and the striped one (the sharded
    // solver's case is in shard_test.cc).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MrfProblem p(14, 11, PairwiseTable(DistanceKind::Absolute, 5, 2.0),
                 "range");
    img::LabelMap init(14, 11, 0);
    init(6, 5) = 1000000;
    SolverConfig cfg;
    cfg.annealing.sweeps = 1;
    cfg.randomInit = false;
    core::SoftwareSampler s;
    EXPECT_DEATH(GibbsSolver(cfg).run(p, s, init),
                 "initial label 1000000 out of range");
    for (int stripes : {0, 4}) {
        SCOPED_TRACE("stripes=" + std::to_string(stripes));
        cfg.stripes = stripes;
        EXPECT_DEATH(CheckerboardGibbsSolver(cfg).run(p, s, init),
                     "initial label 1000000 out of range");
    }
}

} // namespace

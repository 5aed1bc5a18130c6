/**
 * @file
 * Tests for the discrete-accelerator organization model and the
 * chi-square utilities that back the statistical assertions.
 */

#include <gtest/gtest.h>

#include "hw/accelerator.hh"
#include "support/chi_square.hh"

namespace {

using namespace retsim;
using namespace retsim::hw;

// ------------------------------------------------------------ chi-square

TEST(ChiSquare, ZeroStatisticOnExactMatch)
{
    std::vector<std::uint64_t> obs = {250, 250, 250, 250};
    std::vector<double> exp = {0.25, 0.25, 0.25, 0.25};
    EXPECT_DOUBLE_EQ(util::chiSquareStatistic(obs, exp), 0.0);
    EXPECT_TRUE(util::chiSquareConsistent(obs, exp));
}

TEST(ChiSquare, DetectsGrossBias)
{
    std::vector<std::uint64_t> obs = {900, 100};
    std::vector<double> exp = {0.5, 0.5};
    EXPECT_FALSE(util::chiSquareConsistent(obs, exp));
}

TEST(ChiSquare, ToleratesSamplingNoise)
{
    // 3-sigma-ish fluctuations on 10k draws must pass at the 0.1%
    // level.
    std::vector<std::uint64_t> obs = {5120, 4880};
    std::vector<double> exp = {0.5, 0.5};
    EXPECT_TRUE(util::chiSquareConsistent(obs, exp));
}

TEST(ChiSquare, UnnormalizedExpectationsAccepted)
{
    std::vector<std::uint64_t> obs = {300, 600, 100};
    std::vector<double> exp = {3.0, 6.0, 1.0};
    EXPECT_NEAR(util::chiSquareStatistic(obs, exp), 0.0, 1e-9);
}

TEST(ChiSquare, CriticalValuesReasonable)
{
    // Known chi-square 0.999 quantiles: df=1 -> 10.83, df=4 -> 18.47,
    // df=10 -> 29.59.  Wilson-Hilferty is good to a few percent.
    EXPECT_NEAR(util::chiSquareCritical999(1), 10.83, 0.8);
    EXPECT_NEAR(util::chiSquareCritical999(4), 18.47, 0.5);
    EXPECT_NEAR(util::chiSquareCritical999(10), 29.59, 0.5);
}

TEST(ChiSquare, ZeroProbabilityBinWithHitsPanics)
{
    std::vector<std::uint64_t> obs = {10, 5};
    std::vector<double> exp = {1.0, 0.0};
    EXPECT_DEATH(util::chiSquareStatistic(obs, exp),
                 "zero-probability");
}

// ------------------------------------------------------------ accelerator

class AcceleratorTest : public ::testing::Test
{
  protected:
    AcceleratorConfig cfg_{}; // paper defaults: 336 units, 336 GB/s
};

TEST_F(AcceleratorTest, ComputeTimeScalesInverselyWithUnits)
{
    FrameWorkload w{320, 320, 10, 100};
    AcceleratorConfig one = cfg_;
    one.units = 1;
    AcceleratorConfig many = cfg_;
    many.units = 64;
    double t1 = AcceleratorModel(one).evaluate(w).computeSeconds;
    double t64 = AcceleratorModel(many).evaluate(w).computeSeconds;
    EXPECT_NEAR(t1 / t64, 64.0, 2.0);
}

TEST_F(AcceleratorTest, MemoryTimeIndependentOfUnits)
{
    FrameWorkload w{320, 320, 10, 100};
    AcceleratorConfig a = cfg_;
    a.units = 8;
    AcceleratorConfig b = cfg_;
    b.units = 512;
    EXPECT_DOUBLE_EQ(
        AcceleratorModel(a).evaluate(w).memorySeconds,
        AcceleratorModel(b).evaluate(w).memorySeconds);
}

TEST_F(AcceleratorTest, PaperScaleIsMemoryBoundOnFewLabels)
{
    // 336 units on a 10-label SD frame: compute takes ~10 cycles per
    // pixel pair-wave; memory streams 64 B/pixel — the bandwidth wall
    // binds, as Sec. II-C's "assuming a 336 GB/s memory bandwidth
    // limitation" implies.
    FrameWorkload w{320, 320, 10, 100};
    auto report = AcceleratorModel(cfg_).evaluate(w);
    EXPECT_TRUE(report.memoryBound);
    EXPECT_LT(report.utilization, 0.75);
}

TEST_F(AcceleratorTest, ManyLabelsShiftTowardCompute)
{
    FrameWorkload w10{320, 320, 10, 100};
    FrameWorkload w64{320, 320, 64, 100};
    auto m = AcceleratorModel(cfg_);
    EXPECT_GT(m.evaluate(w64).utilization,
              m.evaluate(w10).utilization);
}

TEST_F(AcceleratorTest, SaturationUnitsMatchesDirectCheck)
{
    FrameWorkload w{320, 320, 64, 100};
    AcceleratorModel m(cfg_);
    unsigned sat = m.saturationUnits(w);
    ASSERT_GE(sat, 2u);

    AcceleratorConfig below = cfg_;
    below.units = sat - 1;
    AcceleratorConfig at = cfg_;
    at.units = sat;
    EXPECT_FALSE(AcceleratorModel(below).evaluate(w).memoryBound);
    EXPECT_TRUE(AcceleratorModel(at).evaluate(w).memoryBound);
}

TEST_F(AcceleratorTest, CyclesPerIterationFormula)
{
    // 100x100 frame, 8 labels, 336 units: half = 5000 pixels ->
    // ceil(5000/336) = 15 waves; 2 * 15 * 8 = 240 cycles.
    FrameWorkload w{100, 100, 8, 1};
    auto report = AcceleratorModel(cfg_).evaluate(w);
    EXPECT_EQ(report.cyclesPerIteration, 240u);
}

TEST_F(AcceleratorTest, CostScalesWithUnitsAndSharing)
{
    FrameWorkload w{320, 320, 10, 100};
    AcceleratorConfig shared = cfg_;
    shared.lightShare = 8;
    AcceleratorConfig unshared = cfg_;
    unshared.lightShare = 1;
    double a_shared =
        AcceleratorModel(shared).evaluate(w).totalCost.areaUm2;
    double a_unshared =
        AcceleratorModel(unshared).evaluate(w).totalCost.areaUm2;
    EXPECT_LT(a_shared, a_unshared);
    // 336 units at ~2.2-2.9 mm^2 each -> on the order of 1 mm^2 total.
    EXPECT_GT(a_shared, 336 * 1500.0);
    EXPECT_LT(a_unshared, 336 * 3500.0);
}

} // namespace

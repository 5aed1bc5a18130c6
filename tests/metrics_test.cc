/**
 * @file
 * Unit tests for the quality metrics: stereo BP/RMS, flow EPE/AAE and
 * the four BISIP-style segmentation metrics, including their defining
 * properties (identity, symmetry, permutation invariance).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "metrics/motion_metrics.hh"
#include "metrics/segmentation_metrics.hh"
#include "metrics/stereo_metrics.hh"

namespace {

using namespace retsim;
using namespace retsim::metrics;
using img::LabelMap;
using img::Vec2i;

LabelMap
makeMap(int w, int h, std::initializer_list<int> values)
{
    LabelMap m(w, h);
    auto it = values.begin();
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            m(x, y) = *it++;
    return m;
}

// ---------------------------------------------------------------- stereo

TEST(StereoMetrics, PerfectMatchIsZero)
{
    LabelMap truth = makeMap(2, 2, {3, 5, 7, 9});
    EXPECT_DOUBLE_EQ(badPixelPercent(truth, truth), 0.0);
    EXPECT_DOUBLE_EQ(rmsError(truth, truth), 0.0);
}

TEST(StereoMetrics, BadPixelThreshold)
{
    LabelMap truth = makeMap(4, 1, {10, 10, 10, 10});
    LabelMap est = makeMap(4, 1, {10, 11, 12, 20});
    // |err| > 1 counts: pixels with error 2 and 10 -> 50%.
    EXPECT_DOUBLE_EQ(badPixelPercent(est, truth, 1.0), 50.0);
    // With threshold 0 anything off counts -> 75%.
    EXPECT_DOUBLE_EQ(badPixelPercent(est, truth, 0.0), 75.0);
}

TEST(StereoMetrics, RmsKnownValue)
{
    LabelMap truth = makeMap(2, 1, {0, 0});
    LabelMap est = makeMap(2, 1, {3, 4});
    EXPECT_DOUBLE_EQ(rmsError(est, truth),
                     std::sqrt((9.0 + 16.0) / 2.0));
}

TEST(StereoMetrics, AllBad)
{
    LabelMap truth = makeMap(2, 1, {0, 0});
    LabelMap est = makeMap(2, 1, {50, 60});
    EXPECT_DOUBLE_EQ(badPixelPercent(est, truth), 100.0);
}

// ---------------------------------------------------------------- motion

TEST(MotionMetrics, ZeroErrorOnIdenticalFlow)
{
    img::Image<Vec2i> flow(3, 2);
    flow(1, 1) = {2, -1};
    EXPECT_DOUBLE_EQ(endPointError(flow, flow), 0.0);
}

TEST(MotionMetrics, EndPointErrorKnownValue)
{
    img::Image<Vec2i> truth(1, 1), est(1, 1);
    truth(0, 0) = {0, 0};
    est(0, 0) = {3, 4};
    EXPECT_DOUBLE_EQ(endPointError(est, truth), 5.0);
}

TEST(MotionMetrics, EpeAveragesOverPixels)
{
    img::Image<Vec2i> truth(2, 1), est(2, 1);
    est(0, 0) = {1, 0}; // error 1
    est(1, 0) = {0, 3}; // error 3
    EXPECT_DOUBLE_EQ(endPointError(est, truth), 2.0);
}

// ----------------------------------------------------- contingency table

TEST(ContingencyTable, CountsAndMarginals)
{
    LabelMap a = makeMap(2, 2, {0, 0, 1, 1});
    LabelMap b = makeMap(2, 2, {0, 1, 0, 1});
    ContingencyTable t(a, b);
    EXPECT_EQ(t.total(), 4u);
    EXPECT_EQ(t.numLabelsA(), 2u);
    EXPECT_EQ(t.numLabelsB(), 2u);
    EXPECT_EQ(t.count(0, 0), 1u);
    EXPECT_EQ(t.count(0, 1), 1u);
    EXPECT_EQ(t.rowSum(0), 2u);
    EXPECT_EQ(t.colSum(1), 2u);
}

TEST(ContingencyTable, IndependentPartitionsZeroMi)
{
    LabelMap a = makeMap(2, 2, {0, 0, 1, 1});
    LabelMap b = makeMap(2, 2, {0, 1, 0, 1});
    ContingencyTable t(a, b);
    EXPECT_NEAR(t.mutualInformation(), 0.0, 1e-12);
    EXPECT_NEAR(t.entropyA(), std::log(2.0), 1e-12);
}

// -------------------------------------------------------------------- voi

TEST(Voi, IdenticalPartitionsZero)
{
    LabelMap a = makeMap(3, 2, {0, 1, 2, 0, 1, 2});
    EXPECT_NEAR(variationOfInformation(a, a), 0.0, 1e-12);
}

TEST(Voi, PermutationInvariant)
{
    LabelMap a = makeMap(3, 2, {0, 1, 2, 0, 1, 2});
    LabelMap b = makeMap(3, 2, {2, 0, 1, 2, 0, 1}); // relabeled a
    EXPECT_NEAR(variationOfInformation(a, b), 0.0, 1e-12);
}

TEST(Voi, SymmetricAndPositive)
{
    LabelMap a = makeMap(4, 1, {0, 0, 1, 1});
    LabelMap b = makeMap(4, 1, {0, 1, 1, 1});
    double v1 = variationOfInformation(a, b);
    double v2 = variationOfInformation(b, a);
    EXPECT_NEAR(v1, v2, 1e-12);
    EXPECT_GT(v1, 0.0);
}

TEST(Voi, IndependentPartitionsSumOfEntropies)
{
    LabelMap a = makeMap(2, 2, {0, 0, 1, 1});
    LabelMap b = makeMap(2, 2, {0, 1, 0, 1});
    EXPECT_NEAR(variationOfInformation(a, b), 2.0 * std::log(2.0),
                1e-12);
}

// -------------------------------------------------------------------- pri

TEST(Pri, IdenticalPartitionsOne)
{
    LabelMap a = makeMap(3, 2, {0, 1, 2, 0, 1, 2});
    EXPECT_DOUBLE_EQ(probabilisticRandIndex(a, a), 1.0);
}

TEST(Pri, PermutationInvariant)
{
    LabelMap a = makeMap(4, 1, {0, 0, 1, 1});
    LabelMap b = makeMap(4, 1, {1, 1, 0, 0});
    EXPECT_DOUBLE_EQ(probabilisticRandIndex(a, b), 1.0);
}

TEST(Pri, KnownDisagreement)
{
    // a: {0,0,1,1}, b: {0,1,1,1}: pairs (6 total):
    // agree: (0,1)? a same, b diff -> no; (0,2) diff/diff yes;
    // (0,3) diff/diff yes; (1,2) diff/same no; (1,3) diff/same no;
    // (2,3) same/same yes.  3/6 = 0.5.
    LabelMap a = makeMap(4, 1, {0, 0, 1, 1});
    LabelMap b = makeMap(4, 1, {0, 1, 1, 1});
    EXPECT_DOUBLE_EQ(probabilisticRandIndex(a, b), 0.5);
}

// -------------------------------------------------------------------- gce

TEST(Gce, IdenticalZero)
{
    LabelMap a = makeMap(3, 2, {0, 1, 2, 0, 1, 2});
    EXPECT_NEAR(globalConsistencyError(a, a), 0.0, 1e-12);
}

TEST(Gce, RefinementIsZero)
{
    // b refines a (splits one cluster): GCE takes the min direction,
    // so a refinement scores 0.
    LabelMap a = makeMap(4, 1, {0, 0, 0, 0});
    LabelMap b = makeMap(4, 1, {0, 0, 1, 1});
    EXPECT_NEAR(globalConsistencyError(a, b), 0.0, 1e-12);
}

TEST(Gce, CrossPartitionPositive)
{
    LabelMap a = makeMap(4, 1, {0, 0, 1, 1});
    LabelMap b = makeMap(4, 1, {0, 1, 0, 1});
    EXPECT_GT(globalConsistencyError(a, b), 0.0);
    EXPECT_LE(globalConsistencyError(a, b), 1.0);
}

// -------------------------------------------------------------------- bde

TEST(Bde, IdenticalBoundariesZero)
{
    LabelMap a = makeMap(4, 4, {0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0,
                                0, 1, 1});
    EXPECT_DOUBLE_EQ(boundaryDisplacementError(a, a), 0.0);
}

TEST(Bde, ShiftedBoundaryDistance)
{
    // Vertical boundary at x=1 vs x=2 on an 8-wide strip: every
    // boundary pixel is 1 away from the other boundary.
    LabelMap a(8, 4, 0), b(8, 4, 0);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 8; ++x) {
            a(x, y) = x > 1 ? 1 : 0;
            b(x, y) = x > 2 ? 1 : 0;
        }
    EXPECT_NEAR(boundaryDisplacementError(a, b), 1.0, 1e-9);
}

TEST(Voi, TriangleInequalityOnRandomPartitions)
{
    // VoI is a metric on partitions: d(a,c) <= d(a,b) + d(b,c).
    auto random_map = [](std::uint64_t seed, int labels) {
        LabelMap m(8, 8);
        std::uint64_t state = seed;
        for (int &v : m.data()) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            v = static_cast<int>((state >> 33) % labels);
        }
        return m;
    };
    for (std::uint64_t s = 1; s <= 12; ++s) {
        LabelMap a = random_map(s, 3);
        LabelMap b = random_map(s + 100, 4);
        LabelMap c = random_map(s + 200, 2);
        double ab = variationOfInformation(a, b);
        double bc = variationOfInformation(b, c);
        double ac = variationOfInformation(a, c);
        EXPECT_LE(ac, ab + bc + 1e-9) << "seed " << s;
    }
}

TEST(Pri, BoundedOnRandomPartitions)
{
    LabelMap a = makeMap(4, 2, {0, 1, 2, 0, 1, 2, 0, 1});
    LabelMap b = makeMap(4, 2, {1, 1, 0, 0, 2, 2, 1, 1});
    double pri = probabilisticRandIndex(a, b);
    EXPECT_GE(pri, 0.0);
    EXPECT_LE(pri, 1.0);
}

TEST(Bde, TrivialPartitionPenalized)
{
    LabelMap a(6, 6, 0); // no boundary at all
    LabelMap b(6, 6, 0);
    for (int y = 0; y < 6; ++y)
        for (int x = 3; x < 6; ++x)
            b(x, y) = 1;
    EXPECT_GT(boundaryDisplacementError(a, b), 1.0);
}

} // namespace

/**
 * @file
 * Integration tests of the three vision applications on small scenes:
 * problem construction (energy budgets, occlusion handling, label
 * tables), solver quality with the software sampler, and determinism.
 */

#include <gtest/gtest.h>

#include <set>

#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "support/energy_bound.hh"

namespace {

using namespace retsim;
using namespace retsim::apps;

img::StereoScene
smallStereo(int labels = 12, std::uint64_t seed = 5)
{
    img::StereoSceneSpec spec;
    spec.name = "small";
    spec.width = 64;
    spec.height = 48;
    spec.numLabels = labels;
    spec.numObjects = 4;
    return img::makeStereoScene(spec, seed);
}

// ---------------------------------------------------------------- stereo

TEST(StereoApp, ProblemDimensionsAndDistance)
{
    auto scene = smallStereo();
    auto problem = buildStereoProblem(scene);
    EXPECT_EQ(problem.width(), 64);
    EXPECT_EQ(problem.height(), 48);
    EXPECT_EQ(problem.numLabels(), 12);
    EXPECT_EQ(problem.pairwise().kind(), mrf::DistanceKind::Absolute);
}

TEST(StereoApp, EnergyFitsEightBitBudget)
{
    // The 8-bit energy stage must not saturate on real conditionals
    // (Sec. III-C.1 fixes Energy_bits = 8).
    auto scene = smallStereo();
    auto problem = buildStereoProblem(scene);
    EXPECT_LE(mrf::maxConditionalEnergy(problem), 255.0);
}

TEST(StereoApp, OccludedColumnsPayDataPenalty)
{
    auto scene = smallStereo();
    StereoParams params;
    auto problem = buildStereoProblem(scene, params);
    // Pixel x = 0 with disparity 5 has no right-image match.
    EXPECT_FLOAT_EQ(problem.singleton(0, 10, 5),
                    float(params.dataWeight * params.dataTau));
}

TEST(StereoApp, SoftwareSolverBeatsRandomByFar)
{
    auto scene = smallStereo();
    core::SoftwareSampler sw;
    auto result = runStereo(scene, sw, defaultStereoSolver(80, 9));
    // A uniform random labeling on 12 labels would land ~83% BP
    // (plus threshold slack); the solver must be far better.
    EXPECT_LT(result.badPixelPercent, 35.0);
    EXPECT_GT(result.trace.pixelUpdates, 0u);
}

TEST(StereoApp, DeterministicGivenSeed)
{
    auto scene = smallStereo();
    core::SoftwareSampler s1, s2;
    auto a = runStereo(scene, s1, defaultStereoSolver(15, 3));
    auto b = runStereo(scene, s2, defaultStereoSolver(15, 3));
    EXPECT_EQ(a.disparity.data(), b.disparity.data());
    EXPECT_DOUBLE_EQ(a.badPixelPercent, b.badPixelPercent);
}

// ---------------------------------------------------------------- motion

TEST(MotionApp, LabelTableIsCenterOutAndComplete)
{
    auto table = motionLabelTable(2);
    ASSERT_EQ(table.size(), 25u);
    // Label 0 is zero motion (the tie-bias prior); magnitudes are
    // non-decreasing; every window offset appears exactly once.
    EXPECT_EQ(table[0], (img::Vec2i{0, 0}));
    int prev = 0;
    std::set<std::pair<int, int>> seen;
    for (const auto &m : table) {
        int mag = m.x * m.x + m.y * m.y;
        EXPECT_GE(mag, prev);
        prev = mag;
        EXPECT_LE(std::abs(m.x), 2);
        EXPECT_LE(std::abs(m.y), 2);
        seen.insert({m.x, m.y});
    }
    EXPECT_EQ(seen.size(), 25u);
}

TEST(MotionApp, LabelsToFlowRoundTrip)
{
    auto table = motionLabelTable(2);
    img::LabelMap labels(static_cast<int>(table.size()), 1);
    for (int l = 0; l < static_cast<int>(table.size()); ++l)
        labels(l, 0) = l;
    auto flow = labelsToFlow(labels, 2);
    for (int l = 0; l < static_cast<int>(table.size()); ++l)
        EXPECT_EQ(flow(l, 0), table[l]) << "label " << l;
}

TEST(MotionApp, ProblemUsesSquaredDistanceOn49Labels)
{
    img::MotionSceneSpec spec;
    spec.width = 40;
    spec.height = 32;
    spec.windowRadius = 3;
    auto scene = img::makeMotionScene(spec, 7);
    auto problem = buildMotionProblem(scene);
    EXPECT_EQ(problem.numLabels(), 49);
    EXPECT_EQ(problem.pairwise().kind(), mrf::DistanceKind::Squared);
    EXPECT_LE(mrf::maxConditionalEnergy(problem), 255.0);
}

TEST(MotionApp, SoftwareSolverRecoversMostMotion)
{
    img::MotionSceneSpec spec;
    spec.width = 48;
    spec.height = 40;
    spec.windowRadius = 2; // 25 labels keeps the test quick
    auto scene = img::makeMotionScene(spec, 9);
    core::SoftwareSampler sw;
    auto result = runMotion(scene, sw, defaultMotionSolver(60, 4));
    // Random flow in a radius-2 window has EPE ~2; good estimation
    // should be a fraction of a pixel on these clean scenes.
    EXPECT_LT(result.endPointError, 0.8);
}

// ----------------------------------------------------------- segmentation

TEST(SegmentationApp, KMeansRecoversClassMeans)
{
    img::SegmentationSceneSpec spec;
    spec.numSegments = 3;
    spec.noiseSigma = 6.0;
    auto scene = img::makeSegmentationScene(spec, 11);
    auto means = estimateClassMeans(scene.image, 3);
    ASSERT_EQ(means.size(), 3u);
    for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(means[c], scene.classMeans[c], 12.0);
}

TEST(SegmentationApp, ProblemIsPottsModel)
{
    img::SegmentationSceneSpec spec;
    spec.numSegments = 4;
    auto scene = img::makeSegmentationScene(spec, 13);
    auto problem = buildSegmentationProblem(scene);
    EXPECT_EQ(problem.numLabels(), 4);
    EXPECT_EQ(problem.pairwise().kind(), mrf::DistanceKind::Binary);
    EXPECT_LE(mrf::maxConditionalEnergy(problem), 255.0);
}

TEST(SegmentationApp, SoftwareSolverProducesLowVoi)
{
    img::SegmentationSceneSpec spec;
    spec.numSegments = 4;
    auto scene = img::makeSegmentationScene(spec, 17);
    core::SoftwareSampler sw;
    auto result =
        runSegmentation(scene, sw, defaultSegmentationSolver(30, 5));
    // Identical partitions score 0; independent ones > 1.5 nats.
    EXPECT_LT(result.voi, 0.6);
    EXPECT_GT(result.pri, 0.85);
    EXPECT_LT(result.gce, 0.2);
}

TEST(SegmentationApp, MetricsConsistentAcrossRuns)
{
    img::SegmentationSceneSpec spec;
    spec.numSegments = 2;
    auto scene = img::makeSegmentationScene(spec, 19);
    core::SoftwareSampler s1, s2;
    auto a = runSegmentation(scene, s1, defaultSegmentationSolver(20, 8));
    auto b = runSegmentation(scene, s2, defaultSegmentationSolver(20, 8));
    EXPECT_DOUBLE_EQ(a.voi, b.voi);
    EXPECT_EQ(a.segments.data(), b.segments.data());
}

} // namespace

/**
 * @file
 * Unit tests for the image substrate: containers, PGM round trips,
 * and — most importantly — the consistency invariants of the
 * synthetic dataset generators (the stereo pair really is linked by
 * the ground-truth disparity, motion frames by the true flow, etc.).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "img/image.hh"
#include "img/pgm_io.hh"
#include "img/synthetic.hh"

namespace {

using namespace retsim;
using namespace retsim::img;

// ----------------------------------------------------------------- image

TEST(Image, ConstructionAndAccess)
{
    ImageU8 im(4, 3, 7);
    EXPECT_EQ(im.width(), 4);
    EXPECT_EQ(im.height(), 3);
    EXPECT_EQ(im.size(), 12u);
    EXPECT_EQ(im(2, 1), 7);
    im(2, 1) = 42;
    EXPECT_EQ(im.at(2, 1), 42);
}

TEST(Image, BoundsChecking)
{
    ImageU8 im(4, 3);
    EXPECT_TRUE(im.inBounds(0, 0));
    EXPECT_TRUE(im.inBounds(3, 2));
    EXPECT_FALSE(im.inBounds(4, 0));
    EXPECT_FALSE(im.inBounds(0, -1));
}

TEST(Image, ClampedAccessReplicatesBorder)
{
    ImageU8 im(2, 2);
    im(0, 0) = 1;
    im(1, 0) = 2;
    im(0, 1) = 3;
    im(1, 1) = 4;
    EXPECT_EQ(im.atClamped(-5, 0), 1);
    EXPECT_EQ(im.atClamped(10, 10), 4);
    EXPECT_EQ(im.atClamped(0, 99), 3);
}

TEST(Image, FillAndDefault)
{
    LabelMap m(3, 3);
    EXPECT_EQ(m(1, 1), 0);
    m.fill(5);
    EXPECT_EQ(m(2, 2), 5);
    Image<float> empty;
    EXPECT_TRUE(empty.empty());
}

// ------------------------------------------------------------------- pgm

TEST(PgmIo, RoundTrip)
{
    ImageU8 im(17, 9);
    for (int y = 0; y < 9; ++y)
        for (int x = 0; x < 17; ++x)
            im(x, y) = static_cast<std::uint8_t>((x * 13 + y * 7) % 256);

    std::string path =
        (std::filesystem::temp_directory_path() / "retsim_t.pgm")
            .string();
    writePgm(im, path);
    ImageU8 back = readPgm(path);
    ASSERT_EQ(back.width(), im.width());
    ASSERT_EQ(back.height(), im.height());
    EXPECT_EQ(back.data(), im.data());
    std::remove(path.c_str());
}

TEST(PgmIo, LabelMapToGrayStretchesRange)
{
    LabelMap labels(3, 1);
    labels(0, 0) = 0;
    labels(1, 0) = 2;
    labels(2, 0) = 4;
    ImageU8 gray = labelMapToGray(labels, 5);
    EXPECT_EQ(gray(0, 0), 0);
    EXPECT_EQ(gray(1, 0), 127);
    EXPECT_EQ(gray(2, 0), 255);
}

// ----------------------------------------------------------- value noise

TEST(ValueNoise, DeterministicAndBounded)
{
    for (int i = 0; i < 200; ++i) {
        double x = i * 1.37, y = i * 0.61;
        double v = valueNoise(x, y, 8.0, 99);
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        EXPECT_DOUBLE_EQ(v, valueNoise(x, y, 8.0, 99));
    }
}

TEST(ValueNoise, SeedChangesField)
{
    int differing = 0;
    for (int i = 0; i < 50; ++i)
        differing += valueNoise(i * 0.9, i * 1.1, 8.0, 1) !=
                     valueNoise(i * 0.9, i * 1.1, 8.0, 2);
    EXPECT_GT(differing, 40);
}

// ---------------------------------------------------------------- stereo

class StereoSceneTest : public ::testing::Test
{
  protected:
    StereoSceneSpec spec_ = [] {
        StereoSceneSpec s;
        s.width = 80;
        s.height = 60;
        s.numLabels = 16;
        s.numObjects = 4;
        s.noiseSigma = 0.0; // exact correspondence for the invariant
        return s;
    }();
};

TEST_F(StereoSceneTest, GroundTruthWithinLabelRange)
{
    StereoScene scene = makeStereoScene(spec_, 7);
    for (int d : scene.gtDisparity.data()) {
        EXPECT_GE(d, 0);
        EXPECT_LT(d, spec_.numLabels);
    }
}

TEST_F(StereoSceneTest, EpipolarConsistencyWhereUnoccluded)
{
    // Without sensor noise, an unoccluded left pixel must match the
    // right image at its ground-truth disparity exactly.
    StereoScene scene = makeStereoScene(spec_, 7);
    int checked = 0, matched = 0;
    for (int y = 0; y < scene.left.height(); ++y) {
        for (int x = 0; x < scene.left.width(); ++x) {
            int d = scene.gtDisparity(x, y);
            int xr = x - d;
            if (xr < 0)
                continue;
            ++checked;
            matched += scene.left(x, y) == scene.right(xr, y);
        }
    }
    ASSERT_GT(checked, 0);
    // Some pixels are occluded in the right view (a nearer surface
    // covers them); everywhere else the match must be exact.
    EXPECT_GT(matched, checked * 3 / 4);
}

TEST_F(StereoSceneTest, DeterministicPerSeed)
{
    StereoScene a = makeStereoScene(spec_, 3);
    StereoScene b = makeStereoScene(spec_, 3);
    StereoScene c = makeStereoScene(spec_, 4);
    EXPECT_EQ(a.left.data(), b.left.data());
    EXPECT_EQ(a.gtDisparity.data(), b.gtDisparity.data());
    EXPECT_NE(a.left.data(), c.left.data());
}

TEST_F(StereoSceneTest, UsesFullDisparityRange)
{
    StereoScene scene = makeStereoScene(spec_, 7);
    int max_d = 0;
    for (int d : scene.gtDisparity.data())
        max_d = std::max(max_d, d);
    EXPECT_EQ(max_d, spec_.numLabels - 1);
}

TEST(StereoSuite, MatchesPaperLabelCounts)
{
    auto suite = standardStereoSuite();
    ASSERT_EQ(suite.size(), 3u);
    EXPECT_EQ(suite[0].name, "teddy");
    EXPECT_EQ(suite[0].numLabels, 56);
    EXPECT_EQ(suite[1].name, "poster");
    EXPECT_EQ(suite[1].numLabels, 30);
    EXPECT_EQ(suite[2].name, "art");
    EXPECT_EQ(suite[2].numLabels, 28);
}

// ---------------------------------------------------------------- motion

TEST(MotionScene, FrameConsistencyWhereUnoccluded)
{
    MotionSceneSpec spec;
    spec.width = 64;
    spec.height = 48;
    spec.windowRadius = 3;
    spec.noiseSigma = 0.0;
    MotionScene scene = makeMotionScene(spec, 11);

    int checked = 0, matched = 0;
    for (int y = 4; y < scene.frame0.height() - 4; ++y) {
        for (int x = 4; x < scene.frame0.width() - 4; ++x) {
            Vec2i m = scene.gtMotion(x, y);
            ++checked;
            matched += scene.frame0(x, y) ==
                       scene.frame1(x + m.x, y + m.y);
        }
    }
    ASSERT_GT(checked, 0);
    EXPECT_GT(matched, checked * 3 / 4);
}

TEST(MotionScene, MotionWithinWindow)
{
    MotionSceneSpec spec;
    spec.windowRadius = 2;
    MotionScene scene = makeMotionScene(spec, 13);
    for (const Vec2i &m : scene.gtMotion.data()) {
        EXPECT_LE(std::abs(m.x), 2);
        EXPECT_LE(std::abs(m.y), 2);
    }
}

TEST(MotionSuite, ThreeScenesWith49Labels)
{
    auto suite = standardMotionSuite();
    ASSERT_EQ(suite.size(), 3u);
    for (const auto &s : suite) {
        EXPECT_EQ(s.windowRadius, 3); // (2*3+1)^2 = 49 labels
    }
    EXPECT_EQ(suite[0].name, "venus");
}

// ----------------------------------------------------------- segmentation

TEST(SegmentationScene, LabelsInRangeAndAllPresent)
{
    SegmentationSceneSpec spec;
    spec.numSegments = 4;
    SegmentationScene scene = makeSegmentationScene(spec, 17);
    std::vector<int> counts(4, 0);
    for (int s : scene.gtSegments.data()) {
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 4);
        counts[s]++;
    }
    for (int c : counts)
        EXPECT_GT(c, 0);
}

TEST(SegmentationScene, ClassMeansSeparated)
{
    SegmentationSceneSpec spec;
    spec.numSegments = 6;
    SegmentationScene scene = makeSegmentationScene(spec, 19);
    ASSERT_EQ(scene.classMeans.size(), 6u);
    for (std::size_t i = 1; i < scene.classMeans.size(); ++i)
        EXPECT_GT(scene.classMeans[i], scene.classMeans[i - 1] + 10.0);
}

TEST(SegmentationScene, ImageReflectsSegments)
{
    SegmentationSceneSpec spec;
    spec.numSegments = 2;
    spec.noiseSigma = 1.0;
    SegmentationScene scene = makeSegmentationScene(spec, 23);
    // Pixels of segment 1 must be brighter on average than segment 0.
    double sum[2] = {0, 0};
    int cnt[2] = {0, 0};
    for (int y = 0; y < scene.image.height(); ++y) {
        for (int x = 0; x < scene.image.width(); ++x) {
            int s = scene.gtSegments(x, y);
            sum[s] += scene.image(x, y);
            cnt[s]++;
        }
    }
    EXPECT_GT(sum[1] / cnt[1], sum[0] / cnt[0] + 50.0);
}

TEST(SegmentationSuite, CountAndDeterminism)
{
    auto a = standardSegmentationSuite(5, 4);
    auto b = standardSegmentationSuite(5, 4);
    ASSERT_EQ(a.size(), 5u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].image.data(), b[i].image.data());
        EXPECT_EQ(a[i].numSegments, 4);
    }
}

} // namespace

/**
 * @file
 * Tests for real-dataset loading: PGM-backed stereo scenes
 * round-trip through files written by our own writer (the loader
 * must also reject inconsistent inputs loudly).
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "apps/stereo.hh"
#include "core/sampler_software.hh"
#include "img/dataset_io.hh"
#include "img/pgm_io.hh"
#include "img/synthetic.hh"

namespace {

using namespace retsim;
using namespace retsim::img;

class DatasetIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per case: ctest runs cases as separate
        // processes in parallel, and TearDown removes the directory.
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (std::filesystem::temp_directory_path() /
                ("retsim_dataset_io_" + std::string(info->name()) + "_" +
                 std::to_string(::getpid())))
                   .string();
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    std::string dir_;
};

TEST_F(DatasetIoTest, StereoRoundTripThroughFiles)
{
    // Write a synthetic scene to disk, load it back, verify the MRF
    // solves identically to the in-memory scene.
    StereoSceneSpec spec;
    spec.width = 48;
    spec.height = 36;
    spec.numLabels = 10;
    StereoScene mem = makeStereoScene(spec, 0x51);

    writePgm(mem.left, path("left.pgm"));
    writePgm(mem.right, path("right.pgm"));
    // Middlebury convention: gray = disparity * scale.
    ImageU8 gt(mem.left.width(), mem.left.height());
    const int scale = 8;
    for (int y = 0; y < gt.height(); ++y)
        for (int x = 0; x < gt.width(); ++x)
            gt(x, y) = static_cast<std::uint8_t>(
                mem.gtDisparity(x, y) * scale);
    writePgm(gt, path("gt.pgm"));

    StereoScene loaded = loadStereoScene(
        "from-disk", path("left.pgm"), path("right.pgm"),
        path("gt.pgm"), scale, spec.numLabels);

    EXPECT_EQ(loaded.left.data(), mem.left.data());
    EXPECT_EQ(loaded.right.data(), mem.right.data());
    EXPECT_EQ(loaded.gtDisparity.data(), mem.gtDisparity.data());
    EXPECT_EQ(loaded.numLabels, 10);

    core::SoftwareSampler s1, s2;
    auto solver = apps::defaultStereoSolver(20, 3);
    auto r_mem = apps::runStereo(mem, s1, solver);
    auto r_disk = apps::runStereo(loaded, s2, solver);
    EXPECT_EQ(r_mem.disparity.data(), r_disk.disparity.data());
    EXPECT_DOUBLE_EQ(r_mem.badPixelPercent, r_disk.badPixelPercent);
}

TEST_F(DatasetIoTest, StereoWithoutGroundTruth)
{
    StereoSceneSpec spec;
    spec.width = 32;
    spec.height = 24;
    spec.numLabels = 8;
    StereoScene mem = makeStereoScene(spec, 0x52);
    writePgm(mem.left, path("l.pgm"));
    writePgm(mem.right, path("r.pgm"));

    StereoScene loaded =
        loadStereoScene("no-gt", path("l.pgm"), path("r.pgm"));
    for (int d : loaded.gtDisparity.data())
        EXPECT_EQ(d, 0);
    EXPECT_EQ(loaded.numLabels, 64);
}

TEST_F(DatasetIoTest, StereoSizeMismatchIsFatal)
{
    writePgm(ImageU8(16, 16, 1), path("a.pgm"));
    writePgm(ImageU8(20, 16, 1), path("b.pgm"));
    EXPECT_EXIT(loadStereoScene("bad", path("a.pgm"), path("b.pgm")),
                ::testing::ExitedWithCode(1), "size mismatch");
}

TEST_F(DatasetIoTest, StereoGtBeyondRangeIsFatal)
{
    writePgm(ImageU8(16, 16, 1), path("a.pgm"));
    writePgm(ImageU8(16, 16, 1), path("b.pgm"));
    writePgm(ImageU8(16, 16, 255), path("g.pgm")); // disparity 31
    EXPECT_EXIT(loadStereoScene("bad", path("a.pgm"), path("b.pgm"),
                                path("g.pgm"), 8, 16),
                ::testing::ExitedWithCode(1), "exceeds");
}

TEST_F(DatasetIoTest, MissingFileIsFatal)
{
    EXPECT_EXIT(loadStereoScene("x", path("nope.pgm"),
                                path("nope2.pgm")),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace

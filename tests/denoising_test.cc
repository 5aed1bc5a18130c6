/**
 * @file
 * Tests for the MRF denoising application: level quantization round
 * trips, PSNR, problem construction, and end-to-end restoration
 * quality with both the software baseline and the new RSU-G.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/denoising.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "support/energy_bound.hh"

namespace {

using namespace retsim;
using namespace retsim::apps;

/** A piecewise-constant test image with a soft gradient region. */
img::ImageU8
testImage(int w = 56, int h = 48)
{
    img::ImageU8 im(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            if (x < w / 3)
                im(x, y) = 40;
            else if (x < 2 * w / 3)
                im(x, y) = 150;
            else
                im(x, y) = static_cast<std::uint8_t>(
                    190 + 60 * y / h);
        }
    }
    return im;
}

TEST(Denoising, LevelIntensityEndpoints)
{
    EXPECT_DOUBLE_EQ(levelIntensity(0, 32), 0.0);
    EXPECT_DOUBLE_EQ(levelIntensity(31, 32), 255.0);
    EXPECT_NEAR(levelIntensity(16, 32), 255.0 * 16 / 31, 1e-9);
}

TEST(Denoising, QuantizeRoundTripError)
{
    // Quantizing to 32 levels and back moves a pixel at most half a
    // level step (~4.1 intensity units).
    auto image = testImage();
    auto labels = quantizeToLevels(image, 32);
    auto back = levelsToImage(labels, 32);
    double step = 255.0 / 31.0;
    for (std::size_t i = 0; i < image.data().size(); ++i) {
        EXPECT_LE(std::abs(double(image.data()[i]) -
                           double(back.data()[i])),
                  step / 2.0 + 1.0);
    }
}

TEST(Denoising, PsnrProperties)
{
    auto image = testImage();
    EXPECT_TRUE(std::isinf(psnrDb(image, image)));
    auto noisy = addGaussianNoise(image, 20.0, 7);
    double p = psnrDb(noisy, image);
    // sigma 20 -> PSNR ~ 20 log10(255/20) ~ 22 dB.
    EXPECT_GT(p, 19.0);
    EXPECT_LT(p, 25.0);
}

TEST(Denoising, NoiseIsDeterministicPerSeed)
{
    auto image = testImage();
    auto a = addGaussianNoise(image, 15.0, 3);
    auto b = addGaussianNoise(image, 15.0, 3);
    auto c = addGaussianNoise(image, 15.0, 4);
    EXPECT_EQ(a.data(), b.data());
    EXPECT_NE(a.data(), c.data());
}

TEST(Denoising, ProblemShapeAndBudget)
{
    auto noisy = addGaussianNoise(testImage(), 15.0, 5);
    DenoisingParams params;
    auto problem = buildDenoisingProblem(noisy, params);
    EXPECT_EQ(problem.numLabels(), params.levels);
    EXPECT_EQ(problem.pairwise().kind(),
              mrf::DistanceKind::Absolute);
    EXPECT_LE(mrf::maxConditionalEnergy(problem), 255.0);
}

TEST(Denoising, RestorationImprovesPsnrSoftware)
{
    auto clean = testImage();
    auto noisy = addGaussianNoise(clean, 25.0, 11);
    core::SoftwareSampler sw;
    auto result = runDenoising(clean, noisy, sw,
                               defaultDenoisingSolver(40, 3));
    EXPECT_GT(result.psnrRestored, result.psnrNoisy + 3.0);
}

TEST(Denoising, RsuMatchesSoftwareRestoration)
{
    auto clean = testImage();
    auto noisy = addGaussianNoise(clean, 25.0, 13);
    core::SoftwareSampler sw;
    core::RsuSampler rsu(core::RsuConfig::newDesign());
    auto solver = defaultDenoisingSolver(40, 5);
    auto r_sw = runDenoising(clean, noisy, sw, solver);
    auto r_rsu = runDenoising(clean, noisy, rsu, solver);
    EXPECT_GT(r_rsu.psnrRestored, r_rsu.psnrNoisy + 2.0);
    EXPECT_NEAR(r_rsu.psnrRestored, r_sw.psnrRestored, 2.5);
}

TEST(Denoising, RejectsTooManyLevels)
{
    EXPECT_DEATH(levelIntensity(0, 100), "RSU range");
}

} // namespace

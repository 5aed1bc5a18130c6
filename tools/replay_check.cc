/**
 * @file
 * Differential replay validator for the checkpoint/resume subsystem.
 *
 * For every (application, solver mode, sampler, SIMD backend) case it
 * runs the same miniature annealing problem twice:
 *
 *   1. uninterrupted, capturing the snapshot emitted at sweep K and
 *      the final snapshot;
 *   2. "killed" at sweep K: the mid-run snapshot is round-tripped
 *      through the on-disk container (write + CRC-validated read), a
 *      fresh sampler is built, and the run resumes from the file.
 *
 * The two final snapshots are then compared byte for byte.  Because a
 * snapshot serializes the label field, the solver RNG words, the scan
 * order, the sampler counters and entropy positions, every stripe
 * clone's state and the full trace, byte equality proves the replay
 * contract: killing and resuming loses nothing and diverges nowhere.
 *
 * Modes: gibbs (raster), gibbs-rand (random scan), cb (checkerboard
 * serial), cb-striped (4 stripes, 2 threads).  The full app matrix
 * runs on the active backend; every other runnable SIMD backend is
 * exercised with the stereo app across all modes.
 *
 *   ./replay_check [--sweeps=16] [--kill-at=7] [--tmpdir=.]
 *                  [--simd=auto|off|scalar|avx2]
 *
 * Exit 0: every case byte-identical.  Exit 1: divergence (the failing
 * cases are named).  Exit 2: setup failure.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/race_cli.hh"
#include "core/rsu_config.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkpoint.hh"
#include "mrf/gibbs.hh"
#include "rng/rng.hh"
#include "simd/kernels.hh"
#include "simd/simd_cli.hh"
#include "util/cli.hh"

namespace {

using namespace retsim;

/** Sampler factory: resumed runs must start from a fresh instance. */
using SamplerFactory =
    std::unique_ptr<mrf::LabelSampler> (*)();

/** `--race-mode=` selection for the RSU cases.  The fast path's fixed
 *  draws-per-pixel layout makes it exactly as replayable as the
 *  literal race, and CI runs this validator in both modes. */
core::RaceMode g_race_mode = core::RaceMode::Race;

/** `--energy-cache=` toggle.  The flip-aware energy-plane cache is
 *  rebuilt from scratch on construction (never checkpointed), so the
 *  replay contract must hold identically with it on or off. */
bool g_energy_cache = true;

std::unique_ptr<mrf::LabelSampler>
makeRsu()
{
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    cfg.raceMode = g_race_mode;
    return std::make_unique<core::RsuSampler>(cfg);
}

std::unique_ptr<mrf::LabelSampler>
makeSoftware()
{
    return std::make_unique<core::SoftwareSampler>();
}

std::unique_ptr<mrf::LabelSampler>
makeCdfMt()
{
    return std::make_unique<core::CdfLutSampler>(
        std::make_unique<rng::Mt19937>(99));
}

struct AppCase
{
    const char *name;
    mrf::MrfProblem problem;
    SamplerFactory sampler;
    std::uint64_t seed;
};

/** The quality-gate miniature scenes, rebuilt deterministically. */
std::vector<AppCase>
buildApps()
{
    std::vector<AppCase> apps;

    {
        img::StereoSceneSpec spec;
        spec.name = "replay";
        spec.width = 48;
        spec.height = 36;
        spec.numLabels = 10;
        spec.numObjects = 4;
        auto scene = img::makeStereoScene(spec, 5);
        apps.push_back({"stereo", apps::buildStereoProblem(scene),
                        &makeRsu, 9});
    }
    {
        img::ImageU8 clean(40, 32);
        for (int y = 0; y < clean.height(); ++y)
            for (int x = 0; x < clean.width(); ++x)
                clean(x, y) = static_cast<std::uint8_t>(
                    x < 13 ? 40 : (x < 26 ? 150 : 210));
        auto noisy = apps::addGaussianNoise(clean, 20.0, 7);
        apps::DenoisingParams params;
        params.levels = 12;
        apps.push_back({"denoising",
                        apps::buildDenoisingProblem(noisy, params),
                        &makeSoftware, 11});
    }
    {
        img::MotionSceneSpec spec;
        spec.name = "replay";
        spec.width = 36;
        spec.height = 30;
        spec.windowRadius = 2;
        spec.numObjects = 3;
        auto scene = img::makeMotionScene(spec, 17);
        apps.push_back({"motion", apps::buildMotionProblem(scene),
                        &makeCdfMt, 13});
    }
    {
        img::SegmentationSceneSpec spec;
        spec.name = "replay";
        spec.width = 40;
        spec.height = 40;
        spec.numSegments = 4;
        spec.numRegions = 8;
        auto scene = img::makeSegmentationScene(spec, 23);
        apps.push_back({"segmentation",
                        apps::buildSegmentationProblem(scene),
                        &makeRsu, 19});
    }
    return apps;
}

constexpr const char *kModes[] = {"gibbs", "gibbs-rand", "cb",
                                  "cb-striped"};

mrf::SolverConfig
modeConfig(const std::string &mode, std::uint64_t seed, int sweeps)
{
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = 24.0;
    cfg.annealing.tEnd = 0.8;
    cfg.annealing.sweeps = sweeps;
    cfg.seed = seed;
    cfg.energyCache = g_energy_cache;
    if (mode == "gibbs-rand")
        cfg.randomScan = true;
    if (mode == "cb-striped") {
        cfg.stripes = 4;
        cfg.threads = 2;
    }
    return cfg;
}

struct RunOutput
{
    bool haveMid = false;
    mrf::SolverCheckpoint mid;
    std::vector<unsigned char> finalBytes;
};

RunOutput
runOnce(const std::string &mode, mrf::SolverConfig cfg,
        const mrf::MrfProblem &problem, mrf::LabelSampler &sampler,
        int kill_at)
{
    RunOutput out;
    cfg.checkpointEvery = kill_at;
    cfg.checkpointSink = [&](const mrf::SolverCheckpoint &cp) {
        if (cp.sweepsDone == kill_at) {
            out.mid = cp;
            out.haveMid = true;
        }
        if (cp.sweepsDone == cp.sweepsTotal)
            out.finalBytes = cp.serialize();
    };
    if (mode == "cb" || mode == "cb-striped") {
        mrf::CheckerboardGibbsSolver solver(cfg);
        solver.run(problem, sampler);
    } else {
        mrf::GibbsSolver solver(cfg);
        solver.run(problem, sampler);
    }
    return out;
}

/** One kill-and-resume experiment; returns true on byte identity. */
bool
checkCase(const AppCase &app, const std::string &mode, int sweeps,
          int kill_at, const std::string &tmpdir)
{
    const std::string label =
        std::string(app.name) + "/" + mode + "/" +
        simd::backendName(simd::activeBackend());

    mrf::SolverConfig cfg = modeConfig(mode, app.seed, sweeps);

    auto s1 = app.sampler();
    RunOutput whole = runOnce(mode, cfg, app.problem, *s1, kill_at);
    if (!whole.haveMid || whole.finalBytes.empty()) {
        std::fprintf(stderr,
                     "%-36s SETUP FAILURE (no mid/final snapshot)\n",
                     label.c_str());
        return false;
    }

    // Round-trip the mid-run snapshot through the on-disk container
    // so the file format, CRC and atomic write are on the tested path.
    const std::string path = tmpdir + "/replay_check.ckpt";
    std::string error;
    if (!whole.mid.writeFile(path, &error)) {
        std::fprintf(stderr, "%-36s WRITE FAILURE: %s\n",
                     label.c_str(), error.c_str());
        return false;
    }
    auto restored = std::make_shared<mrf::SolverCheckpoint>();
    if (!mrf::SolverCheckpoint::readFile(path, restored.get(),
                                         &error)) {
        std::fprintf(stderr, "%-36s READ FAILURE: %s\n",
                     label.c_str(), error.c_str());
        return false;
    }

    mrf::SolverConfig cfg2 = modeConfig(mode, app.seed, sweeps);
    cfg2.resume = std::move(restored);
    auto s2 = app.sampler();
    RunOutput resumed = runOnce(mode, cfg2, app.problem, *s2, kill_at);

    if (resumed.finalBytes != whole.finalBytes) {
        std::fprintf(stderr,
                     "%-36s DIVERGED (final snapshots differ, "
                     "%zu vs %zu bytes)\n",
                     label.c_str(), whole.finalBytes.size(),
                     resumed.finalBytes.size());
        return false;
    }
    std::printf("%-36s ok (%zu-byte final snapshot)\n", label.c_str(),
                whole.finalBytes.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    simd::backendFromCli(args); // --simd= dispatch override
    g_race_mode = core::raceModeFromCli(args);
    g_energy_cache = args.getBool("energy-cache", true);
    const int sweeps = static_cast<int>(args.getInt("sweeps", 16));
    const int kill_at = static_cast<int>(args.getInt("kill-at", 7));
    const std::string tmpdir = args.getString("tmpdir", ".");
    if (sweeps < 2 || kill_at < 1 || kill_at >= sweeps) {
        std::fprintf(stderr,
                     "replay_check: need 1 <= kill-at < sweeps\n");
        return 2;
    }

    std::vector<AppCase> apps = buildApps();
    int failures = 0;

    // Full application matrix on the active backend.
    for (const AppCase &app : apps)
        for (const char *mode : kModes)
            if (!checkCase(app, mode, sweeps, kill_at, tmpdir))
                ++failures;

    // Every other runnable backend: stereo across all modes.
    const simd::Backend active = simd::activeBackend();
    for (simd::Backend b : simd::runnableBackends()) {
        if (b == active)
            continue;
        simd::setBackend(simd::backendName(b));
        for (const char *mode : kModes)
            if (!checkCase(apps[0], mode, sweeps, kill_at, tmpdir))
                ++failures;
    }
    simd::setBackend(simd::backendName(active));

    if (failures > 0) {
        std::fprintf(stderr,
                     "\nreplay_check: %d case(s) diverged\n",
                     failures);
        return 1;
    }
    std::printf("\nreplay_check: all cases byte-identical after "
                "kill-at-%d + resume (race_mode=%s, energy_cache=%s)\n",
                kill_at, core::toString(g_race_mode).c_str(),
                g_energy_cache ? "on" : "off");
    return 0;
}

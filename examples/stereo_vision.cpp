/**
 * @file
 * Stereo vision end to end: solve a synthetic Middlebury-analog scene
 * with the software baseline, the previous RSU-G and the new RSU-G,
 * print BP/RMS, and write the disparity maps as PGM images — the
 * reproduction of the paper's Figs. 4, 6 and 9b.
 *
 *   ./stereo_vision [--scene=teddy|poster|art] [--sweeps=200]
 *                   [--outdir=.]
 *
 * Sharded runs (shard/shard_cli.hh) take [--shards=N]
 * [--shard-transport=loopback|socket] plus the schedule knob
 * [--threads=N] (intra-rank stripe threads); every combination
 * produces the byte-identical result.
 *
 * Users with real data (e.g. Middlebury pairs converted to PGM) can
 * bypass the synthetic scenes:
 *
 *   ./stereo_vision --left=l.pgm --right=r.pgm \
 *                   [--gt=disp.pgm --gt-scale=8] [--labels=64]
 */

#include <cstdio>
#include <string>

#include "apps/stereo.hh"
#include "core/race_cli.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/dataset_io.hh"
#include "img/pgm_io.hh"
#include "mrf/checkpoint_cli.hh"
#include "obs/telemetry_cli.hh"
#include "img/synthetic.hh"
#include "shard/shard_cli.hh"
#include "simd/simd_cli.hh"
#include "util/cli.hh"

using namespace retsim;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    simd::backendFromCli(args); // --simd= dispatch override
    obs::TelemetryScope telemetry =
        obs::telemetryFromCli(args, "stereo_vision");
    const std::string which = args.getString("scene", "teddy");
    const int sweeps = static_cast<int>(args.getInt("sweeps", 200));
    const std::string outdir = args.getString("outdir", ".");

    img::StereoScene scene;
    if (args.has("left") || args.has("right")) {
        scene = img::loadStereoScene(
            "user", args.getString("left", ""),
            args.getString("right", ""), args.getString("gt", ""),
            static_cast<int>(args.getInt("gt-scale", 8)),
            static_cast<int>(args.getInt("labels", 64)));
    } else {
        img::StereoSceneSpec spec;
        if (which == "teddy") {
            spec = img::stereoTeddySpec();
        } else if (which == "poster") {
            spec = img::stereoPosterSpec();
        } else if (which == "art") {
            spec = img::stereoArtSpec();
        } else {
            std::fprintf(stderr, "unknown scene '%s'\n",
                         which.c_str());
            return 1;
        }
        scene = img::makeStereoScene(spec, 0x7edd1ULL);
    }
    std::printf("Scene %s: %dx%d, %d disparity labels\n",
                scene.name.c_str(), scene.left.width(),
                scene.left.height(), scene.numLabels);

    auto solver = apps::defaultStereoSolver(sweeps, 42);
    auto prefix = outdir + "/" + scene.name;

    img::writePgm(scene.left, prefix + "_left.pgm");
    img::writePgm(img::labelMapToGray(scene.gtDisparity,
                                      scene.numLabels),
                  prefix + "_gt.pgm");

    struct Variant
    {
        const char *name;
        const char *file;
        const char *ckpt; ///< snapshot-path suffix, one per variant
    };
    core::SoftwareSampler sw;
    core::RsuConfig prev_cfg = core::RsuConfig::previousDesign();
    core::RsuConfig next_cfg = core::RsuConfig::newDesign();
    prev_cfg.raceMode = next_cfg.raceMode = core::raceModeFromCli(args);
    core::RsuSampler prev(prev_cfg);
    core::RsuSampler next(next_cfg);
    mrf::LabelSampler *samplers[] = {&sw, &prev, &next};
    const Variant variants[] = {
        {"software-only", "_software.pgm", "software"},
        {"previous RSU-G", "_prev_rsug.pgm", "prev_rsug"},
        {"new RSU-G", "_new_rsug.pgm", "new_rsug"}};

    std::printf("\n%-16s %8s %8s\n", "sampler", "BP%", "RMS");
    std::printf("----------------------------------\n");
    for (int i = 0; i < 3; ++i) {
        auto cfg = solver;
        mrf::checkpointFromCli(args, &cfg, variants[i].ckpt);
        shard::shardFromCli(args, &cfg);
        auto result = apps::runStereo(scene, *samplers[i], cfg);
        std::printf("%-16s %8.2f %8.3f\n", variants[i].name,
                    result.badPixelPercent, result.rmsError);
        img::writePgm(img::labelMapToGray(result.disparity,
                                          scene.numLabels),
                      prefix + variants[i].file);
    }
    std::printf("\nWrote %s_{left,gt,software,prev_rsug,new_rsug}"
                ".pgm\n(light = near, dark = far — the paper's "
                "Fig. 4/6/9b color coding)\n",
                prefix.c_str());
    return 0;
}

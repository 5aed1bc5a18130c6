/**
 * @file
 * Differential validator for the sharded checkerboard solver (the CI
 * shard-equivalence leg).
 *
 * For each of the four quality-gate miniature problems (stereo,
 * denoising, motion, segmentation — same scenes, seeds and schedules
 * as tools/quality_gate) it runs the serial striped
 * CheckerboardGibbsSolver as the reference and then the
 * ShardedCheckerboardSolver at every {2, 4} shard count × {loopback,
 * socket} transport, and requires BYTE-IDENTICAL results across all of
 * them:
 *
 *   - the final label field,
 *   - the full SolverTrace (FP energy series, temperatures, counters),
 *   - the final SOLVERCP snapshot payload (labels + RNG streams +
 *     caller/stripe sampler states + trace).
 *
 * It then runs the crash drill: a forked child solves the stereo
 * miniature on the socket transport with --die semantics (worker rank
 * 1 _Exit(17)s after a mid-run checkpoint and rank 0 propagates exit
 * 17), the parent verifies the exit code, resumes from the surviving
 * snapshot, and requires the resumed run's final snapshot and labels
 * to be byte-identical to the uninterrupted reference.  Exit 0 only if
 * every comparison holds.
 *
 *   --tmpdir=D   scratch directory for drill snapshots (default ".")
 *
 * The schedule knob --threads=N (shard/shard_cli.hh) applies to
 * every SHARDED run and to the crash drill, while the serial
 * reference stays the pristine striped solver — so a `--threads=2`
 * invocation proves the threaded sharded schedule byte-identical to
 * the very same serial goldens.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "apps/denoising.hh"
#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/rsu_config.hh"
#include "core/sampler_rsu.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkpoint.hh"
#include "shard/shard_cli.hh"
#include "shard/sharded_solver.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace {

using namespace retsim;

/** --threads=, applied to sharded runs only. */
shard::SolverTuning g_tuning;

core::RsuSampler
makeSampler()
{
    return core::RsuSampler(core::RsuConfig::newDesign());
}

/** Everything the equivalence contract covers, from one run. */
struct RunResult
{
    img::LabelMap labels;
    mrf::SolverTrace trace;
    std::vector<unsigned char> snapshot; ///< final SOLVERCP payload
};

/** Miniature problem + the solver schedule the gate runs it under. */
struct Miniature
{
    std::string name;
    mrf::MrfProblem problem;
    mrf::SolverConfig config;
};

std::vector<Miniature>
buildMiniatures()
{
    std::vector<Miniature> minis;
    {
        img::StereoSceneSpec spec;
        spec.name = "gate";
        spec.width = 64;
        spec.height = 48;
        spec.numLabels = 12;
        spec.numObjects = 4;
        auto scene = img::makeStereoScene(spec, 5);
        minis.push_back({"stereo", apps::buildStereoProblem(scene),
                         apps::defaultStereoSolver(60, 9)});
    }
    {
        img::ImageU8 clean(56, 48);
        for (int y = 0; y < clean.height(); ++y)
            for (int x = 0; x < clean.width(); ++x)
                clean(x, y) = static_cast<std::uint8_t>(
                    x < 19 ? 40 : (x < 38 ? 150 : 210));
        auto noisy = apps::addGaussianNoise(clean, 20.0, 7);
        apps::DenoisingParams params;
        params.levels = 16;
        minis.push_back({"denoising",
                         apps::buildDenoisingProblem(noisy, params),
                         apps::defaultDenoisingSolver(30, 11)});
    }
    {
        img::MotionSceneSpec spec;
        spec.name = "gate";
        spec.width = 48;
        spec.height = 40;
        spec.windowRadius = 2;
        spec.numObjects = 3;
        auto scene = img::makeMotionScene(spec, 17);
        minis.push_back({"motion", apps::buildMotionProblem(scene),
                         apps::defaultMotionSolver(40, 13)});
    }
    {
        img::SegmentationSceneSpec spec;
        spec.name = "gate";
        spec.width = 48;
        spec.height = 48;
        spec.numSegments = 4;
        spec.numRegions = 10;
        auto scene = img::makeSegmentationScene(spec, 23);
        minis.push_back({"segmentation",
                         apps::buildSegmentationProblem(scene),
                         apps::defaultSegmentationSolver(30, 19)});
    }
    for (Miniature &m : minis) {
        // Sharded runs always use the striped decomposition; pin an
        // explicit stripe count so the serial reference takes the
        // identical (seed, stripes) schedule.
        m.config.stripes = 8;
        // Checkpoint through a sink so every run yields its final
        // SOLVERCP payload for the byte comparison (the final sweep
        // always snapshots).
        m.config.checkpointEvery = 5;
    }
    return minis;
}

mrf::SolverConfig
withSnapshotCapture(const mrf::SolverConfig &base,
                    std::vector<unsigned char> *out)
{
    mrf::SolverConfig cfg = base;
    cfg.checkpointSink = [out](const mrf::SolverCheckpoint &cp) {
        *out = cp.serialize();
    };
    return cfg;
}

RunResult
runSerial(const Miniature &m)
{
    RunResult r;
    mrf::SolverConfig cfg = withSnapshotCapture(m.config, &r.snapshot);
    auto sampler = makeSampler();
    r.labels =
        mrf::CheckerboardGibbsSolver(cfg).run(m.problem, sampler,
                                              &r.trace);
    return r;
}

RunResult
runSharded(const Miniature &m, const shard::ShardOptions &options)
{
    RunResult r;
    mrf::SolverConfig cfg = withSnapshotCapture(m.config, &r.snapshot);
    shard::applySolverTuning(g_tuning, &cfg);
    auto sampler = makeSampler();
    r.labels = shard::ShardedCheckerboardSolver(cfg, options)
                   .run(m.problem, sampler, &r.trace);
    return r;
}

bool
sameTrace(const mrf::SolverTrace &a, const mrf::SolverTrace &b)
{
    return a.energyPerSweep == b.energyPerSweep &&
           a.temperaturePerSweep == b.temperaturePerSweep &&
           a.labelChanges == b.labelChanges &&
           a.pixelUpdates == b.pixelUpdates;
}

int g_failures = 0;

void
compareRuns(const std::string &what, const RunResult &ref,
            const RunResult &got)
{
    bool ok = true;
    if (got.labels.data() != ref.labels.data()) {
        std::fprintf(stderr, "FAIL %s: labels differ\n", what.c_str());
        ok = false;
    }
    if (!sameTrace(got.trace, ref.trace)) {
        std::fprintf(stderr, "FAIL %s: trace differs\n", what.c_str());
        ok = false;
    }
    if (got.snapshot != ref.snapshot) {
        std::fprintf(stderr, "FAIL %s: final snapshot differs\n",
                     what.c_str());
        ok = false;
    }
    if (ok)
        std::printf("ok   %s\n", what.c_str());
    else
        ++g_failures;
}

/**
 * Kill-one-shard drill on the stereo miniature: child process runs the
 * socket-transport solve with worker rank 1 dying after the first
 * checkpoint at or past mid-anneal, parent verifies exit 17, resumes
 * from the snapshot the drill left behind, and compares against the
 * uninterrupted reference.
 */
void
runCrashDrill(const Miniature &m, const RunResult &ref,
              const std::string &tmpdir)
{
    const std::string path = tmpdir + "/shard_drill_" + m.name +
                             ".ckpt";
    const int dieAt = m.config.annealing.sweeps / 2;

    // The child exits through std::exit(17), which flushes stdio — an
    // inherited unflushed buffer would replay the parent's output.
    std::fflush(nullptr);
    pid_t pid = ::fork();
    RETSIM_ASSERT(pid >= 0, "shard_check: fork failed");
    if (pid == 0) {
        mrf::SolverConfig cfg = m.config;
        cfg.checkpointPath = path;
        shard::applySolverTuning(g_tuning, &cfg);
        shard::ShardOptions options;
        options.shards = 2;
        options.transport = shard::ShardOptions::Transport::Socket;
        options.dieRank = 1;
        options.dieAtSweep = dieAt;
        auto sampler = makeSampler();
        shard::ShardedCheckerboardSolver(cfg, options)
            .run(m.problem, sampler);
        // The die path exits 17 before run() returns.
        std::_Exit(98);
    }
    int status = 0;
    RETSIM_ASSERT(::waitpid(pid, &status, 0) == pid,
                  "shard_check: waitpid failed");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 17) {
        std::fprintf(stderr,
                     "FAIL drill %s: expected exit 17, status 0x%x\n",
                     m.name.c_str(), status);
        ++g_failures;
        return;
    }

    auto cp = std::make_shared<mrf::SolverCheckpoint>();
    std::string error;
    if (!mrf::SolverCheckpoint::readFile(path, cp.get(), &error))
        RETSIM_FATAL("shard_check: drill snapshot unreadable: ",
                     error);
    RETSIM_ASSERT(cp->sweepsDone >= dieAt &&
                      cp->sweepsDone < cp->sweepsTotal,
                  "shard_check: drill died at an unexpected sweep ",
                  cp->sweepsDone);
    std::printf("     drill %s: worker killed after sweep %d, "
                "resuming\n",
                m.name.c_str(), cp->sweepsDone);

    RunResult resumed;
    mrf::SolverConfig cfg =
        withSnapshotCapture(m.config, &resumed.snapshot);
    shard::applySolverTuning(g_tuning, &cfg);
    cfg.resume = std::move(cp);
    shard::ShardOptions options;
    options.shards = 2;
    options.transport = shard::ShardOptions::Transport::Socket;
    auto sampler = makeSampler();
    resumed.labels = shard::ShardedCheckerboardSolver(cfg, options)
                         .run(m.problem, sampler, &resumed.trace);
    compareRuns("drill " + m.name + " kill+resume vs serial", ref,
                resumed);
    std::remove(path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const std::string tmpdir = args.getString("tmpdir", ".");
    g_tuning = shard::solverTuningFromCli(args);
    if (g_tuning.threads >= 0)
        std::printf("shard_check: sharded runs use threads=%d\n",
                    g_tuning.threads);

    std::vector<Miniature> minis = buildMiniatures();
    for (const Miniature &m : minis) {
        RunResult ref = runSerial(m);
        std::printf("ref  %s: %d sweeps, stripes=%d\n",
                    m.name.c_str(), m.config.annealing.sweeps,
                    m.config.stripes);
        for (int shards : {2, 4}) {
            for (auto transport :
                 {shard::ShardOptions::Transport::Loopback,
                  shard::ShardOptions::Transport::Socket}) {
                shard::ShardOptions options;
                options.shards = shards;
                options.transport = transport;
                RunResult got = runSharded(m, options);
                compareRuns(
                    m.name + " shards=" + std::to_string(shards) +
                        " transport=" +
                        (transport ==
                                 shard::ShardOptions::Transport::
                                     Loopback
                             ? "loopback"
                             : "socket"),
                    ref, got);
            }
        }
        runCrashDrill(m, ref, tmpdir);
    }

    if (g_failures > 0) {
        std::fprintf(stderr, "shard_check: %d comparison(s) FAILED\n",
                     g_failures);
        return 1;
    }
    std::printf("shard_check: all sharded runs byte-identical to "
                "serial\n");
    return 0;
}

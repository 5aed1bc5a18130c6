/**
 * @file
 * Serial vs. threaded chromatic-Gibbs sweep throughput.
 *
 * The paper's speedup claim rests on the chromatic schedule exposing
 * one-half of the grid as independent samples; this bench measures how
 * much of that parallelism the software substrate now captures.  It
 * times full checkerboard sweeps (pixels/s) on the denoising and
 * stereo workloads — the serial reference path, then the striped path
 * at 1/2/4/N threads with a fixed stripe count — and emits
 * machine-readable JSON (BENCH_solver_scaling.json) so later PRs have
 * a perf trajectory to regress against.
 *
 * The sampler under test is selectable (--sampler=software|cdf-lut|
 * rsu, --race-mode=race|fastpath|auto), and the default workload list
 * includes an rsu-new-design fast-path stereo run at the packed-lane
 * label count so the device pipeline's scaling is tracked alongside
 * the software baseline.  Each run reports the incremental
 * energy-plane cache's hit rate (--energy-cache=0 disables it).
 *
 * With --shards=N the sharded solver is timed three ways per
 * workload — synchronous halo exchange, overlapped (boundary-first)
 * serial, and overlapped at 4 intra-rank threads — and every run row
 * records overlap_halo, threads and the halo_wait_ns counter delta,
 * so the JSON shows how much ghost-row latency the overlap hides
 * even on a single-core container.
 *
 * Every run row also records memo_bytes_per_clone: the fast-path
 * memo bytes its stripe clones held (the core.race_fastpath.memo_bytes
 * delta over the run, per stripe; forked socket ranks' clones are not
 * counted).  hardware_threads is the CPUs the process may run on, so
 * a run under `taskset -c 0` records 1.
 */

#include <chrono>
#include <cstdio>
#include <set>

#include "apps/denoising.hh"
#include "apps/stereo.hh"
#include "bench_common.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "obs/metrics.hh"
#include "shard/shard_cli.hh"
#include "simd/simd_cli.hh"

namespace {

using namespace retsim;

struct RunResult
{
    int threads = 0;
    int stripes = 0;
    int shards = 1;                 ///< 1 = single-process solver
    const char *transport = "none"; ///< loopback|socket when sharded
    bool overlapHalo = false;       ///< boundary-first schedule
    double seconds = 0.0;
    double pixelsPerSec = 0.0;
    double cacheHitRate = 0.0;      ///< energy planes served clean
    std::uint64_t haloWaitNs = 0;   ///< time blocked on ghost rows
    std::uint64_t memoBytes = 0;    ///< fast-path memo per sampler
};

/** Energy-plane cache traffic of one run, read back from the global
 *  metric registry the solvers fold their per-run stats into. */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t recomputed = 0;

    static CacheCounters now()
    {
        obs::Registry &reg = obs::Registry::global();
        static const obs::MetricId h =
            reg.counter("mrf.energy_cache.clean_hits");
        static const obs::MetricId r =
            reg.counter("mrf.energy_cache.recomputed");
        return {reg.counterValue(h), reg.counterValue(r)};
    }
};

/** Cumulative time the shard layer spent blocked on inbound ghost
 *  rows (shard.halo.wait_ns), read back like the cache counters; the
 *  per-run delta shows how much halo latency the overlapped schedule
 *  actually hides. */
std::uint64_t
haloWaitNow()
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::MetricId id =
        reg.counter("shard.halo.wait_ns");
    return reg.counterValue(id);
}

/** Fast-path memo bytes of every RaceFastPath destroyed so far
 *  (core.race_fastpath.memo_bytes): a run's delta covers the samplers
 *  it built, which are gone when timeSolve returns. */
std::uint64_t
memoBytesNow()
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::MetricId id =
        reg.counter("core.race_fastpath.memo_bytes");
    return reg.counterValue(id);
}

double
timeSolve(const mrf::MrfProblem &problem,
          const bench::SamplerFactory &factory,
          const mrf::SolverConfig &cfg,
          const shard::ShardOptions &shards)
{
    auto sampler = factory();
    auto start = std::chrono::steady_clock::now();
    if (shards.shards > 1)
        shard::ShardedCheckerboardSolver(cfg, shards)
            .run(problem, *sampler);
    else
        mrf::CheckerboardGibbsSolver(cfg).run(problem, *sampler);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count();
}

RunResult
measure(const mrf::MrfProblem &problem,
        const bench::SamplerFactory &factory, mrf::SolverConfig cfg,
        int threads, int stripes,
        const shard::ShardOptions &shards = {},
        bool overlapHalo = false)
{
    cfg.threads = threads;
    cfg.stripes = stripes;
    cfg.overlapHalo = overlapHalo;
    RunResult r;
    r.threads = threads;
    r.stripes = stripes;
    r.overlapHalo = overlapHalo;
    if (shards.shards > 1) {
        r.shards = shards.shards;
        r.transport =
            shards.transport == shard::ShardOptions::Transport::Socket
                ? "socket"
                : "loopback";
    }
    const CacheCounters before = CacheCounters::now();
    const std::uint64_t waitBefore = haloWaitNow();
    const std::uint64_t memoBefore = memoBytesNow();
    r.seconds = timeSolve(problem, factory, cfg, shards);
    r.haloWaitNs = haloWaitNow() - waitBefore;
    // Serial runs draw through the one sampler; striped and sharded
    // runs through one clone per stripe.
    r.memoBytes = (memoBytesNow() - memoBefore) /
                  static_cast<std::uint64_t>(std::max(1, stripes));
    const CacheCounters after = CacheCounters::now();
    const double served =
        static_cast<double>((after.hits - before.hits) +
                            (after.recomputed - before.recomputed));
    r.cacheHitRate =
        served > 0.0
            ? static_cast<double>(after.hits - before.hits) / served
            : 0.0;
    double pixels = static_cast<double>(problem.width()) *
                    problem.height() * cfg.annealing.sweeps;
    r.pixelsPerSec = pixels / r.seconds;
    return r;
}

void
printRun(const RunResult &r, double serial_s)
{
    if (r.shards > 1)
        std::printf("  shards=%2d (%s) stripes=%2d threads=%d "
                    "overlap=%s  %8.3f s  %12.0f px/s  "
                    "halo-wait %6.2f ms  cache-hit %5.1f%%  "
                    "memo %7.1f KiB/clone  %.2fx\n",
                    r.shards, r.transport, r.stripes, r.threads,
                    r.overlapHalo ? "on" : "off", r.seconds,
                    r.pixelsPerSec,
                    static_cast<double>(r.haloWaitNs) / 1e6,
                    100.0 * r.cacheHitRate,
                    static_cast<double>(r.memoBytes) / 1024.0,
                    serial_s / r.seconds);
    else
        std::printf("  threads=%2d stripes=%2d  %8.3f s  %12.0f px/s  "
                    "cache-hit %5.1f%%  memo %7.1f KiB/clone  %.2fx\n",
                    r.threads, r.stripes, r.seconds, r.pixelsPerSec,
                    100.0 * r.cacheHitRate,
                    static_cast<double>(r.memoBytes) / 1024.0,
                    serial_s / r.seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int size = static_cast<int>(args.getInt("size", 256));
    const int sweeps = static_cast<int>(args.getInt("sweeps", 6));
    const int stripes = static_cast<int>(args.getInt("stripes", 16));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string out =
        args.getString("out", "BENCH_solver_scaling.json");
    const std::string sampler_arg = args.getString("sampler", "");
    const std::string race_arg = args.getString("race-mode", "auto");
    const bool energy_cache = args.getBool("energy-cache", true);
    // --shards=N (with --shard-transport=loopback|socket) appends a
    // multi-shard run per workload so sharded throughput lands in the
    // same perf trajectory file.
    const shard::ShardOptions shard_options =
        shard::shardOptionsFromCli(args);
    const int hw = bench::availableCpus();
    const char *backend =
        simd::backendName(simd::backendFromCli(args));

    core::RaceMode race_mode = core::RaceMode::Auto;
    if (race_arg == "race")
        race_mode = core::RaceMode::Race;
    else if (race_arg == "fastpath")
        race_mode = core::RaceMode::FastPath;
    else if (race_arg != "auto")
        RETSIM_FATAL("unknown --race-mode=", race_arg,
                     " (race|fastpath|auto)");

    auto named_factory =
        [&](const std::string &name) -> bench::SamplerFactory {
        if (name == "software")
            return bench::softwareFactory();
        if (name == "cdf-lut")
            return [] {
                return std::make_unique<core::CdfLutSampler>(
                    std::make_unique<rng::Mt19937>(42), 64);
            };
        if (name == "rsu") {
            core::RsuConfig rc = core::RsuConfig::newDesign();
            rc.raceMode = race_mode;
            return bench::rsuFactory(rc);
        }
        RETSIM_FATAL("unknown --sampler=", name,
                     " (software|cdf-lut|rsu)");
        return {};
    };

    bench::printHeader(
        "Chromatic Gibbs sweep throughput: serial vs. row-striped "
        "threading",
        "software substrate of the concurrent RSU-G array (Sec. II-C)");
    std::printf("grid %dx%d, %d sweeps, %d hardware threads, simd "
                "backend %s, energy cache %s\n",
                size, size, sweeps, hw, backend,
                energy_cache ? "on" : "off");

    // Thread counts 1/2/4/N, deduplicated and capped at the machine.
    std::set<int> thread_set{1, 2, 4, hw};

    // Denoising: 32-level restoration of a noisy synthetic texture.
    img::ImageU8 clean(size, size);
    for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x)
            clean(x, y) = static_cast<std::uint8_t>(
                img::textureIntensity(x, y, 0xd5));
    img::ImageU8 noisy = apps::addGaussianNoise(clean, 10.0, seed);
    apps::DenoisingParams dp;
    mrf::MrfProblem denoise = apps::buildDenoisingProblem(noisy, dp);

    // Stereo: synthetic scene at the same grid size, 32 disparities.
    img::StereoSceneSpec sspec;
    sspec.width = size;
    sspec.height = size;
    sspec.numLabels = 32;
    img::StereoScene scene = img::makeStereoScene(sspec, seed + 17);
    mrf::MrfProblem stereo = apps::buildStereoProblem(scene);

    // Stereo at the RSU's packed-lane label count: the workload the
    // categorical fast path (and its quantize/classify row cache) is
    // built for.
    img::StereoSceneSpec fspec = sspec;
    fspec.numLabels = 16;
    img::StereoScene fscene = img::makeStereoScene(fspec, seed + 17);
    mrf::MrfProblem stereo16 = apps::buildStereoProblem(fscene);

    struct Workload
    {
        const char *name;
        const mrf::MrfProblem *problem;
        mrf::SolverConfig cfg;
        bench::SamplerFactory factory;
        const char *sampler;
        const char *raceMode;
    };
    mrf::SolverConfig dcfg = apps::defaultDenoisingSolver(sweeps, seed);
    mrf::SolverConfig scfg = apps::defaultStereoSolver(sweeps, seed);
    dcfg.energyCache = energy_cache;
    scfg.energyCache = energy_cache;

    std::vector<Workload> workloads;
    if (!sampler_arg.empty()) {
        // Explicit sampler: run the two standard workloads with it.
        const char *rm =
            sampler_arg == "rsu" ? race_arg.c_str() : "n/a";
        workloads.push_back({"denoising", &denoise, dcfg,
                             named_factory(sampler_arg),
                             sampler_arg.c_str(), rm});
        workloads.push_back({"stereo", &stereo, scfg,
                             named_factory(sampler_arg),
                             sampler_arg.c_str(), rm});
    } else {
        core::RsuConfig frc = core::RsuConfig::newDesign();
        frc.raceMode = core::RaceMode::FastPath;
        workloads.push_back({"denoising", &denoise, dcfg,
                             bench::softwareFactory(),
                             "software-float", "n/a"});
        workloads.push_back({"stereo", &stereo, scfg,
                             bench::softwareFactory(),
                             "software-float", "n/a"});
        workloads.push_back({"stereo16-rsu-fastpath", &stereo16, scfg,
                             bench::rsuFactory(frc), "rsu-new-design",
                             "fastpath"});
    }

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        RETSIM_FATAL("cannot open ", out, " for writing");
    std::fprintf(f,
                 "{\n  \"bench\": \"solver_scaling\",\n"
                 "  \"batched\": true,\n"
                 "  \"simd_backend\": \"%s\",\n"
                 "  \"grid\": [%d, %d],\n  \"sweeps\": %d,\n"
                 "  \"seed\": %llu,\n  \"hardware_threads\": %d,\n"
                 "  \"energy_cache\": %s,\n"
                 "  \"workloads\": [",
                 backend, size, size, sweeps,
                 static_cast<unsigned long long>(seed), hw,
                 energy_cache ? "true" : "false");

    bool first_workload = true;
    for (const Workload &w : workloads) {
        std::printf("\n[%s] %d labels, sampler %s, race mode %s\n",
                    w.name, w.problem->numLabels(), w.sampler,
                    w.raceMode);

        // Serial reference: the historical single-stream path.
        RunResult serial =
            measure(*w.problem, w.factory, w.cfg, 1, 0);
        std::printf("  serial (reference)   %8.3f s  %12.0f px/s  "
                    "cache-hit %5.1f%%  memo %7.1f KiB\n",
                    serial.seconds, serial.pixelsPerSec,
                    100.0 * serial.cacheHitRate,
                    static_cast<double>(serial.memoBytes) / 1024.0);

        std::vector<RunResult> runs;
        for (int t : thread_set)
            runs.push_back(
                measure(*w.problem, w.factory, w.cfg, t, stripes));
        if (shard_options.shards > 1) {
            // Synchronous (PR 8 reference), then the boundary-first
            // overlapped schedule serial and threaded — same results
            // byte for byte, so the deltas are pure communication
            // hiding + intra-rank scaling.
            runs.push_back(measure(*w.problem, w.factory, w.cfg, 1,
                                   stripes, shard_options,
                                   /*overlapHalo=*/false));
            runs.push_back(measure(*w.problem, w.factory, w.cfg, 1,
                                   stripes, shard_options,
                                   /*overlapHalo=*/true));
            runs.push_back(measure(*w.problem, w.factory, w.cfg, 4,
                                   stripes, shard_options,
                                   /*overlapHalo=*/true));
        }
        for (const RunResult &r : runs)
            printRun(r, serial.seconds);

        std::fprintf(
            f,
            "%s\n    {\n      \"name\": \"%s\",\n"
            "      \"labels\": %d,\n"
            "      \"sampler\": \"%s\",\n"
            "      \"race_mode\": \"%s\",\n"
            "      \"serial\": {\"seconds\": %.6f, "
            "\"pixels_per_s\": %.1f, "
            "\"energy_cache_hit_rate\": %.4f, "
            "\"memo_bytes\": %llu},\n      \"runs\": [",
            first_workload ? "" : ",", w.name,
            w.problem->numLabels(), w.sampler, w.raceMode,
            serial.seconds, serial.pixelsPerSec, serial.cacheHitRate,
            static_cast<unsigned long long>(serial.memoBytes));
        first_workload = false;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RunResult &r = runs[i];
            std::fprintf(
                f,
                "%s\n        {\"threads\": %d, \"stripes\": %d, "
                "\"shards\": %d, \"transport\": \"%s\", "
                "\"overlap_halo\": %s, \"halo_wait_ns\": %llu, "
                "\"seconds\": %.6f, \"pixels_per_s\": %.1f, "
                "\"energy_cache_hit_rate\": %.4f, "
                "\"memo_bytes_per_clone\": %llu, "
                "\"speedup_vs_serial\": %.3f}",
                i == 0 ? "" : ",", r.threads, r.stripes, r.shards,
                r.transport, r.overlapHalo ? "true" : "false",
                static_cast<unsigned long long>(r.haloWaitNs),
                r.seconds, r.pixelsPerSec, r.cacheHitRate,
                static_cast<unsigned long long>(r.memoBytes),
                serial.seconds / r.seconds);
        }
        std::fprintf(f, "\n      ]\n    }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}

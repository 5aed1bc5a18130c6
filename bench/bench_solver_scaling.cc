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
 * With --shards=N the sharded solver is timed twice per workload —
 * at 1 and at 4 intra-rank threads — and every run row records
 * threads and the halo_wait_ns counter delta, so the JSON shows how
 * much ghost-row latency the boundary-first schedule leaves exposed
 * even on a single-core container.
 *
 * Timing protocol (--reps=N): each workload first runs one untimed
 * serial solve, so no row pays the cold builds of the process-wide
 * fast-path tables (the serial row, which runs first, would otherwise
 * pay all of them).  Then N rounds each time the serial row and every
 * striped and sharded row once, interleaved, so a noisy phase of the
 * host hits every row alike.  A row reports the process CPU time of
 * its solves — min, median, and the interquartile range when N >= 4
 * — and speedup_vs_serial is the serial min over the row's min.
 * Process CPU time counts loopback ranks' threads but not forked
 * socket ranks.
 *
 * Every row also records shared_table_bytes: the slot bytes of the
 * fast path's process-wide packed tables after its last solve
 * (RaceTableCache::packedBytes), which every stripe clone shares, and
 * rate_bindings_built: the rate bindings its last solve built
 * (core.rate_binding.builds), one per temperature however many clones
 * bind it.  hardware_threads is the CPUs the process may run on, so a
 * run under `taskset -c 0` records 1.
 *
 * Beside the --sweeps rows (the hot start of an anneal, where few
 * energy planes survive a sweep), the default
 * workload list has one full anneal: stereo16 in fast-path mode at
 * perfbench's shape, 128x96 with 16 labels and 96 sweeps, where the
 * caches and the per-temperature binding see a whole schedule.
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

#include "apps/denoising.hh"
#include "apps/stereo.hh"
#include "bench_common.hh"
#include "core/race_cli.hh"
#include "core/race_fastpath.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "obs/metrics.hh"
#include "shard/shard_cli.hh"
#include "simd/simd_cli.hh"

namespace {

using namespace retsim;

/** One timed row: a solver configuration and its per-round
 *  samples. */
struct Row
{
    int threads = 1;
    int stripes = 0;                ///< 0 = the serial reference
    shard::ShardOptions shards;     ///< shards > 1 = sharded solver
    std::vector<double> cpuSeconds; ///< process CPU time per round
    std::vector<double> wallSeconds;
    double cacheHitRate = 0.0;      ///< energy planes served clean
    std::uint64_t haloWaitNs = 0;   ///< last round's ghost-row wait
    std::size_t tableBytes = 0;     ///< shared tables after the row
    std::uint64_t bindingsBuilt = 0; ///< last round's rate bindings

    bool sharded() const { return shards.shards > 1; }

    const char *
    transport() const
    {
        if (!sharded())
            return "none";
        return shards.transport == shard::ShardOptions::Transport::Socket
                   ? "socket"
                   : "loopback";
    }
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
 *  per-run delta shows how much halo latency the interior compute
 *  failed to hide. */
std::uint64_t
haloWaitNow()
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::MetricId id =
        reg.counter("shard.halo.wait_ns");
    return reg.counterValue(id);
}

/** Rate bindings built so far (core.rate_binding.builds). */
std::uint64_t
bindingsBuiltNow()
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::MetricId id =
        reg.counter("core.rate_binding.builds");
    return reg.counterValue(id);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
solve(const mrf::MrfProblem &problem,
      const bench::SamplerFactory &factory, mrf::SolverConfig cfg,
      const Row &row)
{
    cfg.threads = row.threads;
    cfg.stripes = row.stripes;
    auto sampler = factory();
    if (row.sharded())
        shard::ShardedCheckerboardSolver(cfg, row.shards)
            .run(problem, *sampler);
    else
        mrf::CheckerboardGibbsSolver(cfg).run(problem, *sampler);
}

/** Time one round of @p row and record it. */
void
measure(const mrf::MrfProblem &problem,
        const bench::SamplerFactory &factory,
        const mrf::SolverConfig &cfg, Row &row)
{
    const CacheCounters before = CacheCounters::now();
    const std::uint64_t waitBefore = haloWaitNow();
    const std::uint64_t bindingsBefore = bindingsBuiltNow();
    const double cpu0 = processCpuSeconds();
    const auto wall0 = std::chrono::steady_clock::now();
    solve(problem, factory, cfg, row);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall0;
    row.cpuSeconds.push_back(processCpuSeconds() - cpu0);
    row.wallSeconds.push_back(wall.count());
    row.haloWaitNs = haloWaitNow() - waitBefore;
    row.bindingsBuilt = bindingsBuiltNow() - bindingsBefore;
    row.tableBytes = core::RaceTableCache::global().packedBytes();
    const CacheCounters after = CacheCounters::now();
    const double served =
        static_cast<double>((after.hits - before.hits) +
                            (after.recomputed - before.recomputed));
    row.cacheHitRate =
        served > 0.0
            ? static_cast<double>(after.hits - before.hits) / served
            : 0.0;
}

/** Linear-interpolated @p q quantile of @p v. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
cpuMin(const Row &r)
{
    return *std::min_element(r.cpuSeconds.begin(), r.cpuSeconds.end());
}

void
printRow(const Row &r, double serial_min)
{
    char what[64];
    if (r.stripes == 0)
        std::snprintf(what, sizeof what, "serial (reference)");
    else if (r.sharded())
        std::snprintf(what, sizeof what,
                      "shards=%d (%s) stripes=%d threads=%d",
                      r.shards.shards, r.transport(), r.stripes,
                      r.threads);
    else
        std::snprintf(what, sizeof what, "stripes=%d threads=%d",
                      r.stripes, r.threads);
    std::printf("  %-40s cpu min %7.4f s  median %7.4f s  "
                "cache-hit %5.1f%%  tables %7.1f KiB  bindings %4llu  "
                "%.2fx\n",
                what, cpuMin(r), quantile(r.cpuSeconds, 0.5),
                100.0 * r.cacheHitRate,
                static_cast<double>(r.tableBytes) / 1024.0,
                static_cast<unsigned long long>(r.bindingsBuilt),
                serial_min / cpuMin(r));
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int size = static_cast<int>(args.getInt("size", 256));
    const int sweeps = static_cast<int>(args.getInt("sweeps", 6));
    const int stripes = static_cast<int>(args.getInt("stripes", 16));
    const int reps = static_cast<int>(args.getInt("reps", 1));
    if (reps < 1)
        RETSIM_FATAL("--reps must be >= 1, got ", reps);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string out =
        args.getString("out", "BENCH_solver_scaling.json");
    const std::string sampler_arg = args.getString("sampler", "");
    const core::RaceMode race_mode =
        core::raceModeFromCli(args, core::RaceMode::Auto);
    const std::string race_name = core::toString(race_mode);
    const bool energy_cache = args.getBool("energy-cache", true);
    // --shards=N (with --shard-transport=loopback|socket) appends a
    // multi-shard run per workload so sharded throughput lands in the
    // same perf trajectory file.
    const shard::ShardOptions shard_options =
        shard::shardOptionsFromCli(args);
    const int hw = bench::availableCpus();
    const char *backend =
        simd::backendName(simd::backendFromCli(args));

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
    std::printf("grid %dx%d, %d sweeps, %d reps, %d hardware threads, "
                "simd backend %s, energy cache %s\n",
                size, size, sweeps, reps, hw, backend,
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
    // categorical fast path is built for.
    img::StereoSceneSpec fspec = sspec;
    fspec.numLabels = 16;
    img::StereoScene fscene = img::makeStereoScene(fspec, seed + 17);
    mrf::MrfProblem stereo16 = apps::buildStereoProblem(fscene);

    // The same workload as a full anneal at perfbench's stereo16
    // shape: 128x96, 16 labels, 96 sweeps.
    img::StereoSceneSpec aspec = fspec;
    aspec.width = 128;
    aspec.height = 96;
    img::StereoScene ascene = img::makeStereoScene(aspec, seed + 17);
    mrf::MrfProblem stereo16_anneal = apps::buildStereoProblem(ascene);
    mrf::SolverConfig acfg = apps::defaultStereoSolver(96, seed);
    acfg.energyCache = energy_cache;

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
            sampler_arg == "rsu" ? race_name.c_str() : "n/a";
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
        workloads.push_back({"stereo16-rsu-fastpath-anneal",
                             &stereo16_anneal, acfg,
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
                 "  \"reps\": %d,\n"
                 "  \"seed\": %llu,\n  \"hardware_threads\": %d,\n"
                 "  \"energy_cache\": %s,\n"
                 "  \"workloads\": [",
                 backend, size, size, sweeps, reps,
                 static_cast<unsigned long long>(seed), hw,
                 energy_cache ? "true" : "false");

    bool first_workload = true;
    for (const Workload &w : workloads) {
        std::printf("\n[%s] %d labels, sampler %s, race mode %s\n",
                    w.name, w.problem->numLabels(), w.sampler,
                    w.raceMode);

        // Serial reference (the historical single-stream path), the
        // striped rows, and the sharded rows at 1 and 4 intra-rank
        // threads — same results byte for byte, so the deltas are
        // pure scheduling cost.
        std::vector<Row> rows(1);
        for (int t : thread_set) {
            Row r;
            r.threads = t;
            r.stripes = stripes;
            rows.push_back(r);
        }
        if (shard_options.shards > 1) {
            for (int t : {1, 4}) {
                Row r;
                r.threads = t;
                r.stripes = stripes;
                r.shards = shard_options;
                rows.push_back(r);
            }
        }
        solve(*w.problem, w.factory, w.cfg, rows[0]); // warm-up
        for (int rep = 0; rep < reps; ++rep)
            for (Row &r : rows)
                measure(*w.problem, w.factory, w.cfg, r);
        const double serial_min = cpuMin(rows[0]);
        for (const Row &r : rows)
            printRow(r, serial_min);

        const double pixels = static_cast<double>(w.problem->width()) *
                              w.problem->height() *
                              w.cfg.annealing.sweeps;
        std::fprintf(
            f,
            "%s\n    {\n      \"name\": \"%s\",\n"
            "      \"grid\": [%d, %d],\n"
            "      \"sweeps\": %d,\n"
            "      \"labels\": %d,\n"
            "      \"sampler\": \"%s\",\n"
            "      \"race_mode\": \"%s\",\n"
            "      \"rows\": [",
            first_workload ? "" : ",", w.name, w.problem->width(),
            w.problem->height(), w.cfg.annealing.sweeps,
            w.problem->numLabels(), w.sampler, w.raceMode);
        first_workload = false;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            char iqr[64] = "";
            if (reps >= 4)
                std::snprintf(iqr, sizeof iqr, "\"cpu_s_iqr\": %.6f, ",
                              quantile(r.cpuSeconds, 0.75) -
                                  quantile(r.cpuSeconds, 0.25));
            std::fprintf(
                f,
                "%s\n        {\"threads\": %d, \"stripes\": %d, "
                "\"shards\": %d, \"transport\": \"%s\", "
                "\"cpu_s_min\": %.6f, \"cpu_s_median\": %.6f, %s"
                "\"wall_s_median\": %.6f, \"pixels_per_cpu_s\": %.1f, "
                "\"halo_wait_ns\": %llu, "
                "\"energy_cache_hit_rate\": %.4f, "
                "\"shared_table_bytes\": %zu, "
                "\"rate_bindings_built\": %llu, "
                "\"speedup_vs_serial\": %.3f}",
                i == 0 ? "" : ",", r.threads, r.stripes,
                r.shards.shards, r.transport(), cpuMin(r),
                quantile(r.cpuSeconds, 0.5), iqr,
                quantile(r.wallSeconds, 0.5), pixels / cpuMin(r),
                static_cast<unsigned long long>(r.haloWaitNs),
                r.cacheHitRate, r.tableBytes,
                static_cast<unsigned long long>(r.bindingsBuilt),
                serial_min / cpuMin(r));
        }
        std::fprintf(f, "\n      ]\n    }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}

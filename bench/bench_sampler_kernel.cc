/**
 * @file
 * Scalar vs. batched row-kernel sampling throughput.
 *
 * PR 2 introduced sampleRow(): one call per color-phase row over a
 * pixel-major energy plane, replacing per-pixel virtual sample()
 * dispatch.  This bench isolates that kernel — energy planes are
 * produced once from a realistic stereo labeling, then each sampler
 * is timed over the identical planes through both entry points under
 * an annealing-style temperature schedule.  Both paths start from the
 * same seed, so their chosen labels must agree exactly (checked); the
 * difference is time only.  Emits BENCH_sampler_kernel.json so later
 * PRs can regress the kernel speedup.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "apps/stereo.hh"
#include "bench_common.hh"
#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "core/ttf_race.hh"
#include "img/image.hh"
#include "mrf/problem.hh"
#include "simd/kernels.hh"
#include "simd/simd_cli.hh"
#include "util/fixed_point.hh"

namespace {

using namespace retsim;

/** Pixel-major conditional-energy planes for whole color-phase rows,
 *  gathered once so timing excludes the energy stage. */
struct PlaneSet
{
    int m = 0;
    std::vector<std::vector<float>> energies; // one plane per row
    std::vector<std::vector<int>> current;    // labels per row
    std::size_t totalPixels = 0;
    img::LabelMap labels; // the labeling the planes were cut from
};

PlaneSet
gatherPlanes(const mrf::MrfProblem &problem, std::uint64_t seed)
{
    PlaneSet set;
    set.m = problem.numLabels();
    img::LabelMap labels(problem.width(), problem.height(), 0);
    rng::Xoshiro256 gen(seed);
    for (int &l : labels.data())
        l = static_cast<int>(
            gen.nextBounded(static_cast<std::uint64_t>(set.m)));

    for (int color = 0; color < 2; ++color) {
        for (int y = 0; y < problem.height(); ++y) {
            const int x0 = (y + color) % 2;
            std::vector<float> plane(
                static_cast<std::size_t>((problem.width() + 1) / 2) *
                set.m);
            int n = problem.conditionalEnergiesRow(labels, y, x0, 2,
                                                   plane);
            plane.resize(static_cast<std::size_t>(n) * set.m);
            std::vector<int> cur(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i)
                cur[static_cast<std::size_t>(i)] =
                    labels(x0 + 2 * i, y);
            set.totalPixels += static_cast<std::size_t>(n);
            set.energies.push_back(std::move(plane));
            set.current.push_back(std::move(cur));
        }
    }
    set.labels = std::move(labels);
    return set;
}

/** Geometric annealing schedule, the solver's temperature profile. */
std::vector<double>
temperatureSchedule(int steps, double t0, double t_end)
{
    std::vector<double> t(static_cast<std::size_t>(steps));
    for (int s = 0; s < steps; ++s) {
        double frac = steps > 1
                          ? static_cast<double>(s) / (steps - 1)
                          : 0.0;
        t[static_cast<std::size_t>(s)] =
            t0 * std::pow(t_end / t0, frac);
    }
    return t;
}

struct KernelTiming
{
    double scalarNsPerSample = 0.0;
    double batchedNsPerSample = 0.0;
    bool outputsMatch = true;
};

/**
 * Time one sampler through both entry points over the same planes and
 * temperatures.  Fresh sampler + reseeded generator per pass keeps the
 * draw sequences identical; the min over reps discards scheduler
 * noise.  One untimed warm-up pass per path pre-builds conversion
 * tables (shared LUT cache, rate tables) so neither path bills
 * first-touch cost.
 */
KernelTiming
timeKernel(const bench::SamplerFactory &factory, const PlaneSet &set,
           const std::vector<double> &temps, int reps,
           std::uint64_t seed)
{
    const std::size_t m = static_cast<std::size_t>(set.m);
    const std::size_t samples = set.totalPixels * temps.size();

    auto scalar_pass = [&](mrf::LabelSampler &s, rng::Rng &gen,
                           std::vector<int> *record) {
        for (double t : temps) {
            for (std::size_t r = 0; r < set.energies.size(); ++r) {
                const std::vector<float> &plane = set.energies[r];
                const std::vector<int> &cur = set.current[r];
                for (std::size_t p = 0; p < cur.size(); ++p) {
                    int chosen = s.sample(
                        std::span<const float>(plane.data() + p * m,
                                               m),
                        t, cur[p], gen);
                    if (record)
                        record->push_back(chosen);
                }
            }
        }
    };
    auto batched_pass = [&](mrf::LabelSampler &s, rng::Rng &gen,
                            std::vector<int> *record) {
        std::vector<int> out;
        for (double t : temps) {
            for (std::size_t r = 0; r < set.energies.size(); ++r) {
                const std::vector<int> &cur = set.current[r];
                out.resize(cur.size());
                s.sampleRow(set.energies[r], set.m, t, cur, out, gen);
                if (record)
                    record->insert(record->end(), out.begin(),
                                   out.end());
            }
        }
    };

    KernelTiming result;
    std::vector<int> scalar_labels, batched_labels;
    scalar_labels.reserve(samples);
    batched_labels.reserve(samples);

    double scalar_best = 1e300, batched_best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        {
            auto sampler = factory();
            rng::Xoshiro256 warm(seed);
            scalar_pass(*sampler, warm, nullptr); // warm-up, untimed
            rng::Xoshiro256 gen(seed);
            std::vector<int> *rec =
                rep == 0 ? &scalar_labels : nullptr;
            auto start = std::chrono::steady_clock::now();
            scalar_pass(*sampler, gen, rec);
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - start;
            scalar_best = std::min(scalar_best, dt.count());
        }
        {
            auto sampler = factory();
            rng::Xoshiro256 warm(seed);
            batched_pass(*sampler, warm, nullptr); // warm-up, untimed
            rng::Xoshiro256 gen(seed);
            std::vector<int> *rec =
                rep == 0 ? &batched_labels : nullptr;
            auto start = std::chrono::steady_clock::now();
            batched_pass(*sampler, gen, rec);
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - start;
            batched_best = std::min(batched_best, dt.count());
        }
    }

    result.scalarNsPerSample =
        scalar_best * 1e9 / static_cast<double>(samples);
    result.batchedNsPerSample =
        batched_best * 1e9 / static_cast<double>(samples);
    result.outputsMatch = scalar_labels == batched_labels;
    return result;
}

/** Fast-path (alias-table categorical race) timing for one RSU
 *  sampler over the same planes, including the build-amortization
 *  story: the cold pass starts from an empty RaceTableCache (race
 *  tables and packed entries) and therefore bills every build; the
 *  steady pass reuses the process-wide cache like a long annealing
 *  run does. */
struct FastTiming
{
    double fastNsPerSample = 0.0; ///< steady state, sampleRow()
    double scalarNsPerSample = 0.0; ///< steady state, per-pixel sample()
    double coldNsPerSample = 0.0; ///< first pass, tables built inline
    /** Class tables the cold pass built (the RaceTableCache::misses()
     *  delta): the distinct tables this workload needs, whether cached
     *  (general lane) or copied into packed entries (packed lane). */
    std::size_t aliasTables = 0;
    bool outputsMatch = true;     ///< scalar == batched
};

FastTiming
timeFastPath(const bench::SamplerFactory &factory, const PlaneSet &set,
             const std::vector<double> &temps, int reps,
             std::uint64_t seed)
{
    const std::size_t m = static_cast<std::size_t>(set.m);
    const std::size_t samples = set.totalPixels * temps.size();
    auto scalar_pass = [&](mrf::LabelSampler &s, rng::Rng &gen,
                           std::vector<int> *record) {
        for (double t : temps)
            for (std::size_t r = 0; r < set.energies.size(); ++r) {
                const std::vector<float> &plane = set.energies[r];
                const std::vector<int> &cur = set.current[r];
                for (std::size_t p = 0; p < cur.size(); ++p) {
                    int chosen = s.sample(
                        std::span<const float>(plane.data() + p * m,
                                               m),
                        t, cur[p], gen);
                    if (record)
                        record->push_back(chosen);
                }
            }
    };
    auto batched_pass = [&](mrf::LabelSampler &s, rng::Rng &gen,
                            std::vector<int> *record) {
        std::vector<int> out;
        for (double t : temps)
            for (std::size_t r = 0; r < set.energies.size(); ++r) {
                const std::vector<int> &cur = set.current[r];
                out.resize(cur.size());
                s.sampleRow(set.energies[r], set.m, t, cur, out, gen);
                if (record)
                    record->insert(record->end(), out.begin(),
                                   out.end());
            }
    };

    FastTiming result;
    core::RaceTableCache &cache = core::RaceTableCache::global();

    // Cold pass: empty cache, fresh sampler — every alias table this
    // workload touches is built inside the timed region.
    {
        cache.clear();
        const std::uint64_t built = cache.misses();
        auto sampler = factory();
        rng::Xoshiro256 gen(seed);
        auto start = std::chrono::steady_clock::now();
        batched_pass(*sampler, gen, nullptr);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        result.coldNsPerSample =
            dt.count() * 1e9 / static_cast<double>(samples);
        result.aliasTables =
            static_cast<std::size_t>(cache.misses() - built);
    }

    std::vector<int> scalar_labels, batched_labels;
    double fast_best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        auto sampler = factory();
        rng::Xoshiro256 warm(seed);
        batched_pass(*sampler, warm, nullptr); // warm-up, untimed
        rng::Xoshiro256 gen(seed);
        std::vector<int> *rec = rep == 0 ? &batched_labels : nullptr;
        auto start = std::chrono::steady_clock::now();
        batched_pass(*sampler, gen, rec);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        fast_best = std::min(fast_best, dt.count());
    }
    result.fastNsPerSample =
        fast_best * 1e9 / static_cast<double>(samples);

    // The per-pixel entry, the raster solver's path: a one-pixel row
    // per sample() call.  Fixed draws per pixel keep the fast path's
    // scalar and batched entries on one RNG layout, so their labels
    // must agree exactly.
    scalar_labels.reserve(samples);
    double scalar_best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        auto sampler = factory();
        rng::Xoshiro256 warm(seed);
        scalar_pass(*sampler, warm, nullptr); // warm-up, untimed
        rng::Xoshiro256 gen(seed);
        std::vector<int> *rec = rep == 0 ? &scalar_labels : nullptr;
        auto start = std::chrono::steady_clock::now();
        scalar_pass(*sampler, gen, rec);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        scalar_best = std::min(scalar_best, dt.count());
    }
    result.scalarNsPerSample =
        scalar_best * 1e9 / static_cast<double>(samples);
    result.outputsMatch = scalar_labels == batched_labels;
    return result;
}

/** Where the sample time goes, one stage at a time: the four hot
 *  kernels of the batched pipeline measured in isolation on the same
 *  planes (exp-draw at the sampler's per-pixel burst width, so the
 *  numbers add up to roughly the batched ns/sample above). */
struct KernelBreakdown
{
    double expDrawNsPerDraw = 0.0;      ///< -log(u)/lambda conversion
    double energyPlaneNsPerLabel = 0.0; ///< conditionalEnergiesRow
    double raceNsPerPixel = 0.0;        ///< runTtfRace (binned)
    double eToLambdaNsPerLabel = 0.0;   ///< quantize + table gather
    /** raceEnergiesRow: the fused quantize+classify pass plus the
     *  table-probe + SWAR alias draw. */
    double fastRowNsPerPixel = 0.0;
};

KernelBreakdown
timeBreakdown(const mrf::MrfProblem &problem, const PlaneSet &set,
              double temperature, int reps, std::uint64_t seed)
{
    KernelBreakdown bd;
    const std::size_t m = static_cast<std::size_t>(set.m);
    const simd::KernelTable &kern = simd::kernels();
    auto bestOf = [&](auto &&fn, std::size_t units) {
        fn(); // warm-up, untimed
        double best = 1e300;
        for (int rep = 0; rep < reps; ++rep) {
            auto start = std::chrono::steady_clock::now();
            fn();
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - start;
            best = std::min(best, dt.count());
        }
        return best * 1e9 / static_cast<double>(units);
    };

    // The RSU's energy-to-rate table at this temperature (what the
    // batched sampler gathers through), and whether every entry fires.
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    auto lut = core::LambdaLutCache::global().get(cfg, temperature);
    const std::size_t entries = std::size_t{1} << cfg.energyBits;
    std::vector<double> table(entries);
    bool all_fire = true;
    for (std::size_t e = 0; e < entries; ++e) {
        table[e] = static_cast<double>(lut->lookup(e)) * cfg.lambda0();
        all_fire = all_fire && table[e] > 0.0;
    }
    const double top =
        static_cast<double>(util::maxUnsigned(cfg.energyBits));

    // exp-draw, chunked at the per-pixel burst width m.
    {
        const std::size_t n = m * 4096;
        std::vector<double> u(n), rates(n), out(n);
        rng::Xoshiro256 gen(seed);
        gen.fillUniformOpenLow(u);
        for (double &r : rates)
            r = 0.05 + gen.nextDouble() * 4.0;
        bd.expDrawNsPerDraw = bestOf(
            [&] {
                for (std::size_t off = 0; off < n; off += m)
                    kern.expDraw(u.data() + off, rates.data() + off,
                                 out.data() + off, m);
            },
            n);
    }

    // energy-plane: the conditional-energy rows the planes came from.
    {
        std::vector<float> plane(
            static_cast<std::size_t>((problem.width() + 1) / 2) * m);
        bd.energyPlaneNsPerLabel = bestOf(
            [&] {
                for (int color = 0; color < 2; ++color)
                    for (int y = 0; y < problem.height(); ++y)
                        problem.conditionalEnergiesRow(
                            set.labels, y, (y + color) % 2, 2, plane);
            },
            set.totalPixels * m);
    }

    // e->lambda: quantize + gather every pixel of every plane.
    std::vector<std::vector<double>> rate_planes;
    for (const std::vector<float> &plane : set.energies)
        rate_planes.emplace_back(plane.size());
    auto convert_all = [&] {
        for (std::size_t r = 0; r < set.energies.size(); ++r) {
            const std::vector<float> &plane = set.energies[r];
            double *rates = rate_planes[r].data();
            for (std::size_t p = 0; p * m < plane.size(); ++p)
                kern.quantizeGatherRates(plane.data() + p * m, top,
                                         cfg.decayRateScaling,
                                         table.data(), rates + p * m,
                                         m);
        }
    };
    bd.eToLambdaNsPerLabel = bestOf(convert_all, set.totalPixels * m);

    // race: the full TTF race of every pixel of those rate planes.
    {
        core::RaceRowScratch scratch;
        bd.raceNsPerPixel = bestOf(
            [&] {
                rng::Xoshiro256 gen(seed + 1);
                for (const std::vector<double> &rates : rate_planes)
                    for (std::size_t off = 0; off < rates.size();
                         off += m)
                        core::runTtfRace({rates.data() + off, m}, cfg,
                                         gen, scratch, all_fire);
            },
            set.totalPixels);
    }

    // The fast path's binned row entry over every plane.
    {
        core::RaceFastPath fast(cfg);
        fast.bindRateTable(table);
        const unsigned draws = fast.drawsPerPixel();
        rng::Xoshiro256 gen(seed + 2);
        std::vector<double> u;
        std::vector<core::RaceOutcome> outcomes;
        bd.fastRowNsPerPixel = bestOf(
            [&] {
                for (const std::vector<float> &plane : set.energies) {
                    const std::size_t n = plane.size() / m;
                    u.resize(n * draws);
                    gen.fillUniform(u);
                    outcomes.resize(n);
                    fast.raceEnergiesRow(plane.data(), top,
                                         cfg.decayRateScaling, n, m,
                                         u.data(), outcomes.data());
                }
            },
            set.totalPixels);
    }
    return bd;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    // --quick: CI smoke shape — small grid, one rep.  Timings are
    // noisy but every outputs_match check still runs in full.
    const bool quick = args.getBool("quick", false);
    const int size =
        static_cast<int>(args.getInt("size", quick ? 64 : 192));
    const int labels = static_cast<int>(args.getInt("labels", 16));
    const int temps =
        static_cast<int>(args.getInt("temps", quick ? 4 : 8));
    const double t0 = args.getDouble("t0", 48.0);
    const double t_end = args.getDouble("tEnd", 0.8);
    const int reps =
        static_cast<int>(args.getInt("reps", quick ? 1 : 3));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string out =
        args.getString("out", "BENCH_sampler_kernel.json");
    const int hw = bench::availableCpus();
    const char *backend =
        simd::backendName(simd::backendFromCli(args));

    bench::printHeader(
        "Sampling kernel throughput: per-pixel sample() vs. batched "
        "sampleRow()",
        "row-batched software substrate of the RSU-G array pipeline");

    // Energy planes from a real stereo problem at the RSU's working
    // label count, under the solver's annealing temperature profile.
    img::StereoSceneSpec spec;
    spec.width = size;
    spec.height = size;
    spec.numLabels = labels;
    img::StereoScene scene = img::makeStereoScene(spec, seed + 17);
    mrf::MrfProblem problem = apps::buildStereoProblem(scene);
    PlaneSet planes = gatherPlanes(problem, seed);
    // The stereo solver's full annealing profile (defaultStereoSolver)
    // and its convergence tail — the final rungs where the probability
    // cutoff zeroes most decay rates, which shifts the scalar/batched
    // cost balance enough to deserve its own row.
    std::vector<double> schedule =
        temperatureSchedule(temps, t0, t_end);
    const double tail_t0 = std::min(2.0, t0);
    std::vector<double> tail_schedule =
        temperatureSchedule(temps, tail_t0, std::min(tail_t0, t_end));
    std::printf("grid %dx%d, %d labels, %zu pixels/pass, %d "
                "temperatures, %d reps, %d hardware threads, simd "
                "backend %s\n",
                size, size, labels, planes.totalPixels, temps, reps,
                hw, backend);

    struct Entry
    {
        const char *name;
        bench::SamplerFactory factory;
        const std::vector<double> *schedule;
        /** Same sampler with raceMode=FastPath; empty when the
         *  sampler has no categorical fast path. */
        bench::SamplerFactory fastFactory;
    };
    auto fastCfg = [](core::RsuConfig cfg) {
        cfg.raceMode = core::RaceMode::FastPath;
        return cfg;
    };
    core::RsuConfig first_tie_cfg = core::RsuConfig::newDesign();
    first_tie_cfg.tieBreak = core::TieBreak::First;
    Entry entries[] = {
        {"software-float", bench::softwareFactory(), &schedule, {}},
        {"cdf-lut(mt19937)",
         [] {
             return std::make_unique<core::CdfLutSampler>(
                 std::make_unique<rng::Mt19937>(42), 64);
         },
         &schedule,
         {}},
        {"rsu-new-design",
         bench::rsuFactory(core::RsuConfig::newDesign()), &schedule,
         bench::rsuFactory(fastCfg(core::RsuConfig::newDesign()))},
        {"rsu-new-design@anneal-tail",
         bench::rsuFactory(core::RsuConfig::newDesign()),
         &tail_schedule,
         bench::rsuFactory(fastCfg(core::RsuConfig::newDesign()))},
        // Fixed-priority tie arbiter (the cheap hardware choice): no
        // tie draws, so the race consumes exactly one draw per firing
        // label.
        {"rsu-new-design-priority-tie",
         bench::rsuFactory(first_tie_cfg), &schedule,
         bench::rsuFactory(fastCfg(first_tie_cfg))},
    };

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        RETSIM_FATAL("cannot open ", out, " for writing");
    std::fprintf(f,
                 "{\n  \"bench\": \"sampler_kernel\",\n"
                 "  \"batched\": true,\n  \"quick\": %s,\n"
                 "  \"simd_backend\": \"%s\",\n"
                 "  \"grid\": [%d, %d],\n  \"labels\": %d,\n"
                 "  \"temperatures\": %d,\n  \"reps\": %d,\n"
                 "  \"seed\": %llu,\n  \"hardware_threads\": %d,\n"
                 "  \"samplers\": [",
                 quick ? "true" : "false", backend, size, size,
                 labels, temps, reps,
                 static_cast<unsigned long long>(seed), hw);

    bool first = true;
    bool all_match = true;
    for (const Entry &e : entries) {
        KernelTiming t =
            timeKernel(e.factory, planes, *e.schedule, reps, seed);
        all_match = all_match && t.outputsMatch;
        double speedup = t.scalarNsPerSample / t.batchedNsPerSample;
        std::printf("  %-27s scalar %8.1f ns/sample   batched %8.1f "
                    "ns/sample   %.2fx%s\n",
                    e.name, t.scalarNsPerSample, t.batchedNsPerSample,
                    speedup, t.outputsMatch ? "" : "  MISMATCH");
        std::fprintf(f,
                     "%s\n    {\"name\": \"%s\", "
                     "\"t0\": %g, \"t_end\": %g, "
                     "\"scalar_ns_per_sample\": %.2f, "
                     "\"batched_ns_per_sample\": %.2f, "
                     "\"speedup\": %.3f, \"outputs_match\": %s",
                     first ? "" : ",", e.name, e.schedule->front(),
                     e.schedule->back(), t.scalarNsPerSample,
                     t.batchedNsPerSample, speedup,
                     t.outputsMatch ? "true" : "false");
        if (e.fastFactory) {
            FastTiming ft = timeFastPath(e.fastFactory, planes,
                                         *e.schedule, reps, seed);
            all_match = all_match && ft.outputsMatch;
            std::printf("  %-27s fastpath %6.1f ns/sample   "
                        "scalar %6.1f   cold %8.1f   %zu tables   "
                        "%.2fx vs race%s\n",
                        "  \\- race_mode=fastpath", ft.fastNsPerSample,
                        ft.scalarNsPerSample, ft.coldNsPerSample,
                        ft.aliasTables,
                        t.batchedNsPerSample / ft.fastNsPerSample,
                        ft.outputsMatch ? "" : "  MISMATCH");
            std::fprintf(f,
                         ", \"fastpath_ns_per_sample\": %.2f, "
                         "\"fastpath_scalar_ns_per_sample\": %.2f, "
                         "\"fastpath_cold_ns_per_sample\": %.2f, "
                         "\"fastpath_alias_tables\": %zu, "
                         "\"fastpath_speedup_vs_scalar\": %.3f, "
                         "\"fastpath_outputs_match\": %s",
                         ft.fastNsPerSample, ft.scalarNsPerSample,
                         ft.coldNsPerSample, ft.aliasTables,
                         t.scalarNsPerSample / ft.fastNsPerSample,
                         ft.outputsMatch ? "true" : "false");
        }
        std::fprintf(f, "}");
        first = false;
    }
    KernelBreakdown bd = timeBreakdown(problem, planes,
                                       schedule.front(), reps, seed);
    std::printf("\nper-kernel breakdown (rsu-new-design stages at "
                "t0 = %g):\n"
                "  exp-draw %6.2f ns/draw   energy-plane %6.2f "
                "ns/label   race %6.2f ns/pixel   e->lambda %6.2f "
                "ns/label\n"
                "  fastpath row %6.2f ns/pixel\n",
                schedule.front(), bd.expDrawNsPerDraw,
                bd.energyPlaneNsPerLabel, bd.raceNsPerPixel,
                bd.eToLambdaNsPerLabel, bd.fastRowNsPerPixel);
    std::fprintf(f,
                 "\n  ],\n  \"kernel_breakdown\": {\n"
                 "    \"exp_draw_ns_per_draw\": %.2f,\n"
                 "    \"energy_plane_ns_per_label\": %.2f,\n"
                 "    \"race_ns_per_pixel\": %.2f,\n"
                 "    \"e_to_lambda_ns_per_label\": %.2f,\n"
                 "    \"fastpath_row_ns_per_pixel\": %.2f\n"
                 "  }\n}\n",
                 bd.expDrawNsPerDraw, bd.energyPlaneNsPerLabel,
                 bd.raceNsPerPixel, bd.eToLambdaNsPerLabel,
                 bd.fastRowNsPerPixel);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return all_match ? 0 : 1;
}

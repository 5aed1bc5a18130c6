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
 * changes can regress the kernel speedup.
 *
 * Timing protocol (--reps=N): every timed pass follows an untimed
 * warm-up pass and is measured in the calling thread's CPU time.  A
 * sampler's scalar and batched passes (and its fast path's row and
 * per-pixel passes) alternate rep by rep, so a noisy phase of the
 * host hits both.  Each row reports the min over the reps under the
 * plain *_ns_per_sample keys, and the median and interquartile range
 * under *_median and *_iqr.
 */

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "apps/stereo.hh"
#include "bench_common.hh"
#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "core/rate_binding.hh"
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

/** CPU time of the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Thread CPU seconds of @p fn. */
template <typename Fn>
double
cpuSecondsOf(Fn &&fn)
{
    const double t0 = threadCpuSeconds();
    fn();
    return threadCpuSeconds() - t0;
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

/** One row's per-rep times as ns per unit: min, median and IQR. */
struct Spread
{
    double min = 0.0;
    double median = 0.0;
    double iqr = 0.0;

    static Spread of(const std::vector<double> &seconds,
                     std::size_t units)
    {
        const double k = 1e9 / static_cast<double>(units);
        return {quantile(seconds, 0.0) * k, quantile(seconds, 0.5) * k,
                (quantile(seconds, 0.75) - quantile(seconds, 0.25)) * k};
    }
};

/** `, "key": min, "key_median": median, "key_iqr": iqr`. */
void
printSpread(std::FILE *f, const char *key, const Spread &s)
{
    std::fprintf(f, ", \"%s\": %.2f, \"%s_median\": %.2f, "
                 "\"%s_iqr\": %.2f",
                 key, s.min, key, s.median, key, s.iqr);
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
    Spread scalar;  ///< ns per sample, per-pixel sample()
    Spread batched; ///< ns per sample, sampleRow()
    bool outputsMatch = true;
};

/**
 * Time one sampler through both entry points over the same planes and
 * temperatures, alternating the two rep by rep.  Fresh sampler +
 * reseeded generator per pass keeps the draw sequences identical.
 * One untimed warm-up pass per path pre-builds conversion tables
 * (shared LUT cache, rate tables) so neither path bills first-touch
 * cost.
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

    // One rep of @p pass: untimed warm-up, then the timed pass, whose
    // labels the first rep records.
    auto rep_of = [&](auto &pass, int rep, std::vector<int> &labels) {
        auto sampler = factory();
        rng::Xoshiro256 warm(seed);
        pass(*sampler, warm, nullptr);
        rng::Xoshiro256 gen(seed);
        std::vector<int> *rec = rep == 0 ? &labels : nullptr;
        return cpuSecondsOf([&] { pass(*sampler, gen, rec); });
    };
    std::vector<double> scalar_s, batched_s;
    for (int rep = 0; rep < reps; ++rep) {
        scalar_s.push_back(rep_of(scalar_pass, rep, scalar_labels));
        batched_s.push_back(rep_of(batched_pass, rep, batched_labels));
    }

    result.scalar = Spread::of(scalar_s, samples);
    result.batched = Spread::of(batched_s, samples);
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
    Spread fast;   ///< steady state, sampleRow()
    Spread scalar; ///< steady state, per-pixel sample()
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
        result.coldNsPerSample =
            cpuSecondsOf([&] { batched_pass(*sampler, gen, nullptr); }) *
            1e9 / static_cast<double>(samples);
        result.aliasTables =
            static_cast<std::size_t>(cache.misses() - built);
    }

    // The row entry alternates with the per-pixel entry, the raster
    // solver's path: a one-pixel row per sample() call.  Fixed draws
    // per pixel keep the two on one RNG layout, so their labels must
    // agree exactly.
    auto rep_of = [&](auto &pass, int rep, std::vector<int> &labels) {
        auto sampler = factory();
        rng::Xoshiro256 warm(seed);
        pass(*sampler, warm, nullptr); // warm-up, untimed
        rng::Xoshiro256 gen(seed);
        std::vector<int> *rec = rep == 0 ? &labels : nullptr;
        return cpuSecondsOf([&] { pass(*sampler, gen, rec); });
    };
    std::vector<int> scalar_labels, batched_labels;
    scalar_labels.reserve(samples);
    std::vector<double> fast_s, scalar_s;
    for (int rep = 0; rep < reps; ++rep) {
        fast_s.push_back(rep_of(batched_pass, rep, batched_labels));
        scalar_s.push_back(rep_of(scalar_pass, rep, scalar_labels));
    }
    result.fast = Spread::of(fast_s, samples);
    result.scalar = Spread::of(scalar_s, samples);
    result.outputsMatch = scalar_labels == batched_labels;
    return result;
}

/** Min over @p reps timed runs of @p fn, after one untimed warm-up,
 *  in ns per unit of work. */
template <typename Fn>
double
bestNsPerUnit(Fn &&fn, std::size_t units, int reps)
{
    fn();
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep)
        best = std::min(best, cpuSecondsOf(fn));
    return best * 1e9 / static_cast<double>(units);
}

/** The literal and fast-path draws' temperature-dependent stages at
 *  one temperature (the e->lambda and race stages together are the
 *  literal draw). */
struct StageTiming
{
    double temperature = 0.0;
    /** Mean firing-set size: the labels e->lambda keeps per pixel. */
    double firingLabelsPerPixel = 0.0;
    /** firingRates: quantize, E_min, keep the firing labels, read
     *  their rates. */
    double eToLambdaNsPerLabel = 0.0;
    /** raceFiringSet (binned) over the firing sets e->lambda left. */
    double raceNsPerPixel = 0.0;
    /** raceEnergiesRow: the fused quantize+classify pass plus the
     *  table-probe + SWAR alias draw. */
    double fastRowNsPerPixel = 0.0;
};

StageTiming
timeStages(const PlaneSet &set, double temperature, int reps,
           std::uint64_t seed)
{
    StageTiming st;
    st.temperature = temperature;
    const std::size_t m = static_cast<std::size_t>(set.m);
    const simd::KernelTable &kern = simd::kernels();

    // The RSU's energy-to-rate table at this temperature, bound as
    // the sampler binds it (its firing bound is what e->lambda keeps).
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    auto lut = core::LambdaLutCache::global().get(cfg, temperature);
    const std::size_t entries = std::size_t{1} << cfg.energyBits;
    std::vector<double> table(entries);
    for (std::size_t e = 0; e < entries; ++e)
        table[e] = static_cast<double>(lut->lookup(e)) * cfg.lambda0();
    const std::size_t bound =
        core::RateBinding::make(table, {}, nullptr)->firingBound;
    const double top =
        static_cast<double>(util::maxUnsigned(cfg.energyBits));

    // e->lambda: every pixel of every plane to its firing set (pixel
    // p's at offset p*m, its size in firing[p]).
    std::vector<std::vector<double>> rate_planes;
    std::vector<std::vector<std::uint32_t>> label_planes;
    std::vector<std::vector<std::size_t>> firing;
    for (const std::vector<float> &plane : set.energies) {
        rate_planes.emplace_back(plane.size());
        label_planes.emplace_back(plane.size());
        firing.emplace_back(plane.size() / m);
    }
    auto convert_all = [&] {
        for (std::size_t r = 0; r < set.energies.size(); ++r) {
            const std::vector<float> &plane = set.energies[r];
            for (std::size_t p = 0; p < firing[r].size(); ++p)
                firing[r][p] = kern.firingRates(
                    plane.data() + p * m, top, cfg.decayRateScaling,
                    table.data(), bound, m, rate_planes[r].data() + p * m,
                    label_planes[r].data() + p * m);
        }
    };
    st.eToLambdaNsPerLabel =
        bestNsPerUnit(convert_all, set.totalPixels * m, reps);
    std::size_t fired = 0;
    for (const std::vector<std::size_t> &row : firing)
        for (std::size_t f : row)
            fired += f;
    st.firingLabelsPerPixel = static_cast<double>(fired) /
                              static_cast<double>(set.totalPixels);

    // race: the binned TTF race of every pixel's firing set.
    {
        core::RaceRowScratch scratch;
        st.raceNsPerPixel = bestNsPerUnit(
            [&] {
                rng::Xoshiro256 gen(seed + 1);
                for (std::size_t r = 0; r < firing.size(); ++r)
                    for (std::size_t p = 0; p < firing[r].size(); ++p)
                        core::raceFiringSet(
                            rate_planes[r].data() + p * m,
                            label_planes[r].data() + p * m,
                            firing[r][p], cfg, gen, scratch);
            },
            set.totalPixels, reps);
    }

    // The fast path's binned row entry over every plane.
    {
        core::RaceFastPath fast(cfg);
        fast.bindRateTable(table);
        const unsigned draws = fast.drawsPerPixel();
        rng::Xoshiro256 gen(seed + 2);
        std::vector<double> u;
        std::vector<core::RaceOutcome> outcomes;
        st.fastRowNsPerPixel = bestNsPerUnit(
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
            set.totalPixels, reps);
    }
    return st;
}

/** Where the sample time goes, one stage at a time: the hot kernels
 *  of the literal and fast-path draws measured in isolation on the
 *  same planes (exp-draw at the sampler's per-pixel burst width), the
 *  temperature-dependent ones once per temperature. */
struct KernelBreakdown
{
    double expDrawNsPerDraw = 0.0;      ///< -log(u)/lambda conversion
    double energyPlaneNsPerLabel = 0.0; ///< conditionalEnergiesRow
    std::vector<StageTiming> stages;    ///< one per temperature
};

KernelBreakdown
timeBreakdown(const mrf::MrfProblem &problem, const PlaneSet &set,
              const std::vector<double> &temperatures, int reps,
              std::uint64_t seed)
{
    KernelBreakdown bd;
    const std::size_t m = static_cast<std::size_t>(set.m);
    const simd::KernelTable &kern = simd::kernels();

    // exp-draw, chunked at the per-pixel burst width m.
    {
        const std::size_t n = m * 4096;
        std::vector<double> u(n), rates(n), out(n);
        rng::Xoshiro256 gen(seed);
        gen.fillUniformOpenLow(u);
        for (double &r : rates)
            r = 0.05 + gen.nextDouble() * 4.0;
        bd.expDrawNsPerDraw = bestNsPerUnit(
            [&] {
                for (std::size_t off = 0; off < n; off += m)
                    kern.expDraw(u.data() + off, rates.data() + off,
                                 out.data() + off, m);
            },
            n, reps);
    }

    // energy-plane: the conditional-energy rows the planes came from.
    {
        std::vector<float> plane(
            static_cast<std::size_t>((problem.width() + 1) / 2) * m);
        bd.energyPlaneNsPerLabel = bestNsPerUnit(
            [&] {
                for (int color = 0; color < 2; ++color)
                    for (int y = 0; y < problem.height(); ++y)
                        problem.conditionalEnergiesRow(
                            set.labels, y, (y + color) % 2, 2, plane);
            },
            set.totalPixels * m, reps);
    }

    for (double temperature : temperatures)
        bd.stages.push_back(timeStages(set, temperature, reps, seed));
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
        double speedup = t.scalar.min / t.batched.min;
        std::printf("  %-27s scalar %8.1f (median %8.1f) ns/sample   "
                    "batched %8.1f (median %8.1f) ns/sample   "
                    "%.2fx%s\n",
                    e.name, t.scalar.min, t.scalar.median,
                    t.batched.min, t.batched.median, speedup,
                    t.outputsMatch ? "" : "  MISMATCH");
        std::fprintf(f,
                     "%s\n    {\"name\": \"%s\", "
                     "\"t0\": %g, \"t_end\": %g",
                     first ? "" : ",", e.name, e.schedule->front(),
                     e.schedule->back());
        printSpread(f, "scalar_ns_per_sample", t.scalar);
        printSpread(f, "batched_ns_per_sample", t.batched);
        std::fprintf(f, ", \"speedup\": %.3f, \"outputs_match\": %s",
                     speedup, t.outputsMatch ? "true" : "false");
        if (e.fastFactory) {
            FastTiming ft = timeFastPath(e.fastFactory, planes,
                                         *e.schedule, reps, seed);
            all_match = all_match && ft.outputsMatch;
            std::printf("  %-27s fastpath %6.1f ns/sample   "
                        "scalar %6.1f   cold %8.1f   %zu tables   "
                        "%.2fx vs race%s\n",
                        "  \\- race_mode=fastpath", ft.fast.min,
                        ft.scalar.min, ft.coldNsPerSample,
                        ft.aliasTables, t.batched.min / ft.fast.min,
                        ft.outputsMatch ? "" : "  MISMATCH");
            printSpread(f, "fastpath_ns_per_sample", ft.fast);
            printSpread(f, "fastpath_scalar_ns_per_sample", ft.scalar);
            std::fprintf(f,
                         ", \"fastpath_cold_ns_per_sample\": %.2f, "
                         "\"fastpath_alias_tables\": %zu, "
                         "\"fastpath_speedup_vs_scalar\": %.3f, "
                         "\"fastpath_outputs_match\": %s",
                         ft.coldNsPerSample, ft.aliasTables,
                         t.scalar.min / ft.fast.min,
                         ft.outputsMatch ? "true" : "false");
        }
        std::fprintf(f, "}");
        first = false;
    }
    // The literal draw's stages at both ends of the schedule: at t0
    // cut-off keeps nearly every label, at t_end most pixels race one
    // or two.
    KernelBreakdown bd =
        timeBreakdown(problem, planes, {t0, t_end}, reps, seed);
    std::printf("\nper-kernel breakdown (rsu-new-design stages):\n"
                "  exp-draw %6.2f ns/draw   energy-plane %6.2f "
                "ns/label\n",
                bd.expDrawNsPerDraw, bd.energyPlaneNsPerLabel);
    std::fprintf(f,
                 "\n  ],\n  \"kernel_breakdown\": {\n"
                 "    \"exp_draw_ns_per_draw\": %.2f,\n"
                 "    \"energy_plane_ns_per_label\": %.2f,\n"
                 "    \"temperatures\": [",
                 bd.expDrawNsPerDraw, bd.energyPlaneNsPerLabel);
    for (std::size_t i = 0; i < bd.stages.size(); ++i) {
        const StageTiming &st = bd.stages[i];
        std::printf("  T = %-5g firing %5.2f labels/pixel   e->lambda "
                    "%6.2f ns/label   race %6.2f ns/pixel   fastpath "
                    "row %6.2f ns/pixel\n",
                    st.temperature, st.firingLabelsPerPixel,
                    st.eToLambdaNsPerLabel, st.raceNsPerPixel,
                    st.fastRowNsPerPixel);
        std::fprintf(f,
                     "%s\n      {\"temperature\": %g, "
                     "\"firing_labels_per_pixel\": %.2f, "
                     "\"e_to_lambda_ns_per_label\": %.2f, "
                     "\"race_ns_per_pixel\": %.2f, "
                     "\"fastpath_row_ns_per_pixel\": %.2f}",
                     i == 0 ? "" : ",", st.temperature,
                     st.firingLabelsPerPixel, st.eToLambdaNsPerLabel,
                     st.raceNsPerPixel, st.fastRowNsPerPixel);
    }
    std::fprintf(f, "\n    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return all_match ? 0 : 1;
}

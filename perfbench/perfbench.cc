/**
 * @file
 * Closed-loop benchmark of whole application solves.
 *
 * One process runs one workload.  It generates the workload's scenes
 * from the seed, runs a first, cold operation that fills the
 * process-wide alias-table and lambda-LUT caches, then repeats the
 * same operation back to back for the requested time: one caller,
 * the next solve starting when the previous one returns.  Every
 * operation builds fresh samplers and calls the public apps::run* ->
 * mrf::runSolver entry points, exactly as an application does, and
 * its output is checked against a reference.
 *
 * With --trace=1 the timed operations alternate between untraced and
 * traced ones.  A traced operation wraps each sampler in a forwarding
 * decorator that times every sampling call, and wraps the solver in a
 * backend that marks where apps::run* enters and leaves it.  A traced
 * operation must reproduce the untraced ones' labels, folded sampler
 * counters and registry counter deltas, or the run reports failures.
 *
 * The last stdout line is one JSON object holding the set-up figures
 * and a raw record per timed operation; perfbench/run.py turns those
 * into the benchmark's metrics.
 *
 * Usage (normally through run.py):
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             --max-bad-pixel-percent=X --baselines=PATH [--setup-only]
 */

#include <sched.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/denoising.hh"
#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/sampler_rsu.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "obs/metrics.hh"
#include "shard/sharded_solver.hh"
#include "simd/kernels.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace {

using namespace retsim;
using Clock = std::chrono::steady_clock;

std::int64_t
elapsedNs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
}

/** CPU time of every thread of the process so far. */
std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * Resident high-water mark of the process image (VmHWM).  Not
 * getrusage's ru_maxrss, which keeps the peak of the image exec
 * replaced, e.g. the launching interpreter's.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    RETSIM_FATAL("no VmHWM in /proc/self/status");
    return 0.0;
}

/** CPU time of the calling thread so far. */
std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * Restrict the process to the first CPU it may use, before it starts
 * any thread, so every workload's threads share one CPU.  Threads that
 * wait for each other on separate CPUs of a shared virtual machine ran
 * up to twice as slow while the host was contended, because each
 * wake-up waits for the host to schedule the sleeping CPU again; no
 * run length averages that out.  On one CPU the same solves vary by a
 * few percent.  Returns how many CPUs the process could use (what
 * `nproc` prints).
 */
int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        RETSIM_FATAL("cannot read the CPU affinity mask");
    int first = 0;
    while (!CPU_ISSET(first, &allowed))
        ++first;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    CPU_SET(first, &pinned);
    if (sched_setaffinity(0, sizeof pinned, &pinned) != 0)
        RETSIM_FATAL("cannot pin the process to CPU ", first);
    return CPU_COUNT(&allowed);
}

/**
 * Timed operations a --trace=0 run makes at least, past its deadline
 * if need be: the 90th percentile by nearest rank then has at least
 * ten operations beyond it.
 */
constexpr std::size_t kMinTimedOps = 100;

/** FNV-1a over the bytes of an operation's outputs. */
class Digest
{
  public:
    void add(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i)
            hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }

    template <typename T> void add(const img::Image<T> &image)
    {
        add(image.data().data(), image.data().size() * sizeof(T));
    }

    void add(double value) { add(&value, sizeof value); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/** Sampler-call totals of every TracingSampler of one operation. */
struct SamplerTally
{
    std::mutex mutex;
    std::int64_t busyNs = 0;   ///< in-call time, summed over threads
    std::uint64_t calls = 0;   ///< sample + sampleRow + sampleRowCached
    std::uint64_t clones = 0;
    core::RaceFastPath::RowCacheStats rowCache; ///< over all clones
};

/**
 * Forwarding LabelSampler that times every sampling call.  clone()
 * wraps the clone, so stripe workers are timed too; each instance
 * keeps private totals (one thread uses an instance at a time) and
 * adds them to the shared tally when it is destroyed.
 *
 * Row calls are timed by the calling thread's CPU clock, which stays
 * right when shard rank threads share the CPU and one is preempted
 * mid-call.  Per-pixel calls, which only the single-threaded raster
 * solver makes, are timed by the steady clock: reading a CPU clock
 * costs a system call, more than the call it would time.
 */
class TracingSampler final : public mrf::LabelSampler
{
  public:
    TracingSampler(std::unique_ptr<mrf::LabelSampler> inner,
                   std::shared_ptr<SamplerTally> tally)
        : inner_(std::move(inner)), tally_(std::move(tally))
    {
    }

    TracingSampler(const TracingSampler &) = delete;
    TracingSampler &operator=(const TracingSampler &) = delete;

    ~TracingSampler() override
    {
        std::lock_guard<std::mutex> lock(tally_->mutex);
        tally_->busyNs += busyNs_;
        tally_->calls += calls_;
        const auto *rsu =
            dynamic_cast<const core::RsuSampler *>(inner_.get());
        if (const auto *rc = rsu ? rsu->rowCacheStats() : nullptr) {
            tally_->rowCache.drawHits += rc->drawHits;
            tally_->rowCache.classifyHits += rc->classifyHits;
            tally_->rowCache.misses += rc->misses;
        }
    }

    int sample(std::span<const float> energies, double temperature,
               int current, rng::Rng &gen) override
    {
        const Clock::time_point start = Clock::now();
        const int label =
            inner_->sample(energies, temperature, current, gen);
        account(elapsedNs(start, Clock::now()));
        return label;
    }

    void sampleRow(std::span<const float> energies, int numLabels,
                   double temperature, std::span<const int> current,
                   std::span<int> out, rng::Rng &gen) override
    {
        const std::int64_t start = threadCpuNs();
        inner_->sampleRow(energies, numLabels, temperature, current, out,
                          gen);
        account(threadCpuNs() - start);
    }

    std::size_t rowCacheWords(int numLabels) const override
    {
        return inner_->rowCacheWords(numLabels);
    }

    void sampleRowCached(std::span<const float> energies, int numLabels,
                         double temperature, std::span<const int> current,
                         std::span<int> out, rng::Rng &gen,
                         std::span<std::uint64_t> cache,
                         const std::uint64_t *dirty) override
    {
        const std::int64_t start = threadCpuNs();
        inner_->sampleRowCached(energies, numLabels, temperature, current,
                                out, gen, cache, dirty);
        account(threadCpuNs() - start);
    }

    std::string name() const override { return inner_->name(); }

    mrf::SamplerStats stats() const override { return inner_->stats(); }

    void mergeStats(const mrf::LabelSampler &other) override
    {
        // Samplers dynamic_cast the argument to their own type and
        // ignore anything else, so hand them the wrapped clone.
        const auto *traced = dynamic_cast<const TracingSampler *>(&other);
        inner_->mergeStats(traced ? *traced->inner_ : other);
    }

    void saveState(std::vector<std::uint64_t> &out) const override
    {
        inner_->saveState(out);
    }

    bool loadState(std::span<const std::uint64_t> words) override
    {
        return inner_->loadState(words);
    }

    std::unique_ptr<mrf::LabelSampler>
    clone(std::uint64_t stream) const override
    {
        {
            std::lock_guard<std::mutex> lock(tally_->mutex);
            ++tally_->clones;
        }
        return std::make_unique<TracingSampler>(inner_->clone(stream),
                                                tally_);
    }

  private:
    void account(std::int64_t ns)
    {
        busyNs_ += ns;
        ++calls_;
    }

    std::unique_ptr<mrf::LabelSampler> inner_;
    std::shared_ptr<SamplerTally> tally_;
    std::int64_t busyNs_ = 0;
    std::uint64_t calls_ = 0;
};

/**
 * Spans of one traced operation, summed over its app calls.  The
 * build and scoring spans run on the calling thread alone and are
 * timed by its CPU clock, like the operation's process CPU time they
 * are subtracted from; the solve span is wall time.
 */
struct OpTrace
{
    std::shared_ptr<SamplerTally> tally =
        std::make_shared<SamplerTally>();
    std::int64_t buildNs = 0;   ///< apps::run* before the solver
    std::int64_t solveNs = 0;   ///< mrf::runSolver's solve
    std::int64_t metricsNs = 0; ///< apps::run* after the solver
};

/** An RSU sampler; wrapped in a TracingSampler when traced. */
std::unique_ptr<mrf::LabelSampler>
makeSampler(const core::RsuConfig &cfg, OpTrace *trace)
{
    auto sampler = std::make_unique<core::RsuSampler>(cfg);
    if (!trace)
        return sampler;
    return std::make_unique<TracingSampler>(std::move(sampler),
                                            trace->tally);
}

/**
 * Call one apps::run* with @p cfg.  Traced, the config's solver
 * backend is wrapped so the solve's span inside the app is known:
 * apps::run* builds its problem (apps::build*Problem) before the
 * solve and scores the result (metrics::*) after it.
 */
template <typename RunApp>
auto
callApp(OpTrace *trace, const mrf::SolverConfig &cfg, RunApp &&runApp)
{
    if (!trace)
        return runApp(cfg);
    std::int64_t cpuSolveStart = 0;
    std::int64_t cpuSolveEnd = 0;
    Clock::time_point solveStart;
    Clock::time_point solveEnd;
    mrf::SolverConfig traced = cfg;
    traced.solverBackend =
        [inner = cfg.solverBackend, &cpuSolveStart, &cpuSolveEnd,
         &solveStart, &solveEnd](
            const mrf::SolverConfig &c, const mrf::MrfProblem &problem,
            mrf::LabelSampler &sampler, img::LabelMap &labels,
            mrf::SolverTrace *solverTrace) {
            cpuSolveStart = threadCpuNs();
            solveStart = Clock::now();
            // runSolver clears the backend it forwards, so without an
            // inner backend this runs the default raster solver.
            img::LabelMap out =
                inner ? inner(c, problem, sampler, labels, solverTrace)
                      : mrf::runSolver(c, problem, sampler, labels,
                                       solverTrace);
            solveEnd = Clock::now();
            cpuSolveEnd = threadCpuNs();
            return out;
        };
    const std::int64_t cpuStart = threadCpuNs();
    auto result = runApp(traced);
    const std::int64_t cpuEnd = threadCpuNs();
    trace->buildNs += cpuSolveStart - cpuStart;
    trace->solveNs += elapsedNs(solveStart, solveEnd);
    trace->metricsNs += cpuEnd - cpuSolveEnd;
    return result;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** What one operation produced. */
struct OpResult
{
    Digest digest;                  ///< labels and quality values
    std::uint64_t pixelUpdates = 0; ///< SolverTrace totals
    std::uint64_t labelChanges = 0;
    mrf::SamplerStats stats;        ///< folded sampler counters
    std::map<std::string, double> quality;
    std::vector<std::string> failures; ///< failed output checks

    void addTrace(const mrf::SolverTrace &trace,
                  const mrf::LabelSampler &sampler)
    {
        pixelUpdates += trace.pixelUpdates;
        labelChanges += trace.labelChanges;
        stats += sampler.stats();
    }

    void addQuality(const std::string &name, double value)
    {
        quality[name] = value;
        digest.add(value);
    }
};

/** Output every operation must reproduce, and the checks behind it. */
struct Reference
{
    std::uint64_t digest = 0;
    std::vector<OpResult> solves; ///< extra solves, checked as operations
};

class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Threads one operation runs, all on the one pinned CPU. */
    virtual int threads() const = 0;

    /** Generate the inputs: the img layer's share of set-up. */
    virtual void makeScenes(std::uint64_t seed) = 0;

    /** One operation; @p trace is null for an untraced one. */
    virtual OpResult run(OpTrace *trace) = 0;

    /** Reference digest; by default the cold operation's. */
    virtual Reference reference(std::uint64_t coldDigest)
    {
        return {coldDigest, {}};
    }
};

/**
 * Synthetic stereo at the fast path's packed-lane label count, solved
 * by the RSU new design in fastpath race mode through the chromatic
 * solver with 16 stripes: on 2 threads in one process, or split
 * across 2 loopback shard ranks of 1 thread each on the overlapped
 * halo schedule.  Both give the same labels for the same seed.
 */
class Stereo16 final : public Workload
{
  public:
    static constexpr int kWidth = 128;
    static constexpr int kHeight = 96;
    static constexpr int kLabels = 16;
    static constexpr int kSweeps = 96;
    static constexpr int kStripes = 16;
    static constexpr int kThreads = 2; ///< pool threads, or shard ranks

    Stereo16(bool sharded, double maxBadPixelPercent)
        : sharded_(sharded), maxBadPixelPercent_(maxBadPixelPercent)
    {
    }

    int threads() const override { return kThreads; }

    void makeScenes(std::uint64_t seed) override
    {
        img::StereoSceneSpec spec;
        spec.name = "perfbench16";
        spec.width = kWidth;
        spec.height = kHeight;
        spec.numLabels = kLabels;
        scene_ = img::makeStereoScene(spec, seed);
        seed_ = seed;
    }

    OpResult run(OpTrace *trace) override
    {
        return solve(sharded_, trace);
    }

    Reference reference(std::uint64_t coldDigest) override
    {
        if (!sharded_)
            return {coldDigest, {}};
        // Shard equivalence: the sharded solve must reproduce the
        // single-process striped solve byte for byte.
        Reference ref;
        ref.solves.push_back(solve(false, nullptr));
        ref.digest = ref.solves.back().digest.value();
        return ref;
    }

  private:
    mrf::SolverConfig config(bool sharded) const
    {
        mrf::SolverConfig cfg = apps::defaultStereoSolver(kSweeps, seed_);
        cfg.stripes = kStripes;
        cfg.threads = sharded ? 1 : kThreads;
        if (sharded) {
            cfg.overlapHalo = true;
            shard::ShardOptions options;
            options.shards = kThreads;
            cfg.solverBackend = shard::makeShardBackend(options);
        } else {
            cfg.solverBackend =
                [](const mrf::SolverConfig &c,
                   const mrf::MrfProblem &problem,
                   mrf::LabelSampler &sampler, img::LabelMap &labels,
                   mrf::SolverTrace *trace) {
                    return mrf::CheckerboardGibbsSolver(c).run(
                        problem, sampler, labels, trace);
                };
        }
        return cfg;
    }

    OpResult solve(bool sharded, OpTrace *trace)
    {
        core::RsuConfig rc = core::RsuConfig::newDesign();
        rc.raceMode = core::RaceMode::FastPath;
        auto sampler = makeSampler(rc, trace);
        const apps::StereoResult r =
            callApp(trace, config(sharded),
                    [&](const mrf::SolverConfig &cfg) {
                        return apps::runStereo(scene_, *sampler, cfg);
                    });
        OpResult out;
        out.digest.add(r.disparity);
        out.addQuality("stereo.bad_pixel_percent", r.badPixelPercent);
        out.addQuality("stereo.rms_error", r.rmsError);
        out.addTrace(r.trace, *sampler);
        if (!(r.badPixelPercent <= maxBadPixelPercent_))
            out.failures.push_back(
                "stereo16 bad pixels " +
                std::to_string(r.badPixelPercent) + "% above the " +
                std::to_string(maxBadPixelPercent_) + "% bound");
        return out;
    }

    bool sharded_;
    double maxBadPixelPercent_;
    std::uint64_t seed_ = 0;
    img::StereoScene scene_;
};

/**
 * One pass over the four quality-gate miniatures (tools/quality_gate)
 * through apps::run* with their defaults: raster GibbsSolver and the
 * RSU new design's literal race.  Scenes are the gate's; the workload
 * seed offsets every chain seed, so seed 0 is the gate itself.
 */
class MiniApps final : public Workload
{
  public:
    explicit MiniApps(std::string baselinesPath)
        : baselinesPath_(std::move(baselinesPath))
    {
    }

    int threads() const override { return 1; }

    void makeScenes(std::uint64_t seed) override
    {
        chainOffset_ = seed;
        img::StereoSceneSpec stereo;
        stereo.name = "gate";
        stereo.width = 64;
        stereo.height = 48;
        stereo.numLabels = 12;
        stereo.numObjects = 4;
        stereo_ = img::makeStereoScene(stereo, 5);

        clean_ = img::ImageU8(56, 48);
        for (int y = 0; y < clean_.height(); ++y)
            for (int x = 0; x < clean_.width(); ++x)
                clean_(x, y) = static_cast<std::uint8_t>(
                    x < 19 ? 40 : (x < 38 ? 150 : 210));
        noisy_ = apps::addGaussianNoise(clean_, 20.0, 7);

        img::MotionSceneSpec motion;
        motion.name = "gate";
        motion.width = 48;
        motion.height = 40;
        motion.windowRadius = 2;
        motion.numObjects = 3;
        motion_ = img::makeMotionScene(motion, 17);

        img::SegmentationSceneSpec seg;
        seg.name = "gate";
        seg.width = 48;
        seg.height = 48;
        seg.numSegments = 4;
        seg.numRegions = 10;
        segmentation_ = img::makeSegmentationScene(seg, 23);
    }

    OpResult run(OpTrace *trace) override
    {
        return pass(chainOffset_, trace);
    }

    /** Also runs one pass at the gate's own seeds and holds its
     *  values to the gate's baselines and tolerances. */
    Reference reference(std::uint64_t coldDigest) override
    {
        OpResult gate = pass(0, nullptr);
        checkBaselines(gate.quality, gate.failures);
        Reference ref{coldDigest, {}};
        ref.solves.push_back(std::move(gate));
        return ref;
    }

  private:
    OpResult pass(std::uint64_t offset, OpTrace *trace)
    {
        const core::RsuConfig rc = core::RsuConfig::newDesign();
        OpResult out;
        {
            auto sampler = makeSampler(rc, trace);
            const apps::StereoResult r = callApp(
                trace, apps::defaultStereoSolver(60, 9 + offset),
                [&](const mrf::SolverConfig &cfg) {
                    return apps::runStereo(stereo_, *sampler, cfg);
                });
            out.digest.add(r.disparity);
            out.addQuality("stereo.bad_pixel_percent",
                           r.badPixelPercent);
            out.addQuality("stereo.rms_error", r.rmsError);
            out.addTrace(r.trace, *sampler);
        }
        {
            auto sampler = makeSampler(rc, trace);
            apps::DenoisingParams params;
            params.levels = 16;
            const apps::DenoisingResult r = callApp(
                trace, apps::defaultDenoisingSolver(30, 11 + offset),
                [&](const mrf::SolverConfig &cfg) {
                    return apps::runDenoising(clean_, noisy_, *sampler,
                                              cfg, params);
                });
            out.digest.add(r.restored);
            out.addQuality("denoising.psnr_restored_db", r.psnrRestored);
            out.addTrace(r.trace, *sampler);
        }
        {
            auto sampler = makeSampler(rc, trace);
            const apps::MotionResult r = callApp(
                trace, apps::defaultMotionSolver(40, 13 + offset),
                [&](const mrf::SolverConfig &cfg) {
                    return apps::runMotion(motion_, *sampler, cfg);
                });
            out.digest.add(r.labels);
            out.addQuality("motion.end_point_error", r.endPointError);
            out.addTrace(r.trace, *sampler);
        }
        {
            auto sampler = makeSampler(rc, trace);
            const apps::SegmentationResult r = callApp(
                trace, apps::defaultSegmentationSolver(30, 19 + offset),
                [&](const mrf::SolverConfig &cfg) {
                    return apps::runSegmentation(segmentation_, *sampler,
                                                 cfg);
                });
            out.digest.add(r.segments);
            out.addQuality("segmentation.voi", r.voi);
            out.addQuality("segmentation.pri", r.pri);
            out.addTrace(r.trace, *sampler);
        }
        return out;
    }

    /** The quality gate's rule: each baseline value within its
     *  tolerance on the side its "better" names. */
    void checkBaselines(const std::map<std::string, double> &values,
                        std::vector<std::string> &failures) const
    {
        std::ifstream in(baselinesPath_);
        std::stringstream text;
        text << in.rdbuf();
        util::JsonValue root;
        std::string error;
        if (!in || !util::JsonValue::parse(text.str(), &root, &error)) {
            failures.push_back("cannot read quality baselines " +
                               baselinesPath_ + " " + error);
            return;
        }
        const util::JsonValue *metrics = root.find("metrics");
        if (!metrics || !metrics->isObject() ||
            metrics->members().empty()) {
            failures.push_back("no metrics in " + baselinesPath_);
            return;
        }
        for (const auto &[name, entry] : metrics->members()) {
            const util::JsonValue *value = entry.find("value");
            const util::JsonValue *tolerance = entry.find("tolerance");
            const util::JsonValue *better = entry.find("better");
            const auto observed = values.find(name);
            if (!value || !value->isNumber() || !tolerance ||
                !tolerance->isNumber() || !better ||
                !better->isString() || observed == values.end()) {
                failures.push_back("gate baseline " + name +
                                   " is malformed or not produced");
                continue;
            }
            const double base = value->asNumber();
            const double tol = tolerance->asNumber();
            const bool ok = better->asString() == "lower"
                                ? observed->second <= base + tol
                                : observed->second >= base - tol;
            if (!ok)
                failures.push_back(
                    "gate " + name + " = " +
                    std::to_string(observed->second) +
                    " outside baseline " + std::to_string(base) +
                    " +/- " + std::to_string(tol));
        }
    }

    std::string baselinesPath_;
    std::uint64_t chainOffset_ = 0;
    img::StereoScene stereo_;
    img::ImageU8 clean_;
    img::ImageU8 noisy_;
    img::MotionScene motion_;
    img::SegmentationScene segmentation_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const util::CliArgs &args)
{
    if (name == "stereo16-striped" || name == "stereo16-sharded") {
        if (!args.has("max-bad-pixel-percent"))
            RETSIM_FATAL("--max-bad-pixel-percent is required for ",
                         name);
        return std::make_unique<Stereo16>(
            name == "stereo16-sharded",
            args.getDouble("max-bad-pixel-percent", 0.0));
    }
    if (name == "miniapps-raster") {
        if (!args.has("baselines"))
            RETSIM_FATAL("--baselines is required for ", name);
        return std::make_unique<MiniApps>(args.getString("baselines", ""));
    }
    RETSIM_FATAL("unknown --workload '", name,
                 "' (stereo16-striped|stereo16-sharded|miniapps-raster)");
    return nullptr;
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

/** Registry counters that count events, not time: a traced operation
 *  must change them exactly as an untraced one does. */
std::map<std::string, std::uint64_t>
counterDelta(const std::vector<obs::MetricSnapshot> &before,
             const std::vector<obs::MetricSnapshot> &after)
{
    std::map<std::string, std::uint64_t> delta;
    for (const obs::MetricSnapshot &m : obs::diffSnapshots(before, after))
        if (m.kind == obs::MetricKind::Counter)
            delta[m.name] = m.counter;
    return delta;
}

bool
isTimeCounter(const std::string &name)
{
    return name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
}

/** What a traced operation must reproduce of an untraced one. */
struct ChainFingerprint
{
    mrf::SamplerStats stats;
    std::uint64_t pixelUpdates = 0;
    std::uint64_t labelChanges = 0;
    std::map<std::string, std::uint64_t> counters; ///< no *_ns

    ChainFingerprint(const OpResult &op,
                     const std::map<std::string, std::uint64_t> &delta)
        : stats(op.stats), pixelUpdates(op.pixelUpdates),
          labelChanges(op.labelChanges)
    {
        for (const auto &[name, value] : delta)
            if (!isTimeCounter(name))
                counters[name] = value;
    }

    bool operator==(const ChainFingerprint &o) const
    {
        return stats.samples == o.stats.samples &&
               stats.noSample == o.stats.noSample &&
               stats.ties == o.stats.ties &&
               pixelUpdates == o.pixelUpdates &&
               labelChanges == o.labelChanges && counters == o.counters;
    }
};

util::JsonValue
number(double v)
{
    return util::JsonValue(v);
}

util::JsonValue
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return util::JsonValue(std::string(buf));
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const std::string name = args.getString("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 10.0);
    const bool traced = args.getInt("trace", 0) != 0;
    const bool setupOnly = args.getBool("setup-only", false);
    if (!(seconds > 0.0))
        RETSIM_FATAL("--seconds must be positive");

    const int nproc = pinToOneCpu();
    std::unique_ptr<Workload> workload = makeWorkload(name, args);

    // Set-up: the scenes, then the cold operation that fills the
    // process-wide caches.  It is checked but not a timed sample.
    const std::int64_t setupCpuStart = processCpuNs();
    const Clock::time_point setupStart = Clock::now();
    workload->makeScenes(seed);
    const Clock::time_point scenesDone = Clock::now();
    OpResult cold = workload->run(nullptr);
    const std::int64_t setupCpuNs = processCpuNs() - setupCpuStart;
    const double peakRss = peakRssMib();

    util::JsonValue out = util::JsonValue::object();
    out.set("workload", util::JsonValue(name));
    out.set("seed", number(static_cast<double>(seed)));
    out.set("nproc", number(nproc));
    out.set("cpus", number(1));
    out.set("threads", number(workload->threads()));
    out.set("simd_backend",
            util::JsonValue(std::string(
                simd::backendName(simd::activeBackend()))));
    out.set("build_type", util::JsonValue(std::string(PERFBENCH_BUILD_TYPE)));
    util::JsonValue setup = util::JsonValue::object();
    setup.set("scene_ns", number(elapsedNs(setupStart, scenesDone)));
    setup.set("setup_cpu_ns", number(setupCpuNs));
    setup.set("peak_rss_mib", number(peakRss));
    out.set("setup", std::move(setup));
    out.set("cold_digest", hex(cold.digest.value()));

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto count = [&](const OpResult &op) {
        ++attempted;
        if (!op.failures.empty())
            ++failed;
        for (const std::string &f : op.failures)
            std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(),
                         f.c_str());
    };
    util::JsonValue ops = util::JsonValue::array();

    if (!setupOnly) {
        obs::Registry &registry = obs::Registry::global();
        std::vector<OpResult> results;
        std::unique_ptr<ChainFingerprint> untracedChain;
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        // A traced run needs one untraced and one traced operation.
        const std::size_t minOps = traced ? 2 : kMinTimedOps;
        for (std::size_t i = 0; i < minOps || Clock::now() < deadline;
             ++i) {
            // Traced runs alternate untraced and traced operations,
            // so both see the same machine state.
            std::unique_ptr<OpTrace> trace;
            if (traced && i % 2 == 1)
                trace = std::make_unique<OpTrace>();
            std::vector<obs::MetricSnapshot> before;
            if (traced)
                before = registry.snapshot();
            const std::int64_t cpuStart = processCpuNs();
            const Clock::time_point start = Clock::now();
            OpResult r = workload->run(trace.get());
            const Clock::time_point end = Clock::now();
            const std::int64_t cpuNs = processCpuNs() - cpuStart;

            util::JsonValue op = util::JsonValue::object();
            op.set("wall_ns", number(elapsedNs(start, end)));
            op.set("cpu_ns", number(cpuNs));
            op.set("pixel_updates", number(r.pixelUpdates));
            if (traced) {
                const auto delta = counterDelta(before, registry.snapshot());
                const ChainFingerprint chain(r, delta);
                if (!untracedChain)
                    untracedChain = std::make_unique<ChainFingerprint>(chain);
                else if (!(chain == *untracedChain))
                    r.failures.push_back(
                        std::string(trace ? "traced" : "untraced") +
                        " operation " + std::to_string(i) +
                        " changed the sampler counters or registry "
                        "counter deltas of the first untraced one");
                op.set("traced", util::JsonValue(trace != nullptr));
                op.set("label_changes", number(r.labelChanges));
                op.set("samples", number(r.stats.samples));
                op.set("ties", number(r.stats.ties));
                op.set("no_sample", number(r.stats.noSample));
                util::JsonValue counters = util::JsonValue::object();
                for (const auto &[counter, value] : delta)
                    counters.set(counter, number(value));
                op.set("counters", std::move(counters));
            }
            if (trace) {
                const SamplerTally &t = *trace->tally;
                op.set("build_ns", number(trace->buildNs));
                op.set("solve_ns", number(trace->solveNs));
                op.set("metrics_ns", number(trace->metricsNs));
                op.set("sampler_busy_ns", number(t.busyNs));
                op.set("sampler_calls", number(t.calls));
                op.set("sampler_clones", number(t.clones));
                op.set("row_cache_draw_hits", number(t.rowCache.drawHits));
                op.set("row_cache_classify_hits",
                       number(t.rowCache.classifyHits));
                op.set("row_cache_misses", number(t.rowCache.misses));
            }
            ops.append(std::move(op));
            results.push_back(std::move(r));
        }

        const Reference ref = workload->reference(cold.digest.value());
        out.set("reference_digest", hex(ref.digest));
        for (const OpResult &solve : ref.solves)
            count(solve);
        auto check = [&](OpResult &r, const std::string &what) {
            if (r.digest.value() != ref.digest)
                r.failures.push_back(what +
                                     " output differs from the reference");
            count(r);
        };
        check(cold, "cold operation");
        for (std::size_t i = 0; i < results.size(); ++i)
            check(results[i], "operation " + std::to_string(i));
    } else {
        count(cold);
    }

    out.set("attempted", number(static_cast<double>(attempted)));
    out.set("failed", number(static_cast<double>(failed)));
    out.set("ops", std::move(ops));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

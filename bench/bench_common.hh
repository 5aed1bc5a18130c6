/**
 * @file
 * Shared helpers for the benchmark harness.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation on the synthetic dataset analogs.  Scene sizes and sweep
 * counts default to reduced-but-faithful values so the whole harness
 * finishes in minutes on one core; every knob can be raised from the
 * command line (--sweeps=N, --seed=N, ...) toward paper scale.
 */

#ifndef RETSIM_BENCH_BENCH_COMMON_HH
#define RETSIM_BENCH_BENCH_COMMON_HH

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/synthetic.hh"
#include "mrf/sampler.hh"
#include "util/cli.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace retsim {
namespace bench {

/** CPUs this process may run on: its affinity mask, what `nproc`
 *  prints.  std::thread::hardware_concurrency() counts the machine's
 *  CPUs even under `taskset -c 0`, so the bench JSONs record this. */
inline int
availableCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    return CPU_COUNT(&allowed);
}

/** Fresh-sampler factory so parallel runs never share state. */
using SamplerFactory =
    std::function<std::unique_ptr<mrf::LabelSampler>()>;

inline SamplerFactory
softwareFactory()
{
    return [] { return std::make_unique<core::SoftwareSampler>(); };
}

inline SamplerFactory
rsuFactory(const core::RsuConfig &cfg)
{
    return [cfg] { return std::make_unique<core::RsuSampler>(cfg); };
}

/** Per-scene BP results for one sampler over the stereo suite. */
struct StereoSuiteResult
{
    std::vector<double> bp;  ///< per scene
    std::vector<double> rms; ///< per scene
    double avgBp = 0.0;
};

inline StereoSuiteResult
runStereoSuite(const std::vector<img::StereoScene> &scenes,
               const SamplerFactory &factory, int sweeps,
               std::uint64_t seed)
{
    StereoSuiteResult out;
    out.bp.resize(scenes.size());
    out.rms.resize(scenes.size());
    util::ThreadPool::global().parallelFor(
        scenes.size(), [&](std::size_t i) {
            auto sampler = factory();
            auto result = apps::runStereo(
                scenes[i], *sampler,
                apps::defaultStereoSolver(sweeps, seed + i));
            out.bp[i] = result.badPixelPercent;
            out.rms[i] = result.rmsError;
        });
    for (double b : out.bp)
        out.avgBp += b;
    out.avgBp /= static_cast<double>(scenes.size());
    return out;
}

inline std::vector<double>
runMotionSuite(const std::vector<img::MotionScene> &scenes,
               const SamplerFactory &factory, int sweeps,
               std::uint64_t seed)
{
    std::vector<double> epe(scenes.size());
    util::ThreadPool::global().parallelFor(
        scenes.size(), [&](std::size_t i) {
            auto sampler = factory();
            epe[i] = apps::runMotion(
                         scenes[i], *sampler,
                         apps::defaultMotionSolver(sweeps, seed + i))
                         .endPointError;
        });
    return epe;
}

/** VoI of every image of a segmentation suite for one sampler. */
inline std::vector<double>
runSegmentationSuite(const std::vector<img::SegmentationScene> &scenes,
                     const SamplerFactory &factory, int sweeps,
                     std::uint64_t seed)
{
    std::vector<double> voi(scenes.size());
    util::ThreadPool::global().parallelFor(
        scenes.size(), [&](std::size_t i) {
            auto sampler = factory();
            voi[i] =
                apps::runSegmentation(
                    scenes[i], *sampler,
                    apps::defaultSegmentationSolver(sweeps, seed + i))
                    .voi;
        });
    return voi;
}

inline void
printHeader(const std::string &what, const std::string &paper_ref)
{
    std::printf("\n================================================="
                "=====================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==================================================="
                "===================\n");
}

} // namespace bench
} // namespace retsim

#endif // RETSIM_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Concurrency tests for the observability layer, run in the
 * TSan-labeled binary: direct registry updates must be thread-safe,
 * and concurrent recorder writes must not race.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace {

using namespace retsim;

TEST(ObsConcurrency, DirectRegistryUpdatesAreThreadSafe)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;

    obs::Registry reg;
    obs::MetricId c = reg.counter("hits");
    obs::MetricId g = reg.gauge("level");

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                reg.add(c);
                reg.set(g, static_cast<double>(t));
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(reg.counterValue(c),
              static_cast<std::uint64_t>(kThreads) * kIters);
    // The gauge holds one of the racing writes, not garbage.
    double level = reg.gaugeValue(g);
    EXPECT_GE(level, 0.0);
    EXPECT_LT(level, static_cast<double>(kThreads));
}

TEST(ObsConcurrency, ConcurrentRecorderWritesDoNotRace)
{
    constexpr int kThreads = 4;
    constexpr int kIters = 500;

    obs::TelemetryRecorder rec("concurrent");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::string stream =
                "stream." + std::to_string(t % 2);
            for (int i = 0; i < kIters; ++i) {
                rec.record(stream,
                           {{"i", static_cast<double>(i)},
                            {"t", static_cast<double>(t)}});
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(rec.recordCount("stream.0") +
                  rec.recordCount("stream.1"),
              static_cast<std::size_t>(kThreads) * kIters);
}

} // namespace

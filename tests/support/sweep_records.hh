/**
 * @file
 * A solver run read back from its counter sinks: the registry's
 * solver and energy-cache counters, and the run's per-sweep
 * `sweep.<problem>.<kind>` telemetry records, parsed from the
 * recorder's CSV.  expectSinksAgree() checks that the records agree
 * with the trace and the registry.  Header-only: both test
 * executables link GTest, the support library does not.
 */

#ifndef RETSIM_TESTS_SUPPORT_SWEEP_RECORDS_HH
#define RETSIM_TESTS_SUPPORT_SWEEP_RECORDS_HH

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace retsim {
namespace test {

/** One telemetry record: field name -> value. */
using Record = std::map<std::string, double>;

/** The records of @p stream, in order, parsed from @p rec's CSV. */
inline std::vector<Record>
recordsOf(const obs::TelemetryRecorder &rec, const std::string &stream)
{
    std::vector<Record> out;
    std::istringstream csv(rec.toCsv());
    std::string line;
    std::getline(csv, line); // stream,record,field,value
    while (std::getline(csv, line)) {
        const std::size_t a = line.find(',');
        const std::size_t b = line.find(',', a + 1);
        const std::size_t c = line.find(',', b + 1);
        if (line.substr(0, a) != stream)
            continue;
        const std::size_t r = std::stoul(line.substr(a + 1, b - a - 1));
        if (out.size() <= r)
            out.resize(r + 1);
        out[r][line.substr(b + 1, c - b - 1)] =
            std::stod(line.substr(c + 1));
    }
    return out;
}

/** The per-sweep stream a solver of @p kind records for @p problem. */
inline std::string
sweepStream(const mrf::MrfProblem &problem, const std::string &kind)
{
    return "sweep." + problem.name() + '.' + kind;
}

/** The solver's registry counters; read() takes their current values,
 *  and a difference of two reads is what a run added. */
struct RegistryCounts
{
    std::uint64_t pixelUpdates = 0;
    std::uint64_t labelChanges = 0;
    std::uint64_t cleanHits = 0;
    std::uint64_t recomputed = 0;
    std::uint64_t invalidations = 0;

    static RegistryCounts
    read()
    {
        obs::Registry &reg = obs::Registry::global();
        const auto value = [&](const char *name) {
            return reg.counterValue(reg.counter(name));
        };
        return {value("mrf.solver.pixel_updates"),
                value("mrf.solver.label_changes"),
                value("mrf.energy_cache.clean_hits"),
                value("mrf.energy_cache.recomputed"),
                value("mrf.energy_cache.invalidations")};
    }

    RegistryCounts
    operator-(const RegistryCounts &o) const
    {
        return {pixelUpdates - o.pixelUpdates,
                labelChanges - o.labelChanges, cleanHits - o.cleanHits,
                recomputed - o.recomputed,
                invalidations - o.invalidations};
    }

    bool operator==(const RegistryCounts &) const = default;
};

inline std::ostream &
operator<<(std::ostream &os, const RegistryCounts &c)
{
    return os << "{updates " << c.pixelUpdates << ", changes "
              << c.labelChanges << ", clean hits " << c.cleanHits
              << ", recomputed " << c.recomputed << ", invalidations "
              << c.invalidations << '}';
}

/**
 * The three sinks of one traced run that kept an energy cache agree:
 * one record per sweep of @p trace, whose pixel updates and label
 * changes sum to the trace's, each of whose updates read one energy
 * plane (served clean or recomputed), and whose counts sum to what
 * the run added to the registry (@p delta).
 */
inline void
expectSinksAgree(const std::vector<Record> &records,
                 const mrf::SolverTrace &trace, const RegistryCounts &delta)
{
    ASSERT_EQ(records.size(), trace.energyPerSweep.size());
    RegistryCounts sum;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        const auto count = [&](const char *field) {
            return static_cast<std::uint64_t>(r.at(field));
        };
        EXPECT_EQ(r.at("sweep"), static_cast<double>(i));
        EXPECT_EQ(count("energy_cache_hits") +
                      count("energy_cache_recomputed"),
                  count("pixel_updates"))
            << "sweep " << i;
        sum.pixelUpdates += count("pixel_updates");
        sum.labelChanges += count("label_changes");
        sum.cleanHits += count("energy_cache_hits");
        sum.recomputed += count("energy_cache_recomputed");
        sum.invalidations += count("energy_cache_invalidations");
    }
    EXPECT_EQ(sum.pixelUpdates, trace.pixelUpdates);
    EXPECT_EQ(sum.labelChanges, trace.labelChanges);
    EXPECT_EQ(sum, delta);
}

/** Records equal field for field, but for @p except's fields. */
inline void
expectSameRecords(const std::vector<Record> &want,
                  const std::vector<Record> &got,
                  const std::vector<std::string> &except)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        Record a = want[i];
        Record b = got[i];
        for (const std::string &field : except) {
            a.erase(field);
            b.erase(field);
        }
        EXPECT_EQ(b, a) << "record " << i;
    }
}

} // namespace test
} // namespace retsim

#endif // RETSIM_TESTS_SUPPORT_SWEEP_RECORDS_HH

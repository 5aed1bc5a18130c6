/**
 * @file
 * Tests for the observability layer: metrics-registry semantics
 * (register-or-lookup, histogram bucketing and merge associativity),
 * the telemetry recorder's JSON/CSV sinks, and TelemetryScope
 * installation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "util/json.hh"

namespace {

using namespace retsim;

// ------------------------------------------------------------ registry

TEST(Registry, RegisterOrLookupReturnsSameHandle)
{
    obs::Registry reg;
    obs::MetricId a = reg.counter("x.count");
    obs::MetricId b = reg.counter("x.count");
    EXPECT_EQ(a.index, b.index);
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(reg.size(), 1u);

    obs::MetricId g = reg.gauge("x.level");
    EXPECT_NE(g.index, a.index);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, CounterAndGaugeValues)
{
    obs::Registry reg;
    obs::MetricId c = reg.counter("c");
    obs::MetricId g = reg.gauge("g");
    reg.add(c);
    reg.add(c, 41);
    reg.set(g, 2.5);
    reg.set(g, 7.25);
    EXPECT_EQ(reg.counterValue(c), 42u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue(g), 7.25);

    reg.reset();
    EXPECT_EQ(reg.counterValue(c), 0u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue(g), 0.0);
    // Registrations survive a reset.
    EXPECT_EQ(reg.counter("c").index, c.index);
}

TEST(Registry, HistogramBucketBoundaries)
{
    obs::HistogramData h({1.0, 2.0, 4.0});
    ASSERT_EQ(h.counts.size(), 4u);
    h.observe(0.5);  // <= 1          -> bucket 0
    h.observe(1.0);  // <= 1 (closed) -> bucket 0
    h.observe(1.5);  // <= 2          -> bucket 1
    h.observe(4.0);  // <= 4          -> bucket 2
    h.observe(99.0); // overflow      -> bucket 3
    EXPECT_EQ(h.counts[0], 2u);
    EXPECT_EQ(h.counts[1], 1u);
    EXPECT_EQ(h.counts[2], 1u);
    EXPECT_EQ(h.counts[3], 1u);
    EXPECT_EQ(h.count, 5u);
    EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 4.0 + 99.0);
}

TEST(Registry, HistogramMergeIsAssociative)
{
    auto make = [](std::vector<double> values) {
        obs::HistogramData h({1.0, 10.0});
        for (double v : values)
            h.observe(v);
        return h;
    };
    obs::HistogramData a = make({0.5, 3.0});
    obs::HistogramData b = make({12.0});
    obs::HistogramData c = make({1.0, 7.5, 100.0});

    // (a + b) + c
    obs::HistogramData left = a;
    left.merge(b);
    left.merge(c);
    // a + (b + c)
    obs::HistogramData right_tail = b;
    right_tail.merge(c);
    obs::HistogramData right = a;
    right.merge(right_tail);

    EXPECT_EQ(left.counts, right.counts);
    EXPECT_EQ(left.count, right.count);
    EXPECT_DOUBLE_EQ(left.sum, right.sum);
    EXPECT_EQ(left.count, 6u);
}

TEST(Registry, ToJsonParsesAndContainsValues)
{
    obs::Registry reg;
    reg.add(reg.counter("runs"), 3);
    reg.set(reg.gauge("load"), 0.5);
    reg.observe(reg.histogram("lat", {1.0}), 0.25);

    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::JsonValue::parse(reg.toJson(), &doc, &error))
        << error;
    const util::JsonValue *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("runs"), nullptr);
    EXPECT_DOUBLE_EQ(counters->find("runs")->asNumber(), 3.0);
    const util::JsonValue *histograms = doc.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const util::JsonValue *lat = histograms->find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asNumber(), 1.0);
}

// ------------------------------------------------------------ recorder

TEST(Telemetry, RecordAndLastValue)
{
    obs::TelemetryRecorder rec("unit");
    rec.record("sweep", {{"energy", 10.0}, {"t", 2.0}});
    rec.record("sweep", {{"energy", 8.5}, {"t", 1.5}});
    rec.record("other", {{"x", 1.0}});

    EXPECT_EQ(rec.recordCount("sweep"), 2u);
    EXPECT_EQ(rec.recordCount("missing"), 0u);
    EXPECT_DOUBLE_EQ(rec.lastValue("sweep", "energy"), 8.5);
    EXPECT_TRUE(std::isnan(rec.lastValue("sweep", "nope")));
    auto names = rec.streamNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "other");
    EXPECT_EQ(names[1], "sweep");
}

TEST(Telemetry, JsonSinkRoundTrips)
{
    obs::TelemetryRecorder rec("roundtrip");
    rec.annotate("host", "ci");
    rec.record("s", {{"a", 1.5}, {"b", -2.0}});
    rec.record("s", {{"a", 3.25}});

    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::JsonValue::parse(rec.toJson(), &doc, &error))
        << error;
    EXPECT_EQ(doc.find("run")->asString(), "roundtrip");
    EXPECT_EQ(doc.find("meta")->find("host")->asString(), "ci");
    const util::JsonValue *stream = doc.find("streams")->find("s");
    ASSERT_NE(stream, nullptr);
    ASSERT_EQ(stream->items().size(), 2u);
    EXPECT_DOUBLE_EQ(stream->items()[0].find("a")->asNumber(), 1.5);
    EXPECT_DOUBLE_EQ(stream->items()[0].find("b")->asNumber(), -2.0);
    EXPECT_DOUBLE_EQ(stream->items()[1].find("a")->asNumber(), 3.25);
    // The registry snapshot rides along.
    EXPECT_NE(doc.find("metrics"), nullptr);
}

TEST(Telemetry, CsvSinkIsTidyLongFormat)
{
    obs::TelemetryRecorder rec("csv");
    rec.record("s", {{"a", 1.0}, {"b", 2.0}});
    rec.record("s", {{"a", 3.0}});

    std::istringstream csv(rec.toCsv());
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, "stream,record,field,value");
    int rows = 0;
    while (std::getline(csv, line)) {
        if (!line.empty())
            ++rows;
    }
    EXPECT_EQ(rows, 3); // one row per field
}

#ifndef RETSIM_DISABLE_TELEMETRY

TEST(Telemetry, ScopeInstallsAndWritesFile)
{
    std::string path = ::testing::TempDir() + "obs_scope_test.json";
    EXPECT_EQ(obs::activeRecorder(), nullptr);
    {
        obs::TelemetryScope scope(path, "scoped");
        ASSERT_TRUE(scope.active());
        ASSERT_NE(obs::activeRecorder(), nullptr);
        obs::activeRecorder()->record("s", {{"v", 9.0}});
    }
    EXPECT_EQ(obs::activeRecorder(), nullptr);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::JsonValue::parse(buf.str(), &doc, &error))
        << error;
    EXPECT_EQ(doc.find("run")->asString(), "scoped");
    EXPECT_DOUBLE_EQ(doc.find("streams")
                         ->find("s")
                         ->items()[0]
                         .find("v")
                         ->asNumber(),
                     9.0);
    std::remove(path.c_str());
}

TEST(Telemetry, DefaultScopeIsInert)
{
    obs::TelemetryScope scope;
    EXPECT_FALSE(scope.active());
    EXPECT_EQ(obs::activeRecorder(), nullptr);
}

#endif // RETSIM_DISABLE_TELEMETRY

} // namespace

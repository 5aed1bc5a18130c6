/**
 * @file
 * Unit tests for the util substrate: statistics accumulators,
 * quantization helpers, text tables, CLI parsing and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>

#include "util/cli.hh"
#include "util/fixed_point.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace {

using namespace retsim::util;

// ---------------------------------------------------------------- stats

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // population
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

// ---------------------------------------------------------- fixed point

TEST(FixedPoint, MaxUnsigned)
{
    EXPECT_EQ(maxUnsigned(1), 1u);
    EXPECT_EQ(maxUnsigned(8), 255u);
    EXPECT_EQ(maxUnsigned(16), 65535u);
}

TEST(FixedPoint, QuantizeUnsignedRoundsAndSaturates)
{
    EXPECT_EQ(quantizeUnsigned(-3.0, 8), 0u);
    EXPECT_EQ(quantizeUnsigned(0.4, 8), 0u);
    EXPECT_EQ(quantizeUnsigned(0.6, 8), 1u);
    EXPECT_EQ(quantizeUnsigned(254.6, 8), 255u);
    EXPECT_EQ(quantizeUnsigned(300.0, 8), 255u);
    EXPECT_EQ(quantizeUnsigned(1e12, 8), 255u);
}

TEST(FixedPoint, TruncateToInt)
{
    EXPECT_EQ(truncateToInt(-0.5), 0u);
    EXPECT_EQ(truncateToInt(0.999), 0u);
    EXPECT_EQ(truncateToInt(1.0), 1u);
    EXPECT_EQ(truncateToInt(15.99), 15u);
}

TEST(FixedPoint, FloorPow2)
{
    EXPECT_EQ(floorPow2(0), 0u);
    EXPECT_EQ(floorPow2(1), 1u);
    EXPECT_EQ(floorPow2(2), 2u);
    EXPECT_EQ(floorPow2(3), 2u);
    EXPECT_EQ(floorPow2(7), 4u);
    EXPECT_EQ(floorPow2(8), 8u);
    EXPECT_EQ(floorPow2(15), 8u);
    EXPECT_EQ(floorPow2(16), 16u);
}

TEST(FixedPoint, Pow2Helpers)
{
    EXPECT_TRUE(isPow2OrZero(0));
    EXPECT_TRUE(isPow2OrZero(8));
    EXPECT_FALSE(isPow2OrZero(12));
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(8), 3u);
}

TEST(FixedPoint, SatSub)
{
    EXPECT_EQ(satSub(5, 3), 2u);
    EXPECT_EQ(satSub(3, 5), 0u);
    EXPECT_EQ(satSub(0, 0), 0u);
}

// --------------------------------------------------------------- tables

TEST(TextTable, AlignmentAndAccess)
{
    TextTable t({"name", "value"});
    t.newRow().cell("alpha").cell(1.5, 2);
    t.newRow().cell("b").cell(std::int64_t{42});
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.at(0, 1), "1.50");
    EXPECT_EQ(t.at(1, 1), "42");

    std::ostringstream oss;
    t.print(oss, "demo");
    std::string out = oss.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
}

TEST(FormatFixed, Precision)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
}

// ------------------------------------------------------------------ cli

TEST(CliArgs, ParsesOptionsAndPositionals)
{
    const char *argv[] = {"prog", "--sweeps=100", "--verbose",
                          "input.pgm", "--ratio=0.5"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.getInt("sweeps", 1), 100);
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_DOUBLE_EQ(args.getDouble("ratio", 0.0), 0.5);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "input.pgm");
    EXPECT_EQ(args.programName(), "prog");
}

TEST(CliArgs, DefaultsWhenMissing)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, argv);
    EXPECT_EQ(args.getInt("sweeps", 7), 7);
    EXPECT_EQ(args.getString("name", "x"), "x");
    EXPECT_FALSE(args.has("anything"));
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    pool.parallelFor(100, [&](std::size_t i) { hits[i]++; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneIterations)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor(0, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(1, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(3);
    std::atomic<long> sum{0};
    pool.parallelFor(50, [&](std::size_t i) { sum += (long)i; });
    pool.parallelFor(50, [&](std::size_t i) { sum += (long)i; });
    EXPECT_EQ(sum.load(), 2 * (49 * 50 / 2));
}

// ----------------------------------------------------------------- json

TEST(Json, ParsesScalarsAndContainers)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(
        R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -3}})", &v,
        &error))
        << error;
    EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.5);
    const auto &items = v.find("b")->items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_TRUE(items[0].asBool());
    EXPECT_TRUE(items[1].isNull());
    EXPECT_EQ(items[2].asString(), "x\n");
    EXPECT_DOUBLE_EQ(v.find("c")->find("d")->asNumber(), -3.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInputWithLineNumber)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("{\"a\": 1,\n  2}", &v, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_FALSE(JsonValue::parse("[1, 2] trailing", &v, &error));
    EXPECT_FALSE(JsonValue::parse("", &v, &error));
    EXPECT_FALSE(JsonValue::parse("{\"a\": }", &v, &error));
}

TEST(Json, DumpParseRoundTrip)
{
    JsonValue obj = JsonValue::object();
    obj.set("name", JsonValue(std::string("retsim \"gate\"")));
    obj.set("value", JsonValue(0.1 + 0.2));
    JsonValue arr = JsonValue::array();
    arr.append(JsonValue(1.0));
    arr.append(JsonValue(false));
    obj.set("list", std::move(arr));

    for (int indent : {0, 2}) {
        JsonValue back;
        std::string error;
        ASSERT_TRUE(JsonValue::parse(obj.dump(indent), &back, &error))
            << error;
        EXPECT_EQ(back.find("name")->asString(), "retsim \"gate\"");
        // Numbers survive bit-exactly through dump/parse.
        EXPECT_EQ(back.find("value")->asNumber(), 0.1 + 0.2);
        EXPECT_FALSE(back.find("list")->items()[1].asBool());
    }
}

TEST(Json, SetOverwritesAndPreservesOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("z", JsonValue(1.0));
    obj.set("a", JsonValue(2.0));
    obj.set("z", JsonValue(3.0));
    ASSERT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "z");
    EXPECT_DOUBLE_EQ(obj.members()[0].second.asNumber(), 3.0);
    EXPECT_EQ(obj.members()[1].first, "a");
}

} // namespace

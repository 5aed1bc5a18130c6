/**
 * @file
 * Checkpoint/resume subsystem tests: the byte-buffer and CRC container
 * primitives, RNG and sampler state round-trips, SolverCheckpoint
 * serialization, and the replay contract itself — killing a solver at
 * a checkpoint boundary and resuming must be bit-identical to the
 * uninterrupted run, across scan modes, the striped decomposition and
 * every runnable SIMD backend.
 */

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/rsu_config.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "img/image.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkpoint.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "rng/lfsr.hh"
#include "rng/rng.hh"
#include "simd/kernels.hh"
#include "util/checkpoint.hh"

namespace {

using namespace retsim;

// ------------------------------------------------------------------
// ByteWriter / ByteReader

TEST(ByteBuffer, RoundTripsEveryFieldType)
{
    util::ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.f64(-0.125);
    w.str("solver");
    std::vector<std::uint64_t> words = {1, 2, 0xffffffffffffffffULL};
    w.words(words);

    util::ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.f64(), -0.125);
    EXPECT_EQ(r.str(), "solver");
    EXPECT_EQ(r.words(), words);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteBuffer, TruncationLatchesFailure)
{
    const unsigned char two[] = {0x01, 0x02};
    util::ByteReader r(two);
    EXPECT_EQ(r.u64(), 0u); // needs 8, only 2 available
    EXPECT_FALSE(r.ok());
    // Failure latches: even an in-range read now yields zero.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(ByteBuffer, HostileWordCountIsRejectedBeforeAllocation)
{
    util::ByteWriter w;
    w.u64(0xffffffffffffffffULL); // length prefix: ~2^64 words
    w.u64(7);                     // but only one actual word
    util::ByteReader r(w.bytes());
    EXPECT_TRUE(r.words().empty());
    EXPECT_FALSE(r.ok());
}

TEST(ByteBuffer, Crc32MatchesIeeeCheckValue)
{
    const std::string check = "123456789";
    EXPECT_EQ(util::crc32(std::span<const unsigned char>(
                  reinterpret_cast<const unsigned char *>(check.data()),
                  check.size())),
              0xCBF43926u);
}

// ------------------------------------------------------------------
// Snapshot container

class SnapshotContainerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per case: ctest runs cases as separate
        // processes in parallel, and TearDown removes the directory.
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("retsim_checkpoint_test_" + std::string(info->name()) +
                "_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "snap.bin").string();
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::vector<unsigned char>
    payload() const
    {
        std::vector<unsigned char> p(64);
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = static_cast<unsigned char>(i * 7 + 1);
        return p;
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(SnapshotContainerTest, RoundTrips)
{
    std::string error;
    ASSERT_TRUE(util::writeSnapshotFile(path_, "SOLVERCP", 3, payload(),
                                        &error))
        << error;
    std::vector<unsigned char> back;
    ASSERT_TRUE(
        util::readSnapshotFile(path_, "SOLVERCP", 3, &back, &error))
        << error;
    EXPECT_EQ(back, payload());
    // No stray temp file left behind by the atomic write.
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(SnapshotContainerTest, RejectsBitFlip)
{
    std::string error;
    ASSERT_TRUE(util::writeSnapshotFile(path_, "SOLVERCP", 1, payload(),
                                        &error));
    // Flip one payload byte (past the fixed-size header).
    std::fstream f(path_,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size - 5);
    char c;
    f.seekg(size - 5);
    f.get(c);
    f.seekp(size - 5);
    f.put(static_cast<char>(c ^ 0x40));
    f.close();

    std::vector<unsigned char> back;
    EXPECT_FALSE(
        util::readSnapshotFile(path_, "SOLVERCP", 1, &back, &error));
    EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
    EXPECT_NE(error.find(path_), std::string::npos) << error;
}

TEST_F(SnapshotContainerTest, RejectsTruncation)
{
    std::string error;
    ASSERT_TRUE(util::writeSnapshotFile(path_, "SOLVERCP", 1, payload(),
                                        &error));
    const auto size = std::filesystem::file_size(path_);
    std::filesystem::resize_file(path_, size - 10);
    std::vector<unsigned char> back;
    EXPECT_FALSE(
        util::readSnapshotFile(path_, "SOLVERCP", 1, &back, &error));
    EXPECT_NE(error.find("length mismatch"), std::string::npos)
        << error;
}

TEST_F(SnapshotContainerTest, RejectsKindAndVersionMismatch)
{
    std::string error;
    ASSERT_TRUE(util::writeSnapshotFile(path_, "SOLVERCP", 2, payload(),
                                        &error));
    std::vector<unsigned char> back;
    EXPECT_FALSE(
        util::readSnapshotFile(path_, "OTHERKND", 2, &back, &error));
    EXPECT_NE(error.find("wrong snapshot kind"), std::string::npos)
        << error;
    EXPECT_FALSE(
        util::readSnapshotFile(path_, "SOLVERCP", 3, &back, &error));
    EXPECT_NE(error.find("version mismatch"), std::string::npos)
        << error;
}

TEST_F(SnapshotContainerTest, RejectsGarbageAndMissingFiles)
{
    std::string error;
    std::vector<unsigned char> back;
    EXPECT_FALSE(util::readSnapshotFile((dir_ / "absent.bin").string(),
                                        "SOLVERCP", 1, &back, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

    std::ofstream(path_, std::ios::binary) << "this is not a snapshot";
    EXPECT_FALSE(
        util::readSnapshotFile(path_, "SOLVERCP", 1, &back, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

// ------------------------------------------------------------------
// RNG state round-trips

void
expectRngRoundTrip(rng::Rng &original, rng::Rng &fresh)
{
    for (int i = 0; i < 10; ++i)
        original.next64(); // advance off the seed state
    std::vector<std::uint64_t> state;
    original.saveState(state);
    ASSERT_TRUE(fresh.loadState(state));
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(fresh.next64(), original.next64()) << "draw " << i;
}

TEST(RngState, SplitMix64RoundTrips)
{
    rng::SplitMix64 a(7), b(999);
    expectRngRoundTrip(a, b);
}

TEST(RngState, Xoshiro256RoundTrips)
{
    rng::Xoshiro256 a(7), b(999);
    expectRngRoundTrip(a, b);
}

TEST(RngState, Mt19937RoundTrips)
{
    rng::Mt19937 a(7), b(999);
    expectRngRoundTrip(a, b);
}

TEST(RngState, LfsrRoundTripsAndRejectsZero)
{
    rng::Lfsr a = rng::Lfsr::makeLfsr19(7);
    rng::Lfsr b = rng::Lfsr::makeLfsr19(999);
    expectRngRoundTrip(a, b);

    std::vector<std::uint64_t> zero = {0};
    EXPECT_FALSE(b.loadState(zero)); // all-zero register locks up
}

TEST(RngState, WrongWordCountIsRejected)
{
    rng::Xoshiro256 g(5);
    std::vector<std::uint64_t> bad = {1, 2}; // needs 4 words
    EXPECT_FALSE(g.loadState(bad));
    rng::Mt19937 m(5);
    EXPECT_FALSE(m.loadState(bad));
}

TEST(RngState, Mt19937RejectsTrailingWords)
{
    // loadState accepts whatever word count this standard library's
    // textual engine form uses, but words beyond it mean the payload
    // came from an incompatible layout and must not be half-applied.
    rng::Mt19937 a(7), b(999);
    std::vector<std::uint64_t> state;
    a.saveState(state);
    state.push_back(12345);
    EXPECT_FALSE(b.loadState(state));
}

// ------------------------------------------------------------------
// Sampler state round-trips

void
expectSamplerRoundTrip(mrf::LabelSampler &original,
                       mrf::LabelSampler &fresh)
{
    const std::vector<float> energies = {0.5f, 2.0f, 1.25f, 4.0f};
    rng::Xoshiro256 gen_a(31), gen_b(31);
    for (int i = 0; i < 25; ++i)
        original.sample(energies, 2.0, 0, gen_a);

    std::vector<std::uint64_t> state;
    original.saveState(state);
    ASSERT_TRUE(fresh.loadState(state));

    // The restored sampler must continue the original's exact
    // sequence (counters, cached temperatures, owned entropy).  The
    // external generator's position is restored the same way the
    // solver restores its own stream at resume time.
    std::vector<std::uint64_t> gen_state;
    gen_a.saveState(gen_state);
    ASSERT_TRUE(gen_b.loadState(gen_state));
    for (int i = 0; i < 25; ++i) {
        EXPECT_EQ(fresh.sample(energies, 1.5, 1, gen_b),
                  original.sample(energies, 1.5, 1, gen_a))
            << "draw " << i;
    }
    std::vector<std::uint64_t> end_a, end_b;
    original.saveState(end_a);
    fresh.saveState(end_b);
    EXPECT_EQ(end_a, end_b);
}

TEST(SamplerState, RsuSamplerRoundTrips)
{
    core::RsuSampler a(core::RsuConfig::newDesign());
    core::RsuSampler b(core::RsuConfig::newDesign());
    expectSamplerRoundTrip(a, b);
}

/** RsuSampler state words: four counters, then the conversion and
 *  rate-table temperatures. */
std::vector<std::uint64_t>
rsuState(double conversion_t, double rate_table_t)
{
    return {25, 1, 2, 1, std::bit_cast<std::uint64_t>(conversion_t),
            std::bit_cast<std::uint64_t>(rate_table_t)};
}

TEST(SamplerState, RsuSamplerRejectsTemperatureWordsSaveCannotWrite)
{
    const core::RsuConfig quantized = core::RsuConfig::newDesign();
    core::RsuConfig float_energy = quantized;
    float_energy.floatEnergy = true;

    // saveState() writes -1 (never converted) or a positive
    // temperature; zero, negative and NaN words are corrupt.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double bad : {0.0, -0.0, -2.0, nan}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(
            core::RsuSampler(quantized).loadState(rsuState(bad, -1.0)));
        EXPECT_FALSE(
            core::RsuSampler(quantized).loadState(rsuState(2.0, bad)));
    }
    // Float energies never build a rate table, so a snapshot that
    // claims one is corrupt too.
    EXPECT_FALSE(
        core::RsuSampler(float_energy).loadState(rsuState(2.0, 2.0)));

    EXPECT_TRUE(
        core::RsuSampler(quantized).loadState(rsuState(-1.0, -1.0)));
    EXPECT_TRUE(
        core::RsuSampler(quantized).loadState(rsuState(2.0, 2.0)));
    EXPECT_TRUE(
        core::RsuSampler(float_energy).loadState(rsuState(2.0, -1.0)));
}

TEST(SamplerState, SoftwareSamplerRoundTrips)
{
    core::SoftwareSampler a, b;
    expectSamplerRoundTrip(a, b);
}

TEST(SamplerState, CdfLutSamplerRoundTrips)
{
    core::CdfLutSampler a(std::make_unique<rng::Mt19937>(99));
    core::CdfLutSampler b(std::make_unique<rng::Mt19937>(1234));
    expectSamplerRoundTrip(a, b);
}

// ------------------------------------------------------------------
// SolverCheckpoint serialization

mrf::SolverCheckpoint
sampleCheckpoint()
{
    mrf::SolverCheckpoint cp;
    cp.solverKind = "checkerboard";
    cp.samplerName = "rsu-g";
    cp.seed = 42;
    cp.t0 = 24.0;
    cp.tEnd = 0.8;
    cp.sweepsTotal = 16;
    cp.width = 4;
    cp.height = 3;
    cp.numLabels = 5;
    cp.stripes = 2;
    cp.randomScan = true;
    cp.sweepsDone = 7;
    cp.labels = img::LabelMap(4, 3, 0);
    for (int i = 0; i < 12; ++i)
        cp.labels.data()[i] = i % 5;
    cp.solverGen = {1, 2, 3, 4};
    cp.scanOrder = {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
    cp.samplerState = {100, 200};
    cp.stripeSamplerState = {{7}, {8, 9}};
    cp.trace.pixelUpdates = 84;
    cp.trace.labelChanges = 31;
    cp.trace.energyPerSweep = {9.0, 8.5, 7.0};
    cp.trace.temperaturePerSweep = {24.0, 20.0, 16.0};
    return cp;
}

TEST(SolverCheckpointFormat, SerializeDeserializeRoundTrips)
{
    const mrf::SolverCheckpoint cp = sampleCheckpoint();
    const std::vector<unsigned char> bytes = cp.serialize();

    mrf::SolverCheckpoint back;
    std::string error;
    ASSERT_TRUE(mrf::SolverCheckpoint::deserialize(bytes, &back,
                                                   &error))
        << error;
    // Byte-level identity of the re-serialization covers every field.
    EXPECT_EQ(back.serialize(), bytes);
    EXPECT_EQ(back.samplerName, "rsu-g");
    EXPECT_EQ(back.sweepsDone, 7);
    EXPECT_EQ(back.stripeSamplerState.size(), 2u);
}

TEST(SolverCheckpointFormat, RejectsOutOfRangeLabel)
{
    mrf::SolverCheckpoint cp = sampleCheckpoint();
    cp.labels.data()[5] = 5; // numLabels is 5, valid range [0, 5)
    mrf::SolverCheckpoint back;
    std::string error;
    EXPECT_FALSE(mrf::SolverCheckpoint::deserialize(cp.serialize(),
                                                    &back, &error));
    EXPECT_EQ(error, "label value out of range");
}

TEST(SolverCheckpointFormat, RejectsTrailingBytes)
{
    std::vector<unsigned char> bytes = sampleCheckpoint().serialize();
    bytes.push_back(0x00);
    mrf::SolverCheckpoint back;
    std::string error;
    EXPECT_FALSE(
        mrf::SolverCheckpoint::deserialize(bytes, &back, &error));
    EXPECT_EQ(error, "trailing bytes after snapshot payload");
}

TEST(SolverCheckpointFormat, RejectsTruncation)
{
    std::vector<unsigned char> bytes = sampleCheckpoint().serialize();
    // Every proper prefix must fail loudly, never crash or accept.
    for (std::size_t cut : {std::size_t{0}, std::size_t{4},
                            bytes.size() / 2, bytes.size() - 1}) {
        mrf::SolverCheckpoint back;
        std::string error;
        EXPECT_FALSE(mrf::SolverCheckpoint::deserialize(
            std::span<const unsigned char>(bytes.data(), cut), &back,
            &error))
            << "prefix of " << cut << " bytes";
        EXPECT_FALSE(error.empty());
    }
}

TEST(SolverCheckpointFormat, RejectsSweepCounterPastSchedule)
{
    mrf::SolverCheckpoint cp = sampleCheckpoint();
    cp.sweepsDone = cp.sweepsTotal + 1;
    mrf::SolverCheckpoint back;
    std::string error;
    EXPECT_FALSE(mrf::SolverCheckpoint::deserialize(cp.serialize(),
                                                    &back, &error));
    EXPECT_EQ(error, "sweep counter outside the annealing schedule");
}

TEST(SolverCheckpointFormat, RejectsShortScanOrder)
{
    // A short scan order would make the resumed Fisher-Yates shuffle
    // write past the end of the restored vector.
    mrf::SolverCheckpoint cp = sampleCheckpoint();
    cp.scanOrder.resize(cp.scanOrder.size() - 1);
    mrf::SolverCheckpoint back;
    std::string error;
    EXPECT_FALSE(mrf::SolverCheckpoint::deserialize(cp.serialize(),
                                                    &back, &error));
    EXPECT_EQ(error, "scan-order length disagrees with dimensions");
}

TEST(SolverCheckpointFormat, RejectsScanOrderEntryOutOfRange)
{
    // Entries are used as pixel indices; out-of-range ones would read
    // outside the label map.
    mrf::SolverCheckpoint cp = sampleCheckpoint();
    cp.scanOrder[3] = static_cast<std::uint32_t>(cp.width * cp.height);
    mrf::SolverCheckpoint back;
    std::string error;
    EXPECT_FALSE(mrf::SolverCheckpoint::deserialize(cp.serialize(),
                                                    &back, &error));
    EXPECT_EQ(error, "scan-order entry out of range");
}

TEST(SolverCheckpointFormat, AcceptsEmptyScanOrder)
{
    // Raster-scan snapshots carry no scan order at all.
    mrf::SolverCheckpoint cp = sampleCheckpoint();
    cp.scanOrder.clear();
    mrf::SolverCheckpoint back;
    std::string error;
    EXPECT_TRUE(mrf::SolverCheckpoint::deserialize(cp.serialize(),
                                                   &back, &error))
        << error;
    EXPECT_TRUE(back.scanOrder.empty());
}

// ------------------------------------------------------------------
// Kill-and-resume replay contract

/** Small smooth-labeling problem with a distinctive cost pattern. */
mrf::MrfProblem
makeProblem(int width = 12, int height = 10, int num_labels = 5)
{
    mrf::MrfProblem p(
        width, height,
        mrf::PairwiseTable(mrf::DistanceKind::Absolute, num_labels,
                           2.0),
        "checkpoint-test");
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            for (int l = 0; l < num_labels; ++l)
                p.singleton(x, y, l) = static_cast<float>(
                    ((x * 7 + y * 13 + l * 29) % 17) * 0.5);
    return p;
}

struct ReplayRun
{
    bool haveMid = false;
    mrf::SolverCheckpoint mid;
    std::vector<unsigned char> finalBytes;
};

enum class Mode { Gibbs, GibbsRandomScan, Checkerboard, Striped };

mrf::SolverConfig
replayConfig(Mode mode, int sweeps)
{
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = 16.0;
    cfg.annealing.tEnd = 0.7;
    cfg.annealing.sweeps = sweeps;
    cfg.seed = 77;
    if (mode == Mode::GibbsRandomScan)
        cfg.randomScan = true;
    if (mode == Mode::Striped) {
        cfg.stripes = 3;
        cfg.threads = 2;
    }
    return cfg;
}

ReplayRun
runWithSink(Mode mode, mrf::SolverConfig cfg,
            const mrf::MrfProblem &problem,
            mrf::LabelSampler &sampler, int kill_at)
{
    ReplayRun out;
    cfg.checkpointEvery = kill_at;
    cfg.checkpointSink = [&](const mrf::SolverCheckpoint &cp) {
        if (cp.sweepsDone == kill_at) {
            out.mid = cp;
            out.haveMid = true;
        }
        if (cp.sweepsDone == cp.sweepsTotal)
            out.finalBytes = cp.serialize();
    };
    if (mode == Mode::Checkerboard || mode == Mode::Striped) {
        mrf::CheckerboardGibbsSolver solver(cfg);
        solver.run(problem, sampler);
    } else {
        mrf::GibbsSolver solver(cfg);
        solver.run(problem, sampler);
    }
    return out;
}

/** The tentpole invariant: kill at sweep K, resume, and the final
 *  snapshot (labels, RNG words, sampler counters, trace) is
 *  byte-identical to the uninterrupted run's. */
void
expectKillResumeIdentity(Mode mode)
{
    const int sweeps = 10, kill_at = 4;
    const mrf::MrfProblem problem = makeProblem();

    core::SoftwareSampler s1;
    ReplayRun whole = runWithSink(mode, replayConfig(mode, sweeps),
                                  problem, s1, kill_at);
    ASSERT_TRUE(whole.haveMid);
    ASSERT_FALSE(whole.finalBytes.empty());

    // Round-trip the mid snapshot through bytes like the file path
    // does, then resume with a *fresh* sampler.
    auto restored = std::make_shared<mrf::SolverCheckpoint>();
    std::string error;
    ASSERT_TRUE(mrf::SolverCheckpoint::deserialize(
        whole.mid.serialize(), restored.get(), &error))
        << error;

    mrf::SolverConfig cfg2 = replayConfig(mode, sweeps);
    cfg2.resume = std::move(restored);
    core::SoftwareSampler s2;
    ReplayRun resumed =
        runWithSink(mode, cfg2, problem, s2, kill_at);
    EXPECT_EQ(resumed.finalBytes, whole.finalBytes);
}

TEST(KillAndResume, RasterGibbsIsBitIdentical)
{
    expectKillResumeIdentity(Mode::Gibbs);
}

TEST(KillAndResume, RandomScanGibbsIsBitIdentical)
{
    expectKillResumeIdentity(Mode::GibbsRandomScan);
}

TEST(KillAndResume, SerialCheckerboardIsBitIdentical)
{
    expectKillResumeIdentity(Mode::Checkerboard);
}

TEST(KillAndResume, StripedCheckerboardIsBitIdentical)
{
    expectKillResumeIdentity(Mode::Striped);
}

TEST(KillAndResume, HoldsOnEveryRunnableSimdBackend)
{
    const simd::Backend active = simd::activeBackend();
    for (simd::Backend b : simd::runnableBackends()) {
        simd::setBackend(simd::backendName(b));
        SCOPED_TRACE(simd::backendName(b));
        expectKillResumeIdentity(Mode::Checkerboard);
        expectKillResumeIdentity(Mode::Striped);
    }
    simd::setBackend(simd::backendName(active));
}

TEST(KillAndResume, RsuSamplerStateSurvivesResume)
{
    // Same contract with the paper's RSU-G sampler, whose state
    // includes cached temperatures and instrumentation counters.
    const int sweeps = 8, kill_at = 3;
    const mrf::MrfProblem problem = makeProblem();

    core::RsuSampler s1(core::RsuConfig::newDesign());
    ReplayRun whole =
        runWithSink(Mode::Checkerboard,
                    replayConfig(Mode::Checkerboard, sweeps), problem,
                    s1, kill_at);
    ASSERT_TRUE(whole.haveMid);

    auto restored = std::make_shared<mrf::SolverCheckpoint>();
    std::string error;
    ASSERT_TRUE(mrf::SolverCheckpoint::deserialize(
        whole.mid.serialize(), restored.get(), &error));

    mrf::SolverConfig cfg2 = replayConfig(Mode::Checkerboard, sweeps);
    cfg2.resume = std::move(restored);
    core::RsuSampler s2(core::RsuConfig::newDesign());
    ReplayRun resumed = runWithSink(Mode::Checkerboard, cfg2, problem,
                                    s2, kill_at);
    EXPECT_EQ(resumed.finalBytes, whole.finalBytes);
}

TEST(KillAndResume, RasterRsuResumesSnapshotWithoutRateTable)
{
    // The raster solver's RSU draw builds the per-temperature rate
    // table, so its snapshots carry that temperature.  Snapshots
    // without one (word -1, as written before the raster draw used
    // the table) must resume to the same bytes: the table is derived
    // data and the first draw rebuilds it.
    const int sweeps = 8, kill_at = 3;
    const mrf::MrfProblem problem = makeProblem();
    core::RsuSampler s1(core::RsuConfig::newDesign());
    ReplayRun whole =
        runWithSink(Mode::Gibbs, replayConfig(Mode::Gibbs, sweeps),
                    problem, s1, kill_at);
    ASSERT_TRUE(whole.haveMid);
    ASSERT_EQ(whole.mid.samplerState.size(), 6u);
    EXPECT_GT(std::bit_cast<double>(whole.mid.samplerState[5]), 0.0);

    for (bool legacy : {false, true}) {
        SCOPED_TRACE(legacy ? "rate word -1" : "rate word as saved");
        auto restored = std::make_shared<mrf::SolverCheckpoint>();
        std::string error;
        ASSERT_TRUE(mrf::SolverCheckpoint::deserialize(
            whole.mid.serialize(), restored.get(), &error))
            << error;
        if (legacy)
            restored->samplerState[5] =
                std::bit_cast<std::uint64_t>(-1.0);
        mrf::SolverConfig cfg2 = replayConfig(Mode::Gibbs, sweeps);
        cfg2.resume = std::move(restored);
        core::RsuSampler s2(core::RsuConfig::newDesign());
        ReplayRun resumed =
            runWithSink(Mode::Gibbs, cfg2, problem, s2, kill_at);
        EXPECT_EQ(resumed.finalBytes, whole.finalBytes);
    }
}

TEST(KillAndResume, ResumingACompletedRunReturnsItsLabels)
{
    const int sweeps = 6;
    const mrf::MrfProblem problem = makeProblem();
    core::SoftwareSampler s1;
    mrf::SolverConfig cfg = replayConfig(Mode::Gibbs, sweeps);
    mrf::SolverCheckpoint last;
    cfg.checkpointEvery = sweeps; // only the final snapshot
    cfg.checkpointSink = [&](const mrf::SolverCheckpoint &cp) {
        last = cp;
    };
    mrf::GibbsSolver solver(cfg);
    img::LabelMap direct = solver.run(problem, s1);
    ASSERT_EQ(last.sweepsDone, sweeps);

    mrf::SolverConfig cfg2 = replayConfig(Mode::Gibbs, sweeps);
    cfg2.resume = std::make_shared<mrf::SolverCheckpoint>(last);
    cfg2.checkpointEvery = sweeps;
    cfg2.checkpointSink = [](const mrf::SolverCheckpoint &) {};
    core::SoftwareSampler s2;
    mrf::GibbsSolver again(cfg2);
    img::LabelMap replayed = again.run(problem, s2);
    EXPECT_EQ(replayed.data(), direct.data());
}

// ------------------------------------------------------------------
// Resume-mismatch and misconfiguration diagnostics

using ::testing::ExitedWithCode;

TEST(ResumeValidationDeathTest, WrongSeedIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    core::SoftwareSampler s1;
    ReplayRun whole = runWithSink(Mode::Gibbs,
                                  replayConfig(Mode::Gibbs, 10),
                                  problem, s1, 4);
    ASSERT_TRUE(whole.haveMid);

    mrf::SolverConfig cfg = replayConfig(Mode::Gibbs, 10);
    cfg.seed = 12345; // not the snapshot's seed
    cfg.resume = std::make_shared<mrf::SolverCheckpoint>(whole.mid);
    core::SoftwareSampler s2;
    mrf::GibbsSolver solver(cfg);
    EXPECT_EXIT(solver.run(problem, s2), ExitedWithCode(1),
                "resume snapshot seed");
}

TEST(ResumeValidationDeathTest, WrongSolverKindIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    core::SoftwareSampler s1;
    ReplayRun whole = runWithSink(Mode::Gibbs,
                                  replayConfig(Mode::Gibbs, 10),
                                  problem, s1, 4);
    ASSERT_TRUE(whole.haveMid);

    // A raster-Gibbs snapshot resumed into the checkerboard solver.
    mrf::SolverConfig cfg = replayConfig(Mode::Checkerboard, 10);
    cfg.resume = std::make_shared<mrf::SolverCheckpoint>(whole.mid);
    core::SoftwareSampler s2;
    mrf::CheckerboardGibbsSolver solver(cfg);
    EXPECT_EXIT(solver.run(problem, s2), ExitedWithCode(1),
                "taken by solver 'gibbs'");
}

TEST(ResumeValidationDeathTest, WrongSamplerIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    core::SoftwareSampler s1;
    ReplayRun whole = runWithSink(Mode::Gibbs,
                                  replayConfig(Mode::Gibbs, 10),
                                  problem, s1, 4);
    ASSERT_TRUE(whole.haveMid);

    mrf::SolverConfig cfg = replayConfig(Mode::Gibbs, 10);
    cfg.resume = std::make_shared<mrf::SolverCheckpoint>(whole.mid);
    core::RsuSampler other(core::RsuConfig::newDesign());
    mrf::GibbsSolver solver(cfg);
    EXPECT_EXIT(solver.run(problem, other), ExitedWithCode(1),
                "resume snapshot sampler");
}

TEST(ResumeValidationDeathTest, CraftedRsuRateTableWordIsFatal)
{
    // A float-energy RSU never builds a rate table (its snapshots
    // carry -1 there); a crafted word naming a temperature must fail
    // the resume with a diagnostic, not build a table from a LUT the
    // sampler does not have.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    core::RsuConfig rsu = core::RsuConfig::newDesign();
    rsu.floatEnergy = true;
    core::RsuSampler s1(rsu);
    ReplayRun whole = runWithSink(Mode::Gibbs,
                                  replayConfig(Mode::Gibbs, 10),
                                  problem, s1, 4);
    ASSERT_TRUE(whole.haveMid);
    ASSERT_EQ(whole.mid.samplerState.size(), 6u);

    auto crafted = std::make_shared<mrf::SolverCheckpoint>(whole.mid);
    crafted->samplerState[5] = std::bit_cast<std::uint64_t>(2.0);
    mrf::SolverConfig cfg = replayConfig(Mode::Gibbs, 10);
    cfg.resume = std::move(crafted);
    core::RsuSampler s2(rsu);
    mrf::GibbsSolver solver(cfg);
    EXPECT_EXIT(solver.run(problem, s2), ExitedWithCode(1),
                "sampler state does not fit");
}

TEST(ResumeValidationDeathTest, WrongProblemSizeIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    core::SoftwareSampler s1;
    ReplayRun whole = runWithSink(Mode::Gibbs,
                                  replayConfig(Mode::Gibbs, 10),
                                  problem, s1, 4);
    ASSERT_TRUE(whole.haveMid);

    const mrf::MrfProblem wider = makeProblem(16, 10);
    mrf::SolverConfig cfg = replayConfig(Mode::Gibbs, 10);
    cfg.resume = std::make_shared<mrf::SolverCheckpoint>(whole.mid);
    core::SoftwareSampler s2;
    mrf::GibbsSolver solver(cfg);
    EXPECT_EXIT(solver.run(wider, s2), ExitedWithCode(1),
                "resume snapshot is 12x10");
}

TEST(ResumeValidationDeathTest, CheckpointingWithoutDestinationIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    core::SoftwareSampler sampler;
    mrf::SolverConfig cfg = replayConfig(Mode::Gibbs, 4);
    cfg.checkpointEvery = 2; // no path, no sink
    mrf::GibbsSolver solver(cfg);
    EXPECT_EXIT(solver.run(problem, sampler), ExitedWithCode(1),
                "checkpointEvery is set but neither");
}

// ------------------------------------------------------------------
// File-level kill-and-resume through the real writer

TEST(KillAndResume, SurvivesTheOnDiskContainer)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "retsim_checkpoint_file_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "run.ckpt").string();

    const int sweeps = 10, kill_at = 5;
    const mrf::MrfProblem problem = makeProblem();

    // Uninterrupted reference.
    core::SoftwareSampler s1;
    ReplayRun whole = runWithSink(Mode::Striped,
                                  replayConfig(Mode::Striped, sweeps),
                                  problem, s1, kill_at);
    ASSERT_TRUE(whole.haveMid);

    // "Crashed" run: real file write at the kill point.
    std::string error;
    ASSERT_TRUE(whole.mid.writeFile(path, &error)) << error;

    auto restored = std::make_shared<mrf::SolverCheckpoint>();
    ASSERT_TRUE(
        mrf::SolverCheckpoint::readFile(path, restored.get(), &error))
        << error;

    mrf::SolverConfig cfg2 = replayConfig(Mode::Striped, sweeps);
    cfg2.resume = std::move(restored);
    core::SoftwareSampler s2;
    ReplayRun resumed =
        runWithSink(Mode::Striped, cfg2, problem, s2, kill_at);
    EXPECT_EQ(resumed.finalBytes, whole.finalBytes);

    std::filesystem::remove_all(dir);
}

} // namespace

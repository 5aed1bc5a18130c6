/**
 * @file
 * Sharded-solver layer tests: TilePartition edge cases (1-row tiles,
 * more shards than stripes, non-divisible heights, halo indexing at
 * the grid boundary), partition-independence of the per-stripe RNG
 * stream keys, frame round-trips over a socketpair, and the headline
 * equivalence contract on the loopback transport — a run sharded N
 * ways is byte-identical (labels, trace, final snapshot) to the
 * serial striped run at several intra-rank thread counts, and a
 * striped snapshot resumes across ranks and back.
 * Socket-transport equivalence and the crash drill live in
 * tools/shard_check (forking inside the gtest process is off the
 * table: the suite is multi-threaded).
 */

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/sampler_software.hh"
#include "img/image.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkerboard_detail.hh"
#include "mrf/checkpoint.hh"
#include "mrf/problem.hh"
#include "obs/metrics.hh"
#include "shard/payload_codec.hh"
#include "shard/sharded_solver.hh"
#include "shard/tile_partition.hh"
#include "shard/transport.hh"
#include "util/checkpoint.hh"
#include "util/framing.hh"

namespace {

using namespace retsim;

// ------------------------------------------------------------------
// TilePartition

/** Structural invariants every partition must satisfy: stripe-aligned
 *  contiguous coverage, consistent inverses, correct halo owners. */
void
expectWellFormed(const shard::TilePartition &p)
{
    const int H = p.height(), S = p.stripes(), N = p.shards();
    int stripe = 0, row = 0;
    for (int j = 0; j < N; ++j) {
        EXPECT_EQ(p.stripeBegin(j), stripe) << "shard " << j;
        EXPECT_LE(p.stripeBegin(j), p.stripeEnd(j));
        stripe = p.stripeEnd(j);
        EXPECT_EQ(p.rowBegin(j),
                  mrf::detail::stripeRowStart(p.stripeBegin(j), H, S));
        EXPECT_EQ(p.rowEnd(j),
                  mrf::detail::stripeRowStart(p.stripeEnd(j), H, S));
        EXPECT_EQ(p.rowBegin(j), row);
        row = p.rowEnd(j);
        EXPECT_EQ(p.empty(j), p.rowBegin(j) == p.rowEnd(j));
    }
    EXPECT_EQ(stripe, S) << "stripes not fully covered";
    EXPECT_EQ(row, H) << "rows not fully covered";

    for (int y = 0; y < H; ++y) {
        const int k = p.stripeOfRow(y);
        ASSERT_GE(k, 0);
        ASSERT_LT(k, S);
        EXPECT_GE(y, mrf::detail::stripeRowStart(k, H, S));
        EXPECT_LT(y, mrf::detail::stripeRowStart(k + 1, H, S));
        const int j = p.ownerOfRow(y);
        ASSERT_GE(j, 0);
        ASSERT_LT(j, N);
        EXPECT_GE(y, p.rowBegin(j));
        EXPECT_LT(y, p.rowEnd(j));
    }

    for (int j = 0; j < N; ++j) {
        if (p.empty(j)) {
            EXPECT_EQ(p.neighborAbove(j), -1);
            EXPECT_EQ(p.neighborBelow(j), -1);
            continue;
        }
        if (p.rowBegin(j) == 0)
            EXPECT_EQ(p.neighborAbove(j), -1);
        else
            EXPECT_EQ(p.neighborAbove(j),
                      p.ownerOfRow(p.rowBegin(j) - 1));
        if (p.rowEnd(j) == H)
            EXPECT_EQ(p.neighborBelow(j), -1);
        else
            EXPECT_EQ(p.neighborBelow(j), p.ownerOfRow(p.rowEnd(j)));
    }
}

TEST(TilePartition, OneRowTilesChainTheirHalos)
{
    // height == stripes == shards: every tile is a single row, every
    // interior tile has both halo neighbors.
    shard::TilePartition p(6, 6, 6);
    expectWellFormed(p);
    for (int j = 0; j < 6; ++j) {
        EXPECT_EQ(p.rowBegin(j), j);
        EXPECT_EQ(p.rowEnd(j), j + 1);
        EXPECT_EQ(p.neighborAbove(j), j == 0 ? -1 : j - 1);
        EXPECT_EQ(p.neighborBelow(j), j == 5 ? -1 : j + 1);
    }
}

TEST(TilePartition, MoreShardsThanStripesLeavesSurplusEmpty)
{
    shard::TilePartition p(5, 3, 5);
    expectWellFormed(p);
    int nonEmpty = 0;
    for (int j = 0; j < 5; ++j)
        nonEmpty += p.empty(j) ? 0 : 1;
    EXPECT_EQ(nonEmpty, 3);
}

TEST(TilePartition, NonDivisibleHeightsStayWellFormed)
{
    for (int height : {1, 2, 7, 13, 48, 97})
        for (int stripes : {1, 2, 3, 5, 8, 16}) {
            if (stripes > height)
                continue;
            for (int shards : {1, 2, 3, 4, 7, 19}) {
                SCOPED_TRACE("h=" + std::to_string(height) +
                             " S=" + std::to_string(stripes) +
                             " N=" + std::to_string(shards));
                expectWellFormed(
                    shard::TilePartition(height, stripes, shards));
            }
        }
}

TEST(TilePartition, HaloIndexingAtGridBoundary)
{
    shard::TilePartition p(48, 8, 3);
    expectWellFormed(p);
    // Top tile has no upper ghost, bottom tile no lower ghost.
    EXPECT_EQ(p.neighborAbove(0), -1);
    EXPECT_EQ(p.neighborBelow(2), -1);
    // Interior boundaries resolve to the adjacent rank.
    EXPECT_EQ(p.neighborBelow(0), 1);
    EXPECT_EQ(p.neighborAbove(1), 0);
    EXPECT_EQ(p.neighborBelow(1), 2);
    EXPECT_EQ(p.neighborAbove(2), 1);
}

TEST(TilePartition, StripeStreamKeysAreShardCountIndependent)
{
    // The determinism argument: stripe k's RNG stream key is a
    // function of the GLOBAL stripe id only, and every shard count
    // assigns the same global ids, so the executed streams are
    // identical no matter how many shards run them.
    const int height = 48, stripes = 8;
    const std::uint64_t seed = 0x5eed;
    std::vector<std::uint64_t> serialKeys;
    for (int k = 0; k < stripes; ++k)
        serialKeys.push_back(
            mrf::detail::stripeStreamSeed(seed, 3, 1, k));

    for (int shards : {1, 2, 3, 4, 8, 11}) {
        shard::TilePartition p(height, stripes, shards);
        std::vector<std::uint64_t> keys;
        for (int j = 0; j < shards; ++j)
            for (int k = p.stripeBegin(j); k < p.stripeEnd(j); ++k)
                keys.push_back(
                    mrf::detail::stripeStreamSeed(seed, 3, 1, k));
        EXPECT_EQ(keys, serialKeys) << "shards=" << shards;
    }
}

// ------------------------------------------------------------------
// Frame round-trips

TEST(Framing, RoundTripsTagAndPayloadOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::vector<unsigned char> payload;
    for (int i = 0; i < 300; ++i)
        payload.push_back(static_cast<unsigned char>(i * 7));
    util::writeFrame(fds[0], 42, payload.data(), payload.size());
    util::writeFrame(fds[0], 7, nullptr, 0); // empty payload

    util::Frame a = util::readFrame(fds[1]);
    EXPECT_EQ(a.tag, 42u);
    EXPECT_EQ(a.payload, payload);
    util::Frame b = util::readFrame(fds[1]);
    EXPECT_EQ(b.tag, 7u);
    EXPECT_TRUE(b.payload.empty());

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Framing, PreservesFrameOrderUnderBackToBackWrites)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    for (std::uint32_t tag = 1; tag <= 24; ++tag) {
        unsigned char byte = static_cast<unsigned char>(tag);
        util::writeFrame(fds[0], tag, &byte, 1);
    }
    for (std::uint32_t tag = 1; tag <= 24; ++tag) {
        util::Frame f = util::readFrame(fds[1]);
        EXPECT_EQ(f.tag, tag);
        ASSERT_EQ(f.payload.size(), 1u);
        EXPECT_EQ(f.payload[0], static_cast<unsigned char>(tag));
    }
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Framing, AppendFrameBytesParseBackAsFrames)
{
    // appendFrame (the async-send outbox serializer) must produce the
    // exact wire format readFrame parses.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::vector<unsigned char> payload;
    for (int i = 0; i < 300; ++i)
        payload.push_back(static_cast<unsigned char>(i * 3 + 1));
    std::vector<unsigned char> wire;
    util::appendFrame(wire, 42, payload.data(), payload.size());
    util::appendFrame(wire, 7, nullptr, 0); // empty payload
    const unsigned char *p = wire.data();
    std::size_t left = wire.size();
    while (left > 0) {
        ssize_t n = ::write(fds[0], p, left);
        ASSERT_GT(n, 0);
        p += n;
        left -= static_cast<std::size_t>(n);
    }

    util::Frame a = util::readFrame(fds[1]);
    EXPECT_EQ(a.tag, 42u);
    EXPECT_EQ(a.payload, payload);
    util::Frame b = util::readFrame(fds[1]);
    EXPECT_EQ(b.tag, 7u);
    EXPECT_TRUE(b.payload.empty());

    ::close(fds[0]);
    ::close(fds[1]);
}

// ------------------------------------------------------------------
// Transport stash + tryRecv

TEST(ShardTransport, MatchedRecvStashesOvertakenHaloFrames)
{
    // A kHalo posted ahead of a kJoin must not trip the matched-recv
    // protocol check: the join recv parks it, and the next halo
    // recv/tryRecv drains the stash before touching the channel.
    shard::LoopbackMesh mesh(2);
    shard::ShardTransport &tx = mesh.transport(0);
    shard::ShardTransport &rx = mesh.transport(1);

    const unsigned char halo[] = {0xaa, 0xbb};
    const unsigned char join[] = {0x01};
    tx.sendAsync(1, shard::tag::kHalo, halo, sizeof halo);
    tx.send(1, shard::tag::kJoin, join, sizeof join);

    std::vector<unsigned char> got = rx.recv(0, shard::tag::kJoin);
    ASSERT_EQ(got.size(), sizeof join);
    EXPECT_EQ(got[0], 0x01);

    std::vector<unsigned char> ghost;
    ASSERT_TRUE(rx.tryRecv(0, shard::tag::kHalo, &ghost));
    ASSERT_EQ(ghost.size(), sizeof halo);
    EXPECT_EQ(ghost[0], 0xaa);
    EXPECT_EQ(ghost[1], 0xbb);
}

TEST(ShardTransport, TryRecvReportsEmptyChannelWithoutBlocking)
{
    shard::LoopbackMesh mesh(2);
    std::vector<unsigned char> payload{0xff};
    EXPECT_FALSE(mesh.transport(1).tryRecv(0, shard::tag::kHalo,
                                           &payload));
    // A failed tryRecv leaves the output untouched.
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(payload[0], 0xff);

    // And frames already delivered are picked up without blocking,
    // preserving per-peer FIFO order across async and blocking sends.
    const unsigned char a = 1, b = 2;
    mesh.transport(0).sendAsync(1, shard::tag::kHalo, &a, 1);
    mesh.transport(0).sendAsync(1, shard::tag::kHalo, &b, 1);
    std::vector<unsigned char> first, second;
    ASSERT_TRUE(
        mesh.transport(1).tryRecv(0, shard::tag::kHalo, &first));
    ASSERT_TRUE(
        mesh.transport(1).tryRecv(0, shard::tag::kHalo, &second));
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(first[0], 1);
    EXPECT_EQ(second[0], 2);
}

// ------------------------------------------------------------------
// Loopback equivalence

mrf::MrfProblem
makeProblem(int width = 14, int height = 11, int num_labels = 5)
{
    mrf::MrfProblem p(
        width, height,
        mrf::PairwiseTable(mrf::DistanceKind::Absolute, num_labels,
                           2.0),
        "shard-test");
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            for (int l = 0; l < num_labels; ++l)
                p.singleton(x, y, l) = static_cast<float>(
                    ((x * 5 + y * 11 + l * 23) % 19) * 0.5);
    return p;
}

using Snapshot = std::shared_ptr<const mrf::SolverCheckpoint>;

struct RunResult
{
    img::LabelMap labels;
    mrf::SolverTrace trace;
    std::vector<unsigned char> snapshot;
    /** The mid-anneal snapshot (after sweep 3), for the resume tests. */
    Snapshot mid;
};

mrf::SolverConfig
solverConfig(int stripes)
{
    mrf::SolverConfig cfg;
    cfg.annealing.t0 = 12.0;
    cfg.annealing.tEnd = 0.8;
    cfg.annealing.sweeps = 8;
    cfg.seed = 99;
    cfg.stripes = stripes;
    cfg.checkpointEvery = 3; // final sweep always snapshots
    return cfg;
}

/** Point @p cfg's snapshots at @p r: the mid-anneal one and the final
 *  one's bytes. */
void
captureSnapshots(mrf::SolverConfig &cfg, RunResult &r)
{
    cfg.checkpointSink = [&r](const mrf::SolverCheckpoint &cp) {
        if (cp.sweepsDone == 3)
            r.mid = std::make_shared<mrf::SolverCheckpoint>(cp);
        if (cp.sweepsDone == cp.sweepsTotal)
            r.snapshot = cp.serialize();
    };
}

RunResult
runReference(const mrf::MrfProblem &problem, int stripes,
             Snapshot resume = nullptr)
{
    RunResult r;
    mrf::SolverConfig cfg = solverConfig(stripes);
    cfg.resume = std::move(resume);
    captureSnapshots(cfg, r);
    core::SoftwareSampler sampler;
    r.labels = mrf::CheckerboardGibbsSolver(cfg).run(problem, sampler,
                                                     &r.trace);
    return r;
}

RunResult
runLoopback(const mrf::MrfProblem &problem, int stripes, int shards,
            int threads = 1, Snapshot resume = nullptr)
{
    RunResult r;
    mrf::SolverConfig cfg = solverConfig(stripes);
    cfg.threads = threads;
    cfg.resume = std::move(resume);
    captureSnapshots(cfg, r);
    shard::ShardOptions options;
    options.shards = shards;
    options.transport = shard::ShardOptions::Transport::Loopback;
    core::SoftwareSampler sampler;
    r.labels = shard::ShardedCheckerboardSolver(cfg, options)
                   .run(problem, sampler, &r.trace);
    return r;
}

void
expectSameRun(const RunResult &ref, const RunResult &got)
{
    EXPECT_EQ(got.labels.data(), ref.labels.data());
    EXPECT_EQ(got.trace.energyPerSweep, ref.trace.energyPerSweep);
    EXPECT_EQ(got.trace.temperaturePerSweep,
              ref.trace.temperaturePerSweep);
    EXPECT_EQ(got.trace.labelChanges, ref.trace.labelChanges);
    EXPECT_EQ(got.trace.pixelUpdates, ref.trace.pixelUpdates);
    EXPECT_EQ(got.snapshot, ref.snapshot);
}

TEST(ShardedSolver, LoopbackMatchesSerialStripedByteForByte)
{
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);
    for (int shards : {2, 3, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        expectSameRun(ref, runLoopback(problem, 4, shards));
    }
}

TEST(ShardedSolver, EmptyRanksDoNotPerturbTheResult)
{
    // More shards than stripes: the surplus ranks own nothing and the
    // result must still be identical.
    const mrf::MrfProblem problem = makeProblem(10, 9);
    const RunResult ref = runReference(problem, 3);
    expectSameRun(ref, runLoopback(problem, 3, 5));
}

TEST(ShardedSolver, SingleShardDelegatesToSerialSolver)
{
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);
    expectSameRun(ref, runLoopback(problem, 4, 1));
    // With the stripe count unset, one shard runs the same
    // min(height, 16)-stripe chain as two or three shards, not the
    // single-stream serial chain.
    const RunResult two = runLoopback(problem, 0, 2);
    for (int shards : {1, 3}) {
        SCOPED_TRACE("stripes=0 shards=" + std::to_string(shards));
        expectSameRun(two, runLoopback(problem, 0, shards));
    }
}

TEST(ShardedSolver, ResumesAStripedSnapshot)
{
    // The striped run's mid-anneal snapshot, resumed across ranks at
    // any shard and thread count, finishes on the uninterrupted
    // striped run's bytes.
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);
    ASSERT_TRUE(ref.mid);
    for (int shards : {2, 3}) {
        for (int threads : {1, 2}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            expectSameRun(ref, runLoopback(problem, 4, shards, threads,
                                           ref.mid));
        }
    }
}

TEST(ShardedSolver, StripedSolverResumesAShardedSnapshot)
{
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);
    const RunResult sharded = runLoopback(problem, 4, 2);
    ASSERT_TRUE(sharded.mid);
    expectSameRun(ref, runReference(problem, 4, sharded.mid));
}

// ------------------------------------------------------------------
// Boundary-first (overlapped) schedule with intra-rank threads

TEST(ShardedSolver, OverlapOnIsByteIdenticalToOverlapOff)
{
    // The headline schedule-invariance contract: overlapping the halo
    // exchange with interior compute, at any intra-rank thread count,
    // must not change a single byte of labels, trace or snapshot.
    // The 1-thread cases are LoopbackMatchesSerialStripedByteForByte
    // and SingleShardDelegatesToSerialSolver.
    const mrf::MrfProblem problem = makeProblem();
    const RunResult ref = runReference(problem, 4);
    for (int shards : {1, 2, 3, 4}) {
        for (int threads : {2, 4}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            expectSameRun(ref,
                          runLoopback(problem, 4, shards, threads));
        }
    }
}

TEST(ShardedSolver, OverlapWithOneRowTiles)
{
    // height == stripes == shards: every tile is one row, so a rank's
    // "boundary" stripes and its whole tile coincide (k0 == k1 - 1)
    // and there is no interior left to overlap with.  The schedule
    // must still match the striped result, not deadlock or double-run
    // the single stripe.
    const mrf::MrfProblem problem = makeProblem(12, 6);
    const RunResult ref = runReference(problem, 6);
    expectSameRun(ref, runLoopback(problem, 6, 6, 2));
}

TEST(ShardedSolver, OverlapWithMoreShardsThanStripes)
{
    // Surplus empty ranks sit out the phase entirely; overlapped
    // halos must only flow between the non-empty neighbors.
    const mrf::MrfProblem problem = makeProblem(10, 9);
    const RunResult ref = runReference(problem, 3);
    expectSameRun(ref, runLoopback(problem, 3, 5, 2));
}

TEST(ShardedSolverDeathTest, NegativeThreadsOrStripesAreFatal)
{
    // Same contract as the single-process solver: a negative count is
    // rejected before any rank is spawned, never read as "auto".
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    shard::ShardOptions options;
    options.shards = 2;
    options.transport = shard::ShardOptions::Transport::Loopback;
    for (const auto &[threads, stripes] :
         {std::pair{1, -3}, std::pair{-1, 4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " stripes=" + std::to_string(stripes));
        mrf::SolverConfig cfg = solverConfig(stripes);
        cfg.threads = threads;
        cfg.checkpointEvery = 0; // no sink: fail only on the counts
        core::SoftwareSampler sampler;
        EXPECT_DEATH(shard::ShardedCheckerboardSolver(cfg, options)
                         .run(problem, sampler),
                     "threads/stripes cannot be negative");
    }
}

TEST(ShardedSolverDeathTest, OutOfRangeInitialLabelIsFatal)
{
    // The caller's labels are range-checked before any rank starts.
    // Row 8 lies inside rank 1's tile (rows 5..10 of 11 at 4 stripes
    // and 2 shards) and is no ghost row, so no halo decode sees it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const mrf::MrfProblem problem = makeProblem();
    shard::ShardOptions options;
    options.shards = 2;
    options.transport = shard::ShardOptions::Transport::Loopback;
    mrf::SolverConfig cfg = solverConfig(4);
    cfg.randomInit = false;
    cfg.checkpointEvery = 0;
    img::LabelMap init(problem.width(), problem.height(), 0);
    init(6, 8) = 1000000;
    core::SoftwareSampler sampler;
    EXPECT_DEATH(shard::ShardedCheckerboardSolver(cfg, options)
                     .run(problem, sampler, init),
                 "initial label 1000000 out of range");
}

// ------------------------------------------------------------------
// Payload decoders on crafted input

/** A kHalo payload for row @p y carrying @p row's labels. */
std::vector<unsigned char>
haloPayload(int y, const std::vector<int> &row)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(y));
    for (int l : row)
        w.i32(l);
    return w.take();
}

TEST(PayloadCodecDeathTest, GhostRowLabelOutOfRangeIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    constexpr int kLabels = 4;
    std::vector<int> out(3, -1);
    shard::detail::decodeGhostRow(haloPayload(7, {0, 3, 2}), 1, 7,
                                  kLabels, out);
    EXPECT_EQ(out, (std::vector<int>{0, 3, 2}));
    // One past the label count and a negative label: either would
    // index the energy tables out of bounds.
    for (int bad : {kLabels, -1}) {
        EXPECT_EXIT(shard::detail::decodeGhostRow(
                        haloPayload(7, {0, bad, 2}), 1, 7, kLabels, out),
                    ::testing::ExitedWithCode(1),
                    "halo from rank 1 carries label " +
                        std::to_string(bad));
    }
}

TEST(PayloadCodecDeathTest, GatherLabelOutOfRangeIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    constexpr int kLabels = 5, kWidth = 3;
    // Rows [2, 4) of a 3-wide map and one stripe's state words.
    auto gather = [&](int bad) {
        util::ByteWriter w;
        w.u32(2);
        w.u32(2);
        for (int i = 0; i < 2 * kWidth; ++i)
            w.i32(i == 4 ? bad : i % kLabels);
        w.u32(1);
        w.words(std::vector<std::uint64_t>{11, 12});
        return w.take();
    };
    img::LabelMap labels(kWidth, 6, 0);
    std::vector<std::vector<std::uint64_t>> state(1);
    shard::detail::decodeGather(gather(1), 2, 2, 4, kLabels, labels,
                                state);
    EXPECT_EQ(labels(1, 3), 1);
    EXPECT_EQ(state[0], (std::vector<std::uint64_t>{11, 12}));
    EXPECT_EXIT(shard::detail::decodeGather(gather(kLabels), 2, 2, 4,
                                            kLabels, labels, state),
                ::testing::ExitedWithCode(1),
                "GATHER from rank 2 carries label 5");
}

TEST(PayloadCodecDeathTest, RegistryDeltaHostileCountsAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    obs::MetricSnapshot h;
    h.name = "h";
    h.kind = obs::MetricKind::Histogram;
    h.histogram = obs::HistogramData({1.0, 2.0});
    h.histogram.observe(1.5);
    const std::vector<unsigned char> good =
        shard::detail::serializeRegistryDelta({h});
    const auto back = shard::detail::deserializeRegistryDelta(good);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].histogram.counts, h.histogram.counts);

    // A metric count of 2^32 - 1 in a 4-byte payload: reserving it
    // would ask for hundreds of gigabytes.
    util::ByteWriter count;
    count.u32(0xffffffffu);
    EXPECT_EXIT(shard::detail::deserializeRegistryDelta(count.bytes()),
                ::testing::ExitedWithCode(1),
                "registry delta claims 4294967295 metrics in 0 bytes");

    // A histogram whose bound count (after the metric count, the
    // kind byte and the length-prefixed name) claims 2^32 - 1 bounds.
    std::vector<unsigned char> bounds = good;
    const std::size_t nb_at = 4 + 1 + 8 + h.name.size();
    for (std::size_t i = 0; i < 4; ++i)
        bounds[nb_at + i] = 0xff;
    EXPECT_EXIT(shard::detail::deserializeRegistryDelta(bounds),
                ::testing::ExitedWithCode(1),
                "histogram 'h' claims 4294967295 bounds");
}

} // namespace

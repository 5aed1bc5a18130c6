/**
 * @file
 * Message transport between shard ranks.
 *
 * The sharded solver is written against one narrow interface —
 * tagged, length-delimited messages between ranks — with two
 * implementations:
 *
 *  - LoopbackMesh: every rank is a thread of one process, channels
 *    are in-memory FIFO queues.  This is the testable backend (gtest
 *    + TSan can see every interaction) and deliberately mirrors the
 *    socket backend's semantics: ranks still keep private label
 *    copies and exchange ghost rows by message, so the two backends
 *    exercise the same solver code paths.
 *
 *  - spawnSocketMesh(): every rank is a forked process, channels are
 *    length-prefixed frames (util/framing.hh) over localhost TCP.
 *    Rank 0 is the coordinator every worker connects to; adjacent
 *    tile neighbors additionally get a direct worker-worker link for
 *    halo exchange, bootstrapped by relaying an ephemeral port number
 *    through rank 0.
 *
 * recv(peer, tag) is matched: receiving a frame whose tag differs
 * from the expectation is a fatal protocol error, which turns any
 * desynchronization into an immediate diagnostic instead of silently
 * misinterpreted bytes.  One deliberate exception: kHalo frames may
 * be OVERTAKEN by a matched recv for another tag.  The solver's
 * boundary-first schedule consumes a ghost row posted at the end of
 * a color phase only at the start of the NEXT phase, so on channels
 * that carry both halo and join traffic (the star link when rank 0
 * is a tile neighbor) the next frame ahead of an expected kJoin is
 * legitimately a kHalo for the following phase.  Matched
 * recvs park such frames in a per-peer FIFO stash that halo recvs
 * drain first; any other unexpected tag is still fatal.
 *
 * sendAsync(peer, tag, ...) queues a frame without blocking;
 * progress() opportunistically drives queued bytes, and flushSends()
 * blocks until everything queued reached the OS — blocking send() is
 * exactly sendAsync() + flushSends(), so mixing the two preserves the
 * per-peer frame order.
 */

#ifndef RETSIM_SHARD_TRANSPORT_HH
#define RETSIM_SHARD_TRANSPORT_HH

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "shard/tile_partition.hh"
#include "util/framing.hh"

namespace retsim {
namespace shard {

/** Message tags of the shard protocol. */
namespace tag {
constexpr std::uint32_t kHello = 1;    ///< worker -> 0 bootstrap
constexpr std::uint32_t kPort = 2;     ///< ephemeral-port relay
constexpr std::uint32_t kHalo = 3;     ///< ghost-row refresh
constexpr std::uint32_t kJoin = 4;     ///< per-sweep counter fold
constexpr std::uint32_t kGather = 5;   ///< label rows + sampler state
constexpr std::uint32_t kRegistry = 6; ///< obs metric delta at exit
constexpr std::uint32_t kDie = 7;      ///< crash-drill handshake
} // namespace tag

class ShardTransport
{
  public:
    virtual ~ShardTransport() = default;

    virtual int rank() const = 0;
    virtual int worldSize() const = 0;

    /** Queue one frame for @p peer and return without blocking; the
     *  bytes travel during progress()/flushSends() or any blocking
     *  call.  Frames to one peer are delivered in send order, async
     *  and blocking sends alike. */
    virtual void sendAsync(int peer, std::uint32_t tag,
                           const unsigned char *data,
                           std::size_t len) = 0;

    /** Opportunistically drive queued outbound bytes; never blocks. */
    virtual void progress() {}

    /** Block until every queued outbound byte reached the OS. */
    virtual void flushSends() {}

    /** Blocking send: queue the frame and flush. */
    void
    send(int peer, std::uint32_t tag, const unsigned char *data,
         std::size_t len)
    {
        sendAsync(peer, tag, data, len);
        flushSends();
    }

    /** Blocking receive of the next frame from @p peer; the frame's
     *  tag must equal @p tag.  kHalo frames ahead of another expected
     *  tag are stashed (see the file comment); any other mismatch is
     *  fatal. */
    std::vector<unsigned char> recv(int peer, std::uint32_t tag);

    /** Non-blocking receive: true + payload when a matching frame was
     *  already available (stashed or arrived), false otherwise. */
    bool tryRecv(int peer, std::uint32_t tag,
                 std::vector<unsigned char> *payload);

    /** True when all ranks share one obs::Registry (loopback); false
     *  when workers must ship a metric delta back (sockets). */
    virtual bool sharedRegistry() const = 0;

    virtual const char *name() const = 0;

  protected:
    /** Next frame from @p peer, in arrival order.  Blocking mode
     *  always returns a frame (fatal on transport error); otherwise
     *  returns false when none is ready. */
    virtual bool pullFrame(int peer, bool blocking,
                           util::Frame *frame) = 0;

  private:
    std::deque<util::Frame> &stash(int peer);

    /** Per-peer kHalo frames overtaken by a matched recv. */
    std::vector<std::deque<util::Frame>> stash_;
};

/**
 * In-process transport: one mesh shared by all rank threads; call
 * transport(r) to get rank r's endpoint.  Queues are unbounded, so
 * sends never block.
 */
class LoopbackMesh
{
  public:
    explicit LoopbackMesh(int worldSize);
    ~LoopbackMesh();

    ShardTransport &transport(int rank);

  private:
    struct Channel
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<std::pair<std::uint32_t,
                             std::vector<unsigned char>>>
            queue;
    };

    class Endpoint;

    Channel &
    channel(int src, int dst)
    {
        return *channels_[static_cast<std::size_t>(src) * worldSize_ +
                          dst];
    }

    int worldSize_;
    std::vector<std::unique_ptr<Channel>> channels_; // [src*N + dst]
    std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

/**
 * Result of spawnSocketMesh(): in the parent this describes rank 0
 * plus the worker pids to reap; in each forked child it describes
 * that worker's rank.  The child MUST NOT return into the caller's
 * caller — the sharded solver runs the worker loop and _Exit()s.
 */
struct SocketBoot
{
    int rank = 0;
    std::unique_ptr<ShardTransport> transport;
    std::vector<pid_t> children; ///< rank 0 only; index r-1 = rank r
};

/**
 * Fork worldSize - 1 worker processes and wire up the socket mesh
 * (star links to rank 0 for everyone, direct links between adjacent
 * non-empty tile neighbors).  Returns in EVERY process — check
 * .rank to learn which one you are.
 */
SocketBoot spawnSocketMesh(int worldSize, const TilePartition &part);

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_TRANSPORT_HH

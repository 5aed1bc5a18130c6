/**
 * @file
 * Shared --shards / --shard-transport wiring for the example binaries
 * and tools, so every runner exposes the same sharded-run interface
 * (header-only like core/race_cli.hh — the caller already links util):
 *
 *   --shards=N                 split the lattice across N shard ranks
 *                              (default 1 = the single-process solver)
 *   --shard-transport=SPEC     loopback (rank threads, in-memory
 *                              queues; the default) or socket (forked
 *                              rank processes, localhost TCP frames)
 *   --die-shard=R              crash drill: worker rank R _Exit(17)s
 *   --die-shard-at=S           ... at the first checkpointed sweep
 *                              >= S (socket transport only; requires
 *                              --checkpoint-every)
 *   --threads=N                intra-rank worker threads for the
 *                              chromatic stripe dispatch (0 = one per
 *                              hardware core; default 1)
 *
 * shardOptionsFromCli() parses the flags; applyShardBackend() installs
 * a makeShardBackend() on the SolverConfig when shards > 1 (or a drill
 * is requested), so any app that solves through mrf::runSolver() gains
 * sharding without knowing this layer exists.  Sharding implies the
 * chromatic checkerboard schedule — apps defaulting to the raster
 * GibbsSolver produce their serial results only at --shards=1.
 * Threads is a schedule-only knob: every {shards} x {transport} x
 * {threads} combination yields the byte-identical labels, trace and
 * final snapshot.
 */

#ifndef RETSIM_SHARD_SHARD_CLI_HH
#define RETSIM_SHARD_SHARD_CLI_HH

#include <string>

#include "shard/sharded_solver.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace retsim {
namespace shard {

inline ShardOptions
shardOptionsFromCli(const util::CliArgs &args)
{
    ShardOptions options;
    options.shards = static_cast<int>(args.getInt("shards", 1));
    RETSIM_ASSERT(options.shards >= 1,
                  "--shards must be a positive shard count");
    const std::string spec =
        args.getString("shard-transport", "loopback");
    if (spec == "loopback")
        options.transport = ShardOptions::Transport::Loopback;
    else if (spec == "socket")
        options.transport = ShardOptions::Transport::Socket;
    else
        RETSIM_FATAL("unknown --shard-transport '", spec,
                     "' (expected loopback|socket)");
    options.dieRank = static_cast<int>(args.getInt("die-shard", -1));
    options.dieAtSweep =
        static_cast<int>(args.getInt("die-shard-at", -1));
    return options;
}

/** Schedule-only solver knobs riding along with the shard flags;
 *  -1 = flag absent, leave the app's default untouched. */
struct SolverTuning
{
    int threads = -1;
};

inline SolverTuning
solverTuningFromCli(const util::CliArgs &args)
{
    SolverTuning tuning;
    if (args.has("threads")) {
        tuning.threads =
            static_cast<int>(args.getInt("threads", 1));
        RETSIM_ASSERT(tuning.threads >= 0,
                      "--threads must be >= 0 (0 = one per core)");
    }
    return tuning;
}

inline void
applySolverTuning(const SolverTuning &tuning,
                  mrf::SolverConfig *config)
{
    if (tuning.threads >= 0)
        config->threads = tuning.threads;
}

/** Route the config's solves through the sharded solver when the
 *  options ask for more than the plain single-process run. */
inline void
applyShardBackend(const ShardOptions &options,
                  mrf::SolverConfig *config)
{
    if (options.shards > 1 || options.dieRank >= 0)
        config->solverBackend = makeShardBackend(options);
}

/** Parse-and-install in one step; returns the parsed options so the
 *  caller can record shard count / transport in its own output. */
inline ShardOptions
shardFromCli(const util::CliArgs &args, mrf::SolverConfig *config)
{
    applySolverTuning(solverTuningFromCli(args), config);
    ShardOptions options = shardOptionsFromCli(args);
    applyShardBackend(options, config);
    return options;
}

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_SHARD_CLI_HH

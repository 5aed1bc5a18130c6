/**
 * @file
 * Multi-process (or multi-thread) sharded checkerboard Gibbs solver.
 *
 * Runs the EXACT stripe schedule of the striped
 * CheckerboardGibbsSolver — same per-(seed, sweep, color, stripe)
 * RNG streams, same per-stripe sampler clones indexed by GLOBAL
 * stripe id, same batched row kernel (mrf/checkerboard_detail.hh) —
 * but splits the stripes across N shard ranks by a TilePartition and
 * replaces shared memory with explicit messages: one-row ghost zones
 * refreshed at every color-phase boundary, and per-shard counter /
 * SamplerStats / obs-metric folds at the sweep join (plain sums, so
 * every total equals the serial run's).  Each color phase runs
 * boundary-first: a rank computes the stripes owning its boundary
 * rows, posts their ghost rows without blocking, and hides the
 * transfer behind its interior stripes; the ghosts are consumed only
 * when the next phase (or the sweep join) reads them.
 *
 * Determinism contract (enforced by tools/shard_check + the CI
 * shard-equivalence leg): for ANY shard count N and either transport,
 * the labels, the SolverTrace (including the FP energy series, which
 * is reduced from per-row partials in row order exactly like
 * MrfProblem::totalEnergy), and the final SOLVERCP snapshot are
 * byte-identical to a serial striped run with the same (seed,
 * stripes); N = 1 runs that striped run itself.  Checkpointing
 * composes: rank 0 writes snapshots through the run scaffold the
 * single-process solver uses (mrf/solver_run.hh), so a sharded run
 * can resume a striped snapshot and vice versa, and killing one
 * shard process mid-anneal (the crash drill) then resuming yields a
 * byte-identical final snapshot.
 *
 * Division of labor: rank 0 owns everything stateful a caller can
 * observe — init/resume, the caller's sampler and label map, trace,
 * telemetry, sweep observers, checkpoint emission, the obs registry
 * of record — while workers own only their tile's row range.  Each
 * rank runs its stripes on the single-process solver's stripe
 * executor (mrf/checkerboard_detail.hh), whose pool of
 * SolverConfig::threads is capped at the rank's stripe count; the
 * thread count is schedule-only, so every setting produces the
 * byte-identical result.
 */

#ifndef RETSIM_SHARD_SHARDED_SOLVER_HH
#define RETSIM_SHARD_SHARDED_SOLVER_HH

#include "img/image.hh"
#include "mrf/gibbs.hh"
#include "mrf/problem.hh"
#include "mrf/sampler.hh"

namespace retsim {
namespace shard {

struct ShardOptions
{
    enum class Transport { Loopback, Socket };

    /** Shard (rank) count, >= 1; 1 delegates to the single-process
     *  CheckerboardGibbsSolver, striped like every other count. */
    int shards = 1;
    Transport transport = Transport::Loopback;
    /**
     * Crash drill (socket transport only): worker rank dieRank calls
     * _Exit(17) right after the first checkpointed sweep >= dieAtSweep
     * — after its state reached rank 0, mimicking a machine loss whose
     * last checkpoint survived.  Rank 0 finishes emitting that
     * checkpoint and exits 17 too, so the caller can resume the job
     * from the snapshot.  Requires checkpointing.  -1 disables.
     */
    int dieRank = -1;
    int dieAtSweep = -1;
};

class ShardedCheckerboardSolver
{
  public:
    ShardedCheckerboardSolver(mrf::SolverConfig config,
                              ShardOptions options)
        : config_(std::move(config)), options_(options)
    {
    }

    img::LabelMap run(const mrf::MrfProblem &problem,
                      mrf::LabelSampler &sampler, img::LabelMap &labels,
                      mrf::SolverTrace *trace = nullptr) const;

    img::LabelMap run(const mrf::MrfProblem &problem,
                      mrf::LabelSampler &sampler,
                      mrf::SolverTrace *trace = nullptr) const;

    const mrf::SolverConfig &config() const { return config_; }
    const ShardOptions &options() const { return options_; }

  private:
    mrf::SolverConfig config_;
    ShardOptions options_;
};

/**
 * A SolverBackend (see mrf/gibbs.hh) routing any runSolver() call
 * through a ShardedCheckerboardSolver with these options — how the
 * CLI layer turns `--shards=N` on for an app without the app knowing.
 */
mrf::SolverBackend makeShardBackend(const ShardOptions &options);

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_SHARDED_SOLVER_HH

/**
 * @file
 * Energy-to-decay-rate conversion (Eq. 2 with the new design's
 * scaling, cut-off and 2^n approximation).
 *
 * Two hardware implementations are modeled (Sec. IV-B.3):
 *
 *  - LambdaLut: the previous design's look-up table indexed by the
 *    energy value (2^Energy_bits entries of Lambda_bits each — 1 Kbit
 *    for E=8/L=4).  Updating it on a temperature change is slow.
 *
 *  - LambdaComparator: the new design's boundary registers — one
 *    energy threshold per distinct lambda value, resolved with at most
 *    uniqueLambdas() comparisons and only 32 bits of state for the
 *    chosen design point.  Boundaries are derived from the same
 *    quantization math, so the two implementations are bit-identical
 *    (a property the tests assert).
 *
 * Both convert a *scaled* unsigned energy e' = E - E_min (or a raw
 * energy when scaling is disabled) into an integer lambda code;
 * code 0 means the label is cut off (probability too small to use
 * lambda_0).
 */

#ifndef RETSIM_CORE_ENERGY_TO_LAMBDA_HH
#define RETSIM_CORE_ENERGY_TO_LAMBDA_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rsu_config.hh"
#include "util/shared_table.hh"

namespace retsim {
namespace core {

/**
 * Reference quantization: lambda code for scaled energy @p e at
 * temperature @p t (Sec. III-C.2: multiply exp(-e/T) by the lambda
 * scale, truncate to integer, cut off below 1, optionally round down
 * to a power of two).
 */
std::uint32_t quantizeLambda(double e, double t, const RsuConfig &cfg);

/**
 * The integer half of quantizeLambda(): truncate an already-computed
 * continuous rate (realLambda() or one lane of a batched expBatch
 * over the -e/T grid — bit-identical by the vecmath contract) and
 * apply cut-off / power-of-two rounding / clamping.  Split out so the
 * batched LambdaLut build shares the exact quantization rule.
 */
std::uint32_t quantizeLambdaFromReal(double real, const RsuConfig &cfg);

/** Continuous-valued decay rate multiplier exp(-e/T) * lambdaMax,
 *  computed with retsim vecmath (simd::sexp, not std::exp). */
double realLambda(double e, double t, const RsuConfig &cfg);

class LambdaLut
{
  public:
    LambdaLut(const RsuConfig &cfg, double temperature);

    /** Look up the lambda code; indices clamp to the last entry. */
    std::uint32_t lookup(std::uint64_t energy) const;

    double temperature() const { return temperature_; }
    std::size_t entries() const { return table_.size(); }

    /** Storage footprint: entries x Lambda_bits. */
    unsigned memoryBits() const;

    /**
     * Cycles to rewrite the whole table through an @p interface_bits
     * wide port — the pipeline stall a temperature update costs the
     * previous design.
     */
    unsigned updateCycles(unsigned interface_bits = 8) const;

  private:
    RsuConfig cfg_;
    double temperature_;
    std::vector<std::uint32_t> table_;
};

/**
 * Process-wide memoization of LambdaLut tables.
 *
 * A striped solver clones one RsuSampler per stripe and an annealing
 * schedule revisits the same temperatures run after run, so without
 * sharing every (clone, temperature) pair rebuilds an identical
 * 2^Energy_bits-entry table — stripes x sweeps exp() evaluations that
 * all produce the same bits.  The cache keys tables by exactly the
 * inputs quantizeLambda() reads (Energy_bits, Lambda_bits, lambda
 * quantization mode, probability cut-off, temperature — decay-rate
 * scaling and the time parameters do not affect the table) in a
 * util::SharedTable, so a hit takes no lock, and hands out
 * shared_ptr<const LambdaLut> so a sampler's table outlives clear().
 */
class LambdaLutCache
{
  public:
    /** The process-wide instance used by the samplers. */
    static LambdaLutCache &global();

    /** Fetch-or-build the table for (cfg, temperature). */
    std::shared_ptr<const LambdaLut> get(const RsuConfig &cfg,
                                         double temperature);

    /** Tables currently held. */
    std::size_t size() const { return tables_.size(); }
    /** get() calls answered without building. */
    std::uint64_t hits() const { return hits_.load(); }
    /** get() calls that had to build a table. */
    std::uint64_t misses() const { return misses_.load(); }

    /** Drop all tables and reset counters (tests and benches, while
     *  no sampler converts: see util::SharedTable::clear). */
    void clear();

  private:
    /** (packed config fields, temperature bit pattern). */
    using Key = std::array<std::uint64_t, 2>;
    static Key makeKey(const RsuConfig &cfg, double temperature);

    /** Tables held before the cache stops inserting (later misses
     *  build an uncached table); a safety valve for pathological
     *  workloads that never repeat a temperature. */
    static constexpr std::size_t kMaxEntries = 4096;

    util::SharedTable<Key, std::shared_ptr<const LambdaLut>> tables_{
        kMaxEntries};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

class LambdaComparator
{
  public:
    LambdaComparator(const RsuConfig &cfg, double temperature);

    /** Resolve the lambda code by boundary comparisons. */
    std::uint32_t convert(std::uint64_t energy) const;

    double temperature() const { return temperature_; }

    /**
     * Boundary thresholds, largest-lambda first: energy <= bound[k]
     * selects the k-th lambda value.  Size == number of distinct
     * nonzero lambda codes.
     */
    const std::vector<std::uint64_t> &boundaries() const
    {
        return boundaries_;
    }

    /** Distinct nonzero lambda codes, aligned with boundaries(). */
    const std::vector<std::uint32_t> &codes() const { return codes_; }

    /** Storage footprint: boundaries x Energy_bits. */
    unsigned memoryBits() const;

    /** Cycles to refresh the boundary registers over an 8-bit port. */
    unsigned updateCycles(unsigned interface_bits = 8) const;

  private:
    RsuConfig cfg_;
    double temperature_;
    std::vector<std::uint64_t> boundaries_;
    std::vector<std::uint32_t> codes_;
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_ENERGY_TO_LAMBDA_HH

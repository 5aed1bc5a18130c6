/**
 * @file
 * One immutable energy -> rate binding per temperature, shared by a
 * run's sampler clones.
 *
 * Every RSU-G unit of the paper's array reads the same per-temperature
 * conversion: one LUT rewrite / boundary-register refresh per
 * temperature (Sec. IV-B.3), not one per unit.  A RateBinding is that
 * conversion in software: the quantized-energy -> rate table and,
 * for the binned fast path, everything RaceFastPath derives from it
 * (rate alphabet, class map and bytes, tie probabilities, the shared
 * packed table).  It never changes once built, so any number of
 * samplers on any number of threads may read it.
 *
 * A RateBindingCache is the per-run handle: RsuSampler creates one
 * and clone() passes it on, so a striped or sharded run's clones bind
 * each temperature through one build instead of one per clone.
 */

#ifndef RETSIM_CORE_RATE_BINDING_HH
#define RETSIM_CORE_RATE_BINDING_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/rsu_config.hh"
#include "util/shared_table.hh"

namespace retsim {
namespace core {

class LambdaLut;
struct PackedRaceEntry;
/** Packed race entries of one (mode word, rate alphabet), by count
 *  word (see RaceTableCache::packedTable). */
using PackedRaceTable = util::SharedTable<std::uint64_t, PackedRaceEntry>;

struct RateBinding
{
    std::vector<double> rateTable; ///< quantized energy -> rate
    /** Leading positive entries of rateTable.  In a table
     *  RateBindingCache builds every later entry is zero (asserted:
     *  the table is non-increasing in energy and cut-off zeroes only
     *  its tail), so a label fires iff its table index lies below
     *  it. */
    std::size_t firingBound = 0;

    // ---- fast-path classification (only when built with a mode word)
    std::vector<double> alphabet;       ///< sorted distinct rates
    std::vector<std::uint16_t> classOf; ///< table index -> class
    /** classOf as bytes, padded 8 past the end for the fused kernel's
     *  32-bit gathers; built only for the packed lane. */
    std::vector<std::uint8_t> classBytes;
    std::vector<double> tieP; ///< per class 1 - e^{-rate}
    bool packedOk = false;    ///< alphabet fits the packed lane
    int zeroClass = -1;       ///< alphabet index of the rate-0 class
    std::uint64_t firingMask = 0; ///< count-word bytes of rate>0 classes
    /** The shared packed table of the alphabet; null off the packed
     *  lane. */
    std::shared_ptr<PackedRaceTable> packed;

    /**
     * Bind @p rate_table.  With @p mode_word, also classify it: the
     * alphabet is @p incoming (the binder's alphabet so far) grown by
     * any new rate, exactly the union rule that decides the packed
     * lane, so a binder's lane never depends on who built its
     * binding.
     */
    static std::shared_ptr<const RateBinding>
    make(std::vector<double> rate_table, std::span<const double> incoming,
         const std::uint64_t *mode_word);
};

/**
 * A run's bindings, keyed on (LUT key, lambda_0, temperature, incoming
 * alphabet); the LUT key's config fields and lambda_0 are the
 * handle's, fixed at construction, so an entry keys on the other
 * two.  A run's clones all bind one temperature per sweep, so a
 * shared handle keeps the last kRecent keys: the first clone to reach
 * a temperature builds its binding, the rest hit it, and the run
 * holds a few bindings however long it anneals.  Until share() marks
 * it shared (clone() does), a handle has one binder and keeps one
 * entry, so a sampler that is never cloned holds no binding beyond
 * its own.  A rate table equal to the incoming binding's (revisited
 * rungs, the tEnd floor) reuses that binding outright, which skips a
 * classification.  Thread-safe: one mutex, taken once per binder per
 * temperature change and per clone, never on the per-pixel path.
 */
class RateBindingCache
{
  public:
    /** @p classify: build the binned fast path's classification. */
    RateBindingCache(const RsuConfig &cfg, bool classify);

    /**
     * The binding of @p temperature for a binder currently holding
     * @p incoming (null before its first bind).  @p lut is the LUT of
     * @p temperature (null under float lambda).  Counts a hit or a
     * build, here and under core.rate_binding.*.
     */
    std::shared_ptr<const RateBinding>
    bind(double temperature, const LambdaLut *lut,
         const std::shared_ptr<const RateBinding> &incoming);

    /** Mark the handle as bound by more than one sampler (clone()):
     *  from now on it keeps kRecent entries instead of one. */
    void share();

    /** bind() calls answered from the handle. */
    std::uint64_t hits() const { return hits_.load(); }
    /** bind() calls that built a rate table. */
    std::uint64_t builds() const { return builds_.load(); }

  private:
    static constexpr std::size_t kRecent = 8;

    struct Entry
    {
        std::uint64_t temperatureBits = 0;
        std::vector<double> incoming;
        std::shared_ptr<const RateBinding> binding; ///< null: unused
    };

    /** The quantized-energy -> rate table of @p temperature. */
    std::vector<double> buildTable(double temperature,
                                   const LambdaLut *lut) const;

    const RsuConfig cfg_;
    const bool classify_;
    const std::uint64_t modeWord_;
    std::mutex mutex_;
    std::array<Entry, kRecent> recent_;
    std::size_t next_ = 0; ///< ring slot the next build overwrites
    bool shared_ = false;  ///< share() called: ring of kRecent, else 1
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> builds_{0};
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_RATE_BINDING_HH

/**
 * @file
 * RSU-G design-parameter configuration.
 *
 * The paper identifies four primary design parameters (Sec. III-C):
 *
 *  - Energy_bits:  precision of the energy-computation stage output;
 *  - Lambda_bits:  precision of the exponential decay rate, which also
 *                  bounds the number of unique rates the RET circuit
 *                  must realize;
 *  - Time_bits:    resolution of the time-to-fluorescence measurement
 *                  (2^Time_bits bins per observation window);
 *  - Truncation:   P(TTF > window | lambda_0) — the fraction of the
 *                  slowest exponential's tail that is rounded to
 *                  "no sample".
 *
 * plus three technique switches introduced by the new design:
 * decay-rate scaling, probability cut-off, and 2^n lambda
 * approximation.  RsuConfig captures all of them along with "float"
 * escape hatches used by the paper's sequential methodology (evaluate
 * one stage at limited precision while the downstream stages stay at
 * IEEE floating point).
 */

#ifndef RETSIM_CORE_RSU_CONFIG_HH
#define RETSIM_CORE_RSU_CONFIG_HH

#include <cstdint>
#include <string>

namespace retsim {
namespace core {

/** Decay-rate quantization mode. */
enum class LambdaQuant
{
    Pow2,    ///< truncate to the nearest lower power of two (new design)
    Integer, ///< plain integer truncation
    Float,   ///< no quantization (methodology baseline)
};

/** Time-measurement mode. */
enum class TimeQuant
{
    Binned, ///< 2^Time_bits bins, truncated window (hardware)
    Float,  ///< continuous race, no truncation (methodology baseline)
};

/** Policy when two labels land in the same (indistinguishable) bin. */
enum class TieBreak
{
    Random, ///< uniform among tied labels (physical sub-bin race)
    First,  ///< lowest label index wins
    Last,   ///< highest label index wins
};

/**
 * What happens to a TTF beyond the observation window.  The hardware
 * stops looking and assumes the photon never arrives (Sec. IV-B.6:
 * "TTF = infinity"); the paper's functional analysis of Fig. 7
 * instead rounds the sample to the window end (Sec. III-C.3: "TTF
 * beyond t_max is numerically rounded to t_max"), which is what makes
 * extreme truncations distort the achieved probability ratios.
 */
enum class TruncationPolicy
{
    InfiniteTtf,    ///< truncated sample never fires (hardware)
    ClampToLastBin, ///< truncated sample lands in bin t_max
};

/**
 * How the sampler realizes the first-to-fire selection.
 *
 * The min-of-exponentials race realizes exactly a categorical
 * distribution over the labels (continuous time: P(i) = rate_i /
 * sum(rate); binned time: the joint winner/tie/no-fire pmf is a
 * closed-form function of the rate vector), so wherever the
 * cycle-accurate timing behavior is not itself under study the race
 * can be replaced by a single categorical draw from a precomputed
 * table — the RaceFastPath layer (race_fastpath.hh).
 */
enum class RaceMode
{
    Race,     ///< literal cycle-accurate race (the reference)
    FastPath, ///< alias-table/CDF categorical draw (fatal if the
              ///< config is unsupported — see RaceFastPath::supported)
};

std::string toString(LambdaQuant v);
std::string toString(TimeQuant v);
std::string toString(TieBreak v);
std::string toString(RaceMode v);

struct RsuConfig
{
    // -- energy computation stage ------------------------------------
    unsigned energyBits = 8;
    bool floatEnergy = false; ///< bypass energy quantization

    // -- energy-to-lambda conversion stage ---------------------------
    unsigned lambdaBits = 4;
    LambdaQuant lambdaQuant = LambdaQuant::Pow2;
    bool decayRateScaling = true;   ///< subtract E_min (Eq. 4)
    bool probabilityCutoff = true;  ///< lambda < lambda_0 -> 0
                                    ///< (false: clamp up to lambda_0,
                                    ///< the previous design's policy)

    // -- sampling / time-measurement stage ---------------------------
    unsigned timeBits = 5;
    TimeQuant timeQuant = TimeQuant::Binned;
    double truncation = 0.5; ///< P(TTF > t_max | lambda_0)
    /** Tie handling is under-specified by the paper: a real selection
     *  comparator keeps one side deterministically (First/Last,
     *  depending on the comparison and the label iteration order),
     *  while the paper's quality results (Fig. 9 parity) imply
     *  effectively unbiased ties in its functional simulation.
     *  Random is therefore the default; the deterministic policies
     *  are first-class and exactly reproduce the Fig. 8 design-space
     *  degradation (see bench_fig8 and bench_ablation). */
    TieBreak tieBreak = TieBreak::Random;
    TruncationPolicy truncationPolicy = TruncationPolicy::InfiniteTtf;

    /** First-to-fire selection implementation.  Race (the default)
     *  preserves the literal per-label exponential draws and their
     *  byte-exact reproducibility contracts; FastPath substitutes
     *  the distribution-equivalent categorical draw (a different but
     *  identically distributed random stream). */
    RaceMode raceMode = RaceMode::Race;

    // -- derived quantities -------------------------------------------
    /** Observation window length in time bins. */
    unsigned tMaxBins() const { return 1u << timeBits; }

    /** Base decay rate (per bin) implied by (truncation, timeBits). */
    double lambda0() const;

    /** Largest integer lambda code: 2^(L-1) for Pow2 (codes are the
     *  powers 1,2,...,2^(L-1) — Lambda_bits unique rates), else
     *  2^L - 1. */
    std::uint32_t lambdaMax() const;

    /** Number of distinct nonzero rates the RET circuit realizes. */
    unsigned uniqueLambdas() const;

    /** Abort on inconsistent parameter combinations. */
    void validate() const;

    /** One-line summary for logs and reports. */
    std::string describe() const;

    /**
     * Canonical key=value serialization (whitespace separated),
     * suitable for experiment manifests; round-trips through
     * fromString().
     */
    std::string toString() const;

    /**
     * Parse a toString() manifest (unknown keys are fatal, missing
     * keys keep their defaults relative to newDesign()).
     */
    static RsuConfig fromString(const std::string &text);

    bool operator==(const RsuConfig &other) const = default;

    // -- presets -------------------------------------------------------
    /**
     * The previously proposed RSU-G (Wang et al., ISCA'16), as
     * characterized in Sec. II-C / III-C: 8-bit energy, 4-bit
     * intensity-controlled lambda without scaling or cut-off (values
     * below lambda_0 clamp up), 5-bit time, truncation 0.004.
     */
    static RsuConfig previousDesign();

    /**
     * This paper's high-quality design point (Sec. III-D / IV):
     * Energy 8, Lambda 4 with scaling + cut-off + 2^n approximation,
     * Time 5, Truncation 0.5.
     */
    static RsuConfig newDesign();
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_RSU_CONFIG_HH

/**
 * @file
 * Phase-type distribution sampling — the paper's "exploring sampling
 * from phase-type distributions" future-work direction (Sec. IV-D).
 *
 * A chain of RET stages, where the photon emitted by stage i excites
 * stage i+1, physically realizes a hypoexponential (series phase-type)
 * distribution: the observed TTF is the sum of the per-stage
 * exponential delays.  Stage rates are tuned the same way as in the
 * RSU-G (concentration / intensity), so the hardware cost is k RET
 * networks in series plus one SPAD.
 *
 * This model supports the two families a concentration-programmed
 * chain can realize directly — distinct stage rates (hypoexponential)
 * and identical stage rates (Erlang) — with closed-form moments and
 * CDF for validation, and continuous sampling.
 */

#ifndef RETSIM_CORE_PHASE_TYPE_HH
#define RETSIM_CORE_PHASE_TYPE_HH

#include <vector>

#include "rng/rng.hh"

namespace retsim {
namespace core {

class PhaseTypeSampler
{
  public:
    /**
     * @param stage_rates Per-stage decay rates (all positive; either
     *        all distinct or all equal — the chains a fixed
     *        concentration program can realize).
     */
    explicit PhaseTypeSampler(std::vector<double> stage_rates);

    /** Erlang-k convenience: k identical stages of the given rate. */
    static PhaseTypeSampler erlang(unsigned k, double rate);

    std::size_t stages() const { return rates_.size(); }
    const std::vector<double> &rates() const { return rates_; }

    /** Draw one continuous TTF (sum of the stage exponentials). */
    double sampleContinuous(rng::Rng &gen) const;

    /** E[T] = sum 1/rate_i. */
    double mean() const;

    /** Var[T] = sum 1/rate_i^2. */
    double variance() const;

    /** CDF at @p t (closed form for the supported families). */
    double cdf(double t) const;

  private:
    bool allEqual() const;

    std::vector<double> rates_;
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_PHASE_TYPE_HH

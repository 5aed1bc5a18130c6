#include "core/phase_type.hh"

#include <cmath>
#include <set>

#include "rng/distributions.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

PhaseTypeSampler::PhaseTypeSampler(std::vector<double> stage_rates)
    : rates_(std::move(stage_rates))
{
    RETSIM_ASSERT(!rates_.empty(), "need at least one stage");
    for (double r : rates_)
        RETSIM_ASSERT(r > 0.0, "stage rates must be positive");
}

PhaseTypeSampler
PhaseTypeSampler::erlang(unsigned k, double rate)
{
    RETSIM_ASSERT(k >= 1, "Erlang needs at least one stage");
    return PhaseTypeSampler(std::vector<double>(k, rate));
}

bool
PhaseTypeSampler::allEqual() const
{
    for (double r : rates_)
        if (r != rates_.front())
            return false;
    return true;
}

double
PhaseTypeSampler::sampleContinuous(rng::Rng &gen) const
{
    double t = 0.0;
    for (double r : rates_)
        t += rng::sampleExponential(gen, r);
    return t;
}

double
PhaseTypeSampler::mean() const
{
    double m = 0.0;
    for (double r : rates_)
        m += 1.0 / r;
    return m;
}

double
PhaseTypeSampler::variance() const
{
    double v = 0.0;
    for (double r : rates_)
        v += 1.0 / (r * r);
    return v;
}

double
PhaseTypeSampler::cdf(double t) const
{
    if (t <= 0.0)
        return 0.0;
    if (allEqual()) {
        // Erlang-k: F(t) = 1 - exp(-rt) * sum_{n<k} (rt)^n / n!.
        double rt = rates_.front() * t;
        double term = 1.0;
        double sum = 1.0;
        for (std::size_t n = 1; n < rates_.size(); ++n) {
            term *= rt / static_cast<double>(n);
            sum += term;
        }
        return 1.0 - std::exp(-rt) * sum;
    }
    // Hypoexponential with distinct rates:
    // F(t) = 1 - sum_i [prod_{j != i} r_j / (r_j - r_i)] exp(-r_i t).
    // (Mixed repeated rates have no such product form; sampling and
    // moments still work for them, only the closed-form CDF needs
    // the restriction.)
    std::set<double> distinct(rates_.begin(), rates_.end());
    RETSIM_ASSERT(distinct.size() == rates_.size(),
                  "closed-form CDF requires all-distinct or "
                  "all-equal stage rates");
    double f = 1.0;
    for (std::size_t i = 0; i < rates_.size(); ++i) {
        double coeff = 1.0;
        for (std::size_t j = 0; j < rates_.size(); ++j) {
            if (j == i)
                continue;
            coeff *= rates_[j] / (rates_[j] - rates_[i]);
        }
        f -= coeff * std::exp(-rates_[i] * t);
    }
    return std::min(std::max(f, 0.0), 1.0);
}

} // namespace core
} // namespace retsim

#include "core/energy_to_lambda.hh"

#include <bit>
#include <cmath>

#include "obs/metrics.hh"
#include "simd/kernels.hh"
#include "util/fixed_point.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

double
realLambda(double e, double t, const RsuConfig &cfg)
{
    RETSIM_ASSERT(t > 0.0, "temperature must be positive");
    // retsim vecmath, not std::exp: entry e of a batched LambdaLut
    // build must equal the scalar conversion bit for bit.
    return simd::sexp(-e / t) * static_cast<double>(cfg.lambdaMax());
}

std::uint32_t
quantizeLambdaFromReal(double real, const RsuConfig &cfg)
{
    RETSIM_ASSERT(cfg.lambdaQuant != LambdaQuant::Float,
                  "quantizeLambda called in float-lambda mode");
    const std::uint32_t lambda_max = cfg.lambdaMax();
    // Truncate the scaled rate to the nearest integer (Sec. III-C.2).
    std::uint64_t li = util::truncateToInt(real);
    if (li < 1) {
        // Probability too small for lambda_0: cut off, or clamp up to
        // lambda_0 as the previous design did.
        return cfg.probabilityCutoff ? 0u : 1u;
    }
    if (cfg.lambdaQuant == LambdaQuant::Pow2)
        li = util::floorPow2(li);
    if (li > lambda_max)
        li = lambda_max;
    return static_cast<std::uint32_t>(li);
}

std::uint32_t
quantizeLambda(double e, double t, const RsuConfig &cfg)
{
    RETSIM_ASSERT(cfg.lambdaQuant != LambdaQuant::Float,
                  "quantizeLambda called in float-lambda mode");
    if (e <= 0.0)
        return cfg.lambdaMax(); // E = 0 maps to the largest lambda
    return quantizeLambdaFromReal(realLambda(e, t, cfg), cfg);
}

LambdaLut::LambdaLut(const RsuConfig &cfg, double temperature)
    : cfg_(cfg), temperature_(temperature)
{
    cfg.validate();
    RETSIM_ASSERT(temperature > 0.0, "temperature must be positive");
    std::size_t entries = std::size_t{1} << cfg.energyBits;
    table_.resize(entries);
    // Batched build: one dispatched expBatch over the -e/T grid, then
    // the shared integer quantization per entry.  expBatch lanes are
    // bit-identical to the sexp() inside realLambda(), so the table
    // matches a quantizeLambda() loop exactly (asserted by tests).
    std::vector<double> exps(entries);
    for (std::size_t e = 0; e < entries; ++e)
        exps[e] = -static_cast<double>(e) / temperature;
    simd::kernels().expBatch(exps.data(), exps.data(), entries);
    const double scale = static_cast<double>(cfg.lambdaMax());
    table_[0] = cfg.lambdaMax(); // E = 0 maps to the largest lambda
    for (std::size_t e = 1; e < entries; ++e)
        table_[e] = quantizeLambdaFromReal(exps[e] * scale, cfg);
}

std::uint32_t
LambdaLut::lookup(std::uint64_t energy) const
{
    if (energy >= table_.size())
        energy = table_.size() - 1;
    return table_[energy];
}

unsigned
LambdaLut::memoryBits() const
{
    return static_cast<unsigned>(table_.size()) * cfg_.lambdaBits;
}

unsigned
LambdaLut::updateCycles(unsigned interface_bits) const
{
    RETSIM_ASSERT(interface_bits >= 1, "interface width must be >= 1");
    return (memoryBits() + interface_bits - 1) / interface_bits;
}

LambdaLutCache &
LambdaLutCache::global()
{
    static LambdaLutCache cache;
    return cache;
}

LambdaLutCache::Key
LambdaLutCache::makeKey(const RsuConfig &cfg, double temperature)
{
    // Pack exactly the fields quantizeLambda() depends on; configs
    // differing only in scaling/time parameters share a table.
    std::uint64_t packed = cfg.energyBits;
    packed = (packed << 8) | cfg.lambdaBits;
    packed = (packed << 2) | static_cast<unsigned>(cfg.lambdaQuant);
    packed = (packed << 1) | (cfg.probabilityCutoff ? 1u : 0u);
    return {packed, std::bit_cast<std::uint64_t>(temperature)};
}

namespace {

/** Registry mirrors of the cache counters (solver telemetry reads
 *  them by name, so the mrf layer never includes this header). */
struct LutCacheMetricIds
{
    obs::MetricId hits;
    obs::MetricId misses;
    obs::MetricId tables;

    static const LutCacheMetricIds &get()
    {
        static const LutCacheMetricIds ids = [] {
            obs::Registry &r = obs::Registry::global();
            return LutCacheMetricIds{
                r.counter("core.lambda_lut.hits"),
                r.counter("core.lambda_lut.misses"),
                r.gauge("core.lambda_lut.tables"),
            };
        }();
        return ids;
    }
};

} // namespace

std::shared_ptr<const LambdaLut>
LambdaLutCache::get(const RsuConfig &cfg, double temperature)
{
    RETSIM_ASSERT(cfg.lambdaQuant != LambdaQuant::Float,
                  "no LUT exists in float-lambda mode");
    const LutCacheMetricIds &ids = LutCacheMetricIds::get();
    obs::Registry &reg = obs::Registry::global();
    const auto build = [&] {
        return std::make_shared<const LambdaLut>(cfg, temperature);
    };
    bool built = false;
    const std::shared_ptr<const LambdaLut> *slot =
        tables_.get(makeKey(cfg, temperature), build, &built);
    if (slot && !built) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        reg.add(ids.hits, 1);
        return *slot;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    reg.add(ids.misses, 1);
    reg.set(ids.tables, static_cast<double>(tables_.size()));
    return slot ? *slot : build(); // full: an uncached table
}

void
LambdaLutCache::clear()
{
    tables_.clear();
    hits_.store(0);
    misses_.store(0);
}

LambdaComparator::LambdaComparator(const RsuConfig &cfg,
                                   double temperature)
    : cfg_(cfg), temperature_(temperature)
{
    cfg.validate();
    // Derive boundaries by scanning the same quantization the LUT
    // stores: codes are non-increasing in energy, so the boundary of a
    // code is the largest energy still mapping to it.  Scanning makes
    // the comparator bit-identical to the LUT by construction.
    std::size_t entries = std::size_t{1} << cfg.energyBits;
    std::uint32_t prev = 0;
    for (std::size_t e = 0; e < entries; ++e) {
        std::uint32_t code =
            quantizeLambda(static_cast<double>(e), temperature, cfg);
        if (e == 0) {
            prev = code;
            continue;
        }
        RETSIM_ASSERT(code <= prev,
                      "lambda codes must be non-increasing in energy");
        if (code != prev) {
            if (prev != 0) {
                boundaries_.push_back(e - 1);
                codes_.push_back(prev);
            }
            prev = code;
        }
    }
    if (prev != 0) {
        boundaries_.push_back(entries - 1);
        codes_.push_back(prev);
    }
    RETSIM_ASSERT(!codes_.empty(),
                  "conversion table maps every energy to cut-off");
}

std::uint32_t
LambdaComparator::convert(std::uint64_t energy) const
{
    for (std::size_t k = 0; k < boundaries_.size(); ++k) {
        if (energy <= boundaries_[k])
            return codes_[k];
    }
    // Beyond the last boundary: cut off, or clamp to the smallest
    // supported rate when cut-off is disabled.
    return cfg_.probabilityCutoff ? 0u : codes_.back();
}

unsigned
LambdaComparator::memoryBits() const
{
    return static_cast<unsigned>(boundaries_.size()) * cfg_.energyBits;
}

unsigned
LambdaComparator::updateCycles(unsigned interface_bits) const
{
    RETSIM_ASSERT(interface_bits >= 1, "interface width must be >= 1");
    return (memoryBits() + interface_bits - 1) / interface_bits;
}

} // namespace core
} // namespace retsim

#include "core/rate_binding.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "core/energy_to_lambda.hh"
#include "core/race_fastpath.hh"
#include "obs/metrics.hh"
#include "simd/kernels.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

namespace {

/** Registry mirrors of the handle counters, like core.lambda_lut.*. */
struct BindingMetricIds
{
    obs::MetricId hits;
    obs::MetricId builds;

    static const BindingMetricIds &get()
    {
        static const BindingMetricIds ids = [] {
            obs::Registry &r = obs::Registry::global();
            return BindingMetricIds{
                r.counter("core.rate_binding.hits"),
                r.counter("core.rate_binding.builds"),
            };
        }();
        return ids;
    }
};

/** Fill @p b's fast-path classification of its rate table over the
 *  binder's alphabet so far, @p incoming. */
void
classifyTable(RateBinding &b, std::span<const double> incoming,
              std::uint64_t mode_word)
{
    const std::vector<double> &table = b.rateTable;
    // Distinct rates of the table.
    std::vector<double> distinct(table.begin(), table.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    // Keep the alphabet STABLE across rebinds: the quantized designs
    // draw every temperature's rates from one fixed code set, so
    // after the first bind new tables are subsets and the class
    // indexing — and with it the packed table — stays valid.  Only a
    // genuinely new rate value grows the alphabet (union) and moves
    // to another packed table.
    if (std::includes(incoming.begin(), incoming.end(),
                      distinct.begin(), distinct.end())) {
        b.alphabet.assign(incoming.begin(), incoming.end());
    } else {
        std::vector<double> merged;
        merged.reserve(incoming.size() + distinct.size());
        std::set_union(incoming.begin(), incoming.end(),
                       distinct.begin(), distinct.end(),
                       std::back_inserter(merged));
        // Runaway guard: continuous-ish rate streams would grow the
        // union forever; reset to the live table instead.
        b.alphabet = merged.size() <= 64 ? std::move(merged)
                                         : std::move(distinct);
    }
    const std::vector<double> &alphabet = b.alphabet;
    RETSIM_ASSERT(alphabet.size() < 0x10000,
                  "rate alphabet too large for the fast path");
    b.tieP.resize(alphabet.size());
    for (std::size_t c = 0; c < alphabet.size(); ++c)
        b.tieP[c] =
            alphabet[c] > 0.0 ? 1.0 - simd::sexp(-alphabet[c]) : 0.0;
    b.zeroClass = !(alphabet[0] > 0.0) ? 0 : -1;
    b.packedOk = alphabet.size() <= 8;
    b.firingMask = 0;
    for (std::size_t c = 0; c < alphabet.size() && c < 8; ++c)
        if (alphabet[c] > 0.0)
            b.firingMask |= 0xffULL << (8 * c);
    // Class indices are alphabet positions, and count words with
    // them: the packed table is the alphabet's.
    if (b.packedOk)
        b.packed = RaceTableCache::global().packedTable(mode_word,
                                                        alphabet);

    b.classOf.resize(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto it =
            std::lower_bound(alphabet.begin(), alphabet.end(), table[i]);
        b.classOf[i] = static_cast<std::uint16_t>(it - alphabet.begin());
    }
    // Byte image of classOf for the fused quantize+classify kernel
    // (packed lane only — classes then fit a byte), padded so the
    // kernel's 32-bit gathers stay readable at the table edge.
    if (!b.packedOk)
        return;
    b.classBytes.assign(table.size() + 8, 0);
    for (std::size_t i = 0; i < table.size(); ++i)
        b.classBytes[i] = static_cast<std::uint8_t>(b.classOf[i]);
}

} // namespace

std::shared_ptr<const RateBinding>
RateBinding::make(std::vector<double> rate_table,
                  std::span<const double> incoming,
                  const std::uint64_t *mode_word)
{
    RETSIM_ASSERT(!rate_table.empty(), "binding an empty rate table");
    auto b = std::make_shared<RateBinding>();
    b->rateTable = std::move(rate_table);
    const std::vector<double> &t = b->rateTable;
    b->firingBound = static_cast<std::size_t>(
        std::find_if(t.begin(), t.end(),
                     [](double r) { return !(r > 0.0); }) -
        t.begin());
    if (mode_word)
        classifyTable(*b, incoming, *mode_word);
    return b;
}

RateBindingCache::RateBindingCache(const RsuConfig &cfg, bool classify)
    : cfg_(cfg), classify_(classify),
      modeWord_(RaceTableCache::modeWord(cfg))
{
}

void
RateBindingCache::share()
{
    std::lock_guard<std::mutex> lock(mutex_);
    shared_ = true;
}

std::vector<double>
RateBindingCache::buildTable(double temperature,
                             const LambdaLut *lut) const
{
    const double lambda0 = cfg_.lambda0();
    const std::size_t entries = std::size_t{1} << cfg_.energyBits;
    std::vector<double> table(entries);
    if (cfg_.lambdaQuant == LambdaQuant::Float) {
        // Batched build: expBatch over the -e/T grid is bit-identical
        // to the sexp() inside realLambda(), and the two scale
        // multiplies keep realLambda()'s association order.
        const double scale = static_cast<double>(cfg_.lambdaMax());
        for (std::size_t e = 0; e < entries; ++e)
            table[e] = -static_cast<double>(e) / temperature;
        simd::kernels().expBatch(table.data(), table.data(), entries);
        for (std::size_t e = 0; e < entries; ++e)
            table[e] = table[e] * scale * lambda0;
    } else {
        RETSIM_ASSERT(lut && lut->temperature() == temperature,
                      "rate table needs the LUT of its temperature");
        for (std::size_t e = 0; e < entries; ++e)
            table[e] = static_cast<double>(lut->lookup(e)) * lambda0;
    }
    return table;
}

std::shared_ptr<const RateBinding>
RateBindingCache::bind(double temperature, const LambdaLut *lut,
                       const std::shared_ptr<const RateBinding> &incoming)
{
    const BindingMetricIds &ids = BindingMetricIds::get();
    obs::Registry &reg = obs::Registry::global();
    const std::uint64_t t_bits = std::bit_cast<std::uint64_t>(temperature);
    const std::span<const double> alphabet =
        incoming ? std::span<const double>(incoming->alphabet)
                 : std::span<const double>();
    const auto same_key = [&](const Entry &e) {
        return e.binding && e.temperatureBits == t_bits &&
               std::equal(e.incoming.begin(), e.incoming.end(),
                          alphabet.begin(), alphabet.end());
    };

    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry &e : recent_) {
        if (same_key(e)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            reg.add(ids.hits, 1);
            return e.binding;
        }
    }
    // Built under the lock, so a run's clones racing to one new
    // temperature build it once and the rest hit.
    std::vector<double> table = buildTable(temperature, lut);
    // An unshared handle's one binder holds its binding itself, so
    // the handle keeps only the newest (slot 0) and a binding left
    // behind is freed; once shared, the ring resumes after slot 0.
    const std::size_t at = shared_ ? next_ : 0;
    next_ = (at + 1) % kRecent;
    Entry &slot = recent_[at];
    slot.temperatureBits = t_bits;
    slot.incoming.assign(alphabet.begin(), alphabet.end());
    // Content-identical rebind: the incoming binding already is this
    // table's binding (the union rule adds nothing to an alphabet
    // built over the same table), so keep it and skip classifying.
    if (incoming && incoming->rateTable == table)
        slot.binding = incoming;
    else
        slot.binding = RateBinding::make(std::move(table), alphabet,
                                         classify_ ? &modeWord_
                                                   : nullptr);
    // A built table is non-increasing in energy and cut-off zeroes
    // only its tail, so every entry past firingBound is zero: the
    // literal draw's firing test (index < firingBound) relies on it.
    const RateBinding &b = *slot.binding;
    RETSIM_ASSERT(std::all_of(b.rateTable.begin() + b.firingBound,
                              b.rateTable.end(),
                              [](double r) { return r == 0.0; }),
                  "rate table is not a positive prefix and a zero tail");
    builds_.fetch_add(1, std::memory_order_relaxed);
    reg.add(ids.builds, 1);
    return slot.binding;
}

} // namespace core
} // namespace retsim

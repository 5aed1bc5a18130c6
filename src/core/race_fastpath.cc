#include "core/race_fastpath.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "obs/metrics.hh"
#include "simd/kernels.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

namespace {

/** Walker/Vose alias construction over the (normalized) pmf. */
void
buildAlias(RaceTable &t)
{
    const std::size_t k = t.pmf.size();
    RETSIM_ASSERT(k >= 1, "empty race table");
    double sum = 0.0;
    for (double p : t.pmf)
        sum += p;
    RETSIM_ASSERT(sum > 0.0, "race table pmf sums to zero");
    t.aliasProb.assign(k, 1.0);
    t.alias.resize(k);
    std::vector<double> scaled(k);
    for (std::size_t i = 0; i < k; ++i) {
        scaled[i] = t.pmf[i] / sum * static_cast<double>(k);
        t.alias[i] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < k; ++i)
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<std::uint32_t>(i));
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        const std::uint32_t l = large.back();
        small.pop_back();
        t.aliasProb[s] = scaled[s];
        t.alias[s] = l;
        scaled[l] -= 1.0 - scaled[s];
        if (scaled[l] < 1.0) {
            large.pop_back();
            small.push_back(l);
        }
    }
    // Leftovers (rounding): both stacks hold columns that are full.
    for (std::uint32_t i : small)
        t.aliasProb[i] = 1.0;
    for (std::uint32_t i : large)
        t.aliasProb[i] = 1.0;
}

/**
 * Random tie-break class table: the exact conditional law of (winner
 * class, tie) given that the race fired in an interior bin.  By
 * memorylessness each firing label independently shares the minimum
 * bin with probability p = 1 - e^{-rate}; a random arbiter is
 * exchangeable, so one slot per equal-rate class with the winner
 * uniform among the class's members.  For a winner in class c tied
 * with k other labels the win probability carries a 1/(k+1) factor;
 * the tie-size distribution is read off the product polynomial
 * prod_j (q_j + p_j x) over the other labels, expanded per class.
 * No bin index and no truncation policy enter the table — that is
 * what makes it shareable across window lengths and policies, and
 * O(C m^2) to build instead of O(C m^2 T).
 */
RaceTable
buildClassTable(
    const std::vector<std::pair<double, std::uint32_t>> &classes)
{
    RETSIM_ASSERT(!classes.empty(),
                  "class race table needs a firing class");
    const std::size_t c_n = classes.size();
    std::size_t m = 0;
    for (const auto &[rate, count] : classes)
        m += count;
    std::vector<double> p(c_n), q(c_n);
    for (std::size_t c = 0; c < c_n; ++c) {
        RETSIM_ASSERT(classes[c].first > 0.0 && classes[c].second > 0,
                      "class race key holds a non-firing class");
        q[c] = simd::sexp(-classes[c].first);
        p[c] = 1.0 - q[c];
    }

    RaceTable t;
    t.slots = c_n;
    t.pmf.assign(2 * c_n, 0.0);

    std::vector<double> poly, next;
    poly.reserve(m);
    next.reserve(m);
    for (std::size_t c = 0; c < c_n; ++c) {
        const double n_c = static_cast<double>(classes[c].second);
        // Product polynomial over the m-1 other labels.
        poly.assign(1, 1.0);
        for (std::size_t c2 = 0; c2 < c_n; ++c2) {
            const std::uint32_t reps =
                classes[c2].second - (c2 == c ? 1u : 0u);
            for (std::uint32_t rep = 0; rep < reps; ++rep) {
                next.assign(poly.size() + 1, 0.0);
                for (std::size_t d = 0; d < poly.size(); ++d) {
                    next[d] += poly[d] * q[c2];
                    next[d + 1] += poly[d] * p[c2];
                }
                poly.swap(next);
            }
        }
        double tie_mass = 0.0;
        for (std::size_t k = 1; k < poly.size(); ++k)
            tie_mass += poly[k] / static_cast<double>(k + 1);
        t.pmf[2 * c] = n_c * p[c] * poly[0];
        t.pmf[2 * c + 1] = n_c * p[c] * std::max(tie_mass, 0.0);
    }
    // buildAlias normalizes by the pmf sum, which equals the exact
    // P(at least one label fires the minimum bin) — the conditioning.
    buildAlias(t);
    return t;
}

/** Registry mirrors of the cache counters, like core.lambda_lut.*. */
struct RaceCacheMetricIds
{
    obs::MetricId hits;
    obs::MetricId misses;
    obs::MetricId tables;
    /** RaceTableCache::packedBytes(), set whenever a packed table
     *  grows.  A gauge: the tables outlive every sampler, so there is
     *  no per-operation delta to count. */
    obs::MetricId tableBytes;

    static const RaceCacheMetricIds &get()
    {
        static const RaceCacheMetricIds ids = [] {
            obs::Registry &r = obs::Registry::global();
            return RaceCacheMetricIds{
                r.counter("core.race_fastpath.hits"),
                r.counter("core.race_fastpath.misses"),
                r.gauge("core.race_fastpath.tables"),
                r.gauge("core.race_fastpath.table_bytes"),
            };
        }();
        return ids;
    }
};

/**
 * SWAR byte-compare: bit i of the result is set iff byte i of @p x
 * equals @p b (b in [0, 255]).  Carry-free zero-byte detect — the
 * classic (v - k1) & ~v trick miscounts a 0x01 byte right above a
 * zero byte, so the per-byte 0x7f add is used instead — then the
 * multiply folds the per-byte 0x80 flags into one 8-bit mask.
 */
std::uint64_t
byteEqMask(std::uint64_t x, std::uint64_t b)
{
    constexpr std::uint64_t k7f = 0x7f7f7f7f7f7f7f7fULL;
    const std::uint64_t v = x ^ (b * 0x0101010101010101ULL);
    const std::uint64_t t = (v & k7f) + k7f;
    const std::uint64_t z = ~(t | v) & ~k7f; // 0x80 where byte == b
    return ((z >> 7) * 0x0102040810204080ULL) >> 56;
}

} // namespace

RaceTableCache &
RaceTableCache::global()
{
    static RaceTableCache cache;
    return cache;
}

std::uint64_t
RaceTableCache::modeWord(const RsuConfig &cfg)
{
    // Self-description only: the class-table content is independent
    // of the window length and truncation policy (both are resolved
    // before the table is consulted), but a decodable word 0 keeps
    // every key meaningful on its own.
    std::uint64_t w = cfg.tMaxBins();
    w = (w << 2) | static_cast<unsigned>(cfg.tieBreak);
    w = (w << 1) |
        (cfg.truncationPolicy == TruncationPolicy::InfiniteTtf ? 1u
                                                               : 0u);
    return w;
}

RaceTable
RaceTableCache::buildFromKey(const Key &key)
{
    RETSIM_ASSERT(key.size() >= 3 && (key.size() - 1) % 2 == 0,
                  "class race key needs (rate, count) pairs");
    std::vector<std::pair<double, std::uint32_t>> classes;
    classes.reserve((key.size() - 1) / 2);
    for (std::size_t i = 1; i + 1 < key.size(); i += 2)
        classes.emplace_back(
            std::bit_cast<double>(key[i]),
            static_cast<std::uint32_t>(key[i + 1]));
    return buildClassTable(classes);
}

std::shared_ptr<const RaceTable>
RaceTableCache::get(const Key &key)
{
    const RaceCacheMetricIds &ids = RaceCacheMetricIds::get();
    obs::Registry &reg = obs::Registry::global();
    const auto build = [&] {
        return std::make_shared<const RaceTable>(buildFromKey(key));
    };
    bool built = false;
    const std::shared_ptr<const RaceTable> *slot =
        tables_.get(key, build, &built);
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
RaceTableCache::countHits(std::uint64_t n)
{
    hits_.fetch_add(n, std::memory_order_relaxed);
    obs::Registry::global().add(RaceCacheMetricIds::get().hits, n);
}

RaceTable
RaceTableCache::buildUncached(const Key &key)
{
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::global().add(RaceCacheMetricIds::get().misses, 1);
    return buildFromKey(key);
}

const RaceTable *
RaceTableCache::find(const Key &key) const
{
    const std::shared_ptr<const RaceTable> *slot = tables_.find(key);
    return slot ? slot->get() : nullptr;
}

std::shared_ptr<RaceTableCache::PackedTable>
RaceTableCache::packedTable(std::uint64_t mode_word,
                            std::span<const double> alphabet)
{
    Key key;
    key.reserve(alphabet.size() + 1);
    key.push_back(mode_word);
    for (double rate : alphabet)
        key.push_back(std::bit_cast<std::uint64_t>(rate));
    const auto build = [] {
        return std::make_shared<PackedTable>(kMaxPackedEntries);
    };
    const std::shared_ptr<PackedTable> *slot = packed_.get(key, build);
    return slot ? *slot : build(); // full: a table of its own
}

std::size_t
RaceTableCache::packedBytes() const
{
    std::size_t bytes = 0;
    packed_.forEach([&](const Key &, const std::shared_ptr<PackedTable> &t) {
        bytes += t->bytes();
    });
    return bytes;
}

void
RaceTableCache::clear()
{
    tables_.clear();
    packed_.forEach([](const Key &, const std::shared_ptr<PackedTable> &t) {
        t->clear();
    });
    hits_.store(0);
    misses_.store(0);
}

RaceFastPath::RaceFastPath(const RsuConfig &cfg) : cfg_(cfg)
{
    RETSIM_ASSERT(supported(cfg),
                  "RaceFastPath constructed for unsupported config");
    ordered_ = cfg.tieBreak != TieBreak::Random;
    lastTie_ = cfg.tieBreak == TieBreak::Last;
    drop_ = cfg.truncationPolicy == TruncationPolicy::InfiniteTtf;
    drawsPerPixel_ = cfg.timeQuant == TimeQuant::Float ? 1u : 3u;
    tMax_ = static_cast<double>(cfg.tMaxBins());
    modeWord_ = RaceTableCache::modeWord(cfg);
}

bool
RaceFastPath::supported(const RsuConfig &cfg)
{
    if (cfg.timeQuant == TimeQuant::Float)
        return true;
    return !cfg.floatEnergy && cfg.lambdaQuant != LambdaQuant::Float;
}

bool
RaceFastPath::autoEligible(const RsuConfig &cfg)
{
    return cfg.timeQuant == TimeQuant::Float ||
           cfg.tieBreak != TieBreak::Random;
}

bool
RaceFastPath::resolve(const RsuConfig &cfg)
{
    switch (cfg.raceMode) {
      case RaceMode::Race:
        return false;
      case RaceMode::FastPath:
        if (!supported(cfg))
            RETSIM_FATAL(
                "race_mode=fastpath is unsupported for ",
                cfg.describe(),
                " (binned fastpath needs quantized energies and a "
                "non-float lambda; use race_mode=auto to fall back)");
        return true;
      case RaceMode::Auto:
        return supported(cfg) && autoEligible(cfg);
    }
    return false;
}

void
RaceFastPath::bind(std::shared_ptr<const RateBinding> binding)
{
    RETSIM_ASSERT(binding && !binding->classOf.empty(),
                  "fast path bound to an unclassified rate binding");
    binding_ = std::move(binding);
}

void
RaceFastPath::bindRateTable(std::span<const double> rate_table)
{
    bind(RateBinding::make(
        std::vector<double>(rate_table.begin(), rate_table.end()),
        binding_ ? std::span<const double>(binding_->alphabet)
                 : std::span<const double>(),
        &modeWord_));
}

template <typename Count>
void
RaceFastPath::classKey(std::span<const double> alphabet, Count count,
                       std::uint8_t *slot_class)
{
    key_.clear();
    key_.push_back(modeWord_);
    std::size_t slot = 0;
    for (std::size_t c = 0; c < alphabet.size(); ++c) {
        const std::uint64_t cnt = count(c);
        if (cnt == 0 || !(alphabet[c] > 0.0))
            continue;
        key_.push_back(std::bit_cast<std::uint64_t>(alphabet[c]));
        key_.push_back(cnt);
        if (slot_class)
            slot_class[slot++] = static_cast<std::uint8_t>(c);
    }
}

const RaceTable *
RaceFastPath::lookupClassTable()
{
    classKey(binding_->alphabet,
             [&](std::size_t c) { return counts_[c]; }, nullptr);
    RaceTableCache &cache = RaceTableCache::global();
    if (const RaceTable *t = cache.find(key_)) {
        ++classHits_;
        return t;
    }
    spillTable_ = cache.get(key_);
    return spillTable_.get();
}

PackedRaceEntry
RaceFastPath::buildPacked(const RateBinding &b, std::uint64_t word)
{
    PackedRaceEntry e;
    // Decode the counts, build the transcendental gates, and (Random
    // lane) copy the class table's alias arrays in.
    const std::vector<double> &alphabet = b.alphabet;
    double r_tot = 0.0;
    for (std::size_t c = 0; c < alphabet.size(); ++c) {
        const double cnt = static_cast<double>((word >> (8 * c)) &
                                               0xff);
        if (alphabet[c] > 0.0)
            r_tot += cnt * alphabet[c];
    }
    e.qAll = simd::sexp(-r_tot);
    e.gate = drop_ ? 1.0 - simd::sexp(-r_tot * tMax_)
                   : 1.0 - simd::sexp(-r_tot * (tMax_ - 1.0));
    if (!ordered_) {
        classKey(alphabet,
                 [&](std::size_t c) { return (word >> (8 * c)) & 0xff; },
                 e.slotClass);
        // Built, not cached: the entry keeps its own copy, and the
        // shared packed table keeps the entry, so nothing would look
        // the class table up again.  Float thresholds perturb each
        // outcome probability by O(2^-24) — far below what any
        // statistical consumer can resolve.
        const RaceTable table = RaceTableCache::global().buildUncached(key_);
        const std::size_t k = table.outcomes();
        RETSIM_ASSERT(k <= 16,
                      "packed race entry overflow: > 8 classes");
        e.outcomes = static_cast<double>(k);
        for (std::size_t j = 0; j < k; ++j) {
            e.aliasProb[j] = static_cast<float>(table.aliasProb[j]);
            e.alias[j] = static_cast<std::uint8_t>(table.alias[j]);
        }
    }
    return e;
}

const PackedRaceEntry &
RaceFastPath::packedMiss(const RateBinding &b, std::uint64_t word,
                         std::uint64_t h)
{
    PackedRaceTable &table = *b.packed;
    const std::size_t bytes = table.bytes();
    const PackedRaceEntry *e =
        table.get(word, h, [&] { return buildPacked(b, word); });
    if (!e) {
        spill_ = buildPacked(b, word);
        return spill_;
    }
    if (table.bytes() != bytes)
        obs::Registry::global().set(
            RaceCacheMetricIds::get().tableBytes,
            static_cast<double>(RaceTableCache::global().packedBytes()));
    return *e;
}

void
RaceFastPath::raceEnergiesRow(const float *energies, double top,
                              bool subtract_min, std::size_t n,
                              std::size_t m, const double *u,
                              RaceOutcome *out)
{
    RETSIM_ASSERT(binding_, "raceEnergiesRow before a bind");
    const RateBinding &b = *binding_;
    const unsigned draws = drawsPerPixel_;
    const auto &kern = simd::kernels();
    if (!(b.packedOk && m <= 16)) {
        quantScratch_.resize(m);
        for (std::size_t p = 0; p < n; ++p) {
            const double e_min = kern.quantizeEnergies(
                energies + p * m, top, quantScratch_.data(), m);
            out[p] = raceGeneral(quantScratch_.data(),
                                 subtract_min ? e_min : 0.0, m,
                                 u + p * draws);
        }
        if (classHits_ != 0) {
            RaceTableCache::global().countHits(classHits_);
            classHits_ = 0;
        }
        return;
    }
    rowWords_.resize(3 * n);
    rowHash_.resize(n);
    kern.quantizeClassifyRow(energies, top, subtract_min,
                             b.classBytes.data(), n, m,
                             rowWords_.data());
    for (std::size_t p = 0; p < n; ++p) {
        // Pull the pixel's slots into cache while later pixels hash;
        // by the draw pass the probe is an L1 hit instead of a
        // serialized L2/L3 round-trip per pixel.
        rowHash_[p] = RaceTableCache::PackedTable::hash(rowWords_[3 * p]);
        b.packed->prefetch(rowHash_[p]);
    }
    for (std::size_t p = 0; p < n; ++p)
        out[p] = drawPacked(b, rowWords_[3 * p], rowWords_[3 * p + 1],
                            rowWords_[3 * p + 2], m, u + p * draws,
                            rowHash_[p]);
}

inline RaceOutcome
RaceFastPath::drawPacked(const RateBinding &b, std::uint64_t word,
                         std::uint64_t cw0, std::uint64_t cw1,
                         std::size_t m, const double *u, std::uint64_t h)
{
    RaceOutcome oc;
    if ((word & b.firingMask) == 0)
        return oc; // every label cut off: no sample

    const std::uint32_t len_mask =
        static_cast<std::uint32_t>((1u << m) - 1);
    // Firing labels as a bitmask over label positions.  Rate 0 is
    // always alphabet class 0 when present (the alphabet is sorted),
    // so "non-firing" is exactly "class byte == 0".  Deferred to the
    // paths that need it: the common Random interior draw selects by
    // class-equality masks instead and skips this work entirely.
    const auto fireMask = [&] {
        std::uint32_t fire = len_mask;
        if (b.zeroClass == 0)
            fire &= ~static_cast<std::uint32_t>(
                byteEqMask(cw0, 0) | (byteEqMask(cw1, 0) << 8));
        return fire;
    };

    const PackedRaceEntry &e = packedEntry(b, word, h);
    // u[0] against the tabulated gate replaces the explicit minimum-
    // bin exponential draw: P(fired) = 1 - e^{-R T} under the drop
    // policy; under clamp the gate splits interior bins from the
    // all-tie window-end bin at 1 - e^{-R (T-1)}.
    bool window_end = false;
    if (drop_) {
        if (!(u[0] < e.gate))
            return oc; // minimum beyond the window: nothing fired
    } else {
        window_end = !(u[0] < e.gate);
    }

    if (ordered_) {
        const std::uint32_t fire = fireMask();
        if (window_end) {
            // ClampToLastBin folds every firing label into bin T:
            // all of them tie and the arbiter resolves by position.
            oc.winner = lastTie_
                            ? 31 - std::countl_zero(fire)
                            : std::countr_zero(fire);
            oc.tie = (fire & (fire - 1)) != 0;
            return oc;
        }
        // Interior: first success (in arbiter order) of independent
        // Bernoullis p_i = 1 - e^{-rate_i} conditioned on >= 1,
        // drawn exactly by an inverse-CDF prefix walk — over the
        // fire-mask bits only, since a non-firing label can neither
        // win nor tie.
        const auto clsAt = [&](int i) {
            return (i < 8 ? cw0 >> (8 * i)
                          : cw1 >> (8 * (i - 8))) &
                   0xff;
        };
        const double target = u[1] * (1.0 - e.qAll);
        double pref = 1.0;
        double acc = 0.0;
        std::uint32_t rest = 0; // firing labels after the winner
        if (!lastTie_) {
            for (std::uint32_t f = fire; f; f &= f - 1) {
                const int i = std::countr_zero(f);
                const double p = b.tieP[clsAt(i)];
                const double w = pref * p;
                if (target < acc + w) {
                    oc.winner = i;
                    rest = f & (f - 1);
                    break;
                }
                acc += w;
                pref *= 1.0 - p;
            }
            if (oc.winner < 0) // rounding: last label in walk order
                oc.winner = 31 - std::countl_zero(fire);
        } else {
            for (std::uint32_t f = fire; f;) {
                const int i = 31 - std::countl_zero(f);
                f ^= 1u << i;
                const double p = b.tieP[clsAt(i)];
                const double w = pref * p;
                if (target < acc + w) {
                    oc.winner = i;
                    rest = f;
                    break;
                }
                acc += w;
                pref *= 1.0 - p;
            }
            if (oc.winner < 0) // rounding: last label in walk order
                oc.winner = std::countr_zero(fire);
        }
        // Tie flag: any success among the firing labels after the
        // winner in walk order (product order is immaterial).
        double rem = 1.0;
        for (std::uint32_t f = rest; f; f &= f - 1)
            rem *= 1.0 - b.tieP[clsAt(std::countr_zero(f))];
        oc.tie = u[2] < 1.0 - rem;
        return oc;
    }

    // Random tie-break: the winner is the rank-th set bit of a label
    // mask — the firing labels at the window end, the winning class's
    // members in the interior.
    std::uint32_t mask;
    std::uint32_t pool;
    if (window_end) {
        // Every firing label ties in bin T; uniform among them.
        mask = fireMask();
        pool = static_cast<std::uint32_t>(std::popcount(mask));
        oc.tie = pool > 1;
    } else {
        // (winner class, tie) from the entry's class table, then
        // the winner uniformly inside the class.  The alias slot's
        // fractional part is uniform and independent of the slot
        // index, so it doubles as the accept draw.
        const double x = u[1] * e.outcomes;
        std::size_t j = static_cast<std::size_t>(x);
        if (!(x < e.outcomes))
            j = static_cast<std::size_t>(e.outcomes) - 1;
        const std::size_t k = aliasPick(x - static_cast<double>(j),
                                        e.aliasProb[j], j, e.alias[j]);
        const std::uint64_t cls = e.slotClass[k >> 1];
        mask = static_cast<std::uint32_t>(
                   byteEqMask(cw0, cls) |
                   (byteEqMask(cw1, cls) << 8)) &
               len_mask;
        pool = static_cast<std::uint32_t>((word >> (8 * cls)) & 0xff);
        oc.tie = (k & 1) != 0;
    }
    std::uint32_t rank = static_cast<std::uint32_t>(
        u[2] * static_cast<double>(pool));
    if (rank >= pool)
        rank = pool - 1;
    oc.winner = selectBit16(mask, rank);
    return oc;
}

RaceOutcome
RaceFastPath::raceGeneral(const double *q, double base, std::size_t m,
                          const double *u)
{
    const RateBinding &b = *binding_;
    pixelClass_.resize(m);
    RaceOutcome oc;

    // Gather the pixel's rate classes and the total rate.
    double r_tot = 0.0;
    double q_all = 1.0; // prod (1 - p_i), forward label order
    unsigned n_fire = 0;
    if (!ordered_)
        counts_.assign(b.alphabet.size(), 0u);
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(q[i] - base);
        const std::uint16_t cls = b.classOf[idx];
        pixelClass_[i] = cls;
        const double r = b.alphabet[cls];
        if (r > 0.0) {
            r_tot += r;
            ++n_fire;
        }
        if (ordered_)
            q_all *= 1.0 - b.tieP[cls];
        else
            ++counts_[cls];
    }
    if (!(r_tot > 0.0))
        return oc; // every label cut off: no sample

    // The minimum bin is one exponential draw at the total rate
    // (min-of-exponentials); only its window cases matter — the
    // conditional (winner, tie) law is the same for every fired bin.
    const double tt = -simd::slog(1.0 - u[0]) / r_tot;
    if (drop_ && tt >= tMax_)
        return oc; // minimum beyond the window: nothing fired
    const bool window_end = !drop_ && tt >= tMax_ - 1.0;

    if (ordered_) {
        if (window_end) {
            // ClampToLastBin folds every firing label into bin T:
            // all of them tie and the arbiter resolves by position.
            if (lastTie_) {
                for (std::size_t i = m; i-- > 0;)
                    if (b.tieP[pixelClass_[i]] > 0.0) {
                        oc.winner = static_cast<int>(i);
                        break;
                    }
            } else {
                for (std::size_t i = 0; i < m; ++i)
                    if (b.tieP[pixelClass_[i]] > 0.0) {
                        oc.winner = static_cast<int>(i);
                        break;
                    }
            }
            oc.tie = n_fire > 1;
            return oc;
        }
        // Interior bin: the winner is the first success (in arbiter
        // order) of independent Bernoullis p_i = 1 - e^{-rate_i}
        // conditioned on at least one success, drawn exactly by an
        // inverse-CDF prefix walk: P(first = i) proportional to
        // p_i * prod_{j before i} (1 - p_j).
        const double target = u[1] * (1.0 - q_all);
        double pref = 1.0;
        double acc = 0.0;
        std::size_t w_k = 0;
        for (std::size_t k = 0; k < m; ++k) {
            const std::size_t i = lastTie_ ? m - 1 - k : k;
            const double p = b.tieP[pixelClass_[i]];
            if (p <= 0.0)
                continue;
            const double w = pref * p;
            if (target < acc + w) {
                oc.winner = static_cast<int>(i);
                w_k = k;
                break;
            }
            acc += w;
            pref *= 1.0 - p;
        }
        if (oc.winner < 0) {
            // Rounding left target at/after the accumulated mass:
            // fall back to the last firing label in walk order.
            for (std::size_t k = m; k-- > 0;) {
                const std::size_t i = lastTie_ ? m - 1 - k : k;
                if (b.tieP[pixelClass_[i]] > 0.0) {
                    oc.winner = static_cast<int>(i);
                    w_k = k;
                    break;
                }
            }
        }
        // Tie flag: did any label after the winner (in walk order)
        // also land in the minimum bin?
        double rem = 1.0;
        for (std::size_t k = w_k + 1; k < m; ++k) {
            const std::size_t i = lastTie_ ? m - 1 - k : k;
            rem *= 1.0 - b.tieP[pixelClass_[i]];
        }
        oc.tie = u[2] < 1.0 - rem;
        return oc;
    }

    // Random tie-break.
    if (window_end) {
        // Every firing label ties in bin T; uniform among them.
        std::size_t rank = static_cast<std::size_t>(
            u[2] * static_cast<double>(n_fire));
        if (rank >= n_fire)
            rank = n_fire - 1;
        for (std::size_t i = 0; i < m; ++i) {
            if (!(b.tieP[pixelClass_[i]] > 0.0))
                continue;
            if (rank == 0) {
                oc.winner = static_cast<int>(i);
                break;
            }
            --rank;
        }
        oc.tie = n_fire > 1;
        return oc;
    }
    // Interior bin: draw (winner class, tie) from the cached class
    // table — the alias slot's fractional part is uniform and
    // independent of the slot index, so it doubles as the accept
    // draw — then the winner uniformly inside the class.
    const RaceTable *table = lookupClassTable();
    const double x = u[1] * static_cast<double>(table->outcomes());
    std::size_t j = static_cast<std::size_t>(x);
    if (j >= table->outcomes())
        j = table->outcomes() - 1;
    const std::size_t k = x - static_cast<double>(j) <
                                  table->aliasProb[j]
                              ? j
                              : table->alias[j];
    std::size_t slot = k >> 1;
    std::size_t cls = 0;
    for (std::size_t c = 0; c < counts_.size(); ++c) {
        if (counts_[c] == 0 || !(b.alphabet[c] > 0.0))
            continue;
        if (slot == 0) {
            cls = c;
            break;
        }
        --slot;
    }
    const std::uint32_t n_c = counts_[cls];
    std::size_t rank = static_cast<std::size_t>(
        u[2] * static_cast<double>(n_c));
    if (rank >= n_c)
        rank = n_c - 1;
    for (std::size_t i = 0; i < m; ++i) {
        if (pixelClass_[i] != cls)
            continue;
        if (rank == 0) {
            oc.winner = static_cast<int>(i);
            break;
        }
        --rank;
    }
    oc.tie = (k & 1) != 0;
    return oc;
}

RaceOutcome
RaceFastPath::raceFloat(const double *rates, const std::uint32_t *labels,
                        std::size_t n, double u)
{
    RaceOutcome oc;
    if (n == 0)
        return oc; // every label cut off: no sample
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += rates[i];
    oc.contenders = static_cast<unsigned>(n);
    const double target = u * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += rates[i];
        if (target < acc) {
            oc.winner = static_cast<int>(labels[i]);
            return oc;
        }
    }
    // Rounding left target >= acc at the end.
    oc.winner = static_cast<int>(labels[n - 1]);
    return oc;
}

} // namespace core
} // namespace retsim

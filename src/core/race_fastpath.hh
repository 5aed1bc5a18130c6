/**
 * @file
 * Alias-table categorical fast path for the TTF race.
 *
 * The first-to-fire race over per-label exponentials realizes a
 * categorical distribution: in continuous time P(win = i) = rate_i /
 * sum(rate) exactly (the min-of-exponentials identity documented in
 * ttf_race.hh), and in binned time the joint law of (winner, tie,
 * no-fire) is a closed-form function of the rate vector.  Wherever
 * the cycle-accurate timing behavior is not itself under study, the
 * race can therefore be replaced by a handful of uniform draws
 * against precomputed quantities: m exponential draws + argmin
 * collapse to one-or-two table lookups and O(m) arithmetic.
 *
 * The binned decomposition rests on memorylessness.  A label with
 * rate r has the geometric bin law f(b) = e^{-r(b-1)}(1 - e^{-r}),
 * so P(bin = b | bin >= b) = 1 - e^{-r} independent of b.  Hence:
 *
 *  1. The minimum bin over the pixel is one binned exponential draw
 *     at the total rate R = sum(rate_i) — P(min > b) = e^{-Rb} —
 *     including the no-fire check (min beyond the window under the
 *     InfiniteTtf policy).
 *  2. Conditioned on the minimum landing in an interior bin, each
 *     firing label is tied (shares the minimum) independently with
 *     probability p_i = 1 - e^{-rate_i}, conditioned on >= 1 success
 *     — the same law for every interior bin.  Under ClampToLastBin
 *     the window-end bin is the one special case: every firing label
 *     ties there with probability 1.
 *
 * A First/Last tie-break then needs NO tables at all: the winner is
 * the first (last) success of a conditional independent-Bernoulli
 * sequence, drawn exactly with one uniform by an O(m) prefix walk,
 * plus one uniform for the tie flag.  A Random tie-break picks
 * uniformly among the tied set, whose composition couples all
 * labels; its (winner class, tie) conditional law is tabulated per
 * rate multiset — exchangeability lets equal-rate labels share one
 * table slot, with the winner drawn uniformly inside the class.  The
 * key is the (rate, count) multiset itself, temperature-free.  The
 * packed lane (<= 8 rate classes, m <= 16 labels) copies a table's
 * alias arrays into the packed entry of its count word; that entry,
 * shared process-wide per rate alphabet, is what temperatures,
 * stripes and sweeps share, so the class table is built and dropped.
 * Only the general lane caches class tables, in RaceTableCache,
 * because it reads one for every pixel.
 *
 * Correctness contract: the fast path is *distribution*-equivalent
 * to the literal race (chi-squared equivalence against a brute-force
 * enumeration of the exact joint law is asserted by
 * race_fastpath_test), not draw-for-draw equal — it consumes a
 * different, fixed number of uniforms per pixel.  That fixed draw
 * count makes every fastpath mode bulk-fillable, so RsuSampler's
 * per-pixel entry is its row entry's one-pixel case, and runs
 * checkpoint/replay byte-exactly.
 * Fastpath RaceOutcomes carry winner/tie/no-fire only; winningBin
 * and contenders (per-draw timing artifacts nothing downstream of
 * the samplers consumes) are reported as zero in binned mode.
 */

#ifndef RETSIM_CORE_RACE_FASTPATH_HH
#define RETSIM_CORE_RACE_FASTPATH_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rate_binding.hh"
#include "core/rsu_config.hh"
#include "core/ttf_race.hh"
#include "simd/kernels.hh"
#include "util/shared_table.hh"

namespace retsim {
namespace core {

/**
 * One compiled Random-tie race conditional: the exact (winner class,
 * tie) pmf given that at least one label fired in an interior bin,
 * and its Walker alias table.  Outcome encoding: k in [0, outcomes())
 * selects winner class slot k>>1 (key order) with tie flag k&1.  The
 * winner is drawn uniformly among the class's members by the caller;
 * no-fire and the ClampToLastBin window-end case are resolved by the
 * caller before the table is consulted.
 */
struct RaceTable
{
    std::vector<double> pmf;          ///< exact conditional pmf
    std::vector<double> aliasProb;    ///< Walker acceptance thresholds
    std::vector<std::uint32_t> alias; ///< Walker alias targets

    std::size_t outcomes() const { return pmf.size(); }
};

/**
 * Everything the packed lane's draw reads for one count word over a
 * bound rate alphabet (<= 8 classes, m <= 16 labels): the fired /
 * window-end uniform gate and e^{-R}, plus (Random lane) a
 * self-contained copy of the class table's alias method (float
 * thresholds, byte targets — a <= 8 class alphabet has <= 16
 * outcomes) and its slot -> alphabet-class map, so the hot draw does
 * no log/exp and touches no memory outside the entry's slot: two
 * adjacent cache lines, no heap hops.  (Keeping the arrays by pointer
 * instead measures slower: the per-table heap vectors scatter, and
 * the draw picks up a dependent load.)  An entry is a pure function
 * of (mode word, alphabet, count word).
 */
struct PackedRaceEntry
{
    double gate = 0.0;     ///< fired (drop) / interior (clamp) gate
    double qAll = 1.0;     ///< e^{-r_tot}
    double outcomes = 0.0; ///< table outcome count (2 * classes)
    std::uint8_t slotClass[8] = {};
    std::uint8_t alias[16] = {};
    float aliasProb[16] = {};
};

/**
 * Process-wide store of the fast path's race entries: one table of
 * PackedRaceEntry per (mode word, rate alphabet) that every
 * RaceFastPath bound to that alphabet probes on its per-pixel path,
 * and the general lane's Random-tie RaceTables.  All are
 * util::SharedTables, so a hit takes no lock, and stripe clones share
 * every entry instead of each re-learning them.
 *
 * A RaceTable key is fully self-describing — word 0 packs the mode
 * bits and the remaining words carry ascending (rate bit pattern,
 * count) pairs over the firing classes — so the cache builds missing
 * tables from the key alone.  Temperature is deliberately NOT part of
 * the key: the rates already capture it, so revisited annealing rungs
 * and coinciding code vectors at different temperatures share one
 * general-lane build.  The packed lane builds its class tables with
 * buildUncached(): each is copied into one packed entry, which the
 * shared packed table then keeps, so a cached copy would never be
 * read again.
 */
class RaceTableCache
{
  public:
    using Key = std::vector<std::uint64_t>;
    /** Packed entries of one (mode word, alphabet), by count word. */
    using PackedTable = PackedRaceTable;

    /** The process-wide instance used by the samplers. */
    static RaceTableCache &global();

    /** Fetch-or-build the table for a canonical key; counts a hit or
     *  a miss. */
    std::shared_ptr<const RaceTable> get(const Key &key);

    /** Count @p n hits a caller served through find(), tallied over
     *  a row so the per-pixel probe stays free of atomics. */
    void countHits(std::uint64_t n);

    /** Build the table for a canonical key without caching it, for a
     *  caller that copies it out once; counts a miss (a table built). */
    RaceTable buildUncached(const Key &key);

    /** The table for @p key if one is cached, else null: one lock-free
     *  probe, not counted (see countHits()). */
    const RaceTable *find(const Key &key) const;

    /**
     * The packed-entry table of (@p mode_word, @p alphabet), created
     * empty on first request and kept as long as the cache.
     */
    std::shared_ptr<PackedTable> packedTable(
        std::uint64_t mode_word, std::span<const double> alphabet);

    /** Slot bytes held by every packed table
     *  (core.race_fastpath.table_bytes). */
    std::size_t packedBytes() const;

    /** Pack key word 0 from the config's race-relevant fields. */
    static std::uint64_t modeWord(const RsuConfig &cfg);

    /** Build a table directly from a canonical key (exposed so the
     *  statistical tests can inspect the exact conditional pmf
     *  without going through a sampler). */
    static RaceTable buildFromKey(const Key &key);

    /** Tables currently held (general lane only). */
    std::size_t size() const { return tables_.size(); }
    /** get() calls answered without building (general lane only). */
    std::uint64_t hits() const { return hits_.load(); }
    /** Class tables built: get() misses plus buildUncached() calls,
     *  so every lane's builds count (core.race_fastpath.misses). */
    std::uint64_t misses() const { return misses_.load(); }

    /** Empty the race tables and every packed table and reset the
     *  counters (tests and benches, while no sampler draws: see
     *  util::SharedTable::clear). */
    void clear();

  private:
    /** Entries each table holds before it stops inserting (later
     *  misses build uncached); a safety valve for workloads that
     *  never repeat a rate multiset. */
    static constexpr std::size_t kMaxEntries = 65536;
    static constexpr std::size_t kMaxPackedEntries = 32768;
    static constexpr std::size_t kMaxPackedTables = 1024;

    util::SharedTable<Key, std::shared_ptr<const RaceTable>> tables_{
        kMaxEntries};
    /** (mode word, alphabet rate bits) -> packed table. */
    util::SharedTable<Key, std::shared_ptr<PackedTable>> packed_{
        kMaxPackedTables};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/**
 * Position of the @p rank-th (0-based) set bit of a 16-bit @p mask
 * (rank < popcount(mask)): a branch-free bisection over SWAR partial
 * popcounts (2-, 4- and 8-bit fields), with no loop and no popcount
 * instruction, so it costs the same for every rank.
 */
inline int
selectBit16(std::uint32_t mask, std::uint32_t rank)
{
    const std::uint32_t c2 = mask - ((mask >> 1) & 0x5555u);
    const std::uint32_t c4 = (c2 & 0x3333u) + ((c2 >> 2) & 0x3333u);
    const std::uint32_t c8 = (c4 + (c4 >> 4)) & 0x0f0fu;
    std::uint32_t pos = 0;
    // At each level, skip the low half of the current window when the
    // rank lies past its population.
    std::uint32_t c = c8 & 0xffu;
    std::uint32_t t = rank >= c;
    rank -= c & (0u - t);
    pos += t << 3;
    c = (c4 >> pos) & 0xfu;
    t = rank >= c;
    rank -= c & (0u - t);
    pos += t << 2;
    c = (c2 >> pos) & 0x3u;
    t = rank >= c;
    rank -= c & (0u - t);
    pos += t << 1;
    c = (mask >> pos) & 0x1u;
    pos += rank >= c;
    return static_cast<int>(pos);
}

/** Walker alias pick without a branch: column @p j when @p frac <
 *  @p prob, else its alias @p alias. */
inline std::size_t
aliasPick(double frac, float prob, std::size_t j, std::size_t alias)
{
    const std::size_t keep = std::size_t{0} - (frac < prob);
    return alias ^ ((alias ^ j) & keep);
}

/**
 * Per-sampler fast-path state: the bound RateBinding (the quantized-
 * energy -> rate-class mapping, per-class tie probabilities and the
 * shared packed table of the alphabet), row scratch, and the
 * per-pixel draw routines.  One instance per RsuSampler; stripe clones
 * each own theirs, but they share their bindings through the run's
 * RateBindingCache and every race entry through RaceTableCache, whose
 * hits take no lock.
 */
class RaceFastPath
{
  public:
    explicit RaceFastPath(const RsuConfig &cfg);

    /** Row-cache tallies, read only by perfbench's TracingSampler. */
    struct RowCacheStats
    {
        std::uint64_t drawHits = 0;
        std::uint64_t classifyHits = 0;
        std::uint64_t misses = 0;
    };

    /** Can this config be served by the fast path at all?  Float
     *  time always can (on-the-fly CDF over the rates); binned time
     *  requires rates drawn from the finite quantized alphabet
     *  (!floatEnergy and a non-float lambda quantization), because
     *  continuous rates would defeat the class decomposition. */
    static bool supported(const RsuConfig &cfg);

    /** Race modes that draw nothing but the per-label exponentials
     *  (float time, or binned time with a deterministic tie-break) —
     *  what RaceMode::Auto additionally requires. */
    static bool autoEligible(const RsuConfig &cfg);

    /** Resolve cfg.raceMode to a concrete use-fastpath decision.
     *  Fatal when FastPath is requested explicitly for an unsupported
     *  config. */
    static bool resolve(const RsuConfig &cfg);

    /** Uniform draws consumed per pixel — fixed per config (binned
     *  First/Last: min-bin + winner walk + tie flag = 3; binned
     *  Random: min-bin + alias slot (whose fractional part doubles
     *  as the independent accept uniform) + class rank = 3; float
     *  time: 1), so rows bulk-fill and scalar/row stay
     *  bit-identical. */
    unsigned drawsPerPixel() const { return drawsPerPixel_; }

    /**
     * Bind a classified RateBinding: one built with this config's
     * mode word over the alphabet of the binding held so far, e.g. by
     * the run's RateBindingCache.  Pointer-only: sharing one binding
     * between clones is what makes their rebinds free.
     */
    void bind(std::shared_ptr<const RateBinding> binding);

    /**
     * Bind the quantized-energy -> absolute-rate table @p rate_table
     * through a binding of this instance's own, grown from the bound
     * alphabet.  For callers without a RateBindingCache: tests and
     * the kernel bench.
     */
    void bindRateTable(std::span<const double> rate_table);

    /**
     * Binned-mode race of @p n pixels straight from the float energy
     * plane (pixel p's @p m labels at @p energies + p*m), the one
     * binned entry (one pixel is the n == 1 case).  Each pixel's
     * energies are quantized to [0, @p top] (the quantizeEnergies
     * rounding) and, under @p subtract_min (decay-rate scaling),
     * offset by their quantized minimum before they index the bound
     * rate table.  Packed lane (<= 8 rate classes, m <= 16): one
     * dispatched quantizeClassifyRow kernel call classifies the row
     * (no quantized plane ever materializes), the shared packed
     * table's slots are prefetched, then a draw pass runs with them
     * already in cache, so one pixel's probe latency overlaps the
     * next pixel's work.  Other pixels quantize with the
     * quantizeEnergies kernel and take the general lane.  @p u
     * carries drawsPerPixel() uniforms in [0, 1) per pixel; all are
     * consumed logically even when an outcome ignores one (fixed draw
     * layout).
     */
    void raceEnergiesRow(const float *energies, double top,
                         bool subtract_min, std::size_t n,
                         std::size_t m, const double *u,
                         RaceOutcome *out);

    /**
     * Float-time race over one pixel's firing set (the @p n positive
     * rates in label order and their @p labels, as raceFiringSet()
     * takes it): one uniform inverts the prefix-sum CDF, realizing
     * P(i) = rate_i / sum(rate); winner -1 when n == 0.  Stateless —
     * float mode needs no tables.
     */
    static RaceOutcome raceFloat(const double *rates,
                                 const std::uint32_t *labels,
                                 std::size_t n, double u);

  private:
    /**
     * Draw one pixel of the fast lane for small pixels over small
     * alphabets (<= 8 rate classes, m <= 16 labels — every quantized
     * design) from its classify words: the per-class counts, one
     * byte per class in @p word, which is simultaneously the packed
     * table key, and the label -> class bytes in @p cw0 / @p cw1 (the
     * quantizeClassifyRow kernel layout), so the winner scans are
     * branch-free SWAR byte-compares.  The entry (PackedRaceEntry)
     * carries everything transcendental the draw needs, so the
     * steady-state pixel does no log/exp, no heap key, no lock, and
     * no pointer-chasing through vector headers.  Entries depend only
     * on the count multiset over a stable alphabet, so they survive
     * temperature rebinds.  @p h is the word's hash — hoisted so the
     * row pass hashes once, at prefetch time.
     */
    [[gnu::always_inline]] inline RaceOutcome
    drawPacked(const RateBinding &b, std::uint64_t word,
               std::uint64_t cw0, std::uint64_t cw1, std::size_t m,
               const double *u, std::uint64_t h);
    /** General lane (rare: huge alphabets or label counts): vector
     *  counts key and a per-pixel log for the window gates. */
    RaceOutcome raceGeneral(const double *q, double base,
                            std::size_t m, const double *u);
    /** The Random-tie class table for the current pixel's counts_
     *  (alphabet-indexed label counts), straight from RaceTableCache;
     *  a hit is tallied in classHits_. */
    const RaceTable *lookupClassTable();
    /** The packed entry of @p word (hash @p h) in @p b's table: the
     *  hit is one lock-free probe, inlined into the draw; a miss takes
     *  the out-of-line packedMiss(). */
    const PackedRaceEntry &
    packedEntry(const RateBinding &b, std::uint64_t word,
                std::uint64_t h)
    {
        if (const PackedRaceEntry *e = b.packed->find(word, h))
            return *e;
        return packedMiss(b, word, h);
    }
    /** A locked insert into @p b's table (or, when the table is full,
     *  an uncached build into spill_). */
    [[gnu::noinline]] const PackedRaceEntry &
    packedMiss(const RateBinding &b, std::uint64_t word,
               std::uint64_t h);
    /** Build @p word's entry from @p b's alphabet. */
    PackedRaceEntry buildPacked(const RateBinding &b, std::uint64_t word);
    /** Fill key_ with the canonical RaceTable key of per-class counts
     *  @p count (class c's count) over @p alphabet, recording the
     *  firing classes' alphabet indices in @p slot_class when
     *  non-null. */
    template <typename Count>
    void classKey(std::span<const double> alphabet, Count count,
                  std::uint8_t *slot_class);

    RsuConfig cfg_;
    bool ordered_ = false; ///< First/Last (tableless) vs Random
    bool lastTie_ = false; ///< Last: winner walk runs high-to-low
    bool drop_ = false;    ///< InfiniteTtf truncation policy
    unsigned drawsPerPixel_ = 1;
    double tMax_ = 0.0; ///< window length in bins
    std::uint64_t modeWord_ = 0;
    /** The bound alphabet, class map and packed table (shared,
     *  immutable); null until the first bind. */
    std::shared_ptr<const RateBinding> binding_;

    // ---- packed lane -------------------------------------------------
    /** Uncached entry, used when the shared table is full. */
    PackedRaceEntry spill_;
    // Row-pass scratch: per-pixel classify words (word/cw0/cw1
    // triples, the quantizeClassifyRow kernel layout) + count-word
    // hashes.
    std::vector<std::uint64_t> rowWords_;
    std::vector<std::uint64_t> rowHash_;
    // raceEnergiesRow general-lane scratch: one pixel's quantized
    // energies.
    std::vector<double> quantScratch_;

    // ---- general-lane scratch ----------------------------------------
    std::vector<std::uint32_t> counts_;  ///< per-class label counts
    std::vector<std::uint16_t> pixelClass_;
    RaceTableCache::Key key_;
    /** Keeps an uncached class table (cache full) alive for its
     *  pixel's draw. */
    std::shared_ptr<const RaceTable> spillTable_;
    /** Class-table hits of the current row, counted into
     *  RaceTableCache once the row is drawn. */
    std::uint64_t classHits_ = 0;
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_RACE_FASTPATH_HH

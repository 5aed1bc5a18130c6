/**
 * @file
 * Flip-aware incremental conditional-energy plane cache.
 *
 * A pixel's conditional energies are a pure deterministic function of
 * its singleton costs and its neighbors' labels — crucially NOT of its
 * own label — so a plane computed once stays valid until a neighbor
 * flips.  Under the annealing schedule flip rates collapse toward the
 * tail, which makes most per-sweep recomputation redundant: this
 * cache keeps one sweep-persistent energy plane per pixel plus a
 * per-row dirty bitset maintained at label-write time, and the
 * solvers recompute only dirty pixels, serving clean ones from the
 * cache.
 *
 * Invariants (why cache-on is byte-identical to cache-off):
 *  - A label write at (x, y) marks (x, y) and all its 4/8 neighbors
 *    dirty before any later read of their planes.  Marking is
 *    conservative — over-marking merely costs a recompute — and the
 *    self-mark is pure insurance (the pixel's own plane does not
 *    depend on its own label); only an UNDER-mark could serve a stale
 *    plane, and every plane input change is a label write that marks.
 *  - Recomputation produces bit-identical floats to the uncached
 *    producers (conditionalEnergies / the fused row kernel), so a
 *    clean plane and a recomputed plane are indistinguishable byte
 *    for byte, for any scan order and any flip history.
 *  - The RNG draw order is untouched: the cache changes where
 *    energies come from, never how many uniforms are consumed.
 *  - The cache is per-run state, reset all-dirty at run() start and
 *    never persisted: a resumed run reconstructs it by recomputing,
 *    so checkpoint/replay byte-identity holds with the cache on.
 *
 * Striped checkerboard use: stripes own disjoint row ranges; a flip
 * on a stripe's first/last row must dirty neighbor planes in the
 * adjacent stripe's rows.  Those out-of-range marks are deferred into
 * a per-stripe list and applied by the coordinator at the color-phase
 * join barrier, so no two executors ever touch the same dirty word
 * concurrently (within a phase a stripe writes dirty bits only for
 * rows it owns, and reads only its own current-color slabs).
 *
 * Sharded use: a shard rank refreshes, marks and serves only the rows
 * it owns, so its color-phase cache holds planes and dirty bits for a
 * row window [rowLo, rowHi) — the rank's rows — and nothing for the
 * rest of the grid.
 *
 * The cache also owns the 8-bit shadow label plane (m <= 256)
 * consumed by the fused energyRunU8 row kernel: solvers mirror every
 * label write into it, cutting neighbor-gather bandwidth 4x versus
 * the int LabelMap.  The shadow plane always covers the whole grid:
 * a window's edge rows read their neighbor rows' labels from it.
 */

#ifndef RETSIM_MRF_ENERGY_CACHE_HH
#define RETSIM_MRF_ENERGY_CACHE_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "img/image.hh"
#include "mrf/problem.hh"
#include "util/logging.hh"

namespace retsim {
namespace mrf {

/** Cumulative cache traffic, surfaced through obs/telemetry.  The
 *  counters are relaxed atomics: striped checkerboard workers bump
 *  them concurrently (the dirty words themselves are stripe-disjoint,
 *  these totals are the only shared writes), and relaxed increments
 *  keep them exact under threading.  Marks are counted per call, not
 *  per mark: markRowFlips and applyDeferred tally their marks locally
 *  and add the tally once, so a color-phase row costs one atomic add,
 *  not one per flip; markFlip returns its tally for the caller to add
 *  (addInvalidations) once per sweep.  Readers (telemetry folds at the
 *  sweep join) see totals only from outside the parallel region. */
struct EnergyCacheStats
{
    std::atomic<std::uint64_t> cleanHits{0}; ///< pixels served cached
    std::atomic<std::uint64_t> recomputed{0}; ///< pixels recomputed
    std::atomic<std::uint64_t> invalidations{0}; ///< dirty marks
    std::atomic<std::uint64_t> rebuilds{0}; ///< all-dirty resets
    std::atomic<std::uint64_t> shadowSyncs{0}; ///< full shadow syncs
};

class EnergyPlaneCache
{
  public:
    /**
     * @param phases 1 = full-resolution row slabs (the raster/random
     *        scan GibbsSolver, one slab per row); 2 = checkerboard
     *        color-phase slabs (one slab per (row, color), pixels at
     *        color-local index x >> 1, matching the x0 = (y+color)%2,
     *        xStep = 2 row phases of the chromatic solver).
     */
    EnergyPlaneCache(int width, int height, int numLabels, int phases);

    /**
     * A color-phase cache (@p phases == 2) whose planes and dirty
     * bits cover rows [@p rowLo, @p rowHi) only: a shard rank's own
     * rows.  Touching a slab outside the window is an assert; the
     * shadow label plane stays full-grid.
     */
    EnergyPlaneCache(int width, int height, int numLabels, int phases,
                     int rowLo, int rowHi);

    int phases() const { return phases_; }

    /** Bytes held by the energy planes: the window's slabs only. */
    std::size_t
    planeBytes() const
    {
        return plane_.size() * sizeof(float);
    }

    const EnergyCacheStats &stats() const { return stats_; }

    /** Mark every pixel dirty (run start / resume). */
    void reset();

    /** Pixels in slab (y, color) — the color-phase row length. */
    int
    phasePixels(int y, int color) const
    {
        if (phases_ == 1)
            return width_;
        const int x0 = (y + color) & 1;
        return x0 < width_ ? (width_ - x0 + 1) / 2 : 0;
    }

    /** Energy plane of slab (y, color): phasePixels * m floats,
     *  pixel-major — exactly the layout sampleRow consumes. */
    float *
    plane(int y, int color)
    {
        checkRow(y);
        return plane_.data() + slab(y, color) * slabStride_;
    }

    /** Dirty bitset of slab (y, color) (bit i = color-local pixel i,
     *  word layout i>>6 / i&63), for tests that observe the marks. */
    const std::uint64_t *
    rowDirty(int y, int color) const
    {
        checkRow(y);
        return dirty_.data() + slab(y, color) * wordsPerSlab_;
    }

    /** Clear slab (y, color)'s dirty bits without recomputing its
     *  planes, for tests that observe the marks. */
    void
    clearRow(int y, int color)
    {
        checkRow(y);
        std::uint64_t *w =
            dirty_.data() + slab(y, color) * wordsPerSlab_;
        for (std::size_t k = 0; k < wordsPerSlab_; ++k)
            w[k] = 0;
    }

    /**
     * A flip happened at (x, y): dirty its own plane and every 4/8
     * neighbor's.  Marks for rows outside [rowLo, rowHi) are appended
     * to @p deferred (packed (x << 32) | y) instead of written —
     * that's the stripe-boundary exchange; pass the full row range
     * and nullptr on serial paths.  [rowLo, rowHi) must lie in the
     * cache's row window.  Returns the written marks, which
     * the caller adds to stats() (addInvalidations); deferred ones
     * count when they are applied.
     */
    std::uint64_t markFlip(int x, int y, Neighborhood neighborhood,
                           int rowLo, int rowHi,
                           std::vector<std::uint64_t> *deferred);

    /**
     * Row form of markFlip for a checkerboard color phase (phases ==
     * 2, 4-neighborhood): @p flips is a bitset over slab (y, color)'s
     * pixels (bit i = color-local pixel i, no bit at or past
     * phasePixels) whose labels changed.  Marks, counts and defers
     * exactly what one markFlip per set bit would, but a 64-bit word
     * at a time: a flip's same-row neighbors are the other color's
     * pixels i - 1 + x0 and i + x0 (x0 = (y + color) & 1, so the
     * flip word shifts by the row parity, carrying across words), and
     * its up/down neighbors are pixel i of the other color's slabs of
     * rows y -/+ 1.  A row outside [rowLo, rowHi) gets one (x << 32) |
     * row entry in @p deferred per flip.  Row @p y and [rowLo, rowHi)
     * must lie in the cache's row window.  The written marks are
     * counted with one add.
     */
    void markRowFlips(int y, int color, const std::uint64_t *flips,
                      int rowLo, int rowHi,
                      std::vector<std::uint64_t> *deferred);

    /** Count @p marks written by markFlip calls. */
    void
    addInvalidations(std::uint64_t marks)
    {
        stats_.invalidations.fetch_add(marks, std::memory_order_relaxed);
    }

    /** Apply (and drain) marks packed like markFlip's deferred ones
     *  — stripe-boundary marks, or a shard's ghost-row marks, all in
     *  the row window — counting them with one add. */
    void applyDeferred(std::vector<std::uint64_t> &deferred);

    /**
     * Bring slab (y, color) fully up to date: recompute every dirty
     * pixel's plane from the shadow labels (fused u8 runs on interior
     * rows, conditionalEnergies at row ends / other neighborhoods),
     * then clear the slab's dirty bits.
     * @return the slab's pixel count.
     */
    int refreshRow(const MrfProblem &problem,
                   const img::LabelMap &labels, int y, int color);

    /**
     * Phases == 1 per-pixel path: plane of (x, y), recomputed first
     * if dirty (bit cleared).  Returns the numLabels-float row.  The
     * hit/recompute counts accrue in plain members (the raster and
     * random-scan solver is single-threaded) until
     * flushPixelCounts() adds them to stats().
     */
    const float *pixelEnergies(const MrfProblem &problem,
                               const img::LabelMap &labels, int x,
                               int y);

    /** Add pixelEnergies()'s pending counts to stats(): once per
     *  sweep, before anything reads them. */
    void flushPixelCounts();

    /** The 8-bit shadow label plane (width * height, row-major). */
    const std::uint8_t *shadow() const { return shadow_.data(); }

    /** Mirror one label write into the shadow plane. */
    void
    setShadow(int x, int y, int label)
    {
        shadow_[static_cast<std::size_t>(y) * width_ + x] =
            static_cast<std::uint8_t>(label);
    }

    /** Full shadow resync from a label map (run start / resume). */
    void syncShadow(const img::LabelMap &labels);

  private:
    /** Assert that rows [@p lo, @p hi) lie in the row window. */
    void
    checkRows(int lo, int hi) const
    {
        RETSIM_ASSERT(lo >= rowLo_ && hi <= rowHi_, "rows [", lo, ", ",
                      hi, ") outside the energy cache's rows [", rowLo_,
                      ", ", rowHi_, ")");
    }
    void checkRow(int y) const { checkRows(y, y + 1); }

    /** Mark one pixel's own plane dirty; the caller counts it. */
    void
    mark(int x, int y)
    {
        const std::size_t i =
            phases_ == 1 ? static_cast<std::size_t>(x)
                         : static_cast<std::size_t>(x >> 1);
        dirty_[slab(y, colorOf(x, y)) * wordsPerSlab_ + (i >> 6)] |=
            std::uint64_t{1} << (i & 63);
    }

    /** Slab index of (y, color) in plane_ / dirty_: rows count from
     *  the window's first (raster caches always cover the grid). */
    std::size_t
    slab(int y, int color) const
    {
        return phases_ == 1
                   ? static_cast<std::size_t>(y)
                   : static_cast<std::size_t>(y - rowLo_) * 2 + color;
    }

    int
    colorOf(int x, int y) const
    {
        return phases_ == 1 ? 0 : (x + y) & 1;
    }

    int width_;
    int height_;
    int m_;
    int phases_;
    int rowLo_; ///< row window [rowLo_, rowHi_) of plane_ / dirty_
    int rowHi_;
    std::size_t pixelsPerSlab_; ///< allocation bound (phase maximum)
    std::size_t wordsPerSlab_;
    std::size_t slabStride_; ///< floats per slab
    std::vector<float> plane_;
    std::vector<std::uint64_t> dirty_;
    std::vector<std::uint8_t> shadow_;
    EnergyCacheStats stats_;
    std::uint64_t pendingRecomputed_ = 0; ///< pixelEnergies, unflushed
    std::uint64_t pendingCleanHits_ = 0;
};

} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_ENERGY_CACHE_HH

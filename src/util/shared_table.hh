/**
 * @file
 * Insert-only, process-wide, open-addressed table whose hits take no
 * lock.
 *
 * The fast path's caches hold values that are pure functions of their
 * keys (a LambdaLut of its config and temperature, a race table or a
 * packed race entry of its rate multiset), so a value, once built,
 * never changes and never needs to go.  That makes a lookup cheap to
 * share between threads: every slot publishes its key last, with a
 * release store of a nonzero tag, after its key and value are in
 * place, and a reader that acquire-loads the tag may then read both
 * without further synchronization.  A hit is one acquire load and a
 * compare — no lock, no atomic read-modify-write — which is what lets
 * every stripe clone of a solve probe one shared table on its
 * per-pixel path.
 *
 * Misses serialize on one mutex: re-check, build the value into the
 * first free slot of the key's linear-probe run, publish.  Past half
 * load a miss first copies every entry into a doubled generation and
 * publishes that with a release store.  The retired generation stays
 * allocated until the table dies, because a reader that loaded it
 * before the swap may still be probing it; it misses any key inserted
 * after the swap and finds it on the locked re-check.  At
 * max_entries the table stops inserting and get() returns null, so
 * the caller builds an uncached value: a wipe would free slots a
 * lock-free reader may still hold.
 */

#ifndef RETSIM_UTIL_SHARED_TABLE_HH
#define RETSIM_UTIL_SHARED_TABLE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace retsim {
namespace util {

/** SplitMix64 finalizer: a bijective 64-bit mix. */
inline std::uint64_t
mix64(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/** Hash of a 64-bit word or of a contiguous sequence of them. */
struct WordHash
{
    std::uint64_t operator()(std::uint64_t w) const { return mix64(w); }

    template <typename Words>
    std::uint64_t
    operator()(const Words &words) const
    {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (std::uint64_t w : words)
            h = mix64(h ^ w);
        return h;
    }
};

template <typename Key, typename Value, typename Hash = WordHash>
class SharedTable
{
  public:
    explicit SharedTable(std::size_t max_entries)
        : maxEntries_(max_entries)
    {
        reset();
    }

    SharedTable(const SharedTable &) = delete;
    SharedTable &operator=(const SharedTable &) = delete;

    static std::uint64_t hash(const Key &key) { return Hash{}(key); }

    /** The value stored under @p key (hash @p h), or null.  No lock,
     *  no read-modify-write. */
    const Value *
    find(const Key &key, std::uint64_t h) const
    {
        const Generation *g = current_.load(std::memory_order_acquire);
        const std::uint64_t want = h | 1;
        for (std::size_t i = h & g->mask;; i = (i + 1) & g->mask) {
            const Slot &s = g->slots[i];
            const std::uint64_t t = s.tag.load(std::memory_order_acquire);
            if (t == 0)
                return nullptr;
            if (t == want && s.key == key)
                return &s.value;
        }
    }

    const Value *find(const Key &key) const { return find(key, hash(key)); }

    /**
     * find(), or on a miss build() the value under the lock and store
     * it.  Returns null, without calling build(), when the table
     * already holds max_entries; @p built (if given) reports whether
     * this call stored a value.
     */
    template <typename Build>
    const Value *
    get(const Key &key, std::uint64_t h, Build &&build,
        bool *built = nullptr)
    {
        if (built)
            *built = false;
        if (const Value *v = find(key, h))
            return v;
        std::lock_guard<std::mutex> lock(mutex_);
        if (const Value *v = find(key, h))
            return v; // another thread stored it first
        if (live_ >= maxEntries_)
            return nullptr;
        Generation *g = generations_.back().get();
        if (2 * (live_ + 1) > g->mask + 1)
            g = grow();
        Slot &s = freeSlot(*g, h);
        s.key = key;
        s.value = build();
        s.tag.store(h | 1, std::memory_order_release);
        ++live_;
        if (built)
            *built = true;
        return &s.value;
    }

    template <typename Build>
    const Value *
    get(const Key &key, Build &&build, bool *built = nullptr)
    {
        return get(key, hash(key), std::forward<Build>(build), built);
    }

    /** Pull the slots a probe for hash @p h starts with into cache:
     *  the home slot and the next slot's tag line. */
    void
    prefetch(std::uint64_t h) const
    {
#if defined(__GNUC__) || defined(__clang__)
        const Generation *g = current_.load(std::memory_order_acquire);
        const char *home =
            reinterpret_cast<const char *>(&g->slots[h & g->mask]);
        for (std::size_t off = 0; off <= sizeof(Slot); off += 64)
            __builtin_prefetch(home + off);
#else
        (void)h;
#endif
    }

    /** Call f(key, value) for every entry of the current generation
     *  (lock-free: entries stored meanwhile may be missed). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        const Generation *g = current_.load(std::memory_order_acquire);
        for (std::size_t i = 0; i <= g->mask; ++i) {
            const Slot &s = g->slots[i];
            if (s.tag.load(std::memory_order_acquire) != 0)
                f(s.key, s.value);
        }
    }

    /** Entries stored. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return live_;
    }

    /** Slot bytes of every generation held, retired ones included. */
    std::size_t
    bytes() const
    {
        return bytes_.load(std::memory_order_relaxed);
    }

    /**
     * Drop every entry and generation and start over at 256 slots.
     * Unlike every other member this frees slots, so it must not run
     * while any thread uses the table or holds a pointer into it
     * (tests and benches, between runs).
     */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        reset();
    }

  private:
    static constexpr std::size_t kInitialSlots = 256;

    /**
     * One slot.  The tag is the key's hash with bit 0 set (0 marks an
     * empty slot); key and value are written once, before the tag is
     * published, and never again.  Slots start on a cache line, so a
     * 128-byte slot is exactly two lines.
     */
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> tag{0};
        Key key{};
        Value value{};
    };

    struct Generation
    {
        explicit Generation(std::size_t n)
            : mask(n - 1), slots(std::make_unique<Slot[]>(n))
        {
        }

        std::size_t mask;
        std::unique_ptr<Slot[]> slots;
    };

    /** First empty slot of @p h's probe run (the writer's view). */
    static Slot &
    freeSlot(Generation &g, std::uint64_t h)
    {
        std::size_t i = h & g.mask;
        while (g.slots[i].tag.load(std::memory_order_relaxed) != 0)
            i = (i + 1) & g.mask;
        return g.slots[i];
    }

    /** Copy every entry into a doubled generation and publish it;
     *  the old one stays allocated.  Caller holds the lock. */
    Generation *
    grow()
    {
        const Generation &old = *generations_.back();
        auto next = std::make_unique<Generation>(2 * (old.mask + 1));
        for (std::size_t i = 0; i <= old.mask; ++i) {
            const Slot &s = old.slots[i];
            const std::uint64_t t = s.tag.load(std::memory_order_relaxed);
            if (t == 0)
                continue;
            Slot &d = freeSlot(*next, hash(s.key));
            d.key = s.key;
            d.value = s.value;
            d.tag.store(t, std::memory_order_relaxed);
        }
        return publish(std::move(next));
    }

    Generation *
    publish(std::unique_ptr<Generation> g)
    {
        Generation *raw = g.get();
        bytes_.fetch_add((raw->mask + 1) * sizeof(Slot),
                         std::memory_order_relaxed);
        generations_.push_back(std::move(g));
        current_.store(raw, std::memory_order_release);
        return raw;
    }

    void
    reset()
    {
        generations_.clear();
        bytes_.store(0, std::memory_order_relaxed);
        live_ = 0;
        publish(std::make_unique<Generation>(kInitialSlots));
    }

    const std::size_t maxEntries_;
    mutable std::mutex mutex_;
    std::atomic<const Generation *> current_{nullptr};
    std::vector<std::unique_ptr<Generation>> generations_;
    std::size_t live_ = 0;
    std::atomic<std::size_t> bytes_{0};
};

} // namespace util
} // namespace retsim

#endif // RETSIM_UTIL_SHARED_TABLE_HH

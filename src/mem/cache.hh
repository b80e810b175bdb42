/**
 * @file
 * Last-level cache model.
 *
 * A single shared, set-associative, write-back LLC with per-line
 * owner tracking (which core touched the line last). Owner tracking
 * is what prices the HotCalls shared-memory channel: a line bouncing
 * between the requester's and responder's cores pays a cache-to-cache
 * transfer rather than a local hit. Private L1/L2 levels are folded
 * into the "owned hit" cost — the microbenchmarks the paper builds on
 * only distinguish cached / cross-core / DRAM.
 */

#ifndef HC_MEM_CACHE_HH
#define HC_MEM_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/hash.hh"
#include "support/units.hh"

namespace hc::mem {

/** Classification of a cache access. */
enum class CacheOutcome {
    OwnedHit,  //!< present, last touched by the accessing core
    SharedHit, //!< present, last touched by a different core
    Miss,      //!< not present: DRAM fetch
};

/** Set-associative LLC with LRU replacement. */
class CacheModel
{
  public:
    /**
     * Told about every event that must be ordered against a parked
     * spin-poller (sim::Engine::park): a touch of a watched set, a
     * flush of one of its lines, a read of the hit/miss counters.
     * Called before the event changes anything, so the poller's
     * skipped polls replay first.
     */
    class WatchListener
    {
      public:
        virtual ~WatchListener() = default;
        /** Set @p key (watchSet()'s return) is about to be touched. */
        virtual void onWatchedSet(std::uint64_t key) = 0;
        /** State the watchers' polls update is about to be read. */
        virtual void onWatchedRead() = 0;
    };

    /** Result of one access, including any eviction it caused. */
    struct Result {
        CacheOutcome outcome = CacheOutcome::Miss;
        bool evicted = false;      //!< a valid line was replaced
        bool evictedDirty = false; //!< ... and it was dirty
        Addr evictedLine = 0;      //!< line address of the victim
    };

    /**
     * @param size       total capacity in bytes
     * @param ways       associativity
     * @param line_size  line size in bytes (power of two)
     */
    CacheModel(std::uint64_t size, int ways,
               std::uint64_t line_size = kCacheLineSize);

    /**
     * Look up (and on miss, fill) the line containing @p addr.
     *
     * @param core   accessing core (updates the owner on every access)
     * @param addr   byte address
     * @param write  marks the line dirty
     */
    Result access(CoreId core, Addr addr, bool write);

    /**
     * Bulk-span access plane: probe @p count consecutive lines
     * starting at @p first_line (line-aligned), invoking
     * @p on_line(line_addr, result) for each in ascending order.
     *
     * Bit-identical to @p count calls of access(): same outcomes,
     * same hit/miss counters, same LRU (lastUse) evolution, same
     * evictions, in the same order. What it saves is the per-line
     * hash + way scan for spans the span-hit memo has already proved
     * fully resident and owned by @p core: those replay as straight
     * metadata updates. The memo is keyed by span start, validated
     * against a modification generation (modGen_) bumped by every
     * residency or ownership change, so any interleaving fill, flush,
     * or cross-core touch since the recording falls back to the full
     * per-line probes.
     */
    template <typename OnLine>
    void accessSpan(CoreId core, Addr first_line, std::uint64_t count,
                    bool write, OnLine &&on_line)
    {
        if (count == 0)
            return;
        const auto it = spanMemos_.find(first_line);
        if (it != spanMemos_.end()) {
            SpanMemo &memo = it->second;
            if (memo.count == count && memo.core == core &&
                (memo.gen == modGen_ ||
                 revalidate(memo, first_line, core))) {
                // Replay: every line is resident and already owned by
                // this core (recorded or just revalidated), so each
                // access is exactly an OwnedHit of access():
                // ++useCounter_, dirty |= write, lastUse, ++hits_.
                Result hit;
                hit.outcome = CacheOutcome::OwnedHit;
                const std::uint32_t *slots = memo.slots.data();
                Addr line = first_line;
                for (std::uint64_t i = 0; i < count;
                     ++i, line += lineSize_) {
                    Line &way = lines_[slots[i]];
                    if (way.watched)
                        notifyWatched(line);
                    ++useCounter_;
                    way.dirty = way.dirty || write;
                    way.lastUse = useCounter_;
                    on_line(line, hit);
                }
                hits_ += count;
                return;
            }
        }

        // Slow path: per-line probes (identical to access()), while
        // capturing the touched ways for a future replay. A span is
        // only memoizable when none of its own earlier lines were
        // evicted by a later fill — otherwise not every line is
        // resident once the span completes.
        scratchSlots_.clear();
        bool memoizable = count >= kSpanMemoMinLines;
        if (memoizable)
            scratchSlots_.reserve(count);
        const std::uint64_t span_bytes = count * lineSize_;
        Addr line = first_line;
        for (std::uint64_t i = 0; i < count; ++i, line += lineSize_) {
            if (i + kLookAhead < count)
                prefetchSet(line + kLookAhead * lineSize_);
            Line *way = nullptr;
            const Result result = accessImpl(core, line, write, way);
            if (memoizable) {
                if (result.evicted &&
                    result.evictedLine - first_line < span_bytes)
                    memoizable = false;
                else
                    scratchSlots_.push_back(
                        static_cast<std::uint32_t>(way - lines_.data()));
            }
            on_line(line, result);
        }
        if (memoizable)
            recordSpan(first_line, core);
    }

    /**
     * Bulk-span flush plane: flushLine() over @p count consecutive
     * lines from @p first_line, invoking @p on_line(line_addr,
     * was_dirty) for each in ascending order. Bit-identical state and
     * results; a valid span memo turns the per-line set scans into
     * direct way invalidations.
     */
    template <typename OnLine>
    void flushSpan(Addr first_line, std::uint64_t count,
                   OnLine &&on_line)
    {
        if (count == 0)
            return;
        const auto it = spanMemos_.find(first_line);
        if (it != spanMemos_.end() && it->second.count == count &&
            (it->second.gen == modGen_ ||
             revalidate(it->second, first_line, it->second.core))) {
            const std::uint32_t *slots = it->second.slots.data();
            Addr line = first_line;
            for (std::uint64_t i = 0; i < count;
                 ++i, line += lineSize_) {
                const std::uint64_t slot = slots[i];
                Line &way = lines_[slot];
                if (way.watched)
                    notifyWatched(line);
                const bool dirty = way.dirty;
                way.valid = false;
                way.dirty = false;
                validMask_[slot / ways_] &=
                    ~(std::uint64_t{1} << (slot % ways_));
                on_line(line, dirty);
            }
            ++modGen_;
            memoLines_ -= count;
            spanMemos_.erase(it);
            return;
        }
        Addr line = first_line;
        for (std::uint64_t i = 0; i < count; ++i, line += lineSize_)
            on_line(line, flushLine(line));
    }

    /** @return true if the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    /**
     * Evict the line containing @p addr if resident.
     * @return true when the line was present and dirty.
     */
    bool flushLine(Addr addr);

    /** Invalidate the whole cache (cold-cache experiments). */
    void flushAll();

    /** Invalidate every line overlapping [addr, addr+len). */
    void flushRange(Addr addr, std::uint64_t len);

    std::uint64_t hits() const
    {
        if (watchCount_)
            listener_->onWatchedRead();
        return hits_;
    }
    std::uint64_t misses() const
    {
        if (watchCount_)
            listener_->onWatchedRead();
        return misses_;
    }

    // ------------------------------------------------------------------
    // SpinPark support: watched sets and replayed poll hits.
    // ------------------------------------------------------------------

    /** Install the watch listener (required before watchSet()). */
    void setWatchListener(WatchListener *listener)
    {
        listener_ = listener;
    }

    /**
     * Watch the set holding @p addr: every later touch of the set, or
     * flush of one of its lines, is reported to the listener first.
     * Any access to the set matters, not only to the watched line: a
     * polling core keeps its line most recently used, so a fill there
     * must see the polls' LRU stamps. @return the set's key.
     */
    std::uint64_t watchSet(Addr addr);

    /** Drop one watch of the set holding @p addr. */
    void unwatchSet(Addr addr);

    /** @return true when the line holding @p addr is resident and
     *  last touched by @p core (its next access an OwnedHit). */
    bool ownedBy(Addr addr, CoreId core) const;

    /**
     * Apply @p count skipped polls: exactly the state change of as
     * many back-to-back OwnedHit access() calls by @p core of the
     * resident line holding @p addr (LRU stamp, dirty bit when
     * @p write, hit counter), without reporting to the listener.
     */
    void replayOwnedHits(CoreId core, Addr addr, std::uint64_t count,
                         bool write);
    std::uint64_t numSets() const { return validMask_.size(); }

    /** One way of a set, as waysOf() reports it. */
    struct WayState {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        CoreId owner = 0;
        std::uint64_t lastUse = 0; //!< LRU stamp: larger is more recent
    };

    /** @return every way of the set holding @p addr, in way order
     *  (introspection for differential tests; no side effects). */
    std::vector<WayState> waysOf(Addr addr) const;

  private:
    struct Line {
        Addr tag = 0; //!< line-aligned address
        bool valid = false;
        bool dirty = false;
        bool watched = false; //!< the way's set is watched (fits in
                              //!< the padding: Line stays 24 bytes)
        CoreId owner = 0;
        std::uint64_t lastUse = 0;
    };

    /**
     * One recorded span: proof that, as of generation gen, the count
     * lines from first were all resident and owned by core, at the
     * recorded slots of lines_. Way storage never reallocates after
     * construction, so the slots stay meaningful; modGen_ equality is
     * what certifies the residency/ownership claims are still true.
     */
    struct SpanMemo {
        std::uint64_t count = 0;
        CoreId core = 0;
        std::uint64_t gen = 0;
        std::vector<std::uint32_t> slots;
    };

    /**
     * accessSpan()'s slow path prefetches the ways of the line this
     * many lines ahead while probing the current one: a host hint
     * only, which reads nothing of the model but the set index.
     */
    static constexpr std::uint64_t kLookAhead = 8;

    /** Spans shorter than this are not worth a memo entry. */
    static constexpr std::uint64_t kSpanMemoMinLines = 8;
    /** Entry cap for the memo map: bounds the per-entry overhead of
     *  many short spans, which the line cap below does not. */
    static constexpr std::size_t kSpanMemoMaxEntries = 1024;

    /**
     * Store scratchSlots_ as the memo of the span at @p first_line.
     * All memos together hold at most as many slots as the LLC has
     * lines: valid memos cannot claim more resident lines than that
     * (except where spans overlap), so past the cap the older ones
     * are mostly stale. The map is cleared wholesale when a record
     * would pass that cap or kSpanMemoMaxEntries.
     */
    void recordSpan(Addr first_line, CoreId core);

    /**
     * Re-certify a stale span memo with a read-only walk: the memo's
     * claims hold again iff every recorded way still holds its line,
     * valid and owned by @p core. Way objects never move, a line is
     * never resident in two ways at once, and a way found valid with
     * a matching tag is necessarily in that line's set — so a
     * successful walk proves a per-line probe of each line would be
     * an OwnedHit on exactly the recorded way. Mutates nothing but
     * memo.gen (on success), so a failed walk leaves the slow path's
     * state evolution untouched.
     */
    bool revalidate(SpanMemo &memo, Addr first_line, CoreId core)
    {
        Addr line = first_line;
        for (const std::uint32_t slot : memo.slots) {
            const Line &way = lines_[slot];
            if (!way.valid || way.tag != line || way.owner != core)
                return false;
            line += lineSize_;
        }
        memo.gen = modGen_;
        return true;
    }

    /** @return the first of the ways_ ways of set @p set_idx. */
    Line *setWays(std::uint64_t set_idx)
    {
        return lines_.data() + set_idx * ways_;
    }
    const Line *setWays(std::uint64_t set_idx) const
    {
        return lines_.data() + set_idx * ways_;
    }
    /** @return the set index of @p addr (the watch key). */
    std::uint64_t setIndex(Addr addr) const
    {
        // Hash the line address so widely separated regions
        // (untrusted vs EPC bases) spread over all sets instead of
        // aliasing.
        const std::uint64_t hash = mix64(lineAddr(addr));
        return setMask_ ? (hash & setMask_) : hash % validMask_.size();
    }
    /**
     * Host prefetch of the ways and valid mask of @p addr's set.
     * Always inlined: GCC otherwise deems the out-of-line helper pure
     * (it does not count a prefetch as a side effect) and deletes the
     * call, whose result is unused, with its set-index hash.
     */
    [[gnu::always_inline]] void prefetchSet(Addr addr) const
    {
        const std::uint64_t set_idx = setIndex(addr);
        const char *ways =
            reinterpret_cast<const char *>(setWays(set_idx));
        for (std::uint64_t off = 0; off < ways_ * sizeof(Line);
             off += 64) // host cache lines
            __builtin_prefetch(ways + off);
        __builtin_prefetch(&validMask_[set_idx]);
    }
    /** @return the valid way of set @p set_idx holding @p line, or
     *  ways_ when the line is not resident. */
    std::uint64_t findWay(std::uint64_t set_idx, Addr line) const;
    /** Set the watched flag of every way of set @p set_idx. */
    void markWatched(std::uint64_t set_idx, bool watched);
    /** Report a touch of the watched set of @p addr. */
    void notifyWatched(Addr addr)
    {
        listener_->onWatchedSet(setIndex(addr));
    }
    Addr lineAddr(Addr addr) const { return addr & ~(lineSize_ - 1); }
    /** Classify a hit on @p way and update its metadata. */
    CacheOutcome touchHit(Line &way, CoreId core, bool write);
    /** access() with the touched/filled way reported to the caller. */
    Result accessImpl(CoreId core, Addr addr, bool write,
                      Line *&touched);

    std::uint64_t lineSize_;
    std::uint64_t ways_;
    /**
     * Every way of every set in one set-major array: set s owns
     * lines_[s * ways_, (s + 1) * ways_). Never reallocated after
     * construction, so slot indices (the span memo's) stay stable.
     */
    std::vector<Line> lines_;
    /**
     * Per set: bit i set iff way i is valid. Pure host-side
     * acceleration: hit scans visit only valid ways (same candidates,
     * same way order, so the same outcome as scanning everything) and
     * the first-invalid victim pick reads one bit instead of walking
     * way metadata. Caps associativity at 64 (asserted).
     */
    std::vector<std::uint64_t> validMask_;
    std::uint64_t setMask_ = 0; //!< sets-1 when a power of two, else 0
    std::uint64_t useCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    /**
     * Generation counter for the span-hit memo: bumped by every event
     * that can falsify a recorded span's "resident and owned" claim —
     * fills that evict a valid line, ownership transfers (SharedHit),
     * and every flavour of flush. Fills into invalid ways and
     * same-core owned hits don't bump it: they change nothing a live
     * memo asserts (live memos never reference invalid ways, since
     * every invalidation bumps the generation). A stale memo is not
     * necessarily dead — revalidate() can re-certify it.
     */
    std::uint64_t modGen_ = 0;
    std::unordered_map<Addr, SpanMemo> spanMemos_;
    std::uint64_t memoLines_ = 0; //!< slots held by all spanMemos_
    WatchListener *listener_ = nullptr;
    std::uint64_t watchCount_ = 0; //!< live watchSet() calls
    /** watchSet() count per set, allocated on first use. */
    std::vector<std::uint32_t> setWatchers_;
    std::vector<std::uint32_t> scratchSlots_; //!< accessSpan scratch
};

} // namespace hc::mem

#endif // HC_MEM_CACHE_HH

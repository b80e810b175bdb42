/**
 * @file
 * LLC model implementation.
 */

#include "mem/cache.hh"

#include <bit>

#include "support/logging.hh"

namespace hc::mem {

CacheModel::CacheModel(std::uint64_t size, int ways,
                       std::uint64_t line_size)
    : lineSize_(line_size), ways_(static_cast<std::uint64_t>(ways))
{
    hc_assert(ways > 0 && ways <= 64); // validMask_ entries are 64 bits
    hc_assert(line_size > 0 && (line_size & (line_size - 1)) == 0);
    const std::uint64_t lines = size / line_size;
    hc_assert(lines % ways_ == 0);
    hc_assert(lines <= std::uint64_t{1} << 32); // span memo slots
    const std::uint64_t num_sets = lines / ways_;
    lines_.resize(lines);
    validMask_.resize(num_sets);
    // The default geometry gives a power-of-two set count; index with
    // a mask then, falling back to modulo for odd configurations.
    if ((num_sets & (num_sets - 1)) == 0)
        setMask_ = num_sets - 1;
}

std::uint64_t
CacheModel::findWay(std::uint64_t set_idx, Addr line) const
{
    // Probe only the valid ways (ascending way order, like a full
    // scan with the valid check — same candidates, same first match).
    const Line *const ways = setWays(set_idx);
    for (std::uint64_t m = validMask_[set_idx]; m != 0; m &= m - 1) {
        const auto w = static_cast<std::uint64_t>(std::countr_zero(m));
        if (ways[w].tag == line)
            return w;
    }
    return ways_;
}

CacheOutcome
CacheModel::touchHit(Line &way, CoreId core, bool write)
{
    const CacheOutcome outcome = (way.owner == core)
                                     ? CacheOutcome::OwnedHit
                                     : CacheOutcome::SharedHit;
    if (outcome == CacheOutcome::SharedHit)
        ++modGen_; // ownership transfer invalidates span memos
    way.owner = core;
    way.dirty = way.dirty || write;
    way.lastUse = useCounter_;
    ++hits_;
    return outcome;
}

CacheModel::Result
CacheModel::access(CoreId core, Addr addr, bool write)
{
    Line *touched = nullptr;
    return accessImpl(core, addr, write, touched);
}

CacheModel::Result
CacheModel::accessImpl(CoreId core, Addr addr, bool write,
                       Line *&touched)
{
    Result result;
    const Addr line = lineAddr(addr);
    const std::uint64_t set_idx = setIndex(addr);
    std::uint64_t &valid = validMask_[set_idx];
    if (watchCount_ && setWatchers_[set_idx])
        notifyWatched(line);
    ++useCounter_;
    Line *const ways = setWays(set_idx);
    const std::uint64_t hit = findWay(set_idx, line);
    if (hit != ways_) {
        result.outcome = touchHit(ways[hit], core, write);
        touched = &ways[hit];
        return result;
    }

    // Miss: fill, evicting the first invalid way, else the LRU way.
    // Valid ways carry distinct stamps (each access stamps one way),
    // and the select form keeps the scan free of unpredictable
    // branches; ties would still go to the first way.
    const std::uint64_t full_mask =
        ways_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << ways_) - 1;
    const std::uint64_t invalid = full_mask & ~valid;
    std::uint64_t victim_idx = 0;
    if (invalid != 0) {
        victim_idx = static_cast<std::uint64_t>(std::countr_zero(invalid));
    } else {
        std::uint64_t oldest = ways[0].lastUse;
        for (std::uint64_t w = 1; w < ways_; ++w) {
            const bool older = ways[w].lastUse < oldest;
            victim_idx = older ? w : victim_idx;
            oldest = older ? ways[w].lastUse : oldest;
        }
    }
    Line *const victim = &ways[victim_idx];
    ++misses_;
    if (victim->valid) {
        // Only a fill that displaces a VALID line can falsify a span
        // memo: every line a live memo asserts is resident, and any
        // invalidation bumps the generation, so live memos never
        // reference invalid ways. A fill into an invalid way displaces
        // nothing a memo could be tracking.
        ++modGen_;
        result.evicted = true;
        result.evictedDirty = victim->dirty;
        result.evictedLine = victim->tag;
    }
    victim->tag = line;
    victim->valid = true;
    victim->dirty = write;
    victim->owner = core;
    victim->lastUse = useCounter_;
    valid |= std::uint64_t{1} << victim_idx;
    touched = victim;
    return result;
}

bool
CacheModel::contains(Addr addr) const
{
    return findWay(setIndex(addr), lineAddr(addr)) != ways_;
}

bool
CacheModel::flushLine(Addr addr)
{
    const Addr line = lineAddr(addr);
    const std::uint64_t set_idx = setIndex(addr);
    const std::uint64_t w = findWay(set_idx, line);
    if (w == ways_)
        return false;
    Line &way = setWays(set_idx)[w];
    if (way.watched)
        notifyWatched(line);
    const bool dirty = way.dirty;
    way.valid = false;
    way.dirty = false;
    validMask_[set_idx] &= ~(std::uint64_t{1} << w);
    ++modGen_; // residency change invalidates span memos
    return dirty;
}

void
CacheModel::flushAll()
{
    if (watchCount_)
        listener_->onWatchedRead();
    for (auto &way : lines_) {
        way.valid = false;
        way.dirty = false;
    }
    validMask_.assign(validMask_.size(), 0);
    ++modGen_;
    spanMemos_.clear();
    memoLines_ = 0;
}

void
CacheModel::recordSpan(Addr first_line, CoreId core)
{
    const std::uint64_t count = scratchSlots_.size();
    const auto it = spanMemos_.find(first_line);
    if (it != spanMemos_.end())
        memoLines_ -= it->second.count;
    if (memoLines_ + count > lines_.size() ||
        spanMemos_.size() >= kSpanMemoMaxEntries) {
        spanMemos_.clear();
        memoLines_ = 0;
    }
    SpanMemo &memo = spanMemos_[first_line];
    memo.count = count;
    memo.core = core;
    memo.gen = modGen_;
    memo.slots.assign(scratchSlots_.begin(), scratchSlots_.end());
    memoLines_ += count;
}

void
CacheModel::flushRange(Addr addr, std::uint64_t len)
{
    if (len == 0)
        return;
    // Count-based loop: an inclusive end address would make a range
    // ending at the top of the address space wrap and never exit.
    const Addr first = lineAddr(addr);
    const std::uint64_t count =
        ((addr + len - 1) / lineSize_) - (first / lineSize_) + 1;
    Addr line = first;
    for (std::uint64_t i = 0; i < count; ++i, line += lineSize_)
        flushLine(line);
}

void
CacheModel::markWatched(std::uint64_t set_idx, bool watched)
{
    Line *const ways = setWays(set_idx);
    for (std::uint64_t w = 0; w < ways_; ++w)
        ways[w].watched = watched;
}

std::uint64_t
CacheModel::watchSet(Addr addr)
{
    hc_assert(listener_);
    const std::uint64_t idx = setIndex(addr);
    if (setWatchers_.empty())
        setWatchers_.resize(numSets());
    if (setWatchers_[idx]++ == 0)
        markWatched(idx, true);
    ++watchCount_;
    return idx;
}

void
CacheModel::unwatchSet(Addr addr)
{
    const std::uint64_t idx = setIndex(addr);
    hc_assert(watchCount_ > 0 && setWatchers_[idx] > 0);
    if (--setWatchers_[idx] == 0)
        markWatched(idx, false);
    --watchCount_;
}

bool
CacheModel::ownedBy(Addr addr, CoreId core) const
{
    const std::uint64_t set_idx = setIndex(addr);
    const std::uint64_t w = findWay(set_idx, lineAddr(addr));
    return w != ways_ && setWays(set_idx)[w].owner == core;
}

std::vector<CacheModel::WayState>
CacheModel::waysOf(Addr addr) const
{
    const Line *const ways = setWays(setIndex(addr));
    std::vector<WayState> out;
    for (std::uint64_t w = 0; w < ways_; ++w)
        out.push_back({ways[w].tag, ways[w].valid, ways[w].dirty,
                       ways[w].owner, ways[w].lastUse});
    return out;
}

void
CacheModel::replayOwnedHits(CoreId core, Addr addr, std::uint64_t count,
                            bool write)
{
    const std::uint64_t set_idx = setIndex(addr);
    const std::uint64_t w = findWay(set_idx, lineAddr(addr));
    if (w == ways_)
        panic("replayed poll of a non-resident line");
    Line &way = setWays(set_idx)[w];
    hc_assert(way.owner == core);
    // Nothing else touches the cache in between, so the stamps of
    // count single hits collapse to the last one.
    useCounter_ += count;
    way.dirty = way.dirty || write;
    way.lastUse = useCounter_;
    hits_ += count;
}

} // namespace hc::mem

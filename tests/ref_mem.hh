/**
 * @file
 * A deliberately naive reference model of the memory hierarchy, run
 * in lockstep with mem::MemoryModel by the differential tests.
 *
 * Everything here is the plainest form of what src/mem models: one
 * std::vector of ways per LLC set scanned linearly, a full
 * integrity-tree walk per fetched line through a plain node cache,
 * per-line MEE metadata in a std::map, and no memo of any kind. The
 * production model's host-side shortcuts (the span memo and its
 * revalidation, the valid-way mask, the way layout, the MEE path,
 * leaf and chunk caches, the verified-pair memo) must be invisible:
 * after any operation both models agree on cost, cache outcome,
 * counters, write-backs, verification results and the LRU state of
 * every set.
 */

#ifndef HC_TESTS_REF_MEM_HH
#define HC_TESTS_REF_MEM_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/cost_params.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace refmem {

using hc::Addr;
using hc::CoreId;
using hc::Cycles;
using hc::kCacheLineSize;
using hc::mem::CacheOutcome;
using hc::mem::CostParams;

/** splitmix64 finalizer: the set hash of both caches. */
inline std::uint64_t
splitmix(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

inline Addr
lineOf(Addr addr)
{
    return addr & ~(kCacheLineSize - 1);
}

/** One LLC way. */
struct Line {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    CoreId owner = 0;
    std::uint64_t lastUse = 0;
};

/** Outcome of one LLC access (mirrors CacheModel::Result). */
struct Result {
    CacheOutcome outcome = CacheOutcome::Miss;
    bool evicted = false;
    bool evictedDirty = false;
    Addr evictedLine = 0;
};

/** Set-associative LRU LLC: a vector of ways per set, linear scans. */
class Cache
{
  public:
    Cache(std::uint64_t size, int ways)
        : sets_(size / kCacheLineSize / static_cast<std::uint64_t>(ways),
                std::vector<Line>(static_cast<std::size_t>(ways)))
    {
    }

    const std::vector<Line> &setOf(Addr addr) const
    {
        return sets_[splitmix(lineOf(addr)) % sets_.size()];
    }

    Result access(CoreId core, Addr addr, bool write)
    {
        ++use_;
        const Addr line = lineOf(addr);
        std::vector<Line> &set = mutableSet(line);
        Result result;
        for (Line &way : set) {
            if (way.valid && way.tag == line) {
                result.outcome = way.owner == core
                                     ? CacheOutcome::OwnedHit
                                     : CacheOutcome::SharedHit;
                way.owner = core;
                way.dirty = way.dirty || write;
                way.lastUse = use_;
                ++hits_;
                return result;
            }
        }
        // Miss: the first invalid way, else the first way with the
        // oldest stamp.
        Line *victim = nullptr;
        for (Line &way : set) {
            if (!way.valid) {
                victim = &way;
                break;
            }
        }
        if (!victim) {
            victim = &set[0];
            for (Line &way : set)
                if (way.lastUse < victim->lastUse)
                    victim = &way;
        }
        ++misses_;
        if (victim->valid) {
            result.evicted = true;
            result.evictedDirty = victim->dirty;
            result.evictedLine = victim->tag;
        }
        *victim = Line{line, true, write, core, use_};
        return result;
    }

    /** @return true when the line was resident and dirty. */
    bool flushLine(Addr addr)
    {
        const Addr line = lineOf(addr);
        for (Line &way : mutableSet(line)) {
            if (way.valid && way.tag == line) {
                const bool dirty = way.dirty;
                way.valid = false;
                way.dirty = false;
                return dirty;
            }
        }
        return false;
    }

    void flushAll()
    {
        for (auto &set : sets_) {
            for (Line &way : set) {
                way.valid = false;
                way.dirty = false;
            }
        }
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::vector<Line> &mutableSet(Addr line)
    {
        return sets_[splitmix(line) % sets_.size()];
    }

    std::vector<std::vector<Line>> sets_;
    std::uint64_t use_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** MEE: full tree walk per line, std::map line metadata. */
class Mee
{
  public:
    Mee(const CostParams &params, Addr epc_base, std::uint64_t epc_size,
        std::uint64_t key)
        : arity_(static_cast<std::uint64_t>(params.meeTreeArity)),
          ways_(static_cast<std::size_t>(params.meeCacheWays)),
          epcBase_(epc_base), key_(key),
          nodes_(static_cast<std::size_t>(params.meeCacheEntries /
                                          params.meeCacheWays),
                 std::vector<Node>(ways_))
    {
        std::uint64_t coverage = 1;
        while (coverage < epc_size / kCacheLineSize) {
            coverage *= arity_;
            ++levels_;
        }
    }

    /** Walk the tree for a fetch of @p line; @return nodes fetched. */
    int walk(Addr line)
    {
        std::uint64_t node = index(line) / arity_;
        int fetched = 0;
        // The root (level levels_) is on-die and never fetched.
        for (int level = 1; level < levels_; ++level, node /= arity_) {
            const std::uint64_t tag =
                (static_cast<std::uint64_t>(level) << 48) | (node + 1);
            std::vector<Node> &set = nodes_[splitmix(tag) % nodes_.size()];
            ++use_;
            bool hit = false;
            for (Node &way : set) {
                if (way.tag == tag) {
                    way.lastUse = use_;
                    hit = true;
                    break;
                }
            }
            if (hit) {
                ++hits_;
                return fetched;
            }
            // The last empty way, else the first least recently used.
            Node *victim = nullptr;
            for (Node &way : set)
                if (way.tag == 0)
                    victim = &way;
            if (!victim) {
                victim = &set[0];
                for (Node &way : set)
                    if (way.lastUse < victim->lastUse)
                        victim = &way;
            }
            ++misses_;
            ++fetched;
            *victim = Node{tag, use_};
        }
        return fetched;
    }

    void clearNodeCache()
    {
        for (auto &set : nodes_)
            for (Node &way : set)
                way = Node{};
    }

    bool verify(Addr line) const
    {
        const auto it = metas_.find(index(line));
        if (it == metas_.end())
            return true;
        const Meta &meta = it->second;
        return meta.mac == macFor(index(line), meta.dram) &&
               meta.dram == meta.trusted;
    }

    void writeback(Addr line)
    {
        Meta &meta = metaFor(line);
        ++meta.trusted;
        meta.dram = meta.trusted;
        meta.mac = macFor(index(line), meta.dram);
    }

    void tamper(Addr line) { metaFor(line).mac ^= 0x1; }

    void rollback(Addr line)
    {
        Meta &meta = metaFor(line);
        hc_assert(meta.dram > 0);
        --meta.dram;
        meta.mac = macFor(index(line), meta.dram);
    }

    std::uint32_t trustedVersion(Addr line) const
    {
        const auto it = metas_.find(index(line));
        return it == metas_.end() ? 0 : it->second.trusted;
    }

    std::uint32_t dramVersion(Addr line) const
    {
        const auto it = metas_.find(index(line));
        return it == metas_.end() ? 0 : it->second.dram;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Node {
        std::uint64_t tag = 0; //!< 0: empty
        std::uint64_t lastUse = 0;
    };
    struct Meta {
        std::uint32_t trusted = 0;
        std::uint32_t dram = 0;
        std::uint64_t mac = 0;
    };

    std::uint64_t index(Addr line) const
    {
        return (line - epcBase_) / kCacheLineSize;
    }

    std::uint64_t macFor(std::uint64_t idx, std::uint64_t version) const
    {
        const std::uint64_t material[3] = {key_, idx, version};
        return hc::fastHash64(material, sizeof(material));
    }

    Meta &metaFor(Addr line)
    {
        const auto [it, fresh] = metas_.try_emplace(index(line));
        if (fresh)
            it->second.mac = macFor(index(line), 0);
        return it->second;
    }

    std::uint64_t arity_;
    std::size_t ways_;
    Addr epcBase_;
    std::uint64_t key_;
    int levels_ = 0;
    std::vector<std::vector<Node>> nodes_;
    std::uint64_t use_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::map<std::uint64_t, Meta> metas_;
};

/**
 * The priced operations of mem::MemoryModel, line by line. Costs are
 * summed as doubles in the same order and rounded once per operation,
 * so equal outcomes give bit-equal cycles.
 */
class Memory
{
  public:
    using PageHook = std::function<Cycles(Addr page, bool write)>;

    Memory(const CostParams &params, const hc::mem::AddressSpace &space,
           std::uint64_t key)
        : params_(params), space_(space),
          cache_(params.llcSize, params.llcWays),
          mee_(params, hc::mem::AddressSpace::kEpcBase,
               params.epcVirtualSize, key)
    {
    }

    void setPageTouchHook(PageHook hook) { pageHook_ = std::move(hook); }

    Cache &cache() { return cache_; }
    Mee &mee() { return mee_; }

    /** Every MEE write-back, in order. */
    std::vector<Addr> writebacks;
    /** Every line that failed verification on a fetch, in order. */
    std::vector<Addr> failures;

    Cycles readBuffer(CoreId core, Addr addr, std::uint64_t len)
    {
        if (len == 0)
            return 0;
        const bool epc = space_.isEpc(addr);
        double cost = static_cast<double>(touchPages(addr, len, false));
        Addr line = lineOf(addr);
        for (std::uint64_t i = 0; i < lines(addr, len);
             ++i, line += kCacheLineSize) {
            const Result result = cache_.access(core, line, false);
            evicted(result);
            switch (result.outcome) {
              case CacheOutcome::OwnedHit:
                cost += params_.seqHitPerLine;
                break;
              case CacheOutcome::SharedHit:
                cost += static_cast<double>(params_.cacheToCache);
                break;
              case CacheOutcome::Miss:
                cost += params_.seqReadPerLine;
                if (epc) {
                    fetched(line);
                    cost += static_cast<double>(params_.meeReadPipeline) *
                            specPipe() / params_.meeStreamOverlap;
                    cost += static_cast<double>(mee_.walk(line)) *
                            static_cast<double>(params_.treeNodeFetch) *
                            specWalk();
                }
                break;
            }
        }
        return static_cast<Cycles>(std::llround(cost));
    }

    Cycles writeBuffer(CoreId core, Addr addr, std::uint64_t len,
                       bool flush_after)
    {
        if (len == 0)
            return 0;
        const bool epc = space_.isEpc(addr);
        double cost = static_cast<double>(touchPages(addr, len, true));
        Addr line = lineOf(addr);
        for (std::uint64_t i = 0; i < lines(addr, len);
             ++i, line += kCacheLineSize) {
            const Result result = cache_.access(core, line, true);
            evicted(result);
            switch (result.outcome) {
              case CacheOutcome::OwnedHit:
                cost += params_.seqHitPerLine;
                break;
              case CacheOutcome::SharedHit:
                cost += static_cast<double>(params_.cacheToCache);
                break;
              case CacheOutcome::Miss:
                cost += params_.seqWritePerLine;
                break;
            }
        }
        line = lineOf(addr);
        for (std::uint64_t i = 0; flush_after && i < lines(addr, len);
             ++i, line += kCacheLineSize) {
            if (!cache_.flushLine(line))
                continue;
            cost += params_.flushPerLine;
            if (epc) {
                cost += static_cast<double>(params_.meeWritePipeline) /
                        params_.meeStreamOverlap;
                writeback(line);
            }
        }
        return static_cast<Cycles>(std::llround(cost));
    }

    Cycles accessWord(CoreId core, Addr addr, bool write)
    {
        const bool epc = space_.isEpc(addr);
        double cost = static_cast<double>(touchPages(addr, 8, write));
        const Result result = cache_.access(core, addr, write);
        evicted(result);
        switch (result.outcome) {
          case CacheOutcome::OwnedHit:
            cost += static_cast<double>(params_.ownedHit);
            break;
          case CacheOutcome::SharedHit:
            cost += static_cast<double>(params_.cacheToCache);
            break;
          case CacheOutcome::Miss:
            if (write) {
                cost += static_cast<double>(params_.plainStoreMiss);
                if (epc)
                    cost += static_cast<double>(params_.meeWritePipeline);
            } else {
                cost += static_cast<double>(params_.plainLoadMiss);
                if (epc) {
                    fetched(lineOf(addr));
                    const int walk = mee_.walk(lineOf(addr));
                    cost += static_cast<double>(params_.meeReadPipeline) *
                            specPipe();
                    cost += static_cast<double>(walk) *
                            static_cast<double>(params_.treeNodeFetch) *
                            specWalk();
                }
            }
            break;
        }
        return static_cast<Cycles>(std::llround(cost));
    }

    void evictRange(Addr addr, std::uint64_t len)
    {
        if (len == 0)
            return;
        Addr line = lineOf(addr);
        for (std::uint64_t i = 0; i < lines(addr, len);
             ++i, line += kCacheLineSize) {
            if (cache_.flushLine(line) && space_.isEpc(line))
                writeback(line);
        }
    }

    /** Drops every line without write-backs, like MemoryModel. */
    void evictAll() { cache_.flushAll(); }

    /** A write-back through the MEE, recorded. */
    void writeback(Addr line)
    {
        mee_.writeback(line);
        writebacks.push_back(line);
    }

  private:
    static std::uint64_t lines(Addr addr, std::uint64_t len)
    {
        return (addr + len - 1) / kCacheLineSize -
               addr / kCacheLineSize + 1;
    }

    double specPipe() const
    {
        return params_.meeSpeculativeLoading
                   ? params_.speculativePipelineFactor
                   : 1.0;
    }
    double specWalk() const
    {
        return params_.meeSpeculativeLoading
                   ? params_.speculativeWalkFactor
                   : 1.0;
    }

    Cycles touchPages(Addr addr, std::uint64_t len, bool write)
    {
        if (!pageHook_ || !space_.isEpc(addr))
            return 0;
        Cycles extra = 0;
        const Addr last = addr + (len ? len - 1 : 0);
        for (Addr page = addr / hc::kPageSize;
             page <= last / hc::kPageSize; ++page)
            extra += pageHook_(page * hc::kPageSize, write);
        return extra;
    }

    void evicted(const Result &result)
    {
        if (result.evicted && result.evictedDirty &&
            space_.isEpc(result.evictedLine))
            writeback(result.evictedLine);
    }

    void fetched(Addr line)
    {
        if (!mee_.verify(line))
            failures.push_back(line);
    }

    CostParams params_;
    const hc::mem::AddressSpace &space_;
    PageHook pageHook_;
    Cache cache_;
    Mee mee_;
};

} // namespace refmem

#endif // HC_TESTS_REF_MEM_HH

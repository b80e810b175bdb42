/**
 * @file
 * MEE model implementation.
 */

#include "mem/mee.hh"

#include "support/hash.hh"
#include "support/logging.hh"

namespace hc::mem {

Mee::Mee(const CostParams &params, Addr epc_base, std::uint64_t epc_size,
         std::uint64_t key)
    : params_(params), epcBase_(epc_base),
      numLines_(epc_size / kCacheLineSize), key_(key),
      chunkSlots_(kChunkSlots)
{
    hc_assert(params_.meeCacheEntries > 0);
    hc_assert(params_.meeCacheWays > 0);
    hc_assert(params_.meeCacheEntries % params_.meeCacheWays == 0);
    hc_assert(params_.meeTreeArity > 1);
    nodeSets_ = params_.meeCacheEntries / params_.meeCacheWays;
    nodeCache_.assign(static_cast<std::size_t>(params_.meeCacheEntries),
                      NodeWay{});

    // Number of tree levels needed so the top level has one node
    // (the root, which is always on-die and never fetched).
    treeLevels_ = 0;
    std::uint64_t coverage = 1;
    while (coverage < numLines_) {
        coverage *= static_cast<std::uint64_t>(params_.meeTreeArity);
        ++treeLevels_;
    }
    if (treeLevels_ > 1)
        path_.reserve(static_cast<std::size_t>(treeLevels_ - 1));
    // Pre-size the per-line metadata overlay: a buffer sweep's first
    // flush materializes thousands of entries back to back, and
    // paying the incremental rehashes there dominates its host cost.
    lines_.reserve(1 << 8);
}

std::uint64_t
Mee::lineIndex(Addr line_addr) const
{
    hc_assert(line_addr >= epcBase_);
    const std::uint64_t idx = (line_addr - epcBase_) / kCacheLineSize;
    hc_assert(idx < numLines_);
    return idx;
}

std::uint64_t
Mee::macFor(std::uint64_t line_index, std::uint64_t version) const
{
    // A keyed 64-bit tag. Real hardware uses a Carter-Wegman MAC; the
    // protocol (per-line versioned tags verified against tree
    // counters) is what this model reproduces.
    const std::uint64_t material[3] = {key_, line_index, version};
    return fastHash64(material, sizeof(material));
}

Mee::Chunk *
Mee::chunkFor(std::uint64_t line_index, bool create) const
{
    const std::uint64_t key = line_index >> kChunkShift;
    ChunkSlot &slot = chunkSlots_[key % kChunkSlots];
    if (slot.key == key && (slot.chunk || !create))
        return slot.chunk;
    slot.key = key;
    if (create) {
        slot.chunk = &lines_[key];
    } else {
        const auto it = lines_.find(key);
        slot.chunk = it == lines_.end() ? nullptr : &it->second;
    }
    return slot.chunk;
}

Mee::LineMeta &
Mee::metaFor(std::uint64_t line_index)
{
    Chunk &chunk = *chunkFor(line_index, /*create=*/true);
    LineMeta &meta =
        chunk.metas[line_index & ((1u << kChunkShift) - 1)];
    if (!meta.touched) {
        meta.touched = true;
        meta.dramMac = macFor(line_index, 0);
    }
    return meta;
}

int
Mee::readWalkMisses(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    const auto arity = static_cast<std::uint64_t>(params_.meeTreeArity);

    // Re-derive the walk path only when the leaf group changes; a
    // sequential sweep reuses it for arity consecutive lines.
    const std::uint64_t group = idx / arity;
    if (group != pathGroup_) {
        pathGroup_ = group;
        path_.clear();
        std::uint64_t node = group;
        for (int level = 1; level < treeLevels_; ++level) {
            const std::uint64_t tag =
                (static_cast<std::uint64_t>(level) << 48) | (node + 1);
            const auto set = static_cast<std::uint32_t>(
                mix64(tag) % static_cast<std::uint64_t>(nodeSets_));
            path_.push_back(PathNode{tag, set});
            node /= arity;
        }
    }

    // Walk from the leaf counter level upward. A level whose covering
    // node is in the node cache ends the walk: the cached node is
    // already trusted. The root (level treeLevels_) is pinned on-die
    // and never fetched, so it has no path entry.
    int misses = 0;
    const int ways = params_.meeCacheWays;
    bool at_leaf = true;
    for (const PathNode &pn : path_) {
        NodeWay *base =
            &nodeCache_[static_cast<std::size_t>(pn.set) *
                        static_cast<std::size_t>(ways)];
        ++nodeUseCounter_;

        NodeWay *victim = &base[0];
        bool hit = false;
        for (int w = 0; w < ways; ++w) {
            if (base[w].tag == pn.tag) {
                base[w].lastUse = nodeUseCounter_;
                hit = true;
                victim = &base[w];
                break;
            }
            if (base[w].tag == 0 ||
                (victim->tag != 0 &&
                 base[w].lastUse < victim->lastUse)) {
                victim = &base[w];
            }
        }
        if (at_leaf) {
            // Feed the spanWalkMisses() leaf memo: the way that now
            // carries this group's leaf node (hit or about to fill).
            leafGroup_ = group;
            leafTag_ = pn.tag;
            leafWay_ = victim;
            at_leaf = false;
        }
        if (hit) {
            ++nodeHits_;
            return misses;
        }
        ++nodeMisses_;
        ++misses;
        victim->tag = pn.tag;
        victim->lastUse = nodeUseCounter_;
    }
    return misses;
}

int
Mee::spanWalkMisses(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    const auto arity = static_cast<std::uint64_t>(params_.meeTreeArity);
    if (idx / arity == leafGroup_ && leafWay_ &&
        leafWay_->tag == leafTag_) {
        // Guaranteed leaf hit: replay exactly the leaf-probe-hit
        // branch of readWalkMisses().
        ++nodeUseCounter_;
        leafWay_->lastUse = nodeUseCounter_;
        ++nodeHits_;
        return 0;
    }
    return readWalkMisses(line_addr);
}

void
Mee::clearNodeCache()
{
    nodeCache_.assign(nodeCache_.size(), NodeWay{});
    leafGroup_ = ~std::uint64_t{0};
    leafWay_ = nullptr;
}

void
Mee::applyOldest() const
{
    Pending &entry = pending_[pendingHead_];
    LineMeta &meta = *entry.meta;
    // An untouched entry is at version 0; its initial MAC is
    // overwritten here anyway.
    meta.touched = true;
    ++meta.trustedVersion;
    meta.dramVersion = meta.trustedVersion;
    meta.dramMac = macFor(entry.index, meta.dramVersion);
    // The fresh pair matches the trusted counter by construction.
    meta.verified = true;
    --pendingByLine_[entry.index % kPendingFilter];
    pendingHead_ = (pendingHead_ + 1) % kPendingSlots;
    --pendingCount_;
}

void
Mee::drainWritebacks() const
{
    while (pendingCount_ != 0)
        applyOldest();
}

bool
Mee::verifyLine(Addr line_addr) const
{
    const std::uint64_t idx = lineIndex(line_addr);
    if (pendingByLine_[idx % kPendingFilter])
        drainWritebacks();
    Chunk *chunk = chunkFor(idx, /*create=*/false);
    if (!chunk)
        return true; // untouched line: version 0, MAC as initialised
    LineMeta &meta = chunk->metas[idx & ((1u << kChunkShift) - 1)];
    if (!meta.touched || meta.verified)
        return true;
    if (meta.dramMac != macFor(idx, meta.dramVersion))
        return false; // forged/corrupted line or MAC
    if (meta.dramVersion != meta.trustedVersion)
        return false; // consistent but stale: rollback attack
    meta.verified = true;
    return true;
}

std::uint32_t
Mee::trustedVersion(Addr line_addr) const
{
    const std::uint64_t idx = lineIndex(line_addr);
    drainWritebacks();
    const auto it = lines_.find(idx >> kChunkShift);
    if (it == lines_.end())
        return 0;
    return it->second.metas[idx & ((1u << kChunkShift) - 1)]
        .trustedVersion;
}

void
Mee::writebackLine(Addr line_addr)
{
    const std::uint64_t idx = lineIndex(line_addr);
    LineMeta *meta = &chunkFor(idx, /*create=*/true)
                          ->metas[idx & ((1u << kChunkShift) - 1)];
    __builtin_prefetch(meta, 1);
    if (pendingCount_ == kPendingSlots)
        applyOldest();
    pending_[(pendingHead_ + pendingCount_) % kPendingSlots] =
        Pending{idx, meta};
    ++pendingCount_;
    ++pendingByLine_[idx % kPendingFilter];
}

void
Mee::tamperMac(Addr line_addr)
{
    drainWritebacks();
    LineMeta &meta = metaFor(lineIndex(line_addr));
    meta.dramMac ^= 0x1;
    meta.verified = false;
}

void
Mee::rollbackLine(Addr line_addr)
{
    drainWritebacks();
    LineMeta &meta = metaFor(lineIndex(line_addr));
    hc_assert(meta.dramVersion > 0);
    --meta.dramVersion;
    meta.dramMac = macFor(lineIndex(line_addr), meta.dramVersion);
    meta.verified = false;
}

} // namespace hc::mem

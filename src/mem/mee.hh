/**
 * @file
 * Memory Encryption Engine model.
 *
 * The MEE (Gueron, "A Memory Encryption Engine Suitable for General
 * Purpose Processors") provides confidentiality, integrity, and
 * anti-rollback for the EPC by maintaining an integrity tree of
 * version counters whose root lives on-die. This model is both
 * functional and timed:
 *
 *  - functional: every EPC line has a trusted version counter (what
 *    the tree protects) and a "DRAM-resident" (version, MAC) pair.
 *    Tests can tamper with or roll back the DRAM copy and observe
 *    detection, exactly the attacks the MEE defends against.
 *  - timed: demand reads walk the tree until a node hits the small
 *    on-die node cache; every missing level adds a DRAM fetch. The
 *    node cache is what makes encrypted-read overhead grow with the
 *    buffer working set (paper Fig 6). Counter updates on writes are
 *    absorbed in the background (write-combining), matching the
 *    paper's observation that encrypted writes cost only ~6% extra
 *    (Fig 7) while reads pay up to 102%.
 *
 * Line metadata is a sparse overlay: a line with no entry is in its
 * freshly-initialised state (version 0 on both sides, MAC derivable
 * from the key). Materialising entries lazily keeps construction O(1)
 * in EPC size — the eager form hashed a MAC for each of the ~4M lines
 * of a 256 MiB EPC before the simulation could start.
 */

#ifndef HC_MEM_MEE_HH
#define HC_MEM_MEE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/cost_params.hh"
#include "support/units.hh"

namespace hc::mem {

/** Functional + timed model of the Memory Encryption Engine. */
class Mee
{
  public:
    /**
     * @param params    memory cost parameters (tree arity, cache size)
     * @param epc_base  first EPC address
     * @param epc_size  EPC size in bytes
     * @param key       MAC key (any value; derived from the CPU's
     *                  fused master secret in real hardware)
     */
    Mee(const CostParams &params, Addr epc_base, std::uint64_t epc_size,
        std::uint64_t key);

    // ------------------------------------------------------------------
    // Timing.
    // ------------------------------------------------------------------

    /**
     * Walk the integrity tree for a demand read of @p line_addr,
     * stopping at the first level cached in the on-die node cache.
     * Updates the node cache.
     *
     * @return the number of tree nodes that had to be fetched.
     */
    int readWalkMisses(Addr line_addr);

    /**
     * readWalkMisses() for a line of an ascending bulk span —
     * bit-identical results and node-cache state, cheaper when the
     * previous walk already verified this line's leaf group.
     *
     * Adjacent lines share every tree ancestor but the data itself
     * (meeTreeArity lines per leaf counter node), so after one full
     * walk the next lines of the group are guaranteed leaf-level hits
     * — unless that leaf has since been evicted from the node cache,
     * which the memo detects by re-checking the cached way's tag. The
     * replay performs exactly the leaf-probe-hit state updates the
     * full walk would: one use-counter tick, the leaf's LRU stamp,
     * and one node-cache hit.
     */
    int spanWalkMisses(Addr line_addr);

    /** Reset the node cache (not done by LLC flushes; test hook). */
    void clearNodeCache();

    // ------------------------------------------------------------------
    // Functional integrity protection.
    // ------------------------------------------------------------------

    /**
     * Verify the DRAM-resident copy of @p line_addr.
     * @return false when the MAC does not match or the version was
     *         rolled back.
     */
    bool verifyLine(Addr line_addr) const;

    /**
     * Record a write-back of @p line_addr: bump version, re-MAC.
     * Applied lazily (see pending_); every reader of the line's state
     * below sees it applied.
     */
    void writebackLine(Addr line_addr);

    /** Attack hook: corrupt the stored MAC of a line. */
    void tamperMac(Addr line_addr);

    /**
     * Attack hook: replay the previous (version, MAC) pair of a
     * line — a consistent but stale snapshot, i.e. a rollback.
     */
    void rollbackLine(Addr line_addr);

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /** @return number of integrity-tree levels above the data. */
    int treeLevels() const { return treeLevels_; }

    /** @return the trusted version counter of @p line_addr: how
     *  often it was written back (0 if never; no side effects). */
    std::uint32_t trustedVersion(Addr line_addr) const;

    std::uint64_t nodeCacheHits() const { return nodeHits_; }
    std::uint64_t nodeCacheMisses() const { return nodeMisses_; }

  private:
    /**
     * Per-line protection state. An untouched entry (touched false,
     * like a line absent from the old per-line map) means "never
     * written back or attacked": version 0 everywhere, MAC =
     * macFor(index, 0), trivially valid.
     */
    struct LineMeta {
        std::uint32_t trustedVersion = 0;
        std::uint32_t dramVersion = 0;
        std::uint64_t dramMac = 0;
        /** Lazily initialised by metaFor() (sets dramMac). */
        bool touched = false;
        /** Memo: the (version, MAC) pair last passed verifyLine().
         *  Purely an avoided re-hash — cleared by every mutation. */
        bool verified = false;
    };

    std::uint64_t lineIndex(Addr line_addr) const;
    std::uint64_t macFor(std::uint64_t line_index,
                         std::uint64_t version) const;
    /** Materialise (or fetch) the overlay entry for @p line_index. */
    LineMeta &metaFor(std::uint64_t line_index);
    /** Apply every pending write-back, oldest first. */
    void drainWritebacks() const;

    const CostParams &params_;
    Addr epcBase_;
    std::uint64_t numLines_;
    std::uint64_t key_;
    int treeLevels_;

    /** Set-associative node cache; tag 0 denotes an empty way. */
    struct NodeWay {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };
    std::vector<NodeWay> nodeCache_; //!< sets * ways, row-major
    int nodeSets_ = 0;
    std::uint64_t nodeUseCounter_ = 0;

    /**
     * Memoised tree walk: every line in a leaf group (same idx /
     * arity) climbs through the same nodes, so the per-level (tag,
     * set) pairs of the most recent walk are reused whenever the
     * group repeats — sequential sweeps re-derive the path once per
     * group instead of once per line. Pure derivation cache; the node
     * cache above stays the only stateful part of the walk.
     */
    struct PathNode {
        std::uint64_t tag;
        std::uint32_t set;
    };
    std::uint64_t pathGroup_ = ~std::uint64_t{0};
    std::vector<PathNode> path_;

    /**
     * Leaf memo for spanWalkMisses(): the node-cache way that held
     * (or received) the leaf node of the most recent walk's group.
     * Valid as long as the way still carries leafTag_ — walks are the
     * only node-cache mutators, and every walk refreshes this memo,
     * so a stale pointer can only mean the leaf was evicted by the
     * higher levels of its own walk (pathologically small caches),
     * which the tag check catches.
     */
    std::uint64_t leafGroup_ = ~std::uint64_t{0};
    std::uint64_t leafTag_ = 0;
    NodeWay *leafWay_ = nullptr;

    /**
     * Sparse per-line overlay (mutable: verifyLine memoises), stored
     * in chunks of 64 consecutive lines so a sequential sweep pays
     * one map lookup per chunk instead of per line. Entries are
     * lazily initialised via LineMeta::touched, preserving the
     * "absent means never written back or attacked" semantics per
     * line.
     */
    static constexpr unsigned kChunkShift = 6;
    struct Chunk {
        std::array<LineMeta, std::size_t{1} << kChunkShift> metas;
    };
    /** @return the chunk covering @p line_index, creating if asked. */
    Chunk *chunkFor(std::uint64_t line_index, bool create) const;
    mutable std::unordered_map<std::uint64_t, Chunk> lines_;

    /**
     * Direct-mapped cache of chunk lookups, indexed by the low bits
     * of the chunk key: dirty EPC victims jump among hundreds of
     * chunks. A slot with a null chunk records that the chunk does
     * not exist, which answers verifyLine()'s lookups of
     * never-written lines. Only chunkFor(create) brings a chunk into
     * being, and it never trusts such a slot and overwrites it, so no
     * slot goes stale; map nodes never move, so cached pointers stay
     * valid. A fixed 64 KiB, whatever the EPC size.
     */
    static constexpr std::size_t kChunkSlots = 4096;
    struct ChunkSlot {
        std::uint64_t key = ~std::uint64_t{0};
        Chunk *chunk = nullptr; //!< null: no chunk for key (yet)
    };
    mutable std::vector<ChunkSlot> chunkSlots_;

    /**
     * Write-backs queued but not yet applied, oldest at pendingHead_.
     * A dirty EPC victim's LineMeta is rarely in the host cache, so
     * writebackLine() only resolves the entry, prefetches it and
     * queues it; the bump and re-MAC happen kPendingSlots write-backs
     * later, when the queue is full. Outputs cannot move: a
     * write-back touches only its own line's LineMeta and never the
     * node cache, the queue is FIFO (two write-backs of one line
     * apply in order), and every reader of a line's state drains
     * first (verifyLine() when the line may be pending; tamperMac(),
     * rollbackLine() and trustedVersion() always). Entries point into
     * map nodes, which never move.
     */
    static constexpr std::size_t kPendingSlots = 16;
    struct Pending {
        std::uint64_t index = 0;
        LineMeta *meta = nullptr;
    };
    mutable std::array<Pending, kPendingSlots> pending_{};
    mutable std::size_t pendingHead_ = 0;
    mutable std::size_t pendingCount_ = 0;
    /**
     * Pending write-backs per line index modulo kPendingFilter, so
     * verifyLine() tests one counter instead of scanning the ring. A
     * collision only drains early, which is always safe.
     */
    static constexpr std::size_t kPendingFilter = 64;
    mutable std::array<std::uint8_t, kPendingFilter> pendingByLine_{};
    /** Apply the write-back in pending_[pendingHead_] and free it. */
    void applyOldest() const;

    std::uint64_t nodeHits_ = 0;
    std::uint64_t nodeMisses_ = 0;
};

} // namespace hc::mem

#endif // HC_MEM_MEE_HH

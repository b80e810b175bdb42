/**
 * @file
 * Memory-system tests: address space, LLC model, MEE (timing and
 * integrity), the priced MemoryModel (anchored to Table 1), buffers
 * and shared variables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "mem/buffer.hh"
#include "mem/machine.hh"
#include "mem/shared_var.hh"
#include "ref_mem.hh"
#include "support/rng.hh"

using namespace hc;
using namespace hc::mem;

namespace {

/** Run @p body as a fiber on core @p core and finish the engine. */
void
runSim(Machine &machine, std::function<void()> body, CoreId core = 0)
{
    machine.engine().spawn("test", core, std::move(body));
    machine.engine().run();
}

} // anonymous namespace

// ----------------------------------------------------------------------
// Address space.
// ----------------------------------------------------------------------

TEST(AddressSpace, DomainsAreDisjoint)
{
    AddressSpace space(64_MiB, 16_MiB);
    const Addr u = space.allocUntrusted(100);
    const Addr e = space.allocEpc(100);
    EXPECT_EQ(space.domainOf(u), Domain::Untrusted);
    EXPECT_EQ(space.domainOf(e), Domain::Epc);
    EXPECT_FALSE(space.isEpc(u));
    EXPECT_TRUE(space.isEpc(e));
}

TEST(AddressSpace, RangeInDomain)
{
    AddressSpace space(64_MiB, 16_MiB);
    const Addr u = space.allocUntrusted(4096);
    EXPECT_TRUE(space.rangeInDomain(u, 4096, Domain::Untrusted));
    EXPECT_FALSE(space.rangeInDomain(u, 4096, Domain::Epc));
    EXPECT_TRUE(space.rangeInDomain(u, 0, Domain::Epc)); // empty
}

TEST(AddressSpace, FreeAndReuse)
{
    AddressSpace space(1_MiB, 1_MiB);
    const Addr a = space.allocUntrusted(1000);
    space.free(a);
    const Addr b = space.allocUntrusted(1000);
    EXPECT_EQ(a, b); // free list reuses the block
}

TEST(AddressSpace, AlignmentHonored)
{
    AddressSpace space(64_MiB, 16_MiB);
    for (std::uint64_t align : {16ull, 64ull, 4096ull}) {
        const Addr a = space.allocUntrusted(10, align);
        EXPECT_EQ(a % align, 0u) << "align=" << align;
    }
}

TEST(AddressSpace, TracksBytesInUse)
{
    AddressSpace space(1_MiB, 1_MiB);
    const auto before = space.untrusted().bytesInUse();
    const Addr a = space.allocUntrusted(5000);
    EXPECT_GT(space.untrusted().bytesInUse(), before);
    space.free(a);
    EXPECT_EQ(space.untrusted().bytesInUse(), before);
}

// ----------------------------------------------------------------------
// Cache model.
// ----------------------------------------------------------------------

TEST(CacheModel, MissThenOwnedHit)
{
    CacheModel cache(64_KiB, 4);
    auto first = cache.access(0, 0x1000, false);
    EXPECT_EQ(first.outcome, CacheOutcome::Miss);
    auto second = cache.access(0, 0x1000, false);
    EXPECT_EQ(second.outcome, CacheOutcome::OwnedHit);
    // Same line, different word.
    auto third = cache.access(0, 0x1020, false);
    EXPECT_EQ(third.outcome, CacheOutcome::OwnedHit);
}

TEST(CacheModel, CrossCoreSharedHit)
{
    CacheModel cache(64_KiB, 4);
    cache.access(0, 0x2000, true);
    auto other = cache.access(1, 0x2000, false);
    EXPECT_EQ(other.outcome, CacheOutcome::SharedHit);
    // Ownership transferred: core 1 now hits locally.
    auto again = cache.access(1, 0x2000, false);
    EXPECT_EQ(again.outcome, CacheOutcome::OwnedHit);
}

TEST(CacheModel, FlushLineForcesMiss)
{
    CacheModel cache(64_KiB, 4);
    cache.access(0, 0x3000, true);
    EXPECT_TRUE(cache.contains(0x3000));
    EXPECT_TRUE(cache.flushLine(0x3000)); // was dirty
    EXPECT_FALSE(cache.contains(0x3000));
    EXPECT_EQ(cache.access(0, 0x3000, false).outcome,
              CacheOutcome::Miss);
    EXPECT_FALSE(cache.flushLine(0x3000 + 0x100000)); // absent
}

TEST(CacheModel, FlushAllEmptiesEverything)
{
    CacheModel cache(64_KiB, 4);
    for (Addr a = 0; a < 32_KiB; a += 64)
        cache.access(0, a, false);
    cache.flushAll();
    for (Addr a = 0; a < 32_KiB; a += 64)
        EXPECT_FALSE(cache.contains(a));
}

TEST(CacheModel, CapacityEvictionOccurs)
{
    // Touching more distinct lines than the cache holds must evict.
    CacheModel small(64 * 4, 2, 64); // 4 lines total
    bool evicted = false;
    for (Addr a = 0; a < 64 * 16; a += 64)
        evicted |= small.access(0, a, true).evicted;
    EXPECT_TRUE(evicted);
    EXPECT_EQ(small.misses(), 16u);
}

TEST(CacheModel, LruKeepsHotLine)
{
    // A line re-touched between conflicting fills should survive
    // while colder lines are evicted (LRU within the set).
    CacheModel cache(8_KiB, 2);
    const Addr hot = 0x100;
    cache.access(0, hot, false);
    for (Addr a = 0x10000; a < 0x10000 + 64 * 64; a += 64) {
        cache.access(0, hot, false); // keep hot
        cache.access(0, a, false);
    }
    EXPECT_EQ(cache.access(0, hot, false).outcome,
              CacheOutcome::OwnedHit);
}

TEST(CacheModel, EvictionReportsDirtyVictim)
{
    CacheModel cache(64 * 2, 1, 64); // 2 sets, direct mapped
    // Fill every set with dirty lines, then stream clean reads; any
    // eviction of a dirty line must be reported.
    for (Addr a = 0; a < 64 * 2; a += 64)
        cache.access(0, a, true);
    bool dirty_eviction = false;
    for (Addr a = 64 * 2; a < 64 * 64; a += 64) {
        auto r = cache.access(0, a, false);
        if (r.evicted && r.evictedDirty)
            dirty_eviction = true;
    }
    EXPECT_TRUE(dirty_eviction);
}

// ----------------------------------------------------------------------
// MEE.
// ----------------------------------------------------------------------

TEST(Mee, WalkMissesThenHits)
{
    CostParams params;
    Mee mee(params, 0x1000000, 64_MiB, 0x6b6579);
    const Addr line = 0x1000000;
    const int first = mee.readWalkMisses(line);
    EXPECT_GT(first, 0);
    const int second = mee.readWalkMisses(line);
    EXPECT_EQ(second, 0); // covering node now cached
    mee.clearNodeCache();
    EXPECT_GT(mee.readWalkMisses(line), 0);
}

TEST(Mee, TreeLevelsCoverEpc)
{
    CostParams params;
    Mee mee(params, 0, 93_MiB, 1);
    // 93 MiB / 64 B lines with arity 8 needs 7 levels.
    EXPECT_EQ(mee.treeLevels(), 7);
}

TEST(Mee, VerifiesUntouchedLine)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    EXPECT_TRUE(mee.verifyLine(0));
    EXPECT_TRUE(mee.verifyLine(64));
}

TEST(Mee, DetectsMacTampering)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(0);
    EXPECT_TRUE(mee.verifyLine(0));
    mee.tamperMac(0);
    EXPECT_FALSE(mee.verifyLine(0));
    EXPECT_TRUE(mee.verifyLine(64)); // neighbors unaffected
}

TEST(Mee, DetectsRollback)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(128);
    mee.writebackLine(128);
    EXPECT_TRUE(mee.verifyLine(128));
    // Replay the previous consistent (version, MAC) snapshot: the
    // MAC itself is valid, but the version lags the tree counter.
    mee.rollbackLine(128);
    EXPECT_FALSE(mee.verifyLine(128));
}

TEST(Mee, WritebackRestoresConsistency)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(0);
    mee.tamperMac(0);
    EXPECT_FALSE(mee.verifyLine(0));
    mee.writebackLine(0); // fresh write-back re-MACs
    EXPECT_TRUE(mee.verifyLine(0));
}

TEST(Mee, VerifyThenWritebackInAbsentChunk)
{
    CostParams params;
    Mee mee(params, 0, 256_MiB, 99);
    // A 64-line chunk nothing has touched: verification finds no
    // metadata, and the lookup remembers the chunk as absent.
    const Addr line = 77 * 64 * 64 + 3 * 64;
    EXPECT_TRUE(mee.verifyLine(line));
    // The chunk then comes into being through a neighbour's
    // write-back; the attack on the first line must land in it.
    mee.writebackLine(line + 64);
    EXPECT_EQ(mee.trustedVersion(line + 64), 1u);
    mee.tamperMac(line);
    EXPECT_FALSE(mee.verifyLine(line));
    EXPECT_TRUE(mee.verifyLine(line + 64));
}

TEST(Mee, AliasedChunksStayDistinct)
{
    CostParams params;
    Mee mee(params, 0, 256_MiB, 99);
    // Lines 16 MiB apart: chunk keys 4096 apart, so every lookup of
    // one displaces the other's remembered chunk.
    const Addr a = 5 * 64;
    const Addr b = a + 16_MiB;
    for (int i = 0; i < 3; ++i) {
        mee.writebackLine(a);
        mee.writebackLine(b);
    }
    EXPECT_EQ(mee.trustedVersion(a), 3u);
    EXPECT_EQ(mee.trustedVersion(b), 3u);
    EXPECT_TRUE(mee.verifyLine(a));
    EXPECT_TRUE(mee.verifyLine(b));
    EXPECT_TRUE(mee.verifyLine(b + 16_MiB)); // an absent alias

    mee.tamperMac(a);
    mee.rollbackLine(b);
    EXPECT_FALSE(mee.verifyLine(a));
    EXPECT_FALSE(mee.verifyLine(b));
    EXPECT_TRUE(mee.verifyLine(a + 64));
    EXPECT_TRUE(mee.verifyLine(b + 64));
    // Repairing one line leaves the other's attack detected.
    mee.writebackLine(a);
    EXPECT_TRUE(mee.verifyLine(a));
    EXPECT_FALSE(mee.verifyLine(b));
    EXPECT_EQ(mee.trustedVersion(b), 3u);
}

// Write-backs are queued and applied later (Mee::pending_). Each test
// below reads a line whose write-back is still queued, so it sees
// the write-back applied only if the reader drains the queue.

TEST(Mee, PendingWritebackRepairsVerify)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(0);
    mee.rollbackLine(0);
    EXPECT_FALSE(mee.verifyLine(0));
    mee.writebackLine(0); // pending: re-MACs at version 2
    EXPECT_TRUE(mee.verifyLine(0));
    EXPECT_EQ(mee.trustedVersion(0), 2u);
}

TEST(Mee, TamperAfterPendingWritebackIsDetected)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(64);
    mee.tamperMac(64); // must land after the write-back's re-MAC
    EXPECT_FALSE(mee.verifyLine(64));
    EXPECT_EQ(mee.trustedVersion(64), 1u);
}

TEST(Mee, RollbackAfterPendingWritebacksIsDetected)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(128); // the same line queued twice
    mee.writebackLine(128);
    mee.rollbackLine(128); // replays version 1 against trusted 2
    EXPECT_FALSE(mee.verifyLine(128));
    EXPECT_EQ(mee.trustedVersion(128), 2u);
}

TEST(Mee, TrustedVersionCountsPendingWritebacks)
{
    CostParams params;
    Mee mee(params, 0, 1_MiB, 99);
    mee.writebackLine(192);
    EXPECT_EQ(mee.trustedVersion(192), 1u);
    mee.writebackLine(192);
    mee.writebackLine(192);
    EXPECT_EQ(mee.trustedVersion(192), 3u);
    EXPECT_TRUE(mee.verifyLine(192));
}

TEST(Mee, WritebacksBeyondTheQueueAllApply)
{
    CostParams params;
    Mee mee(params, 0, 256_MiB, 99);
    // A tampered line whose repairing write-back then leaves the
    // queue by overflow, not by a drain: verifyLine() of a line that
    // is no longer pending does not drain.
    const Addr fixed = 3 * 64;
    mee.writebackLine(fixed);
    mee.tamperMac(fixed);
    EXPECT_FALSE(mee.verifyLine(fixed));
    mee.writebackLine(fixed);
    // Far more write-backs than the queue holds, spread over chunks
    // and repeating lines, with no reader in between.
    constexpr int kLines = 40;
    const auto line_at = [](int i) {
        return 1_MiB + static_cast<Addr>(i) * 65 * 64; // 65 lines apart
    };
    for (int i = 0; i < kLines; ++i)
        mee.writebackLine(line_at(i));
    for (int again = 1; again <= 2; ++again) {
        for (int i = again; i < kLines; i += 4)
            mee.writebackLine(line_at(i));
    }
    EXPECT_TRUE(mee.verifyLine(fixed));
    for (int i = 0; i < kLines; ++i) {
        const Addr line = line_at(i);
        const std::uint32_t expected = (i % 4 == 1 || i % 4 == 2) ? 2 : 1;
        EXPECT_EQ(mee.trustedVersion(line), expected) << "line " << i;
        EXPECT_TRUE(mee.verifyLine(line)) << "line " << i;
    }
    EXPECT_EQ(mee.trustedVersion(fixed), 2u);
}

// ----------------------------------------------------------------------
// MemoryModel: the Table 1 anchors.
// ----------------------------------------------------------------------

TEST(MemoryModel, Table1Row9LoadMissCosts)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer enc(machine, Domain::Epc, 64);
        Buffer plain(machine, Domain::Untrusted, 64);
        // Warm the tree nodes, then measure the steady-state miss.
        for (int i = 0; i < 3; ++i) {
            memory.evictRange(enc.addr(), 64);
            memory.accessWord(enc.addr(), false);
        }
        memory.evictRange(enc.addr(), 64);
        EXPECT_EQ(memory.accessWord(enc.addr(), false), 400u);
        memory.evictRange(plain.addr(), 64);
        EXPECT_EQ(memory.accessWord(plain.addr(), false), 308u);
    });
}

TEST(MemoryModel, Table1Row10StoreMissCosts)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer enc(machine, Domain::Epc, 64);
        Buffer plain(machine, Domain::Untrusted, 64);
        memory.evictRange(enc.addr(), 64);
        EXPECT_EQ(memory.accessWord(enc.addr(), true), 575u);
        memory.evictRange(plain.addr(), 64);
        EXPECT_EQ(memory.accessWord(plain.addr(), true), 481u);
    });
}

TEST(MemoryModel, Table1Row7SequentialReads)
{
    Machine machine;
    runSim(machine, [&] {
        Buffer enc(machine, Domain::Epc, 2048);
        Buffer plain(machine, Domain::Untrusted, 2048);
        // Steady state after the first sweep.
        for (int i = 0; i < 4; ++i) {
            enc.evict();
            plain.evict();
            enc.read();
            plain.read();
        }
        enc.evict();
        plain.evict();
        const Cycles e = enc.read();
        const Cycles p = plain.read();
        EXPECT_NEAR(static_cast<double>(p), 727.0, 5.0);
        EXPECT_NEAR(static_cast<double>(e), 1124.0, 60.0);
    });
}

TEST(MemoryModel, Table1Row8SequentialWrites)
{
    Machine machine;
    runSim(machine, [&] {
        Buffer enc(machine, Domain::Epc, 2048);
        Buffer plain(machine, Domain::Untrusted, 2048);
        enc.evict();
        plain.evict();
        const Cycles e = enc.write(true);
        const Cycles p = plain.write(true);
        EXPECT_NEAR(static_cast<double>(p), 6458.0, 10.0);
        EXPECT_NEAR(static_cast<double>(e), 6875.0, 60.0);
    });
}

TEST(MemoryModel, CachedAccessIsCheap)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer buf(machine, Domain::Untrusted, 64);
        memory.accessWord(buf.addr(), false); // fill
        const Cycles hit = memory.accessWord(buf.addr(), false);
        EXPECT_LT(hit, 10u);
    });
}

TEST(MemoryModel, ChargesCallingFiber)
{
    Machine machine;
    runSim(machine, [&] {
        Buffer buf(machine, Domain::Untrusted, 2048);
        buf.evict();
        const Cycles before = machine.now();
        const Cycles cost = buf.read();
        EXPECT_EQ(machine.now(), before + cost);
    });
}

TEST(MemoryModel, NoChargeVariantKeepsClock)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer buf(machine, Domain::Untrusted, 2048);
        buf.evict();
        const Cycles before = machine.now();
        const Cycles cost = memory.readBuffer(buf.addr(), 2048,
                                              /*charge_time=*/false);
        EXPECT_GT(cost, 0u);
        EXPECT_EQ(machine.now(), before);
    });
}

TEST(MemoryModel, IntegrityFailureHookFires)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        Buffer enc(machine, Domain::Epc, 64);
        memory.accessWord(enc.addr(), true);
        memory.evictRange(enc.addr(), 64); // write back, re-MAC
        memory.mee().tamperMac(enc.addr());
        int failures = 0;
        memory.setIntegrityFailureHook(
            [&](Addr) { ++failures; });
        memory.accessWord(enc.addr(), false);
        EXPECT_EQ(failures, 1);
    });
}

TEST(MemoryModel, PageTouchHookSeesEpcPagesOnly)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        std::uint64_t touches = 0;
        memory.setPageTouchHook([&](Addr, bool) -> Cycles {
            ++touches;
            return 0;
        });
        Buffer enc(machine, Domain::Epc, 4096);
        Buffer plain(machine, Domain::Untrusted, 4096);
        memory.readBuffer(enc.addr(), 4096);
        EXPECT_GT(touches, 0u);
        const std::uint64_t after_epc = touches;
        memory.readBuffer(plain.addr(), 4096);
        EXPECT_EQ(touches, after_epc); // untrusted: no hook
        memory.setPageTouchHook(nullptr);
    });
}

TEST(MemoryModel, PageTouchCostIsCharged)
{
    Machine machine;
    runSim(machine, [&] {
        auto &memory = machine.memory();
        memory.setPageTouchHook(
            [](Addr, bool) -> Cycles { return 10'000; });
        Buffer enc(machine, Domain::Epc, 64);
        const Cycles cost = memory.accessWord(enc.addr(), false);
        EXPECT_GE(cost, 10'000u);
        memory.setPageTouchHook(nullptr);
    });
}

// ----------------------------------------------------------------------
// Buffer and SharedVar.
// ----------------------------------------------------------------------

TEST(Buffer, HoldsFunctionalBytes)
{
    Machine machine;
    Buffer buf(machine, Domain::Untrusted, 128);
    for (std::uint64_t i = 0; i < 128; ++i)
        EXPECT_EQ(buf.data()[i], 0); // zero initialized
    buf.data()[5] = 42;
    EXPECT_EQ(buf.data()[5], 42);
    EXPECT_EQ(buf.size(), 128u);
}

TEST(Buffer, MoveTransfersOwnership)
{
    Machine machine;
    Buffer a(machine, Domain::Epc, 64);
    const Addr addr = a.addr();
    Buffer b(std::move(a));
    EXPECT_EQ(b.addr(), addr);
    EXPECT_TRUE(machine.space().isEpc(b.addr()));
}

TEST(SharedVar, PricedOperations)
{
    Machine machine;
    runSim(machine, [&] {
        SharedVar<int> var(machine, Domain::Untrusted, 7);
        EXPECT_EQ(var.load(), 7);
        var.store(9);
        EXPECT_EQ(var.peek(), 9);
        EXPECT_FALSE(var.compareExchange(7, 1));
        EXPECT_TRUE(var.compareExchange(9, 1));
        EXPECT_EQ(var.peek(), 1);
    });
}

TEST(SharedVar, CrossCoreTransferCostsMore)
{
    Machine machine;
    auto &engine = machine.engine();
    Cycles local_cost = 0, remote_cost = 0;
    auto var = std::make_unique<SharedVar<int>>(
        machine, Domain::Untrusted, 0);
    engine.spawn("writer", 0, [&] {
        var->store(1);
        const Cycles t0 = engine.now();
        var->store(2); // second store: owned line
        local_cost = engine.now() - t0;
    });
    engine.spawn("reader", 1, [&] {
        engine.sleepUntil(100'000);
        const Cycles t0 = engine.now();
        var->load(); // line owned by core 0
        remote_cost = engine.now() - t0;
    });
    engine.run();
    EXPECT_LT(local_cost, remote_cost);
}

// ----------------------------------------------------------------------
// Cost-model properties.
// ----------------------------------------------------------------------

/** Property: cold sequential-read cost is monotone in length. */
class ReadCostMonotone : public ::testing::TestWithParam<int>
{
};

TEST_P(ReadCostMonotone, LongerBuffersCostMore)
{
    Machine machine;
    const bool epc = GetParam() != 0;
    runSim(machine, [&] {
        Cycles last = 0;
        for (std::uint64_t len : {64ull, 512ull, 2048ull, 8192ull,
                                  32768ull}) {
            Buffer buf(machine, epc ? Domain::Epc : Domain::Untrusted,
                       len);
            buf.evict();
            // Warm the MEE tree once so the comparison is steady
            // state, then measure cold-in-LLC.
            buf.read();
            buf.evict();
            const Cycles cost = buf.read();
            EXPECT_GT(cost, last) << "len=" << len;
            last = cost;
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Domains, ReadCostMonotone,
                         ::testing::Values(0, 1));

TEST(MemoryModel, EncryptedAlwaysCostsAtLeastPlain)
{
    Machine machine;
    runSim(machine, [&] {
        for (std::uint64_t len :
             {64ull, 1024ull, 4096ull, 65536ull}) {
            Buffer enc(machine, Domain::Epc, len);
            Buffer plain(machine, Domain::Untrusted, len);
            // steady state
            for (int i = 0; i < 2; ++i) {
                enc.evict();
                enc.read();
                plain.evict();
                plain.read();
            }
            enc.evict();
            plain.evict();
            EXPECT_GE(enc.read(), plain.read()) << "len=" << len;
        }
    });
}

// ----------------------------------------------------------------------
// BulkSpan: the range-batched plane through the cache + MEE models
// must be bit-identical to the per-line loops it replaces — same
// per-op costs, same LLC and MEE counters — for every span shape,
// including the awkward ones (unaligned edges, boundary straddles,
// degenerate lengths, address-space wraparound).
// ----------------------------------------------------------------------

namespace {

/**
 * Run @p body on a machine with the BulkSpan plane pinned to
 * @p bulk_span and serialize every observable: the per-op costs the
 * body records plus the cache/MEE counters afterwards. Equality of
 * the two planes' strings is the bit-identity contract.
 */
std::string
spanTrace(bool bulk_span,
          const std::function<void(Machine &, std::vector<Cycles> &)>
              &body)
{
    Machine machine;
    EXPECT_TRUE(machine.memory().bulkSpanEnabled()); // always on
    machine.memory().setBulkSpan(bulk_span);
    std::vector<Cycles> costs;
    runSim(machine, [&] { body(machine, costs); });
    std::string out;
    for (const Cycles c : costs)
        out += std::to_string(c) + ',';
    out += "|llc=" + std::to_string(machine.memory().cache().hits()) +
           '/' + std::to_string(machine.memory().cache().misses());
    out += "|mee=" +
           std::to_string(machine.memory().mee().nodeCacheHits()) +
           '/' +
           std::to_string(machine.memory().mee().nodeCacheMisses());
    return out;
}

/** EXPECT both planes produce the same trace for @p body. */
void
expectPlanesAgree(const std::function<void(Machine &,
                                           std::vector<Cycles> &)>
                      &body,
                  const char *what)
{
    EXPECT_EQ(spanTrace(false, body), spanTrace(true, body)) << what;
}

} // anonymous namespace

TEST(BulkSpan, UnalignedSpansBitIdentical)
{
    expectPlanesAgree(
        [](Machine &machine, std::vector<Cycles> &costs) {
            auto &mem = machine.memory();
            for (const Domain domain :
                 {Domain::Untrusted, Domain::Epc}) {
                Buffer buf(machine, domain, 8192);
                const Addr base = buf.addr();
                for (const std::uint64_t off :
                     {0ull, 1ull, 7ull, 63ull, 64ull, 65ull}) {
                    for (const std::uint64_t len :
                         {1ull, 63ull, 64ull, 65ull, 127ull, 128ull,
                          4097ull}) {
                        costs.push_back(
                            mem.readBuffer(base + off, len));
                        costs.push_back(
                            mem.writeBuffer(base + off, len));
                        costs.push_back(mem.writeBuffer(
                            base + off, len, /*flush_after=*/true));
                        // Warm replay of the identical span, then a
                        // cold retry after an unaligned eviction.
                        costs.push_back(
                            mem.readBuffer(base + off, len));
                        mem.evictRange(base + off, len);
                        costs.push_back(
                            mem.readBuffer(base + off, len));
                    }
                }
            }
        },
        "unaligned spans");
}

TEST(BulkSpan, EpcPageStraddlingSpansBitIdentical)
{
    expectPlanesAgree(
        [](Machine &machine, std::vector<Cycles> &costs) {
            auto &mem = machine.memory();
            const Addr base =
                machine.space().allocEpc(3 * 4096, 4096);
            // Spans crossing each EPC page boundary (and, since
            // consecutive lines hash to different LLC sets, every
            // multi-line span also straddles cache sets).
            for (const Addr page :
                 {base + 4096, base + 2 * 4096}) {
                for (const std::uint64_t back :
                     {32ull, 64ull, 96ull}) {
                    for (const std::uint64_t len :
                         {64ull, 160ull, 4096ull}) {
                        costs.push_back(
                            mem.readBuffer(page - back, len));
                        costs.push_back(
                            mem.writeBuffer(page - back, len));
                    }
                }
            }
            // The whole three-page object, warm and cold.
            costs.push_back(mem.readBuffer(base, 3 * 4096));
            costs.push_back(mem.readBuffer(base, 3 * 4096));
            mem.evictRange(base, 3 * 4096);
            mem.mee().clearNodeCache();
            costs.push_back(mem.readBuffer(base, 3 * 4096));
            machine.space().free(base);
        },
        "EPC page straddles");
}

TEST(BulkSpan, DegenerateSpansBitIdentical)
{
    expectPlanesAgree(
        [](Machine &machine, std::vector<Cycles> &costs) {
            auto &mem = machine.memory();
            Buffer buf(machine, Domain::Epc, 256);
            const Addr base = buf.addr();
            // Zero-length spans are free in both planes, at any
            // alignment.
            for (const std::uint64_t off : {0ull, 1ull, 63ull}) {
                costs.push_back(mem.readBuffer(base + off, 0));
                costs.push_back(mem.writeBuffer(base + off, 0));
                EXPECT_EQ(costs.back(), 0u);
                mem.evictRange(base + off, 0);
            }
            // Single-line spans, aligned and not, including the
            // one-byte edge and the 64-byte span whose unaligned
            // start makes it two lines.
            costs.push_back(mem.readBuffer(base, 1));
            costs.push_back(mem.readBuffer(base + 63, 1));
            costs.push_back(mem.readBuffer(base, 64));
            costs.push_back(mem.readBuffer(base + 1, 64));
            costs.push_back(mem.writeBuffer(base + 1, 64));
        },
        "degenerate spans");
}

TEST(BulkSpan, CrossDomainSpansBitIdentical)
{
    expectPlanesAgree(
        [](Machine &machine, std::vector<Cycles> &costs) {
            auto &mem = machine.memory();
            // A raw span straddling the untrusted/EPC boundary. The
            // model prices the whole span by its starting domain,
            // but the touched lines (and their MEE writebacks on
            // eviction) live on both sides — the planes must agree
            // on all of it.
            const Addr boundary = AddressSpace::kEpcBase;
            costs.push_back(mem.readBuffer(boundary - 128, 256));
            costs.push_back(mem.writeBuffer(boundary - 128, 256));
            mem.evictRange(boundary - 128, 256);
            costs.push_back(mem.readBuffer(boundary - 64, 128));
            costs.push_back(
                mem.writeBuffer(boundary - 65, 130,
                                /*flush_after=*/true));
        },
        "cross-domain spans");
}

TEST(BulkSpan, SpanAtTopOfAddressSpaceTerminates)
{
    // Count-form loops only: a span ending exactly at the top of the
    // 64-bit address space must not wrap (the inclusive end address
    // is 0) and must cost the same in both planes.
    expectPlanesAgree(
        [](Machine &machine, std::vector<Cycles> &costs) {
            auto &mem = machine.memory();
            const Addr top_line = ~Addr{0} - 63; // 0xFF...FFC0
            costs.push_back(mem.readBuffer(top_line, 64));
            costs.push_back(mem.readBuffer(top_line - 64, 128));
            costs.push_back(mem.readBuffer(~Addr{0}, 1));
            costs.push_back(mem.writeBuffer(top_line, 64));
            costs.push_back(
                mem.writeBuffer(top_line + 1, 63,
                                /*flush_after=*/true));
            mem.evictRange(top_line - 64, 128);
            costs.push_back(mem.readBuffer(top_line, 64));
        },
        "top-of-address-space spans");
}

// ----------------------------------------------------------------------
// HC_CHECK visibility: a registered sync word swept by a span keeps
// its acquire/release semantics in both planes, so a bulk copy over
// a channel line still orders the plain accesses around it.
// ----------------------------------------------------------------------

namespace {

/**
 * Producer (core 0) writes a plain word, then span-writes a buffer
 * containing @p with_sync_word ? a registered sync word : nothing.
 * Consumer (core 1) later span-reads the buffer, then reads the
 * plain word. With the sync word the span ops form a release/acquire
 * edge and the plain accesses are ordered; without it they race.
 * @return the number of Race violations SimCheck reported.
 */
std::uint64_t
spanSyncRaces(bool bulk_span, bool with_sync_word)
{
    MachineConfig config;
    config.check.enabled = true;
    Machine machine(config);
    machine.memory().setBulkSpan(bulk_span);
    auto &mem = machine.memory();
    const Addr span = machine.space().allocUntrusted(4096, 64);
    const Addr data = machine.space().allocUntrusted(64, 64);
    if (with_sync_word)
        machine.check()->registerSyncWord(span + 1024);
    machine.engine().spawn("producer", 0, [&] {
        mem.accessWord(data, /*write=*/true);
        mem.writeBuffer(span, 4096);
    });
    machine.engine().spawn("consumer", 1, [&] {
        machine.engine().sleepUntil(1'000'000);
        mem.readBuffer(span, 4096);
        mem.accessWord(data, /*write=*/false);
    });
    machine.engine().run();
    return machine.check()->count(check::ViolationKind::Race);
}

} // anonymous namespace

TEST(BulkSpan, SyncWordInsideSpanStaysVisibleToSimCheck)
{
    for (const int bulk : {0, 1}) {
        EXPECT_EQ(spanSyncRaces(bulk, /*with_sync_word=*/true), 0u)
            << "bulk=" << bulk;
        // Control: without the sync word the same schedule races, so
        // the pass above is the span hook working, not the detector
        // being blind.
        EXPECT_GE(spanSyncRaces(bulk, /*with_sync_word=*/false), 1u)
            << "bulk=" << bulk;
    }
}

// ----------------------------------------------------------------------
// Reference oracle: MemoryModel in lockstep with the naive model of
// tests/ref_mem.hh over seeded random operations. Every host-side
// shortcut of src/mem must be invisible to every observable.
// ----------------------------------------------------------------------

namespace {

/** One operation of the lockstep run. */
struct MemOp {
    enum Kind {
        Word,      //!< MemoryModel::accessWord
        Read,      //!< readBuffer
        Write,     //!< writeBuffer (flush_after when flush)
        Evict,     //!< evictRange
        EvictAll,  //!< evictAll
        RawAccess, //!< CacheModel::access
        RawSpan,   //!< CacheModel::accessSpan
        Tamper,    //!< Mee::tamperMac
        Rollback,  //!< Mee::rollbackLine (a write-back when at v0)
        Writeback, //!< Mee::writebackLine
        Verify,    //!< Mee::verifyLine
        ClearNodes //!< Mee::clearNodeCache
    };
    Kind kind = Word;
    CoreId core = 0;
    Addr addr = 0;
    std::uint64_t len = 0;
    bool write = false;
    bool flush = false;
};

/**
 * Drives a MemoryModel and a refmem::Memory with the same operations,
 * each on the simulated core the operation names, and compares every
 * observable after each one. The first mismatch is reported with the
 * operation's index and ends the run.
 */
class Lockstep
{
  public:
    static constexpr int kCores = 4;
    static constexpr std::uint64_t kKey = 0x6b6579;
    /** Two EPC windows exactly 16 MiB apart: their MEE chunks (64
     *  lines each) are 4096 chunks apart. */
    static constexpr std::uint64_t kAliasGap = 16_MiB;

    /**
     * @param versions_each_op compare the trusted versions of the
     *        lines an op touched after every op. Reading a version
     *        drains Mee's write-back queue, so without it write-backs
     *        stay queued across ops until the next sweep.
     */
    Lockstep(const CostParams &params, bool bulk_span,
             bool versions_each_op = true)
        : engine_(engineConfig()), space_(1_MiB, params.epcVirtualSize),
          mem_(engine_, space_, params, kKey), ref_(params, space_, kKey),
          versionsEachOp_(versions_each_op)
    {
        mem_.setBulkSpan(bulk_span);
        const auto page_cost = [](Addr page, bool write) -> Cycles {
            return (page / kPageSize) % 3 * 7 + (write ? 1 : 0);
        };
        mem_.setPageTouchHook(page_cost);
        ref_.setPageTouchHook(page_cost);
        mem_.setIntegrityFailureHook(
            [this](Addr line) { failures_.push_back(line); });
        const Addr untrusted = space_.allocUntrusted(256_KiB, kPageSize);
        const Addr epc = space_.allocEpc(kAliasGap + 64_KiB, kPageSize);
        regions_ = {{untrusted, 256_KiB},
                    {epc, 192_KiB},
                    {epc + kAliasGap, 64_KiB}};
    }

    /** Run @p num_ops operations drawn from @p seed; @return the
     *  number of operations that ran before a mismatch. */
    std::size_t run(std::uint64_t seed, std::size_t num_ops)
    {
        Rng rng(seed);
        // Repeated spans of 8-64 lines: the span memo records them.
        for (int i = 0; i < 24; ++i)
            pool_.push_back(randomSpan(
                rng, (8 + rng.nextBelow(57)) * kCacheLineSize));
        for (std::size_t i = 0; i < num_ops; ++i)
            ops_.push_back(randomOp(rng));

        // One fiber per core takes the operations in list order.
        std::size_t next = 0;
        sim::WaitQueue turn;
        for (CoreId core = 0; core < kCores; ++core) {
            engine_.spawn("lockstep", core, [&, core] {
                while (next < ops_.size() && !failed_) {
                    if (ops_[next].core != core) {
                        engine_.wait(turn);
                        continue;
                    }
                    step(next);
                    if (!failed_ && (next % 500 == 499 ||
                                     next + 1 == ops_.size()))
                        sweep(next);
                    ++next;
                    engine_.notifyAll(turn);
                }
            });
        }
        engine_.run();
        return failed_ ? next : ops_.size();
    }

  private:
    static sim::Engine::Config engineConfig()
    {
        sim::Engine::Config config;
        config.numCores = kCores;
        return config;
    }

    struct Span {
        Addr addr;
        std::uint64_t len;
    };

    /** A span of @p len bytes inside a random region (region 0 is
     *  untrusted; the others are EPC). */
    Span randomSpan(Rng &rng, std::uint64_t len)
    {
        const auto &[base, size] = regions_[rng.nextBelow(10) < 4 ? 0
                                            : rng.nextBelow(4) < 3 ? 1
                                                                   : 2];
        len = std::min(len, size);
        return {base + rng.nextBelow(size - len + 1), len};
    }

    std::uint64_t randomLen(Rng &rng)
    {
        switch (rng.nextBelow(10)) {
          case 0: case 1: case 2: case 3:
            return 1 + rng.nextBelow(64);
          case 4: case 5: case 6:
            return 65 + rng.nextBelow(960);
          case 7: case 8:
            return 1025 + rng.nextBelow(3136);
          default:
            return 4161 + rng.nextBelow(8128);
        }
    }

    MemOp randomOp(Rng &rng)
    {
        MemOp op;
        op.core = static_cast<CoreId>(rng.nextBelow(kCores));
        op.write = rng.nextBelow(2) == 1;
        op.flush = rng.nextBelow(3) == 0;
        const std::uint64_t r = rng.nextBelow(1000);
        Span span = r < 380 ? randomSpan(rng, randomLen(rng))
                            : pool_[rng.nextBelow(pool_.size())];
        if (r < 180) {
            op.kind = MemOp::Word;
            span.len = 8;
        } else if (r < 300) {
            op.kind = MemOp::Read;
        } else if (r < 380) {
            op.kind = MemOp::Write;
        } else if (r < 480) { // pooled spans: memo records/replays
            op.kind = MemOp::Read;
        } else if (r < 560) {
            op.kind = MemOp::Write;
        } else if (r < 620) {
            op.kind = MemOp::RawSpan;
        } else if (r < 680) {
            op.kind = MemOp::Evict;
        } else if (r < 683) {
            op.kind = MemOp::EvictAll;
        } else if (r < 760) {
            op.kind = MemOp::RawAccess;
            span.addr += rng.nextBelow(span.len);
        } else {
            // MEE attacks and checks on one EPC line.
            const Span line = randomSpan(rng, kCacheLineSize);
            span = {line.addr, 1};
            if (!space_.isEpc(span.addr))
                span.addr = regions_[1].first +
                            rng.nextBelow(regions_[1].second);
            op.kind = r < 800   ? MemOp::Tamper
                      : r < 840 ? MemOp::Rollback
                      : r < 880 ? MemOp::Writeback
                      : r < 995 ? MemOp::Verify
                                : MemOp::ClearNodes;
        }
        op.addr = span.addr;
        op.len = span.len;
        return op;
    }

    static std::string describe(const MemOp &op, std::size_t i)
    {
        static const char *const kNames[] = {
            "word", "read", "write", "evict", "evictAll", "rawAccess",
            "rawSpan", "tamper", "rollback", "writeback", "verify",
            "clearNodes"};
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "op %zu: %s core=%d addr=0x%llx len=%llu w=%d "
                      "flush=%d",
                      i, kNames[op.kind], op.core,
                      static_cast<unsigned long long>(op.addr),
                      static_cast<unsigned long long>(op.len), op.write,
                      op.flush);
        return buf;
    }

    void fail(std::size_t i, const std::string &what)
    {
        ADD_FAILURE() << describe(ops_[i], i) << ": " << what;
        failed_ = true;
    }

    template <typename T>
    bool same(std::size_t i, const char *what, const T &got,
              const T &want)
    {
        if (got == want)
            return true;
        fail(i, std::string(what) + " differs: model " +
                    std::to_string(got) + ", reference " +
                    std::to_string(want));
        return false;
    }

    bool sameResult(std::size_t i, Addr line,
                    const CacheModel::Result &got,
                    const refmem::Result &want)
    {
        if (got.outcome == want.outcome && got.evicted == want.evicted &&
            got.evictedDirty == want.evictedDirty &&
            (!got.evicted || got.evictedLine == want.evictedLine))
            return true;
        fail(i, "cache result of line " + std::to_string(line) +
                    " differs");
        return false;
    }

    /** @return a set as "tag:dirty:owner:lruRank" per way ("-" for
     *  an invalid way), for either model. */
    template <typename Way>
    static std::string setSignature(const std::vector<Way> &ways)
    {
        std::string out;
        for (const Way &way : ways) {
            if (!way.valid) {
                out += "- ";
                continue;
            }
            int rank = 0;
            for (const Way &other : ways)
                rank += other.valid && other.lastUse < way.lastUse;
            out += std::to_string(way.tag) + ':' +
                   std::to_string(way.dirty) + ':' +
                   std::to_string(way.owner) + ':' +
                   std::to_string(rank) + ' ';
        }
        return out;
    }

    /** @return true when both sets hold the same lines in the same
     *  ways, with the same dirty bits, owners and LRU order. */
    static bool sameSet(const std::vector<CacheModel::WayState> &got,
                        const std::vector<refmem::Line> &want)
    {
        if (got.size() != want.size())
            return false;
        for (std::size_t w = 0; w < got.size(); ++w) {
            if (got[w].valid != want[w].valid)
                return false;
            if (!got[w].valid)
                continue;
            if (got[w].tag != want[w].tag ||
                got[w].dirty != want[w].dirty ||
                got[w].owner != want[w].owner)
                return false;
            for (std::size_t v = 0; v < w; ++v)
                if (got[v].valid &&
                    (got[v].lastUse < got[w].lastUse) !=
                        (want[v].lastUse < want[w].lastUse))
                    return false;
        }
        return true;
    }

    bool sameLine(std::size_t i, Addr line, bool versions)
    {
        const auto got = mem_.cache().waysOf(line);
        const auto &want = ref_.cache().setOf(line);
        if (!sameSet(got, want)) {
            fail(i, "set of line " + std::to_string(line) +
                        " differs:\n  model     " + setSignature(got) +
                        "\n  reference " + setSignature(want));
            return false;
        }
        if (versions && space_.isEpc(line))
            return same(i, "trusted version",
                        mem_.mee().trustedVersion(line),
                        ref_.mee().trustedVersion(line));
        return true;
    }

    void step(std::size_t i)
    {
        // Without per-op version checks, aim every other attack or
        // check at the latest write-back, which may still be queued.
        const MemOp::Kind kind = ops_[i].kind;
        if (!versionsEachOp_ && i % 2 == 0 && !ref_.writebacks.empty() &&
            (kind == MemOp::Tamper || kind == MemOp::Rollback ||
             kind == MemOp::Verify))
            ops_[i].addr = ref_.writebacks.back();
        const MemOp &op = ops_[i];
        const std::size_t writebacks = ref_.writebacks.size();
        Cycles got = 0;
        Cycles want = 0;
        switch (op.kind) {
          case MemOp::Word:
            got = mem_.accessWord(op.addr, op.write);
            want = ref_.accessWord(op.core, op.addr, op.write);
            break;
          case MemOp::Read:
            got = mem_.readBuffer(op.addr, op.len);
            want = ref_.readBuffer(op.core, op.addr, op.len);
            break;
          case MemOp::Write:
            got = mem_.writeBuffer(op.addr, op.len, op.flush);
            want = ref_.writeBuffer(op.core, op.addr, op.len, op.flush);
            break;
          case MemOp::Evict:
            mem_.evictRange(op.addr, op.len);
            ref_.evictRange(op.addr, op.len);
            break;
          case MemOp::EvictAll:
            mem_.evictAll();
            ref_.evictAll();
            break;
          case MemOp::RawAccess:
            if (!sameResult(i, op.addr,
                            mem_.cache().access(op.core, op.addr,
                                                op.write),
                            ref_.cache().access(op.core, op.addr,
                                                op.write)))
                return;
            break;
          case MemOp::RawSpan: {
            const Addr first = refmem::lineOf(op.addr);
            const std::uint64_t count =
                (op.addr + op.len - 1) / kCacheLineSize -
                op.addr / kCacheLineSize + 1;
            Addr expect = first;
            mem_.cache().accessSpan(
                op.core, first, count, op.write,
                [&](Addr line, const CacheModel::Result &result) {
                    if (failed_)
                        return;
                    if (line != expect) {
                        fail(i, "span visited lines out of order");
                        return;
                    }
                    sameResult(i, line, result,
                               ref_.cache().access(op.core, line,
                                                   op.write));
                    expect += kCacheLineSize;
                });
            if (failed_)
                return;
            if (expect != first + count * kCacheLineSize)
                return fail(i, "span skipped lines");
            break;
          }
          case MemOp::Tamper:
            mem_.mee().tamperMac(op.addr);
            ref_.mee().tamper(op.addr);
            break;
          case MemOp::Rollback:
            if (ref_.mee().dramVersion(op.addr) > 0) {
                mem_.mee().rollbackLine(op.addr);
                ref_.mee().rollback(op.addr);
                break;
            }
            [[fallthrough]];
          case MemOp::Writeback:
            mem_.mee().writebackLine(op.addr);
            ref_.writeback(refmem::lineOf(op.addr));
            break;
          case MemOp::Verify:
            if (!same(i, "verifyLine", mem_.mee().verifyLine(op.addr),
                      ref_.mee().verify(op.addr)))
                return;
            break;
          case MemOp::ClearNodes:
            mem_.mee().clearNodeCache();
            ref_.mee().clearNodeCache();
            break;
        }
        if (!same(i, "cycles", got, want) ||
            !same(i, "LLC hits", mem_.cache().hits(),
                  ref_.cache().hits()) ||
            !same(i, "LLC misses", mem_.cache().misses(),
                  ref_.cache().misses()) ||
            !same(i, "MEE node hits", mem_.mee().nodeCacheHits(),
                  ref_.mee().hits()) ||
            !same(i, "MEE node misses", mem_.mee().nodeCacheMisses(),
                  ref_.mee().misses()) ||
            !same(i, "integrity failures", failures_.size(),
                  ref_.failures.size()))
            return;
        if (!std::equal(failures_.begin(), failures_.end(),
                        ref_.failures.begin()))
            return fail(i, "a different line failed verification");
        // Each write-back line, and every line and set the op touched.
        for (std::size_t w = writebacks; w < ref_.writebacks.size(); ++w)
            if (!sameLine(i, ref_.writebacks[w], versionsEachOp_))
                return;
        if (op.kind == MemOp::EvictAll)
            return;
        const std::uint64_t count =
            op.len == 0 ? 1
                        : (op.addr + op.len - 1) / kCacheLineSize -
                              op.addr / kCacheLineSize + 1;
        Addr line = refmem::lineOf(op.addr);
        for (std::uint64_t n = 0; n < count; ++n, line += kCacheLineSize)
            if (!sameLine(i, line, versionsEachOp_))
                return;
    }

    /** Compare every line of every region: sets, versions, and the
     *  verification result of every EPC line. */
    void sweep(std::size_t i)
    {
        for (const auto &[base, size] : regions_) {
            for (Addr line = base; line < base + size;
                 line += kCacheLineSize) {
                if (!sameLine(i, line, true))
                    return;
                if (space_.isEpc(line) &&
                    !same(i, "verifyLine (sweep)",
                          mem_.mee().verifyLine(line),
                          ref_.mee().verify(line)))
                    return;
            }
        }
    }

    sim::Engine engine_;
    AddressSpace space_;
    MemoryModel mem_;
    refmem::Memory ref_;
    std::vector<std::pair<Addr, std::uint64_t>> regions_;
    std::vector<Span> pool_;
    std::vector<MemOp> ops_;
    std::vector<Addr> failures_;
    bool versionsEachOp_;
    bool failed_ = false;
};

} // anonymous namespace

TEST(RefMem, LockstepUnderRandomOps)
{
    constexpr std::size_t kOps = 12'000;
    // A small LLC (96 sets: the modulo set index, constant evictions
    // and dirty EPC write-backs) with a 4-entry MEE node cache (a
    // walk's upper levels can evict its own leaf), and the default
    // geometry (mostly resident: span memo replays and
    // revalidations).
    CostParams small;
    small.llcSize = 48_KiB;
    small.llcWays = 8;
    small.meeCacheEntries = 4;
    for (const CostParams &params : {small, CostParams{}}) {
        for (const bool bulk : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "llc=" << params.llcSize << " bulk=" << bulk);
            Lockstep lockstep(params, bulk);
            EXPECT_EQ(lockstep.run(0x10c5, kOps), kOps);
        }
    }
    // Versions compared only at the sweeps, so MEE write-backs stay
    // queued across ops (and tamper, rollback and verify ops meet
    // pending ones).
    for (const bool bulk : {false, true}) {
        SCOPED_TRACE(testing::Message() << "queued bulk=" << bulk);
        Lockstep lockstep(small, bulk, /*versions_each_op=*/false);
        EXPECT_EQ(lockstep.run(0x10c5, kOps), kOps);
    }
}

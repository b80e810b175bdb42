/**
 * @file
 * FastPath data-plane tests: cached call plans, staging placement
 * (inline slot lines vs spill arena vs legacy heap), arena recycling
 * across calls, functional equality with the legacy marshalling, the
 * single-channel staging guard, SimCheck integration (a clean run and
 * a seeded premature-arena-recycle violation), and the HC_FASTPATH
 * switch resolution.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>

#include "check/check.hh"
#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/arena.hh"
#include "mem/buffer.hh"
#include "sdk/spinlock.hh"

using namespace hc;
using namespace hc::hotcalls;

namespace {

const char *kEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_sum([in, size=len] uint8_t* buf,
                                      size_t len);
            public void ecall_fill([out, size=len] uint8_t* buf,
                                   size_t len);
            public void ecall_empty();
        };
        untrusted {
            void ocall_fill([out, size=len] uint8_t* buf, size_t len);
            void ocall_consume([in, size=len] uint8_t* buf,
                               size_t len);
            uint64_t ocall_bump([in, out, size=len] uint8_t* buf,
                                size_t len);
            void ocall_empty();
        };
    };
)";

struct Fixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;
    std::vector<std::uint8_t> consumed;

    explicit Fixture(mem::MachineConfig config = [] {
        mem::MachineConfig c;
        c.engine.numCores = 8;
        return c;
    }())
        : machine(config), platform(machine),
          runtime(platform, "fastpath-test", kEdl, 4)
    {
        runtime.registerEcall("ecall_sum", [](edl::StagedCall &c) {
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                sum += c.data(0)[i];
            c.setRetval(sum);
        });
        runtime.registerEcall("ecall_fill", [](edl::StagedCall &c) {
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                c.data(0)[i] =
                    static_cast<std::uint8_t>(0x5a ^ (i & 0xff));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_fill", [](edl::StagedCall &c) {
            for (std::uint64_t i = 0; i < c.size(0); ++i)
                c.data(0)[i] =
                    static_cast<std::uint8_t>(0xc0 + (i & 0xf));
        });
        runtime.registerOcall(
            "ocall_consume", [this](edl::StagedCall &c) {
                consumed.assign(c.data(0), c.data(0) + c.size(0));
            });
        runtime.registerOcall("ocall_bump", [](edl::StagedCall &c) {
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < c.size(0); ++i) {
                sum += c.data(0)[i];
                c.data(0)[i] = static_cast<std::uint8_t>(
                    c.data(0)[i] + 1);
            }
            c.setRetval(sum);
        });
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
    }

    void run(std::function<void()> body)
    {
        machine.engine().spawn("app", 0, std::move(body));
        machine.engine().run();
    }

    void inEnclave(std::function<void()> body)
    {
        sgx::Tcs *tcs = runtime.enclave().acquireTcs();
        platform.eenter(runtime.enclave(), *tcs);
        body();
        platform.eexit();
        runtime.enclave().releaseTcs(tcs);
    }
};

/** HotOcall queue with explicit FastPath geometry. */
HotQueueConfig
fastConfig(std::uint64_t inline_bytes, std::uint64_t arena_bytes)
{
    HotQueueConfig config;
    config.responderCores = {2};
    config.fastPath = 1;
    config.inlinePayloadBytes = inline_bytes;
    config.arenaBytes = arena_bytes;
    return config;
}

} // anonymous namespace

// ----------------------------------------------------------------------
// The StagingArena itself.
// ----------------------------------------------------------------------

TEST(StagingArena, BumpAllocatesAlignedAndRecycles)
{
    mem::MachineConfig config;
    config.engine.numCores = 2;
    mem::Machine machine(config);
    mem::StagingArena arena(machine, mem::Domain::Untrusted, 256);
    EXPECT_EQ(arena.capacity(), 256u);
    EXPECT_EQ(arena.used(), 0u);

    mem::StagingArena::Piece a, b;
    ASSERT_TRUE(arena.tryAlloc(10, a));
    ASSERT_TRUE(arena.tryAlloc(10, b));
    EXPECT_NE(a.data, b.data);
    // Pieces are 16-byte aligned within the arena.
    EXPECT_EQ((b.addr - a.addr) % 16, 0u);
    EXPECT_GE(b.addr, a.addr + 10);

    // Exhaustion fails cleanly ...
    mem::StagingArena::Piece c;
    EXPECT_FALSE(arena.tryAlloc(256, c));
    // ... and reset() recycles the whole capacity.
    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    ASSERT_TRUE(arena.tryAlloc(256, c));
    EXPECT_EQ(c.addr, arena.base());
}

TEST(StagingArena, ZeroCapacityNeverAllocates)
{
    mem::MachineConfig config;
    config.engine.numCores = 2;
    mem::Machine machine(config);
    mem::StagingArena arena(machine, mem::Domain::Epc, 0);
    mem::StagingArena::Piece p;
    EXPECT_FALSE(arena.tryAlloc(1, p));
    EXPECT_FALSE(arena.tryAlloc(0, p));
}

// ----------------------------------------------------------------------
// Staging placement: inline -> arena -> heap by payload size.
// ----------------------------------------------------------------------

TEST(FastPath, PlacementFollowsPayloadSize)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 512);
            auto call = [&](std::uint64_t len) {
                hot.call("ocall_consume", {edl::Arg::buffer(buf),
                                           edl::Arg::value(len)});
            };
            call(32); // fits the inline lines
            EXPECT_EQ(hot.stats().inlineStaged, 1u);
            call(128); // too big inline, fits the arena
            EXPECT_EQ(hot.stats().arenaStaged, 1u);
            call(512); // too big for both, spills to the heap
            EXPECT_EQ(hot.stats().heapStaged, 1u);
            EXPECT_EQ(hot.stats().fastCalls, 3u);
        });
        hot.stop();
        f.machine.engine().stop();
    });
    // Data delivered intact regardless of placement (last call).
    ASSERT_EQ(f.consumed.size(), 512u);
}

TEST(FastPath, InlineSpillBoundarySizes)
{
    // Payloads straddling both thresholds: the inline capacity is
    // inlinePayloadBytes rounded up to whole cache lines (64 -> one
    // 64-byte line), the arena capacity is exact.
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 512);
            for (std::uint64_t i = 0; i < 512; ++i)
                buf.data()[i] = static_cast<std::uint8_t>(i * 7);
            std::uint64_t expect_inline = 0, expect_arena = 0,
                          expect_heap = 0;
            for (std::uint64_t len :
                 {63u, 64u, 65u, 255u, 256u, 257u}) {
                hot.call("ocall_consume", {edl::Arg::buffer(buf),
                                           edl::Arg::value(len)});
                if (len <= 64)
                    ++expect_inline;
                else if (len <= 256)
                    ++expect_arena;
                else
                    ++expect_heap;
                EXPECT_EQ(hot.stats().inlineStaged, expect_inline)
                    << len;
                EXPECT_EQ(hot.stats().arenaStaged, expect_arena)
                    << len;
                EXPECT_EQ(hot.stats().heapStaged, expect_heap)
                    << len;
                ASSERT_EQ(f.consumed.size(), len);
                EXPECT_EQ(std::memcmp(f.consumed.data(), buf.data(),
                                      len),
                          0)
                    << len;
            }
        });
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// Arena recycling: many calls through the same slots, all correct.
// ----------------------------------------------------------------------

TEST(FastPath, ArenaRecyclesAcrossManyCalls)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(0, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 128);
            for (int round = 0; round < 50; ++round) {
                for (std::uint64_t i = 0; i < 128; ++i)
                    buf.data()[i] = static_cast<std::uint8_t>(
                        round + static_cast<int>(i));
                const std::uint64_t got = hot.call(
                    "ocall_bump",
                    {edl::Arg::buffer(buf), edl::Arg::value(128)});
                std::uint64_t want = 0;
                for (std::uint64_t i = 0; i < 128; ++i)
                    want += static_cast<std::uint8_t>(
                        round + static_cast<int>(i));
                EXPECT_EQ(got, want) << round;
                // The inout copy-back delivered the bumped bytes.
                for (std::uint64_t i = 0; i < 128; ++i)
                    ASSERT_EQ(buf.data()[i],
                              static_cast<std::uint8_t>(
                                  round + static_cast<int>(i) + 1))
                        << round << ":" << i;
            }
        });
        // Every call staged into the recycled per-slot arena: no
        // per-call heap staging happened.
        EXPECT_EQ(hot.stats().arenaStaged, 50u);
        EXPECT_EQ(hot.stats().heapStaged, 0u);
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// Fast and legacy planes deliver identical bytes and retvals.
// ----------------------------------------------------------------------

TEST(FastPath, MatchesLegacyFunctionally)
{
    auto run_once = [](int fast_path) {
        Fixture f;
        HotQueueConfig config = fastConfig(64, 4096);
        config.fastPath = fast_path;
        HotQueue hot(f.runtime, Kind::HotOcall, config);
        std::vector<std::uint8_t> fill_result;
        std::uint64_t bump_retval = 0;
        f.run([&] {
            hot.start();
            f.inEnclave([&] {
                mem::Buffer buf(f.machine, mem::Domain::Epc, 300);
                hot.call("ocall_fill", {edl::Arg::buffer(buf),
                                        edl::Arg::value(300)});
                fill_result.assign(buf.data(), buf.data() + 300);
                bump_retval = hot.call(
                    "ocall_bump",
                    {edl::Arg::buffer(buf), edl::Arg::value(300)});
            });
            hot.stop();
            f.machine.engine().stop();
        });
        return std::make_pair(fill_result, bump_retval);
    };
    const auto legacy = run_once(0);
    const auto fast = run_once(1);
    EXPECT_EQ(legacy.first, fast.first);
    EXPECT_EQ(legacy.second, fast.second);
}

// ----------------------------------------------------------------------
// HotEcall direction: staging lives in the EPC spill arena.
// ----------------------------------------------------------------------

TEST(FastPath, HotEcallBuffersThroughEpcArena)
{
    Fixture f;
    HotQueueConfig config = fastConfig(64, 4096);
    config.responderCores = {1};
    HotQueue hot(f.runtime, Kind::HotEcall, config);
    f.run([&] {
        hot.start();
        mem::Buffer buf(f.machine, mem::Domain::Untrusted, 200);
        std::uint64_t want = 0;
        for (std::uint64_t i = 0; i < 200; ++i) {
            buf.data()[i] = static_cast<std::uint8_t>(3 * i);
            want += buf.data()[i];
        }
        EXPECT_EQ(hot.call("ecall_sum", {edl::Arg::buffer(buf),
                                         edl::Arg::value(200)}),
                  want);
        hot.call("ecall_fill",
                 {edl::Arg::buffer(buf), edl::Arg::value(200)});
        for (std::uint64_t i = 0; i < 200; ++i)
            ASSERT_EQ(buf.data()[i],
                      static_cast<std::uint8_t>(0x5a ^ (i & 0xff)));
        // HotEcall has no inline slot staging (the slot lines are
        // untrusted); both calls used the EPC arena.
        EXPECT_EQ(hot.stats().inlineStaged, 0u);
        EXPECT_EQ(hot.stats().arenaStaged, 2u);
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// Scalar-only calls never enter the fast plane (cycle neutrality).
// ----------------------------------------------------------------------

TEST(FastPath, ScalarCallsBypassFastPlane)
{
    Fixture f;
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 4096));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            for (int i = 0; i < 10; ++i)
                hot.call("ocall_empty", {});
        });
        EXPECT_EQ(hot.stats().calls, 10u);
        EXPECT_EQ(hot.stats().fastCalls, 0u);
        hot.stop();
        f.machine.engine().stop();
    });
}

// ----------------------------------------------------------------------
// The single-line channel: staging guarded across two requesters.
// ----------------------------------------------------------------------

TEST(FastPath, SingleChannelConcurrentRequestersStayCorrect)
{
    Fixture f;
    HotCallConfig config;
    config.fastPath = 1;
    HotCallService hot(f.runtime, Kind::HotOcall, 2, config);
    bool ok_a = true, ok_b = true;
    auto requester = [&](int salt, bool *ok) {
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 96);
            for (int round = 0; round < 25; ++round) {
                const std::uint8_t base = static_cast<std::uint8_t>(
                    salt * 100 + round);
                for (std::uint64_t i = 0; i < 96; ++i)
                    buf.data()[i] = static_cast<std::uint8_t>(
                        base + static_cast<int>(i));
                hot.call("ocall_bump", {edl::Arg::buffer(buf),
                                        edl::Arg::value(96)});
                for (std::uint64_t i = 0; i < 96; ++i) {
                    if (buf.data()[i] !=
                        static_cast<std::uint8_t>(
                            base + static_cast<int>(i) + 1)) {
                        *ok = false;
                        return;
                    }
                }
            }
        });
    };
    auto &engine = f.machine.engine();
    engine.spawn("driver", 7, [&] {
        hot.start();
        auto *a = engine.spawn("req-a", 0,
                               [&] { requester(1, &ok_a); });
        auto *b = engine.spawn("req-b", 1,
                               [&] { requester(2, &ok_b); });
        while (a->state() != sim::ThreadState::Done ||
               b->state() != sim::ThreadState::Done)
            engine.advance(sdk::kPauseCycles);
        hot.stop();
        engine.stop();
    });
    engine.run();
    // Both requesters saw their own bytes on every round: the second
    // requester could not recycle the channel staging while the first
    // was still harvesting.
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
}

// ----------------------------------------------------------------------
// SimCheck: a clean fast run, and the seeded arena-recycle violation.
// ----------------------------------------------------------------------

TEST(FastPath, CleanUnderSimCheck)
{
    mem::MachineConfig config;
    config.engine.numCores = 8;
    config.check.enabled = true; // record mode
    Fixture f(config);
    HotQueue hot(f.runtime, Kind::HotOcall, fastConfig(64, 256));
    f.run([&] {
        hot.start();
        f.inEnclave([&] {
            mem::Buffer buf(f.machine, mem::Domain::Epc, 512);
            for (std::uint64_t len : {16u, 128u, 512u})
                hot.call("ocall_bump", {edl::Arg::buffer(buf),
                                        edl::Arg::value(len)});
        });
        hot.stop();
        f.machine.engine().stop();
    });
    auto &ck = *f.machine.check();
    EXPECT_EQ(ck.count(check::ViolationKind::Race), 0u);
    EXPECT_EQ(ck.count(check::ViolationKind::Protocol), 0u);
    EXPECT_EQ(ck.count(check::ViolationKind::Leak), 0u);
}

TEST(FastPath, SeededPrematureArenaRecycleFlagged)
{
    mem::MachineConfig config;
    config.engine.numCores = 4;
    config.check.enabled = true; // record mode, never panics
    mem::Machine machine(config);
    check::HotQueueProtocol proto(*machine.check(), "seeded", 4);

    proto.onClaim(0);
    proto.onArenaRecycle(0); // legal: claimer, slot Publishing
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              0u);

    proto.onPublish(0);
    proto.onArenaRecycle(0); // illegal: slot Ready, not yet grabbed
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);

    proto.onGrab(0);
    proto.onArenaRecycle(0); // legal: server, slot Serving
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              1u);

    proto.onComplete(0);
    proto.onArenaRecycle(0); // illegal: Done, requester still owed
                             // the results staged there
    EXPECT_EQ(machine.check()->count(check::ViolationKind::Protocol),
              2u);
    const std::string &msg =
        machine.check()->violations().back().message;
    EXPECT_NE(msg.find("staging arena recycled"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("Done"), std::string::npos) << msg;
}

// ----------------------------------------------------------------------
// Switch resolution.
// ----------------------------------------------------------------------

TEST(FastPath, ResolveSwitchExplicitAndEnv)
{
    // Explicit config wins outright.
    EXPECT_FALSE(resolveFastPath(0));
    EXPECT_TRUE(resolveFastPath(1));

    // -1 consults HC_FASTPATH: exactly "0" disables, anything else
    // (including unset) leaves the default on.
    const char *saved = std::getenv("HC_FASTPATH");
    const std::string saved_copy = saved ? saved : "";

    ::setenv("HC_FASTPATH", "0", 1);
    EXPECT_FALSE(resolveFastPath(-1));
    ::setenv("HC_FASTPATH", "1", 1);
    EXPECT_TRUE(resolveFastPath(-1));
    ::unsetenv("HC_FASTPATH");
    EXPECT_TRUE(resolveFastPath(-1));

    if (saved)
        ::setenv("HC_FASTPATH", saved_copy.c_str(), 1);
}

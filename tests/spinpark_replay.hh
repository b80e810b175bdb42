/**
 * @file
 * Direct tests of the SpinPark replay kernels against polling.
 *
 * Each scenario parks one of the three pollers (a requester's
 * completion wait, an idle HotCallService responder, an idle HotQueue
 * responder) and has a prober fiber wake it at one chosen scheduling
 * boundary, once with parking on and once with Engine::setSpinPark
 * (false). The prober wakes the poller by reading its core clock
 * (Engine::coreNow() catches parked pollers up at the reader's
 * boundary; with parking off the same read merely observes), so both
 * runs see the same boundary. What the two runs report must be equal:
 *
 *  - at the boundary: the poller core's clock, the poller thread's
 *    next RNG draw, the channel's responderPolls, the guard's last
 *    heartbeat and the LLC ways of the channel's lines;
 *  - afterwards, what the replayed state decides: the resume phase
 *    (the clocks that follow), the idle-sleep point (idle polls), the
 *    pool's scale decisions (the occupancy window).
 *
 * The boundaries come from the poller's own block clocks, read in a
 * polling run first (blockClocks()): each clock with the scheduler's
 * tie going each way, the cycle after it (mid-poll), and the last
 * cycle before the park limit the next interrupt sets.
 */

#ifndef HC_TESTS_SPINPARK_REPLAY_HH
#define HC_TESTS_SPINPARK_REPLAY_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/machine.hh"
#include "sdk/runtime.hh"
#include "sgx/platform.hh"

namespace hc::sptest {

inline const char *kEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_add(uint64_t a, uint64_t b);
            public void ecall_empty();
        };
        untrusted {
            uint64_t ocall_add(uint64_t a, uint64_t b);
        };
    };
)";

/** Interrupt mean of the park-limit scenarios: the next interrupt
 *  bounds every park. */
constexpr double kInterruptMean = 50'000;

/** A scheduling boundary: the prober acts at clock @p time on core
 *  @p core. With @p limit set it first sleeps until @p time, then acts
 *  on the last cycle before the poller's park limit instead (the next
 *  interrupt on its core, less the longest block). */
struct Boundary {
    Cycles time = 0;
    CoreId core = 0;
    bool limit = false;
};

inline std::ostream &
operator<<(std::ostream &os, const Boundary &b)
{
    return os << (b.limit ? "limit after " : "") << b.time << " on core "
              << b.core;
}

/** One LLC way with its LRU stamp replaced by its rank in the set. A
 *  replay applies its hits at the wake, so the stamps shift while
 *  their order within each set, the only thing eviction reads, must
 *  not. */
struct RankedWay {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    CoreId owner = 0;
    std::uint64_t rank = 0;

    bool operator==(const RankedWay &) const = default;
};

inline std::ostream &
operator<<(std::ostream &os, const RankedWay &w)
{
    return os << "{" << w.tag << (w.valid ? " valid" : "")
              << (w.dirty ? " dirty" : "") << " owner " << w.owner
              << " rank " << w.rank << "}";
}

/** @return the ranked ways of every set holding a line in [lo, hi]. */
inline std::vector<RankedWay>
rankedWays(const mem::CacheModel &cache, Addr lo, Addr hi)
{
    std::vector<RankedWay> out;
    for (Addr line = lo; line <= hi; line += kCacheLineSize) {
        const auto ways = cache.waysOf(line);
        for (const auto &way : ways) {
            std::uint64_t rank = 0;
            for (const auto &other : ways)
                rank += other.valid && other.lastUse < way.lastUse;
            out.push_back(
                {way.tag, way.valid, way.dirty, way.owner, rank});
        }
    }
    return out;
}

/** @return the guard's last heartbeat, found through responderLate()
 *  (0 without a guard or when the beat is older than the liveness
 *  window, as for a responder busy in a long handler). */
inline Cycles
lastBeat(const guard::ChannelGuard *guard, Cycles now)
{
    if (!guard || guard->responderLate(now))
        return 0;
    // Not late from the beat through beat + window; late before it
    // (the difference wraps) and after. Find the first not-late clock.
    const Cycles window = guard->config().livenessWindow;
    Cycles lo = now > window ? now - window : 0;
    Cycles hi = now;
    while (lo < hi) {
        const Cycles mid = lo + (hi - lo) / 2;
        if (guard->responderLate(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/** @return the next raw draw of @p thread's stream, leaving it as it
 *  is. */
inline std::uint64_t
nextDraw(sim::Thread &thread)
{
    Rng copy = thread.rng();
    return copy.next();
}

/**
 * From a fiber on a core above @p poller, in a polling run: the clocks
 * of the poller's next @p count blocks. At each clock the poller's
 * block runs first (the lower core wins the tie), so the next read
 * shows the block after it.
 */
inline std::vector<Cycles>
blockClocks(sim::Engine &engine, CoreId poller, std::size_t count)
{
    std::vector<Cycles> out;
    while (out.size() < count) {
        const Cycles clock = engine.coreNow(poller);
        if (clock <= engine.now()) {
            engine.advance(1); // the poller is not running yet
            continue;
        }
        out.push_back(clock);
        engine.sleepUntil(clock);
    }
    return out;
}

/** @return the boundaries around each of @p clocks: the clock itself
 *  with the tie going to the waker on @p below and to the poller
 *  (@p above), and, when no block starts there, the cycle after. */
inline std::vector<Boundary>
boundariesAround(const std::vector<Cycles> &clocks, CoreId below,
                 CoreId above)
{
    std::vector<Boundary> out;
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        out.push_back({clocks[i], below});
        out.push_back({clocks[i], above});
        if (i + 1 < clocks.size() && clocks[i + 1] > clocks[i] + 1)
            out.push_back({clocks[i] + 1, below});
    }
    return out;
}

/** A poller's state at the boundary. */
struct Snapshot {
    Cycles time = 0;  //!< the boundary's clock (resolved limit)
    Cycles clock = 0; //!< the poller core's clock
    std::uint64_t draw = 0;   //!< the poller thread's next draw
    std::uint64_t polls = 0;  //!< the channel's responderPolls
    Cycles beat = 0;          //!< the guard's last heartbeat
    std::vector<RankedWay> ways; //!< the channel lines' sets
};

/** What one run reports. */
struct Outcome {
    Snapshot at;
    /** Scenario-specific quantities after the boundary. */
    std::vector<std::uint64_t> after;
    /** Scheduling decisions of the whole run (parking saves them). */
    std::uint64_t decisions = 0;
};

/** Expect a parked run's outcome to equal a polling run's. */
inline void
expectSameOutcome(const Outcome &parked, const Outcome &polled)
{
    EXPECT_EQ(parked.at.time, polled.at.time);
    EXPECT_EQ(parked.at.clock, polled.at.clock);
    EXPECT_EQ(parked.at.draw, polled.at.draw);
    EXPECT_EQ(parked.at.polls, polled.at.polls);
    EXPECT_EQ(parked.at.beat, polled.at.beat);
    EXPECT_EQ(parked.at.ways, polled.at.ways);
    EXPECT_EQ(parked.after, polled.after);
}

/** A machine (guard on, so responders beat), enclave and runtime. */
struct Rig {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;
    sim::Engine &engine;

    Rig(bool park, double interrupt_mean)
        : machine([&] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              config.engine.interruptMeanCycles = interrupt_mean;
              config.guard.mode = 1;
              return config;
          }()),
          platform(machine), runtime(platform, "spinpark-test", kEdl, 4),
          engine(machine.engine())
    {
        engine.setSpinPark(park);
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty", [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
    }

    ~Rig()
    {
        for (Addr line : markers_)
            machine.space().free(line);
    }

    /** @return a fresh untrusted line: channel lines allocated
     *  between two markers lie between their addresses. */
    Addr marker()
    {
        return markers_.emplace_back(machine.space().allocUntrusted(
            kCacheLineSize, kCacheLineSize));
    }

    /** Run @p body inside the enclave (a HotOcall requester). */
    void inEnclave(const std::function<void()> &body)
    {
        sgx::Tcs *tcs = runtime.enclave().acquireTcs();
        platform.eenter(runtime.enclave(), *tcs);
        body();
        platform.eexit();
        runtime.enclave().releaseTcs(tcs);
    }

    /**
     * Run @p body as the application fiber on core 0, then stop. A
     * ticker on core 6 steps through the run, so every poll of a
     * polling poller costs a scheduling decision and parking shows in
     * Engine::decisions().
     */
    void run(const std::function<void()> &body)
    {
        engine.spawn("app", 0, [&] {
            body();
            engine.stop();
        });
        engine.spawn("ticker", 6, [&] {
            while (!engine.stopRequested())
                engine.advance(50);
        });
        engine.run();
    }

    /**
     * On the prober: sleep to @p b (resolving a limit boundary
     * against @p poller's next interrupt) and snapshot the poller,
     * whose thread @p thread names by then. The coreNow() read is
     * what wakes a parked poller.
     */
    template <class Hot>
    Snapshot probe(const Boundary &b, CoreId poller,
                   sim::Thread *const &thread, const Hot &hot, Addr lo,
                   Addr hi)
    {
        Snapshot s;
        s.time = b.time;
        engine.sleepUntil(b.time);
        // The park limit the next interrupt sets; when it is too close
        // to act before it, try the one after.
        while (b.limit) {
            const Cycles interrupt = engine.nextInterruptAt(poller);
            const Cycles limit = interrupt -
                                 machine.memory().params().ownedHit -
                                 hotcalls::kMaxPollPause;
            if (limit > engine.now() + 1) {
                s.time = limit - 1;
                engine.sleepUntil(s.time);
                break;
            }
            engine.sleepUntil(interrupt + 1);
        }
        s.clock = engine.coreNow(poller);
        s.draw = nextDraw(*thread);
        s.polls = hot.stats().responderPolls;
        s.beat = lastBeat(hot.guard(), engine.now());
        s.ways = rankedWays(machine.memory().cache(), lo, hi);
        return s;
    }

  private:
    std::vector<Addr> markers_;
};

/** Where a scenario puts its poller and its prober. */
constexpr CoreId kPollerCore = 2;
constexpr CoreId kBelow = 1;
constexpr CoreId kAbove = 3;

/**
 * A HotEcall requester on kPollerCore waits out a 200k-cycle handler
 * served on core 4, parked; the prober reads it at @p b. With
 * @p clocks set, no probe: a polling run reads the requester's block
 * clocks from @p b.time instead.
 */
inline Outcome
requesterScenario(bool park, const Boundary &b,
                  std::vector<Cycles> *clocks = nullptr)
{
    Rig rig(park, b.limit ? kInterruptMean : 0);
    auto &engine = rig.engine;
    rig.runtime.registerEcall("ecall_empty", [&](edl::StagedCall &) {
        for (int i = 0; i < 1000; ++i)
            engine.advance(200);
    });
    const Addr lo = rig.marker();
    hotcalls::HotCallService hot(rig.runtime, hotcalls::Kind::HotEcall, 4);
    const Addr hi = rig.marker();
    Outcome out;
    sim::Thread *requester = nullptr;
    rig.run([&] {
        hot.start();
        engine.spawn("requester", kPollerCore, [&] {
            requester = engine.currentThread();
            const Cycles t0 = engine.now();
            hot.call("ecall_empty", {});
            out.after.push_back(engine.now() - t0);
            out.after.push_back(nextDraw(*requester));
        });
        engine.spawn("prober", b.core, [&] {
            if (clocks) {
                engine.sleepUntil(b.time);
                *clocks = blockClocks(engine, kPollerCore, 8);
                return;
            }
            out.at = rig.probe(b, kPollerCore, requester, hot, lo, hi);
        });
        engine.sleepFor(400'000);
        out.after.push_back(engine.coreNow(kPollerCore));
        hot.stop();
    });
    out.decisions = engine.decisions();
    return out;
}

/**
 * An idle HotCallService responder (HotEcall, in-enclave on
 * kPollerCore) that sleeps after @p sleep_after idle polls; the prober
 * reads it at @p b, waits out the sleep, then calls through it.
 */
inline Outcome
hotCallResponderScenario(bool park, const Boundary &b,
                         std::uint64_t sleep_after,
                         std::vector<Cycles> *clocks = nullptr)
{
    Rig rig(park, b.limit ? kInterruptMean : 0);
    auto &engine = rig.engine;
    sim::Thread *responder = nullptr;
    rig.runtime.registerEcall("ecall_add", [&](edl::StagedCall &c) {
        responder = engine.currentThread();
        c.setRetval(c.scalar(0) + c.scalar(1));
    });
    hotcalls::HotCallConfig config;
    config.responderSleep = true;
    config.idlePollsBeforeSleep = sleep_after;
    const Addr lo = rig.marker();
    hotcalls::HotCallService hot(rig.runtime, hotcalls::Kind::HotEcall,
                                 kPollerCore, config);
    const Addr hi = rig.marker();
    Outcome out;
    rig.run([&] {
        hot.start();
        hot.call("ecall_add", {edl::Arg::value(1), edl::Arg::value(2)});
        engine.spawn("prober", b.core, [&] {
            if (clocks) {
                engine.sleepUntil(b.time);
                *clocks = blockClocks(engine, kPollerCore, 8);
                return;
            }
            out.at = rig.probe(b, kPollerCore, responder, hot, lo, hi);
            // The idle count decides when the responder sleeps; the
            // clocks after the boundary follow from the resume phase.
            engine.sleepUntil(b.time + 300'000);
            const auto &stats = hot.stats();
            out.after = {stats.responderSleeps, stats.responderPolls,
                         engine.coreNow(kPollerCore),
                         nextDraw(*responder)};
            const Cycles t0 = engine.now();
            out.after.push_back(hot.call(
                "ecall_add", {edl::Arg::value(4), edl::Arg::value(5)}));
            out.after.push_back(engine.now() - t0);
            out.after.push_back(hot.stats().timeoutAttempts);
        });
        engine.sleepFor(700'000);
        hot.stop();
    });
    out.decisions = engine.decisions();
    return out;
}

/**
 * An idle HotQueue responder (HotOcall, on kPollerCore) whose 32-poll
 * occupancy window resets many times while parked; a surplus
 * responder on core 5 starts parked on the pool condvar. The prober
 * reads the idle one at @p b, then calls in bursts: each enqueue wakes
 * the surplus responder, and the two windows then decide which of the
 * two parks again, and when. A window long enough to outlast the
 * woken responder's first one is what makes the idle one's replayed
 * window matter.
 */
inline Outcome
hotQueueResponderScenario(bool park, const Boundary &b,
                          std::vector<Cycles> *clocks = nullptr)
{
    Rig rig(park, b.limit ? kInterruptMean : 0);
    auto &engine = rig.engine;
    sim::Thread *responder = nullptr;
    rig.runtime.registerOcall("ocall_add", [&](edl::StagedCall &c) {
        if (!responder)
            responder = engine.currentThread();
        engine.advance(300); // busy time the window weighs
        c.setRetval(c.scalar(0) + c.scalar(1));
    });
    hotcalls::HotQueueConfig config;
    config.responderCores = {kPollerCore, 5};
    config.minResponders = 1;
    config.scaleUpDepth = 1;
    config.scaleWindowPolls = 32;
    const Addr lo = rig.marker();
    hotcalls::HotQueue hot(rig.runtime, hotcalls::Kind::HotOcall, config);
    const Addr hi = rig.marker();
    Outcome out;
    rig.run([&] {
        hot.start();
        rig.inEnclave([&] {
            hot.call("ocall_add", {edl::Arg::value(1), edl::Arg::value(2)});
        });
        engine.spawn("prober", b.core, [&] {
            if (clocks) {
                engine.sleepUntil(b.time);
                *clocks = blockClocks(engine, kPollerCore, 8);
                return;
            }
            out.at = rig.probe(b, kPollerCore, responder, hot, lo, hi);
            // Bursts of one call each, a few windows apart, so the
            // replays end at varied points of the idle one's window.
            rig.inEnclave([&] {
                for (int i = 0; i < 16; ++i) {
                    const Cycles t0 = engine.now();
                    out.after.push_back(hot.call(
                        "ocall_add",
                        {edl::Arg::value(4), edl::Arg::value(i)}));
                    out.after.push_back(engine.now() - t0);
                    engine.sleepFor(1'500 + 97 * static_cast<Cycles>(i));
                }
            });
            engine.sleepUntil(b.time + 100'000);
            const auto &stats = hot.stats();
            out.after.insert(
                out.after.end(),
                {stats.scaleUps, stats.scaleDowns, stats.responderPolls,
                 stats.batches, stats.wakeups,
                 static_cast<std::uint64_t>(hot.activeResponders()),
                 engine.coreNow(kPollerCore), engine.coreNow(5),
                 nextDraw(*responder)});
        });
        engine.sleepFor(400'000);
        hot.stop();
    });
    out.decisions = engine.decisions();
    return out;
}

/**
 * Run @p scenario parked and polling at every boundary around the
 * poller's block clocks from @p from, and at its park limit; expect
 * equal outcomes. Also expect the parked runs to have parked.
 */
inline void
expectReplayMatchesPolling(
    const std::function<Outcome(bool, const Boundary &,
                                std::vector<Cycles> *)> &scenario,
    Cycles from)
{
    std::vector<Cycles> clocks;
    scenario(false, {from, kAbove}, &clocks);
    ASSERT_EQ(clocks.size(), 8u);
    ASSERT_GT(clocks.front(), from);
    auto boundaries = boundariesAround(clocks, kBelow, kAbove);
    boundaries.push_back({from, kAbove, true});
    for (const Boundary &b : boundaries) {
        SCOPED_TRACE(::testing::Message() << "boundary " << b);
        const Outcome parked = scenario(true, b, nullptr);
        const Outcome polled = scenario(false, b, nullptr);
        expectSameOutcome(parked, polled);
        EXPECT_LT(parked.decisions * 2, polled.decisions);
    }
}

} // namespace hc::sptest

#endif // HC_TESTS_SPINPARK_REPLAY_HH

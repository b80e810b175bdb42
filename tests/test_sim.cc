/**
 * @file
 * Tests for the discrete-event engine: fibers, virtual-time
 * scheduling, blocking, timeouts, determinism, interrupts.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/fiber.hh"
#include "support/rng.hh"

using namespace hc;
using namespace hc::sim;

// ----------------------------------------------------------------------
// Fiber.
// ----------------------------------------------------------------------

TEST(Fiber, RunsBodyOnSwitchTo)
{
    int state = 0;
    FiberHost host;
    Fiber fiber([&] { state = 1; });
    EXPECT_EQ(state, 0);
    fiber.switchTo(host);
    EXPECT_EQ(state, 1);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, SuspendsAndResumes)
{
    std::vector<int> order;
    FiberHost host;
    Fiber *self = nullptr;
    Fiber fiber([&] {
        order.push_back(1);
        self->switchBack();
        order.push_back(3);
    });
    self = &fiber;
    fiber.switchTo(host);
    order.push_back(2);
    fiber.switchTo(host);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, HandoffSkipsTheHost)
{
    // a -> b (first entry) -> a -> b (resume) -> host, all without
    // visiting the host in between; then b finishes back to the host
    // even though the host only ever entered a.
    std::vector<int> order;
    FiberHost host;
    Fiber *a_ptr = nullptr;
    Fiber *b_ptr = nullptr;
    Fiber a([&] {
        order.push_back(1);
        a_ptr->handoff(*b_ptr);
        order.push_back(3);
        a_ptr->handoff(*b_ptr);
        order.push_back(6);
    });
    Fiber b([&] {
        order.push_back(2);
        b_ptr->handoff(*a_ptr);
        order.push_back(4);
        b_ptr->switchBack();
        order.push_back(7);
    });
    a_ptr = &a;
    b_ptr = &b;
    a.switchTo(host);
    order.push_back(5);
    a.switchTo(host); // a finishes
    EXPECT_TRUE(a.finished());
    b.switchTo(host); // b finishes
    EXPECT_TRUE(b.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Fiber, HandedOffFiberFinishesToHost)
{
    std::vector<int> order;
    FiberHost host;
    Fiber b([&] { order.push_back(2); });
    Fiber *a_ptr = nullptr;
    Fiber a([&] {
        order.push_back(1);
        a_ptr->handoff(b);
        order.push_back(4);
    });
    a_ptr = &a;
    a.switchTo(host); // returns when b finishes
    order.push_back(3);
    EXPECT_TRUE(b.finished());
    EXPECT_FALSE(a.finished());
    a.switchTo(host);
    EXPECT_TRUE(a.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// ----------------------------------------------------------------------
// Engine basics.
// ----------------------------------------------------------------------

TEST(Engine, RunsSingleThreadToCompletion)
{
    Engine engine;
    Cycles end_time = 0;
    engine.spawn("t", 0, [&] {
        engine.advance(100);
        engine.advance(50);
        end_time = engine.now();
    });
    engine.run();
    EXPECT_EQ(end_time, 150u);
    EXPECT_EQ(engine.coreNow(0), 150u);
}

TEST(Engine, InterleavesByVirtualTime)
{
    Engine engine;
    std::vector<std::string> order;
    engine.spawn("slow", 0, [&] {
        engine.advance(100);
        order.push_back("slow@100");
        engine.advance(100);
        order.push_back("slow@200");
    });
    engine.spawn("fast", 1, [&] {
        engine.advance(30);
        order.push_back("fast@30");
        engine.advance(120);
        order.push_back("fast@150");
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<std::string>{
                         "fast@30", "slow@100", "fast@150",
                         "slow@200"}));
}

TEST(Engine, SameCoreTimeShares)
{
    Engine engine;
    std::vector<int> order;
    engine.spawn("a", 0, [&] {
        order.push_back(1);
        engine.yield();
        order.push_back(3);
    });
    engine.spawn("b", 0, [&] {
        order.push_back(2);
        engine.yield();
        order.push_back(4);
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, SleepWakesAtRequestedTime)
{
    Engine engine;
    Cycles woke_at = 0;
    engine.spawn("sleeper", 0, [&] {
        engine.sleepUntil(5'000);
        woke_at = engine.now();
    });
    engine.run();
    EXPECT_EQ(woke_at, 5'000u);
}

TEST(Engine, SleepForIsRelative)
{
    Engine engine;
    Cycles woke_at = 0;
    engine.spawn("sleeper", 0, [&] {
        engine.advance(100);
        engine.sleepFor(400);
        woke_at = engine.now();
    });
    engine.run();
    EXPECT_EQ(woke_at, 500u);
}

// ----------------------------------------------------------------------
// Wait queues and timeouts.
// ----------------------------------------------------------------------

TEST(Engine, NotifyWakesWaiterAtNotifierTime)
{
    Engine engine;
    WaitQueue queue;
    Cycles woke_at = 0;
    engine.spawn("waiter", 0, [&] {
        engine.wait(queue);
        woke_at = engine.now();
    });
    engine.spawn("notifier", 1, [&] {
        engine.advance(777);
        engine.notifyOne(queue);
    });
    engine.run();
    EXPECT_EQ(woke_at, 777u);
}

TEST(Engine, WaitUntilTimesOut)
{
    Engine engine;
    WaitQueue queue;
    bool notified = true;
    Cycles woke_at = 0;
    engine.spawn("waiter", 0, [&] {
        notified = engine.waitUntil(queue, 1'000);
        woke_at = engine.now();
    });
    engine.run();
    EXPECT_FALSE(notified);
    EXPECT_EQ(woke_at, 1'000u);
}

TEST(Engine, NotifyBeforeDeadlineBeatsTimeout)
{
    Engine engine;
    WaitQueue queue;
    bool notified = false;
    Cycles woke_at = 0;
    engine.spawn("waiter", 0, [&] {
        notified = engine.waitUntil(queue, 10'000);
        woke_at = engine.now();
    });
    engine.spawn("notifier", 1, [&] {
        engine.advance(400);
        engine.notifyOne(queue);
    });
    engine.run();
    EXPECT_TRUE(notified);
    EXPECT_EQ(woke_at, 400u);
}

TEST(Engine, NotifyAllWakesEveryWaiter)
{
    Engine engine;
    WaitQueue queue;
    int woken = 0;
    for (int i = 0; i < 5; ++i) {
        engine.spawn("waiter" + std::to_string(i), i % 4, [&] {
            engine.wait(queue);
            ++woken;
        });
    }
    engine.spawn("notifier", 4, [&] {
        engine.advance(10);
        engine.notifyAll(queue);
    });
    engine.run();
    EXPECT_EQ(woken, 5);
}

TEST(Engine, WaiterCount)
{
    Engine engine;
    WaitQueue queue;
    engine.spawn("waiter", 0, [&] { engine.wait(queue); });
    engine.spawn("checker", 1, [&] {
        engine.advance(100);
        EXPECT_EQ(queue.waiterCount(), 1u);
        engine.notifyOne(queue);
    });
    engine.run();
    EXPECT_EQ(queue.waiterCount(), 0u);
}

// ----------------------------------------------------------------------
// Cross-thread ordering (the property HotCalls depends on).
// ----------------------------------------------------------------------

TEST(Engine, PollingThreadSeesWriteAtRightVirtualTime)
{
    Engine engine;
    int flag = 0;
    Cycles seen_at = 0;
    engine.spawn("poller", 0, [&] {
        while (flag == 0)
            engine.advance(10);
        seen_at = engine.now();
    });
    engine.spawn("writer", 1, [&] {
        engine.advance(1'005);
        flag = 1;
    });
    engine.run();
    // The poller polls every 10 cycles, so it observes the write on
    // its first poll at/after 1,005.
    EXPECT_GE(seen_at, 1'005u);
    EXPECT_LE(seen_at, 1'020u);
}

TEST(Engine, StopEndsRunWithLiveThreads)
{
    Engine engine;
    std::uint64_t iterations = 0;
    engine.spawn("spinner", 0, [&] {
        for (;;) {
            engine.advance(100);
            ++iterations;
        }
    });
    engine.spawn("stopper", 1, [&] {
        engine.sleepUntil(10'000);
        engine.stop();
    });
    engine.run();
    EXPECT_TRUE(engine.stopRequested());
    EXPECT_GE(iterations, 90u);
    EXPECT_LE(iterations, 120u);
}

TEST(Engine, ExitThreadTerminatesImmediately)
{
    Engine engine;
    bool after_exit = false;
    engine.spawn("quitter", 0, [&] {
        engine.advance(5);
        engine.exitThread();
        after_exit = true; // must not run
    });
    engine.run();
    EXPECT_FALSE(after_exit);
}

TEST(Engine, SpawnFromRunningThread)
{
    Engine engine;
    Cycles child_start = 0;
    engine.spawn("parent", 0, [&] {
        engine.advance(250);
        engine.spawn("child", 1, [&] {
            child_start = engine.now();
        });
        engine.advance(250);
    });
    engine.run();
    EXPECT_EQ(child_start, 250u);
}

// ----------------------------------------------------------------------
// Determinism.
// ----------------------------------------------------------------------

namespace {

std::vector<std::uint64_t>
runScenario(std::uint64_t seed)
{
    Engine::Config config;
    config.seed = seed;
    Engine engine(config);
    WaitQueue queue;
    std::vector<std::uint64_t> events;
    engine.spawn("producer", 0, [&] {
        for (int i = 0; i < 50; ++i) {
            engine.advance(
                10 + engine.rng().nextBelow(90));
            engine.notifyOne(queue);
            events.push_back(engine.now());
        }
        engine.stop();
    });
    engine.spawn("consumer", 1, [&] {
        for (;;) {
            engine.waitUntil(queue, engine.now() + 500);
            events.push_back(engine.now() + 1'000'000);
        }
    });
    engine.run();
    return events;
}

} // anonymous namespace

TEST(Engine, DeterministicForFixedSeed)
{
    EXPECT_EQ(runScenario(11), runScenario(11));
}

TEST(Engine, SeedChangesSchedule)
{
    EXPECT_NE(runScenario(11), runScenario(12));
}

// ----------------------------------------------------------------------
// Interrupts.
// ----------------------------------------------------------------------

TEST(Engine, InterruptsFireAtConfiguredRate)
{
    Engine::Config config;
    config.interruptMeanCycles = 10'000;
    Engine engine(config);
    std::uint64_t handler_calls = 0;
    engine.setInterruptHandler([&](CoreId, Cycles) -> Cycles {
        ++handler_calls;
        return 100;
    });
    engine.spawn("worker", 0, [&] {
        for (int i = 0; i < 10'000; ++i)
            engine.advance(100);
    });
    engine.run();
    // ~1M busy cycles at one interrupt per ~10k -> about 100.
    EXPECT_GT(handler_calls, 60u);
    EXPECT_LT(handler_calls, 150u);
    EXPECT_EQ(engine.interruptCount(), handler_calls);
}

TEST(Engine, InterruptCostAdvancesClock)
{
    Engine::Config config;
    config.interruptMeanCycles = 1'000;
    Engine engine(config);
    engine.setInterruptHandler(
        [](CoreId, Cycles) -> Cycles { return 5'000; });
    Cycles end = 0;
    engine.spawn("worker", 0, [&] {
        for (int i = 0; i < 100; ++i)
            engine.advance(100);
        end = engine.now();
    });
    engine.run();
    // 10k busy cycles + ~10 interrupts x 5k handler cycles.
    EXPECT_GT(end, 30'000u);
}

TEST(Engine, NoInterruptsWhenDisabled)
{
    Engine engine; // default: disabled
    engine.setInterruptHandler([](CoreId, Cycles) -> Cycles {
        ADD_FAILURE() << "interrupt fired while disabled";
        return 0;
    });
    engine.spawn("worker", 0,
                 [&] { engine.advance(100'000'000); });
    engine.run();
    EXPECT_EQ(engine.interruptCount(), 0u);
}

// ----------------------------------------------------------------------
// Multi-core properties.
// ----------------------------------------------------------------------

/** Property: per-core clocks stay consistent however many cores. */
class EngineCores : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineCores, BusyCoresAdvanceIndependently)
{
    Engine::Config config;
    config.numCores = GetParam();
    Engine engine(config);
    const int cores = engine.numCores();
    std::vector<Cycles> end_times(
        static_cast<std::size_t>(cores));
    for (int c = 0; c < cores; ++c) {
        engine.spawn("w" + std::to_string(c), c, [&, c] {
            // Each core burns a different amount of time.
            for (int i = 0; i <= c; ++i)
                engine.advance(1'000);
            end_times[static_cast<std::size_t>(c)] = engine.now();
        });
    }
    engine.run();
    for (int c = 0; c < cores; ++c) {
        EXPECT_EQ(end_times[static_cast<std::size_t>(c)],
                  static_cast<Cycles>(c + 1) * 1'000)
            << "core " << c;
        EXPECT_EQ(engine.coreNow(c),
                  static_cast<Cycles>(c + 1) * 1'000);
    }
}

TEST_P(EngineCores, NotificationOrderIsFifo)
{
    // All waiters share one core so their execution order exposes
    // the queue's release order (across cores, execution order is a
    // scheduling matter, not a queue property).
    Engine::Config config;
    config.numCores = GetParam();
    Engine engine(config);
    WaitQueue queue;
    std::vector<int> wake_order;
    const int waiter_core = engine.numCores() - 1;
    const int waiters = 6;
    for (int i = 0; i < waiters; ++i) {
        engine.spawn("w" + std::to_string(i), waiter_core, [&, i] {
            engine.wait(queue);
            wake_order.push_back(i);
        });
    }
    engine.spawn("notifier", 0, [&] {
        engine.sleepUntil(1'000);
        for (int i = 0; i < waiters; ++i)
            engine.notifyOne(queue);
    });
    engine.run();
    ASSERT_EQ(static_cast<int>(wake_order.size()), waiters);
    // FIFO release: waiters parked in spawn order wake in order.
    for (int i = 0; i < waiters; ++i)
        EXPECT_EQ(wake_order[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, EngineCores,
                         ::testing::Values(1, 2, 4, 8, 16));

// ----------------------------------------------------------------------
// Scheduler oracle: a seeded randomized stress whose dispatch log is
// pinned by digest. Any change to the scheduler's data structures or
// control transfer must reproduce every decision exactly, so this is
// the differential oracle for scheduler fast paths.
// ----------------------------------------------------------------------

namespace {

/** FNV-1a over 64-bit words (little-endian bytes). */
struct Fnv64 {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
};

/** Folds every observer event into the dispatch log. */
class LogObserver : public EngineObserver
{
  public:
    explicit LogObserver(Fnv64 &log) : log_(log) {}

    void onSpawn(Thread *parent, Thread *child) override
    {
        log_.add(1);
        log_.add(parent ? parent->id() : ~0ull);
        log_.add(child->id());
    }
    void onWake(Thread *waker, Thread *woken) override
    {
        log_.add(2);
        log_.add(waker ? waker->id() : ~0ull);
        log_.add(woken->id());
    }
    void onThreadExit(Thread *thread) override
    {
        log_.add(3);
        log_.add(thread->id());
    }
    void onTimeout(Thread *thread) override
    {
        log_.add(4);
        log_.add(thread->id());
    }
    void onStop() override { log_.add(5); }

  private:
    Fnv64 &log_;
};

struct OracleRun {
    std::uint64_t digest = 0;
    std::uint64_t dispatches = 0; //!< logged resume points
    std::uint64_t timeouts = 0;   //!< waitUntil() calls that timed out
    std::uint64_t exits = 0;      //!< bodies that returned normally
    std::uint64_t unwound = 0;    //!< bodies collapsed by unwindStranded
    std::uint64_t stranded = 0;   //!< live threads when run() returned
    /** (tag, wake time) of each tie participant, in wake order. */
    std::vector<std::uint64_t> ties;
};

/**
 * Spawn fibers on 8 cores that mix every blocking primitive, with
 * times quantized to 100 cycles so ties are common, then stop the run
 * while some threads are still blocked and unwind them.
 */
OracleRun
runSchedulerOracle(std::uint64_t seed, double interrupt_mean)
{
    constexpr int kCores = 8;
    constexpr Cycles kQuantum = 100;
    constexpr Cycles kRandomAt = 4'000;
    constexpr Cycles kStopAt = 12'000;

    OracleRun out;
    Fnv64 log;
    LogObserver observer(log);
    std::array<WaitQueue, 4> queues;
    WaitQueue never; // nobody notifies it: waits on it time out
    WaitQueue parked;
    Rng rng(seed ^ 0x5eed0fac1e5ull);

    Engine::Config config;
    config.numCores = kCores;
    config.seed = seed;
    config.interruptMeanCycles = interrupt_mean;
    Engine engine(config);
    engine.setObserver(&observer);
    engine.setInterruptHandler([&](CoreId core, Cycles at) -> Cycles {
        log.add(0x1u);
        log.add(static_cast<std::uint64_t>(core));
        log.add(at);
        return 37;
    });

    // One resume point: (thread id, core, clock).
    auto mark = [&] {
        Thread *self = engine.currentThread();
        log.add(self->id());
        log.add(static_cast<std::uint64_t>(self->core()));
        log.add(engine.now());
        ++out.dispatches;
    };
    auto quantize = [&](Cycles t) { return t - t % kQuantum; };

    // Counts normal exits vs forced unwinds, and logs which.
    struct ExitLog {
        Engine &engine;
        Fnv64 &log;
        OracleRun &out;
        std::uint64_t id;
        ~ExitLog()
        {
            log.add(engine.unwinding() ? 0xdeadu : 0xe1u);
            log.add(id);
            ++(engine.unwinding() ? out.unwound : out.exits);
        }
    };

    std::function<void(int, bool)> ops = [&](int count, bool may_spawn) {
        for (int i = 0; i < count; ++i) {
            const Cycles base = quantize(engine.now());
            WaitQueue &queue = queues[rng.nextBelow(queues.size())];
            switch (rng.nextBelow(10)) {
            case 0:
                engine.advance(10 * rng.nextBelow(4));
                break;
            case 1:
                engine.advance(kQuantum * rng.nextBelow(3));
                break;
            case 2:
                engine.yield();
                break;
            case 3:
                // Absolute quantized wake-up: readyTime ties on one
                // core and candidate ties across cores.
                engine.sleepUntil(base + kQuantum * rng.nextBelow(3));
                break;
            case 4:
                engine.wait(queue);
                break;
            case 5: {
                // Quantized deadline: often equal to a sleeper's
                // candidate time.
                const bool notified = engine.waitUntil(
                    rng.chance(0.3) ? never : queue,
                    base + kQuantum * (1 + rng.nextBelow(3)));
                log.add(notified);
                out.timeouts += !notified;
                break;
            }
            case 6:
                engine.notifyOne(queue);
                break;
            case 7:
                engine.notifyAll(queue);
                break;
            case 8:
                if (may_spawn) {
                    const auto core =
                        static_cast<CoreId>(rng.nextBelow(kCores));
                    const int child_ops =
                        static_cast<int>(5 + rng.nextBelow(20));
                    engine.spawn("child", core, [&, child_ops] {
                        ExitLog guard{engine, log, out,
                                      engine.currentThread()->id()};
                        mark();
                        ops(child_ops, false);
                    });
                } else {
                    engine.sleepFor(kQuantum);
                }
                break;
            default:
                engine.sleepFor(10 * rng.nextBelow(15));
                break;
            }
            mark();
        }
    };

    // Every tie resolves before the random phase starts at kRandomAt,
    // so nothing else perturbs it; tie_log records who won.
    std::vector<std::uint64_t> tie_log;
    auto tied = [&](Cycles tie_at, std::uint64_t tag, bool timed) {
        return [&, tie_at, tag, timed] {
            ExitLog guard{engine, log, out, engine.currentThread()->id()};
            mark();
            if (timed)
                engine.waitUntil(never, tie_at);
            else
                engine.sleepUntil(tie_at);
            tie_log.push_back(tag);
            tie_log.push_back(engine.now());
            mark();
            engine.sleepUntil(kRandomAt);
            mark();
            ops(120, true);
        };
    };
    // Tie 1: three threads on core 0 ready at the same time (FIFO).
    for (std::uint64_t i = 0; i < 3; ++i)
        engine.spawn("same-core", 0, tied(1'000, 10 + i, false));
    // Tie 2: equal candidate times on cores 1 and 2 (lower core first).
    engine.spawn("cross-b", 2, tied(2'000, 21, false));
    engine.spawn("cross-a", 1, tied(2'000, 20, false));
    // Tie 3: a deadline equal to a candidate time (the candidate runs
    // first; the timeout fires after it).
    engine.spawn("deadline", 3, tied(3'000, 31, true));
    engine.spawn("candidate", 4, tied(3'000, 30, false));
    // Random workers on every core.
    for (int c = 0; c < kCores; ++c) {
        const Cycles first_wake = kRandomAt + kQuantum * rng.nextBelow(5);
        engine.spawn("worker", c, [&, first_wake] {
            ExitLog guard{engine, log, out, engine.currentThread()->id()};
            mark();
            engine.sleepUntil(first_wake);
            mark();
            ops(80, true);
        });
    }
    // Ticker: keeps notifying until stopped (then stranded).
    engine.spawn("ticker", kCores - 1, [&] {
        ExitLog guard{engine, log, out, engine.currentThread()->id()};
        for (std::uint64_t k = 0;; ++k) {
            engine.sleepUntil(quantize(engine.now()) + 3 * kQuantum);
            engine.notifyAll(queues[k % queues.size()]);
            mark();
        }
    });
    // Controller: stops the run mid-flight, then parks forever.
    engine.spawn("controller", kCores - 2, [&] {
        ExitLog guard{engine, log, out, engine.currentThread()->id()};
        engine.sleepUntil(kStopAt);
        mark();
        engine.stop();
        engine.wait(parked);
    });

    engine.run();
    out.stranded = engine.liveThreads();
    log.add(out.stranded);
    for (int c = 0; c < kCores; ++c)
        log.add(engine.coreNow(c));
    engine.unwindStranded();
    log.add(engine.liveThreads());
    for (std::uint64_t v : tie_log)
        log.add(v);
    engine.setObserver(nullptr);
    out.ties = tie_log;
    out.digest = log.h;
    return out;
}

} // anonymous namespace

TEST(SchedulerOracle, ResolvesTiesDeterministically)
{
    const OracleRun run = runSchedulerOracle(1, 0);
    // FIFO among equal readyTime on core 0; core 1 before core 2 on an
    // equal candidate time; a candidate before an equal deadline.
    EXPECT_EQ(run.ties, (std::vector<std::uint64_t>{
                            10, 1'000, 11, 1'000, 12, 1'000, //
                            20, 2'000, 21, 2'000,            //
                            30, 3'000, 31, 3'000}));
}

TEST(SchedulerOracle, ExercisesEveryPath)
{
    for (const double interrupts : {0.0, 20'000.0}) {
        const OracleRun run = runSchedulerOracle(1, interrupts);
        EXPECT_GT(run.timeouts, 50u);
        EXPECT_GT(run.exits, 20u);   // thread exit
        EXPECT_GT(run.stranded, 5u); // stop with live threads
        EXPECT_EQ(run.unwound, run.stranded);
    }
}

TEST(SchedulerOracle, DispatchLogMatchesPinnedDigest)
{
    // Any change to the scheduler's data structures or control
    // transfer must reproduce every decision, so these never move.
    EXPECT_EQ(runSchedulerOracle(1, 0).digest, 0x094810df9b8fdd35ull);
    EXPECT_EQ(runSchedulerOracle(9001, 0).digest, 0xbec02da339ae56baull);
    EXPECT_EQ(runSchedulerOracle(7, 20'000).digest, 0x247b809183c611efull);
    EXPECT_EQ(runSchedulerOracle(7, 20'000).digest,
              runSchedulerOracle(7, 20'000).digest);
}

namespace {

/** The jitter draws (bound 23, as a hot-channel poll makes) of thread
 *  "a", optionally next to busy unrelated threads. */
std::vector<std::uint64_t>
channelJitterOfA(bool crowd)
{
    Engine engine(Engine::Config{4, 77, 0});
    std::vector<std::uint64_t> draws;
    engine.spawn("a", 0, [&] {
        Rng &rng = engine.currentThread()->rng();
        for (int i = 0; i < 64; ++i) {
            draws.push_back(rng.nextBelow(23));
            engine.advance(35 + draws.back());
        }
    });
    if (crowd) {
        for (CoreId core = 1; core < 4; ++core) {
            engine.spawn("b" + std::to_string(core), core, [&, core] {
                for (int i = 0; i < 100; ++i) {
                    engine.currentThread()->rng().nextBelow(23);
                    engine.rng().next();
                    engine.advance(static_cast<Cycles>(core) * 7);
                }
            });
        }
    }
    engine.run();
    return draws;
}

} // anonymous namespace

TEST(Engine, ThreadStreamIndependentOfInterleaving)
{
    const auto alone = channelJitterOfA(false);
    const auto crowded = channelJitterOfA(true);
    ASSERT_EQ(alone.size(), 64u);
    EXPECT_EQ(alone, crowded);

    // Distinct spawn ids get distinct streams.
    Engine engine(Engine::Config{2, 77, 0});
    std::uint64_t first = 0, second = 0;
    engine.spawn("x", 0,
                 [&] { first = engine.currentThread()->rng().next(); });
    engine.spawn("y", 1,
                 [&] { second = engine.currentThread()->rng().next(); });
    engine.run();
    EXPECT_NE(first, second);
}

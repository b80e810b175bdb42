/**
 * @file
 * Deterministic multi-core discrete-event simulation engine.
 *
 * The engine owns N logical cores (default 8, matching the paper's
 * i7-6700K with hyper-threading). Each simulated thread is a fiber
 * pinned to one core; a core runs one thread at a time and has its own
 * cycle clock. The engine always resumes the eligible thread whose
 * effective start time is globally minimal, so for a fixed seed every
 * run interleaves identically.
 *
 * Threads charge virtual time with advance(); advance() gives up the
 * core whenever the local clock crosses the earliest pending event
 * elsewhere, which keeps cross-core shared-memory interactions (the
 * HotCalls channel, spin-locks) correctly ordered in virtual time while
 * costing a scheduling decision only at real interleaving points.
 *
 * Each decision costs a constant amount: every core caches its next
 * candidate and the earliest waitUntil() deadline is cached too, so
 * selection is one pass over the cores with no queue scans; the
 * thread giving up its core makes the decision itself and either keeps
 * running (re-picked) or switches straight into the winner's fiber.
 * The scheduler loop runs only for timeout expiries, thread exits,
 * blocking waits with nothing runnable, stop and deadlock. See
 * DESIGN.md section 5.1.
 */

#ifndef HC_SIM_ENGINE_HH
#define HC_SIM_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hh"
#include "support/rng.hh"
#include "support/units.hh"

namespace hc::sim {

/** "No deadline": the largest clock value. */
inline constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

class Engine;
class Thread;

/**
 * A spin-poller that parks instead of polling (Engine::park()).
 *
 * A poller's idle loop is a fixed cycle of atomic blocks (the actions
 * a thread takes at one clock value), each followed by one advance().
 * While nothing it observes changes, every block repeats exactly, so
 * the poller can leave the ready set and replay the skipped blocks
 * later from its own RNG stream. The engine decides when; the poller
 * knows how.
 */
class SpinPoller
{
  public:
    SpinPoller() = default;
    virtual ~SpinPoller() = default;
    // The engine holds a parked poller's address.
    SpinPoller(const SpinPoller &) = delete;
    SpinPoller &operator=(const SpinPoller &) = delete;

    /**
     * Replay the skipped blocks ordered before the boundary (@p time,
     * @p core): a block at clock t on this poller's core precedes it
     * iff t < time, or t == time and the poller's core is lower (the
     * scheduler's tie rule). Never replays a block at or past the
     * limit given to park(). Drops the poller's watches.
     * @return the clock of the first block left to run for real
     */
    virtual Cycles wake(Cycles time, CoreId core) = 0;

    /** Cache-set keys the poller watches (Engine::unparkWatching):
     *  the line it polls, plus one whose state it reads. */
    std::uint64_t watchKeys[2] = {};
    int watchCount = 0;

  private:
    friend class Engine;
    Thread *thread_ = nullptr;
};

/** States a simulated thread moves through. */
enum class ThreadState {
    Ready,   //!< eligible to run on its core at readyTime
    Running, //!< currently executing on its core
    Blocked, //!< parked on a WaitQueue
    Done,    //!< body returned
};

/**
 * A simulated thread: a fiber pinned to a logical core.
 *
 * Thread objects are created by Engine::spawn() and owned by the
 * engine; user code holds non-owning pointers.
 */
class Thread
{
  public:
    /** @return the thread's debug name. */
    const std::string &name() const { return name_; }

    /** @return the logical core this thread is pinned to. */
    CoreId core() const { return core_; }

    /** @return the current lifecycle state. */
    ThreadState state() const { return state_; }

    /** @return true if the last waitUntil() ended by timeout. */
    bool timedOut() const { return timedOut_; }

    /** @return the unique spawn-order id (deterministic tiebreaker). */
    std::uint64_t id() const { return id_; }

    /**
     * @return the thread's own RNG stream, derived from the engine
     * seed and the spawn id. Draws a thread makes here do not depend
     * on how other threads interleave with it (see DESIGN.md 5.1).
     */
    Rng &rng() { return rng_; }

  private:
    friend class Engine;
    friend class WaitQueue;

    Thread(Engine &engine, std::string name, CoreId core,
           std::function<void()> body, std::uint64_t id,
           std::uint64_t seed);

    Engine &engine_;
    std::string name_;
    CoreId core_;
    std::uint64_t id_;
    Rng rng_;
    ThreadState state_ = ThreadState::Ready;
    Cycles readyTime_ = 0;   //!< earliest time the core may run us
    Cycles timeoutAt_ = 0;   //!< pending waitUntil() deadline
    bool hasTimeout_ = false;
    bool timedOut_ = false;
    class WaitQueue *waitingOn_ = nullptr;
    SpinPoller *parkedOn_ = nullptr; //!< set while spin-parked
    std::unique_ptr<Fiber> fiber_;
};

/**
 * A condition-variable-like parking lot for simulated threads.
 *
 * Threads block with Engine::wait()/waitUntil() and are released by
 * notifyOne()/notifyAll(). Wakeups carry the notifier's virtual time,
 * so a woken thread never runs earlier than its waker.
 */
class WaitQueue
{
  public:
    WaitQueue() = default;
    WaitQueue(const WaitQueue &) = delete;
    WaitQueue &operator=(const WaitQueue &) = delete;

    /** @return the number of threads currently parked. */
    std::size_t waiterCount() const { return waiters_.size(); }

  private:
    friend class Engine;
    std::deque<Thread *> waiters_;
};

/**
 * Thrown into a stranded fiber by Engine::unwindStranded() so its
 * stack unwinds and locals (staging buffers, vectors, ...) are
 * destroyed instead of leaking. Caught by the thread trampoline;
 * simulated code must never catch it (and never catches (...)).
 */
struct ForcedUnwind
{
};

/** Hook invoked when a core takes an interrupt; returns cycles spent. */
using InterruptHandler = std::function<Cycles(CoreId core, Cycles now)>;

/**
 * Scheduler event sink (Engine::setObserver). The checker layer
 * (src/check) derives happens-before edges from these events; the
 * engine itself attaches no semantics to them.
 */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    /** @p child was spawned; @p parent is null for host-side spawns. */
    virtual void onSpawn(Thread *parent, Thread *child) = 0;

    /** @p woken leaves a WaitQueue because @p waker notified it;
     *  @p waker is null when the notify came from outside the
     *  simulation. Timeout expiries emit onTimeout instead (they
     *  carry no ordering). */
    virtual void onWake(Thread *waker, Thread *woken) = 0;

    /** @p thread's body returned. */
    virtual void onThreadExit(Thread *thread) = 0;

    /** @p thread's waitUntil() deadline expired (no ordering edge:
     *  nobody notified it). Default: ignored. */
    virtual void onTimeout(Thread *thread) { (void)thread; }

    /** Engine::stop() was requested (first request only). Default:
     *  ignored. */
    virtual void onStop() {}
};

/** The discrete-event engine. */
class Engine
{
  public:
    struct Config {
        int numCores = 8;              //!< logical cores (paper: 8)
        std::uint64_t seed = 1;        //!< master RNG seed
        double interruptMeanCycles = 0; //!< 0 disables interrupts
    };

    Engine() : Engine(Config{}) {}
    explicit Engine(Config config);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** @return the engine owning the currently running fiber. */
    static Engine *current();

    /**
     * Create a simulated thread.
     *
     * @param name  debug name
     * @param core  logical core to pin to, in [0, numCores)
     * @param body  the thread body
     * @return a non-owning handle
     */
    Thread *spawn(std::string name, CoreId core,
                  std::function<void()> body);

    /**
     * Run the simulation. Returns when every thread finished or when
     * stop() was called. Calls fatal() on deadlock (live threads but
     * nothing runnable and no stop request).
     */
    void run();

    /** Request run() to return at the next scheduling point. */
    void stop()
    {
        // Parked pollers stop where polling ones would have: at the
        // stopping thread's boundary.
        unparkAll();
        if (!stopRequested_ && observer_)
            observer_->onStop();
        stopRequested_ = true;
    }

    /** @return true once stop() has been called. */
    bool stopRequested() const { return stopRequested_; }

    /** @return threads spawned but not yet finished. After run()
     *  returned, non-zero means fibers were stranded by stop(). */
    std::uint64_t liveThreads() const { return liveThreads_; }

    /**
     * Collapse every stranded fiber by resuming it once with
     * ForcedUnwind pending, destroying all locals on its stack.
     * Teardown-only: the engine must not be run() again afterwards.
     * Owners whose resources outlive the engine (Machine) call this
     * before tearing those resources down; the destructor also calls
     * it as a backstop. No-op when no threads are live.
     */
    void unwindStranded();

    /** @return true while unwindStranded() is collapsing fibers. */
    bool unwinding() const { return unwinding_; }

    // ------------------------------------------------------------------
    // Calls valid only from inside a simulated thread.
    // ------------------------------------------------------------------

    /** @return the currently running thread. */
    Thread *currentThread() const { return running_; }

    /** @return the current thread's core clock, in cycles. */
    Cycles now() const
    {
        if (!running_)
            return 0;
        return cores_[static_cast<std::size_t>(running_->core_)].clock;
    }

    /** @return the clock of core @p core (parked pollers caught up
     *  first, so it reads what polling would have left there). */
    Cycles coreNow(CoreId core);

    /** Charge @p cycles of compute time on the current core. */
    void advance(Cycles cycles);

    /** Let same-core ready threads run; current rejoins the queue. */
    void yield();

    /** Block until the core clock reaches @p when. */
    void sleepUntil(Cycles when);

    /** Block for @p cycles of virtual time. */
    void sleepFor(Cycles cycles) { sleepUntil(now() + cycles); }

    /** Park the current thread on @p queue until notified. */
    void wait(WaitQueue &queue);

    /**
     * Park on @p queue until notified or until @p deadline.
     * @return true when notified, false on timeout.
     */
    bool waitUntil(WaitQueue &queue, Cycles deadline);

    /** Release one parked thread (FIFO). No-op when empty. */
    void notifyOne(WaitQueue &queue);

    /** Release every parked thread. */
    void notifyAll(WaitQueue &queue);

    /** Terminate the current thread immediately. */
    [[noreturn]] void exitThread();

    // ------------------------------------------------------------------
    // SpinPark: idle pollers park on the state they watch.
    // ------------------------------------------------------------------

    /**
     * Park the current thread, an idle spin-poller, instead of letting
     * it poll. It stays parked until something could change what its
     * next poll sees: unparkWatching() (an access to its watched
     * set), another thread becoming ready on its core, the deadline
     * @p limit - 1 (the poller's own next action that is not a pure
     * repeat: an interrupt, a Sentinel deadline, an idle-sleep
     * threshold), unparkAll() (stop, reads of poll-updated state) or
     * nothing else being runnable. On wake it replays the skipped
     * polls (SpinPoller::wake) and resumes at the first block left.
     * @return false (nothing happens) when parking is switched off,
     *         another thread is ready on the core, or @p limit is
     *         too close
     */
    bool park(SpinPoller &poller, Cycles limit);

    /** Wake @p poller (parked) at the running thread's boundary. */
    void unpark(SpinPoller &poller);

    /** Wake every poller parked on @p key, at the running thread's
     *  boundary. */
    void unparkWatching(std::uint64_t key);

    /** Wake every parked poller at the running thread's boundary. */
    void unparkAll();

    /** Test hook: park idle pollers (default) or let them poll. Both
     *  are bit-identical; polling is the differential oracle. */
    void setSpinPark(bool enabled) { spinPark_ = enabled; }

    /** @return true when idle pollers park. */
    bool spinParkEnabled() const { return spinPark_; }

    /** @return scheduling decisions made so far (one per
     *  reschedule(); host-side bookkeeping, cycle-neutral). */
    std::uint64_t decisions() const { return decisions_; }

    /** @return the next interrupt arrival on @p core (never when
     *  interrupts are off). */
    Cycles nextInterruptAt(CoreId core) const
    {
        return cores_[static_cast<std::size_t>(core)].nextInterrupt;
    }

    // ------------------------------------------------------------------
    // Interrupt (AEX source) model.
    // ------------------------------------------------------------------

    /**
     * Install the handler invoked when a core takes a timer interrupt.
     * Interrupt arrivals are exponential with Config::interruptMeanCycles
     * mean inter-arrival time; a zero mean disables them.
     */
    void setInterruptHandler(InterruptHandler handler);

    /** @return total interrupts delivered so far. */
    std::uint64_t interruptCount() const { return interruptCount_; }

    /** Install the scheduler event sink (null to detach). The
     *  observer must outlive the engine or be detached first. */
    void setObserver(EngineObserver *observer) { observer_ = observer; }

    /** @return the engine master RNG (for seeding components). */
    Rng &rng() { return rng_; }

    /** @return number of configured cores. */
    int numCores() const { return static_cast<int>(cores_.size()); }

  private:
    struct Core {
        Cycles clock = 0;
        /** Ready threads in push order (FIFO among equal times). */
        std::vector<Thread *> ready;
        /** Cached next candidate: the earliest readyTime_, first in
         *  push order on ties; null when ready is empty. */
        Thread *best = nullptr;
        Cycles nextInterrupt = std::numeric_limits<Cycles>::max();
        /** The poller spin-parked on this core, if any. */
        SpinPoller *parked = nullptr;

        /** @return when best could start on this core. */
        Cycles candidateTime() const
        {
            return best->readyTime_ > clock ? best->readyTime_ : clock;
        }
    };

    /**
     * One deterministic scheduling decision: the globally minimal
     * runnable candidate, the earliest pending waitUntil() deadline,
     * and the minimum candidate time over every *other* core (used to
     * refresh the horizon incrementally after dispatch).
     */
    struct Selection {
        Thread *thread = nullptr; //!< winning candidate (may be null)
        Cycles time = std::numeric_limits<Cycles>::max();
        std::size_t coreIdx = 0;
        Cycles otherMin = std::numeric_limits<Cycles>::max();
        Thread *timeoutThread = nullptr;
        Cycles timeoutTime = std::numeric_limits<Cycles>::max();

        /** True when a timeout expires before any candidate runs. */
        bool expiresTimeout() const
        {
            return timeoutThread && timeoutTime < time;
        }
    };

    /** Move @p thread to Ready on its core, runnable at @p when. */
    void makeReady(Thread *thread, Cycles when);

    /** Compute the next scheduling decision from the per-core and
     *  timed-waiter caches: one pass over the cores, no queue scans.
     *  The scheduler loop and a yielding fiber both decide through
     *  it, so they cannot diverge. */
    Selection selectNext() const;

    /** Run @p sel's winner: take it off its core's ready list, move
     *  the core clock, make it running_ and refresh the horizon. */
    void dispatch(const Selection &sel);

    /** Expire @p sel's timed waiter and make it ready. */
    void expireTimeout(const Selection &sel);

    /**
     * Give up the core: the running thread just left Running
     * (re-queued itself, blocked, or exited via exitThread()). Makes
     * the next decision in place: when it re-picks the caller, the
     * caller keeps running with no switch at all; when it picks
     * another ready thread, dispatches it and hands the fiber over
     * directly. Only timeout expiry, a pending stop and "nothing
     * runnable" go back to the scheduler loop. Also the single
     * resume point where teardown's ForcedUnwind is raised.
     */
    void reschedule(Thread *self);

    /** Deadline order: earlier timeoutAt_, then lower spawn id. */
    static bool expiresBefore(const Thread *a, const Thread *b);

    /** Add @p thread to the timed-waiter list (deadline set). */
    void addTimedWaiter(Thread *thread);

    /** Drop @p thread from the timed-waiter list (timeout cleared). */
    void dropTimedWaiter(Thread *thread);

    /** Deliver any interrupt due on the current core, inside an
     *  advance() that started at @p before. */
    void maybeInterrupt(Cycles before);

    /** Wake @p poller: replay up to (@p time, @p core) and make its
     *  thread ready at the first block left to run. */
    void unparkAt(SpinPoller &poller, Cycles time, CoreId core);

    Config config_;
    Rng rng_;
    std::vector<Core> cores_;
    std::vector<std::unique_ptr<Thread>> threads_;
    /** Blocked threads with a pending waitUntil() deadline. */
    std::vector<Thread *> timedWaiters_;
    /** Cached earliest deadline among timedWaiters_ (ties by spawn
     *  id, matching a spawn-order scan); null when there is none. */
    Thread *earliestTimeout_ = nullptr;
    Thread *running_ = nullptr;
    /** The scheduler loop's context; every fiber returns to it. */
    FiberHost scheduler_;
    std::uint64_t nextThreadId_ = 0;
    std::uint64_t liveThreads_ = 0;
    bool stopRequested_ = false;
    bool inRun_ = false;
    bool unwinding_ = false;
    std::uint64_t interruptCount_ = 0;
    std::uint64_t decisions_ = 0;
    bool spinPark_ = true;
    /** While an interrupt handler runs: the clock its advance()
     *  started at. The handler runs past the horizon, before any
     *  other thread's later blocks, so that is its order point. */
    Cycles handlerBoundary_ = kNever;
    /** Spin-parked pollers, in park order. */
    std::vector<SpinPoller *> parked_;
    InterruptHandler interruptHandler_;
    EngineObserver *observer_ = nullptr;

    /** Earliest event time outside the currently running thread. */
    Cycles nextEventTime_ = std::numeric_limits<Cycles>::max();
};

// ----------------------------------------------------------------------
// Free-function conveniences for the running fiber's engine.
// ----------------------------------------------------------------------

/** @return current virtual time of the calling fiber's core. */
Cycles now();

/** Charge cycles on the calling fiber's core. */
void advance(Cycles cycles);

/** Yield to same-core ready threads. */
void yield();

} // namespace hc::sim

#endif // HC_SIM_ENGINE_HH

/**
 * @file
 * Engine implementation.
 */

#include "sim/engine.hh"

#include <algorithm>

#include "support/hash.hh"
#include "support/logging.hh"

namespace hc::sim {

namespace {

/// Engine owning the fiber currently executing on this host thread.
thread_local Engine *g_current_engine = nullptr;

} // anonymous namespace

Thread::Thread(Engine &engine, std::string name, CoreId core,
               std::function<void()> body, std::uint64_t id,
               std::uint64_t seed)
    : engine_(engine), name_(std::move(name)), core_(core), id_(id),
      rng_(mix64(seed ^ mix64(id + 1)))
{
    fiber_ = std::make_unique<Fiber>([this, body = std::move(body)] {
        // First dispatched during teardown: nothing ran, nothing to
        // unwind.
        if (engine_.unwinding())
            return;
        try {
            body();
        } catch (const ForcedUnwind &) {
            // Teardown collapsed this stack; locals are destroyed and
            // the fiber finishes normally.
        }
    });
}

Engine::Engine(Config config) : config_(config), rng_(config.seed)
{
    hc_assert(config_.numCores > 0);
    cores_.resize(static_cast<std::size_t>(config_.numCores));
    if (config_.interruptMeanCycles > 0) {
        for (auto &core : cores_) {
            core.nextInterrupt = static_cast<Cycles>(
                rng_.nextExponential(config_.interruptMeanCycles));
        }
    }
}

Engine::~Engine()
{
    // Backstop for engines used without a Machine; Machine unwinds
    // earlier, while resources the fibers reference are still alive.
    unwindStranded();
}

void
Engine::unwindStranded()
{
    if (liveThreads_ == 0)
        return;
    hc_assert(!inRun_);
    unwinding_ = true;
    timedWaiters_.clear(); // hasTimeout_ is force-cleared below
    earliestTimeout_ = nullptr;
    parked_.clear();
    for (auto &core : cores_)
        core.parked = nullptr;
    Engine *prev_engine = g_current_engine;
    g_current_engine = this;
    for (auto &thread : threads_) {
        Thread *t = thread.get();
        if (t->state_ == ThreadState::Done || t->fiber_->finished())
            continue;
        // Forget the wait queue WITHOUT touching it: queues owned by
        // objects declared after the machine are already destroyed by
        // the time teardown unwinds the threads parked on them.
        t->waitingOn_ = nullptr;
        t->parkedOn_ = nullptr;
        t->hasTimeout_ = false;
        running_ = t;
        t->fiber_->switchTo(scheduler_);
        running_ = nullptr;
        hc_assert(t->fiber_->finished());
        t->state_ = ThreadState::Done;
        --liveThreads_;
        if (observer_)
            observer_->onThreadExit(t);
    }
    g_current_engine = prev_engine;
    unwinding_ = false;
}

Engine *
Engine::current()
{
    return g_current_engine;
}

Thread *
Engine::spawn(std::string name, CoreId core, std::function<void()> body)
{
    hc_assert(core >= 0 && core < numCores());
    std::unique_ptr<Thread> thread(new Thread(
        *this, std::move(name), core, std::move(body), nextThreadId_++,
        config_.seed));
    Thread *raw = thread.get();
    threads_.push_back(std::move(thread));
    ++liveThreads_;
    if (observer_)
        observer_->onSpawn(running_, raw);
    makeReady(raw, running_ ? now() : 0);
    return raw;
}

void
Engine::makeReady(Thread *thread, Cycles when)
{
    Core &core = cores_[static_cast<std::size_t>(thread->core_)];
    // A polling thread would share the core with the newcomer from its
    // next block on: wake the parked poller first, so it also queues
    // first (FIFO on equal ready times, as when it had yielded).
    if (core.parked && core.parked->thread_ != thread)
        unpark(*core.parked);
    thread->state_ = ThreadState::Ready;
    thread->readyTime_ = when;
    core.ready.push_back(thread);
    // Only a strictly earlier time displaces the cached candidate:
    // on ties the earlier push wins (FIFO).
    if (!core.best || when < core.best->readyTime_)
        core.best = thread;
    // A new candidate may precede the running thread's horizon.
    if (running_)
        nextEventTime_ = std::min(nextEventTime_, when);
}

Engine::Selection
Engine::selectNext() const
{
    Selection sel;
    // Globally minimal runnable candidate; `<` keeps the first core
    // on ties. Candidate times of every losing core accumulate into
    // otherMin so the post-dispatch horizon refresh only has to look
    // at the winning core.
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const Core &core = cores_[c];
        if (!core.best)
            continue;
        const Cycles t = core.candidateTime();
        if (t < sel.time) {
            sel.otherMin = std::min(sel.otherMin, sel.time);
            sel.time = t;
            sel.thread = core.best;
            sel.coreIdx = c;
        } else {
            sel.otherMin = std::min(sel.otherMin, t);
        }
    }
    if (earliestTimeout_) {
        sel.timeoutThread = earliestTimeout_;
        sel.timeoutTime = earliestTimeout_->timeoutAt_;
    }
    return sel;
}

void
Engine::dispatch(const Selection &sel)
{
    Thread *next = sel.thread;
    Core &core = cores_[sel.coreIdx];
    // next is the core's cached candidate: drop it (keeping push
    // order) and find the new candidate in the same pass.
    auto &ready = core.ready;
    Thread *best = nullptr;
    std::size_t kept = 0;
    for (Thread *t : ready) {
        if (t == next)
            continue;
        ready[kept++] = t;
        if (!best || t->readyTime_ < best->readyTime_)
            best = t;
    }
    hc_assert(kept + 1 == ready.size());
    ready.resize(kept);
    core.best = best;

    core.clock = sel.time;
    next->state_ = ThreadState::Running;
    running_ = next;
    // Only this core's candidate changed; every other core's and the
    // earliest deadline were already gathered by selectNext().
    Cycles horizon = std::min(sel.otherMin, sel.timeoutTime);
    if (best)
        horizon = std::min(horizon, core.candidateTime());
    nextEventTime_ = horizon;
}

bool
Engine::expiresBefore(const Thread *a, const Thread *b)
{
    return a->timeoutAt_ < b->timeoutAt_ ||
           (a->timeoutAt_ == b->timeoutAt_ && a->id_ < b->id_);
}

void
Engine::addTimedWaiter(Thread *thread)
{
    thread->hasTimeout_ = true;
    timedWaiters_.push_back(thread);
    if (!earliestTimeout_ || expiresBefore(thread, earliestTimeout_))
        earliestTimeout_ = thread;
}

void
Engine::dropTimedWaiter(Thread *thread)
{
    thread->hasTimeout_ = false;
    timedWaiters_.erase(std::find(timedWaiters_.begin(),
                                  timedWaiters_.end(), thread));
    if (thread != earliestTimeout_)
        return;
    earliestTimeout_ = nullptr;
    for (Thread *t : timedWaiters_) {
        if (!earliestTimeout_ || expiresBefore(t, earliestTimeout_))
            earliestTimeout_ = t;
    }
}

void
Engine::expireTimeout(const Selection &sel)
{
    // Once its deadline is the global minimum, no earlier notify can
    // still happen: detach from the queue and make it ready.
    Thread *thread = sel.timeoutThread;
    if (SpinPoller *poller = thread->parkedOn_) {
        // The poller's own deadline: replay everything before its
        // limit (no thread has acted past limit - 1 yet). Not a wait
        // timeout: polling would have produced no event here.
        unparkAt(*poller, sel.timeoutTime + 1, -1);
        return;
    }
    WaitQueue *queue = thread->waitingOn_;
    hc_assert(queue);
    auto &waiters = queue->waiters_;
    waiters.erase(std::find(waiters.begin(), waiters.end(), thread));
    thread->waitingOn_ = nullptr;
    dropTimedWaiter(thread);
    thread->timedOut_ = true;
    // Expiry creates no ordering edge (nobody notified), but
    // observers that count scheduling perturbations (the
    // fault-injection layer) still want to see it.
    if (observer_)
        observer_->onTimeout(thread);
    makeReady(thread, sel.timeoutTime);
}

void
Engine::run()
{
    hc_assert(!inRun_);
    inRun_ = true;
    Engine *prev_engine = g_current_engine;
    g_current_engine = this;

    while (!stopRequested_ && liveThreads_ > 0) {
        const Selection sel = selectNext();
        if (sel.expiresTimeout()) {
            expireTimeout(sel);
            continue;
        }
        if (!sel.thread && !parked_.empty()) {
            // Only parked pollers are left: they would keep polling.
            while (!parked_.empty())
                unparkAt(*parked_.front(), 0, -1);
            continue;
        }
        if (!sel.thread) {
            std::string live;
            for (const auto &thread : threads_) {
                if (thread->state_ != ThreadState::Done)
                    live += " " + thread->name_;
            }
            fatal("simulation deadlock: no runnable thread among:%s",
                  live.c_str());
        }

        dispatch(sel);
        running_->fiber_->switchTo(scheduler_);

        // Back from whichever thread ended the chain of handoffs this
        // dispatch started, so read running_, not sel.thread.
        Thread *last = running_;
        running_ = nullptr;
        if (last->fiber_->finished() ||
            last->state_ == ThreadState::Done) {
            last->state_ = ThreadState::Done;
            --liveThreads_;
            if (observer_)
                observer_->onThreadExit(last);
        }
    }

    g_current_engine = prev_engine;
    inRun_ = false;
}

Cycles
Engine::coreNow(CoreId core)
{
    hc_assert(core >= 0 && core < numCores());
    unparkAll();
    return cores_[static_cast<std::size_t>(core)].clock;
}

void
Engine::reschedule(Thread *self)
{
    ++decisions_;
    Selection sel;
    // A pending stop must reach the scheduler loop before anyone else
    // runs.
    if (!stopRequested_)
        sel = selectNext();
    if (sel.thread && !sel.expiresTimeout()) {
        // Exactly what the loop would do next. Dispatch emits no
        // observer events, so skipping the loop is invisible.
        dispatch(sel);
        if (sel.thread == self)
            return; // re-picked: keep running, no switch at all
        self->fiber_->handoff(*sel.thread->fiber_);
    } else {
        self->fiber_->switchBack();
    }
    // Resumed by a later dispatch — unless teardown resumed us solely
    // to collapse this stack.
    if (unwinding_)
        throw ForcedUnwind{};
}

void
Engine::maybeInterrupt(Cycles before)
{
    Thread *self = running_;
    Core &core = cores_[static_cast<std::size_t>(self->core_)];
    while (core.clock >= core.nextInterrupt) {
        ++interruptCount_;
        const Cycles at = core.nextInterrupt;
        Cycles handler_cycles = 0;
        if (interruptHandler_) {
            handlerBoundary_ = before;
            handler_cycles = interruptHandler_(self->core_, at);
            handlerBoundary_ = kNever;
        }
        core.clock += handler_cycles;
        // Re-arm from the handler's completion time: a handler that
        // outlasts the mean inter-arrival must not create an
        // unbounded interrupt storm.
        core.nextInterrupt =
            std::max(at, core.clock) +
            std::max<Cycles>(
                1, static_cast<Cycles>(rng_.nextExponential(
                       config_.interruptMeanCycles)));
    }
}

void
Engine::advance(Cycles cycles)
{
    // Destructors running during a forced unwind must not suspend:
    // a second ForcedUnwind mid-unwind would std::terminate.
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    Core &core = cores_[static_cast<std::size_t>(self->core_)];
    const Cycles before = core.clock;
    core.clock += cycles;
    // nextInterrupt stays at "never" while interrupts are disabled.
    if (core.clock >= core.nextInterrupt)
        maybeInterrupt(before);
    if (core.clock >= nextEventTime_) {
        // Another event precedes (or ties) our clock: let the
        // scheduler interleave. We stay ready at our current time.
        makeReady(self, core.clock);
        reschedule(self);
    }
}

void
Engine::yield()
{
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    Core &core = cores_[static_cast<std::size_t>(self->core_)];
    if (core.ready.empty())
        return;
    makeReady(self, core.clock);
    reschedule(self);
}

void
Engine::sleepUntil(Cycles when)
{
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    Core &core = cores_[static_cast<std::size_t>(self->core_)];
    makeReady(self, std::max(when, core.clock));
    reschedule(self);
}

void
Engine::wait(WaitQueue &queue)
{
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    self->state_ = ThreadState::Blocked;
    self->waitingOn_ = &queue;
    self->hasTimeout_ = false;
    self->timedOut_ = false;
    queue.waiters_.push_back(self);
    reschedule(self);
}

bool
Engine::waitUntil(WaitQueue &queue, Cycles deadline)
{
    if (unwinding_)
        return false; // report as a timeout
    Thread *self = running_;
    hc_assert(self);
    self->state_ = ThreadState::Blocked;
    self->waitingOn_ = &queue;
    self->timeoutAt_ = std::max(deadline, now());
    self->timedOut_ = false;
    queue.waiters_.push_back(self);
    addTimedWaiter(self);
    reschedule(self);
    return !self->timedOut_;
}

void
Engine::notifyOne(WaitQueue &queue)
{
    if (queue.waiters_.empty())
        return;
    Thread *woken = queue.waiters_.front();
    queue.waiters_.pop_front();
    woken->waitingOn_ = nullptr;
    if (woken->hasTimeout_)
        dropTimedWaiter(woken);
    woken->timedOut_ = false;
    if (observer_)
        observer_->onWake(running_, woken);
    makeReady(woken, now());
}

void
Engine::notifyAll(WaitQueue &queue)
{
    while (!queue.waiters_.empty())
        notifyOne(queue);
}

void
Engine::exitThread()
{
    Thread *self = running_;
    hc_assert(self);
    self->state_ = ThreadState::Done;
    // Exit is handled by the scheduler loop, never handed off.
    self->fiber_->switchBack();
    panic("exited thread resumed");
}

bool
Engine::park(SpinPoller &poller, Cycles limit)
{
    if (!spinPark_ || unwinding_ || stopRequested_)
        return false;
    Thread *self = running_;
    hc_assert(self && !self->parkedOn_);
    Core &core = cores_[static_cast<std::size_t>(self->core_)];
    // The deadline is limit - 1: every thread is then held at or
    // before it, so no one acts past the poller's last replayable
    // block before the poller has been replayed up to it.
    if (!core.ready.empty() || limit <= core.clock + 1)
        return false;
    poller.thread_ = self;
    self->parkedOn_ = &poller;
    self->state_ = ThreadState::Blocked;
    self->timedOut_ = false;
    core.parked = &poller;
    parked_.push_back(&poller);
    if (limit != kNever) {
        self->timeoutAt_ = limit - 1;
        addTimedWaiter(self);
    }
    reschedule(self);
    return true;
}

void
Engine::unparkAt(SpinPoller &poller, Cycles time, CoreId core)
{
    Thread *thread = poller.thread_;
    hc_assert(thread && thread->parkedOn_ == &poller);
    thread->parkedOn_ = nullptr;
    poller.thread_ = nullptr;
    if (thread->hasTimeout_)
        dropTimedWaiter(thread);
    parked_.erase(std::find(parked_.begin(), parked_.end(), &poller));
    Core &own = cores_[static_cast<std::size_t>(thread->core_)];
    own.parked = nullptr;
    // The replayed blocks moved the clock exactly as polling would
    // have; the thread is ready at the first block left to run.
    own.clock = poller.wake(time, core);
    makeReady(thread, own.clock);
}

void
Engine::unpark(SpinPoller &poller)
{
    if (running_)
        unparkAt(poller, std::min(now(), handlerBoundary_),
                 running_->core_);
    else
        unparkAt(poller, 0, -1);
}

void
Engine::unparkWatching(std::uint64_t key)
{
    for (std::size_t i = 0; i < parked_.size();) {
        const SpinPoller &p = *parked_[i];
        if (p.watchKeys[0] == key ||
            (p.watchCount > 1 && p.watchKeys[1] == key))
            unpark(*parked_[i]);
        else
            ++i;
    }
}

void
Engine::unparkAll()
{
    while (!parked_.empty())
        unpark(*parked_.front());
}

void
Engine::setInterruptHandler(InterruptHandler handler)
{
    interruptHandler_ = std::move(handler);
}

Cycles
now()
{
    Engine *engine = Engine::current();
    hc_assert(engine);
    return engine->now();
}

void
advance(Cycles cycles)
{
    Engine *engine = Engine::current();
    hc_assert(engine);
    engine->advance(cycles);
}

void
yield()
{
    Engine *engine = Engine::current();
    hc_assert(engine);
    engine->yield();
}

} // namespace hc::sim

/**
 * @file
 * SimCheck implementation.
 */

#include "check/check.hh"

#include <algorithm>
#include <cstdio>

#include "support/logging.hh"

namespace hc::check {

namespace {

const std::string kHostName = "<host>";

std::string
hex(Addr addr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

} // anonymous namespace

SimCheck::SimCheck(sim::Engine &engine, CheckConfig config)
    : engine_(engine), config_(config)
{
}

// ----------------------------------------------------------------------
// Thread bookkeeping and clock algebra.
// ----------------------------------------------------------------------

SimCheck::ThreadInfo &
SimCheck::info(sim::Thread *thread)
{
    const std::size_t tid = thread->id();
    if (threads_.size() <= tid)
        threads_.resize(tid + 1);
    ThreadInfo &ti = threads_[tid];
    if (!ti.known) {
        ti.known = true;
        ti.name = thread->name();
        if (ti.clock.size() <= tid)
            ti.clock.resize(tid + 1, 0);
        // Epochs start at 1 so epoch 0 means "never synchronized".
        ti.clock[tid] = std::max<std::uint64_t>(ti.clock[tid], 1);
    }
    return ti;
}

void
SimCheck::join(Clock &into, const Clock &from)
{
    if (into.size() < from.size())
        into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i)
        into[i] = std::max(into[i], from[i]);
}

bool
SimCheck::ordered(const Access &access, const Clock &clock)
{
    const std::uint64_t seen =
        access.tid < clock.size() ? clock[access.tid] : 0;
    return access.epoch <= seen;
}

const std::string &
SimCheck::nameOf(std::uint64_t tid) const
{
    if (tid < threads_.size() && threads_[tid].known)
        return threads_[tid].name;
    return kHostName;
}

std::string
SimCheck::currentThreadName() const
{
    sim::Thread *t = engine_.currentThread();
    return t ? t->name() : kHostName;
}

// ----------------------------------------------------------------------
// Happens-before sources.
// ----------------------------------------------------------------------

void
SimCheck::onSpawn(sim::Thread *parent, sim::Thread *child)
{
    ThreadInfo &ci = info(child);
    if (parent) {
        ThreadInfo &pi = info(parent);
        join(ci.clock, pi.clock);
        pi.clock[parent->id()]++;
        // The join above may have advanced the child's own entry past
        // its initial epoch; keep its identity component dominant.
        ci.clock[child->id()]++;
    }
}

void
SimCheck::onWake(sim::Thread *waker, sim::Thread *woken)
{
    ThreadInfo &wi = info(woken);
    if (waker) {
        ThreadInfo &ki = info(waker);
        join(wi.clock, ki.clock);
        ki.clock[waker->id()]++;
    }
}

void
SimCheck::onThreadExit(sim::Thread *thread)
{
    // Keep the final clock so a later polling join can acquire it.
    info(thread);
}

void
SimCheck::joinEdge(sim::Thread *joined)
{
    sim::Thread *self = engine_.currentThread();
    if (!self || !joined || self == joined)
        return;
    join(info(self).clock, info(joined).clock);
}

void
SimCheck::acquireEdge(const void *obj)
{
    sim::Thread *self = engine_.currentThread();
    if (!self)
        return;
    auto it = objectClocks_.find(obj);
    if (it != objectClocks_.end())
        join(info(self).clock, it->second);
}

void
SimCheck::releaseEdge(const void *obj)
{
    sim::Thread *self = engine_.currentThread();
    if (!self)
        return;
    ThreadInfo &ti = info(self);
    join(objectClocks_[obj], ti.clock);
    ti.clock[self->id()]++;
}

// ----------------------------------------------------------------------
// Race detector.
// ----------------------------------------------------------------------

void
SimCheck::registerSyncWord(Addr addr)
{
    syncWords_.insert(addr);
}

void
SimCheck::markExempt(Addr addr)
{
    exempt_.insert(addr);
}

void
SimCheck::onWordAccess(Addr addr, bool write)
{
    onWordAccessBy(engine_.currentThread(), addr, write);
}

void
SimCheck::onWordAccessBy(sim::Thread *self, Addr addr, bool write)
{
    if (!self)
        return; // host-side setup: single-threaded by construction

    if (syncWords_.count(addr)) {
        // Atomic semantics: readers acquire the word's release clock,
        // writers also publish theirs (the protocols read-modify-write
        // these words, so a write is acquire + release).
        ThreadInfo &ti = info(self);
        Clock &wc = syncClocks_[addr];
        join(ti.clock, wc);
        if (write) {
            join(wc, ti.clock);
            ti.clock[self->id()]++;
        }
        return;
    }
    if (exempt_.count(addr))
        return;

    ThreadInfo &ti = info(self);
    const std::uint64_t tid = self->id();
    WordState &word = words_[addr];

    if (word.write.valid && word.write.tid != tid &&
        !ordered(word.write, ti.clock)) {
        reportRace(write ? "write" : "read", "write", addr, word.write);
    }
    if (write) {
        for (const Access &read : word.reads) {
            if (read.tid != tid && !ordered(read, ti.clock))
                reportRace("write", "read", addr, read);
        }
        word.write = {tid, ti.clock[tid], engine_.now(), true};
        word.reads.clear();
    } else {
        for (Access &read : word.reads) {
            if (read.tid == tid) {
                read.epoch = ti.clock[tid];
                read.at = engine_.now();
                return;
            }
        }
        word.reads.push_back({tid, ti.clock[tid], engine_.now(), true});
    }
}

void
SimCheck::onSpanAccess(Addr addr, std::uint64_t len, bool write)
{
    if (len == 0)
        return;
    sim::Thread *self = engine_.currentThread();
    if (!self)
        return; // host-side setup: single-threaded by construction

    // Bulk payload bytes are deliberately not race-tracked per word
    // (stream-priced data; per-word shadowing of megabyte transfers
    // would also be prohibitive). Registered sync words keep their
    // atomic semantics even when a range op sweeps over them, so a
    // span through a channel's lines still orders like the word ops
    // in onWordAccess() would.
    const Addr end = addr + len; // == 0 when the span ends at the top
    for (auto it = syncWords_.lower_bound(addr);
         it != syncWords_.end() && (end == 0 || *it < end); ++it) {
        ThreadInfo &ti = info(self);
        Clock &wc = syncClocks_[*it];
        join(ti.clock, wc);
        if (write) {
            join(wc, ti.clock);
            ti.clock[self->id()]++;
        }
    }
}

void
SimCheck::reportRace(const char *current_op, const char *prior_op,
                     Addr addr, const Access &prior)
{
    sim::Thread *self = engine_.currentThread();
    std::string msg = "data race on word " + hex(addr) + ": " +
                      current_op + " by thread '" +
                      (self ? self->name() : kHostName) + "' at cycle " +
                      std::to_string(engine_.now()) +
                      " conflicts with prior " + prior_op +
                      " by thread '" + nameOf(prior.tid) +
                      "' at cycle " + std::to_string(prior.at) +
                      " with no happens-before edge";
    report(ViolationKind::Race, std::move(msg));
}

void
SimCheck::onFree(Addr addr, std::uint64_t size)
{
    const Addr end = addr + size;
    // The metadata maps only ever hold words that were actually
    // accessed/registered, so scanning them beats walking a
    // potentially multi-megabyte freed range word by word.
    for (auto it = words_.begin(); it != words_.end();) {
        it = (it->first >= addr && it->first < end) ? words_.erase(it)
                                                    : std::next(it);
    }
    for (auto it = syncClocks_.begin(); it != syncClocks_.end();) {
        it = (it->first >= addr && it->first < end)
                 ? syncClocks_.erase(it)
                 : std::next(it);
    }
    for (auto it = syncWords_.begin(); it != syncWords_.end();) {
        it = (*it >= addr && *it < end) ? syncWords_.erase(it)
                                        : std::next(it);
    }
    for (auto it = exempt_.begin(); it != exempt_.end();) {
        it = (*it >= addr && *it < end) ? exempt_.erase(it)
                                        : std::next(it);
    }
    for (auto it = deliberateLeaks_.begin();
         it != deliberateLeaks_.end();) {
        it = (it->first >= addr && it->first < end)
                 ? deliberateLeaks_.erase(it)
                 : std::next(it);
    }
}

// ----------------------------------------------------------------------
// Leak audit.
// ----------------------------------------------------------------------

void
SimCheck::registerDeliberateLeak(Addr addr, std::string reason)
{
    deliberateLeaks_[addr] = std::move(reason);
}

void
SimCheck::auditLeaks(const std::vector<LeakItem> &live)
{
    for (const LeakItem &item : live) {
        auto it = deliberateLeaks_.find(item.addr);
        if (it != deliberateLeaks_.end()) {
            trace("leak audit: %llu bytes at 0x%llx deliberately "
                  "leaked (%s)",
                  static_cast<unsigned long long>(item.bytes),
                  static_cast<unsigned long long>(item.addr),
                  it->second.c_str());
            continue;
        }
        report(ViolationKind::Leak,
               "leaked allocation: " + std::to_string(item.bytes) +
                   " bytes at " + hex(item.addr) + " (" + item.region +
                   ") still live at the leak audit and not registered "
                   "as a deliberate leak");
    }
}

// ----------------------------------------------------------------------
// Reporting.
// ----------------------------------------------------------------------

void
SimCheck::reportProtocol(const std::string &message)
{
    report(ViolationKind::Protocol, message);
}

void
SimCheck::report(ViolationKind kind, std::string message)
{
    counts_[static_cast<int>(kind)]++;
    warn("SimCheck: %s", message.c_str());
    if (config_.panicOnViolation)
        panic("SimCheck violation (HC_CHECK): %s", message.c_str());
    if (violations_.size() < config_.maxViolations)
        violations_.push_back({kind, std::move(message)});
}

std::uint64_t
SimCheck::count(ViolationKind kind) const
{
    return counts_[static_cast<int>(kind)];
}

// ----------------------------------------------------------------------
// HotQueue shadow state machine.
// ----------------------------------------------------------------------

HotQueueProtocol::HotQueueProtocol(SimCheck &check, std::string name,
                                   int num_slots)
    : check_(check), name_(std::move(name)), numSlots_(num_slots),
      slots_(static_cast<std::size_t>(num_slots))
{
}

HotQueueProtocol::~HotQueueProtocol()
{
    if (check_.engine().stopRequested())
        return; // aborted run: slots legitimately stranded mid-flight
    for (int slot = 0; slot < numSlots_; ++slot) {
        const SlotShadow &shadow =
            slots_[static_cast<std::size_t>(slot)];
        // A Zombie at teardown is a deliberately retired slot whose
        // logical call was reissued on the SDK path (Sentinel
        // reclaim) — a capacity loss, not a lost request.
        if (shadow.state == State::Free ||
            shadow.state == State::Zombie)
            continue;
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": left " + stateName(shadow.state) +
            " at teardown of a completed run (claimer '" +
            shadow.claimer + "', server '" + shadow.server + "')");
    }
}

const char *
HotQueueProtocol::stateName(State state)
{
    switch (state) {
      case State::Free: return "Free";
      case State::Publishing: return "Publishing";
      case State::Ready: return "Ready";
      case State::Serving: return "Serving";
      case State::Done: return "Done";
      case State::Zombie: return "Zombie";
    }
    return "?";
}

bool
HotQueueProtocol::transition(int slot, State from, State to,
                             const char *event)
{
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    if (shadow.state != from) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": illegal " + event + " while " +
            stateName(shadow.state) + " (expected " + stateName(from) +
            ") by thread '" + check_.currentThreadName() +
            "' at cycle " + std::to_string(check_.engine().now()));
        return false;
    }
    shadow.state = to;
    return true;
}

void
HotQueueProtocol::onClaim(int slot)
{
    // An illegal claim of a busy slot is a double-claim.
    if (transition(slot, State::Free, State::Publishing, "claim"))
        slots_[static_cast<std::size_t>(slot)].claimer =
            check_.currentThreadName();
}

void
HotQueueProtocol::onPublish(int slot)
{
    if (!transition(slot, State::Publishing, State::Ready, "publish"))
        return;
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    if (shadow.claimer != check_.currentThreadName()) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": published by thread '" + check_.currentThreadName() +
            "' but claimed by thread '" + shadow.claimer + "'");
    }
}

void
HotQueueProtocol::onGrab(int slot)
{
    if (transition(slot, State::Ready, State::Serving, "grab"))
        slots_[static_cast<std::size_t>(slot)].server =
            check_.currentThreadName();
}

void
HotQueueProtocol::onComplete(int slot)
{
    if (!transition(slot, State::Serving, State::Done, "complete"))
        return;
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    if (shadow.server != check_.currentThreadName()) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": completed by thread '" + check_.currentThreadName() +
            "' but grabbed by thread '" + shadow.server + "'");
    }
}

void
HotQueueProtocol::onHarvest(int slot)
{
    // An illegal harvest of a non-Done slot is a double-harvest (or a
    // harvest of someone else's in-flight request).
    if (!transition(slot, State::Done, State::Free, "harvest"))
        return;
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    if (shadow.claimer != check_.currentThreadName()) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": harvested by thread '" + check_.currentThreadName() +
            "' but claimed by thread '" + shadow.claimer + "'");
    }
}

void
HotQueueProtocol::onReclaimReady(int slot)
{
    if (!transition(slot, State::Ready, State::Zombie,
                    "ready-reclaim"))
        return;
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    if (shadow.claimer != check_.currentThreadName()) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": Ready slot reclaimed by thread '" +
            check_.currentThreadName() + "' but claimed by '" +
            shadow.claimer + "'");
    }
}

void
HotQueueProtocol::onReclaimServing(int slot)
{
    if (!transition(slot, State::Serving, State::Zombie,
                    "serving-reclaim"))
        return;
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    const std::string current = check_.currentThreadName();
    if (shadow.claimer != current) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": Serving slot reclaimed by thread '" + current +
            "' but claimed by '" + shadow.claimer +
            "' (only the waiting claimer may give up on its own "
            "request)");
    }
}

void
HotQueueProtocol::onReclaimPublishing(int slot)
{
    if (!transition(slot, State::Publishing, State::Zombie,
                    "publishing-reclaim"))
        return;
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    const std::string current = check_.currentThreadName();
    if (shadow.claimer == current) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": Publishing slot reclaimed by its own claimer '" +
            current + "' (the claimer must publish or keep the slot; "
            "only the head scan may retire a stalled publisher)");
    }
}

void
HotQueueProtocol::onZombieRetire(int slot)
{
    if (transition(slot, State::Zombie, State::Free, "zombie-retire")) {
        SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
        shadow.claimer.clear();
        shadow.server.clear();
    }
}

void
HotQueueProtocol::onArenaRecycle(int slot)
{
    SlotShadow &shadow = slots_[static_cast<std::size_t>(slot)];
    const std::string current = check_.currentThreadName();
    const bool legal =
        (shadow.state == State::Publishing && shadow.claimer == current) ||
        (shadow.state == State::Serving && shadow.server == current);
    if (!legal) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "' slot " + std::to_string(slot) +
            ": staging arena recycled while " +
            stateName(shadow.state) + " by thread '" + current +
            "' (legal only for the claimer while Publishing or the "
            "server while Serving) at cycle " +
            std::to_string(check_.engine().now()));
    }
}

void
HotQueueProtocol::onCursors(std::uint64_t head, std::uint64_t tail)
{
    if (tail < head ||
        tail - head > static_cast<std::uint64_t>(numSlots_)) {
        check_.reportProtocol(
            "hotqueue '" + name_ + "': cursor invariant violated: "
            "head=" + std::to_string(head) +
            " tail=" + std::to_string(tail) +
            " numSlots=" + std::to_string(numSlots_) +
            " (want head <= tail <= head + numSlots)");
    }
}

// ----------------------------------------------------------------------
// HotCall shadow state machine.
// ----------------------------------------------------------------------

HotCallProtocol::HotCallProtocol(SimCheck &check, std::string name)
    : check_(check), name_(std::move(name))
{
}

HotCallProtocol::~HotCallProtocol()
{
    if (check_.engine().stopRequested())
        return; // aborted run: channel legitimately stranded mid-call
    if (locked_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': lock still held by '" + holder_ +
            "' at teardown of a completed run");
    }
    if (go_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': request still in flight" +
            (serving_ ? " (being served by '" + server_ + "')"
                      : std::string()) +
            " at teardown of a completed run");
    }
}

void
HotCallProtocol::onLock()
{
    onLockBy(check_.currentThreadName());
}

void
HotCallProtocol::onLockBy(const std::string &who)
{
    if (locked_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': lock taken by thread '" + who +
            "' while already held by '" + holder_ + "' at cycle " +
            std::to_string(check_.engine().now()));
        return;
    }
    locked_ = true;
    holder_ = who;
}

void
HotCallProtocol::onUnlock()
{
    onUnlockBy(check_.currentThreadName());
}

void
HotCallProtocol::onUnlockBy(const std::string &who)
{
    if (!locked_) {
        check_.reportProtocol("hotcall '" + name_ +
                              "': unlock of a free lock by thread '" +
                              who + "'");
        return;
    }
    if (holder_ != who) {
        check_.reportProtocol("hotcall '" + name_ +
                              "': unlock by thread '" + who +
                              "' but held by '" + holder_ + "'");
    }
    locked_ = false;
}

void
HotCallProtocol::onPublish()
{
    if (!locked_ || holder_ != check_.currentThreadName()) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': publish by thread '" +
            check_.currentThreadName() +
            "' without holding the channel lock");
    }
    if (go_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': publish by thread '" +
            check_.currentThreadName() +
            "' while a request is already in flight");
        return;
    }
    go_ = true;
    serving_ = false;
    abandoned_ = false;
    publisher_ = check_.currentThreadName();
}

void
HotCallProtocol::onServe()
{
    if (!go_ || serving_ || abandoned_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': serve by thread '" +
            check_.currentThreadName() +
            (serving_
                 ? "' of a request already being served"
                 : (abandoned_
                        ? "' of an abandoned request (the publisher "
                          "already reissued it; it must be discarded)"
                        : "' with no published request")));
        return;
    }
    serving_ = true;
    server_ = check_.currentThreadName();
}

void
HotCallProtocol::onAbandon()
{
    const std::string current = check_.currentThreadName();
    if (!go_ || serving_ || abandoned_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': abandon by thread '" + current +
            (serving_ ? "' of a request already being served"
                      : (abandoned_ ? "' of an already-abandoned "
                                      "request"
                                    : "' with no published request")));
        return;
    }
    if (publisher_ != current) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': abandon by thread '" + current +
            "' but published by '" + publisher_ + "'");
    }
    abandoned_ = true;
}

void
HotCallProtocol::onDiscard()
{
    if (!go_ || !abandoned_ || serving_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': discard by thread '" +
            check_.currentThreadName() +
            (go_ ? "' of a request that was never abandoned"
                 : "' with no request in flight"));
        return;
    }
    go_ = false;
    abandoned_ = false;
}

void
HotCallProtocol::onComplete()
{
    if (!go_ || !serving_) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': completion by thread '" +
            check_.currentThreadName() +
            (go_ ? "' of a request that was never served"
                 : "' with no request in flight"));
        return;
    }
    if (server_ != check_.currentThreadName()) {
        check_.reportProtocol(
            "hotcall '" + name_ + "': completion by thread '" +
            check_.currentThreadName() + "' but served by '" +
            server_ + "'");
    }
    go_ = false;
    serving_ = false;
}

} // namespace hc::check

/**
 * @file
 * HotCallService: the single-line signalling protocol.
 */

#include "hotcalls/hotcall.hh"

#include "fault/fault.hh"
#include "sdk/spinlock.hh"
#include "support/logging.hh"

namespace hc::hotcalls {

HotCallService::HotCallService(sdk::EnclaveRuntime &runtime, Kind kind,
                               CoreId responder_core,
                               HotCallConfig config)
    : Channel(runtime, kind, "hot", config_, stats_, true),
      responderCore_(responder_core), config_(config),
      sleepMutex_(machine_), sleepCond_(machine_)
{
    // One 64-byte line in untrusted memory holds the whole protocol
    // state (spin-lock word, busy flag, call_ID, *data), so a single
    // coherence transfer moves it between requester and responder.
    channelLine_ = allocLine();
    if (auto *ck = machine_.check())
        protocol_ = std::make_unique<check::HotCallProtocol>(*ck, name());
    // The single-line channel has exactly one staging slot.
    initChannel(1);
}

HotCallService::~HotCallService()
{
    teardown();
}

void
HotCallService::start()
{
    hc_assert(responders_.empty());
    spawnResponder(name() + "-responder");
}

void
HotCallService::spawnResponder(const std::string &name)
{
    const std::uint64_t epoch = responderEpoch_;
    responders_.insert(
        responders_.begin(),
        machine_.engine().spawn(name, responderCore_,
                                [this, epoch] { responderLoop(epoch); }));
}

void
HotCallService::respawn()
{
    if (!guard_->respawnAllowed())
        return;
    // Retire the wedged fiber — it exits at its next retirement
    // check and is joined at stop(), after the live responder — and
    // put a fresh responder on the same core. The quarantine probe
    // confirms the recovery.
    wakeParked(); // the parked responder observes its retirement
    sim::Thread *wedged = responders_.front();
    responders_.erase(responders_.begin());
    responders_.push_back(wedged);
    ++responderEpoch_;
    spawnResponder(name() + "-responder-r" +
                   std::to_string(responderEpoch_));
}

void
HotCallService::wakeResponders()
{
    // The sleeping_ flag is handed over under sleepMutex_: the
    // responder only commits to wait() while holding the mutex, so
    // checking the flag inside it cannot race with a responder that
    // is about to park (which would miss this signal).
    sleepMutex_.lock();
    if (sleeping_)
        sleepCond_.signal();
    sleepMutex_.unlock();
}

void
HotCallService::afterJoin()
{
    // Drain a still-poisoned channel: every responder that could have
    // discarded the abandoned request has exited, so the supervisor
    // performs the teardown discard itself.
    if (!abandoned_)
        return;
    go_ = false;
    abandoned_ = false;
    touchChannel(true);
    if (protocol_)
        protocol_->onDiscard();
    guard_->noteDiscard();
}

void
HotCallService::lockChannel()
{
    lockWord_ = true;
    if (protocol_)
        protocol_->onLock();
}

void
HotCallService::unlockChannel()
{
    lockWord_ = false;
    if (protocol_)
        protocol_->onUnlock();
    touchChannel(true);
}

Channel::Claim
HotCallService::claim(Request &)
{
    // Take the spin-lock (one RFO on the channel line).
    touchChannel(true);
    if (lockWord_)
        return Claim::Busy;
    lockChannel();

    // Is the responder free? Under FastPath the staging must also be
    // free: slotBusy_ stays set until the previous requester has
    // copied its results back out of the arenas.
    touchChannel(false);
    if (go_ || slotBusy_) {
        unlockChannel();
        return Claim::Busy;
    }
    return Claim::Won;
}

bool
HotCallService::publish(Request &req)
{
    // Still under the lock: claim the staging, publish *data and
    // call_ID, then signal "go" and release the lock.
    if (req.fast)
        slotBusy_ = true;
    staging_[0].callId = req.id;
    touchChannel(true); // publish *data and call_ID
    go_ = true;
    requestServed_ = false;
    if (protocol_)
        protocol_->onPublish();
    touchChannel(true); // mark the responder busy ("go")

    if (sleeping_) {
        // Responder parked: wake it before waiting (Section 4.2,
        // "Conserving resources at idle times"). The flag handoff
        // happens under sleepMutex_: the responder re-checks the busy
        // flag inside the mutex before parking, so either we see
        // sleeping_ here and signal, or the responder sees our
        // published request and never parks.
        sleepMutex_.lock();
        if (sleeping_) {
            ++stats_.wakeups;
            sleepCond_.signal();
        }
        sleepMutex_.unlock();
    }

    unlockChannel(); // release the lock
    machine_.engine().advance(sdk::kPauseCycles); // PAUSE after release
    return true;
}

bool
HotCallService::reclaim(Request &req, Cycles wait_start)
{
    if (requestServed_ ||
        machine_.now() - wait_start <= guard_->unservedDeadline() ||
        !guard_->responderLate(machine_.now()))
        return false;
    // Abandon: no live responder ever committed to the published
    // request, and none has shown a heartbeat within the liveness
    // window. Poison the channel (go_ stays up so no requester can
    // claim it; the next responder to see it discards without serving
    // — the served/abandoned handoff is host-atomic, so the request
    // is either discarded or served, never both) and reissue the call
    // on the SDK path. A discarding responder never reads the
    // staging, so its claim is dropped too.
    abandoned_ = true;
    touchChannel(true);
    if (protocol_)
        protocol_->onAbandon();
    guard_->noteAbandon();
    dropStagingClaim(req);
    return true;
}

void
HotCallService::onAbort(Request &req)
{
    // The responder is stranded: nothing will harvest on our behalf.
    dropStagingClaim(req);
}

void
HotCallService::dropStagingClaim(const Request &req)
{
    if (!req.fast)
        return;
    staging_[0].usedArena = false;
    slotBusy_ = false;
}

void
HotCallService::release(Request &req)
{
    // The shared request fields are NOT cleared here: once the busy
    // flag dropped, another requester may already have taken the lock
    // and published its own request, and scribbling the channel
    // without holding the lock would race with it. Only the staging
    // claim is ours alone to clear (requesters set it only after
    // observing it clear under the lock).
    if (!req.fast)
        return;
    dropStagingClaim(req);
    touchChannel(true);
}

void
HotCallService::responderLoop(std::uint64_t epoch)
{
    auto &engine = machine_.engine();

    // A HotEcall responder parks inside the enclave with one
    // conventional ecall and keeps polling from enclave mode.
    const auto retired = [this, epoch] { return epoch != responderEpoch_; };
    sgx::Tcs *tcs = nullptr;
    if (kind_ == Kind::HotEcall && !(tcs = enterEnclave(retired)))
        return;

    auto *injector = machine_.fault();
    std::uint64_t idle_polls = 0;
    // An idle poll repeats exactly until a requester touches the
    // line, so the responder parks on it (SpinPark). A wake may land
    // mid-poll: `resume` is the block to continue at (its
    // predecessors were replayed), 0 for a fresh poll.
    ResponderParker parker(*this, idle_polls);
    const Cycles min_poll =
        3 * machine_.memory().params().ownedHit + sdk::kPauseCycles;
    int resume = 0;
    while (resume != 0 || (!stopRequested_ && !retired())) {
        const int from = resume;
        resume = 0;
        if (from == 0) {
            ++stats_.responderPolls;
            if (guard_)
                guard_->heartbeat(machine_.now());

            if (injector) {
                if (injector->fire(fault::Site::ResponderNeverWake)) {
                    // Park for good: requesters see a saturated
                    // channel until the channel (or the engine) stops
                    // — or, under Sentinel, until a respawn retires
                    // this fiber.
                    wedge(retired);
                    continue;
                }
                if (injector->fire(fault::Site::ResponderOversleep)) {
                    engine.advance(injector->delay(
                        fault::Site::ResponderOversleep));
                }
            }

            // Try the lock; on failure just PAUSE and retry.
            touchChannel(true);
        }
        bool locked = from == 2;
        if (from <= 1 && !lockWord_) {
            lockChannel();
            touchChannel(false); // check the busy/"go" flag
            locked = true;
        }
        bool idle = from == 3;
        if (locked) {
            if (go_) {
                idle_polls = 0;
                touchChannel(false); // read call_ID and *data
                if (guard_ && abandoned_) {
                    // The publisher gave up on this request and
                    // reissued it on the SDK path; its staging is
                    // gone. Discard: drop the poison marker and the
                    // busy flag together without dereferencing the
                    // stale request pointers.
                    go_ = false;
                    abandoned_ = false;
                    if (protocol_)
                        protocol_->onDiscard();
                    guard_->noteDiscard();
                    unlockChannel(); // release; channel clean again
                } else {
                    // Commit host-atomically with the abandoned_
                    // check above (no advance in between): the
                    // publisher only abandons while !requestServed_,
                    // so a request is either discarded or served,
                    // never both.
                    requestServed_ = true;
                    if (protocol_)
                        protocol_->onServe();
                    unlockChannel(); // release before executing
                    serve(0);
                    go_ = false;
                    if (protocol_)
                        protocol_->onComplete();
                    touchChannel(true); // busy cleared (completion)
                    afterServe();
                }
            } else {
                ++idle_polls;
                unlockChannel();
                idle = true;
            }
        }
        pauseJittered();

        if (idle && !stopRequested_ && !retired()) {
            // Replay stops before the poll whose sleep check would
            // fire: it cannot come sooner than min_poll per poll.
            Cycles limit = sim::kNever;
            if (config_.responderSleep) {
                limit = idle_polls > config_.idlePollsBeforeSleep
                            ? 0
                            : machine_.now() +
                                  (config_.idlePollsBeforeSleep + 1 -
                                   idle_polls) * min_poll;
            }
            resume = parker.park(limit);
            if (resume != 0)
                continue; // the sleep check ran in the replay
        }

        if (config_.responderSleep &&
            idle_polls > config_.idlePollsBeforeSleep &&
            !stopRequested_) {
            // Conserve the core: park on the condition variable until
            // a requester (or stop()) signals. Commit to parking only
            // under sleepMutex_, re-checking the busy flag and the
            // stop request inside it: a requester publishes first and
            // checks sleeping_ afterwards (under the same mutex), so
            // a request that raced our decision to park is seen here
            // and served instead of slept through.
            sleepMutex_.lock();
            touchChannel(false);
            if (!go_ && !stopRequested_) {
                ++stats_.responderSleeps;
                sleeping_ = true;
                touchChannel(true);
                sleepCond_.wait(sleepMutex_);
                sleeping_ = false;
                touchChannel(true);
            }
            sleepMutex_.unlock();
            idle_polls = 0;
        }
    }

    if (tcs)
        exitEnclave(tcs);
}

void
HotCallService::ResponderParker::replay(Cycles stop)
{
    // Nothing this poll observes can change while parked: the sleep
    // check stays short of its threshold (the park limit), stop and
    // retirement wake the poller, and a requester reaches the lock
    // word and the busy flag only through the watched line. The lock
    // word, the counters and the beat are committed once: the tops
    // rise, so the last one is the beat polling would leave.
    HotCallService &s = service_;
    Replay r(*this, stop);
    check::HotCallProtocol *const protocol = s.protocol_.get();
    bool locked = s.lockWord_;
    std::uint64_t polls = 0;
    std::uint64_t idle = 0;
    Cycles top = 0;
    int phase = 0;
    while (r.runs()) {
        // Poll top, then the lock RFO.
        ++polls;
        top = r.t;
        r.access(true);
        phase = 1;
        if (!r.runs())
            break;
        // Lock free: take it, read the busy flag.
        locked = true;
        if (protocol)
            protocol->onLockBy(self().name());
        r.access(false);
        phase = 2;
        if (!r.runs())
            break;
        // Not busy: release the lock.
        ++idle;
        locked = false;
        if (protocol)
            protocol->onUnlockBy(self().name());
        r.access(true);
        phase = 3;
        if (!r.runs())
            break;
        r.pause();
        phase = 0;
    }
    s.lockWord_ = locked;
    s.stats_.responderPolls += polls;
    idlePolls_ += idle;
    if (polls > 0 && s.guard_)
        s.guard_->replayHeartbeat(top);
    r.finish(phase);
}

} // namespace hc::hotcalls

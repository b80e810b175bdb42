/**
 * @file
 * HotQueue: the ring signalling protocol and the responder pool.
 *
 * Functional ring state lives host-side; every protocol step prices
 * the simulated line it would touch (slot lines, cursor lines), so
 * the coherence model charges producers and consumers exactly as a
 * real multi-line channel would. Mutations of the functional state
 * are grouped so no virtual time is charged between a validity check
 * and the matching update — at simulation level each claim/grab is
 * atomic, mirroring the cmpxchg a native implementation would use.
 */

#include "hotcalls/hotqueue.hh"

#include <algorithm>

#include "fault/fault.hh"
#include "sdk/spinlock.hh"
#include "support/logging.hh"

namespace hc::hotcalls {

namespace {

/** Park a surplus responder when the fraction of window TIME it
 *  spent serving batches drops below this. */
constexpr double kScaleDownOccupancy = 0.2;

} // anonymous namespace

HotQueue::HotQueue(sdk::EnclaveRuntime &runtime, Kind kind,
                   HotQueueConfig config)
    : Channel(runtime, kind, "hotq", config_, stats_, false),
      config_(std::move(config)), poolMutex_(machine_),
      poolCond_(machine_)
{
    config_.numSlots = std::max(config_.numSlots, 1);
    if (config_.responderCores.empty())
        config_.responderCores = {2};
    config_.minResponders = std::clamp(
        config_.minResponders, 1,
        static_cast<int>(config_.responderCores.size()));

    // One 64-byte line per slot plus one per cursor: producers on
    // different slots do not false-share, and the producer cursor
    // does not bounce with the consumer cursor.
    slots_.resize(static_cast<std::size_t>(config_.numSlots));
    for (auto &slot : slots_)
        slot.line = allocLine();
    headLine_ = allocLine();
    tailLine_ = allocLine();
    if (auto *ck = machine_.check()) {
        // The shadow validates the slot lifecycle and the cursor
        // invariant.
        protocol_ = std::make_unique<check::HotQueueProtocol>(
            *ck, name(), config_.numSlots);
    }
    initChannel(slots_.size());
}

HotQueue::~HotQueue()
{
    teardown();
}

std::uint64_t
HotQueue::scaleUpDepth() const
{
    if (config_.scaleUpDepth > 0)
        return static_cast<std::uint64_t>(config_.scaleUpDepth);
    return std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(config_.numSlots) / 2);
}

void
HotQueue::start()
{
    hc_assert(responders_.empty());
    for (std::size_t i = 0; i < config_.responderCores.size(); ++i) {
        const int index = static_cast<int>(i);
        responders_.push_back(machine_.engine().spawn(
            name() + "-resp" + std::to_string(i),
            config_.responderCores[i],
            [this, index] { responderLoop(index); }));
    }
}

void
HotQueue::wakeResponders()
{
    // Wake every parked responder so it can observe the stop request;
    // the handoff happens under poolMutex_ (a responder only commits
    // to wait() while holding it).
    poolMutex_.lock();
    poolCond_.broadcast();
    poolMutex_.unlock();
}

Channel::Claim
HotQueue::claim(Request &req)
{
    // Probe the producer cursor and the slot it points at.
    touch(tailLine_, false);
    const std::uint64_t ticket = tail_;
    const std::size_t idx = ticket % slots_.size();
    Slot &slot = slots_[idx];
    touchSlot(idx, false);
    // Re-validate after the priced probes (another producer may have
    // claimed meanwhile), then claim with no time charged in between
    // — the simulation-level equivalent of cmpxchg.
    if (guard_ && tail_ == ticket && slot.state == SlotState::Zombie &&
        slot.ownerless) {
        // Reclamation debris parked at the producer cursor: a
        // Serving-reclaim whose server wedged for good (the head scan
        // only clears Zombies it has not passed yet). The epoch bump
        // at reclaim already voided the wedge's grab, so the claimer
        // retires the hole and claims the slot.
        retireZombie(idx);
    }
    // Ring full or claim lost: more load than the active pool drains
    // (onBusy tries to grow it).
    if (tail_ != ticket || slot.state != SlotState::Free)
        return Claim::Busy;
    slot.state = SlotState::Publishing;
    req.slot = idx;
    req.epoch = ++slot.epoch;
    slot.claimedAt = machine_.now();
    tail_ = ticket + 1;
    if (protocol_) {
        protocol_->onClaim(static_cast<int>(idx));
        protocol_->onCursors(head_, tail_);
    }
    stats_.depth.add(pending());
    touch(tailLine_, true); // publish the cursor

    auto *injector = machine_.fault();
    if (injector && injector->fire(fault::Site::SlotAbortPublishing)) {
        // Abort the run with this slot mid-Publishing: teardown must
        // cope with a claimed-but-never-published entry.
        injector->requestStop();
        return Claim::Aborted;
    }
    if (injector && injector->fire(fault::Site::PublisherStall)) {
        // The publisher wedges mid-marshalling: the slot sits in
        // Publishing long enough for the head scan's publish leash to
        // retire it out from under us.
        machine_.engine().advance(
            injector->delay(fault::Site::PublisherStall));
    }
    if (guard_ && slot.epoch != req.epoch) {
        // The head scan retired the slot past the publish leash while
        // we were stalled: our claim is void. Retire the Zombie (its
        // publisher is its only retirer) and reissue on the SDK path.
        if (slot.state == SlotState::Zombie)
            retireZombie(idx);
        return Claim::Lost;
    }
    return Claim::Won;
}

bool
HotQueue::publish(Request &req)
{
    Slot &slot = slots_[req.slot];
    if (guard_ && slot.epoch != req.epoch) {
        // Zombied during the marshalling advances (same recovery as a
        // voided claim, just later in the publish sequence).
        if (slot.state == SlotState::Zombie)
            retireZombie(req.slot);
        return false;
    }
    staging_[req.slot].callId = req.id;
    slot.state = SlotState::Ready;
    if (protocol_)
        protocol_->onPublish(static_cast<int>(req.slot));
    touchSlot(req.slot, true); // publish *data, call_ID, ready flag

    // More backlog than the active responders drain promptly: wake a
    // parked pool member (configless-style scale-up).
    if (pending() >= scaleUpDepth())
        onBusy(req);
    return true;
}

Cycles
HotQueue::reclaimHorizon(const Request &req, Cycles wait_start) const
{
    // A stale claim or a dispatched slot is never reclaimed; a grabbed
    // one only past the serving leash; a Ready one past the unserved
    // deadline, or past the leash of a grab still to come.
    const Slot &slot = slots_[req.slot];
    if (slot.epoch != req.epoch ||
        (slot.state == SlotState::Serving && slot.dispatched))
        return sim::kNever;
    if (slot.state == SlotState::Serving)
        return slot.servingSince + guard_->servingLeash() + 1;
    return std::min(Channel::reclaimHorizon(req, wait_start),
                    wait_start + guard_->servingLeash() + 1);
}

bool
HotQueue::reclaim(Request &req, Cycles wait_start)
{
    Slot &slot = slots_[req.slot];
    const Cycles now = machine_.now();
    if (slot.epoch != req.epoch)
        return false;
    const int idx = static_cast<int>(req.slot);
    if (slot.state == SlotState::Ready &&
        now - wait_start > guard_->unservedDeadline() &&
        guard_->responderLate(now)) {
        // Ready-reclaim: published, but no responder ever grabbed it
        // and none shows a heartbeat within the liveness window.
        // Retire the request and reissue it on the SDK path. The
        // Zombie is ownerless — the head scan retires it when the
        // consumer cursor reaches it.
        reclaimSlot(req.slot, true);
        if (protocol_)
            protocol_->onReclaimReady(idx);
        guard_->noteReclaimReady();
    } else if (slot.state == SlotState::Serving && !slot.dispatched &&
               now - slot.servingSince > guard_->servingLeash()) {
        // Serving-reclaim: grabbed, but the server never started
        // executing it (wedged mid-batch; a dispatched handler always
        // completes, so only undispatched grabs are reclaimable). The
        // epoch bump voids the wedge's grab, and a resumed server only
        // epoch-checks (never writes), so the Zombie is ownerless: the
        // server's stale-epoch path retires it if it resumes, and a
        // later claimer retires it if the wedge is permanent —
        // otherwise the hole would block the producer cursor forever
        // once the ring wraps to it.
        reclaimSlot(req.slot, true);
        if (protocol_)
            protocol_->onReclaimServing(idx);
        guard_->noteReclaimServing();
    } else {
        return false;
    }
    touchSlot(req.slot, true);
    return true;
}

void
HotQueue::release(Request &req)
{
    // Harvested: release the slot to the next producer.
    clearRequest(req.slot);
    slots_[req.slot].state = SlotState::Free;
    if (protocol_)
        protocol_->onHarvest(static_cast<int>(req.slot));
    touchSlot(req.slot, true);
}

void
HotQueue::onStagingRecycle(std::size_t index)
{
    if (protocol_)
        protocol_->onArenaRecycle(static_cast<int>(index));
}

void
HotQueue::onBusy(Request &req)
{
    // Grow the pool for the backlog (after a fallback: for the next
    // burst), with at most one successful scale-up wake per call.
    if (!req.woke)
        req.woke = wakeOneResponder(true);
}

void
HotQueue::clearRequest(std::size_t index)
{
    StagingSlot &request = staging_[index];
    request.callId = -1;
    request.ocall = nullptr;
    request.ecall = nullptr;
    request.usedArena = false;
}

void
HotQueue::reclaimSlot(std::size_t index, bool ownerless)
{
    Slot &slot = slots_[index];
    ++slot.epoch;
    slot.state = SlotState::Zombie;
    slot.ownerless = ownerless;
    clearRequest(index);
}

void
HotQueue::retireZombie(std::size_t index)
{
    Slot &slot = slots_[index];
    slot.state = SlotState::Free;
    clearRequest(index);
    slot.dispatched = false;
    slot.ownerless = false;
    if (protocol_)
        protocol_->onZombieRetire(static_cast<int>(index));
    if (guard_)
        guard_->noteZombieRetire();
    touchSlot(index, true);
}

int
HotQueue::tryServeBatch(bool cursor_read)
{
    if (!cursor_read)
        touch(tailLine_, false); // one producer-cursor read per poll
    if (pending() == 0)
        return 0;

    // Grab every contiguous Ready slot from the head in one go (no
    // time charged mid-grab on the healthy path: the acquisition is
    // atomic). Entries still Publishing stay for a later poll — FIFO
    // order holds. Under Sentinel the scan also clears reclamation
    // debris at the head: ownerless Zombies (Ready-reclaims — a
    // Serving-reclaim is also ownerless, but it sits behind the head
    // and is retired by the stale-epoch path or a wrapping claimer)
    // and Publishing slots wedged past the publish leash; each
    // retirement prices its slot line, and every iteration re-reads
    // the cursors/states, so the interleaving the charge allows stays
    // consistent.
    const int max_batch = config_.numSlots;
    struct Grab {
        std::size_t idx;
        std::uint64_t epoch;
    };
    std::vector<Grab> batch;
    batch.reserve(static_cast<std::size_t>(max_batch));
    bool head_moved = false;
    while (static_cast<int>(batch.size()) < max_batch &&
           head_ != tail_) {
        const std::size_t idx = head_ % slots_.size();
        Slot &slot = slots_[idx];
        if (guard_ && slot.state == SlotState::Zombie) {
            if (!slot.ownerless)
                break; // its publisher retires it; wait
            retireZombie(idx);
            ++head_;
            head_moved = true;
            continue;
        }
        if (guard_ && slot.state == SlotState::Publishing &&
            machine_.now() - slot.claimedAt >
                guard_->publishLeash()) {
            // The publisher wedged mid-marshalling: retire the slot
            // out from under it so the ring keeps rotating. The
            // publisher's epoch check turns its claim into an SDK
            // fallback and retires the Zombie.
            reclaimSlot(idx, false);
            if (protocol_)
                protocol_->onReclaimPublishing(static_cast<int>(idx));
            guard_->noteReclaimPublishing();
            touchSlot(idx, true);
            ++head_;
            head_moved = true;
            continue;
        }
        if (slot.state != SlotState::Ready)
            break;
        slot.state = SlotState::Serving;
        slot.servingSince = machine_.now();
        slot.dispatched = false;
        batch.push_back({idx, slot.epoch});
        ++head_;
        if (protocol_)
            protocol_->onGrab(static_cast<int>(idx));
    }
    if (batch.empty() && !head_moved)
        return 0;
    if (protocol_)
        protocol_->onCursors(head_, tail_);
    touch(headLine_, true); // cursor advance: one transfer for the batch
    if (batch.empty())
        return 0;
    ++stats_.batches;
    stats_.batchSize.add(batch.size());

    // Serve the whole batch before re-polling: the channel-line
    // coherence transfers above amortize over all k entries.
    auto *injector = machine_.fault();
    for (const Grab &grab : batch) {
        const std::size_t idx = grab.idx;
        Slot &slot = slots_[idx];
        touchSlot(idx, false); // read call_ID and *data
        if (injector &&
            injector->fire(fault::Site::SlotAbortServing)) {
            // Abort the run with this slot mid-Serving: the requester
            // spinning on it takes the abort exit, teardown copes
            // with a grabbed-but-never-completed entry.
            injector->requestStop();
            return static_cast<int>(batch.size());
        }
        if (injector && guard_ &&
            injector->fire(fault::Site::ResponderNeverWake)) {
            // Wedge for good with the rest of the batch undispatched:
            // requesters reclaim their Serving slots past the leash,
            // Sentinel quarantines and respawns.
            wedge([] { return false; });
            return static_cast<int>(batch.size());
        }
        // The epoch check and the dispatch commit are host-atomic (no
        // advance in between): a slot reclaimed while queued behind a
        // long batch is skipped as stale — its request pointers
        // dangle, its logical call already left on the SDK path — and
        // once dispatched the requester never reclaims it.
        if (guard_ && slot.epoch != grab.epoch) {
            guard_->noteStaleCompletion();
            if (slot.state == SlotState::Zombie)
                retireZombie(idx);
            continue;
        }
        slot.dispatched = true;
        serve(idx);
        slot.state = SlotState::Done;
        if (protocol_)
            protocol_->onComplete(static_cast<int>(idx));
        touchSlot(idx, true); // publish completion
        afterServe();
    }
    return static_cast<int>(batch.size());
}

bool
HotQueue::parkResponder(bool scale_event)
{
    poolMutex_.lock();
    // Re-check under the mutex: requesters enqueue before deciding
    // whether to wake, so a pending entry (or a stop request) we
    // would sleep through is visible here.
    if (stopRequested_ || pending() > 0 ||
        activeResponders() <= config_.minResponders) {
        poolMutex_.unlock();
        return false;
    }
    if (scale_event)
        ++stats_.scaleDowns;
    // The pool size decides whether a spin-parked responder's window
    // check acts: catch it up before the size changes.
    wakeParked();
    ++parked_;
    poolCond_.wait(poolMutex_);
    wakeParked();
    --parked_;
    poolMutex_.unlock();
    return true;
}

bool
HotQueue::wakeOneResponder(bool scale_event)
{
    if (parked_ == 0)
        return false;
    bool signalled = false;
    poolMutex_.lock();
    if (parked_ > 0) {
        poolCond_.signal();
        ++stats_.wakeups;
        if (scale_event)
            ++stats_.scaleUps;
        signalled = true;
    }
    poolMutex_.unlock();
    return signalled;
}

void
HotQueue::respawn()
{
    // The wedged fibers keep their pool entries (they exit on stop);
    // put a fresh responder on the next core in the rotation. The
    // quarantine probe confirms the recovery.
    const std::size_t i = responders_.size();
    CoreId core =
        config_.responderCores[i % config_.responderCores.size()];
    if (kind_ == Kind::HotEcall) {
        // The simulator allows one in-enclave fiber per core, and a
        // wedged trusted responder never eexits: the replacement must
        // land on a configured core currently outside the enclave.
        auto &platform = runtime_.platform();
        auto free_core = std::find_if(
            config_.responderCores.begin(), config_.responderCores.end(),
            [&](CoreId c) { return !platform.inEnclave(c); });
        if (free_core == config_.responderCores.end())
            return; // every configured core is wedged inside
        core = *free_core;
    }
    if (!guard_->respawnAllowed())
        return;
    wakeParked(); // the pool grows
    responders_.push_back(machine_.engine().spawn(
        name() + "-resp-r" + std::to_string(i), core,
        [this] { responderLoop(-1); }));
}

void
HotQueue::responderLoop(int index)
{
    auto &engine = machine_.engine();

    // A HotEcall responder parks inside the enclave with one
    // conventional ecall each and keeps polling from enclave mode.
    sgx::Tcs *tcs = nullptr;
    if (kind_ == Kind::HotEcall &&
        !(tcs = enterEnclave([] { return false; })))
        return;

    // Surplus pool members start parked; requesters wake them when
    // the backlog grows (not a scale-down event). Sentinel respawns
    // (index -1) replace a wedged worker: they start polling at once.
    if (index >= config_.minResponders)
        parkResponder(false);

    // Sliding occupancy window driving the scale-down decision. The
    // occupancy is measured in busy TIME, not busy polls: idle polls
    // are far shorter than served batches, so a poll-count fraction
    // would look idle even on a saturated ring.
    auto *injector = machine_.fault();
    Window window;
    window.start = machine_.now();
    // An idle poll of a responder the pool cannot shrink repeats
    // exactly until a requester touches the producer cursor, so it
    // parks on that line (SpinPark). A wake may land mid-poll:
    // `resume` is the block to continue at, 0 for a fresh poll.
    ResponderParker parker(*this, window);
    int resume = 0;
    for (;;) {
        if (resume == 0) {
            if (stopRequested_)
                break;
            ++stats_.responderPolls;
            if (guard_)
                guard_->heartbeat(machine_.now());
            if (injector && injector->fire(fault::Site::CursorStall)) {
                // The consumer cursor goes quiet for a while: the
                // ring fills, requesters hit the claim timeout and
                // fall back.
                engine.advance(
                    injector->delay(fault::Site::CursorStall));
            }
            window.pollStart = machine_.now();
        }
        const int served = tryServeBatch(resume != 0);
        resume = 0;
        ++window.polls;
        if (served > 0) {
            window.busy += machine_.now() - window.pollStart;
        } else {
            pauseJittered();
            // The poll repeats while the ring is empty, or while the
            // head slot is still being published: that slot's state
            // changes only with a touch of its own line, which the
            // parked responder watches too (and under Sentinel, the
            // head scan's publish leash bounds the replay).
            const Slot &head = slots_[head_ % slots_.size()];
            const bool publishing =
                pending() > 0 && head.state == SlotState::Publishing;
            if ((pending() == 0 || publishing) && !stopRequested_ &&
                activeResponders() <= config_.minResponders) {
                const Cycles limit =
                    publishing && guard_
                        ? head.claimedAt + guard_->publishLeash() + 1
                        : sim::kNever;
                resume = parker.park(limit, publishing ? head.line : 0);
                if (resume != 0)
                    continue; // the window check ran in the replay
            }
        }
        if (window.polls >= config_.scaleWindowPolls) {
            const Cycles elapsed = machine_.now() - window.start;
            const double busy_frac =
                elapsed > 0 ? static_cast<double>(window.busy) /
                                  static_cast<double>(elapsed)
                            : 0.0;
            window.polls = 0;
            window.busy = 0;
            if (busy_frac < kScaleDownOccupancy &&
                activeResponders() > config_.minResponders) {
                // Occupancy stayed low for a whole window: this
                // responder is surplus; park it until load returns.
                parkResponder(true);
            }
            // Fresh window — never spanning time spent parked.
            window.start = machine_.now();
        }
    }

    if (tcs)
        exitEnclave(tcs);
}

void
HotQueue::ResponderParker::replay(Cycles stop)
{
    // The window, the poll count and the beat are committed once: the
    // tops rise, so the last one is the beat polling would leave.
    Replay r(*this, stop);
    const std::uint64_t window_polls = queue_.config_.scaleWindowPolls;
    Window w = window_;
    std::uint64_t polls = 0;
    Cycles top = 0;
    int phase = 0;
    while (r.runs()) {
        // Window check of the previous poll: the pool cannot shrink
        // (it only parks while at its minimum, and a size change wakes
        // it), so the check only starts a fresh window. Then the poll
        // top: no stop (stop wakes the poller), heartbeat, cursor
        // read.
        if (w.polls >= window_polls) {
            w.polls = 0;
            w.busy = 0;
            w.start = r.t;
        }
        ++polls;
        top = r.t;
        w.pollStart = r.t;
        r.access(false);
        phase = 1;
        if (!r.runs())
            break;
        // Ring empty: count the poll, pause.
        ++w.polls;
        r.pause();
        phase = 0;
    }
    window_ = w;
    queue_.stats_.responderPolls += polls;
    if (polls > 0 && queue_.guard_)
        queue_.guard_->replayHeartbeat(top);
    r.finish(phase);
}

} // namespace hc::hotcalls

/**
 * @file
 * The channel core: requester envelope, staging, serve, teardown.
 */

#include "hotcalls/channel.hh"

#include <algorithm>

#include "check/check.hh"
#include "fault/fault.hh"
#include "sdk/spinlock.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace hc::hotcalls {

namespace {

/** Requester-side fixed glue (argument packing around the channel). */
constexpr Cycles kRequesterFixed = 95;
/** Responder-side fixed dispatch (call-table lookup, jump). */
constexpr Cycles kResponderFixed = 85;
/** Mean length of a responder scheduling hiccup. */
constexpr Cycles kHiccupMean = 230;

/** @return @p bytes rounded up to whole cache lines (0 stays 0). */
std::uint64_t
roundUpToLines(std::uint64_t bytes)
{
    return (bytes + kCacheLineSize - 1) / kCacheLineSize *
           kCacheLineSize;
}

} // anonymous namespace

bool
resolveFastPath(int config_value)
{
    if (config_value >= 0)
        return config_value != 0;
    return envFlagOr("HC_FASTPATH", true);
}

Channel::Channel(sdk::EnclaveRuntime &runtime, Kind kind,
                 const char *family, const ChannelConfig &config,
                 ChannelStats &stats, bool report_first)
    : runtime_(runtime), machine_(runtime.platform().machine()),
      kind_(kind), baseConfig_(config), baseStats_(stats),
      reportFirst_(report_first),
      name_(std::string(family) +
            (kind == Kind::HotEcall ? "-ecall" : "-ocall"))
{
}

Addr
Channel::allocLine()
{
    const Addr line =
        machine_.space().allocUntrusted(kCacheLineSize, kCacheLineSize);
    // Control lines are the protocol's atomics: their accesses order,
    // not race. The concrete channel's shadow validates transitions.
    if (auto *ck = machine_.check())
        ck->registerSyncWord(line);
    lines_.push_back(line);
    return line;
}

void
Channel::initChannel(std::size_t slots)
{
    if (auto *sentinel = machine_.guard())
        guard_ = &sentinel->adopt(name_, baseConfig_.timeout);
    fastOn_ = resolveFastPath(baseConfig_.fastPath);
    staging_.resize(slots);
    if (!fastOn_)
        return;
    const bool is_ocall = kind_ == Kind::HotOcall;
    const std::uint64_t inline_bytes =
        is_ocall ? roundUpToLines(baseConfig_.inlinePayloadBytes) : 0;
    auto *ck = machine_.check();
    for (auto &slot : staging_) {
        if (inline_bytes > 0) {
            // The slot's "own" payload lines: adjacent extra lines
            // whose transfers are covered by the control-line handoff
            // already priced (an inline call touches no other lines).
            slot.inlineArena = std::make_unique<mem::StagingArena>(
                machine_, mem::Domain::Untrusted, inline_bytes);
        }
        if (baseConfig_.arenaBytes > 0) {
            // HotEcall staging must live in enclave memory: the copy
            // out of untrusted caller buffers is the security step.
            slot.arena = std::make_unique<mem::StagingArena>(
                machine_,
                is_ocall ? mem::Domain::Untrusted : mem::Domain::Epc,
                baseConfig_.arenaBytes);
        }
        slot.staging.inlineArena = slot.inlineArena.get();
        slot.staging.spill = slot.arena.get();
        if (!ck)
            continue;
        // Arena lines order payload handoff, they do not race.
        for (auto *arena : {slot.inlineArena.get(), slot.arena.get()}) {
            for (std::uint64_t i = 0; arena && i < arena->lineCount(); ++i)
                ck->registerSyncWord(arena->base() + i * kCacheLineSize);
        }
    }
}

void
Channel::teardown()
{
    // stop() joins the responders; without it a still-polling
    // responder would touch the control lines after the frees below.
    stop();
    // Once Engine::run() has returned no fiber can ever execute
    // again, so even a stranded (not Done) responder cannot touch the
    // lines anymore: free them. Inside a still-running simulation a
    // responder that could not be joined (e.g. blocked inside an
    // ocall handler that never returns) may still hold them, so they
    // are deliberately leaked instead of pulled out from under it.
    bool all_done = true;
    for (sim::Thread *responder : responders_)
        all_done &= responder->state() == sim::ThreadState::Done;
    if (all_done || machine_.engine().currentThread() == nullptr) {
        for (Addr line : lines_)
            machine_.space().free(line);
        return; // the arenas free themselves with staging_
    }
    auto *ck = machine_.check();
    if (!ck)
        return;
    const std::string why =
        name_ + " line held by an unjoinable responder";
    for (Addr line : lines_)
        ck->registerDeliberateLeak(line, why);
    // The arenas share the lines' fate: an unjoinable responder may
    // still be serving out of them.
    for (auto &slot : staging_) {
        for (auto *arena : {slot.inlineArena.get(), slot.arena.get()}) {
            if (!arena || !arena->base())
                continue;
            ck->registerDeliberateLeak(arena->base(), why);
            arena->leak();
        }
    }
}

void
Channel::joinResponders()
{
    // The wait is bounded per responder: one stuck inside a blocking
    // ocall handler (no more traffic will ever arrive) must not
    // livelock teardown.
    constexpr Cycles kJoinGrace = 2'000'000;
    constexpr Cycles kJoinStep = 500;
    auto &engine = machine_.engine();
    for (sim::Thread *responder : responders_) {
        for (Cycles waited = 0;
             responder->state() != sim::ThreadState::Done &&
             !engine.stopRequested() && waited < kJoinGrace;
             waited += kJoinStep) {
            engine.advance(kJoinStep);
        }
        if (responder->state() == sim::ThreadState::Done) {
            if (auto *ck = machine_.check())
                ck->joinEdge(responder);
        }
    }
}

void
Channel::stop()
{
    if (stopped_)
        return;
    // Parked responders replay up to here before they can see the
    // stop request.
    wakeParked();
    stopRequested_ = true;
    auto &engine = machine_.engine();
    Cycles now = 0;
    if (auto *current = sim::Engine::current();
        current && current->currentThread()) {
        wakeResponders();
        joinResponders();
        if (guard_)
            afterJoin();
        now = machine_.now();
    } else {
        // Outside the simulation nothing can still run and there is
        // no join to wait for; the run ended at the latest core clock
        // (now() reads 0 outside a fiber).
        for (CoreId core = 0; core < engine.numCores(); ++core)
            now = std::max(now, engine.coreNow(core));
    }
    if (guard_) {
        guard_->flush(now);
        mirrorDegraded(now);
    }
    stopped_ = true;
}

std::uint64_t
Channel::call(const std::string &name, const edl::Args &args)
{
    const int id = kind_ == Kind::HotOcall ? runtime_.ocallId(name)
                                           : runtime_.ecallId(name);
    return call(id, args);
}

std::uint64_t
Channel::call(int id, const edl::Args &args)
{
    hc_assert(!responders_.empty());
    auto &engine = machine_.engine();
    if (kind_ == Kind::HotOcall &&
        !runtime_.platform().inEnclave(machine_.currentCore())) {
        throw sgx::SgxFault("HotOcall issued outside enclave mode");
    }

    // Sentinel routing: a quarantined channel sheds straight to the
    // SDK with zero spin waste (counted as a fallback that spent no
    // attempts), except for one scheduled probe per backoff interval.
    Request req{id, args};
    if (guard_) {
        const auto route = guard_->route(machine_.now());
        if (route == guard::ChannelGuard::Route::Shed) {
            ++baseStats_.fallbacks;
            ++baseStats_.degradedCalls;
            guard_->onShed(machine_.now());
            mirrorDegraded(machine_.now());
            return sdkCall(id, args);
        }
        req.probing = route == guard::ChannelGuard::Route::Probe;
    }

    engine.advance(kRequesterFixed);
    req.start = machine_.now();

    auto *injector = machine_.fault();
    // The claim budget: the configured fixed value on the healthy
    // path (bit-identical to the pre-Sentinel channel — the budget
    // only matters at exhaustion, which implies a fallback), widened
    // from the latency estimate once the channel looks distressed.
    if (guard_)
        wakeParked(); // the budget reads the responders' heartbeat
    const int budget = guard_ ? guard_->attemptBudget(req.start)
                              : baseConfig_.timeout.timeoutTries;
    for (; req.attempt < budget; ++req.attempt) {
        if (injector &&
            injector->fire(fault::Site::RequesterAttempt)) {
            // Forced expiry: behave exactly as if the claim failed.
            ++baseStats_.timeoutAttempts;
            onBusy(req);
            engine.advance(sdk::kPauseCycles +
                           injector->delay(fault::Site::RequesterAttempt));
            continue;
        }
        switch (claim(req)) {
            case Claim::Busy:
                ++baseStats_.timeoutAttempts;
                onBusy(req);
                pauseJittered();
                continue;
            case Claim::Aborted:
                ++baseStats_.aborts;
                return 0;
            case Claim::Lost:
                return fallbackToSdk(req);
            case Claim::Won:
                break;
        }

        // The channel is ours. Marshal the data (a HotOcall requester
        // runs the same edger8r-generated trusted wrapper the SDK
        // would, Section 4.2/5), then publish and signal.
        stage(req);
        if (!publish(req))
            return fallbackToSdk(req);

        // Wait for completion: the responder signals once it has
        // executed the call and filled the response. Once the engine
        // is unwinding no responder ever will, and when this
        // requester is the only runnable fiber left the spin would
        // keep the host alive forever — bail out instead, like the
        // bounded join in stop().
        //
        // While the request is outstanding each poll is the same owned
        // hit and the same observation, so the requester parks on the
        // line instead (SpinPark), up to the earliest clock a reclaim
        // could fire.
        const Cycles wait_start = machine_.now();
        RequesterParker parker(*this, completionLine(req));
        for (int resume = 0;;
             resume = parker.park(guard_ ? reclaimHorizon(req, wait_start)
                                         : sim::kNever)) {
            if (resume == 0)
                touch(completionLine(req), false);
            if (isCompleted(req))
                break;
            if (injector)
                injector->pollStop(); // time-based abort backstop
            if (engine.stopRequested()) {
                ++baseStats_.aborts;
                onAbort(req);
                return 0;
            }
            // Before the horizon reclaim() is false by construction;
            // past it, it reads the responders' heartbeats.
            if (guard_ &&
                machine_.now() >= reclaimHorizon(req, wait_start)) {
                wakeParked();
                if (reclaim(req, wait_start))
                    return fallbackToSdk(req);
            }
            pauseJittered();
        }

        // Harvest. A fast call copies its results out of the slot
        // staging before the slot is released: the arenas (and the
        // recycled scratch) belong to the next claimant from then on.
        std::uint64_t retval = 0;
        if (reportFirst_)
            noteSuccess(req);
        if (req.fast) {
            StagingSlot &slot = staging_[req.slot];
            if (slot.usedArena)
                touchArena(req.slot, false); // read the results back
            runtime_.marshaller().finishOcallFast(slot.scratch);
            retval = slot.scratch.retval();
        }
        release(req);
        if (!reportFirst_)
            noteSuccess(req);
        if (req.fast)
            return retval;
        if (kind_ == Kind::HotEcall)
            return req.retval;
        // Back "inside": copy out-buffers into the enclave.
        runtime_.marshaller().finishOcall(req.staged);
        return req.staged.retval();
    }

    // The claim budget expired: fall back to the conventional SDK
    // call (Section 4.2, "Preventing starvation").
    return fallbackToSdk(req, true);
}

void
Channel::stage(Request &req)
{
    StagingSlot &slot = staging_[req.slot];
    if (kind_ == Kind::HotEcall) {
        // The trusted responder stages (copy-in) inside the enclave.
        slot.ecall = &req;
        return;
    }
    auto &marshaller = runtime_.marshaller();
    const auto &fn =
        runtime_.edlFile().untrusted[static_cast<std::size_t>(req.id)];
    // Scalar-only functions stage nothing: the legacy path is already
    // copy-free and charge-free for them, so the fast plane only
    // engages when payload moves.
    req.fast = fastOn_ && marshaller.plan(fn).anyCopy;
    if (!req.fast) {
        req.staged = marshaller.stageOcall(fn, req.args);
        slot.ocall = &req.staged;
        return;
    }
    // Recycling the slot staging is legal exactly here: the claim
    // makes the slot ours until release().
    onStagingRecycle(req.slot);
    marshaller.stageOcallFast(marshaller.plan(fn), req.args,
                              slot.staging, slot.scratch);
    slot.usedArena = slot.staging.usedSpill;
    if (slot.usedArena)
        touchArena(req.slot, true); // hand the payload lines over
    countPlacement(slot.staging);
    slot.ocall = &slot.scratch;
}

void
Channel::serve(std::size_t index)
{
    StagingSlot &slot = staging_[index];
    const Cycles start = machine_.now();
    machine_.engine().advance(kResponderFixed);

    if (kind_ == Kind::HotOcall) {
        hc_assert(slot.ocall);
        const bool arena_handoff = fastOn_ && slot.usedArena;
        if (arena_handoff)
            touchArena(index, false); // pull the spilled payload lines
        runtime_.dispatchOcallDirect(slot.callId, *slot.ocall);
        if (arena_handoff)
            touchArena(index, true); // results written back to arena
    } else {
        // HotEcall: the trusted responder runs the original
        // edger8r-style wrapper — staging (copy-in), the trusted
        // function, and copy-out all execute inside the enclave.
        hc_assert(slot.ecall);
        const auto &fn = runtime_.edlFile()
                             .trusted[static_cast<std::size_t>(slot.callId)];
        auto &marshaller = runtime_.marshaller();
        if (fastOn_ && marshaller.plan(fn).anyCopy) {
            // FastPath: stage into the slot's recycled EPC arena. The
            // slot is the responder's while serving, and the whole
            // round trip completes before the completion is signalled.
            onStagingRecycle(index);
            marshaller.stageEcallFast(marshaller.plan(fn),
                                      slot.ecall->args, slot.staging,
                                      slot.scratch);
            countPlacement(slot.staging);
            runtime_.dispatchEcallDirect(slot.callId, slot.scratch);
            marshaller.finishEcallFast(slot.scratch);
            slot.ecall->retval = slot.scratch.retval();
        } else {
            auto staged = marshaller.stageEcall(fn, slot.ecall->args);
            runtime_.dispatchEcallDirect(slot.callId, staged);
            marshaller.finishEcall(staged);
            slot.ecall->retval = staged.retval();
        }
    }

    baseStats_.responderBusyCycles += machine_.now() - start;
}

sgx::Tcs *
Channel::enterEnclave(const std::function<bool()> &retired)
{
    auto &engine = machine_.engine();
    auto &platform = runtime_.platform();
    // A Sentinel respawn may land while another fiber still holds
    // this core's enclave context (a retired predecessor eexits as
    // soon as it observes its retirement): wait for the core to
    // clear — the simulator allows one in-enclave fiber per core.
    auto quit = [&] {
        return stopRequested_ || engine.stopRequested() || retired();
    };
    while (platform.inEnclave(machine_.currentCore()) && !quit()) {
        engine.advance(sdk::kPauseCycles);
        engine.yield();
    }
    if (quit())
        return nullptr;
    platform.chargeStage(platform.params().sdkEcallSoftware,
                         runtime_.enclave().untrustedCtxLines(), false);
    // Under heavy fallback traffic every TCS may momentarily be taken
    // by conventional ecalls; wait for one politely.
    sgx::Tcs *tcs = nullptr;
    while (!(tcs = runtime_.enclave().acquireTcs())) {
        engine.advance(sdk::kPauseCycles);
        engine.yield();
    }
    platform.eenter(runtime_.enclave(), *tcs);
    return tcs;
}

void
Channel::exitEnclave(sgx::Tcs *tcs)
{
    runtime_.platform().eexit();
    runtime_.enclave().releaseTcs(tcs);
}

void
Channel::wedge(const std::function<bool()> &retired)
{
    auto &engine = machine_.engine();
    while (!stopRequested_ && !engine.stopRequested() && !retired()) {
        machine_.fault()->pollStop();
        engine.advance(sdk::kPauseCycles * 16);
        engine.yield();
    }
}

void
Channel::afterServe()
{
    if (guard_)
        guard_->heartbeat(machine_.now());
    auto &rng = machine_.engine().currentThread()->rng();
    if (rng.chance(baseConfig_.hiccupChance)) {
        machine_.engine().advance(static_cast<Cycles>(
            rng.nextExponential(static_cast<double>(kHiccupMean))));
    }
}

void
Channel::pauseJittered()
{
    auto &engine = machine_.engine();
    engine.advance(pollPause(engine.currentThread()->rng()));
}

void
Channel::wakeParked() const
{
    // wake() drops each poller from the list.
    while (!parkedPollers_.empty())
        machine_.engine().unpark(*parkedPollers_.back());
}

Cycles
Channel::reclaimHorizon(const Request &, Cycles wait_start) const
{
    // Every reclaim first needs the wait past the unserved deadline,
    // which never drops below the policy's minimum.
    return wait_start + guard_->policy().minUnservedWait + 1;
}

int
Channel::PollParker::park(Cycles limit, Addr also_watch)
{
    auto &machine = channel_.machine_;
    auto &engine = machine.engine();
    self_ = engine.currentThread();
    if (!engine.spinParkEnabled() || machine.fault() ||
        !machine.memory().cache().ownedBy(line_, self_->core()))
        return 0;
    // A block whose advance could reach the next interrupt must run
    // for real: the interrupt handler draws from the master stream.
    const Cycles interrupt = engine.nextInterruptAt(self_->core());
    const Cycles max_step =
        machine.memory().params().ownedHit + kMaxPollPause;
    if (interrupt != sim::kNever)
        limit = std::min(limit, interrupt > max_step ? interrupt - max_step
                                                     : 0);
    clock_ = machine.now();
    limit_ = limit;
    phase_ = 0;
    check_ = machine.check();
    hitCost_ = machine.memory().pollHitCost(line_);
    alsoWatch_ = also_watch;
    watchCount = also_watch ? 2 : 1;
    auto &cache = machine.memory().cache();
    watchKeys[0] = cache.watchSet(line_);
    if (also_watch)
        watchKeys[1] = cache.watchSet(also_watch);
    auto &parked = channel_.parkedPollers_;
    parked.push_back(this);
    if (!engine.park(*this, limit)) {
        parked.pop_back();
        unwatch();
        return 0;
    }
    return phase_;
}

Cycles
Channel::PollParker::wake(Cycles time, CoreId core)
{
    // Replay every block the scheduler would have run before the
    // boundary: earlier clock, or the same clock on a lower core, and
    // never at or past the limit.
    const bool first_on_tie = self_->core() < core;
    replay(first_on_tie && time < limit_ ? time + 1
                                         : std::min(time, limit_));
    // Nothing touched the cache since the park, so the replayed hits
    // apply in one batch.
    if (accesses_ > 0) {
        channel_.machine_.memory().cache().replayOwnedHits(
            self_->core(), line_, accesses_, anyWrite_);
    }
    unwatch();
    auto &parked = channel_.parkedPollers_;
    parked.erase(std::find(parked.begin(), parked.end(), this));
    return clock_;
}

void
Channel::PollParker::unwatch()
{
    auto &cache = channel_.machine_.memory().cache();
    cache.unwatchSet(line_);
    if (alsoWatch_)
        cache.unwatchSet(alsoWatch_);
}

void
Channel::PollParker::checkAccess(bool write)
{
    check_->onWordAccessBy(self_, line_, write);
}

void
Channel::RequesterParker::replay(Cycles stop)
{
    // Block 0 polls the line; block 1 observes "not done", finds no
    // stop (stop wakes the poller) and no reclaim (the limit stays
    // before reclaimHorizon()), then pauses.
    Replay r(*this, stop);
    int phase = 0;
    while (r.runs()) {
        r.access(false);
        phase = 1;
        if (!r.runs())
            break;
        r.pause();
        phase = 0;
    }
    r.finish(phase);
}

void
Channel::touchArena(std::size_t index, bool write)
{
    machine_.memory().accessWord(staging_[index].arena->base(), write);
}

std::uint64_t
Channel::fallbackToSdk(Request &req, bool exhausted)
{
    ++baseStats_.fallbacks;
    if (guard_) {
        wakeParked(); // responderLate() reads their heartbeats
        // Respawn only when the responders are provably wedged (no
        // heartbeat within the liveness window): a quarantine caused
        // by sheer overload is not cured by killing or adding workers.
        if (guard_->onFallback(machine_.now(), req.probing) &&
            guard_->config().respawn &&
            guard_->responderLate(machine_.now()))
            respawn();
        mirrorDegraded(machine_.now());
    }
    if (exhausted)
        onBusy(req); // before the SDK call: it charges time
    return sdkCall(req.id, req.args);
}

std::uint64_t
Channel::sdkCall(int id, const edl::Args &args)
{
    return kind_ == Kind::HotOcall ? runtime_.ocall(id, args)
                                   : runtime_.ecall(id, args);
}

void
Channel::noteSuccess(const Request &req)
{
    ++baseStats_.calls;
    if (guard_) {
        guard_->onSuccess(machine_.now(), machine_.now() - req.start,
                          req.attempt, req.probing);
        mirrorDegraded(machine_.now());
    }
}

void
Channel::countPlacement(const edl::FastStaging &staging)
{
    ++baseStats_.fastCalls;
    if (staging.usedInline)
        ++baseStats_.inlineStaged;
    if (staging.usedSpill)
        ++baseStats_.arenaStaged;
    if (staging.usedHeap)
        ++baseStats_.heapStaged;
}

void
Channel::mirrorDegraded(Cycles now)
{
    baseStats_.degradedCycles = guard_->degradedCycles(now);
}

} // namespace hc::hotcalls

/**
 * @file
 * HotCalls: the paper's fast enclave interface (Section 4).
 *
 * Instead of paying an 8,200-17,000-cycle secure context switch per
 * call, a *requester* and a *responder* communicate through a shared
 * cache line in unencrypted memory, synchronized by a spin lock. The
 * responder is a dedicated "on call" thread continuously polling the
 * line (with PAUSE between attempts); the requester takes the lock,
 * checks that the responder is free, publishes the call id and data
 * pointer, signals "go", and spins on "done".
 *
 * Two services exist:
 *  - HotOcall: the enclave is the requester, an untrusted thread is
 *    the responder (replacing SDK ocalls). Marshalling runs in the
 *    trusted requester — *the same edger8r-generated code* the SDK
 *    uses (Sections 4.2, 5) — so the security properties carry over.
 *  - HotEcall: the untrusted side is the requester; the responder is
 *    a thread parked inside the enclave via a single conventional
 *    ecall, polling the shared line from enclave mode.
 *
 * The requester envelope, staging and fallback live in the channel
 * core (channel.hh); this file keeps only the single-line signalling
 * protocol: the lock word, the busy flag and the staging claim, the
 * Sentinel abandon/discard extension, and the Section 4.2 idle-sleep
 * mode in which the responder parks on a condition variable and the
 * requester wakes it before publishing.
 */

#ifndef HC_HOTCALLS_HOTCALL_HH
#define HC_HOTCALLS_HOTCALL_HH

#include <cstdint>
#include <memory>

#include "check/check.hh"
#include "hotcalls/channel.hh"
#include "sdk/thread_sync.hh"

namespace hc::hotcalls {

/** Single-line tunables (paper Section 4.2). */
struct HotCallConfig : ChannelConfig {
    /** Enable responder idle sleep on a condition variable. */
    bool responderSleep = false;
    /** Empty polls before the responder goes to sleep. */
    std::uint64_t idlePollsBeforeSleep = 100'000;
};

/** Run statistics of a HotCall service. */
struct HotCallStats : ChannelStats {
    std::uint64_t responderSleeps = 0;
};

/**
 * One HotCall service: a shared channel plus its responder thread.
 */
class HotCallService : public Channel
{
  public:
    /**
     * @param runtime         enclave runtime whose edge functions are
     *                        served
     * @param kind            HotEcall or HotOcall
     * @param responder_core  logical core the On Call thread occupies
     * @param config          tunables
     */
    HotCallService(sdk::EnclaveRuntime &runtime, Kind kind,
                   CoreId responder_core, HotCallConfig config = {});

    ~HotCallService() override;

    /** Spawn the responder thread (must be called before call()). */
    void start() override;

    /** Parked responders are caught up first (their polls count). */
    const HotCallStats &stats() const
    {
        wakeParked();
        return stats_;
    }
    const HotCallConfig &config() const { return config_; }

  private:
    Claim claim(Request &req) override;
    bool publish(Request &req) override;
    Addr completionLine(const Request &) const override
    {
        return channelLine_;
    }
    bool isCompleted(const Request &) const override { return !go_; }
    Cycles reclaimHorizon(const Request &req,
                          Cycles wait_start) const override
    {
        // A request a responder committed to is never abandoned.
        return requestServed_ ? sim::kNever
                              : Channel::reclaimHorizon(req, wait_start);
    }
    bool reclaim(Request &req, Cycles wait_start) override;
    void release(Request &req) override;
    void onAbort(Request &req) override;
    void respawn() override;
    void wakeResponders() override;
    void afterJoin() override;

    /** The idle responder poll: take the lock (one RFO), find the
     *  busy flag clear, release the lock, pause. */
    class ResponderParker final : public PollParker
    {
      public:
        ResponderParker(HotCallService &service,
                        std::uint64_t &idle_polls)
            : PollParker(service, service.channelLine_),
              service_(service), idlePolls_(idle_polls)
        {
        }

      protected:
        void replay(Cycles stop) override;

      private:
        HotCallService &service_;
        std::uint64_t &idlePolls_;
    };

    /** Spawn a responder for the current epoch. */
    void spawnResponder(const std::string &name);

    /** The responder thread body (@p epoch: retirement generation —
     *  the loop exits once a respawn supersedes it). */
    void responderLoop(std::uint64_t epoch);

    /** Drop the staging claim of a fast call nobody will harvest. */
    void dropStagingClaim(const Request &req);

    /** Take / release (one priced RFO) the spin-lock word. */
    void lockChannel();
    void unlockChannel();

    /** One priced access to the shared channel line. */
    void touchChannel(bool write) { touch(channelLine_, write); }

    CoreId responderCore_;
    HotCallConfig config_;
    HotCallStats stats_;

    // ------------------------------------------------------------------
    // The shared channel, as in the paper's Figure 9. All control
    // fields live on one simulated cache line in untrusted memory
    // (touchChannel prices every access); the host-side fields below
    // carry the functional state, and the single staging slot holds
    // call_ID and the *data pointer. Completion is signalled by the
    // responder clearing the busy/"go" flag after executing the call.
    // ------------------------------------------------------------------

    Addr channelLine_ = 0;
    bool lockWord_ = false;    //!< the sgx_spin_lock word
    bool go_ = false;          //!< responder busy / request published
    bool sleeping_ = false;    //!< responder parked on the condvar
    /** Sentinel protocol extensions, conceptually on the same line.
     *  served: the responder committed to the published request (set
     *  host-atomically with its go_ re-check, so a request is either
     *  discarded or served, never both). abandoned: the publisher
     *  gave up waiting; the channel stays poisoned (go_ held) until a
     *  responder discards the stale request. */
    bool requestServed_ = false;
    bool abandoned_ = false;
    /** FastPath staging claimed: set and cleared by the requester
     *  that staged into the slot, so a second requester cannot
     *  recycle the arenas before the first one has copied its results
     *  back out (go_ alone drops too early: it clears when the
     *  responder finishes, not when the requester is done
     *  harvesting). */
    bool slotBusy_ = false;

    sdk::SgxThreadMutex sleepMutex_;
    sdk::SgxThreadCond sleepCond_;

    /** Retirement generation: a Sentinel respawn bumps it and the
     *  superseded fibers exit at their next retirement check. The
     *  live responder is responders_.front(); retired ones follow in
     *  retirement order (the join order). */
    std::uint64_t responderEpoch_ = 0;

    /** Shadow state machine when the Machine's checker is on. */
    std::unique_ptr<check::HotCallProtocol> protocol_;
};

} // namespace hc::hotcalls

#endif // HC_HOTCALLS_HOTCALL_HH

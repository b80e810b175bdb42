/**
 * @file
 * The channel core shared by both HotCall channels.
 *
 * The paper's HotCall (Section 4.2, Figure 9) is one requester
 * protocol: claim the channel within a spin budget, marshal with the
 * SDK's own edger8r-generated code, publish, spin on completion, and
 * fall back to the conventional SDK call on timeout. The single-line
 * HotCallService (hotcall.hh) and the multi-slot HotQueue
 * (hotqueue.hh) differ only in how a request is signalled, which
 * they plug into Channel through the claim/publish/completed/
 * reclaim/release hooks; Channel implements everything else once.
 */

#ifndef HC_HOTCALLS_CHANNEL_HH
#define HC_HOTCALLS_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "guard/guard.hh"
#include "mem/arena.hh"
#include "sdk/runtime.hh"
#include "sdk/spinlock.hh"
#include "support/rng.hh"

namespace hc::hotcalls {

/** Small per-poll jitter bound (pipeline/branch variation). */
constexpr Cycles kPollJitter = 22;
/** The longest pollPause(). */
constexpr Cycles kMaxPollPause = sdk::kPauseCycles + kPollJitter;

/** One poll's PAUSE plus its jitter, drawn from the polling thread's
 *  stream @p rng. The live poll loops and the SpinPark replay both
 *  draw here, so a replayed poll cannot drift from a polled one. */
inline Cycles
pollPause(Rng &rng)
{
    return sdk::kPauseCycles + rng.nextBelow(kPollJitter + 1);
}

/** Which direction a channel accelerates. */
enum class Kind {
    HotEcall, //!< untrusted requester -> trusted responder
    HotOcall, //!< trusted requester -> untrusted responder
};

/**
 * Resolve a channel's FastPath switch: an explicit config value (0 or
 * 1) wins; -1 consults the HC_FASTPATH environment variable and
 * defaults to ON for hot channels. With the switch off a channel is
 * bit-identical to the pre-FastPath implementation (same allocations,
 * same charges, same RNG draws).
 */
bool resolveFastPath(int config_value);

/** Tunables common to both channels (paper Section 4.2). */
struct ChannelConfig {
    /** Timeout policy (shared with the porting layer): the fixed
     *  claim budget plus Sentinel's adaptive-budget and
     *  reclaim-deadline knobs (guard/guard.hh). */
    guard::TimeoutPolicy timeout;
    /** Probability of a scheduling hiccup on the responder per
     *  handled call (TLB shootdowns, SMIs, ...); feeds the CDF tail. */
    double hiccupChance = 0.012;
    /** FastPath data plane switch: -1 = auto (HC_FASTPATH env,
     *  default on), 0 = off (legacy marshalling, bit-identical to
     *  the pre-FastPath channel), 1 = on. */
    int fastPath = -1;
    /** Payload bytes carried inline in the staging slot's own lines
     *  next to the channel (rounded up to whole cache lines); 0
     *  disables inline staging. Applies to HotOcall only: HotEcall
     *  staging must live in enclave memory, not in the shared
     *  (untrusted) channel lines. */
    std::uint64_t inlinePayloadBytes = 64;
    /** Spill-arena capacity per staging slot; 0 disables (oversized
     *  payloads go straight to the legacy heap staging). */
    std::uint64_t arenaBytes = 4096;
};

/** Run statistics common to both channels. */
struct ChannelStats {
    std::uint64_t calls = 0;     //!< completed via the channel
    std::uint64_t fallbacks = 0; //!< timed out -> SDK path (counted
                                 //!< once per logical call, however
                                 //!< many attempts expired)
    std::uint64_t aborts = 0;    //!< completion wait cut short by stop
    std::uint64_t timeoutAttempts = 0; //!< individual expired attempts
    std::uint64_t responderPolls = 0;
    std::uint64_t wakeups = 0;      //!< parked-responder signals
    Cycles responderBusyCycles = 0; //!< time inside handlers
    // FastPath staging placement (calls that staged any payload).
    std::uint64_t fastCalls = 0;    //!< staged via the fast plane
    std::uint64_t inlineStaged = 0; //!< used the inline slot lines
    std::uint64_t arenaStaged = 0;  //!< used the spill arena
    std::uint64_t heapStaged = 0;   //!< spilled past the arena to heap
    // Sentinel quarantine (guard/guard.hh). Degraded calls also count
    // as fallbacks (they took the SDK path) but spend zero attempts.
    std::uint64_t degradedCalls = 0; //!< shed straight to the SDK
    Cycles degradedCycles = 0;       //!< time spent quarantined
};

/**
 * A fast-call channel: the paper's single-line HotCallService and the
 * multi-slot HotQueue are drop-in alternatives behind it, so callers
 * (the porting layer, the apps) switch implementations by
 * construction only.
 */
class Channel
{
  public:
    virtual ~Channel() = default;
    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Spawn the responder side (must be called before call()). */
    virtual void start() = 0;

    /**
     * Ask the responders to exit and (when invoked from a simulated
     * thread) wait until they have, so the channel lines can be
     * released safely afterwards. Idempotent.
     */
    void stop();

    /**
     * Issue a call through the channel. For HotOcall this must run
     * inside the enclave (like EnclaveRuntime::ocall); for HotEcall
     * outside. Falls back to the conventional SDK call when the
     * channel cannot take it within the claim budget.
     * @return the callee's scalar return value
     */
    std::uint64_t call(int id, const edl::Args &args);

    /** Name-resolving convenience overload. */
    std::uint64_t call(const std::string &name, const edl::Args &args);

    Kind kind() const { return kind_; }

    /** @return the channel's Sentinel guard, or null (guard off).
     *  Parked responders are caught up first: their heartbeats are
     *  part of what the guard reports. */
    const guard::ChannelGuard *guard() const
    {
        wakeParked();
        return guard_;
    }

  protected:
    /** One logical call's requester state (on the requester stack). */
    struct Request {
        int id;
        const edl::Args &args;
        bool probing = false;    //!< Sentinel quarantine probe
        Cycles start = 0;        //!< latency anchor (after the glue)
        int attempt = 0;         //!< failed claim attempts so far
        std::size_t slot = 0;    //!< claimed staging slot
        std::uint64_t epoch = 0; //!< claim generation (ring reclaim)
        bool woke = false;       //!< ring: a scale-up wake succeeded
        bool fast = false;       //!< ocall staged via the fast plane
        edl::StagedCall staged{}; //!< legacy ocall staging
        std::uint64_t retval = 0; //!< HotEcall result (responder-set)
    };

    /**
     * One in-flight request's staging: the request a responder reads
     * plus the FastPath arenas, recycled across the calls that pass
     * through the slot (never reallocated per call).
     */
    struct StagingSlot {
        int callId = -1;
        edl::StagedCall *ocall = nullptr; //!< the *data pointer
        Request *ecall = nullptr;
        std::unique_ptr<mem::StagingArena> inlineArena;
        std::unique_ptr<mem::StagingArena> arena;
        edl::FastStaging staging;
        edl::StagedCall scratch; //!< recycled in place of stack staging
        bool usedArena = false;  //!< in-flight call staged into arena
    };

    /**
     * An idle poll loop parked with sim::Engine::park(). While parked
     * every poll repeats exactly, so wake() replays the skipped ones
     * in one call of the concrete parker's replay() kernel.
     */
    class PollParker : public sim::SpinPoller
    {
      public:
        /** @param line  the control line the loop polls */
        PollParker(Channel &channel, Addr line)
            : channel_(channel), line_(line)
        {
        }

        /**
         * Park the calling thread at the start of block 0, unless
         * parking is off, a FaultInjector is installed, or the line
         * is not the caller's own (a poll would not be a pure
         * repeat). Replay never reaches @p limit (exclusive) nor the
         * core's next interrupt. @p also_watch (0: none) is a line
         * whose state the poll reads without touching it; every
         * change to it comes with a touch of that line.
         * @return the block to resume at: 0 (also when it did not
         *         park) or a mid-poll block whose predecessors were
         *         replayed
         */
        int park(Cycles limit, Addr also_watch = 0);

        Cycles wake(Cycles time, CoreId core) final;

      protected:
        /**
         * One wake's replay, on local copies of the clock, the
         * thread's RNG and the replayed-access count: nothing the
         * kernel loop updates aliases memory, so it stays in
         * registers. finish() commits it once.
         */
        class Replay
        {
          public:
            Replay(PollParker &parker, Cycles stop)
                : t(parker.clock_), parker_(parker), stop_(stop),
                  hit_(parker.hitCost_), rng_(parker.self_->rng()),
                  checked_(parker.check_ != nullptr)
            {
            }

            /** @return true when the block at clock t is replayed. */
            bool runs() const { return t < stop_; }

            /** A replayed poll access of the watched line. */
            void access(bool write)
            {
                ++accesses_;
                written_ = written_ || write;
                // The race detector sees each replayed access, in
                // order.
                if (checked_)
                    parker_.checkAccess(write);
                t += hit_;
            }

            /** A replayed pollPause(). */
            void pause() { t += pollPause(rng_); }

            /** Commit the replay; the poll resumes at block
             *  @p phase (0: a fresh poll). */
            void finish(int phase)
            {
                parker_.self_->rng() = rng_;
                parker_.clock_ = t;
                parker_.phase_ = phase;
                parker_.accesses_ = accesses_;
                parker_.anyWrite_ = written_;
            }

            Cycles t; //!< clock of the next block

          private:
            PollParker &parker_;
            const Cycles stop_;
            const Cycles hit_;
            Rng rng_;
            const bool checked_;
            std::uint64_t accesses_ = 0;
            bool written_ = false;
        };

        /**
         * The kernel: replay, through a Replay, every block before
         * clock @p stop from block 0 of a poll at the park clock,
         * then commit the loop's own state once.
         */
        virtual void replay(Cycles stop) = 0;

        /** The parked thread. */
        sim::Thread &self() { return *self_; }

      private:
        void unwatch();
        /** Report one replayed access to SimCheck. */
        void checkAccess(bool write);

        Channel &channel_;
        const Addr line_;
        Addr alsoWatch_ = 0;
        sim::Thread *self_ = nullptr;
        check::SimCheck *check_ = nullptr;
        Cycles hitCost_ = 0;    //!< one replayed access
        std::uint64_t accesses_ = 0; //!< replayed, not yet applied
        bool anyWrite_ = false;
        Cycles clock_ = 0;
        Cycles limit_ = 0;
        int phase_ = 0;
    };

    /** The requester's completion wait: poll, then observe and
     *  pause. */
    class RequesterParker final : public PollParker
    {
      public:
        RequesterParker(Channel &channel, Addr line)
            : PollParker(channel, line)
        {
        }

      protected:
        void replay(Cycles stop) override;
    };

    /** Outcome of one claim attempt. */
    enum class Claim {
        Won,     //!< the channel is ours: stage and publish
        Busy,    //!< expired attempt: pause and retry within budget
        Aborted, //!< the run is being torn down: return 0
        Lost,    //!< claim voided by Sentinel: reissue on the SDK path
    };

    /**
     * @param family   "hot" or "hotq": names the guard, the SimCheck
     *                 shadow and the responders
     * @param config, stats  the concrete channel's own (extended)
     *                 members
     * @param report_first  report success to the guard before copying
     *                 fast results out (single line) rather than after
     *                 releasing the slot (ring): each keeps its order
     */
    Channel(sdk::EnclaveRuntime &runtime, Kind kind, const char *family,
            const ChannelConfig &config, ChannelStats &stats,
            bool report_first);

    /** Allocate one control line in untrusted memory: a SimCheck sync
     *  word, freed (or deliberately leaked) by teardown(). */
    Addr allocLine();

    /**
     * Finish construction after the control lines: adopt the Sentinel
     * guard, resolve FastPath and allocate @p slots staging slots —
     * strictly after the lines, so a disabled fast path leaves the
     * address layout (and every cache interaction) bit-identical to
     * the pre-FastPath channel.
     */
    void initChannel(std::size_t slots);

    /** Destructor body: stop(), then release the lines. */
    void teardown();

    // ---- Signalling-protocol hooks -----------------------------------

    /** One claim attempt; on Won, @p req.slot names the slot. */
    virtual Claim claim(Request &req) = 0;
    /** Publish the staged request and signal the responder.
     *  @return false when the claim was voided meanwhile. */
    virtual bool publish(Request &req) = 0;
    /** The control line a requester polls for completion. */
    virtual Addr completionLine(const Request &req) const = 0;
    /** Completion observed (after the priced poll of the line). */
    virtual bool isCompleted(const Request &req) const = 0;
    /** Guard on: the earliest clock at which reclaim() could return
     *  true for a wait that started at @p wait_start. */
    virtual Cycles reclaimHorizon(const Request &req,
                                  Cycles wait_start) const;
    /** Guard on: @return true when the request was given up on (stuck
     *  past its deadline) and the call must reissue on the SDK. */
    virtual bool reclaim(Request &req, Cycles wait_start) = 0;
    /** Release the claimed slot after the results are harvested. */
    virtual void release(Request &req) = 0;
    /** The completion wait was aborted by an engine stop. */
    virtual void onAbort(Request &) {}
    /** A claim attempt (or the whole budget) expired. */
    virtual void onBusy(Request &) {}
    /** Quarantine entry with wedged responders: spawn a replacement
     *  within the guard's respawn budget. */
    virtual void respawn() = 0;
    /** stop(): release parked responders so they observe the stop. */
    virtual void wakeResponders() = 0;
    /** stop(), guard on, after the join: protocol-specific drain. */
    virtual void afterJoin() {}
    /** FastPath staging is about to recycle slot @p index. */
    virtual void onStagingRecycle(std::size_t) {}

    // ---- Shared pieces -----------------------------------------------

    /** Execute the request staged in slot @p index (responder side). */
    void serve(std::size_t index);

    /** HotEcall responder: park inside the enclave with one
     *  conventional ecall. @return the TCS, or null when the
     *  responder must exit first (stop, or @p retired). */
    sgx::Tcs *enterEnclave(const std::function<bool()> &retired);
    void exitEnclave(sgx::Tcs *tcs);

    /** Responder: park for good (an injected wedge) until stop or
     *  @p retired; stepped so the stopAtCycle backstop still fires. */
    void wedge(const std::function<bool()> &retired);

    /** Responder epilogue after publishing a completion: heartbeat,
     *  then the scheduling-hiccup draw. */
    void afterServe();

    /** One live pollPause() on the current thread. */
    void pauseJittered();

    /** Wake this channel's parked pollers before a change they do
     *  not watch through a line (stop, pool size, retirement) or a
     *  read of what their polls update (stats, heartbeats). */
    void wakeParked() const;

    /** One priced access to a control line. */
    void touch(Addr line, bool write)
    {
        machine_.memory().accessWord(line, write);
    }

    const std::string &name() const { return name_; }

    sdk::EnclaveRuntime &runtime_;
    mem::Machine &machine_;
    const Kind kind_;
    std::vector<StagingSlot> staging_;
    /** Every responder fiber ever spawned, in join order. */
    std::vector<sim::Thread *> responders_;
    bool stopRequested_ = false;
    /** Sentinel supervision, or null when the guard is off. */
    guard::ChannelGuard *guard_ = nullptr;

  private:
    void stage(Request &req);
    void noteSuccess(const Request &req);
    /** Count a fallback and reissue the call on the SDK path. */
    std::uint64_t fallbackToSdk(Request &req, bool exhausted = false);
    std::uint64_t sdkCall(int id, const edl::Args &args);
    void countPlacement(const edl::FastStaging &staging);
    /** Refresh the degradedCycles mirror from the guard. */
    void mirrorDegraded(Cycles now);
    /** Wait (charging time, bounded) for every responder to exit. */
    void joinResponders();
    /** One priced access to slot @p index's spill-arena base line
     *  (payload handoff for arena-staged calls; inline payloads ride
     *  the control-line transfers already priced). */
    void touchArena(std::size_t index, bool write);

    const ChannelConfig &baseConfig_;
    ChannelStats &baseStats_;
    const bool reportFirst_;
    const std::string name_;
    /** This channel's spin-parked pollers (PollParker). */
    std::vector<PollParker *> parkedPollers_;
    bool fastOn_ = false;     //!< resolved FastPath switch
    bool stopped_ = false;    //!< stop() completed (join done)
    std::vector<Addr> lines_; //!< control lines, allocation order
};

} // namespace hc::hotcalls

#endif // HC_HOTCALLS_CHANNEL_HH

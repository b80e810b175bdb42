/**
 * @file
 * HotQueue: a multi-slot HotCall channel drained by an adaptive
 * responder pool.
 *
 * The paper's Figure-9 channel (hotcall.hh) holds ONE in-flight
 * request behind one lock word, so concurrent requesters serialize on
 * a single cache line and throughput flatlines past one app thread.
 * HotQueue generalizes the channel into a ring buffer:
 *
 *  - N slots, each on its own simulated cache line so concurrent
 *    producers do not false-share; the producer cursor (tail) and
 *    consumer cursor (head) live on two further separate lines,
 *  - a pool of responder threads drains the ring; a responder that
 *    finds k pending slots serves all k before re-polling (batching,
 *    in the spirit of "Speeding up enclave transitions for
 *    IO-intensive applications": the head-line coherence transfer is
 *    amortized over the whole batch),
 *  - the pool is sized adaptively, following "SGX Switchless Calls
 *    Made Configless": slot occupancy is tracked over a sliding
 *    window of responder polls, surplus responders park on a condvar
 *    when occupancy is low, and requesters that find the ring full
 *    (or take the timeout fallback) wake parked responders,
 *  - per-queue statistics (queue-depth histogram, batch-size
 *    histogram, scale events) are kept via support/stats.
 *
 * Like HotCallService, a HotQueue exists in both directions: HotOcall
 * (trusted requesters, untrusted responders; marshalling runs in the
 * requester with the same edger8r-generated code the SDK uses) and
 * HotEcall (untrusted requesters; responders park inside the enclave
 * via one conventional ecall each). It shares the requester envelope,
 * staging and fallback with HotCallService through the channel core
 * (channel.hh) and keeps only its signalling protocol here: the
 * cursors and slot states, Sentinel's Zombie reclaim and retirement,
 * batching and pool scaling.
 */

#ifndef HC_HOTCALLS_HOTQUEUE_HH
#define HC_HOTCALLS_HOTQUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "check/check.hh"
#include "hotcalls/channel.hh"
#include "sdk/thread_sync.hh"
#include "support/stats.hh"

namespace hc::hotcalls {

/** HotQueue tunables. */
struct HotQueueConfig : ChannelConfig {
    /** Ring capacity: concurrent in-flight requests (and the most
     *  slots one responder serves per channel acquisition). */
    int numSlots = 4;
    /** Responders that always keep polling (never park); >= 1. */
    int minResponders = 1;
    /** One pool member per core; size = maximum pool size. */
    std::vector<CoreId> responderCores = {2};
    /** Sliding occupancy window, in responder polls. */
    std::uint64_t scaleWindowPolls = 256;
    /** Queue depth at which an enqueue wakes a parked responder;
     *  0 = auto (half the slots, at least 2). */
    int scaleUpDepth = 0;
};

/** Run statistics of a HotQueue. */
struct HotQueueStats : ChannelStats {
    std::uint64_t batches = 0; //!< channel acquisitions that served
    std::uint64_t scaleUps = 0;
    std::uint64_t scaleDowns = 0;
    Histogram depth{64};     //!< pending entries at each enqueue
    Histogram batchSize{64}; //!< slots served per batch
};

/** The multi-slot channel plus its responder pool. */
class HotQueue : public Channel
{
  public:
    /**
     * @param runtime  enclave runtime whose edge functions are served
     * @param kind     HotEcall or HotOcall
     * @param config   tunables (responderCores sizes the pool)
     */
    HotQueue(sdk::EnclaveRuntime &runtime, Kind kind,
             HotQueueConfig config = {});

    ~HotQueue() override;

    /** Spawn the responder pool (must be called before call()).
     *  Responders beyond minResponders park immediately and are woken
     *  on demand. */
    void start() override;

    /** Parked responders are caught up first (their polls count). */
    const HotQueueStats &stats() const
    {
        wakeParked();
        return stats_;
    }
    const HotQueueConfig &config() const { return config_; }

    /** @return responders currently polling (not parked). */
    int activeResponders() const
    {
        return static_cast<int>(responders_.size()) - parked_;
    }

  private:
    /** Lifecycle of one ring slot. */
    enum class SlotState {
        Free,       //!< claimable by a requester
        Publishing, //!< claimed; request being marshalled
        Ready,      //!< published; awaiting a responder
        Serving,    //!< grabbed by a responder
        Done,       //!< executed; awaiting harvest by the requester
        Zombie,     //!< reclaimed by Sentinel; awaiting retirement
    };

    /** One ring entry's control state; it rides its own cache line
     *  (the request itself sits in the matching staging slot). */
    struct Slot {
        Addr line = 0;
        SlotState state = SlotState::Free;
        // Sentinel reclamation state (inert while the guard is off).
        std::uint64_t epoch = 0; //!< bumped at claim and at reclaim:
                                 //!< a mismatch tells publisher or
                                 //!< server the slot was taken away
        Cycles claimedAt = 0;    //!< Publishing-leash anchor
        Cycles servingSince = 0; //!< Serving-leash anchor
        bool dispatched = false; //!< server started executing (a
                                 //!< dispatched handler is never
                                 //!< reclaimed — it always completes)
        bool ownerless = false;  //!< Zombie nobody will retire except
                                 //!< the head scan (Ready-reclaim)
    };

    Claim claim(Request &req) override;
    bool publish(Request &req) override;
    Addr completionLine(const Request &req) const override
    {
        return slots_[req.slot].line;
    }
    bool isCompleted(const Request &req) const override
    {
        return slots_[req.slot].state == SlotState::Done;
    }
    Cycles reclaimHorizon(const Request &req,
                          Cycles wait_start) const override;
    bool reclaim(Request &req, Cycles wait_start) override;
    void release(Request &req) override;
    void onBusy(Request &req) override;
    void respawn() override;
    void wakeResponders() override;
    void onStagingRecycle(std::size_t index) override;

    /** A responder's sliding occupancy window (see responderLoop). */
    struct Window {
        std::uint64_t polls = 0;
        Cycles busy = 0;
        Cycles start = 0;
        Cycles pollStart = 0; //!< start of the current poll
    };

    /** The idle responder poll: read the producer cursor, find the
     *  ring empty, pause; the window check runs at each poll top. */
    class ResponderParker final : public PollParker
    {
      public:
        ResponderParker(HotQueue &queue, Window &window)
            : PollParker(queue, queue.tailLine_), queue_(queue),
              window_(window)
        {
        }

      protected:
        void replay(Cycles stop) override;

      private:
        HotQueue &queue_;
        Window &window_;
    };

    /** The responder thread body (pool member @p index; respawned
     *  members carry index -1: they never start parked). */
    void responderLoop(int index);

    /** Serve every pending slot (up to numSlots), after one priced
     *  read of the producer cursor unless @p cursor_read (a replayed
     *  poll already read it). @return slots served. */
    int tryServeBatch(bool cursor_read = false);

    /** Take slot @p index away from its owner: a Zombie (epoch
     *  bumped, request cleared) awaiting retirement. */
    void reclaimSlot(std::size_t index, bool ownerless);

    /** Return a Zombie slot to Free (fields cleared, line touched). */
    void retireZombie(std::size_t index);

    /** Clear the request carried by slot @p index. */
    void clearRequest(std::size_t index);

    /** Park the calling responder; re-checks conditions under the
     *  pool mutex and counts a scale-down when @p scale_event.
     *  @return true when it actually parked. */
    bool parkResponder(bool scale_event);

    /** Wake one parked responder, if any; counts a scale-up when
     *  @p scale_event. @return true when a responder was actually
     *  signalled — callers limit themselves to one successful
     *  scale-up wake per logical call, so a call that burns several
     *  claim attempts back-to-back cannot inflate the scale
     *  statistics (or thrash the pool) once per attempt. */
    bool wakeOneResponder(bool scale_event);

    /** Priced access to slot @p index's control line. */
    void touchSlot(std::size_t index, bool write)
    {
        touch(slots_[index].line, write);
    }

    /** @return unserved (pre-grab) entries in the ring. */
    std::uint64_t pending() const { return tail_ - head_; }

    /** Depth that triggers a scale-up wake (resolved config). */
    std::uint64_t scaleUpDepth() const;

    HotQueueConfig config_;
    HotQueueStats stats_;

    // ------------------------------------------------------------------
    // The ring. Functional state lives host-side; every protocol
    // access prices the corresponding simulated cache line, so the
    // coherence model sees one line per slot plus the two cursor
    // lines (no false sharing between producers).
    // ------------------------------------------------------------------

    std::vector<Slot> slots_;
    Addr headLine_ = 0; //!< consumer cursor line
    Addr tailLine_ = 0; //!< producer cursor line
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;

    sdk::SgxThreadMutex poolMutex_; //!< guards parking handoff
    sdk::SgxThreadCond poolCond_;
    int parked_ = 0;

    /** Shadow state machine when the Machine's checker is on. */
    std::unique_ptr<check::HotQueueProtocol> protocol_;
};

} // namespace hc::hotcalls

#endif // HC_HOTCALLS_HOTQUEUE_HH

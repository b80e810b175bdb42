/**
 * @file
 * Stackful cooperative fibers.
 *
 * Every simulated thread (enclave worker, HotCalls responder, client
 * load generator, ...) is a fiber. Fibers let application code be
 * written as straight-line sequential C++ while the simulation engine
 * interleaves them deterministically in virtual-time order.
 *
 * Two switching backends exist behind the same interface:
 *
 *  - a hand-rolled x86-64 System-V switch (the default on that
 *    target): saves the callee-saved registers, the FP control state
 *    (mxcsr, x87 cw) and the stack pointer — ~20 instructions and no
 *    kernel involvement. This matters because the engine switches
 *    fibers at every real interleaving point (each HotCall poll), and
 *    glibc's swapcontext performs two rt_sigprocmask system calls per
 *    switch, which dominated the simulator's host profile;
 *  - ucontext, kept as the portable fallback (any POSIX target, or
 *    -DHC_FIBER_UCONTEXT to force it, e.g. to cross-check a
 *    fiber-layer bug).
 *
 * Both backends produce identical scheduling (the engine decides who
 * runs; the fiber layer only transfers control), so simulated results
 * are independent of the backend.
 *
 * A fiber that gives up its core usually hands control straight to
 * the next fiber the engine picked (handoff), so one scheduling
 * decision costs one switch rather than a round trip through the
 * scheduler loop. The loop's context is a FiberHost shared by every
 * fiber; whichever fiber ends a chain of handoffs returns to it.
 */

#ifndef HC_SIM_FIBER_HH
#define HC_SIM_FIBER_HH

#if defined(__x86_64__) && defined(__ELF__) && !defined(HC_FIBER_UCONTEXT)
#define HC_FIBER_FAST 1
#else
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace hc::sim {

#ifdef HC_FIBER_FAST
/** A suspended context: its saved stack pointer. */
using FiberContext = void *;
#else
using FiberContext = ucontext_t;
#endif

/**
 * The host side of fiber switching: the context (the engine's
 * scheduler loop, or any other code) that enters fibers and that they
 * return to. One host serves every fiber it runs, so a fiber entered
 * from another fiber (Fiber::handoff) still returns to that host.
 */
class FiberHost
{
  public:
    FiberHost() = default;
    FiberHost(const FiberHost &) = delete;
    FiberHost &operator=(const FiberHost &) = delete;

  private:
    friend class Fiber;
    FiberContext context_{};
    // AddressSanitizer bookkeeping: the host's stack bounds, learned
    // by the first fiber entered from it. Unused in non-ASan builds.
    const void *asanBottom_ = nullptr;
    std::size_t asanSize_ = 0;
    bool asanEntering_ = false; //!< a switchTo() is in flight
};

/**
 * A suspendable execution context with its own stack.
 *
 * The fiber starts suspended. Control moves in three ways:
 * switchTo() enters it from a host, handoff() moves from one fiber
 * straight into another without visiting the host, and switchBack()
 * (or returning from the body, which marks the fiber finished) goes
 * back to the host that entered the chain.
 */
class Fiber
{
  public:
    using Body = std::function<void()>;

    /**
     * @param body        function executed when the fiber first runs
     * @param stack_size  fiber stack size in bytes
     */
    explicit Fiber(Body body, std::size_t stack_size = 256 * 1024);

    ~Fiber() = default;

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Transfer control from @p host into the fiber. Returns when a
     * fiber switches back to @p host or finishes: this one, or any
     * fiber it handed off to. Must not be called on a finished fiber.
     */
    void switchTo(FiberHost &host);

    /**
     * Transfer control from inside this fiber back to its host.
     * Must be called from inside this fiber.
     */
    void switchBack();

    /**
     * Transfer control from inside this fiber straight into @p next
     * (suspended, not finished), which inherits this fiber's host.
     * Returns when something resumes this fiber again.
     */
    void handoff(Fiber &next);

    /** @return true once the fiber body has returned. */
    bool finished() const { return finished_; }

#ifdef HC_FIBER_FAST
    /** fiber.cc-local bridge from the asm boot shim into run(). */
    struct EntryAccess;
#endif

  private:
#ifndef HC_FIBER_FAST
    static void trampoline(unsigned int hi, unsigned int lo);
#endif
    void run();

    /** Complete a switch into this fiber (ASan bookkeeping). */
    void arrived();

    Body body_;
    std::vector<std::uint8_t> stack_;
    FiberHost *host_ = nullptr; //!< where switchBack() and exit go
    FiberContext context_{};
    bool finished_ = false;

    // AddressSanitizer bookkeeping: ASan must be told about every
    // stack switch (__sanitizer_start/finish_switch_fiber), or frames
    // on the heap-allocated fiber stacks are reported as
    // stack-buffer-overflows. Unused in non-ASan builds.
    void *asanFake_ = nullptr;
};

} // namespace hc::sim

#endif // HC_SIM_FIBER_HH

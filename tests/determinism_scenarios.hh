/**
 * @file
 * The golden-digest scenarios shared by the determinism regression
 * suite (test_determinism.cc) and the fault-injection campaign
 * (test_fault.cc).
 *
 * Every scenario serializes its observable simulated quantities
 * (latency streams, per-core clocks, cache and MEE counters, channel
 * stats) into a Digest whose hash the determinism suite pins. The
 * fault campaign re-runs the same scenarios with a *quiet* FaultPlan
 * installed and asserts the pinned hashes still reproduce — the
 * injector's determinism contract (a zero-probability site draws
 * nothing and charges nothing) made mechanically checkable.
 *
 * Each scenario takes an optional FaultPlan; when given, a
 * FaultInjector built from it is installed into the Machine for the
 * duration of the run (and removed before teardown, since the
 * injector dies before the Machine does).
 */

#ifndef HC_TESTS_DETERMINISM_SCENARIOS_HH
#define HC_TESTS_DETERMINISM_SCENARIOS_HH

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "mem/buffer.hh"
#include "mem/machine.hh"
#include "os/kernel.hh"
#include "sdk/runtime.hh"
#include "sgx/platform.hh"
#include "support/hash.hh"

namespace hc::dtest {

/** The pinned pre-TurboSim golden hash (see test_determinism.cc). */
inline constexpr std::uint64_t kGoldenHash = 16583189628892967703ull;

/** The pinned FastPath golden hash. */
inline constexpr std::uint64_t kFastPathGoldenHash =
    17395909595440672740ull;

/** The pinned simulated-kernel golden hash. */
inline constexpr std::uint64_t kKernelGoldenHash =
    3164406221246358194ull;

inline const char *kEdl = R"(
    enclave {
        trusted {
            public uint64_t ecall_add(uint64_t a, uint64_t b);
            public void ecall_empty();
        };
        untrusted {
            void ocall_empty();
        };
    };
)";

/** Accumulates "key=value" lines; the hash pins the whole text. */
class Digest
{
  public:
    void add(const std::string &key, std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        text_ += key + "=" + buf + "\n";
    }

    /** Record a whole sample stream: its length and exact contents. */
    void addSamples(const std::string &key,
                    const std::vector<Cycles> &samples)
    {
        add(key + ".n", samples.size());
        add(key + ".hash",
            fastHash64(samples.data(),
                       samples.size() * sizeof(Cycles)));
    }

    const std::string &text() const { return text_; }
    std::uint64_t hash() const { return fastHash64(text_); }

  private:
    std::string text_;
};

/** SpinPark position every scenario's engine runs with (the
 *  differential test flips it; parking is the default). */
inline bool spinPark = true;

/** Pin @p machine's BulkSpan plane before anything is built on it,
 *  so enclave construction runs on the pinned plane too. */
inline mem::Machine &
pinBulkSpan(mem::Machine &machine, bool bulk_span)
{
    machine.memory().setBulkSpan(bulk_span);
    machine.engine().setSpinPark(spinPark);
    return machine;
}

/** Machine + enclave runtime used by every scenario. */
struct Fixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;
    sdk::EnclaveRuntime runtime;
    std::unique_ptr<fault::FaultInjector> injector;

    /** @p bulk_span pins the BulkSpan plane (default on). Both
     *  positions must digest identically — the plane is a host
     *  fast path, not a model change. @p guard_mode pins Sentinel
     *  (-1: HC_GUARD / on) under the same contract: a quiet run never
     *  trips a guard intervention, so both positions must digest
     *  identically too. */
    explicit Fixture(bool with_interrupts, bool check_on,
                     const fault::FaultPlan *plan = nullptr,
                     bool bulk_span = true, int guard_mode = -1)
        : machine([&] {
              mem::MachineConfig config;
              config.engine.numCores = 8;
              config.engine.seed = 42;
              config.engine.interruptMeanCycles =
                  with_interrupts ? 7'000'000 : 0;
              config.check.enabled = check_on;
              config.guard.mode = guard_mode;
              return config;
          }()),
          platform(pinBulkSpan(machine, bulk_span)),
          runtime(platform, "determinism", kEdl, 4)
    {
        if (plan) {
            injector = std::make_unique<fault::FaultInjector>(
                machine.engine(), *plan);
            machine.installFault(injector.get());
        }
        if (with_interrupts)
            platform.installAexHandler();
        runtime.registerEcall("ecall_add", [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        });
        runtime.registerEcall("ecall_empty",
                              [](edl::StagedCall &) {});
        runtime.registerOcall("ocall_empty",
                              [](edl::StagedCall &) {});
    }

    ~Fixture()
    {
        // The injector member dies before the machine: detach it so
        // teardown (stranded-fiber unwinding fires observer events)
        // cannot reach a dangling decorator.
        if (injector)
            machine.installFault(nullptr);
    }

    /** Append machine-level observables (clocks, memory counters). */
    void digestMachine(Digest &d)
    {
        auto &engine = machine.engine();
        for (int c = 0; c < engine.numCores(); ++c)
            d.add("core" + std::to_string(c) + ".clock",
                  engine.coreNow(c));
        d.add("llc.hits", machine.memory().cache().hits());
        d.add("llc.misses", machine.memory().cache().misses());
        d.add("mee.nodeHits", machine.memory().mee().nodeCacheHits());
        d.add("mee.nodeMisses",
              machine.memory().mee().nodeCacheMisses());
        d.add("interrupts", engine.interruptCount());
    }
};

/**
 * Fig 3 scenario: warm HotEcall latencies through the single-line
 * channel. @p hiccups feeds the CDF tail via nextExponential (libm);
 * the golden digest runs with it off.
 */
inline Digest
fig3Scenario(bool with_interrupts, bool hiccups, bool check_on,
             int calls, const fault::FaultPlan *plan = nullptr,
             bool bulk_span = true, int guard_mode = -1)
{
    Fixture f(with_interrupts, check_on, plan, bulk_span, guard_mode);
    hotcalls::HotCallConfig config;
    if (!hiccups)
        config.hiccupChance = 0.0;
    hotcalls::HotCallService hot(f.runtime, hotcalls::Kind::HotEcall,
                                 1, config);
    std::vector<Cycles> latencies;
    latencies.reserve(static_cast<std::size_t>(calls));
    f.machine.engine().spawn("driver", 0, [&] {
        hot.start();
        for (int i = 0; i < calls; ++i) {
            const Cycles t0 = f.machine.now();
            hot.call("ecall_add",
                     {edl::Arg::value(static_cast<std::uint64_t>(i)),
                      edl::Arg::value(1)});
            latencies.push_back(f.machine.now() - t0);
        }
        hot.stop();
        f.machine.engine().stop();
    });
    f.machine.engine().run();

    Digest d;
    d.addSamples("fig3.latency", latencies);
    d.add("fig3.calls", hot.stats().calls);
    d.add("fig3.fallbacks", hot.stats().fallbacks);
    d.add("fig3.polls", hot.stats().responderPolls);
    d.add("fig3.busy", hot.stats().responderBusyCycles);
    f.digestMachine(d);
    return d;
}

/** 4-requester HotQueue scenario with an adaptive 2-responder pool. */
inline Digest
hotqueueScenario(bool with_interrupts, bool hiccups, bool check_on,
                 int calls_each,
                 const fault::FaultPlan *plan = nullptr,
                 bool bulk_span = true, int guard_mode = -1)
{
    Fixture f(with_interrupts, check_on, plan, bulk_span, guard_mode);
    hotcalls::HotQueueConfig config;
    config.numSlots = 8;
    config.responderCores = {1, 2};
    if (!hiccups)
        config.hiccupChance = 0.0;
    hotcalls::HotQueue hot(f.runtime, hotcalls::Kind::HotEcall,
                           config);
    auto &engine = f.machine.engine();
    std::uint64_t sum = 0;
    int done = 0;
    constexpr int kRequesters = 4;

    hot.start();
    std::vector<std::vector<Cycles>> latencies(kRequesters);
    for (int r = 0; r < kRequesters; ++r) {
        engine.spawn("req" + std::to_string(r), 3 + r, [&, r] {
            for (int i = 0; i < calls_each; ++i) {
                const Cycles t0 = f.machine.now();
                sum += hot.call(
                    "ecall_add",
                    {edl::Arg::value(static_cast<std::uint64_t>(r)),
                     edl::Arg::value(static_cast<std::uint64_t>(i))});
                latencies[static_cast<std::size_t>(r)].push_back(
                    f.machine.now() - t0);
            }
            if (++done == kRequesters) {
                hot.stop();
                engine.stop();
            }
        });
    }
    engine.run();

    Digest d;
    d.add("hotq.sum", sum);
    for (int r = 0; r < kRequesters; ++r)
        d.addSamples("hotq.req" + std::to_string(r),
                     latencies[static_cast<std::size_t>(r)]);
    const auto &s = hot.stats();
    d.add("hotq.calls", s.calls);
    d.add("hotq.fallbacks", s.fallbacks);
    d.add("hotq.polls", s.responderPolls);
    d.add("hotq.batches", s.batches);
    d.add("hotq.wakeups", s.wakeups);
    d.add("hotq.scaleUps", s.scaleUps);
    d.add("hotq.scaleDowns", s.scaleDowns);
    d.add("hotq.busy", s.responderBusyCycles);
    d.add("hotq.depth.hash", fastHash64(s.depth.summary()));
    d.add("hotq.batchSize.hash", fastHash64(s.batchSize.summary()));
    f.digestMachine(d);
    return d;
}

/**
 * Encrypted/plain buffer sweep: the priced memory system with no RNG
 * at all. Exercises hit fast paths, MEE walks, evictions, and the
 * flush-after write variant across working sets around the MEE node
 * cache capacity.
 */
inline Digest
memorySweepScenario(bool check_on,
                    const fault::FaultPlan *plan = nullptr,
                    bool bulk_span = true, int guard_mode = -1)
{
    Fixture f(false, check_on, plan, bulk_span, guard_mode);
    std::vector<Cycles> costs;
    f.machine.engine().spawn("sweep", 0, [&] {
        for (std::uint64_t size : {2_KiB, 8_KiB, 32_KiB, 128_KiB}) {
            mem::Buffer enc(f.machine, mem::Domain::Epc, size);
            mem::Buffer plain(f.machine, mem::Domain::Untrusted,
                              size);
            for (int rep = 0; rep < 6; ++rep) {
                costs.push_back(enc.read());
                costs.push_back(plain.read());
                costs.push_back(enc.write(rep % 2 == 1));
                costs.push_back(plain.write(false));
                if (rep == 3) {
                    enc.evict();
                    plain.evict();
                }
            }
            // Cold restart mid-sweep: evict data lines and drop the
            // MEE node cache so tree walks re-run end to end.
            f.machine.memory().evictAll();
            f.machine.memory().mee().clearNodeCache();
            costs.push_back(enc.read());
        }
    });
    f.machine.engine().run();

    Digest d;
    d.addSamples("sweep.costs", costs);
    f.digestMachine(d);
    return d;
}

/** Warm SDK ecall/ocall loop: the conventional call path. */
inline Digest
sdkLoopScenario(bool check_on, int calls,
                const fault::FaultPlan *plan = nullptr,
                bool bulk_span = true, int guard_mode = -1)
{
    Fixture f(false, check_on, plan, bulk_span, guard_mode);
    std::vector<Cycles> latencies;
    f.machine.engine().spawn("driver", 0, [&] {
        for (int i = 0; i < calls; ++i) {
            const Cycles t0 = f.machine.now();
            f.runtime.ecall("ecall_empty", {});
            latencies.push_back(f.machine.now() - t0);
        }
    });
    f.machine.engine().run();

    Digest d;
    d.addSamples("sdk.latency", latencies);
    f.digestMachine(d);
    return d;
}

/** Concatenation of every libm-free scenario (the golden input).
 *  @p plan applies to each scenario's machine in turn; @p guard_mode
 *  pins Sentinel for each machine (both positions must reproduce the
 *  pinned hash — the guard is quiet on these scenarios). */
inline std::string
goldenText(const fault::FaultPlan *plan = nullptr,
           int guard_mode = -1)
{
    std::string text;
    text += fig3Scenario(false, false, false, 400, plan, true,
                         guard_mode)
                .text();
    text += hotqueueScenario(false, false, false, 150, plan, true,
                             guard_mode)
                .text();
    text += memorySweepScenario(false, plan, true, guard_mode).text();
    text += sdkLoopScenario(false, 200, plan, true, guard_mode).text();
    return text;
}

// ----------------------------------------------------------------------
// FastPath data-plane scenario. Separate EDL and fixture so the
// pre-FastPath golden scenarios above stay untouched (the enclave
// image content feeds the measurement cost model).
// ----------------------------------------------------------------------

inline const char *kFastPathEdl = R"(
    enclave {
        trusted {
            public void ecall_run();
        };
        untrusted {
            uint64_t ocall_bump([in, out, size=len] uint8_t* buf,
                                size_t len);
        };
    };
)";

/**
 * Hot ocalls carrying buffers sized to hit all three staging
 * placements (inline, arena, heap spill), libm-free. @p fast_path
 * pins the data plane: 0 must reproduce the legacy marshalling
 * bit for bit regardless of HC_FASTPATH.
 */
inline Digest
fastPathScenario(bool check_on, int fast_path, int calls,
                 const fault::FaultPlan *plan = nullptr,
                 bool bulk_span = true, int guard_mode = -1)
{
    mem::MachineConfig machine_config;
    machine_config.engine.numCores = 8;
    machine_config.engine.seed = 42;
    machine_config.engine.interruptMeanCycles = 0;
    machine_config.check.enabled = check_on;
    machine_config.guard.mode = guard_mode;
    mem::Machine machine(machine_config);
    pinBulkSpan(machine, bulk_span);
    std::unique_ptr<fault::FaultInjector> injector;
    if (plan) {
        injector = std::make_unique<fault::FaultInjector>(
            machine.engine(), *plan);
        machine.installFault(injector.get());
    }
    sgx::SgxPlatform platform(machine);
    sdk::EnclaveRuntime runtime(platform, "determinism-fp",
                                kFastPathEdl, 4);
    std::uint64_t sum = 0;
    runtime.registerEcall("ecall_run", [](edl::StagedCall &) {});
    runtime.registerOcall("ocall_bump", [&](edl::StagedCall &c) {
        for (std::uint64_t i = 0; i < c.size(0); ++i) {
            sum += c.data(0)[i];
            c.data(0)[i] =
                static_cast<std::uint8_t>(c.data(0)[i] + 1);
        }
        c.setRetval(sum);
    });

    hotcalls::HotQueueConfig config;
    config.numSlots = 4;
    config.responderCores = {1};
    config.hiccupChance = 0.0;
    config.fastPath = fast_path;
    hotcalls::HotQueue hot(runtime, hotcalls::Kind::HotOcall, config);

    static constexpr std::uint64_t kSizes[] = {16, 100, 300, 2048};
    std::vector<Cycles> latencies;
    latencies.reserve(static_cast<std::size_t>(calls));
    machine.engine().spawn("driver", 0, [&] {
        hot.start();
        sgx::Tcs *tcs = runtime.enclave().acquireTcs();
        platform.eenter(runtime.enclave(), *tcs);
        mem::Buffer buf(machine, mem::Domain::Epc, 2048);
        for (int i = 0; i < calls; ++i) {
            const std::uint64_t len =
                kSizes[static_cast<std::size_t>(i) % 4];
            const Cycles t0 = machine.now();
            sum += hot.call("ocall_bump", {edl::Arg::buffer(buf),
                                           edl::Arg::value(len)});
            latencies.push_back(machine.now() - t0);
        }
        platform.eexit();
        runtime.enclave().releaseTcs(tcs);
        hot.stop();
        machine.engine().stop();
    });
    machine.engine().run();
    if (injector)
        machine.installFault(nullptr);

    Digest d;
    d.add("fp.plane", static_cast<std::uint64_t>(fast_path));
    d.add("fp.sum", sum);
    d.addSamples("fp.latency", latencies);
    const auto &s = hot.stats();
    d.add("fp.calls", s.calls);
    d.add("fp.fallbacks", s.fallbacks);
    d.add("fp.fastCalls", s.fastCalls);
    d.add("fp.inlineStaged", s.inlineStaged);
    d.add("fp.arenaStaged", s.arenaStaged);
    d.add("fp.heapStaged", s.heapStaged);
    d.add("fp.busy", s.responderBusyCycles);
    auto &engine = machine.engine();
    for (int c = 0; c < engine.numCores(); ++c)
        d.add("core" + std::to_string(c) + ".clock",
              engine.coreNow(c));
    d.add("llc.hits", machine.memory().cache().hits());
    d.add("llc.misses", machine.memory().cache().misses());
    d.add("mee.nodeHits", machine.memory().mee().nodeCacheHits());
    d.add("mee.nodeMisses", machine.memory().mee().nodeCacheMisses());
    return d;
}

/** Both planes' digests back to back (the FastPath golden input). */
inline std::string
fastPathGoldenText(const fault::FaultPlan *plan = nullptr,
                   int guard_mode = -1)
{
    return fastPathScenario(false, 0, 120, plan, true, guard_mode)
               .text() +
           fastPathScenario(false, 1, 120, plan, true, guard_mode)
               .text();
}

// ----------------------------------------------------------------------
// Simulated-kernel scenario: engine, Machine and Kernel only (no
// enclave), so the digest pins the kernel's socket, readiness and
// wake paths on their own.
// ----------------------------------------------------------------------

/**
 * Event-loop servers and clients over loopback TCP, libm-free.
 *
 * Three client fibers open 13 connections each to one listener and
 * run kRounds request/response exchanges per connection, reading
 * responses in partial recvs through their own epoll set with
 * max_events below the ready count (so the scan rotation decides
 * which fds are served). Server S0 owns the listener and hands the
 * accepted fds round-robin to its own set, to S1's set and to an
 * epoll set nested in S1's. S1's set also holds a File member (read
 * to EOF, then closed while registered) and a UDP socket whose
 * datagrams land in the future over the link model. Clients
 * half-close finished connections with shutdown and close some
 * mid-run; servers close on EOF.
 *
 * The digest holds every epollWait result (count, fds and the clock
 * after it) per fiber, the bytes moved per fd, the per-core end
 * clocks and the engine's scheduling decisions. @p kernel_out, when
 * given, receives the kernel after the run (it is destroyed on
 * return), so callers can inspect its final state.
 */
inline Digest
kernelScenario(const std::function<void(os::Kernel &)> &kernel_out =
                   nullptr)
{
    mem::MachineConfig machine_config;
    machine_config.engine.numCores = 8;
    machine_config.engine.seed = 42;
    machine_config.engine.interruptMeanCycles = 0;
    mem::Machine machine(machine_config);
    machine.engine().setSpinPark(spinPark);
    os::Kernel k(machine);
    auto &engine = machine.engine();

    constexpr int kPort = 8080;
    constexpr int kClients = 3;
    constexpr int kConnsPerClient = 13;
    constexpr int kConns = kClients * kConnsPerClient;
    constexpr int kRounds = 4;
    constexpr int kDatagrams = 12;
    constexpr int kUdpPort = 5000;

    std::vector<std::uint8_t> page(4096);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 7);
    k.addFile("/static", page);

    std::map<int, std::uint64_t> rx, tx; // bytes per fd
    int closed_by_servers = 0;
    int datagrams = 0;
    int listener = -1, ep0 = -1, ep1 = -1, inner = -1;

    /** Every wait's result and the clock after it, per fiber. */
    auto record = [&](std::vector<Cycles> &log, int n,
                      const std::vector<int> &ready) {
        log.push_back(static_cast<Cycles>(n));
        for (int i = 0; i < n; ++i)
            log.push_back(
                static_cast<Cycles>(ready[static_cast<std::size_t>(i)]));
        log.push_back(machine.now());
    };

    /** Server side of one connection: read the request 16 bytes at
     *  a time, answer it once complete, close on EOF. */
    struct ServerConn {
        std::uint64_t got = 0;
        std::uint8_t hdr[3] = {0, 0, 0};
    };
    std::map<int, ServerConn> server_conns;
    int file_fd = -1;
    auto serve = [&](int fd) {
        std::uint8_t buf[16];
        const std::int64_t r = k.recv(fd, buf, sizeof(buf));
        if (r == 0) {
            k.close(fd);
            ++closed_by_servers;
            return;
        }
        if (r < 0)
            return;
        rx[fd] += static_cast<std::uint64_t>(r);
        ServerConn &c = server_conns[fd];
        for (std::int64_t i = 0; i < r; ++i) {
            if (c.got < 3)
                c.hdr[c.got] = buf[i];
            ++c.got;
        }
        if (c.got < 3 || c.got < c.hdr[0])
            return;
        c.got = 0;
        const std::uint64_t resp =
            c.hdr[1] | (static_cast<std::uint64_t>(c.hdr[2]) << 8);
        std::int64_t sent = 0;
        if (resp % 2 == 0) {
            sent = k.sendfile(fd, file_fd, (resp * 3) % 1000, resp);
        } else {
            sent = k.send(fd, page.data(), resp);
        }
        tx[fd] += static_cast<std::uint64_t>(sent);
    };

    std::vector<Cycles> s0_log, s1_log, inner_log;
    engine.spawn("s0", 1, [&] {
        listener = k.listenTcp(kPort);
        ep0 = k.epollCreate();
        ep1 = k.epollCreate();
        inner = k.epollCreate();
        file_fd = k.open("/static");
        k.epollCtlAdd(ep0, listener);
        int accepted = 0;
        std::vector<int> ready;
        for (int iter = 0; iter < 200000 && closed_by_servers < kConns;
             ++iter) {
            const int n = k.epollWait(ep0, ready, 4, 300'000);
            record(s0_log, n, ready);
            for (int i = 0; i < n; ++i) {
                const int fd = ready[static_cast<std::size_t>(i)];
                if (fd != listener) {
                    serve(fd);
                    continue;
                }
                for (int s = k.accept(listener); s >= 0;
                     s = k.accept(listener)) {
                    const int sets[] = {ep0, ep1, inner};
                    k.epollCtlAdd(sets[accepted++ % 3], s);
                }
            }
        }
    });

    engine.spawn("s1", 2, [&] {
        engine.sleepUntil(20'000); // after s0 created the sets
        const int udp = k.udpSocket(1, kUdpPort);
        int static_fd = k.open("/static");
        k.epollCtlAdd(ep1, inner);
        k.epollCtlAdd(ep1, udp);
        k.epollCtlAdd(ep1, static_fd);
        std::vector<int> ready, inner_ready;
        std::uint8_t buf[2048];
        for (int iter = 0; iter < 200000 &&
                           (closed_by_servers < kConns ||
                            datagrams < kDatagrams);
             ++iter) {
            const int n = k.epollWait(ep1, ready, 4, 250'000);
            record(s1_log, n, ready);
            for (int i = 0; i < n; ++i) {
                const int fd = ready[static_cast<std::size_t>(i)];
                if (fd == inner) {
                    const int m = k.epollWait(inner, inner_ready, 2, 0);
                    record(inner_log, m, inner_ready);
                    for (int j = 0; j < m; ++j)
                        serve(inner_ready[static_cast<std::size_t>(j)]);
                } else if (fd == udp) {
                    int src = 0;
                    const std::int64_t r =
                        k.recvfrom(udp, buf, sizeof(buf), &src);
                    if (r > 0) {
                        ++datagrams;
                        rx[udp] += static_cast<std::uint64_t>(r) +
                                   static_cast<std::uint64_t>(src);
                    }
                } else if (fd == static_fd) {
                    const std::int64_t r = k.read(static_fd, buf, 512);
                    if (r == 0) {
                        k.close(static_fd); // closed while registered
                        static_fd = -1;
                    } else {
                        rx[fd] += static_cast<std::uint64_t>(r);
                    }
                } else {
                    serve(fd);
                }
            }
        }
    });

    engine.spawn("udp", 6, [&] {
        engine.sleepUntil(40'000);
        const int u = k.udpSocket(0, 4000);
        for (int i = 0; i < kDatagrams; ++i) {
            const std::uint64_t len = 200 + static_cast<std::uint64_t>(i) * 50;
            tx[u] += static_cast<std::uint64_t>(
                k.sendto(u, page.data(), len, kUdpPort));
            engine.sleepFor(150'000);
        }
    });

    std::vector<std::vector<Cycles>> client_logs(kClients);
    for (int c = 0; c < kClients; ++c) {
        engine.spawn("client" + std::to_string(c), 3 + c, [&, c] {
            engine.sleepUntil(30'000 + static_cast<Cycles>(c) * 5'000);
            struct Conn {
                int fd = -1;
                int j = 0;
                int round = 0;
                std::uint64_t resp = 0;
                std::uint64_t got = 0;
            };
            std::map<int, Conn> conns;
            const int ep = k.epollCreate();
            auto request = [&](Conn &conn) {
                const std::uint64_t len =
                    24 + static_cast<std::uint64_t>(conn.j * 11 +
                                                    conn.round * 5) %
                             40;
                conn.resp = 200 + static_cast<std::uint64_t>(
                                      conn.j * 97 + conn.round * 31) %
                                      1800;
                std::vector<std::uint8_t> req(len,
                                              static_cast<std::uint8_t>(
                                                  conn.j));
                req[0] = static_cast<std::uint8_t>(len);
                req[1] = static_cast<std::uint8_t>(conn.resp & 0xff);
                req[2] = static_cast<std::uint8_t>(conn.resp >> 8);
                conn.got = 0;
                tx[conn.fd] += static_cast<std::uint64_t>(
                    k.send(conn.fd, req.data(), req.size()));
            };
            for (int i = 0; i < kConnsPerClient; ++i) {
                Conn conn;
                conn.fd = k.connectTcp(kPort);
                conn.j = c * kConnsPerClient + i;
                k.epollCtlAdd(ep, conn.fd);
                conns[conn.fd] = conn;
                request(conns[conn.fd]);
            }
            std::vector<int> ready;
            std::uint8_t buf[48];
            auto &log = client_logs[static_cast<std::size_t>(c)];
            for (int iter = 0; iter < 200000 && !conns.empty(); ++iter) {
                const int n = k.epollWait(ep, ready, 3, 400'000);
                record(log, n, ready);
                for (int i = 0; i < n; ++i) {
                    const int fd = ready[static_cast<std::size_t>(i)];
                    Conn &conn = conns[fd];
                    const std::int64_t r = k.recv(fd, buf, sizeof(buf));
                    if (r == 0) { // server closed after our shutdown
                        k.close(fd);
                        conns.erase(fd);
                        continue;
                    }
                    if (r < 0)
                        continue;
                    rx[fd] += static_cast<std::uint64_t>(r);
                    conn.got += static_cast<std::uint64_t>(r);
                    if (conn.got < conn.resp)
                        continue;
                    ++conn.round;
                    if (conn.round == kRounds) {
                        k.shutdown(fd);
                    } else if (conn.round == 2 && conn.j % 5 == 0) {
                        k.close(fd); // abrupt close mid-run
                        conns.erase(fd);
                    } else {
                        request(conn);
                    }
                }
            }
            k.close(ep);
        });
    }
    engine.run();

    Digest d;
    d.addSamples("kern.s0.waits", s0_log);
    d.addSamples("kern.s1.waits", s1_log);
    d.addSamples("kern.inner.waits", inner_log);
    for (int c = 0; c < kClients; ++c)
        d.addSamples("kern.client" + std::to_string(c) + ".waits",
                     client_logs[static_cast<std::size_t>(c)]);
    for (const auto &[fd, n] : rx)
        d.add("kern.rx." + std::to_string(fd), n);
    for (const auto &[fd, n] : tx)
        d.add("kern.tx." + std::to_string(fd), n);
    d.add("kern.closedByServers",
          static_cast<std::uint64_t>(closed_by_servers));
    d.add("kern.datagrams", static_cast<std::uint64_t>(datagrams));
    for (int c = 0; c < engine.numCores(); ++c)
        d.add("core" + std::to_string(c) + ".clock", engine.coreNow(c));
    d.add("decisions", engine.decisions());
    if (kernel_out)
        kernel_out(k);
    return d;
}

} // namespace hc::dtest

#endif // HC_TESTS_DETERMINISM_SCENARIOS_HH

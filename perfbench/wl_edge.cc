/**
 * @file
 * edge_calls: the Table 1 / Fig 3 edge calls on a benchmark-owned
 * microbenchmark enclave, with the AEX model armed and the paper's
 * Section 3.1 methodology (measure::measureOp / measureOracleOp).
 *
 * Phases, in order, on one machine:
 *  1. SDK warm ecall (Table 1 row 1, anchor 8,640 cycles),
 *  2. SDK ecall with a 2 KiB in&out buffer (row 3, 10,827),
 *  3. SDK ocall with a 2 KiB to&from buffer (row 6, 9,801),
 *  4. HotCallService HotEcall ping-pong, then HotOcall ping-pong,
 *  5. a HotQueue (HotEcall, 8 slots, responders on cores 1-2) driven
 *     by 4 requester fibers.
 *
 * This is the one workload whose channels the benchmark owns, so it
 * is where HotCallStats, HotQueueStats and the measure methodology
 * are read. The Table 1 rows are calibration anchors, so paper_err_pct
 * here checks that calibration still holds.
 *
 * Output checks: every buffer call round-trips a value the callee
 * derived from the caller's bytes, and every hot call returns a + b.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "bench.hh"
#include "hotcalls/hotcall.hh"
#include "hotcalls/hotqueue.hh"
#include "measure/measure.hh"
#include "mem/buffer.hh"
#include "mem/machine.hh"
#include "sdk/runtime.hh"
#include "sgx/platform.hh"

namespace perfbench {

namespace {

using namespace hc;

const char *kEdgeEdl = R"EDL(
enclave {
    trusted {
        public void ecall_empty();
        public void ecall_buf_inout([in, out, size=len] uint8_t* buf,
                                    size_t len);
        public uint64_t ecall_add(uint64_t a, uint64_t b);
        public void ecall_run_bench(uint64_t which);
    };
    untrusted {
        void ocall_buf_tofrom([in, out, size=len] uint8_t* buf,
                              size_t len);
        uint64_t ocall_add(uint64_t a, uint64_t b);
    };
};
)EDL";

constexpr double kPaperWarmEcall = 8'640;
constexpr double kPaperEcallInOut = 10'827;
constexpr double kPaperOcallToFrom = 9'801;

constexpr std::uint64_t kBufBytes = 2048;
/** Calls per batch of every measured phase (10 batches each). */
constexpr int kRunsPerBatch = 2'000;
constexpr int kQueueRequesters = 4;
constexpr int kQueueCallsEach = 5'000;

/** The callee's transform of a buffer: tail word := f(head word). */
std::uint64_t
bufferTransform(std::uint64_t head)
{
    return head * 0x9e3779b97f4a7c15ull + 1;
}

void
transformInPlace(std::uint8_t *data, std::uint64_t len)
{
    std::uint64_t head = 0;
    std::memcpy(&head, data, sizeof(head));
    const std::uint64_t tail = bufferTransform(head);
    std::memcpy(data + len - sizeof(tail), &tail, sizeof(tail));
}

/** Caller side of one buffer round trip's check. */
struct BufferProbe {
    mem::Buffer &buf;
    std::uint64_t next = 1;

    void arm()
    {
        std::memcpy(buf.data(), &next, sizeof(next));
        std::memset(buf.data() + buf.size() - 8, 0, 8);
    }
    bool verify()
    {
        std::uint64_t tail = 0;
        std::memcpy(&tail, buf.data() + buf.size() - 8, sizeof(tail));
        return tail == bufferTransform(next++);
    }
};

/** Phase timing: host seconds and calls issued. */
struct PhaseClock {
    double hostSeconds = 0;
    double calls = 0;
    double nsPerCall() const
    {
        return calls > 0 ? hostSeconds * 1e9 / calls : 0;
    }
};

} // anonymous namespace

RepOutcome
runEdgeCalls(const RepArgs &args)
{
    Tracer &tr = *args.tracer;
    RepOutcome out;
    const double rep_start = hostNow();
    const int rep_span = tr.begin("rep", "bench");

    mem::MachineConfig mc;
    mc.engine.numCores = 8;
    mc.engine.seed = args.seed;
    // One OS tick every ~7M cycles: the paper's ~200-300 AEX events
    // per 200,000 enclave-bound measurements.
    mc.engine.interruptMeanCycles = 7'000'000;

    std::unique_ptr<mem::Machine> machine;
    std::unique_ptr<sgx::SgxPlatform> platform;
    std::unique_ptr<sdk::EnclaveRuntime> runtime;
    std::unique_ptr<hotcalls::HotCallService> hot_ecalls, hot_ocalls;
    std::unique_ptr<hotcalls::HotQueue> queue;
    std::function<void()> in_enclave;
    {
        Tracer::Scope s(tr, "Machine", "mem");
        machine = std::make_unique<mem::Machine>(mc);
    }
    {
        Tracer::Scope s(tr, "SgxPlatform", "sgx");
        platform = std::make_unique<sgx::SgxPlatform>(*machine);
        platform->installAexHandler();
    }
    {
        Tracer::Scope s(tr, "EnclaveRuntime", "sdk");
        runtime = std::make_unique<sdk::EnclaveRuntime>(
            *platform, "edge", kEdgeEdl, 8);
        auto add = [](edl::StagedCall &c) {
            c.setRetval(c.scalar(0) + c.scalar(1));
        };
        auto transform = [](edl::StagedCall &c) {
            transformInPlace(c.data(0), c.size(0));
        };
        runtime->registerEcall("ecall_empty", [](edl::StagedCall &) {});
        runtime->registerEcall("ecall_buf_inout", transform);
        runtime->registerEcall("ecall_add", add);
        runtime->registerEcall("ecall_run_bench",
                               [&in_enclave](edl::StagedCall &) {
                                   in_enclave();
                               });
        runtime->registerOcall("ocall_buf_tofrom", transform);
        runtime->registerOcall("ocall_add", add);
    }
    {
        Tracer::Scope s(tr, "channels", "hotcalls");
        hot_ecalls = std::make_unique<hotcalls::HotCallService>(
            *runtime, hotcalls::Kind::HotEcall, 1);
        hot_ocalls = std::make_unique<hotcalls::HotCallService>(
            *runtime, hotcalls::Kind::HotOcall, 2);
        hotcalls::HotQueueConfig qc;
        qc.numSlots = 8;
        qc.responderCores = {1, 2};
        queue = std::make_unique<hotcalls::HotQueue>(
            *runtime, hotcalls::Kind::HotEcall, qc);
    }

    auto &rt = *runtime;
    auto &plat = *platform;
    auto &engine = machine->engine();
    measure::MeasureConfig config;
    config.runsPerBatch = kRunsPerBatch;

    measure::MeasureResult warm, inout, tofrom, hot_e, hot_o;
    PhaseClock warm_clock, inout_clock, hot_clock;
    std::uint64_t checked = 0, bad = 0;
    LayerCounters before, after;
    Cycles c0 = 0, c1 = 0;
    std::uint64_t ecalls0 = 0, ocalls0 = 0, ecalls1 = 0, ocalls1 = 0;
    double h_window = 0;

    auto run_in_enclave = [&](std::function<void()> body) {
        in_enclave = std::move(body);
        rt.ecall("ecall_run_bench", {edl::Arg::value(0)});
        in_enclave = nullptr;
    };
    auto sum = [](const std::vector<std::uint64_t> &v) {
        std::uint64_t total = 0;
        for (auto x : v)
            total += x;
        return total;
    };
    auto check = [&](bool ok) {
        ++checked;
        if (!ok)
            ++bad;
    };
    auto timed = [&](const char *name, const char *layer,
                     PhaseClock *clock, auto &&fn) {
        const double h0 = hostNow();
        {
            Tracer::Scope s(tr, name, layer);
            fn();
            applySlowdown(args, h0);
        }
        const double seconds = hostNow() - h0;
        out.slices.push_back(seconds);
        if (clock)
            clock->hostSeconds += seconds;
    };
    const double runs =
        static_cast<double>(config.batches) * config.runsPerBatch;

    engine.spawn("bench", 0, [&] {
        out.setupHost = hostNow() - rep_start;
        if (!args.window) {
            engine.stop();
            return;
        }
        before = LayerCounters::take(*machine, plat);
        ecalls0 = sum(rt.ecallCounts());
        ocalls0 = sum(rt.ocallCounts());
        c0 = machine->now();
        const double h0 = hostNow();
        const int window_span = tr.begin("window", "sim");

        const int empty_id = rt.ecallId("ecall_empty");
        timed("phase.sdk_warm_ecall", "sdk", &warm_clock, [&] {
            warm = measure::measureOp(
                plat,
                [&] {
                    Tracer::Scope s(tr, "runtime.ecall", "sdk");
                    rt.ecall(empty_id, {});
                },
                config);
        });
        warm_clock.calls = runs;

        mem::Buffer ubuf(*machine, mem::Domain::Untrusted, kBufBytes);
        BufferProbe uprobe{ubuf};
        const int inout_id = rt.ecallId("ecall_buf_inout");
        const edl::Args uargs = {edl::Arg::buffer(ubuf),
                                 edl::Arg::value(kBufBytes)};
        timed("phase.sdk_ecall_2k_inout", "edl", &inout_clock, [&] {
            inout = measure::measureOp(
                plat,
                [&] {
                    uprobe.arm();
                    {
                        Tracer::Scope s(tr, "runtime.ecall", "edl");
                        rt.ecall(inout_id, uargs);
                    }
                    check(uprobe.verify());
                },
                config);
        });
        inout_clock.calls = runs;

        mem::Buffer ebuf(*machine, mem::Domain::Epc, kBufBytes);
        BufferProbe eprobe{ebuf};
        const int tofrom_id = rt.ocallId("ocall_buf_tofrom");
        const edl::Args eargs = {edl::Arg::buffer(ebuf),
                                 edl::Arg::value(kBufBytes)};
        timed("phase.sdk_ocall_2k_tofrom", "edl", nullptr, [&] {
            run_in_enclave([&] {
                tofrom = measure::measureOracleOp(
                    plat,
                    [&] {
                        eprobe.arm();
                        {
                            Tracer::Scope s(tr, "runtime.ocall", "edl");
                            rt.ocall(tofrom_id, eargs);
                        }
                        check(eprobe.verify());
                    },
                    config);
            });
        });

        const int add_e = rt.ecallId("ecall_add");
        const int add_o = rt.ocallId("ocall_add");
        std::uint64_t a = args.seed;
        // The responders start here, not in set-up: their polling
        // would otherwise share the host with the SDK phases.
        timed("phase.hotcall_start", "hotcalls", nullptr, [&] {
            hot_ecalls->start();
            hot_ocalls->start();
        });
        timed("phase.hotcall_pingpong", "hotcalls", &hot_clock, [&] {
            hot_e = measure::measureOp(
                plat,
                [&] {
                    ++a;
                    std::uint64_t r = 0;
                    {
                        Tracer::Scope s(tr, "HotCallService::call",
                                        "hotcalls");
                        r = hot_ecalls->call(
                            add_e, {edl::Arg::value(a),
                                    edl::Arg::value(7)});
                    }
                    check(r == a + 7);
                },
                config);
            run_in_enclave([&] {
                hot_o = measure::measureOracleOp(
                    plat,
                    [&] {
                        ++a;
                        std::uint64_t r = 0;
                        {
                            Tracer::Scope s(tr, "HotCallService::call",
                                            "hotcalls");
                            r = hot_ocalls->call(
                                add_o, {edl::Arg::value(a),
                                        edl::Arg::value(9)});
                        }
                        check(r == a + 9);
                    },
                    config);
            });
        });
        hot_clock.calls = 2 * runs;
        hot_ecalls->stop();
        hot_ocalls->stop();

        // HotQueue: 4 requester fibers on cores 3-6 share the ring.
        timed("phase.hotqueue", "hotcalls", nullptr, [&] {
            queue->start();
            sim::WaitQueue all_done;
            int finished = 0;
            const int phase_span =
                tr.begin("HotQueue::requesters", "hotcalls");
            for (int r = 0; r < kQueueRequesters; ++r) {
                engine.spawn(
                    "requester" + std::to_string(r), 3 + r, [&, r] {
                        for (int i = 0; i < kQueueCallsEach; ++i) {
                            const std::uint64_t x =
                                static_cast<std::uint64_t>(r) << 32 |
                                static_cast<std::uint64_t>(i);
                            std::uint64_t got = 0;
                            {
                                Tracer::Scope s(tr, "HotQueue::call",
                                                "hotcalls", phase_span);
                                got = queue->call(
                                    add_e, {edl::Arg::value(x),
                                            edl::Arg::value(11)});
                            }
                            check(got == x + 11);
                        }
                        if (++finished == kQueueRequesters)
                            engine.notifyAll(all_done);
                    });
            }
            while (finished < kQueueRequesters)
                engine.wait(all_done);
            tr.end(phase_span);
            queue->stop();
        });

        tr.end(window_span);
        h_window = hostNow() - h0;
        c1 = machine->now();
        after = LayerCounters::take(*machine, plat);
        ecalls1 = sum(rt.ecallCounts());
        ocalls1 = sum(rt.ocallCounts());
        engine.stop();
    });
    {
        Tracer::Scope s(tr, "Engine::run", "sim");
        engine.run();
    }

    if (args.window) {
        out.windowHost = h_window;
        out.windowSim = cyclesToSeconds(c1 - c0);
        const double m_warm = warm.samples.median();
        const double m_inout = inout.samples.median();
        const double m_tofrom = tofrom.samples.median();
        out.paperErrPct = (errPct(m_warm, kPaperWarmEcall) +
                           errPct(m_inout, kPaperEcallInOut) +
                           errPct(m_tofrom, kPaperOcallToFrom)) /
                          3.0;

        const auto &se = hot_ecalls->stats();
        const auto &so = hot_ocalls->stats();
        const auto &sq = queue->stats();
        const double hot_calls =
            static_cast<double>(se.calls + so.calls + sq.calls);
        const double polls = static_cast<double>(
            se.responderPolls + so.responderPolls + sq.responderPolls);
        // Hot dispatches land in the runtime's counters too; the SDK
        // path is what remains (fallbacks go through the SDK).
        const double sdk_ecalls =
            static_cast<double>(ecalls1 - ecalls0) -
            static_cast<double>(se.calls + sq.calls);
        const double sdk_ocalls =
            static_cast<double>(ocalls1 - ocalls0) -
            static_cast<double>(so.calls);
        double samples = 0, discarded = 0;
        for (const auto *r : {&warm, &inout, &tofrom, &hot_e, &hot_o}) {
            samples += static_cast<double>(r->samples.count());
            discarded += static_cast<double>(r->discardedAex);
        }

        auto &sim = out.sim;
        sim.push_back({"sdk.ecalls", sdk_ecalls, "count"});
        sim.push_back({"sdk.ocalls", sdk_ocalls, "count"});
        sim.push_back({"sdk.sim_cycles_per_ecall", m_warm, "cycles"});
        sim.push_back({"edl.sim_cycles_per_2k_inout", m_inout,
                       "cycles"});
        sim.push_back({"edl.sim_cycles_per_2k_tofrom", m_tofrom,
                       "cycles"});
        sim.push_back({"hotcalls.calls", hot_calls, "count"});
        sim.push_back({"hotcalls.fallbacks",
                       static_cast<double>(se.fallbacks + so.fallbacks +
                                           sq.fallbacks),
                       "count"});
        sim.push_back({"hotcalls.timeout_attempts",
                       static_cast<double>(se.timeoutAttempts +
                                           so.timeoutAttempts +
                                           sq.timeoutAttempts),
                       "count"});
        sim.push_back({"hotcalls.responder_polls", polls, "count"});
        sim.push_back({"hotcalls.polls_per_call",
                       hot_calls > 0 ? polls / hot_calls : 0,
                       "polls/call"});
        sim.push_back({"hotcalls.mean_batch", sq.batchSize.mean(),
                       "calls"});
        sim.push_back({"hotcalls.sim_cycles_per_call",
                       hot_e.samples.median(), "cycles"});
        sim.push_back({"hotcalls.sim_cycles_per_hot_ocall",
                       hot_o.samples.median(), "cycles"});
        sim.push_back({"hotcalls.hot_share",
                       hot_calls / (hot_calls +
                                    static_cast<double>(
                                        se.fallbacks + so.fallbacks +
                                        sq.fallbacks)),
                       "ratio"});
        sim.push_back({"measure.aex_discard_ratio",
                       discarded / (samples + discarded), "ratio"});
        before.appendDeltas(after, sim);
        sim.push_back({"sim.window_cycles",
                       static_cast<double>(c1 - c0), "cycles"});

        out.host.push_back({"sdk.host_ns_per_ecall",
                            warm_clock.nsPerCall(), "ns"});
        out.host.push_back({"edl.host_ns_per_2k_inout",
                            inout_clock.nsPerCall(), "ns"});
        out.host.push_back({"hotcalls.host_ns_per_call",
                            hot_clock.nsPerCall(), "ns"});

        const double expected =
            2 * runs + 2 * runs + kQueueRequesters * kQueueCallsEach;
        char detail[128];
        std::snprintf(detail, sizeof(detail), "checked=%llu bad=%llu",
                      static_cast<unsigned long long>(checked),
                      static_cast<unsigned long long>(bad));
        out.checks.push_back({"edge_results",
                              bad == 0 && static_cast<double>(checked) ==
                                              expected,
                              detail});
        out.attempted = checked;
        out.failed = bad;
        if (static_cast<double>(checked) != expected)
            out.failed = checked;
    }

    {
        Tracer::Scope s(tr, "teardown", "bench");
        queue.reset();
        hot_ocalls.reset();
        hot_ecalls.reset();
        runtime.reset();
        platform.reset();
        machine.reset();
    }
    tr.end(rep_span);
    out.totalHost = hostNow() - rep_start;
    return out;
}

} // namespace perfbench

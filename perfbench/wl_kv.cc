/**
 * @file
 * kv_hot and kv_sdk: the memcached-like KvCache under the memtier
 * closed loop (4 threads x 50 connections, 2 KiB values, SET:GET 1:1)
 * on the paper's 8-core machine with the AEX model armed.
 *
 *  - kv_hot is the Fig 10 `sgx+hotcalls+nrz` bar on the legacy data
 *    plane (fastPath = 0): read and sendmsg ride the ocall HotQueue,
 *    RunEnclaveFunction the ecall HotQueue.
 *  - kv_sdk is the `sgx` bar: every edge call takes the SDK path.
 *
 * Output checks: every request the client completed was served, and
 * no more than one per connection is still in flight
 * (completed <= served <= completed + 200), and the window obeys
 * Little's law for 200 closed-loop connections. The payload bytes are
 * not verified: MemtierClient::corrupted() is never incremented by
 * the client, so it is not used as a check.
 *
 * memtier seeds its own key stream (0xbeef0000 + thread index), so
 * the benchmark seed varies the engine's draws (interrupt arrivals,
 * cold-miss jitter, responder hiccups) but not the keys.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "apps/kvcache.hh"
#include "bench.hh"
#include "mem/machine.hh"
#include "os/kernel.hh"
#include "port/port.hh"
#include "sgx/platform.hh"
#include "workloads/memtier.hh"

namespace perfbench {

namespace {

using namespace hc;

/** Paper Fig 10 anchors, requests/s. */
constexpr double kPaperHotNrz = 185'000;
constexpr double kPaperSgx = 66'500;

/** Closed-loop connections (memtier: 4 threads x 50). */
constexpr double kConnections = 200;
/** Little's-law tolerance: |mean latency x throughput / 200 - 1|. */
constexpr double kLittleTolerance = 0.05;
/** Equal simulated sub-windows the window is timed in. */
constexpr int kSlices = 10;

struct KvShape {
    port::Mode mode;
    bool nrz;
    double paperReqPerSec;
    double warmupSec;
    double windowSec;
};

const std::set<std::string> kHotOcalls = {"ocall_read", "ocall_sendmsg"};
/** Table 2 names of the hot-eligible calls (callCounts() keys). */
const std::set<std::string> kHotEligible = {"read", "sendmsg",
                                            "RunEnclaveFucntion"};

double
sumCounts(const std::vector<std::uint64_t> &counts)
{
    double total = 0;
    for (auto c : counts)
        total += static_cast<double>(c);
    return total;
}

RepOutcome
runKv(const RepArgs &args, const KvShape &shape)
{
    Tracer &tr = *args.tracer;
    RepOutcome out;
    const double rep_start = hostNow();
    const int rep_span = tr.begin("rep", "bench");

    mem::MachineConfig mc;
    mc.engine.numCores = 8;
    mc.engine.seed = args.seed;
    mc.engine.interruptMeanCycles = 7'000'000;

    port::PortConfig pc;
    pc.mode = shape.mode;
    pc.marshal.noRedundantZeroing = shape.nrz;
    pc.fastPath = 0;
    pc.hotOcallCore = 2;
    pc.hotEcallCore = 1;
    pc.extraHotOcallCores = {5};
    pc.hotOcalls = kHotOcalls;

    std::unique_ptr<mem::Machine> machine;
    std::unique_ptr<sgx::SgxPlatform> platform;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<port::PortedApp> app;
    std::unique_ptr<apps::KvCacheServer> server;
    std::unique_ptr<workloads::MemtierClient> client;
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
        Tracer::Scope s(tr, "Kernel", "os");
        kernel = std::make_unique<os::Kernel>(*machine);
    }
    {
        // Builds the enclave: ECREATE, EADD/EEXTEND, EINIT.
        Tracer::Scope s(tr, "PortedApp", "port");
        app = std::make_unique<port::PortedApp>(*platform, *kernel,
                                                "memcached", pc);
        app->declareImports({"read", "sendmsg", "epoll_wait", "close",
                             "accept", "time"});
    }
    {
        Tracer::Scope s(tr, "KvCacheServer", "apps");
        server = std::make_unique<apps::KvCacheServer>(*app);
    }
    {
        Tracer::Scope s(tr, "MemtierClient", "workloads");
        client = std::make_unique<workloads::MemtierClient>(
            *kernel, server->listenPort());
    }

    auto &engine = machine->engine();
    std::uint64_t done0 = 0, done1 = 0, served1 = 0;
    Cycles c0 = 0, c1 = 0;
    LayerCounters before, after;
    std::map<std::string, std::uint64_t> calls;
    double lat_mean = 0, lat_p50 = 0, lat_p99 = 0;
    std::size_t lat_n = 0;

    engine.spawn("bench", 7, [&] {
        {
            Tracer::Scope s(tr, "startHotCalls", "hotcalls");
            app->startHotCalls();
        }
        {
            Tracer::Scope s(tr, "KvCacheServer::start", "apps");
            server->start(0);
        }
        {
            Tracer::Scope s(tr, "MemtierClient::start", "workloads");
            client->start(4);
        }
        {
            Tracer::Scope s(tr, "warmup", "sim");
            engine.sleepFor(secondsToCycles(shape.warmupSec));
        }
        out.setupHost = hostNow() - rep_start;
        if (args.window) {
            app->resetCounters();
            client->recordLatencies(true);
            before = LayerCounters::take(*machine, *platform);
            done0 = client->completed();
            c0 = machine->now();
            const double h0 = hostNow();
            {
                Tracer::Scope s(tr, "window", "sim");
                const Cycles slice =
                    secondsToCycles(shape.windowSec / kSlices);
                for (int i = 0; i < kSlices; ++i) {
                    const double hs = hostNow();
                    engine.sleepFor(slice);
                    applySlowdown(args, hs);
                    out.slices.push_back(hostNow() - hs);
                }
            }
            out.windowHost = hostNow() - h0;
            c1 = machine->now();
            done1 = client->completed();
            served1 = server->requestsServed();
            after = LayerCounters::take(*machine, *platform);
            calls = app->callCounts();
            if (!client->latencies().empty()) {
                const auto &lat = client->latencies();
                lat_n = lat.count();
                lat_mean = lat.mean();
                lat_p50 = lat.percentile(50);
                lat_p99 = lat.percentile(99);
            }
        }
        client->stop();
        server->stop();
        app->stopHotCalls();
        engine.stop();
    });
    {
        Tracer::Scope s(tr, "Engine::run", "sim");
        engine.run();
    }

    if (args.window) {
        const double sim_s = cyclesToSeconds(c1 - c0);
        const double reqs = static_cast<double>(done1 - done0);
        const double thr = reqs / sim_s;
        const double mean_s = cyclesToSeconds(
            static_cast<Cycles>(std::llround(lat_mean)));
        const double little = mean_s * thr / kConnections;
        out.windowSim = sim_s;
        out.paperErrPct = errPct(thr, shape.paperReqPerSec);

        // SDK-path vs hot-path split, from the public counters. Hot
        // calls and SDK calls land in the same runtime counters, so
        // the only SDK-path hot-eligible calls visible from outside
        // are Sentinel sheds and fault-plan reroutes (timeout
        // fallbacks stay inside PortedApp's private channels).
        const auto &rt = app->runtime();
        double all_calls = 0, hot_eligible = 0;
        for (const auto &[name, n] : calls) {
            all_calls += static_cast<double>(n);
            if (kHotEligible.count(name))
                hot_eligible += static_cast<double>(n);
        }
        const bool hot = shape.mode == port::Mode::SgxHotCalls;
        const double visible_sdk =
            static_cast<double>(after.sheds - before.sheds) +
            static_cast<double>(app->forcedFallbacks());
        const double hot_calls = hot ? hot_eligible - visible_sdk : 0;
        const double ecalls = sumCounts(rt.ecallCounts());
        const double ocalls = sumCounts(rt.ocallCounts());
        const double run_fn =
            calls.count("RunEnclaveFucntion")
                ? static_cast<double>(calls.at("RunEnclaveFucntion"))
                : 0;
        double sdk_ecalls = ecalls, sdk_ocalls = ocalls;
        if (hot) {
            sdk_ecalls = ecalls - run_fn;
            sdk_ocalls = ocalls - (hot_eligible - run_fn) + visible_sdk;
        }

        auto &sim = out.sim;
        sim.push_back({"workloads.requests", reqs, "count"});
        sim.push_back({"workloads.sim_req_per_s", thr, "1/s"});
        sim.push_back({"workloads.sim_latency_p50_ms",
                       cyclesToMillis(static_cast<Cycles>(lat_p50)),
                       "ms"});
        sim.push_back({"workloads.sim_latency_p99_ms",
                       cyclesToMillis(static_cast<Cycles>(lat_p99)),
                       "ms"});
        sim.push_back({"workloads.latency_samples",
                       static_cast<double>(lat_n), "count"});
        sim.push_back({"workloads.little_ratio", little, "ratio"});
        sim.push_back({"apps.requests_served",
                       static_cast<double>(served1), "count"});
        sim.push_back({"port.calls_per_req", all_calls / reqs,
                       "calls/req"});
        for (const auto &[name, n] : calls)
            sim.push_back({"port.calls." + name,
                           static_cast<double>(n), "count"});
        sim.push_back({"sdk.ecalls", sdk_ecalls, "count"});
        sim.push_back({"sdk.ocalls", sdk_ocalls, "count"});
        sim.push_back({"hotcalls.calls", hot_calls, "count"});
        sim.push_back({"hotcalls.fallbacks", hot ? visible_sdk : 0,
                       "count"});
        sim.push_back({"hotcalls.hot_share",
                       hot_eligible > 0 ? hot_calls / hot_eligible : 0,
                       "ratio"});
        before.appendDeltas(after, sim);
        sim.push_back({"sim.window_cycles",
                       static_cast<double>(c1 - c0), "cycles"});

        const bool in_flight_ok =
            done1 <= served1 &&
            static_cast<double>(served1 - done1) <= kConnections;
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "completed=%llu served=%llu",
                      static_cast<unsigned long long>(done1),
                      static_cast<unsigned long long>(served1));
        out.checks.push_back({"served_vs_completed", in_flight_ok,
                              detail});
        const bool little_ok =
            std::fabs(little - 1.0) <= kLittleTolerance;
        std::snprintf(detail, sizeof(detail),
                      "little_ratio=%.4f tolerance=%.2f", little,
                      kLittleTolerance);
        out.checks.push_back({"little_law", little_ok, detail});
        const bool progress_ok = done1 > done0;
        out.checks.push_back({"window_progress", progress_ok, ""});

        out.attempted = done1 - done0;
        if (!(in_flight_ok && little_ok && progress_ok))
            out.failed = out.attempted;
    }

    {
        Tracer::Scope s(tr, "teardown", "bench");
        client.reset();
        server.reset();
        app.reset();
        kernel.reset();
        platform.reset();
        machine.reset();
    }
    tr.end(rep_span);
    out.totalHost = hostNow() - rep_start;
    return out;
}

} // anonymous namespace

RepOutcome
runKvHot(const RepArgs &args)
{
    return runKv(args, {port::Mode::SgxHotCalls, true, kPaperHotNrz,
                        0.04, 0.05});
}

RepOutcome
runKvSdk(const RepArgs &args)
{
    return runKv(args,
                 {port::Mode::Sgx, false, kPaperSgx, 0.1, 0.4});
}

} // namespace perfbench

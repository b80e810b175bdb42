/**
 * @file
 * HotQueue scaling study: multi-slot ring channels vs the paper's
 * single-line HotCall under concurrent requesters.
 *
 * Sweeps requester count x slot count x responder-pool size on the
 * HotEcall direction as google-benchmark cases (one simulated window
 * per case, Iterations(1)); every case reports
 *   sim_calls_per_s  aggregate completed calls per simulated second
 *   fallback_rate    fraction of calls that timed out to the SDK path
 *   mean_batch       mean slots served per responder batch
 * as counters, so the JSON output (--benchmark_out) is machine
 * comparable. A final phase demonstrates the adaptive pool: a
 * 4-requester burst wakes the second responder (scale-up), then a
 * single requester with think time lets the occupancy window park it
 * again (scale-down).
 *
 * Expectation: 4 requesters on a 4-slot / 2-responder HotQueue beat
 * the single-slot HotCallService by >= 2x, because the single shared
 * line serializes every requester (lock spinning plus timeout
 * fallbacks to full SDK calls), while the ring admits numSlots
 * requests in flight and the pool drains them in parallel.
 */

#include "bench/bench_common.hh"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include <benchmark/benchmark.h>

#include "hotcalls/hotqueue.hh"
#include "sdk/spinlock.hh"

using namespace hc;
using namespace hc::bench;

namespace {

/** Requester cores; driver runs on 7, responders on 1 (and 2). */
constexpr CoreId kRequesterCores[] = {3, 4, 5, 6};
Cycles g_measure_window = 2'000'000; // --window=N overrides

struct RunResult {
    double callsPerSec = 0;
    std::uint64_t calls = 0;
    std::uint64_t fallbacks = 0;
    double meanBatch = 0;
    std::uint64_t scaleUps = 0;
    std::uint64_t scaleDowns = 0;

    double fallbackRate() const
    {
        const double total =
            static_cast<double>(calls + fallbacks);
        return total > 0 ? static_cast<double>(fallbacks) / total
                         : 0.0;
    }
};

/** The comparison quoted after the sweep (4 req, 4 slots, pool 2). */
double g_base4 = 0;
double g_queue4 = 0;

/** Join @p thread from the driver fiber, charging wait time. */
void
join(sim::Engine &engine, sim::Thread *thread)
{
    while (thread->state() != sim::ThreadState::Done)
        engine.advance(sdk::kPauseCycles);
}

/**
 * Drive @p channel with @p requesters concurrent callers for one
 * measurement window. @return completed calls per simulated second.
 */
double
driveChannel(TestBed &bed, hotcalls::Channel &channel, int requesters)
{
    auto &engine = bed.machine->engine();
    const int id = bed.runtime->ecallId("ecall_empty");

    bool stop_flag = false;
    std::vector<std::uint64_t> counts(
        static_cast<std::size_t>(requesters), 0);
    std::vector<sim::Thread *> threads;
    for (int r = 0; r < requesters; ++r) {
        threads.push_back(engine.spawn(
            "requester" + std::to_string(r), kRequesterCores[r],
            [&, r] {
                while (!stop_flag) {
                    channel.call(id, {});
                    ++counts[static_cast<std::size_t>(r)];
                }
            }));
    }

    const Cycles t0 = bed.machine->now();
    engine.sleepFor(g_measure_window);
    stop_flag = true;
    for (auto *t : threads)
        join(engine, t);
    const double seconds = cyclesToSeconds(bed.machine->now() - t0);

    std::uint64_t total = 0;
    for (auto c : counts)
        total += c;
    // A degenerate window (--window=0) must not divide by zero.
    return seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
}

/** One sweep point: a HotQueue with the given geometry. */
RunResult
runHotQueue(int requesters, int slots, int pool)
{
    TestBed bed(/*with_interrupts=*/false);
    auto &engine = bed.machine->engine();

    hotcalls::HotQueueConfig config;
    config.numSlots = slots;
    config.responderCores = {1};
    if (pool > 1)
        config.responderCores.push_back(2);
    hotcalls::HotQueue queue(*bed.runtime, hotcalls::Kind::HotEcall,
                             config);

    RunResult result;
    engine.spawn("driver", 7, [&] {
        queue.start();
        result.callsPerSec = driveChannel(bed, queue, requesters);
        const auto &stats = queue.stats();
        result.calls = stats.calls;
        result.fallbacks = stats.fallbacks;
        result.meanBatch = stats.batchSize.mean();
        result.scaleUps = stats.scaleUps;
        result.scaleDowns = stats.scaleDowns;
        queue.stop();
        engine.stop();
    });
    engine.run();
    return result;
}

/** The paper's single-line channel as the baseline. */
RunResult
runBaseline(int requesters)
{
    TestBed bed(/*with_interrupts=*/false);
    auto &engine = bed.machine->engine();

    hotcalls::HotCallService hot(*bed.runtime,
                                 hotcalls::Kind::HotEcall, 1);

    RunResult result;
    engine.spawn("driver", 7, [&] {
        hot.start();
        result.callsPerSec = driveChannel(bed, hot, requesters);
        result.calls = hot.stats().calls;
        result.fallbacks = hot.stats().fallbacks;
        hot.stop();
        engine.stop();
    });
    engine.run();
    return result;
}

void
setCounters(benchmark::State &state, const RunResult &result)
{
    state.counters["sim_calls_per_s"] = result.callsPerSec;
    state.counters["fallback_rate"] = result.fallbackRate();
    state.counters["mean_batch"] = result.meanBatch;
}

void
BM_SingleLineHotCall(benchmark::State &state)
{
    const int requesters = static_cast<int>(state.range(0));
    RunResult result;
    for (auto _ : state)
        result = runBaseline(requesters);
    setCounters(state, result);
    if (requesters == 4)
        g_base4 = result.callsPerSec;
}

void
BM_HotQueue(benchmark::State &state)
{
    const int requesters = static_cast<int>(state.range(0));
    const int slots = static_cast<int>(state.range(1));
    const int pool = static_cast<int>(state.range(2));
    RunResult result;
    for (auto _ : state)
        result = runHotQueue(requesters, slots, pool);
    setCounters(state, result);
    if (requesters == 4 && slots == 4 && pool == 2)
        g_queue4 = result.callsPerSec;
}

BENCHMARK(BM_SingleLineHotCall)
    ->ArgNames({"req"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_HotQueue)
    ->ArgNames({"req", "slots", "pool"})
    ->ArgsProduct({{1, 2, 4}, {2, 4, 8}, {1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/**
 * The adaptive-pool demonstration: burst with 4 requesters (waking
 * the second responder), then one light requester with think time
 * (parking it again).
 */
void
runAdaptive()
{
    TestBed bed(/*with_interrupts=*/false);
    auto &engine = bed.machine->engine();
    const int id = bed.runtime->ecallId("ecall_empty");

    hotcalls::HotQueueConfig config;
    config.numSlots = 4;
    config.responderCores = {1, 2};
    hotcalls::HotQueue queue(*bed.runtime, hotcalls::Kind::HotEcall,
                             config);

    std::printf("Adaptive pool (4 slots, pool 1..2, min 1):\n");
    engine.spawn("driver", 7, [&] {
        queue.start();
        // Idle moment first, so the surplus responder parks and the
        // burst has to wake it (a scale-up).
        engine.sleepFor(100'000);

        const double burst = driveChannel(bed, queue, 4);
        std::printf("  burst   4 requesters: %8.0f calls/s, "
                    "active=%d, scale-ups=%llu\n",
                    burst, queue.activeResponders(),
                    static_cast<unsigned long long>(
                        queue.stats().scaleUps));

        // Light phase: one requester with think time between calls,
        // long enough for several occupancy windows to elapse.
        bool stop_flag = false;
        auto *light = engine.spawn("light", kRequesterCores[0], [&] {
            while (!stop_flag) {
                queue.call(id, {});
                engine.sleepFor(2'000);
            }
        });
        engine.sleepFor(2 * g_measure_window);
        stop_flag = true;
        join(engine, light);

        std::printf("  light   1 requester : active=%d, "
                    "scale-downs=%llu, parked surplus responder %s\n",
                    queue.activeResponders(),
                    static_cast<unsigned long long>(
                        queue.stats().scaleDowns),
                    queue.stats().scaleDowns > 0 ? "yes" : "NO");
        std::printf("  queue-depth histogram: %s\n",
                    queue.stats().depth.summary().c_str());
        std::printf("  batch-size  histogram: %s\n",
                    queue.stats().batchSize.summary().c_str());

        queue.stop();
        engine.stop();
    });
    engine.run();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Strip --window=N (ours) before google-benchmark sees the
    // arguments; it rejects flags it does not know.
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--window=", 9) == 0)
            g_measure_window =
                static_cast<Cycles>(std::atoll(argv[i] + 9));
        else
            passthrough.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(passthrough.size());

    std::printf("HotQueue scaling: requester count x slot count x "
                "responder pool\n(HotEcall direction, ecall_empty, "
                "%.1fms simulated window per point)\n\n",
                cyclesToMillis(g_measure_window));

    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    std::printf("\n4 requesters, 4 slots, pool 2 vs single-line "
                "hotcall: %.2fx\n\n",
                g_base4 > 0 ? g_queue4 / g_base4 : 0.0);

    runAdaptive();
    return 0;
}

/**
 * @file
 * hcbench: runs one benchmark workload and prints its metrics.
 *
 *   hcbench --workload kv_hot|kv_sdk|spec_epc|edge_calls --seed N
 *           --seconds S [--trace 0|1] [--trace-out FILE]
 *           [--slowdown F]
 *
 * The workload runs as identical reps (see bench.hh). The number of
 * reps follows from --seconds and a fixed per-workload share, so the
 * simulated work of a rep, and with it the digest, depends on the seed
 * alone. Cheap set-ups are additionally
 * sampled by set-up-only reps.
 *
 * With --trace 1 reps alternate untraced / traced (starting and
 * ending untraced); per-layer host numbers come from the traced reps,
 * and trace.overhead_pct compares traced with untraced reps.
 *
 * sim_s_per_host_s and setup_s are given in reference-host seconds:
 * host time scaled by how much slower than nominal a fixed reference
 * computation ran during the run (see perfbench/NOTES.md).
 *
 * Output, one item per line:
 *   planes ...                 resolved plane switches and build type
 *   run ... / rep ...          the run's shape and each rep's host times
 *   check NAME ok|FAIL DETAIL  output checks
 *   digest HEX                 over every simulated statistic
 *   metric NAME VALUE UNIT     end-to-end and per-layer metrics
 *   ops ATTEMPTED FAILED
 * Exit status: 0 when every check passed, 1 when one failed, 2 on a
 * usage error or a refused configuration.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "hotcalls/hotcall.hh"
#include "mem/machine.hh"

namespace {

using namespace perfbench;

struct Workload {
    const char *name;
    RepOutcome (*run)(const RepArgs &);
    /** Share of --seconds one rep accounts for: reps =
     *  round(seconds / repSeconds). Roughly one rep's measured window
     *  in host seconds on a 4-core x86-64 VM, rounded down where the
     *  workload needs more reps to filter host noise. */
    double repSeconds;
    /** Extra set-up-only reps (cheap set-ups only). */
    int setupOnlyReps;
};

const Workload kWorkloads[] = {
    {"kv_hot", &runKvHot, 4.0, 0},
    {"kv_sdk", &runKvSdk, 1.4, 0},
    {"spec_epc", &runSpecEpc, 1.7, 24},
    {"edge_calls", &runEdgeCalls, 0.5, 24},
};

/** Reference computation: runs before the first rep, how often it
 *  runs between reps, and its lower-quartile time on an uncontended
 *  4-core x86-64 VM. */
constexpr int kRefWarmRuns = 4;
constexpr double kRefEverySeconds = 0.5;
constexpr double kRefNominalSeconds = 0.032;

/** Layers that host self times are reported for. */
const char *const kLayers[] = {"bench", "mem",   "sgx",  "sdk",
                               "edl",   "hotcalls", "os", "port",
                               "apps",  "workloads", "sim"};

/** Per-layer metrics every workload reports (0 where the workload
 *  does not exercise or cannot observe the quantity). */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"sim.host_ns_per_sim_us", "ns/us"},
    {"sim.interrupts", "count"},
    {"mem.llc_hits", "count"},
    {"mem.llc_misses", "count"},
    {"mem.llc_miss_ratio", "ratio"},
    {"mem.mee_node_hits", "count"},
    {"mem.mee_node_misses", "count"},
    {"mem.host_s_mcf", "s"},
    {"mem.host_s_libq", "s"},
    {"mem.host_s_astar", "s"},
    {"sgx.aex", "count"},
    {"sgx.epc_faults", "count"},
    {"sgx.epc_evictions", "count"},
    {"sdk.ecalls", "count"},
    {"sdk.ocalls", "count"},
    {"sdk.sim_cycles_per_ecall", "cycles"},
    {"sdk.host_ns_per_ecall", "ns"},
    {"edl.sim_cycles_per_2k_inout", "cycles"},
    {"edl.host_ns_per_2k_inout", "ns"},
    {"hotcalls.calls", "count"},
    {"hotcalls.fallbacks", "count"},
    {"hotcalls.timeout_attempts", "count"},
    {"hotcalls.responder_polls", "count"},
    {"hotcalls.polls_per_call", "polls/call"},
    {"hotcalls.mean_batch", "calls"},
    {"hotcalls.sim_cycles_per_call", "cycles"},
    {"hotcalls.host_ns_per_call", "ns"},
    {"hotcalls.hot_share", "ratio"},
    {"guard.sheds", "count"},
    {"guard.abandons", "count"},
    {"guard.quarantines", "count"},
    {"guard.respawns", "count"},
    {"port.calls_per_req", "calls/req"},
    {"workloads.sim_req_per_s", "1/s"},
    {"workloads.sim_latency_p50_ms", "ms"},
    {"workloads.sim_latency_p99_ms", "ms"},
    {"workloads.little_ratio", "ratio"},
    {"measure.aex_discard_ratio", "ratio"},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Lower quartile (linear interpolation between order statistics). */
double
lowerQuartile(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = 0.25 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/**
 * Host seconds of one window: per slice, the lower quartile over
 * @p reps (reps simulate identical slices), summed, plus the lower
 * quartile of the untimed remainder.
 *
 * Other tenants of the host only ever slow a slice down, in bursts of
 * a second or two; the lower quartile over reps keeps those bursts out
 * of the figure, where a median still moves with how much of the run
 * they happened to cover.
 */
double
robustWindow(const std::vector<RepOutcome> &reps)
{
    if (reps.empty())
        return 0;
    double total = 0;
    for (std::size_t i = 0; i < reps.front().slices.size(); ++i) {
        std::vector<double> slice;
        for (const auto &r : reps)
            slice.push_back(r.slices.at(i));
        total += lowerQuartile(slice);
    }
    std::vector<double> rest;
    for (const auto &r : reps) {
        double sliced = 0;
        for (double x : r.slices)
            sliced += x;
        rest.push_back(r.windowHost - sliced);
    }
    return total + lowerQuartile(rest);
}

void
printMetric(const std::string &name, double value, const char *unit)
{
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hcbench: %s\nusage: hcbench --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--trace-out FILE] "
                 "[--slowdown F]\n",
                 why);
    std::exit(2);
}

const char *
onOff(bool on)
{
    return on ? "on" : "off";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload_name, trace_out;
    long long seed = -1;
    double seconds = -1, slowdown = 0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            workload_name = value;
        else if (flag == "--seed")
            seed = std::atoll(value);
        else if (flag == "--seconds")
            seconds = std::atof(value);
        else if (flag == "--trace")
            trace = std::atoi(value);
        else if (flag == "--trace-out")
            trace_out = value;
        else if (flag == "--slowdown")
            slowdown = std::atof(value);
        else
            usage(("unknown flag " + flag).c_str());
    }
    const Workload *wl = nullptr;
    for (const auto &w : kWorkloads) {
        if (workload_name == w.name)
            wl = &w;
    }
    if (!wl)
        usage("unknown or missing --workload");
    if (seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1) ||
        !(slowdown >= 0))
        usage("bad --seed, --seconds, --trace or --slowdown");

    // Pin the planes: SimCheck is cycle-neutral but multiplies host
    // time, and an assert-enabled build is not what users run.
    if (std::getenv("HC_CHECK")) {
        std::fprintf(stderr, "hcbench: refusing to run with HC_CHECK "
                             "set (SimCheck multiplies host time)\n");
        return 2;
    }
#ifndef NDEBUG
    std::fprintf(stderr, "hcbench: refusing to run a build without "
                         "NDEBUG (hc_build_type=debug)\n");
    return 2;
#endif
    {
        hc::mem::Machine probe;
        std::printf("planes fastpath=%s bulkspan=%s guard=%s check=off "
                    "build=release\n",
                    onOff(hc::hotcalls::resolveFastPath(-1)),
                    onOff(probe.memory().bulkSpanEnabled()),
                    onOff(probe.guard() != nullptr));
    }

    const int reps = std::max(
        1, static_cast<int>(std::lround(seconds / wl->repSeconds)));
    std::printf("run workload=%s seed=%lld seconds=%g trace=%d reps=%d "
                "setup_only_reps=%d\n",
                wl->name, seed, seconds, trace, reps, wl->setupOnlyReps);

    const double run_start = hostNow();
    // The reference computation runs before the first rep and after
    // every full rep, in proportion to the rep's length; its lower
    // quartile measures the host's speed during this run.
    std::vector<double> refs;
    for (int i = 0; i < kRefWarmRuns; ++i)
        refs.push_back(referenceSeconds());
    Tracer off(false);
    std::vector<RepOutcome> untraced, traced;
    // Traced reps sit between untraced ones: U T U ... T U, so a
    // traced run makes an odd number (at least 3) of reps.
    const int total_full = trace ? std::max(3, reps | 1) : reps;
    std::vector<Tracer> tracers;
    tracers.reserve(static_cast<std::size_t>(total_full / 2));
    for (int i = 0; i < total_full; ++i) {
        RepArgs args;
        args.seed = static_cast<std::uint64_t>(seed);
        args.slowdown = slowdown;
        const bool traced_rep = trace && i % 2 == 1;
        if (traced_rep) {
            tracers.emplace_back(true);
            args.tracer = &tracers.back();
            traced.push_back(wl->run(args));
        } else {
            args.tracer = &off;
            untraced.push_back(wl->run(args));
        }
        const RepOutcome &r = traced_rep ? traced.back() : untraced.back();
        // One reference run per kRefEverySeconds of rep time.
        const long ref_runs =
            std::max(1L, std::lround(r.totalHost / kRefEverySeconds));
        for (long k = 0; k < ref_runs; ++k)
            refs.push_back(referenceSeconds());
        std::printf("rep %d traced=%d setup_s=%.6f window_s=%.6f "
                    "total_s=%.6f sim_s=%.9f ref_s=%.6f\n",
                    i, traced_rep ? 1 : 0, r.setupHost, r.windowHost,
                    r.totalHost, r.windowSim, refs.back());
        std::fflush(stdout);
    }
    std::vector<double> setups;
    for (const auto &r : untraced)
        setups.push_back(r.setupHost);
    for (int i = 0; i < wl->setupOnlyReps; ++i) {
        RepArgs args;
        args.seed = static_cast<std::uint64_t>(seed);
        args.window = false;
        args.tracer = &off;
        setups.push_back(wl->run(args).setupHost);
    }

    // Output checks, plus bit-identity of every rep's simulation.
    const RepOutcome &first = untraced.front();
    const std::uint64_t digest = simDigest(first.sim);
    bool all_ok = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<const RepOutcome *> all;
    for (const auto &r : untraced)
        all.push_back(&r);
    for (const auto &r : traced)
        all.push_back(&r);
    int mismatched = 0;
    for (const auto *r : all) {
        attempted += r->attempted;
        failed += std::min(r->failed, r->attempted);
        for (const auto &c : r->checks)
            all_ok = all_ok && c.ok;
        if (simDigest(r->sim) != digest)
            ++mismatched;
    }
    for (const auto &c : first.checks)
        std::printf("check %s %s %s\n", c.name.c_str(),
                    c.ok ? "ok" : "FAIL", c.detail.c_str());
    std::printf("check reps_bit_identical %s reps=%zu mismatched=%d\n",
                mismatched ? "FAIL" : "ok", all.size(), mismatched);
    if (mismatched) {
        all_ok = false;
        failed = attempted;
    }
    if (attempted == 0) {
        all_ok = false;
        attempted = 1;
        failed = 1;
    }
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(digest));

    // End-to-end metrics (untraced reps only). Host times are given in
    // reference-host seconds: scaled by how much slower than nominal
    // the reference computation ran during this run.
    const double ref_host = lowerQuartile(refs);
    const double to_ref_host = kRefNominalSeconds / ref_host;
    const double window_host = robustWindow(untraced);
    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);
    printMetric("sim_s_per_host_s",
                first.windowSim / (window_host * to_ref_host), "s/s");
    printMetric("setup_s", median(setups) * to_ref_host, "s");
    // ru_maxrss less the reference buffer, resident throughout.
    printMetric("peak_rss_mb",
                (static_cast<double>(usage_self.ru_maxrss) * 1024.0 -
                 static_cast<double>(kReferenceBufferBytes)) /
                    (1024.0 * 1024.0),
                "MB");
    printMetric("paper_err_pct", first.paperErrPct, "%");
    printMetric("fail_ratio",
                static_cast<double>(failed) /
                    static_cast<double>(attempted),
                "ratio");

    // Per-layer metrics: simulated counts from the first rep, host
    // numbers as medians over the traced reps (untraced without
    // --trace 1).
    const std::vector<RepOutcome> &layer_reps = trace ? traced : untraced;
    std::map<std::string, double> values;
    for (const auto &s : first.sim)
        values[s.name] = s.value;
    std::map<std::string, std::vector<double>> host;
    for (const auto &r : layer_reps) {
        for (const auto &s : r.host)
            host[s.name].push_back(s.value);
    }
    for (const auto &[name, v] : host)
        values[name] = median(v);
    values["sim.host_ns_per_sim_us"] =
        robustWindow(layer_reps) * 1e9 / (first.windowSim * 1e6);
    for (const auto &[name, unit] : kPerLayer)
        printMetric(name, values.count(name) ? values[name] : 0, unit);
    // Simulated extras (digest inputs not in the fixed set).
    for (const auto &s : first.sim) {
        bool listed = false;
        for (const auto &[name, unit] : kPerLayer)
            listed = listed || s.name == name;
        if (!listed)
            printMetric(s.name, s.value, s.unit.c_str());
    }

    // Traced-run outputs: self time per layer, tracing overhead.
    std::map<std::string, std::vector<double>> self;
    std::size_t spans = 0;
    for (const auto &t : tracers) {
        const auto by_layer = t.selfSecondsByLayer();
        for (const char *layer : kLayers) {
            const auto it = by_layer.find(layer);
            self[layer].push_back(it == by_layer.end() ? 0 : it->second);
        }
        spans = std::max(spans, t.spanCount());
    }
    for (const char *layer : kLayers)
        printMetric(std::string("host.self_s.") + layer,
                    median(self[layer]), "s");
    std::vector<double> t_total, u_total;
    for (const auto &r : traced)
        t_total.push_back(r.totalHost);
    for (const auto &r : untraced)
        u_total.push_back(r.totalHost);
    const double overhead =
        trace ? (median(t_total) - median(u_total)) / median(u_total) *
                    100.0
              : 0;
    printMetric("trace.overhead_pct", overhead, "%");
    printMetric("host.reference_s", ref_host, "s");
    printMetric("host.raw_sim_s_per_host_s", first.windowSim / window_host,
                "s/s");
    printMetric("host.raw_setup_s", median(setups), "s");
    printMetric("trace.spans_per_rep", static_cast<double>(spans),
                "count");
    if (trace && !trace_out.empty()) {
        std::string events;
        std::map<std::string, std::size_t> written;
        for (std::size_t i = 0; i < tracers.size(); ++i)
            tracers[i].appendChromeEvents(events, static_cast<int>(i),
                                          run_start, written);
        if (!writeChromeTrace(trace_out, events)) {
            std::fprintf(stderr, "hcbench: cannot write %s\n",
                         trace_out.c_str());
            all_ok = false;
        }
    }
    std::printf("ops %llu %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return all_ok ? 0 : 1;
}

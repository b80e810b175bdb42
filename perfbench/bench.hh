/**
 * @file
 * Shared types of the repository benchmark runner (hcbench).
 *
 * A workload is run as a number of identical *reps*. Each rep builds
 * its own test bed from the simulator's public APIs (Machine,
 * SgxPlatform, EnclaveRuntime or PortedApp, channels, apps, load
 * generators), runs the simulated warm-up, then one measured window,
 * and tears everything down. Reps with one seed simulate exactly the
 * same thing, so their simulated statistics must agree bit for bit;
 * only the host times differ, and hcbench summarises them across reps.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"

namespace hc::mem {
class Machine;
}
namespace hc::sgx {
class SgxPlatform;
}

namespace perfbench {

/** One named value with its unit. */
struct Stat {
    std::string name;
    double value;
    std::string unit;
};

/** One output check. */
struct Check {
    std::string name;
    bool ok;
    std::string detail;
};

/** Inputs of one rep. */
struct RepArgs {
    std::uint64_t seed = 1;
    /** false: set up only (build the bed and run up to the window
     *  start), used to sample setup_s more often when it is cheap. */
    bool window = true;
    Tracer *tracer = nullptr;
    /** Slowdown hook: busy-wait this share of every measured phase's
     *  host time inside that phase (regression-detection test). */
    double slowdown = 0;
};

/** What one rep hands back. */
struct RepOutcome {
    double setupHost = 0;  //!< host s, rep start -> window start
    double windowHost = 0; //!< host s of the measured window
    /** The window's host time split into its fixed slices (phases or
     *  equal simulated sub-windows); the same slices in every rep. */
    std::vector<double> slices;
    double windowSim = 0;  //!< simulated s of the measured window
    double totalHost = 0;  //!< host s of the whole rep, teardown too
    double paperErrPct = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated statistics: a pure function of the seed. */
    std::vector<Stat> sim;
    /** Host-time measurements of single layers. */
    std::vector<Stat> host;
    std::vector<Check> checks;
};

RepOutcome runKvHot(const RepArgs &args);
RepOutcome runKvSdk(const RepArgs &args);
RepOutcome runSpecEpc(const RepArgs &args);
RepOutcome runEdgeCalls(const RepArgs &args);

/** Host seconds of a fixed reference computation. Its streaming
 *  buffer stays resident from the first call on. */
double referenceSeconds();
constexpr std::uint64_t kReferenceBufferBytes = 32ull << 20;

/** Busy-wait @p seconds of host time. */
void busyWait(double seconds);

/** Add the slowdown hook's share of a phase that began at host time
 *  @p phase_start (no-op when the share is 0). */
void applySlowdown(const RepArgs &args, double phase_start);

/** FNV-1a digest over the names and exact values of @p stats. */
std::uint64_t simDigest(const std::vector<Stat> &stats);

/**
 * Simulated counters every workload reports (LLC, MEE node cache,
 * EPC paging, AEX, interrupts, Sentinel interventions). Take one
 * snapshot at the window start and one at its end.
 */
struct LayerCounters {
    std::uint64_t llcHits = 0, llcMisses = 0;
    std::uint64_t meeHits = 0, meeMisses = 0;
    std::uint64_t epcFaults = 0, epcEvictions = 0;
    std::uint64_t aex = 0, interrupts = 0;
    std::uint64_t sheds = 0, abandons = 0, quarantines = 0,
                  respawns = 0;

    static LayerCounters take(hc::mem::Machine &machine,
                              hc::sgx::SgxPlatform &platform);

    /** Append the window deltas (@p end minus this) to @p out. */
    void appendDeltas(const LayerCounters &end,
                      std::vector<Stat> &out) const;
};

/** @return |measured - paper| / paper in percent. */
double errPct(double measured, double paper);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

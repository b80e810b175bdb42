/**
 * @file
 * Helpers shared by the benchmark workloads.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "bench.hh"
#include "mem/machine.hh"
#include "sgx/platform.hh"

namespace perfbench {

namespace {
/** Keeps the reference computation's result observable. */
volatile std::uint64_t referenceSink = 0;
} // anonymous namespace

void
busyWait(double seconds)
{
    const double until = hostNow() + seconds;
    while (hostNow() < until) {
    }
}

double
referenceSeconds()
{
    // Fixed host work in two parts: sorting and hash-map traffic
    // (branches, cache-resident data), then one read-modify-write pass
    // over 32 MiB (memory bandwidth).
    static std::vector<std::uint64_t> stream(kReferenceBufferBytes / 8);
    const double t0 = hostNow();
    std::uint64_t x = 0x2545f4914f6cdd1dull, h = 0;
    std::vector<std::uint32_t> v(1 << 16);
    std::unordered_map<std::uint32_t, std::uint32_t> map;
    for (int round = 0; round < 4; ++round) {
        for (auto &e : v) {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            e = static_cast<std::uint32_t>(x * 0x2545f4914f6cdd1dull >> 32);
        }
        std::sort(v.begin(), v.end());
        map.clear();
        for (std::size_t k = 0; k < 16384; ++k)
            map[v[k * 4] & 0xfffff] += static_cast<std::uint32_t>(k);
        for (std::size_t k = 0; k < v.size(); ++k) {
            auto it = map.find(v[k] & 0xfffff);
            h += it == map.end() ? 1 : it->second;
        }
    }
    for (auto &word : stream)
        h += ++word;
    referenceSink = h;
    return hostNow() - t0;
}

void
applySlowdown(const RepArgs &args, double phase_start)
{
    if (args.slowdown > 0)
        busyWait((hostNow() - phase_start) * args.slowdown);
}

std::uint64_t
simDigest(const std::vector<Stat> &stats)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *data, std::size_t len) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &s : stats) {
        mix(s.name.data(), s.name.size());
        std::uint64_t bits = 0;
        std::memcpy(&bits, &s.value, sizeof(bits));
        mix(&bits, sizeof(bits));
    }
    return h;
}

LayerCounters
LayerCounters::take(hc::mem::Machine &machine,
                    hc::sgx::SgxPlatform &platform)
{
    LayerCounters c;
    auto &memory = machine.memory();
    c.llcHits = memory.cache().hits();
    c.llcMisses = memory.cache().misses();
    c.meeHits = memory.mee().nodeCacheHits();
    c.meeMisses = memory.mee().nodeCacheMisses();
    c.epcFaults = platform.epc().faults();
    c.epcEvictions = platform.epc().evictions();
    c.aex = platform.aexCount();
    c.interrupts = machine.engine().interruptCount();
    if (const auto *guard = machine.guard()) {
        const auto t = guard->totals();
        c.sheds = t.sheds;
        c.abandons = t.abandons;
        c.quarantines = t.quarantines;
        c.respawns = t.respawns;
    }
    return c;
}

void
LayerCounters::appendDeltas(const LayerCounters &end,
                            std::vector<Stat> &out) const
{
    auto d = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    const double hits = d(llcHits, end.llcHits);
    const double misses = d(llcMisses, end.llcMisses);
    out.push_back({"sim.interrupts", d(interrupts, end.interrupts),
                   "count"});
    out.push_back({"mem.llc_hits", hits, "count"});
    out.push_back({"mem.llc_misses", misses, "count"});
    out.push_back({"mem.llc_miss_ratio",
                   hits + misses > 0 ? misses / (hits + misses) : 0,
                   "ratio"});
    out.push_back({"mem.mee_node_hits", d(meeHits, end.meeHits),
                   "count"});
    out.push_back({"mem.mee_node_misses", d(meeMisses, end.meeMisses),
                   "count"});
    out.push_back({"sgx.aex", d(aex, end.aex), "count"});
    out.push_back({"sgx.epc_faults", d(epcFaults, end.epcFaults),
                   "count"});
    out.push_back({"sgx.epc_evictions",
                   d(epcEvictions, end.epcEvictions), "count"});
    out.push_back({"guard.sheds", d(sheds, end.sheds), "count"});
    out.push_back({"guard.abandons", d(abandons, end.abandons),
                   "count"});
    out.push_back({"guard.quarantines", d(quarantines, end.quarantines),
                   "count"});
    out.push_back({"guard.respawns", d(respawns, end.respawns),
                   "count"});
}

double
errPct(double measured, double paper)
{
    return std::fabs(measured - paper) / paper * 100.0;
}

} // namespace perfbench

/**
 * @file
 * spec_epc: the Fig 8 SPEC-like kernels (mcf, libquantum, astar),
 * each run once with its data in the EPC and once in untrusted
 * memory, from inside an enclave on a machine with interrupts off.
 *
 * The kernels exercise the memory model (LLC, MEE tree walks) and EPC
 * paging (libquantum's 96 MiB sweep exceeds the 93 MiB EPC); there
 * are no fiber switches, so the scheduler does not enter. Paper
 * anchors are the encrypted/plain cycle ratios 1.55, 5.2 and 1.15.
 *
 * Output checks: encrypted placement is never faster than plain, and
 * the libquantum sweep pages (EPC faults > 0).
 */

#include <cstdio>
#include <functional>
#include <memory>

#include "bench.hh"
#include "mem/machine.hh"
#include "sdk/runtime.hh"
#include "sgx/platform.hh"
#include "workloads/spec.hh"

namespace perfbench {

namespace {

using namespace hc;

const char *kSpecEdl = R"EDL(
enclave {
    trusted {
        public void ecall_run_bench(uint64_t which);
    };
    untrusted {
        void ocall_empty();
    };
};
)EDL";

struct Kernel {
    const char *name;   //!< span and stat name
    const char *metric; //!< per-layer host-time metric
    double paperRatio;
    Cycles (*run)(mem::Machine &, mem::Domain,
                  const workloads::SpecConfig &);
};

const Kernel kKernels[] = {
    {"spec.mcf", "mem.host_s_mcf", 1.55, &workloads::runMcf},
    {"spec.libquantum", "mem.host_s_libq", 5.2,
     &workloads::runLibquantum},
    {"spec.astar", "mem.host_s_astar", 1.15, &workloads::runAstar},
};

} // anonymous namespace

RepOutcome
runSpecEpc(const RepArgs &args)
{
    Tracer &tr = *args.tracer;
    RepOutcome out;
    const double rep_start = hostNow();
    const int rep_span = tr.begin("rep", "bench");

    mem::MachineConfig mc;
    mc.engine.numCores = 8;
    mc.engine.seed = args.seed;
    mc.engine.interruptMeanCycles = 0;

    std::unique_ptr<mem::Machine> machine;
    std::unique_ptr<sgx::SgxPlatform> platform;
    std::unique_ptr<sdk::EnclaveRuntime> runtime;
    {
        Tracer::Scope s(tr, "Machine", "mem");
        machine = std::make_unique<mem::Machine>(mc);
    }
    {
        Tracer::Scope s(tr, "SgxPlatform", "sgx");
        platform = std::make_unique<sgx::SgxPlatform>(*machine);
        platform->installAexHandler();
    }
    std::function<void()> body;
    {
        Tracer::Scope s(tr, "EnclaveRuntime", "sdk");
        runtime = std::make_unique<sdk::EnclaveRuntime>(
            *platform, "spec", kSpecEdl, 4);
        runtime->registerEcall("ecall_run_bench",
                               [&body](edl::StagedCall &) { body(); });
        runtime->registerOcall("ocall_empty", [](edl::StagedCall &) {});
    }

    const workloads::SpecConfig spec;
    double ratios[3] = {};
    Cycles enc[3] = {}, plain[3] = {};
    std::uint64_t libq_faults = 0;
    LayerCounters before, after;
    Cycles c0 = 0, c1 = 0;

    body = [&] {
        auto &memory = machine->memory();
        for (int k = 0; k < 3; ++k) {
            const Kernel &kernel = kKernels[k];
            const double h0 = hostNow();
            Tracer::Scope s(tr, kernel.name, "workloads");
            const std::uint64_t faults0 = platform->epc().faults();
            for (const auto domain :
                 {mem::Domain::Epc, mem::Domain::Untrusted}) {
                const double hs = hostNow();
                memory.evictAll();
                const Cycles cycles = kernel.run(*machine, domain, spec);
                (domain == mem::Domain::Epc ? enc : plain)[k] = cycles;
                applySlowdown(args, hs);
                out.slices.push_back(hostNow() - hs);
            }
            if (k == 1)
                libq_faults = platform->epc().faults() - faults0;
            out.host.push_back({kernel.metric, hostNow() - h0, "s"});
        }
    };

    auto &engine = machine->engine();
    engine.spawn("bench", 0, [&] {
        out.setupHost = hostNow() - rep_start;
        if (!args.window)
            return;
        before = LayerCounters::take(*machine, *platform);
        c0 = machine->now();
        const double h0 = hostNow();
        {
            Tracer::Scope s(tr, "window", "sim");
            runtime->ecall("ecall_run_bench", {edl::Arg::value(0)});
        }
        out.windowHost = hostNow() - h0;
        c1 = machine->now();
        after = LayerCounters::take(*machine, *platform);
    });
    {
        Tracer::Scope s(tr, "Engine::run", "sim");
        engine.run();
    }

    if (args.window) {
        out.windowSim = cyclesToSeconds(c1 - c0);
        double err = 0;
        for (int k = 0; k < 3; ++k) {
            ratios[k] = static_cast<double>(enc[k]) /
                        static_cast<double>(plain[k]);
            err += errPct(ratios[k], kKernels[k].paperRatio) / 3.0;
            const std::string name = kKernels[k].name;
            out.sim.push_back({"workloads." + name + ".enc_cycles",
                               static_cast<double>(enc[k]), "cycles"});
            out.sim.push_back({"workloads." + name + ".plain_cycles",
                               static_cast<double>(plain[k]), "cycles"});
            out.sim.push_back({"workloads." + name + ".ratio", ratios[k],
                               "ratio"});
            char detail[96];
            std::snprintf(detail, sizeof(detail),
                          "encrypted/plain=%.4f", ratios[k]);
            const bool ok = enc[k] >= plain[k] && plain[k] > 0;
            out.checks.push_back({name + ".enc_not_faster", ok, detail});
            out.attempted += 2;
            if (!ok)
                out.failed += 2;
        }
        const bool paged = libq_faults > 0;
        out.checks.push_back({"spec.libquantum.pages", paged,
                              "faults=" + std::to_string(libq_faults)});
        if (!paged)
            out.failed += 2;
        out.paperErrPct = err;
        out.sim.push_back({"sdk.ecalls",
                           static_cast<double>(
                               runtime->ecallCounts()[0]),
                           "count"});
        before.appendDeltas(after, out.sim);
        out.sim.push_back({"sim.window_cycles",
                           static_cast<double>(c1 - c0), "cycles"});
    }

    {
        Tracer::Scope s(tr, "teardown", "bench");
        runtime.reset();
        platform.reset();
        machine.reset();
    }
    tr.end(rep_span);
    out.totalHost = hostNow() - rep_start;
    return out;
}

} // namespace perfbench

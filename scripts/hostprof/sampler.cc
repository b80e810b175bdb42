/**
 * @file
 * hostprof sampler: a tiny SIGPROF profiler loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time (or every kernel tick, if
 * that is coarser), the signal handler records
 * the interrupted program counter into a static buffer (nothing else:
 * no allocation, no stack walk, so it is async-signal-safe and does
 * not inflate small hot functions the way gprof's -pg does). At exit
 * the samples and the executable mappings of /proc/self/maps are
 * written to hostprof.<pid>.raw in the working directory, where
 * symbolize.py turns them into flat and per-layer self-time tables.
 *
 *   c++ -O2 -shared -fPIC -o hostprof.so sampler.cc
 *   LD_PRELOAD=$PWD/hostprof.so ./some_binary ...
 *
 * x86-64 Linux only (reads REG_RIP from the signal context).
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

namespace {

constexpr long kIntervalUs = 1000;
constexpr std::size_t kMaxSamples = 1u << 21; // ~35 min at 1 kHz

std::uintptr_t g_samples[kMaxSamples];
volatile std::size_t g_count = 0;
volatile std::size_t g_dropped = 0;

void
onProf(int, siginfo_t *, void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
    const auto pc =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    const std::size_t n = g_count;
    if (n < kMaxSamples) {
        g_samples[n] = pc;
        g_count = n + 1;
    } else {
        g_dropped = g_dropped + 1;
    }
}

void
setTimer(long interval_us)
{
    itimerval timer{};
    timer.it_interval.tv_usec = interval_us;
    timer.it_value.tv_usec = interval_us;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void
start()
{
    struct sigaction action{};
    action.sa_sigaction = &onProf;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    setTimer(kIntervalUs);
}

__attribute__((destructor)) void
finish()
{
    setTimer(0);
    timespec cpu{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    char path[64];
    std::snprintf(path, sizeof(path), "hostprof.%d.raw",
                  static_cast<int>(getpid()));
    FILE *out = std::fopen(path, "w");
    if (!out)
        return;
    // The kernel delivers ITIMER_PROF at its tick granularity, which
    // may be coarser than kIntervalUs: record the CPU time so each
    // sample's weight can be derived.
    std::fprintf(out, "hostprof 1\ncpu_s %.6f\ndropped %zu\n",
                 static_cast<double>(cpu.tv_sec) + cpu.tv_nsec / 1e9,
                 static_cast<std::size_t>(g_dropped));
    // Executable mappings, so PCs can be resolved to files.
    if (FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof(line), maps)) {
            if (std::strstr(line, " r-xp ") || std::strstr(line, " r-xs "))
                std::fprintf(out, "map %s", line);
        }
        std::fclose(maps);
    }
    const std::size_t n = g_count;
    for (std::size_t i = 0; i < n; ++i)
        std::fprintf(out, "pc %lx\n",
                     static_cast<unsigned long>(g_samples[i]));
    std::fclose(out);
}

} // anonymous namespace

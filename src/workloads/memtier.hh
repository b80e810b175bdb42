/**
 * @file
 * Memtier-style load generator for KvCache (paper §6.2).
 *
 * The paper drives memcached with memtier_benchmark: 4 client
 * threads, 50 connections each (200 total), binary protocol, 2 KiB
 * values, SET:GET = 1:1, over loopback. Each connection is closed
 * loop (one outstanding request), so measured latency follows
 * Little's law at saturation — exactly the paper's 0.63 ms at
 * 316,500 req/s (200 / 316,500).
 */

#ifndef HC_WORKLOADS_MEMTIER_HH
#define HC_WORKLOADS_MEMTIER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "os/kernel.hh"
#include "support/rng.hh"
#include "support/stats.hh"

namespace hc::workloads {

/** Memtier configuration (paper defaults). */
struct MemtierConfig {
    int threads = 4;
    int connectionsPerThread = 50;
    std::uint32_t valueSize = 2048;
    double setRatio = 0.5; //!< SET:GET = 1:1
    std::uint64_t keySpace = 60'000;
    /** Per-request client-side work (request build, bookkeeping). */
    Cycles clientWork = 400;
};

/** The closed-loop client harness. */
class MemtierClient
{
  public:
    MemtierClient(os::Kernel &kernel, int server_port,
                  MemtierConfig config = {});

    /** Spawn one fiber per client thread on consecutive cores. */
    void start(CoreId first_core);

    /** Ask all client fibers to stop. */
    void stop() { stopRequested_ = true; }

    /** @return completed requests so far (monotonic). */
    std::uint64_t completed() const { return completed_; }

    /** Response latencies, in cycles (recording can be toggled). */
    const SampleSet &latencies() const { return latencies_; }

    /** Enable/disable latency recording (off during warmup). */
    void recordLatencies(bool on) { recordLatencies_ = on; }

    /**
     * @return responses that failed verification: a non-zero status,
     * a value length that does not match the op, or a GET whose
     * echoed value fingerprint is neither the clients' payload nor,
     * for a key no completed SET has stored yet, zero. Checked on the
     * host only: verification charges no simulated cycles.
     */
    std::uint64_t corrupted() const { return corrupted_; }

  private:
    /** Response bytes kept for verification: header + fingerprint. */
    static constexpr std::size_t kCheckedBytes = 5 + 8;

    struct Connection {
        int fd = -1;
        std::uint64_t expected = 0; //!< response bytes outstanding
        std::uint64_t received = 0;
        Cycles sentAt = 0;
        bool isSet = false;
        std::uint64_t key = 0;
        /** A SET of key had completed when this GET was sent. */
        bool mustHoldValue = false;
        std::array<std::uint8_t, kCheckedBytes> head{};
    };

    void clientThread(int thread_index);
    void sendNext(Connection &conn, Rng &rng,
                  std::vector<std::uint8_t> &scratch,
                  const std::vector<std::uint8_t> &payload);

    /** @return true when @p conn's complete response verifies. */
    bool responseIntact(const Connection &conn) const;

    os::Kernel &kernel_;
    int serverPort_;
    MemtierConfig config_;
    bool stopRequested_ = false;
    bool recordLatencies_ = false;
    std::uint64_t completed_ = 0;
    std::uint64_t corrupted_ = 0;
    /** Fingerprint the server echoes for a value SET by any client. */
    std::uint64_t valueFingerprint_ = 0;
    /** Keys some completed SET has stored (one bit per key). */
    std::vector<bool> stored_;
    SampleSet latencies_;
};

} // namespace hc::workloads

#endif // HC_WORKLOADS_MEMTIER_HH

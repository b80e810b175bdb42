/**
 * @file
 * Workload tests: the SPEC-like kernels' encrypted/plain behaviour
 * and smoke runs of the load generators against their servers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "apps/kvcache.hh"
#include "support/hash.hh"
#include "workloads/memtier.hh"
#include "workloads/spec.hh"

using namespace hc;
using namespace hc::workloads;

// ----------------------------------------------------------------------
// SPEC-like kernels.
// ----------------------------------------------------------------------

namespace {

/** Small kernel sizes so tests run quickly. */
SpecConfig
smallSpec()
{
    SpecConfig config;
    config.mcfBytes = 4_MiB;
    config.mcfSteps = 20'000;
    config.libqBytes = 8_MiB;
    config.libqSweeps = 2;
    config.astarSteps = 20'000;
    return config;
}

struct SpecFixture {
    mem::Machine machine;
    sgx::SgxPlatform platform;

    SpecFixture(std::uint64_t epc_physical = 93_MiB)
        : machine([&] {
              mem::MachineConfig config;
              config.mem.epcSize = epc_physical;
              return config;
          }()),
          platform(machine)
    {
    }

    void run(std::function<void()> body)
    {
        machine.engine().spawn("test", 0, std::move(body));
        machine.engine().run();
    }
};

} // anonymous namespace

TEST(Spec, McfEncryptedIsSlower)
{
    SpecFixture f;
    f.run([&] {
        const auto config = smallSpec();
        const Cycles plain =
            runMcf(f.machine, mem::Domain::Untrusted, config);
        f.machine.memory().evictAll();
        const Cycles enc =
            runMcf(f.machine, mem::Domain::Epc, config);
        const double ratio =
            static_cast<double>(enc) / static_cast<double>(plain);
        EXPECT_GT(ratio, 1.2);
        EXPECT_LT(ratio, 2.5);
    });
}

TEST(Spec, LibquantumPagingCliff)
{
    // With the working set larger than the physical EPC, the
    // encrypted run must thrash (the paper's 5.2x); when the EPC
    // holds the whole register, the overhead collapses.
    SpecFixture thrash(4_MiB);
    double thrash_ratio = 0;
    thrash.run([&] {
        const auto config = smallSpec(); // 8 MiB > 4 MiB EPC
        const Cycles plain = runLibquantum(
            thrash.machine, mem::Domain::Untrusted, config);
        thrash.machine.memory().evictAll();
        const Cycles enc =
            runLibquantum(thrash.machine, mem::Domain::Epc, config);
        thrash_ratio =
            static_cast<double>(enc) / static_cast<double>(plain);
    });

    SpecFixture roomy(64_MiB);
    double roomy_ratio = 0;
    roomy.run([&] {
        const auto config = smallSpec(); // 8 MiB < 64 MiB EPC
        const Cycles plain = runLibquantum(
            roomy.machine, mem::Domain::Untrusted, config);
        roomy.machine.memory().evictAll();
        const Cycles enc =
            runLibquantum(roomy.machine, mem::Domain::Epc, config);
        roomy_ratio =
            static_cast<double>(enc) / static_cast<double>(plain);
    });

    EXPECT_GT(thrash_ratio, 3.0);
    EXPECT_LT(roomy_ratio, 2.5);
    EXPECT_GT(thrash_ratio, roomy_ratio + 1.0);
}

TEST(Spec, AstarMildOverhead)
{
    SpecFixture f;
    f.run([&] {
        const auto config = smallSpec();
        const Cycles plain =
            runAstar(f.machine, mem::Domain::Untrusted, config);
        f.machine.memory().evictAll();
        const Cycles enc =
            runAstar(f.machine, mem::Domain::Epc, config);
        const double ratio =
            static_cast<double>(enc) / static_cast<double>(plain);
        EXPECT_GT(ratio, 1.0);
        EXPECT_LT(ratio, 1.6);
    });
}

TEST(Spec, DeterministicForSameInputs)
{
    SpecFixture a, b;
    Cycles ca = 0, cb = 0;
    a.run([&] {
        ca = runMcf(a.machine, mem::Domain::Epc, smallSpec());
    });
    b.run([&] {
        cb = runMcf(b.machine, mem::Domain::Epc, smallSpec());
    });
    EXPECT_EQ(ca, cb);
}

// ----------------------------------------------------------------------
// Load-generator smoke test (memtier against a live KvCache).
// ----------------------------------------------------------------------

TEST(Memtier, DrivesServerAndVerifiesPayloads)
{
    mem::MachineConfig mc;
    mc.engine.numCores = 8;
    mem::Machine machine(mc);
    sgx::SgxPlatform platform(machine);
    os::Kernel kernel(machine);
    port::PortConfig pc;
    pc.mode = port::Mode::Native;
    port::PortedApp app(platform, kernel, "kv", pc);

    apps::KvCacheConfig server_config;
    server_config.numSlots = 2'000;
    apps::KvCacheServer server(app, server_config);

    MemtierConfig client_config;
    client_config.threads = 2;
    client_config.connectionsPerThread = 10;
    MemtierClient client(kernel, server.listenPort(), client_config);

    machine.engine().spawn("driver", 7, [&] {
        server.start(0);
        client.start(4);
        client.recordLatencies(true);
        machine.engine().sleepFor(secondsToCycles(0.02));
        client.stop();
        server.stop();
        machine.engine().stop();
    });
    machine.engine().run();

    EXPECT_GT(client.completed(), 100u);
    EXPECT_EQ(client.corrupted(), 0u);
    EXPECT_FALSE(client.latencies().empty());
    // Closed loop: mean latency ~ connections / throughput.
    const double throughput =
        static_cast<double>(client.completed()) / 0.02;
    const double expected_latency_cycles =
        20.0 / throughput * static_cast<double>(kCoreFreqHz);
    EXPECT_NEAR(client.latencies().mean(), expected_latency_cycles,
                expected_latency_cycles * 0.35);
}

TEST(Memtier, CountsTamperedResponses)
{
    // A one-connection stand-in for KvCache that answers 12 requests,
    // honestly on every fourth and tampered otherwise: a bad status,
    // a value length that does not match the op, or (for a GET) a
    // fingerprint of a value nobody stored.
    mem::MachineConfig mc;
    mc.engine.numCores = 8;
    mem::Machine machine(mc);
    os::Kernel kernel(machine);
    auto &engine = machine.engine();
    constexpr int kPort = 7'100;
    constexpr int kRequests = 12;
    constexpr std::uint32_t kValue = 64;

    MemtierConfig client_config;
    client_config.threads = 1;
    client_config.connectionsPerThread = 1;
    client_config.valueSize = kValue;
    MemtierClient client(kernel, kPort, client_config);

    engine.spawn("fake-server", 0, [&] {
        const int listen_fd = kernel.listenTcp(kPort);
        client.start(1);
        int fd;
        while ((fd = kernel.accept(listen_fd)) < 0)
            engine.sleepFor(1'000);
        std::set<std::uint64_t> stored;
        std::uint64_t stored_fp = 0;
        std::vector<std::uint8_t> req(512);
        std::vector<std::uint8_t> resp(apps::KvProtocol::kResponseHeader +
                                       kValue);
        for (int i = 0; i < kRequests; ++i) {
            std::int64_t n;
            while ((n = kernel.recv(fd, req.data(), req.size())) <= 0)
                engine.sleepFor(1'000);
            apps::KvOp op;
            std::uint64_t key = 0;
            std::uint32_t value_len = 0;
            ASSERT_TRUE(apps::KvProtocol::decodeRequest(
                req.data(), static_cast<std::uint64_t>(n), &op, &key,
                &value_len));
            const bool is_get = op == apps::KvOp::Get;
            if (!is_get) {
                stored.insert(key);
                stored_fp = fastHash64(
                    req.data() + apps::KvProtocol::kRequestHeader + 8,
                    std::min<std::uint32_t>(value_len, 64));
            }
            std::uint32_t resp_value = is_get ? kValue : 0;
            std::uint64_t fp = stored.count(key) ? stored_fp : 0;
            std::uint8_t status = 0;
            std::uint32_t claimed = resp_value;
            switch (i % 4) {
            case 1:
                status = 1;
                break;
            case 2:
                claimed = resp_value + 1;
                break;
            case 3:
                if (is_get)
                    fp = 0x1234;
                else
                    status = 2;
                break;
            default:
                break;
            }
            std::fill(resp.begin(), resp.end(), 0);
            resp[0] = status;
            std::memcpy(resp.data() + 1, &claimed, 4);
            if (is_get) {
                std::memcpy(resp.data() +
                                apps::KvProtocol::kResponseHeader,
                            &fp, 8);
            }
            kernel.send(fd, resp.data(),
                        apps::KvProtocol::kResponseHeader + resp_value);
        }
        engine.sleepFor(100'000);
        client.stop();
        engine.stop();
    });
    engine.run();

    EXPECT_EQ(client.completed(), static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(client.corrupted(), 9u);
}

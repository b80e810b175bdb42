/**
 * @file
 * Memtier client implementation.
 */

#include "workloads/memtier.hh"

#include <cstring>
#include <unordered_map>

#include "apps/kvcache.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace hc::workloads {

using apps::KvOp;
using apps::KvProtocol;

namespace {

/** Every SET carries valueSize copies of this byte. */
constexpr std::uint8_t kPayloadByte = 0xab;

} // anonymous namespace

MemtierClient::MemtierClient(os::Kernel &kernel, int server_port,
                             MemtierConfig config)
    : kernel_(kernel), serverPort_(server_port), config_(config),
      stored_(config_.keySpace, false)
{
    // KvCache fingerprints the first (up to) 64 bytes of a stored
    // value and echoes that in the first 8 bytes of a GET's value.
    const std::vector<std::uint8_t> head(
        std::min<std::uint32_t>(config_.valueSize, 64), kPayloadByte);
    valueFingerprint_ = fastHash64(head.data(), head.size());
}

void
MemtierClient::start(CoreId first_core)
{
    auto &engine = kernel_.machine().engine();
    for (int t = 0; t < config_.threads; ++t) {
        const CoreId core =
            (first_core + t) % engine.numCores();
        engine.spawn("memtier-" + std::to_string(t), core,
                     [this, t] { clientThread(t); });
    }
}

void
MemtierClient::sendNext(Connection &conn, Rng &rng,
                        std::vector<std::uint8_t> &scratch,
                        const std::vector<std::uint8_t> &payload)
{
    auto &engine = kernel_.machine().engine();
    engine.advance(config_.clientWork);

    const bool is_set = rng.nextDouble() < config_.setRatio;
    const std::uint64_t key = rng.nextBelow(config_.keySpace);
    const std::uint32_t value_len = is_set ? config_.valueSize : 0;
    const std::uint64_t len = KvProtocol::encodeRequest(
        scratch.data(), is_set ? KvOp::Set : KvOp::Get, key,
        payload.data(), value_len);

    conn.sentAt = kernel_.machine().now();
    conn.expected = KvProtocol::kResponseHeader +
                    (is_set ? 0 : config_.valueSize);
    conn.received = 0;
    conn.isSet = is_set;
    conn.key = key;
    conn.mustHoldValue = !is_set && stored_[key];
    const std::int64_t sent =
        kernel_.send(conn.fd, scratch.data(), len);
    if (sent < static_cast<std::int64_t>(len))
        warn("memtier: short send (%lld of %llu)",
             static_cast<long long>(sent),
             static_cast<unsigned long long>(len));
}

void
MemtierClient::clientThread(int thread_index)
{
    Rng rng(0xbeef0000 + static_cast<std::uint64_t>(thread_index));
    std::vector<std::uint8_t> scratch(config_.valueSize + 64);
    // Payload bytes live in their own buffer: encodeRequest memcpys
    // them into scratch, and src/dst must not overlap.
    const std::vector<std::uint8_t> payload(config_.valueSize,
                                            kPayloadByte);
    std::vector<std::uint8_t> recv_buf(config_.valueSize + 64);

    // Open the connection pool and issue the first request on each.
    std::vector<Connection> conns(
        static_cast<std::size_t>(config_.connectionsPerThread));
    const int epfd = kernel_.epollCreate();
    std::unordered_map<int, std::size_t> by_fd;
    for (std::size_t i = 0; i < conns.size(); ++i) {
        conns[i].fd = kernel_.connectTcp(serverPort_);
        hc_assert(conns[i].fd >= 0);
        kernel_.epollCtlAdd(epfd, conns[i].fd);
        by_fd[conns[i].fd] = i;
        sendNext(conns[i], rng, scratch, payload);
    }

    std::vector<int> ready;
    const Cycles timeout = secondsToCycles(0.001);
    while (!stopRequested_) {
        const int n = kernel_.epollWait(epfd, ready, 64, timeout);
        for (int i = 0; i < n; ++i) {
            Connection &conn =
                conns[by_fd[ready[static_cast<std::size_t>(i)]]];
            const std::int64_t got = kernel_.recv(
                conn.fd, recv_buf.data(),
                std::min<std::uint64_t>(recv_buf.size(),
                                        conn.expected -
                                            conn.received));
            if (got <= 0)
                continue;
            if (conn.received < conn.head.size()) {
                std::memcpy(conn.head.data() + conn.received,
                            recv_buf.data(),
                            std::min<std::uint64_t>(
                                static_cast<std::uint64_t>(got),
                                conn.head.size() - conn.received));
            }
            conn.received += static_cast<std::uint64_t>(got);
            if (conn.received < conn.expected)
                continue;

            // Full response: verify, account, fire the next request.
            if (!responseIntact(conn))
                ++corrupted_;
            if (conn.isSet)
                stored_[conn.key] = true;
            ++completed_;
            if (recordLatencies_) {
                latencies_.add(static_cast<double>(
                    kernel_.machine().now() - conn.sentAt));
            }
            sendNext(conn, rng, scratch, payload);
        }
    }

    for (auto &conn : conns)
        kernel_.close(conn.fd);
    kernel_.close(epfd);
}

bool
MemtierClient::responseIntact(const Connection &conn) const
{
    static_assert(kCheckedBytes == KvProtocol::kResponseHeader + 8);
    if (conn.head[0] != 0) // status
        return false;
    std::uint32_t value_len;
    std::memcpy(&value_len, conn.head.data() + 1, 4);
    if (value_len != (conn.isSet ? 0 : config_.valueSize))
        return false;
    if (conn.isSet || config_.valueSize < 8)
        return true;
    std::uint64_t fingerprint;
    std::memcpy(&fingerprint,
                conn.head.data() + KvProtocol::kResponseHeader, 8);
    // Zero means "never stored": only possible until a SET of the key
    // has completed before the GET was sent.
    return fingerprint == valueFingerprint_ ||
           (fingerprint == 0 && !conn.mustHoldValue);
}

} // namespace hc::workloads

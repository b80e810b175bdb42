/**
 * @file
 * Simulated-kernel tests: VFS, TCP streams, UDP over the link model,
 * TUN devices, epoll/poll readiness and fairness, and the clock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>

#include "os/kernel.hh"
#include "support/rng.hh"

using namespace hc;
using namespace hc::os;

namespace {

struct Fixture {
    mem::Machine machine;
    Kernel kernel;

    Fixture() : kernel(machine) {}

    void run(std::function<void()> body, CoreId core = 0)
    {
        machine.engine().spawn("test", core, std::move(body));
        machine.engine().run();
    }
};

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

} // anonymous namespace

// ----------------------------------------------------------------------
// VFS.
// ----------------------------------------------------------------------

TEST(Vfs, OpenReadClose)
{
    Fixture f;
    f.kernel.addFile("/etc/motd", bytes("hello world"));
    f.run([&] {
        const int fd = f.kernel.open("/etc/motd");
        ASSERT_GE(fd, 0);
        std::uint8_t buf[64];
        EXPECT_EQ(f.kernel.read(fd, buf, sizeof(buf)), 11);
        EXPECT_EQ(std::memcmp(buf, "hello world", 11), 0);
        EXPECT_EQ(f.kernel.read(fd, buf, sizeof(buf)), 0); // EOF
        EXPECT_EQ(f.kernel.close(fd), 0);
    });
}

TEST(Vfs, OpenMissingFileFails)
{
    Fixture f;
    f.run([&] { EXPECT_EQ(f.kernel.open("/nope"), kEnoent); });
}

TEST(Vfs, FstatReportsSize)
{
    Fixture f;
    f.kernel.addFile("/f", std::vector<std::uint8_t>(12345));
    f.run([&] {
        const int fd = f.kernel.open("/f");
        std::uint64_t size = 0;
        EXPECT_EQ(f.kernel.fstat(fd, &size), 0);
        EXPECT_EQ(size, 12345u);
    });
}

TEST(Vfs, PartialReadsAdvanceOffset)
{
    Fixture f;
    f.kernel.addFile("/f", bytes("abcdefgh"));
    f.run([&] {
        const int fd = f.kernel.open("/f");
        std::uint8_t buf[4];
        EXPECT_EQ(f.kernel.read(fd, buf, 3), 3);
        EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
        EXPECT_EQ(f.kernel.read(fd, buf, 3), 3);
        EXPECT_EQ(std::memcmp(buf, "def", 3), 0);
        EXPECT_EQ(f.kernel.read(fd, buf, 3), 2);
    });
}

TEST(Vfs, WriteExtendsFile)
{
    Fixture f;
    f.kernel.addFile("/w", {});
    f.run([&] {
        const int fd = f.kernel.open("/w");
        const auto data = bytes("written");
        EXPECT_EQ(f.kernel.write(fd, data.data(), data.size()), 7);
        std::uint64_t size = 0;
        f.kernel.fstat(fd, &size);
        EXPECT_EQ(size, 7u);
    });
}

// ----------------------------------------------------------------------
// TCP over loopback.
// ----------------------------------------------------------------------

TEST(Tcp, ConnectAcceptExchange)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(80);
        const int client = f.kernel.connectTcp(80);
        ASSERT_GE(client, 0);
        const int server = f.kernel.accept(listener);
        ASSERT_GE(server, 0);

        const auto msg = bytes("request");
        EXPECT_EQ(f.kernel.send(client, msg.data(), msg.size()), 7);
        std::uint8_t buf[16];
        EXPECT_EQ(f.kernel.recv(server, buf, sizeof(buf)), 7);
        EXPECT_EQ(std::memcmp(buf, "request", 7), 0);

        const auto reply = bytes("ok");
        EXPECT_EQ(f.kernel.send(server, reply.data(), 2), 2);
        EXPECT_EQ(f.kernel.recv(client, buf, sizeof(buf)), 2);
    });
}

TEST(Tcp, ConnectWithoutListenerRefused)
{
    Fixture f;
    f.run([&] {
        EXPECT_EQ(f.kernel.connectTcp(9999), kEconnRefused);
    });
}

TEST(Tcp, AcceptEmptyQueueEagain)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(81);
        EXPECT_EQ(f.kernel.accept(listener), kEagain);
    });
}

TEST(Tcp, RecvEmptyEagainThenEofAfterClose)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(82);
        const int client = f.kernel.connectTcp(82);
        const int server = f.kernel.accept(listener);
        std::uint8_t buf[8];
        EXPECT_EQ(f.kernel.recv(server, buf, 8), kEagain);
        f.kernel.close(client);
        EXPECT_EQ(f.kernel.recv(server, buf, 8), 0); // EOF
    });
}

TEST(Tcp, ShutdownDrainsBeforeEof)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(83);
        const int client = f.kernel.connectTcp(83);
        const int server = f.kernel.accept(listener);
        const auto data = bytes("tail");
        f.kernel.send(server, data.data(), 4);
        f.kernel.shutdown(server);
        std::uint8_t buf[8];
        EXPECT_EQ(f.kernel.recv(client, buf, 8), 4); // data first
        EXPECT_EQ(f.kernel.recv(client, buf, 8), 0); // then EOF
    });
}

TEST(Tcp, BackpressureOnFullBuffer)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(84);
        const int client = f.kernel.connectTcp(84);
        f.kernel.accept(listener);
        std::vector<std::uint8_t> big(512 * 1024, 1);
        const auto sent = f.kernel.send(client, big.data(),
                                        big.size());
        EXPECT_GT(sent, 0);
        EXPECT_LT(sent, static_cast<std::int64_t>(big.size()));
        // Buffer now full: further sends would block.
        EXPECT_EQ(f.kernel.send(client, big.data(), 100), kEagain);
    });
}

TEST(Tcp, SendfileMovesFileBytes)
{
    Fixture f;
    std::vector<std::uint8_t> page(1000);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i);
    f.kernel.addFile("/page", page);
    f.run([&] {
        const int listener = f.kernel.listenTcp(85);
        const int client = f.kernel.connectTcp(85);
        const int server = f.kernel.accept(listener);
        const int file = f.kernel.open("/page");
        EXPECT_EQ(f.kernel.sendfile(server, file, 0, 1000), 1000);
        std::vector<std::uint8_t> got(1000);
        EXPECT_EQ(f.kernel.recv(client, got.data(), 1000), 1000);
        EXPECT_EQ(got, page);
    });
}

TEST(Tcp, PartialRecvAcrossCompaction)
{
    // Reads smaller than the queued bytes, interleaved with sends,
    // move the stream's read offset past its unread tail, so later
    // sends compact the buffer: the byte sequence must survive.
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(86);
        const int client = f.kernel.connectTcp(86);
        const int server = f.kernel.accept(listener);
        std::vector<std::uint8_t> sent, got;
        std::uint8_t next = 0;
        for (int round = 0; round < 200; ++round) {
            std::vector<std::uint8_t> msg(
                static_cast<std::size_t>(13 + round % 29));
            for (auto &b : msg)
                b = next++;
            ASSERT_EQ(f.kernel.send(client, msg.data(), msg.size()),
                      static_cast<std::int64_t>(msg.size()));
            sent.insert(sent.end(), msg.begin(), msg.end());
            std::uint8_t buf[64];
            const std::uint64_t want = 7 + round % 31;
            const std::int64_t r = f.kernel.recv(server, buf, want);
            ASSERT_GT(r, 0);
            got.insert(got.end(), buf, buf + r);
            EXPECT_EQ(f.kernel.pendingBytes(server),
                      sent.size() - got.size());
        }
        std::vector<std::uint8_t> rest(sent.size() - got.size());
        EXPECT_EQ(f.kernel.recv(server, rest.data(), rest.size()),
                  static_cast<std::int64_t>(rest.size()));
        got.insert(got.end(), rest.begin(), rest.end());
        EXPECT_EQ(got, sent);
        EXPECT_EQ(f.kernel.recv(server, rest.data(), 1), kEagain);
    });
}

TEST(Tcp, BackpressureCountsUnreadBytes)
{
    // The send window is the socket buffer minus the bytes the peer
    // has not read yet: draining part of a full buffer reopens
    // exactly that much room.
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(87);
        const int client = f.kernel.connectTcp(87);
        const int server = f.kernel.accept(listener);
        const std::uint64_t cap = f.kernel.params().socketBuf;
        std::vector<std::uint8_t> big(cap + 100, 5);
        EXPECT_EQ(f.kernel.send(client, big.data(), big.size()),
                  static_cast<std::int64_t>(cap));
        EXPECT_EQ(f.kernel.send(client, big.data(), 1), kEagain);
        std::vector<std::uint8_t> buf(1000);
        EXPECT_EQ(f.kernel.recv(server, buf.data(), 1000), 1000);
        EXPECT_EQ(f.kernel.pendingBytes(server), cap - 1000);
        EXPECT_EQ(f.kernel.send(client, big.data(), big.size()), 1000);
        EXPECT_EQ(f.kernel.send(client, big.data(), 1), kEagain);
    });
}

TEST(Tcp, SendfileIntoPartiallyDrainedBuffer)
{
    Fixture f;
    std::vector<std::uint8_t> page(600);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 3);
    f.kernel.addFile("/page", page);
    f.run([&] {
        const int listener = f.kernel.listenTcp(88);
        const int client = f.kernel.connectTcp(88);
        const int server = f.kernel.accept(listener);
        const int file = f.kernel.open("/page");
        const auto head = bytes("header:");
        f.kernel.send(server, head.data(), head.size());
        std::uint8_t buf[4];
        EXPECT_EQ(f.kernel.recv(client, buf, 4), 4); // "head"
        EXPECT_EQ(f.kernel.sendfile(server, file, 100, 500), 500);
        EXPECT_EQ(f.kernel.pendingBytes(client), 3u + 500u);
        std::vector<std::uint8_t> got(503);
        EXPECT_EQ(f.kernel.recv(client, got.data(), got.size()), 503);
        EXPECT_EQ(std::memcmp(got.data(), "er:", 3), 0);
        EXPECT_TRUE(std::equal(got.begin() + 3, got.end(),
                               page.begin() + 100));
    });
}

// ----------------------------------------------------------------------
// UDP over the 1 Gbit link.
// ----------------------------------------------------------------------

TEST(Udp, DatagramCrossesLinkWithDelay)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        const auto msg = bytes("datagram");
        EXPECT_EQ(f.kernel.sendto(a, msg.data(), msg.size(), 2000),
                  8);

        // Not deliverable before serialization + propagation.
        std::uint8_t buf[16];
        EXPECT_EQ(f.kernel.recvfrom(b, buf, 16), kEagain);

        f.kernel.waitReadable(b);
        int src = 0;
        EXPECT_EQ(f.kernel.recvfrom(b, buf, 16, &src), 8);
        EXPECT_EQ(src, 1000);
        EXPECT_EQ(std::memcmp(buf, "datagram", 8), 0);
        // At least the propagation delay elapsed.
        EXPECT_GE(f.machine.now(),
                  f.kernel.params().linkPropagation);
    });
}

TEST(Udp, LinkSerializesBackToBackPackets)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        std::vector<std::uint8_t> pkt(1460);
        // 10 packets sent instantly serialize at ~32 cycles/byte:
        // the last is ready ~10 x 46.7k cycles after the first.
        for (int i = 0; i < 10; ++i)
            f.kernel.sendto(a, pkt.data(), pkt.size(), 2000);
        std::uint8_t buf[2048];
        int received = 0;
        const Cycles start = f.machine.now();
        while (received < 10) {
            if (f.kernel.recvfrom(b, buf, sizeof(buf)) > 0)
                ++received;
            else
                f.kernel.waitReadable(b);
        }
        const Cycles elapsed = f.machine.now() - start;
        const Cycles serialization =
            static_cast<Cycles>(10 * 1460 * 32.0);
        EXPECT_GE(elapsed, serialization);
    });
}

TEST(Udp, UnknownDestinationDropsSilently)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const auto msg = bytes("void");
        EXPECT_EQ(f.kernel.sendto(a, msg.data(), 4, 4242), 4);
    });
}

// ----------------------------------------------------------------------
// TUN.
// ----------------------------------------------------------------------

TEST(Tun, PacketsCrossBothWays)
{
    Fixture f;
    f.run([&] {
        const auto [app_fd, daemon_fd] = f.kernel.tunCreate();
        const auto pkt = bytes("ip-packet");
        EXPECT_EQ(f.kernel.write(app_fd, pkt.data(), pkt.size()), 9);
        std::uint8_t buf[32];
        EXPECT_EQ(f.kernel.read(daemon_fd, buf, 32), 9);
        EXPECT_EQ(std::memcmp(buf, "ip-packet", 9), 0);

        EXPECT_EQ(f.kernel.write(daemon_fd, pkt.data(), 9), 9);
        EXPECT_EQ(f.kernel.read(app_fd, buf, 32), 9);
        // Packet boundaries preserved (datagram semantics).
        EXPECT_EQ(f.kernel.read(app_fd, buf, 32), kEagain);
    });
}

TEST(Tun, CloseGivesPeerEof)
{
    Fixture f;
    auto &engine = f.machine.engine();
    int app_fd = -1, daemon_fd = -1;
    engine.spawn("reader", 0, [&] {
        std::tie(app_fd, daemon_fd) = f.kernel.tunCreate();
        const auto pkt = bytes("last");
        f.kernel.write(app_fd, pkt.data(), pkt.size());
        std::uint8_t buf[16];
        EXPECT_EQ(f.kernel.read(daemon_fd, buf, 16), 4);
        EXPECT_EQ(f.kernel.read(daemon_fd, buf, 16), kEagain);
        // Blocks until the other end closes, then reads EOF.
        f.kernel.waitReadable(daemon_fd);
        EXPECT_EQ(f.kernel.read(daemon_fd, buf, 16), 0);
        EXPECT_GE(f.machine.now(), 400'000u);
    });
    engine.spawn("closer", 1, [&] {
        engine.sleepUntil(400'000);
        EXPECT_EQ(f.kernel.close(app_fd), 0);
    });
    engine.run();
}

// ----------------------------------------------------------------------
// epoll / poll.
// ----------------------------------------------------------------------

TEST(Epoll, ReportsReadableMembers)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(90);
        const int client = f.kernel.connectTcp(90);
        const int server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);

        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 0);

        const auto msg = bytes("x");
        f.kernel.send(client, msg.data(), 1);
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 1);
        EXPECT_EQ(ready[0], server);

        f.kernel.epollCtlDel(epfd, server);
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 0);
    });
}

TEST(Epoll, BlockingWaitWokenBySender)
{
    Fixture f;
    auto &engine = f.machine.engine();
    int listener = 0, client = 0, server = 0;
    engine.spawn("setup", 0, [&] {
        listener = f.kernel.listenTcp(91);
        client = f.kernel.connectTcp(91);
        server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);
        std::vector<int> ready;
        const int n = f.kernel.epollWait(epfd, ready,
                                         8, secondsToCycles(1.0));
        EXPECT_EQ(n, 1);
        EXPECT_GE(f.machine.now(), 500'000u);
    });
    engine.spawn("sender", 1, [&] {
        engine.sleepUntil(500'000);
        const auto msg = bytes("wake");
        f.kernel.send(client, msg.data(), 4);
    });
    engine.run();
}

TEST(Epoll, TimeoutExpires)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(92);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, listener);
        std::vector<int> ready;
        const Cycles t0 = f.machine.now();
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 100'000), 0);
        EXPECT_GE(f.machine.now() - t0, 100'000u);
    });
}

TEST(Epoll, FairnessRotatesLargeReadySets)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(93);
        const int epfd = f.kernel.epollCreate();
        std::vector<int> servers;
        const auto msg = bytes("y");
        for (int i = 0; i < 8; ++i) {
            const int c = f.kernel.connectTcp(93);
            const int s = f.kernel.accept(listener);
            f.kernel.epollCtlAdd(epfd, s);
            f.kernel.send(c, msg.data(), 1);
            servers.push_back(s);
        }
        // With max_events=2 and all 8 readable, repeated waits must
        // eventually report every member (no starvation).
        std::set<int> seen;
        std::vector<int> ready;
        for (int iter = 0; iter < 16; ++iter) {
            f.kernel.epollWait(epfd, ready, 2, 0);
            seen.insert(ready.begin(), ready.end());
        }
        EXPECT_EQ(seen.size(), servers.size());
    });
}

TEST(Poll, ReportsReadySubset)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(94);
        const int c1 = f.kernel.connectTcp(94);
        const int s1 = f.kernel.accept(listener);
        const int c2 = f.kernel.connectTcp(94);
        const int s2 = f.kernel.accept(listener);
        (void)c2;
        const auto msg = bytes("z");
        f.kernel.send(c1, msg.data(), 1);

        std::vector<int> ready;
        EXPECT_EQ(f.kernel.poll({s1, s2}, ready, 0), 1);
        EXPECT_EQ(ready[0], s1);
    });
}

TEST(Poll, WakesOnFutureUdpAvailability)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        const auto msg = bytes("later");
        f.kernel.sendto(a, msg.data(), 5, 2000);
        // poll must wake when the in-flight datagram lands, before
        // the (long) timeout.
        std::vector<int> ready;
        const int n =
            f.kernel.poll({b}, ready, secondsToCycles(1.0));
        EXPECT_EQ(n, 1);
        EXPECT_LT(f.machine.now(), secondsToCycles(0.5));
    });
}

// ----------------------------------------------------------------------
// Clock & misc.
// ----------------------------------------------------------------------

TEST(Clock, TracksVirtualTime)
{
    Fixture f;
    f.run([&] {
        EXPECT_EQ(f.kernel.timeSeconds(), 0u);
        f.machine.engine().sleepFor(secondsToCycles(2.5));
        EXPECT_EQ(f.kernel.timeSeconds(), 2u);
        EXPECT_NEAR(static_cast<double>(f.kernel.timeMicros()),
                    2.5e6, 1e3);
    });
}

TEST(Misc, SyscallsChargeKernelEntry)
{
    Fixture f;
    f.run([&] {
        const Cycles t0 = f.machine.now();
        f.kernel.getpid();
        EXPECT_GE(f.machine.now() - t0,
                  f.kernel.params().syscall);
    });
}

TEST(Misc, BadFdsReturnEbadf)
{
    Fixture f;
    f.run([&] {
        std::uint8_t buf[8];
        EXPECT_EQ(f.kernel.read(777, buf, 8), kEbadf);
        EXPECT_EQ(f.kernel.close(777), kEbadf);
        EXPECT_EQ(f.kernel.send(777, buf, 8), kEbadf);
        EXPECT_EQ(f.kernel.accept(777), kEbadf);
        std::uint64_t size;
        EXPECT_EQ(f.kernel.fstat(777, &size), kEbadf);
    });
}

TEST(Misc, PendingBytesTracksQueue)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(95);
        const int client = f.kernel.connectTcp(95);
        const int server = f.kernel.accept(listener);
        EXPECT_EQ(f.kernel.pendingBytes(server), 0u);
        const auto msg = bytes("12345");
        f.kernel.send(client, msg.data(), 5);
        EXPECT_EQ(f.kernel.pendingBytes(server), 5u);
        std::uint8_t buf[8];
        f.kernel.recv(server, buf, 8);
        EXPECT_EQ(f.kernel.pendingBytes(server), 0u);
    });
}

// ----------------------------------------------------------------------
// Failure injection and edge cases.
// ----------------------------------------------------------------------

TEST(Udp, RxQueueOverflowDropsSilently)
{
    Fixture f;
    f.run([&] {
        const int a = f.kernel.udpSocket(0, 1000);
        const int b = f.kernel.udpSocket(1, 2000);
        std::vector<std::uint8_t> pkt(4096);
        // The receive queue holds socketBuf bytes; everything beyond
        // is dropped on the floor (UDP semantics).
        const int sent = 200; // 800 KiB >> 256 KiB queue
        for (int i = 0; i < sent; ++i)
            f.kernel.sendto(a, pkt.data(), pkt.size(), 2000);
        f.machine.engine().sleepFor(secondsToCycles(0.2));
        int received = 0;
        std::vector<std::uint8_t> buf(8192);
        while (f.kernel.recvfrom(b, buf.data(), buf.size()) > 0)
            ++received;
        EXPECT_GT(received, 0);
        EXPECT_LT(received, sent);
        EXPECT_LE(static_cast<std::uint64_t>(received) * pkt.size(),
                  f.kernel.params().socketBuf);
    });
}

TEST(Tun, DeviceQueueBackpressure)
{
    Fixture f;
    f.run([&] {
        const auto [app_fd, daemon_fd] = f.kernel.tunCreate();
        std::vector<std::uint8_t> pkt(64 * 1024);
        // Fill the peer queue to its cap, then expect EAGAIN.
        std::int64_t wrote = 0;
        int packets = 0;
        for (;;) {
            wrote = f.kernel.write(app_fd, pkt.data(), pkt.size());
            if (wrote == kEagain)
                break;
            ++packets;
            ASSERT_LT(packets, 100) << "no backpressure";
        }
        EXPECT_GT(packets, 0);
        // Draining one packet frees space again.
        std::vector<std::uint8_t> buf(64 * 1024);
        EXPECT_GT(f.kernel.read(daemon_fd, buf.data(), buf.size()),
                  0);
        EXPECT_GT(f.kernel.write(app_fd, pkt.data(), pkt.size()), 0);
    });
}

TEST(Tcp, CloseRemovesFromEpollSets)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(96);
        const int client = f.kernel.connectTcp(96);
        const int server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);
        const auto msg = bytes("x");
        f.kernel.send(client, msg.data(), 1);
        f.kernel.close(server); // close while registered
        std::vector<int> ready;
        // The closed fd must not be reported (nor crash the scan).
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 8, 0), 0);
    });
}

TEST(Epoll, NestedEpollOfEpoll)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(97);
        const int client = f.kernel.connectTcp(97);
        const int server = f.kernel.accept(listener);
        const int inner = f.kernel.epollCreate();
        const int outer = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(inner, server);
        f.kernel.epollCtlAdd(outer, inner);

        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(outer, ready, 8, 0), 0);
        const auto msg = bytes("z");
        f.kernel.send(client, msg.data(), 1);
        EXPECT_EQ(f.kernel.epollWait(outer, ready, 8, 0), 1);
        EXPECT_EQ(ready[0], inner);
    });
}

TEST(Misc, WritevChargesGatherCost)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(98);
        const int client = f.kernel.connectTcp(98);
        f.kernel.accept(listener);
        const auto msg = bytes("gather");
        const Cycles t0 = f.machine.now();
        f.kernel.send(client, msg.data(), msg.size());
        const Cycles send_cost = f.machine.now() - t0;
        const Cycles t1 = f.machine.now();
        f.kernel.writev(client, msg.data(), msg.size());
        const Cycles writev_cost = f.machine.now() - t1;
        EXPECT_GT(writev_cost, send_cost);
    });
}

TEST(Epoll, NonPositiveMaxEventsIsEinval)
{
    Fixture f;
    f.run([&] {
        const int listener = f.kernel.listenTcp(99);
        const int client = f.kernel.connectTcp(99);
        const int server = f.kernel.accept(listener);
        const int epfd = f.kernel.epollCreate();
        f.kernel.epollCtlAdd(epfd, server);
        const auto msg = bytes("x");
        f.kernel.send(client, msg.data(), 1);
        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 0, 0), kEinval);
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, -3, 1000), kEinval);
        EXPECT_TRUE(ready.empty());
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 1, 0), 1);
    });
}

TEST(Epoll, AddingSetToItselfIsEinval)
{
    // A set holding itself would recurse forever in its readiness
    // check; Linux rejects it with EINVAL too.
    Fixture f;
    f.run([&] {
        const int epfd = f.kernel.epollCreate();
        EXPECT_EQ(f.kernel.epollCtlAdd(epfd, epfd), kEinval);
        std::vector<int> ready;
        EXPECT_EQ(f.kernel.epollWait(epfd, ready, 4, 1000), 0);
        EXPECT_EQ(f.kernel.auditReadiness(), "");
    });
}

// ----------------------------------------------------------------------
// Differential oracle for the readiness cache: after every operation of
// a long random sequence, recomputing every cached readiness bit, every
// epoll set's ready and checked counts and every back-pointer from
// scratch must agree with the incrementally maintained state.
// ----------------------------------------------------------------------

TEST(Epoll, ReadinessMatchesRescanUnderRandomOps)
{
    Fixture f;
    std::vector<std::uint8_t> page(8192, 9);
    f.kernel.addFile("/page", page);
    f.run([&] {
        auto &k = f.kernel;
        Rng rng(20170624);
        auto pick = [&](const std::vector<int> &v) {
            return v[rng.nextBelow(v.size())];
        };
        auto drop = [](std::vector<int> &v, int fd) {
            v.erase(std::remove(v.begin(), v.end(), fd), v.end());
        };
        // Inner sets hold no epoll fds and outer sets hold only inner
        // ones, so nesting never forms a cycle.
        std::vector<int> streams, listeners, inner_sets, outer_sets,
            udp, tun, files;
        std::vector<int> ports;
        int next_port = 2000;
        auto listen = [&] {
            listeners.push_back(k.listenTcp(next_port));
            ports.push_back(next_port++);
        };
        listen();
        for (int i = 0; i < 3; ++i)
            inner_sets.push_back(k.epollCreate());
        for (int i = 0; i < 2; ++i)
            outer_sets.push_back(k.epollCreate());
        for (int i = 0; i < 2; ++i) {
            udp.push_back(k.udpSocket(0, 100 + i));
            udp.push_back(k.udpSocket(1, 200 + i));
        }
        std::vector<std::uint8_t> buf(300 * 1024, 1);
        std::vector<int> ready;
        int waits_with_events = 0, eofs = 0;

        for (int op = 0; op < 12000; ++op) {
            const auto kind = rng.nextBelow(20);
            switch (kind) {
              case 0:
              case 1:
                if (!ports.empty()) {
                    const int c = k.connectTcp(pick(ports));
                    if (c >= 0)
                        streams.push_back(c);
                }
                break;
              case 2:
                if (!listeners.empty()) {
                    const int s = k.accept(pick(listeners));
                    if (s >= 0)
                        streams.push_back(s);
                }
                break;
              case 3:
              case 4:
                if (!streams.empty()) {
                    const std::uint64_t len =
                        rng.nextBelow(8) == 0
                            ? rng.nextBelow(buf.size()) + 1
                            : rng.nextBelow(3000) + 1;
                    k.send(pick(streams), buf.data(), len);
                }
                break;
              case 5:
              case 6:
                if (!streams.empty()) {
                    const auto r = k.recv(pick(streams), buf.data(),
                                          rng.nextBelow(5000) + 1);
                    eofs += r == 0;
                }
                break;
              case 7:
                if (!streams.empty())
                    k.shutdown(pick(streams));
                break;
              case 8: {
                // Close any kind of descriptor, epoll sets included.
                const auto which = rng.nextBelow(10);
                std::vector<int> *from =
                    which < 5   ? &streams
                    : which < 6 ? &inner_sets
                    : which < 7 ? &outer_sets
                    : which < 8 ? &tun
                    : which < 9 ? &files
                                : &listeners;
                if (from->empty())
                    break;
                const int fd = pick(*from);
                ASSERT_EQ(k.close(fd), 0);
                drop(*from, fd);
                if (from == &listeners) {
                    ports.clear();
                    listen();
                }
                break;
              }
              case 9:
              case 10: {
                const bool outer = rng.nextBelow(3) == 0;
                const auto &sets = outer ? outer_sets : inner_sets;
                if (sets.empty())
                    break;
                const int set = pick(sets);
                std::vector<int> candidates = streams;
                for (const auto *v : {&listeners, &udp, &tun, &files})
                    candidates.insert(candidates.end(), v->begin(),
                                      v->end());
                if (outer)
                    candidates.insert(candidates.end(),
                                      inner_sets.begin(),
                                      inner_sets.end());
                if (!candidates.empty()) {
                    ASSERT_EQ(k.epollCtlAdd(set, pick(candidates)), 0);
                }
                break;
              }
              case 11: {
                // Drop a stream or a nested set from a set (a no-op
                // when it is not a member).
                std::vector<int> sets = inner_sets;
                sets.insert(sets.end(), outer_sets.begin(),
                            outer_sets.end());
                std::vector<int> fds = streams;
                fds.insert(fds.end(), inner_sets.begin(),
                           inner_sets.end());
                if (!sets.empty() && !fds.empty()) {
                    ASSERT_EQ(k.epollCtlDel(pick(sets), pick(fds)), 0);
                }
                break;
              }
              case 12:
              case 13: {
                std::vector<int> sets = inner_sets;
                sets.insert(sets.end(), outer_sets.begin(),
                            outer_sets.end());
                if (sets.empty())
                    break;
                const int n = k.epollWait(
                    pick(sets), ready,
                    static_cast<int>(rng.nextBelow(4)) + 1, 0);
                ASSERT_GE(n, 0);
                waits_with_events += n > 0;
                break;
              }
              case 14: {
                // udp alternates side 0 and side 1 sockets.
                const auto i = rng.nextBelow(udp.size());
                const int u = udp[i];
                if (rng.nextBelow(2) == 0) {
                    k.sendto(u, buf.data(), rng.nextBelow(1400) + 1,
                             (i % 2 == 0 ? 200 : 100) +
                                 static_cast<int>(rng.nextBelow(2)));
                } else {
                    k.recvfrom(u, buf.data(), buf.size());
                }
                break;
              }
              case 15:
                if (tun.empty() || rng.nextBelow(4) == 0) {
                    const auto [a, b] = k.tunCreate();
                    tun.push_back(a);
                    tun.push_back(b);
                } else if (rng.nextBelow(2) == 0) {
                    k.write(pick(tun), buf.data(),
                            rng.nextBelow(1500) + 1);
                } else {
                    k.read(pick(tun), buf.data(), buf.size());
                }
                break;
              case 16:
                if (files.size() < 4 || rng.nextBelow(4) == 0)
                    files.push_back(k.open("/page"));
                else if (!streams.empty())
                    k.sendfile(pick(streams), pick(files),
                               rng.nextBelow(8192),
                               rng.nextBelow(4000) + 1);
                break;
              case 17:
                f.machine.engine().sleepFor(rng.nextBelow(200'000));
                break;
              case 18:
                if (rng.nextBelow(4) == 0)
                    inner_sets.push_back(k.epollCreate());
                else if (rng.nextBelow(4) == 0)
                    outer_sets.push_back(k.epollCreate());
                break;
              default:
                if (rng.nextBelow(8) == 0)
                    listen();
                break;
            }
            ASSERT_EQ(k.auditReadiness(), "") << "after op " << op
                                              << " (kind " << kind
                                              << ")";
        }
        // The sequence must actually have exercised the interesting
        // states, not degenerated into no-ops.
        EXPECT_GT(waits_with_events, 100);
        EXPECT_GT(eofs, 10);
        EXPECT_GT(streams.size(), 20u);
    });
}

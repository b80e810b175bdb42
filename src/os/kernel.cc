/**
 * @file
 * Kernel implementation.
 */

#include "os/kernel.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "support/logging.hh"

namespace hc::os {

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

/**
 * The unread bytes of one stream end: a contiguous buffer with a read
 * offset, so a recv is one memcpy. An append first compacts when the
 * consumed prefix is at least as long as the unread tail, which keeps
 * the storage within twice the unread bytes plus the append.
 */
class StreamBuf
{
  public:
    /** @return unread bytes. */
    std::uint64_t size() const { return bytes_.size() - head_; }
    bool empty() const { return head_ == bytes_.size(); }

    void append(const std::uint8_t *src, std::uint64_t n)
    {
        if (head_ > 0 && head_ >= size()) {
            bytes_.erase(bytes_.begin(),
                         bytes_.begin() +
                             static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        bytes_.insert(bytes_.end(), src, src + n);
    }

    /** Move the first @p n unread bytes to @p dst (null discards). */
    void consume(std::uint8_t *dst, std::uint64_t n)
    {
        if (dst)
            std::memcpy(dst, bytes_.data() + head_, n);
        head_ += n;
        if (head_ == bytes_.size()) {
            bytes_.clear();
            head_ = 0;
        }
    }

  private:
    std::vector<std::uint8_t> bytes_;
    std::size_t head_ = 0;
};

} // anonymous namespace

/** One file descriptor's state. */
struct Kernel::Desc {
    enum class Type {
        File,
        TcpListen,
        TcpStream,
        Udp,
        TunEnd,
        Epoll,
    };

    Type type = Type::File;

    // File.
    std::string path;
    std::uint64_t offset = 0;

    // TCP stream: bytes readable on this end; peer link. TUN ends
    // use peerFd and peerClosed too.
    StreamBuf stream;
    int peerFd = -1;
    bool peerClosed = false;

    // TCP listener.
    std::deque<int> acceptQueue;
    int port = 0;

    // UDP / TUN packet queue (bytes bounded).
    std::deque<Packet> packets;
    std::uint64_t queuedBytes = 0;
    int side = 0;

    // Readiness cache. Streams and listeners cache whether a read
    // would not block (every transition calls refreshReady); the
    // other types depend on the clock or on nesting and are
    // evaluated on each scan.
    bool ready = false;
    std::vector<Desc *> sets; //!< epoll sets holding this descriptor

    // Epoll set.
    struct Member {
        int fd;
        Desc *desc;
    };
    std::vector<Member> members;
    std::size_t scanStart = 0;      //!< rotating start for fairness
    std::size_t readyMembers = 0;   //!< caching members now ready
    std::size_t checkedMembers = 0; //!< members evaluated per scan

    // Shared.
    bool nonblockFlag = false;

    bool cachesReadiness() const
    {
        return type == Type::TcpStream || type == Type::TcpListen;
    }

    /** Readiness of a caching descriptor, from its state. */
    bool computeReady() const
    {
        return type == Type::TcpListen ? !acceptQueue.empty()
                                       : !stream.empty() || peerClosed;
    }

    /** Re-derive the cached readiness after a state transition and
     *  carry a change into the ready count of every containing set. */
    void refreshReady()
    {
        if (!cachesReadiness() || computeReady() == ready)
            return;
        ready = !ready;
        for (Desc *set : sets) {
            if (ready)
                ++set->readyMembers;
            else
                --set->readyMembers;
        }
    }
};

Kernel::Kernel(mem::Machine &machine, OsCostParams params)
    : machine_(machine), params_(params)
{
}

Kernel::~Kernel() = default;

void
Kernel::charge(Cycles c)
{
    if (machine_.engine().currentThread())
        machine_.engine().advance(c);
}

void
Kernel::chargeCopy(std::uint64_t bytes)
{
    charge(static_cast<Cycles>(static_cast<double>(bytes) *
                               params_.copyPerByte));
}

Kernel::Desc *
Kernel::desc(int fd)
{
    return fd >= 0 && static_cast<std::size_t>(fd) < fds_.size()
               ? fds_[static_cast<std::size_t>(fd)].get()
               : nullptr;
}

const Kernel::Desc *
Kernel::desc(int fd) const
{
    return fd >= 0 && static_cast<std::size_t>(fd) < fds_.size()
               ? fds_[static_cast<std::size_t>(fd)].get()
               : nullptr;
}

int
Kernel::allocFd(std::unique_ptr<Desc> d)
{
    const int fd = nextFd_++;
    fds_.resize(static_cast<std::size_t>(fd) + 1);
    fds_[static_cast<std::size_t>(fd)] = std::move(d);
    return fd;
}

// ----------------------------------------------------------------------
// VFS.
// ----------------------------------------------------------------------

void
Kernel::addFile(const std::string &path,
                std::vector<std::uint8_t> contents)
{
    files_[path] = std::move(contents);
}

int
Kernel::open(const std::string &path)
{
    charge(params_.syscall + params_.openCost);
    if (files_.find(path) == files_.end())
        return kEnoent;
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::File;
    d->path = path;
    return allocFd(std::move(d));
}

int
Kernel::fstat(int fd, std::uint64_t *size_out)
{
    charge(params_.syscall + 120);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::File)
        return kEbadf;
    *size_out = files_[d->path].size();
    return 0;
}

// ----------------------------------------------------------------------
// Generic fd ops.
// ----------------------------------------------------------------------

std::int64_t
Kernel::read(int fd, std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;

    switch (d->type) {
      case Desc::Type::File: {
        const auto &contents = files_[d->path];
        if (d->offset >= contents.size())
            return 0;
        const std::uint64_t take =
            std::min<std::uint64_t>(count, contents.size() - d->offset);
        if (buf)
            std::memcpy(buf, contents.data() + d->offset, take);
        d->offset += take;
        chargeCopy(take);
        return static_cast<std::int64_t>(take);
      }
      case Desc::Type::TcpStream:
        return streamRecv(*d, buf, count);
      case Desc::Type::TunEnd: {
        if (d->packets.empty() ||
            d->packets.front().availableAt > machine_.now())
            return d->peerClosed ? 0 : kEagain;
        Packet pkt = std::move(d->packets.front());
        d->packets.pop_front();
        d->queuedBytes -= pkt.data.size();
        const std::uint64_t take =
            std::min<std::uint64_t>(count, pkt.data.size());
        if (buf)
            std::memcpy(buf, pkt.data.data(), take);
        chargeCopy(take);
        return static_cast<std::int64_t>(take);
      }
      default:
        return kEbadf;
    }
}

std::int64_t
Kernel::write(int fd, const std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;

    switch (d->type) {
      case Desc::Type::File: {
        auto &contents = files_[d->path];
        if (d->offset + count > contents.size())
            contents.resize(d->offset + count);
        if (buf)
            std::memcpy(contents.data() + d->offset, buf, count);
        d->offset += count;
        chargeCopy(count);
        return static_cast<std::int64_t>(count);
      }
      case Desc::Type::TcpStream:
        return streamSend(*d, buf, count);
      case Desc::Type::TunEnd: {
        Desc *peer = desc(d->peerFd);
        if (!peer)
            return kEbadf;
        if (peer->queuedBytes + count > params_.socketBuf)
            return kEagain; // device queue full
        Packet pkt;
        pkt.data.assign(buf, buf + count);
        pkt.availableAt = machine_.now();
        peer->queuedBytes += count;
        peer->packets.push_back(std::move(pkt));
        chargeCopy(count);
        notifyReadable(d->peerFd);
        return static_cast<std::int64_t>(count);
      }
      default:
        return kEbadf;
    }
}

int
Kernel::close(int fd)
{
    charge(params_.syscall + params_.closeCost);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;
    if (d->type == Desc::Type::TcpStream ||
        d->type == Desc::Type::TunEnd) {
        if (Desc *peer = desc(d->peerFd)) {
            peer->peerClosed = true;
            peer->refreshReady();
            notifyReadable(d->peerFd);
        }
    }
    if (d->type == Desc::Type::TcpListen)
        tcpListeners_.erase(d->port);
    if (d->type == Desc::Type::Udp)
        udpPorts_[d->side].erase(d->port);
    while (!d->sets.empty())
        unlink(*d->sets.back(), *d);
    for (const Desc::Member &m : d->members) {
        auto &sets = m.desc->sets;
        sets.erase(std::find(sets.begin(), sets.end(), d));
    }
    fds_[static_cast<std::size_t>(fd)].reset();
    return 0;
}

int
Kernel::fcntl(int fd, int)
{
    charge(params_.syscall + 60);
    Desc *d = desc(fd);
    if (!d)
        return kEbadf;
    d->nonblockFlag = true;
    return 0;
}

int
Kernel::ioctl(int fd, int)
{
    charge(params_.syscall + 90);
    return desc(fd) ? 0 : kEbadf;
}

// ----------------------------------------------------------------------
// TCP over loopback.
// ----------------------------------------------------------------------

int
Kernel::listenTcp(int port)
{
    charge(params_.syscall + 500);
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::TcpListen;
    d->port = port;
    const int fd = allocFd(std::move(d));
    tcpListeners_[port] = fd;
    return fd;
}

int
Kernel::connectTcp(int port)
{
    charge(params_.syscall + params_.connectCost);
    auto lit = tcpListeners_.find(port);
    if (lit == tcpListeners_.end())
        return kEconnRefused;

    auto client = std::make_unique<Desc>();
    client->type = Desc::Type::TcpStream;
    auto server = std::make_unique<Desc>();
    server->type = Desc::Type::TcpStream;
    const int client_fd = allocFd(std::move(client));
    const int server_fd = allocFd(std::move(server));
    desc(client_fd)->peerFd = server_fd;
    desc(server_fd)->peerFd = client_fd;

    Desc *listener = desc(lit->second);
    listener->acceptQueue.push_back(server_fd);
    listener->refreshReady();
    notifyReadable(lit->second);
    return client_fd;
}

int
Kernel::accept(int listen_fd)
{
    charge(params_.syscall + params_.acceptCost);
    Desc *d = desc(listen_fd);
    if (!d || d->type != Desc::Type::TcpListen)
        return kEbadf;
    if (d->acceptQueue.empty())
        return kEagain;
    const int fd = d->acceptQueue.front();
    d->acceptQueue.pop_front();
    d->refreshReady();
    return fd;
}

std::int64_t
Kernel::streamSend(Desc &d, const std::uint8_t *buf,
                   std::uint64_t count)
{
    Desc *peer = desc(d.peerFd);
    if (!peer)
        return 0; // connection reset
    const std::uint64_t unread = peer->stream.size();
    const std::uint64_t room =
        params_.socketBuf > unread ? params_.socketBuf - unread : 0;
    const std::uint64_t take = std::min(count, room);
    if (take == 0)
        return kEagain;
    peer->stream.append(buf, take);
    peer->refreshReady();
    chargeCopy(take);
    notifyReadable(d.peerFd);
    return static_cast<std::int64_t>(take);
}

std::int64_t
Kernel::streamRecv(Desc &d, std::uint8_t *buf, std::uint64_t count)
{
    if (d.stream.empty())
        return d.peerClosed ? 0 : kEagain;
    const std::uint64_t take = std::min(count, d.stream.size());
    d.stream.consume(buf, take);
    d.refreshReady();
    chargeCopy(take);
    return static_cast<std::int64_t>(take);
}

std::int64_t
Kernel::send(int fd, const std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::TcpStream)
        return kEbadf;
    return streamSend(*d, buf, count);
}

std::int64_t
Kernel::recv(int fd, std::uint8_t *buf, std::uint64_t count)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::TcpStream)
        return kEbadf;
    return streamRecv(*d, buf, count);
}

std::int64_t
Kernel::writev(int fd, const std::uint8_t *buf, std::uint64_t count)
{
    charge(80); // iovec gather on top of send()
    return send(fd, buf, count);
}

std::int64_t
Kernel::sendfile(int out_fd, int in_fd, std::uint64_t offset,
                 std::uint64_t count)
{
    charge(params_.syscall + params_.sendfileBase);
    Desc *in = desc(in_fd);
    Desc *out = desc(out_fd);
    if (!in || in->type != Desc::Type::File || !out ||
        out->type != Desc::Type::TcpStream) {
        return kEbadf;
    }
    const auto &contents = files_[in->path];
    if (offset >= contents.size())
        return 0;
    const std::uint64_t take =
        std::min<std::uint64_t>(count, contents.size() - offset);
    Desc *peer = desc(out->peerFd);
    if (!peer)
        return 0;
    peer->stream.append(contents.data() + offset, take);
    peer->refreshReady();
    // In-kernel copy: roughly half the user-copy cost.
    charge(static_cast<Cycles>(static_cast<double>(take) *
                               params_.copyPerByte * 0.5));
    notifyReadable(out->peerFd);
    return static_cast<std::int64_t>(take);
}

int
Kernel::setsockopt(int fd, int)
{
    charge(params_.syscall + 70);
    return desc(fd) ? 0 : kEbadf;
}

int
Kernel::shutdown(int fd)
{
    charge(params_.syscall + 130);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::TcpStream)
        return kEbadf;
    if (Desc *peer = desc(d->peerFd)) {
        peer->peerClosed = true;
        peer->refreshReady();
        notifyReadable(d->peerFd);
    }
    return 0;
}

// ----------------------------------------------------------------------
// UDP over the point-to-point link.
// ----------------------------------------------------------------------

int
Kernel::udpSocket(int side, int port)
{
    charge(params_.syscall + 400);
    hc_assert(side == 0 || side == 1);
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::Udp;
    d->side = side;
    d->port = port;
    const int fd = allocFd(std::move(d));
    udpPorts_[side][port] = fd;
    return fd;
}

std::int64_t
Kernel::sendto(int fd, const std::uint8_t *buf, std::uint64_t count,
               int dst_port)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::Udp)
        return kEbadf;
    chargeCopy(count);

    const int dst_side = 1 - d->side;
    auto it = udpPorts_[dst_side].find(dst_port);
    if (it == udpPorts_[dst_side].end())
        return static_cast<std::int64_t>(count); // silently dropped

    Desc *dst = desc(it->second);
    if (dst->queuedBytes + count > params_.socketBuf)
        return static_cast<std::int64_t>(count); // rx queue overflow

    // Serialize onto the link: the NIC starts when the wire is free.
    const Cycles now = machine_.now();
    const Cycles start = std::max(now, linkFree_[d->side]);
    const Cycles done =
        start + static_cast<Cycles>(static_cast<double>(count) *
                                    params_.linkCyclesPerByte);
    linkFree_[d->side] = done;

    Packet pkt;
    pkt.data.assign(buf, buf + count);
    pkt.availableAt = done + params_.linkPropagation;
    pkt.srcPort = d->port;
    dst->queuedBytes += count;
    dst->packets.push_back(std::move(pkt));
    notifyReadable(it->second);
    return static_cast<std::int64_t>(count);
}

std::int64_t
Kernel::recvfrom(int fd, std::uint8_t *buf, std::uint64_t count,
                 int *src_port)
{
    charge(params_.syscall);
    Desc *d = desc(fd);
    if (!d || d->type != Desc::Type::Udp)
        return kEbadf;
    if (d->packets.empty() ||
        d->packets.front().availableAt > machine_.now())
        return kEagain;
    Packet pkt = std::move(d->packets.front());
    d->packets.pop_front();
    d->queuedBytes -= pkt.data.size();
    const std::uint64_t take =
        std::min<std::uint64_t>(count, pkt.data.size());
    if (buf)
        std::memcpy(buf, pkt.data.data(), take);
    if (src_port)
        *src_port = pkt.srcPort;
    chargeCopy(take);
    return static_cast<std::int64_t>(take);
}

// ----------------------------------------------------------------------
// TUN.
// ----------------------------------------------------------------------

std::pair<int, int>
Kernel::tunCreate()
{
    charge(params_.syscall + 500);
    auto a = std::make_unique<Desc>();
    a->type = Desc::Type::TunEnd;
    auto b = std::make_unique<Desc>();
    b->type = Desc::Type::TunEnd;
    const int fa = allocFd(std::move(a));
    const int fb = allocFd(std::move(b));
    desc(fa)->peerFd = fb;
    desc(fb)->peerFd = fa;
    return {fa, fb};
}

// ----------------------------------------------------------------------
// Readiness.
// ----------------------------------------------------------------------

bool
Kernel::readableNow(const Desc &d) const
{
    const Cycles now = machine_.now();
    switch (d.type) {
      case Desc::Type::File:
        return true;
      case Desc::Type::TcpListen:
      case Desc::Type::TcpStream:
        return d.ready;
      case Desc::Type::Udp:
        return !d.packets.empty() &&
               d.packets.front().availableAt <= now;
      case Desc::Type::TunEnd:
        return (!d.packets.empty() &&
                d.packets.front().availableAt <= now) ||
               d.peerClosed;
      case Desc::Type::Epoll:
        if (d.readyMembers > 0)
            return true;
        if (d.checkedMembers > 0) {
            for (const Desc::Member &m : d.members) {
                if (!m.desc->cachesReadiness() && readableNow(*m.desc))
                    return true;
            }
        }
        return false;
    }
    return false;
}

Cycles
Kernel::earliestAvailability(const Desc &d) const
{
    switch (d.type) {
      case Desc::Type::Udp:
      case Desc::Type::TunEnd:
        return d.packets.empty() ? kNever
                                 : d.packets.front().availableAt;
      case Desc::Type::Epoll: {
        Cycles best = kNever;
        if (d.checkedMembers > 0) {
            for (const Desc::Member &m : d.members) {
                if (!m.desc->cachesReadiness())
                    best = std::min(best, earliestAvailability(*m.desc));
            }
        }
        return best;
      }
      default:
        return kNever;
    }
}

void
Kernel::notifyReadable(int)
{
    machine_.engine().notifyAll(readinessQueue_);
}

int
Kernel::epollCreate()
{
    charge(params_.syscall + 300);
    auto d = std::make_unique<Desc>();
    d->type = Desc::Type::Epoll;
    return allocFd(std::move(d));
}

int
Kernel::epollCtlAdd(int epfd, int fd)
{
    charge(params_.syscall + params_.epollCtl);
    Desc *e = desc(epfd);
    Desc *m = desc(fd);
    if (!e || e->type != Desc::Type::Epoll || !m)
        return kEbadf;
    if (fd == epfd)
        return kEinval;
    if (std::find(m->sets.begin(), m->sets.end(), e) != m->sets.end())
        return 0;
    e->members.push_back({fd, m});
    m->sets.push_back(e);
    if (!m->cachesReadiness())
        ++e->checkedMembers;
    else if (m->ready)
        ++e->readyMembers;
    return 0;
}

int
Kernel::epollCtlDel(int epfd, int fd)
{
    charge(params_.syscall + params_.epollCtl);
    Desc *e = desc(epfd);
    if (!e || e->type != Desc::Type::Epoll)
        return kEbadf;
    Desc *m = desc(fd);
    if (m && std::find(m->sets.begin(), m->sets.end(), e) !=
                 m->sets.end())
        unlink(*e, *m);
    return 0;
}

void
Kernel::unlink(Desc &set, Desc &member)
{
    auto &members = set.members;
    members.erase(std::find_if(
        members.begin(), members.end(),
        [&](const Desc::Member &m) { return m.desc == &member; }));
    auto &sets = member.sets;
    sets.erase(std::find(sets.begin(), sets.end(), &set));
    if (!member.cachesReadiness())
        --set.checkedMembers;
    else if (member.ready)
        --set.readyMembers;
}

int
Kernel::epollWait(int epfd, std::vector<int> &ready, int max_events,
                  Cycles timeout)
{
    charge(params_.syscall + params_.epollWaitBase);
    if (max_events <= 0)
        return kEinval;
    Desc *e = desc(epfd);
    if (!e || e->type != Desc::Type::Epoll)
        return kEbadf;
    auto &engine = machine_.engine();
    const Cycles deadline =
        timeout == 0 ? 0 : machine_.now() + timeout;
    const auto limit = static_cast<std::size_t>(max_events);

    for (;;) {
        // Rotate the scan start so a ready set larger than
        // max_events round-robins instead of starving the tail
        // (real epoll's ready list is FIFO). Every pass rotates,
        // including one that finds nothing: the rotation is part of
        // the model. The walk itself is skipped when no member can
        // be ready, and stops once every ready caching member is
        // found if there is nothing to evaluate.
        ready.clear();
        const std::size_t count = e->members.size();
        if (count > 0)
            e->scanStart = (e->scanStart + 1) % count;
        if (count > 0 && e->readyMembers + e->checkedMembers > 0) {
            const bool all_cached = e->checkedMembers == 0;
            std::size_t i = e->scanStart;
            for (std::size_t k = 0; k < count; ++k) {
                const Desc::Member &m = e->members[i];
                i = i + 1 == count ? 0 : i + 1;
                if (!readableNow(*m.desc))
                    continue;
                ready.push_back(m.fd);
                if (ready.size() >= limit ||
                    (all_cached && ready.size() == e->readyMembers))
                    break;
            }
        }
        if (!ready.empty() || timeout == 0)
            return static_cast<int>(ready.size());
        if (machine_.now() >= deadline)
            return 0;

        const Cycles future = earliestAvailability(*e);
        const Cycles wake = std::min(deadline, future);
        if (wake <= machine_.now())
            continue;
        engine.waitUntil(readinessQueue_, wake);
    }
}

int
Kernel::poll(const std::vector<int> &fds, std::vector<int> &ready,
             Cycles timeout)
{
    charge(params_.syscall + params_.pollBase +
           static_cast<Cycles>(fds.size()) * params_.pollPerFd);
    auto &engine = machine_.engine();
    const Cycles deadline =
        timeout == 0 ? 0 : machine_.now() + timeout;

    for (;;) {
        ready.clear();
        Cycles future = kNever;
        for (int fd : fds) {
            const Desc *m = desc(fd);
            if (!m)
                continue;
            if (readableNow(*m))
                ready.push_back(fd);
            else
                future = std::min(future, earliestAvailability(*m));
        }
        if (!ready.empty() || timeout == 0)
            return static_cast<int>(ready.size());
        if (machine_.now() >= deadline)
            return 0;
        const Cycles wake = std::min(deadline, future);
        if (wake <= machine_.now())
            continue;
        engine.waitUntil(readinessQueue_, wake);
    }
}

void
Kernel::waitReadable(int fd)
{
    auto &engine = machine_.engine();
    for (;;) {
        const Desc *d = desc(fd);
        if (!d)
            return;
        if (readableNow(*d))
            return;
        const Cycles future = earliestAvailability(*d);
        if (future == kNever)
            engine.wait(readinessQueue_);
        else if (future > machine_.now())
            engine.waitUntil(readinessQueue_, future);
    }
}

// ----------------------------------------------------------------------
// Clock and identity.
// ----------------------------------------------------------------------

std::uint64_t
Kernel::timeSeconds()
{
    charge(params_.syscall);
    return static_cast<std::uint64_t>(
        cyclesToSeconds(machine_.now()));
}

std::uint64_t
Kernel::timeMicros()
{
    charge(params_.syscall);
    return static_cast<std::uint64_t>(
        cyclesToMicros(machine_.now()));
}

int
Kernel::getpid()
{
    charge(params_.syscall);
    return 4242;
}

std::uint64_t
Kernel::inetNtop(std::uint32_t addr)
{
    // Pure libc string formatting: no kernel entry.
    charge(140);
    return static_cast<std::uint64_t>(addr) | 0x100000000ull;
}

std::uint32_t
Kernel::inetAddr(std::uint64_t packed)
{
    charge(120);
    return static_cast<std::uint32_t>(packed & 0xffffffffu);
}

std::uint64_t
Kernel::pendingBytes(int fd) const
{
    const Desc *d = desc(fd);
    if (!d)
        return 0;
    if (d->type == Desc::Type::TcpStream)
        return d->stream.size();
    return d->queuedBytes;
}

std::string
Kernel::auditReadiness() const
{
    std::string out;
    auto report = [&](std::size_t fd, const std::string &what) {
        out += "fd " + std::to_string(fd) + ": " + what + "\n";
    };
    std::unordered_set<const Desc *> live;
    for (const auto &d : fds_) {
        if (d)
            live.insert(d.get());
    }
    for (std::size_t fd = 0; fd < fds_.size(); ++fd) {
        const Desc *d = fds_[fd].get();
        if (!d)
            continue;
        if (d->cachesReadiness() && d->ready != d->computeReady())
            report(fd, "cached readiness is stale");
        for (const Desc *set : d->sets) {
            if (!live.count(set) || set->type != Desc::Type::Epoll) {
                report(fd, "back-pointer to a closed or non-epoll fd");
                continue;
            }
            const auto held = std::count_if(
                set->members.begin(), set->members.end(),
                [&](const Desc::Member &m) { return m.desc == d; });
            if (held != 1)
                report(fd, "held " + std::to_string(held) +
                               " times by a set it points to");
        }
        if (d->type != Desc::Type::Epoll)
            continue;
        std::size_t ready = 0, checked = 0;
        for (const Desc::Member &m : d->members) {
            if (desc(m.fd) != m.desc) {
                report(fd, "member " + std::to_string(m.fd) +
                               " does not name its descriptor");
                continue;
            }
            if (std::count(m.desc->sets.begin(), m.desc->sets.end(),
                           d) != 1)
                report(fd, "member " + std::to_string(m.fd) +
                               " lacks one back-pointer to the set");
            if (!m.desc->cachesReadiness())
                ++checked;
            else if (m.desc->computeReady())
                ++ready;
        }
        if (ready != d->readyMembers)
            report(fd, "readyMembers " +
                           std::to_string(d->readyMembers) +
                           ", rescan finds " + std::to_string(ready));
        if (checked != d->checkedMembers)
            report(fd, "checkedMembers " +
                           std::to_string(d->checkedMembers) +
                           ", rescan finds " + std::to_string(checked));
    }
    return out;
}

} // namespace hc::os

#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <system_error>
#include <utility>

#include "common/error.hpp"

namespace bcfl::net {

namespace {

constexpr std::size_t kFrameHeaderBytes = 4;
/// A header announcing more is a protocol error that takes the link down.
/// Generous: a padded EfficientNet-B0 chunk tx is ~24 KiB, a whole block a
/// few MiB.
constexpr std::uint32_t kMaxFrameBytes = 256u * 1024 * 1024;
/// Cap on a link's write queue. It holds one maximum frame, so only a
/// backlog behind a peer that stopped reading overflows it.
constexpr std::size_t kMaxQueuedBytes = kFrameHeaderBytes + kMaxFrameBytes;
/// Most bytes one loop pass reads from one socket.
constexpr std::size_t kReadChunkBytes = std::size_t{256} * 1024;

// Heap order for the per-node timer vector: std::push_heap builds a
// max-heap, so "greater" comparison yields a min-heap on (when, seq).
// Generic lambda because Timer is a private nested type.
const auto timer_later = [](const auto& a, const auto& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
};

void encode_u32(std::uint8_t* out, std::uint32_t v) {
    out[0] = static_cast<std::uint8_t>(v);
    out[1] = static_cast<std::uint8_t>(v >> 8);
    out[2] = static_cast<std::uint8_t>(v >> 16);
    out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t decode_u32(const std::uint8_t* in) {
    return static_cast<std::uint32_t>(in[0]) |
           static_cast<std::uint32_t>(in[1]) << 8 |
           static_cast<std::uint32_t>(in[2]) << 16 |
           static_cast<std::uint32_t>(in[3]) << 24;
}

Error socket_error(const std::string& call) {
    return Error("tcp transport: " + call + " failed: " +
                 std::error_code(errno, std::system_category()).message());
}

/// Makes the loop that polls `wake_fd` return.
void wake(int wake_fd) {
    const std::uint64_t one = 1;
    // Fails only on counter overflow, which leaves it readable anyway.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

}  // namespace

bool TcpTransport::Outbox::flush(int fd) {
    while (pending()) {
        const ssize_t n = ::send(fd, bytes.data() + written,
                                 bytes.size() - written,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
            // Socket full. Dropping the written prefix only once it is most
            // of the buffer keeps the queue's size and its cost per byte
            // bounded.
            if (written > bytes.size() / 2) {
                const auto taken = static_cast<std::ptrdiff_t>(written);
                bytes.erase(bytes.begin(), bytes.begin() + taken);
                written = 0;
            }
            return true;
        }
        written += static_cast<std::size_t>(n);
    }
    bytes.clear();
    written = 0;
    return true;
}

void TcpTransport::Outbox::take_down(int fd) {
    down = true;
    bytes = {};
    written = 0;
    // The peer reads EOF and takes its end down too.
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

TcpTransport::~TcpTransport() {
    stop();
    for (auto& state : nodes_) {
        for (const Link& link : state->links) {
            if (link.fd >= 0) ::close(link.fd);
        }
        ::close(state->wake_fd);
    }
}

NodeId TcpTransport::add_node(Receiver receiver) {
    if (started_.load()) {
        throw Error("tcp transport: add_node after start");
    }
    auto state = std::make_unique<NodeState>();
    state->receiver = std::move(receiver);
    state->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (state->wake_fd < 0) throw socket_error("eventfd");
    nodes_.push_back(std::move(state));
    return static_cast<NodeId>(nodes_.size() - 1);
}

std::size_t TcpTransport::node_count() const { return nodes_.size(); }

SimTime TcpTransport::now() const {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              epoch_)
            .count());
}

bool TcpTransport::online(NodeId node) const {
    return node < nodes_.size() && !stopping_.load();
}

TrafficStats TcpTransport::stats() const {
    common::MutexLock lock(stats_mu_);
    return stats_;
}

void TcpTransport::schedule_after(NodeId node, SimTime delay,
                                  Handler handler) {
    if (node >= nodes_.size()) return;
    NodeState& state = *nodes_[node];
    Timer timer;
    timer.when = Clock::now() + std::chrono::microseconds(delay);
    timer.seq = timer_seq_.fetch_add(1, std::memory_order_relaxed);
    timer.fn = std::move(handler);
    {
        common::MutexLock lock(state.mu);
        state.timers.push_back(std::move(timer));
        std::push_heap(state.timers.begin(), state.timers.end(), timer_later);
    }
    wake(state.wake_fd);  // the loop may be sleeping past the new deadline
}

void TcpTransport::send(NodeId from, NodeId to, Bytes message) {
    if (to == from) return;  // self-send is a no-op, matching the sim
    {
        common::MutexLock lock(stats_mu_);
        ++stats_.messages_sent;
        stats_.bytes_sent += message.size();
        if (to >= nodes_.size() || from >= nodes_.size()) {
            ++stats_.messages_dropped;
            ++stats_.dropped_invalid;
            return;
        }
    }
    NodeState& state = *nodes_[from];
    bool queued = false;
    bool backlog = false;
    {
        common::MutexLock lock(state.mu);
        // No outboxes before start(); a down link or a full queue drops.
        if (to < state.outboxes.size()) {
            Outbox& out = state.outboxes[to];
            const std::size_t unsent = out.bytes.size() - out.written;
            if (!out.down && unsent + kFrameHeaderBytes + message.size() <=
                                 kMaxQueuedBytes) {
                std::uint8_t header[kFrameHeaderBytes];
                encode_u32(header, static_cast<std::uint32_t>(message.size()));
                out.bytes.insert(out.bytes.end(), header,
                                 header + kFrameHeaderBytes);
                out.bytes.insert(out.bytes.end(), message.begin(),
                                 message.end());
                queued = out.flush(state.links[to].fd);
                if (!queued) out.take_down(state.links[to].fd);
                backlog = out.pending();
            }
        }
    }
    if (!queued) {
        common::MutexLock lock(stats_mu_);
        ++stats_.messages_dropped;
    } else if (backlog) {
        wake(state.wake_fd);  // the loop flushes the rest on POLLOUT
    }
}

void TcpTransport::broadcast(NodeId from, const Bytes& message) {
    for (NodeId to = 0; to < nodes_.size(); ++to) {
        if (to != from) send(from, to, message);
    }
}

void TcpTransport::start() {
    if (started_.exchange(true)) return;
    for (auto& state : nodes_) {
        state->links.resize(nodes_.size());
        common::MutexLock lock(state->mu);
        state->outboxes.resize(nodes_.size());
    }
    connect_mesh();
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        nodes_[id]->thread =
            std::thread([this, id] { loop(id); });  // bcfl-lint: allow(raw-thread)
    }
}

void TcpTransport::connect_mesh() {
    // The listener lives only as long as this function. Each accepted
    // connection is matched by address to the connect() it answers, and
    // anything else that connects is closed, so no other local process can
    // pose as a node.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) throw socket_error("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    try {
        if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) < 0 ||
            ::listen(listener, SOMAXCONN) < 0 ||
            ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len) < 0) {
            throw socket_error("listen");
        }
        for (NodeId a = 0; a < nodes_.size(); ++a) {
            for (NodeId b = a + 1; b < nodes_.size(); ++b) {
                // Both fds are stored as soon as they exist, so the
                // destructor closes them if a later step throws.
                int& dialer = nodes_[a]->links[b].fd;
                dialer = ::socket(AF_INET, SOCK_STREAM, 0);
                if (dialer < 0 ||
                    ::connect(dialer, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) < 0) {
                    throw socket_error("connect");
                }
                sockaddr_in local{};
                len = sizeof(local);
                ::getsockname(dialer, reinterpret_cast<sockaddr*>(&local),
                              &len);
                int& acceptor = nodes_[b]->links[a].fd;
                while (acceptor < 0) {
                    const int fd = ::accept(listener, nullptr, nullptr);
                    if (fd < 0) {
                        if (errno == EINTR) continue;
                        throw socket_error("accept");
                    }
                    sockaddr_in remote{};
                    len = sizeof(remote);
                    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&remote),
                                      &len) == 0 &&
                        remote.sin_port == local.sin_port &&
                        remote.sin_addr.s_addr == local.sin_addr.s_addr) {
                        acceptor = fd;
                    } else {
                        ::close(fd);
                    }
                }
                const int one = 1;
                ::setsockopt(dialer, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
                ::setsockopt(acceptor, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
            }
        }
    } catch (...) {
        ::close(listener);
        throw;
    }
    ::close(listener);
}

void TcpTransport::loop(NodeId node) {
    NodeState& state = *nodes_[node];
    std::vector<pollfd> polled;
    std::vector<NodeId> peers;  // peers[i] is the peer behind polled[i + 1]
    Bytes chunk(kReadChunkBytes);
    while (!stopping_.load()) {
        // Gate: until run() only the wake fd is polled — the experiment's
        // setup phase owns all node state until then.
        const bool running = running_.load();
        polled.assign(1, pollfd{state.wake_fd, POLLIN, 0});
        peers.clear();
        timespec timeout{};
        const timespec* wait = nullptr;  // sleep until woken
        if (running) {
            common::MutexLock lock(state.mu);
            if (!state.timers.empty()) {
                const auto ns = std::max(
                    std::chrono::nanoseconds(state.timers.front().when -
                                             Clock::now()),
                    std::chrono::nanoseconds(0));
                constexpr std::int64_t kNsPerSecond = 1'000'000'000;
                timeout.tv_sec = static_cast<time_t>(ns.count() / kNsPerSecond);
                timeout.tv_nsec = static_cast<long>(ns.count() % kNsPerSecond);
                wait = &timeout;
            }
            for (NodeId peer = 0; peer < state.links.size(); ++peer) {
                const Outbox& out = state.outboxes[peer];
                if (state.links[peer].fd < 0 || out.down) continue;
                const auto events = static_cast<short>(
                    out.pending() ? POLLIN | POLLOUT : POLLIN);
                polled.push_back(pollfd{state.links[peer].fd, events, 0});
                peers.push_back(peer);
            }
        }
        if (::ppoll(polled.data(), polled.size(), wait, nullptr) < 0) {
            continue;  // EINTR
        }
        if ((polled[0].revents & POLLIN) != 0) {
            std::uint64_t wakes = 0;
            [[maybe_unused]] const ssize_t n =
                ::read(state.wake_fd, &wakes, sizeof(wakes));
        }
        for (std::size_t i = 0; i < peers.size(); ++i) {
            const NodeId peer = peers[i];
            const int fd = state.links[peer].fd;
            const short ready = polled[i + 1].revents;
            if ((ready & POLLOUT) != 0) {
                common::MutexLock lock(state.mu);
                Outbox& out = state.outboxes[peer];
                if (!out.down && !out.flush(fd)) out.take_down(fd);
            }
            if ((ready & (POLLIN | POLLHUP | POLLERR)) != 0 &&
                !read_frames(state, peer, chunk)) {
                common::MutexLock lock(state.mu);
                state.outboxes[peer].take_down(fd);
            }
        }
        if (running) run_due_timers(state);
    }
}

bool TcpTransport::read_frames(NodeState& state, NodeId peer,
                               Bytes& chunk) {
    Bytes& in = state.links[peer].in;
    const ssize_t got =
        ::recv(state.links[peer].fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
    if (got == 0) return false;  // orderly shutdown
    if (got < 0) {
        return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
    }
    in.insert(in.end(), chunk.data(), chunk.data() + got);
    std::size_t used = 0;  // bytes of the whole frames delivered below
    while (in.size() - used >= kFrameHeaderBytes) {
        const std::uint32_t length = decode_u32(in.data() + used);
        if (length > kMaxFrameBytes) return false;
        const std::size_t end = used + kFrameHeaderBytes + length;
        if (end > in.size()) break;
        const Bytes message(in.data() + used + kFrameHeaderBytes,
                            in.data() + end);
        used = end;
        {
            common::MutexLock lock(stats_mu_);
            ++stats_.messages_delivered;
        }
        state.receiver(peer, message);
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(used));
    return true;
}

void TcpTransport::run_due_timers(NodeState& state) {
    // Only what is due now: a timer armed by a handler below waits for the
    // next pass, so a handler that re-arms itself cannot starve the sockets.
    const Clock::time_point due = Clock::now();
    for (;;) {
        Handler fn;
        {
            common::MutexLock lock(state.mu);
            if (state.timers.empty() || state.timers.front().when > due) {
                return;
            }
            std::pop_heap(state.timers.begin(), state.timers.end(),
                          timer_later);
            fn = std::move(state.timers.back().fn);
            state.timers.pop_back();
        }
        fn();
    }
}

void TcpTransport::run(const std::function<bool()>& done, SimTime deadline) {
    if (!started_.load()) start();
    if (!running_.exchange(true)) {
        for (auto& state : nodes_) wake(state->wake_fd);
    }
    while (!stopping_.load() && !done() && now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

void TcpTransport::stop() {
    // A second call finds every loop already joined.
    if (stopping_.exchange(true)) return;
    for (auto& state : nodes_) wake(state->wake_fd);
    for (auto& state : nodes_) {
        if (state->thread.joinable()) state->thread.join();
    }
    // Delivery has ceased; from here on every send is a counted drop.
    for (auto& state : nodes_) {
        common::MutexLock lock(state->mu);
        for (NodeId peer = 0; peer < state->outboxes.size(); ++peer) {
            state->outboxes[peer].take_down(state->links[peer].fd);
        }
    }
}

}  // namespace bcfl::net

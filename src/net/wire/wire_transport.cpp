#include "net/wire/wire_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

namespace dnsboot::net {

namespace {

// Upper bound for a single blocking poll inside run()/run_forever().
constexpr SimTime kMaxPollWait = 50 * kMillisecond;

sockaddr_in to_sockaddr(const RealEndpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(endpoint.host);
  addr.sin_port = htons(endpoint.port);
  return addr;
}

RealEndpoint from_sockaddr(const sockaddr_in& addr) {
  return RealEndpoint{ntohl(addr.sin_addr.s_addr), ntohs(addr.sin_port)};
}

int make_socket(int type) {
  int fd = socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd >= 0 && type == SOCK_DGRAM) {
    // Generous queues so a paced loopback survey never sheds datagrams to
    // buffer pressure: UDP loss would surface as retries and break the
    // wire-vs-simulated report identity the transport promises.
    int size = 1 << 20;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof size);
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof size);
  }
  return fd;
}

}  // namespace

WireTransport::WireTransport(WireAddressMap map, WireTransportOptions options)
    : map_(std::move(map)), options_(options) {
  recv_buffer_.resize(65535);
}

WireTransport::~WireTransport() {
  // Tear sockets down while the loop still exists (members of this class
  // are destroyed before base/loop members declared earlier would be —
  // loop_ is declared before the containers, so unwatch explicitly first).
  for (auto& [vaddr, conn] : tcp_conns_) {
    if (conn->fd >= 0) {
      loop_.unwatch(conn->fd);
      close(conn->fd);
    }
  }
  for (auto& [vaddr, endpoint] : endpoints_) {
    if (endpoint->udp_fd >= 0) {
      loop_.unwatch(endpoint->udp_fd);
      close(endpoint->udp_fd);
    }
    if (endpoint->tcp_listen_fd >= 0) {
      loop_.unwatch(endpoint->tcp_listen_fd);
      close(endpoint->tcp_listen_fd);
    }
  }
}

void WireTransport::fail(const std::string& what) {
  if (error_.empty()) {
    error_ = what + ": " + std::strerror(errno);
  }
}

void WireTransport::bind(const IpAddress& address, DatagramHandler handler) {
  auto it = endpoints_.find(address);
  if (it != endpoints_.end()) {
    // Rebinding replaces the handler, as on the simulator.
    it->second->handler = std::move(handler);
    return;
  }
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->vaddr = address;
  endpoint->handler = std::move(handler);
  if (auto real = map_.real_for(address)) {
    endpoint->real = *real;
    open_serving_sockets(endpoint.get());
  } else {
    open_client_socket(endpoint.get());
  }
  endpoints_.emplace(address, std::move(endpoint));
}

void WireTransport::open_serving_sockets(Endpoint* endpoint) {
  endpoint->udp_fd = make_socket(SOCK_DGRAM);
  if (endpoint->udp_fd < 0) return fail("socket(udp)");
  int one = 1;
  setsockopt(endpoint->udp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (options_.reuse_port) {
    setsockopt(endpoint->udp_fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one);
  }
  sockaddr_in addr = to_sockaddr(endpoint->real);
  if (::bind(endpoint->udp_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) < 0) {
    return fail("bind(udp " + endpoint->real.to_text() + ")");
  }
  watch_udp(endpoint);

  endpoint->tcp_listen_fd = make_socket(SOCK_STREAM);
  if (endpoint->tcp_listen_fd < 0) return fail("socket(tcp)");
  setsockopt(endpoint->tcp_listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
             sizeof one);
  if (options_.reuse_port) {
    setsockopt(endpoint->tcp_listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
               sizeof one);
  }
  if (::bind(endpoint->tcp_listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) < 0 ||
      listen(endpoint->tcp_listen_fd, 128) < 0) {
    return fail("listen(tcp " + endpoint->real.to_text() + ")");
  }
  watch_listener(endpoint);
}

void WireTransport::open_client_socket(Endpoint* endpoint) {
  endpoint->udp_fd = make_socket(SOCK_DGRAM);
  if (endpoint->udp_fd < 0) return fail("socket(udp client)");
  // Bind to the map's base host with an ephemeral port so replies and the
  // servers' session bookkeeping see a stable local address.
  sockaddr_in addr = to_sockaddr(RealEndpoint{map_.base().host, 0});
  if (::bind(endpoint->udp_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) < 0) {
    return fail("bind(udp client)");
  }
  socklen_t len = sizeof addr;
  getsockname(endpoint->udp_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  endpoint->real = from_sockaddr(addr);
  watch_udp(endpoint);
}

void WireTransport::watch_udp(Endpoint* endpoint) {
  loop_.watch(endpoint->udp_fd, EPOLLIN, [this, endpoint](std::uint32_t) {
    on_udp_readable(endpoint);
  });
}

void WireTransport::watch_listener(Endpoint* endpoint) {
  loop_.watch(endpoint->tcp_listen_fd, EPOLLIN,
              [this, endpoint](std::uint32_t) { on_accept_ready(endpoint); });
}

void WireTransport::unbind(const IpAddress& address) {
  auto it = endpoints_.find(address);
  if (it == endpoints_.end()) return;
  Endpoint* endpoint = it->second.get();
  // Flush queued datagrams best-effort, then drop the pending-list entry so
  // no dangling pointer survives the erase.
  flush_endpoint_udp(endpoint);
  udp_pending_.erase(
      std::remove(udp_pending_.begin(), udp_pending_.end(), endpoint),
      udp_pending_.end());
  if (endpoint->udp_fd >= 0) {
    loop_.unwatch(endpoint->udp_fd);
    close(endpoint->udp_fd);
  }
  if (endpoint->tcp_listen_fd >= 0) {
    loop_.unwatch(endpoint->tcp_listen_fd);
    close(endpoint->tcp_listen_fd);
  }
  // Close the connections owned by this endpoint through close_conn, so
  // accepted ones leave the count and the idle sweep with them.
  // Collect-then-close: close_conn mutates tcp_conns_.
  std::vector<TcpConn*> owned;
  for (auto& [vaddr, conn] : tcp_conns_) {
    if (conn->local_vaddr == address) owned.push_back(conn.get());
  }
  for (TcpConn* conn : owned) close_conn(conn);
  endpoints_.erase(it);
}

bool WireTransport::is_bound(const IpAddress& address) const {
  return endpoints_.find(address) != endpoints_.end();
}

IpAddress WireTransport::session_address_for(const RealEndpoint& real) {
  auto it = udp_sessions_by_real_.find(real.key());
  if (it != udp_sessions_by_real_.end()) return it->second;
  std::uint64_t index = next_session_++;
  // RFC 6598 shared space 100.64.0.0/10 — disjoint from the synthetic
  // 10.0.0.0/8 server space and the scanner's 192.0.2.x, by construction.
  IpAddress session = IpAddress::v4(
      {100, static_cast<std::uint8_t>(64 + ((index >> 16) & 0x3f)),
       static_cast<std::uint8_t>((index >> 8) & 0xff),
       static_cast<std::uint8_t>(index & 0xff)});
  udp_sessions_by_real_.emplace(real.key(), session);
  udp_sessions_.emplace(session, real);
  return session;
}

void WireTransport::deliver(const IpAddress& source,
                            const IpAddress& destination, BytesView payload,
                            bool tcp) {
  auto it = endpoints_.find(destination);
  if (it == endpoints_.end()) return;
  ++datagrams_delivered_;
  Datagram dgram;
  dgram.source = source;
  dgram.destination = destination;
  dgram.payload.assign(payload.begin(), payload.end());
  dgram.tcp = tcp;
  it->second->handler(dgram);
}

void WireTransport::recv_udp_unbatched(int fd, const IpAddress& vaddr) {
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    ssize_t n = recvfrom(fd, recv_buffer_.data(), recv_buffer_.size(), 0,
                         reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) return;  // EAGAIN or transient error: wait for next wakeup
    RealEndpoint real = from_sockaddr(peer);
    IpAddress source;
    if (auto mapped = map_.virtual_for(real)) {
      source = *mapped;  // a serving endpoint answered us
    } else {
      source = session_address_for(real);  // unknown peer: session identity
    }
    deliver(source, vaddr,
            BytesView(recv_buffer_.data(), static_cast<std::size_t>(n)),
            /*tcp=*/false);
  }
}

void WireTransport::on_udp_readable(Endpoint* endpoint) {
  // Locals: a delivery handler may legally unbind this endpoint mid-drain.
  const int fd = endpoint->udp_fd;
  const IpAddress vaddr = endpoint->vaddr;
  const std::size_t batch = options_.udp_batch;
  if (batch <= 1 || !mmsg_recv_ok_) return recv_udp_unbatched(fd, vaddr);

  if (mmsg_buffers_.size() < batch) {
    mmsg_buffers_.resize(batch);
    for (Bytes& buffer : mmsg_buffers_) buffer.resize(65535);
  }
  std::vector<mmsghdr> msgs(batch);
  std::vector<iovec> iovs(batch);
  std::vector<sockaddr_in> peers(batch);
  while (true) {
    for (std::size_t i = 0; i < batch; ++i) {
      iovs[i].iov_base = mmsg_buffers_[i].data();
      iovs[i].iov_len = mmsg_buffers_[i].size();
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_name = &peers[i];
      msgs[i].msg_hdr.msg_namelen = sizeof peers[i];
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    int n = recvmmsg(fd, msgs.data(), static_cast<unsigned>(batch), 0,
                     nullptr);
    if (n < 0) {
      if (errno == ENOSYS || errno == EINVAL) {
        mmsg_recv_ok_ = false;  // kernel without recvmmsg: fall back for good
        return recv_udp_unbatched(fd, vaddr);
      }
      return;  // EAGAIN or transient error: wait for next wakeup
    }
    ++udp_recv_batches_;
    for (int i = 0; i < n; ++i) {
      RealEndpoint real = from_sockaddr(peers[i]);
      IpAddress source;
      if (auto mapped = map_.virtual_for(real)) {
        source = *mapped;
      } else {
        source = session_address_for(real);
      }
      deliver(source, vaddr,
              BytesView(mmsg_buffers_[i].data(), msgs[i].msg_len),
              /*tcp=*/false);
    }
    if (static_cast<std::size_t>(n) < batch) return;  // socket drained
  }
}

void WireTransport::send(const IpAddress& source,
                         const IpAddress& destination, Bytes payload,
                         bool tcp) {
  auto it = endpoints_.find(source);
  if (it == endpoints_.end()) {
    ++datagrams_unroutable_;
    return;
  }
  Endpoint* endpoint = it->second.get();
  ++datagrams_sent_;
  bytes_sent_ += payload.size();

  if (tcp) {
    auto conn_it = tcp_conns_.find(destination);
    TcpConn* conn =
        conn_it != tcp_conns_.end() ? conn_it->second.get() : nullptr;
    if (conn == nullptr) {
      auto real = map_.real_for(destination);
      if (!real) {
        ++datagrams_unroutable_;
        return;
      }
      conn = open_client_conn(source, destination, *real);
      if (conn == nullptr) return;
    }
    queue_frame(conn, payload);
    return;
  }

  RealEndpoint real;
  if (auto mapped = map_.real_for(destination)) {
    real = *mapped;
  } else if (auto session = udp_sessions_.find(destination);
             session != udp_sessions_.end()) {
    real = session->second;
  } else {
    ++datagrams_unroutable_;
    return;
  }
  if (options_.udp_batch <= 1 || !mmsg_send_ok_) {
    send_udp_now(endpoint->udp_fd, real, payload);
    return;
  }
  // Batched path: queue on the endpoint and flush with one sendmmsg when
  // the batch fills; the run loops flush every queue before each poll, so a
  // datagram is never held across a blocking wait.
  endpoint->udp_outq.emplace_back(real, std::move(payload));
  if (!endpoint->udp_queued) {
    endpoint->udp_queued = true;
    udp_pending_.push_back(endpoint);
  }
  if (endpoint->udp_outq.size() >= options_.udp_batch) {
    flush_endpoint_udp(endpoint);
  }
}

void WireTransport::send_udp_now(int fd, const RealEndpoint& real,
                                 BytesView payload) {
  sockaddr_in addr = to_sockaddr(real);
  // Non-blocking best effort: a full socket buffer drops the datagram, the
  // sender's retry logic treats it as network loss (exactly UDP semantics).
  sendto(fd, payload.data(), payload.size(), 0,
         reinterpret_cast<sockaddr*>(&addr), sizeof addr);
}

void WireTransport::flush_endpoint_udp(Endpoint* endpoint) {
  std::vector<std::pair<RealEndpoint, Bytes>>& queue = endpoint->udp_outq;
  endpoint->udp_queued = false;
  if (queue.empty()) return;
  std::size_t off = 0;
  if (mmsg_send_ok_) {
    std::vector<mmsghdr> msgs(queue.size());
    std::vector<iovec> iovs(queue.size());
    std::vector<sockaddr_in> addrs(queue.size());
    for (std::size_t i = 0; i < queue.size(); ++i) {
      addrs[i] = to_sockaddr(queue[i].first);
      iovs[i].iov_base = queue[i].second.data();
      iovs[i].iov_len = queue[i].second.size();
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof addrs[i];
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    while (off < queue.size()) {
      int n = sendmmsg(endpoint->udp_fd, msgs.data() + off,
                       static_cast<unsigned>(queue.size() - off), 0);
      if (n < 0) {
        if (errno == ENOSYS || errno == EINVAL) {
          mmsg_send_ok_ = false;  // fall through to the sendto tail below
          break;
        }
        // Full socket buffer (or transient error): the unsent tail drops,
        // exactly the loss semantics of the unbatched sendto path.
        off = queue.size();
        break;
      }
      ++udp_send_batches_;
      off += static_cast<std::size_t>(n);
    }
  }
  for (; off < queue.size(); ++off) {
    send_udp_now(endpoint->udp_fd, queue[off].first, queue[off].second);
  }
  queue.clear();
}

void WireTransport::flush_udp_sends() {
  // flush_endpoint_udp never *adds* to udp_pending_ (sends during a flush
  // would be nested handler work, which only happens inside poll), so a
  // single sweep empties it.
  while (!udp_pending_.empty()) {
    Endpoint* endpoint = udp_pending_.back();
    udp_pending_.pop_back();
    flush_endpoint_udp(endpoint);
  }
}

WireTransport::TcpConn* WireTransport::open_client_conn(
    const IpAddress& local_vaddr, const IpAddress& peer_vaddr,
    const RealEndpoint& real) {
  int fd = make_socket(SOCK_STREAM);
  if (fd < 0) {
    fail("socket(tcp client)");
    return nullptr;
  }
  sockaddr_in addr = to_sockaddr(real);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc < 0 && errno != EINPROGRESS) {
    close(fd);
    ++datagrams_unroutable_;
    return nullptr;
  }
  auto conn = std::make_unique<TcpConn>();
  conn->fd = fd;
  conn->local_vaddr = local_vaddr;
  conn->peer_vaddr = peer_vaddr;
  conn->connecting = rc < 0;
  TcpConn* raw = conn.get();
  tcp_conns_.emplace(peer_vaddr, std::move(conn));
  ++tcp_opened_;
  loop_.watch(fd, EPOLLIN | EPOLLOUT,
              [this, raw](std::uint32_t events) { on_conn_event(raw, events); });
  return raw;
}

void WireTransport::evict_for_cap() {
  // Oldest-idle-first: the connection that has gone longest without bytes
  // is the likeliest slowloris and the cheapest to lose.
  TcpConn* oldest = nullptr;
  for (auto& [vaddr, conn] : tcp_conns_) {
    if (!conn->accepted) continue;
    if (oldest == nullptr || conn->last_activity < oldest->last_activity) {
      oldest = conn.get();
    }
  }
  if (oldest != nullptr) {
    ++tcp_evicted_cap_;
    close_conn(oldest);
  }
}

void WireTransport::sweep_idle_conns() {
  idle_sweep_timer_ = 0;
  if (options_.tcp_idle_timeout == 0) return;
  const SimTime now = loop_.now();
  // Collect-then-close: close_conn mutates tcp_conns_.
  std::vector<TcpConn*> idle;
  for (auto& [vaddr, conn] : tcp_conns_) {
    if (!conn->accepted) continue;
    if (now - conn->last_activity >= options_.tcp_idle_timeout) {
      idle.push_back(conn.get());
    }
  }
  for (TcpConn* conn : idle) {
    ++tcp_evicted_idle_;
    close_conn(conn);
  }
  arm_idle_sweep();
}

void WireTransport::arm_idle_sweep() {
  if (options_.tcp_idle_timeout == 0 || idle_sweep_timer_ != 0 ||
      accepted_conns_ == 0) {
    return;
  }
  // Sweep at a quarter of the timeout: a connection is closed at most 1.25
  // timeouts after its last byte, with four wakeups per timeout of cost.
  SimTime interval = std::max<SimTime>(1, options_.tcp_idle_timeout / 4);
  idle_sweep_timer_ = loop_.schedule(interval, [this] { sweep_idle_conns(); });
}

void WireTransport::on_accept_ready(Endpoint* endpoint) {
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    int fd = accept4(endpoint->tcp_listen_fd,
                     reinterpret_cast<sockaddr*>(&peer), &peer_len,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (options_.max_tcp_conns > 0 &&
        accepted_conns_ >= options_.max_tcp_conns) {
      evict_for_cap();
    }
    // Every accepted stream is its own session peer, even when several come
    // from one real address: allocate per-connection identities so two
    // concurrent connections from one client never share reply routing.
    std::uint64_t index = next_session_++;
    IpAddress session = IpAddress::v4(
        {100, static_cast<std::uint8_t>(64 + ((index >> 16) & 0x3f)),
         static_cast<std::uint8_t>((index >> 8) & 0xff),
         static_cast<std::uint8_t>(index & 0xff)});
    auto conn = std::make_unique<TcpConn>();
    conn->fd = fd;
    conn->local_vaddr = endpoint->vaddr;
    conn->peer_vaddr = session;
    conn->accepted = true;
    conn->last_activity = loop_.now();
    conn->reassembler = TcpFrameReassembler(options_.tcp_max_buffered);
    TcpConn* raw = conn.get();
    tcp_conns_.emplace(session, std::move(conn));
    ++tcp_accepted_;
    ++accepted_conns_;
    arm_idle_sweep();
    loop_.watch(fd, EPOLLIN, [this, raw](std::uint32_t events) {
      on_conn_event(raw, events);
    });
  }
}

void WireTransport::queue_frame(TcpConn* conn, BytesView payload) {
  if (conn->broken) return;  // dropped like network loss; timeouts recover
  if (!append_tcp_frame(payload, &conn->outbuf)) {
    // Larger than the 16-bit frame limit: undeliverable over DNS TCP.
    ++oversized_tcp_;
    return;
  }
  if (!conn->connecting) flush_conn(conn);
  update_conn_interest(conn);
}

void WireTransport::flush_conn(TcpConn* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    ssize_t n = write(conn->fd, conn->outbuf.data() + conn->out_off,
                      conn->outbuf.size() - conn->out_off);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // Mark broken instead of destroying: flush_conn can run nested inside
      // feed() on this very connection. The epoll EPOLLERR/EPOLLHUP wakeup
      // (or the caller's broken check) performs the actual close.
      conn->broken = true;
      conn->outbuf.clear();
      conn->out_off = 0;
      return;
    }
    conn->out_off += static_cast<std::size_t>(n);
  }
  conn->outbuf.clear();
  conn->out_off = 0;
}

void WireTransport::update_conn_interest(TcpConn* conn) {
  std::uint32_t events = EPOLLIN;
  if (conn->connecting || conn->out_off < conn->outbuf.size()) {
    events |= EPOLLOUT;
  }
  loop_.watch(conn->fd, events, [this, conn](std::uint32_t ready) {
    on_conn_event(conn, ready);
  });
}

void WireTransport::on_conn_event(TcpConn* conn, std::uint32_t events) {
  if (conn->broken || (events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_conn(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (conn->connecting) {
      int err = 0;
      socklen_t len = sizeof err;
      getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        close_conn(conn);
        return;
      }
      conn->connecting = false;
    }
    conn->last_activity = loop_.now();
    flush_conn(conn);
    if (conn->broken) {
      close_conn(conn);
      return;
    }
    update_conn_interest(conn);
  }
  if ((events & EPOLLIN) != 0) {
    while (true) {
      ssize_t n = read(conn->fd, recv_buffer_.data(), recv_buffer_.size());
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(conn);
        return;
      }
      if (n == 0) {
        close_conn(conn);
        return;
      }
      conn->last_activity = loop_.now();
      IpAddress source = conn->peer_vaddr;
      IpAddress destination = conn->local_vaddr;
      bool ok = conn->reassembler.feed(
          BytesView(recv_buffer_.data(), static_cast<std::size_t>(n)),
          [this, &source, &destination](BytesView frame) {
            deliver(source, destination, frame, /*tcp=*/true);
          });
      // The delivery handler can legally unbind/close this connection.
      auto self = tcp_conns_.find(source);
      if (self == tcp_conns_.end()) return;
      if (!ok || conn->broken) {
        // A framing violation sheds exactly this connection — the worker
        // and its other connections keep serving.
        if (!ok) ++malformed_shed_;
        close_conn(conn);
        return;
      }
    }
  }
}

void WireTransport::close_conn(TcpConn* conn) {
  loop_.unwatch(conn->fd);
  close(conn->fd);
  if (conn->accepted && accepted_conns_ > 0) {
    --accepted_conns_;
    // The sweep only exists to watch accepted connections; letting it
    // linger would keep run() from ever reporting idle on this transport.
    if (accepted_conns_ == 0 && idle_sweep_timer_ != 0) {
      loop_.cancel(idle_sweep_timer_);
      idle_sweep_timer_ = 0;
    }
  }
  tcp_conns_.erase(conn->peer_vaddr);  // destroys *conn
}

std::size_t WireTransport::pending_tcp_writes() const {
  std::size_t pending = 0;
  for (const auto& [vaddr, conn] : tcp_conns_) {
    pending += conn->outbuf.size() - conn->out_off;
  }
  return pending;
}

std::size_t WireTransport::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && error().empty()) {
    // Queued UDP sends leave with this iteration — the flush empties every
    // queue by construction, so the idle check below never sees stuck
    // datagrams.
    flush_udp_sends();
    // The idle sweep is a background timer: it exists to reap dead-weight
    // connections, not to represent pending work, so it must not keep run()
    // from reporting idle once the workload's own timers have drained.
    const std::size_t background = idle_sweep_timer_ != 0 ? 1 : 0;
    if (loop_.live_timers() <= background && pending_tcp_writes() == 0) break;
    processed += loop_.poll(kMaxPollWait);
  }
  return processed;
}

void WireTransport::run_forever() {
  // Ownership handoff seam: dnsboot-serve builds each transport on a
  // builder thread and serves it on a worker thread; the std::thread
  // constructor provides the happens-before edge. Release any single-writer
  // claims made during setup so the DNSBOOT_VERIFY checker tags the serving
  // thread as the counters' writer from here on (no-op otherwise).
  metrics_.verify_reset_writers();
  // audit-allow: A004 standalone stop flag; the eventfd wakeup is the sync
  while (!stop_.load(std::memory_order_relaxed) && error().empty()) {
    loop_.poll(kMaxPollWait);
    // Responses queued by handlers during this poll batch go out in one
    // sendmmsg per endpoint before the next blocking wait.
    flush_udp_sends();
  }
}

void WireTransport::stop() {
  // audit-allow: A004 standalone stop flag; the eventfd wakeup is the sync
  stop_.store(true, std::memory_order_relaxed);
  loop_.wakeup();
}

}  // namespace dnsboot::net

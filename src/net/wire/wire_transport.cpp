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
#include <memory>
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

// The IP_PKTINFO record of a received or outbound message, or null.
in_pktinfo* pktinfo_of(msghdr& msg) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level == IPPROTO_IP && c->cmsg_type == IP_PKTINFO) {
      return reinterpret_cast<in_pktinfo*>(CMSG_DATA(c));
    }
  }
  return nullptr;
}

}  // namespace

WireTransport::WireTransport(WireAddressMap map, WireTransportOptions options)
    : map_(std::move(map)),
      options_(options),
      serving_(map_.size(), nullptr),
      recv_block_(std::make_unique_for_overwrite<std::uint8_t[]>(
          kUdpBatch * kMaxDatagram)) {}

WireTransport::~WireTransport() {
  // Tear sockets down while the loop still exists (members of this class
  // are destroyed before base/loop members declared earlier would be —
  // loop_ is declared before the containers, so unwatch explicitly first).
  for (auto& [vaddr, conn] : tcp_conns_) {
    loop_.unwatch(conn->fd);
    close(conn->fd);
  }
  for (auto& [vaddr, endpoint] : endpoints_) {
    if (endpoint->client.fd >= 0) {
      loop_.unwatch(endpoint->client.fd);
      close(endpoint->client.fd);
    }
  }
  close_serving_pair();
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
    endpoint->serving = true;
    if (serving_bound_++ == 0) open_serving_pair();
    serving_[map_.index_of(real->host)] = endpoint.get();
  } else {
    open_client_socket(endpoint.get());
  }
  endpoints_.emplace(address, std::move(endpoint));
}

void WireTransport::open_serving_pair() {
  serving_udp_.fd = open_serving_socket(SOCK_DGRAM);
  serving_tcp_fd_ = open_serving_socket(SOCK_STREAM);
  if (serving_udp_.fd < 0 || serving_tcp_fd_ < 0) return;  // error() says why
  loop_.watch(serving_udp_.fd, EPOLLIN,
              [this](std::uint32_t) { on_serving_readable(); });
  loop_.watch(serving_tcp_fd_, EPOLLIN,
              [this](std::uint32_t) { on_accept_ready(); });
}

int WireTransport::open_serving_socket(int type) {
  // Bound to the wildcard at the base port but only on the loopback device,
  // so nothing off-host reaches it. The UDP socket reports each datagram's
  // destination (IP_PKTINFO); the listener may rebind over TIME_WAIT
  // leftovers. Without SO_REUSEPORT a second transport on the port fails.
  static constexpr char kLoopback[] = "lo";
  const bool udp = type == SOCK_DGRAM;
  const std::string what = std::string(udp ? "udp" : "tcp") + " 0.0.0.0:" +
                           std::to_string(map_.base().port);
  const int fd = make_socket(type);
  if (fd < 0) {
    fail("socket(" + what + ")");
    return -1;
  }
  const int one = 1;
  sockaddr_in addr = to_sockaddr(RealEndpoint{INADDR_ANY, map_.base().port});
  if (setsockopt(fd, SOL_SOCKET, SO_BINDTODEVICE, kLoopback,
                 sizeof kLoopback) < 0 ||
      setsockopt(fd, udp ? IPPROTO_IP : SOL_SOCKET,
                 udp ? IP_PKTINFO : SO_REUSEADDR, &one, sizeof one) < 0 ||
      (options_.reuse_port &&
       setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      (!udp && listen(fd, 128) < 0)) {
    fail("bind(" + what + ")");
    close(fd);
    return -1;
  }
  return fd;
}

void WireTransport::close_serving_pair() {
  if (serving_udp_.fd >= 0) {
    loop_.unwatch(serving_udp_.fd);
    close(serving_udp_.fd);
    serving_udp_.fd = -1;
  }
  if (serving_tcp_fd_ >= 0) {
    loop_.unwatch(serving_tcp_fd_);
    close(serving_tcp_fd_);
    serving_tcp_fd_ = -1;
  }
}

void WireTransport::open_client_socket(Endpoint* endpoint) {
  int fd = make_socket(SOCK_DGRAM);
  endpoint->client.fd = fd;
  if (fd < 0) return fail("socket(udp client)");
  // Bind to the map's base host with an ephemeral port so replies and the
  // servers' session bookkeeping see a stable local address.
  sockaddr_in addr = to_sockaddr(RealEndpoint{map_.base().host, 0});
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    return fail("bind(udp client)");
  }
  socklen_t len = sizeof addr;
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  endpoint->real = from_sockaddr(addr);
  loop_.watch(fd, EPOLLIN, [this, vaddr = endpoint->vaddr](std::uint32_t) {
    on_client_readable(vaddr);
  });
}

void WireTransport::unbind(const IpAddress& address) {
  auto it = endpoints_.find(address);
  if (it == endpoints_.end()) return;
  Endpoint* endpoint = it->second.get();
  // Flush queued datagrams best-effort (a serving endpoint's replies share
  // the serving queue), then drop the pending-list entry so no dangling
  // pointer survives the erase.
  UdpSocket* socket = endpoint->serving ? &serving_udp_ : &endpoint->client;
  flush_udp(socket);
  udp_pending_.erase(
      std::remove(udp_pending_.begin(), udp_pending_.end(), socket),
      udp_pending_.end());
  if (endpoint->serving) {
    serving_[map_.index_of(endpoint->real.host)] = nullptr;
    if (--serving_bound_ == 0) close_serving_pair();
  } else if (endpoint->client.fd >= 0) {
    loop_.unwatch(endpoint->client.fd);
    close(endpoint->client.fd);
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

IpAddress WireTransport::source_for(const RealEndpoint& real) {
  if (auto mapped = map_.virtual_for(real)) {
    return *mapped;  // a serving endpoint answered us
  }
  return session_address_for(real);  // unknown peer: session identity
}

void WireTransport::deliver(Endpoint& endpoint, const IpAddress& source,
                            BytesView payload, bool tcp) {
  ++datagrams_delivered_;
  Datagram dgram;
  dgram.source = source;
  dgram.destination = endpoint.vaddr;
  dgram.payload.assign(payload.begin(), payload.end());
  dgram.tcp = tcp;
  endpoint.handler(dgram);
}

std::size_t WireTransport::recv_batch(int fd, bool pktinfo) {
  for (std::size_t i = 0; i < kUdpBatch; ++i) {
    recv_iovs_[i].iov_base = recv_block_.get() + i * kMaxDatagram;
    recv_iovs_[i].iov_len = kMaxDatagram;
    msghdr& hdr = recv_msgs_[i].msg_hdr;
    hdr = msghdr{};
    hdr.msg_name = &recv_peers_[i];
    hdr.msg_namelen = sizeof recv_peers_[i];
    hdr.msg_iov = &recv_iovs_[i];
    hdr.msg_iovlen = 1;
    if (pktinfo) {
      hdr.msg_control = recv_control_[i].bytes;
      hdr.msg_controllen = sizeof recv_control_[i].bytes;
    }
  }
  const int n = recvmmsg(fd, recv_msgs_.data(), kUdpBatch, 0, nullptr);
  if (n <= 0) return 0;  // EAGAIN or transient error: wait for next wakeup
  ++udp_recv_batches_;
  return static_cast<std::size_t>(n);
}

void WireTransport::on_serving_readable() {
  // A delivery handler may unbind any endpoint mid-drain — or the last one,
  // which closes the pair: re-read the slot table per datagram and stop
  // once the socket drained is no longer the serving one.
  const int fd = serving_udp_.fd;
  while (true) {
    const std::size_t n = recv_batch(fd, /*pktinfo=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      const in_pktinfo* info = pktinfo_of(recv_msgs_[i].msg_hdr);
      const std::size_t index =
          info != nullptr ? map_.index_of(ntohl(info->ipi_addr.s_addr))
                          : serving_.size();
      Endpoint* endpoint = index < serving_.size() ? serving_[index] : nullptr;
      if (endpoint == nullptr) {
        ++datagrams_unroutable_;  // mapped but unbound, or not ours at all
        continue;
      }
      deliver(*endpoint, source_for(from_sockaddr(recv_peers_[i])),
              BytesView(recv_block_.get() + i * kMaxDatagram,
                        recv_msgs_[i].msg_len),
              /*tcp=*/false);
      if (serving_udp_.fd != fd) return;
    }
    if (n < kUdpBatch) return;  // socket drained
  }
}

void WireTransport::on_client_readable(const IpAddress& vaddr) {
  // Look the endpoint up per datagram: a delivery handler may unbind it.
  auto endpoint = endpoints_.find(vaddr);
  if (endpoint == endpoints_.end()) return;
  const int fd = endpoint->second->client.fd;
  while (true) {
    const std::size_t n = recv_batch(fd, /*pktinfo=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      endpoint = endpoints_.find(vaddr);
      if (endpoint == endpoints_.end()) return;
      deliver(*endpoint->second, source_for(from_sockaddr(recv_peers_[i])),
              BytesView(recv_block_.get() + i * kMaxDatagram,
                        recv_msgs_[i].msg_len),
              /*tcp=*/false);
    }
    if (n < kUdpBatch) return;  // socket drained
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
  // Serving endpoints reply through the shared socket, each from its own
  // address; a client endpoint sends from its own socket.
  if (endpoint->serving) {
    queue_udp(&serving_udp_, {real, endpoint->real.host, std::move(payload)});
  } else {
    queue_udp(&endpoint->client, {real, 0, std::move(payload)});
  }
}

void WireTransport::queue_udp(UdpSocket* socket, OutDatagram datagram) {
  // Flushed with one sendmmsg when the batch fills; the run loops flush
  // every queue before each poll, so a datagram is never held across a
  // blocking wait.
  socket->outq.push_back(std::move(datagram));
  if (!socket->queued) {
    socket->queued = true;
    udp_pending_.push_back(socket);
  }
  if (socket->outq.size() >= kUdpBatch) flush_udp(socket);
}

void WireTransport::flush_udp(UdpSocket* socket) {
  std::vector<OutDatagram>& queue = socket->outq;
  socket->queued = false;
  if (queue.empty()) return;
  // send() flushes a queue as soon as it holds a full batch.
  const std::size_t count = queue.size();
  for (std::size_t i = 0; i < count; ++i) {
    send_addrs_[i] = to_sockaddr(queue[i].to);
    send_iovs_[i].iov_base = queue[i].payload.data();
    send_iovs_[i].iov_len = queue[i].payload.size();
    msghdr& hdr = send_msgs_[i].msg_hdr;
    hdr = msghdr{};
    hdr.msg_name = &send_addrs_[i];
    hdr.msg_namelen = sizeof send_addrs_[i];
    hdr.msg_iov = &send_iovs_[i];
    hdr.msg_iovlen = 1;
    if (queue[i].from_host != 0) {
      // The reply leaves from its endpoint's own loopback address.
      hdr.msg_control = send_control_[i].bytes;
      hdr.msg_controllen = sizeof send_control_[i].bytes;
      cmsghdr* c = CMSG_FIRSTHDR(&hdr);
      c->cmsg_level = IPPROTO_IP;
      c->cmsg_type = IP_PKTINFO;
      c->cmsg_len = CMSG_LEN(sizeof(in_pktinfo));
      in_pktinfo info{};
      info.ipi_spec_dst.s_addr = htonl(queue[i].from_host);
      std::memcpy(CMSG_DATA(c), &info, sizeof info);
    }
  }
  std::size_t off = 0;
  while (off < count) {
    const int n = sendmmsg(socket->fd, send_msgs_.data() + off,
                           static_cast<unsigned>(count - off), 0);
    // Non-blocking best effort: a full socket buffer (or a transient error)
    // drops the unsent tail, and the sender's retry logic treats it as
    // network loss (exactly UDP semantics).
    if (n <= 0) break;
    ++udp_send_batches_;
    off += static_cast<std::size_t>(n);
  }
  queue.clear();
}

void WireTransport::flush_udp_sends() {
  // flush_udp never *adds* to udp_pending_ (sends during a flush would be
  // nested handler work, which only happens inside poll), so a single sweep
  // empties it.
  while (!udp_pending_.empty()) {
    UdpSocket* socket = udp_pending_.back();
    udp_pending_.pop_back();
    flush_udp(socket);
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

void WireTransport::on_accept_ready() {
  while (true) {
    int fd = accept4(serving_tcp_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    // The address the client dialled picks the endpoint.
    sockaddr_in local{};
    socklen_t local_len = sizeof local;
    getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_len);
    const std::size_t slot = map_.index_of(ntohl(local.sin_addr.s_addr));
    Endpoint* endpoint = slot < serving_.size() ? serving_[slot] : nullptr;
    if (endpoint == nullptr) {
      ++datagrams_unroutable_;  // a mapped address nobody has bound
      close(fd);
      continue;
    }
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
      ssize_t n = read(conn->fd, recv_block_.get(), kMaxDatagram);
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
          BytesView(recv_block_.get(), static_cast<std::size_t>(n)),
          [this, &source, &destination](BytesView frame) {
            auto endpoint = endpoints_.find(destination);
            if (endpoint != endpoints_.end()) {
              deliver(*endpoint->second, source, frame, /*tcp=*/true);
            }
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
    // sendmmsg per socket before the next blocking wait.
    flush_udp_sends();
  }
}

void WireTransport::stop() {
  // audit-allow: A004 standalone stop flag; the eventfd wakeup is the sync
  stop_.store(true, std::memory_order_relaxed);
  loop_.wakeup();
}

}  // namespace dnsboot::net

// WireTransport — the Transport contract over real kernel sockets.
//
// Non-blocking UDP datagram sockets and TCP streams (2-byte length-prefix
// framing, RFC 1035 §4.2.2) multiplexed on one epoll EventLoop. Endpoints
// above (QueryEngine, AuthServer, Scanner) run unmodified: they bind
// virtual addresses, send wire-format payloads, and schedule timers exactly
// as they do on SimNetwork.
//
// Address model (see address_map.hpp): every virtual address in the
// WireAddressMap is served from one *serving pair* — a UDP socket and a TCP
// listener bound to 0.0.0.0:base.port on "lo" (SO_BINDTODEVICE, which Linux
// allows without privileges since 5.7), opened when the first mapped
// address is bound and closed when the last is unbound. A datagram's
// IP_PKTINFO destination picks its endpoint, each reply leaves from its
// endpoint's own address (ipi_spec_dst), and an accepted connection's
// getsockname() address picks its endpoint. With reuse_port, N worker
// transports each open their own pair on the same port and the kernel
// spreads flows across them. Binding an unmapped virtual address opens a
// *client* UDP socket on an ephemeral port. Real peers without a static
// mapping are given transient session addresses so replies stay plain
// IpAddress sends.
//
// Threading: a WireTransport is single-threaded like SimNetwork. The only
// cross-thread-safe entry point is stop(), which wakes run_forever().
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "net/wire/address_map.hpp"
#include "net/wire/event_loop.hpp"
#include "net/wire/frame.hpp"
#include "obs/stats.hpp"

namespace dnsboot::net {

struct WireTransportOptions {
  // SO_REUSEPORT on the serving pair: N worker threads each run their own
  // transport bound to the same port; the kernel spreads flows.
  bool reuse_port = false;
  // Accepted-TCP-connection cap per transport. At the cap, accepting a new
  // connection first evicts the oldest-idle accepted connection — a
  // slowloris herd cannot pin the table while live clients knock.
  std::size_t max_tcp_conns = 64;
  // Idle timeout for accepted TCP connections (slowloris defense): a
  // connection with no read/write activity for this long is closed by the
  // periodic sweep. 0 disables the sweep.
  SimTime tcp_idle_timeout = 10 * kSecond;
  // Reassembly-buffer cap for accepted TCP connections. The default admits
  // any legal DNS frame (2-byte length prefix + 65535 bytes); a serving
  // tier that never answers near the frame limit can set it lower so a
  // client streaming an over-claimed frame is shed early.
  std::size_t tcp_max_buffered = 2 + 65535;
};

class WireTransport : public Transport {
 public:
  explicit WireTransport(WireAddressMap map, WireTransportOptions options = {});
  ~WireTransport() override;
  WireTransport(const WireTransport&) = delete;
  WireTransport& operator=(const WireTransport&) = delete;

  SimTime now() const override { return loop_.now(); }
  std::uint64_t schedule(SimTime delay, TimerHandler fn) override {
    return loop_.schedule(delay, std::move(fn));
  }
  void cancel(std::uint64_t timer_id) override { loop_.cancel(timer_id); }

  void bind(const IpAddress& address, DatagramHandler handler) override;
  void unbind(const IpAddress& address) override;
  bool is_bound(const IpAddress& address) const override;

  // Port fields on Datagram are not modelled here (the kernel owns real
  // ports); the base-class forwarding overload is exactly right.
  using Transport::send;
  void send(const IpAddress& source, const IpAddress& destination,
            Bytes payload, bool tcp = false) override;

  // Drive until idle: no live timers and no queued TCP writes. Endpoint
  // workloads hold a timeout timer per outstanding query, so this returns
  // when the workload above has finished (same contract as SimNetwork).
  std::size_t run(std::size_t max_events = SIZE_MAX) override;

  // Serve until stop(). Used by dnsboot-serve workers; stop() is safe from
  // another thread or a signal handler.
  void run_forever();
  void stop();

  std::uint64_t datagrams_sent() const override { return datagrams_sent_; }
  std::uint64_t datagrams_delivered() const override {
    return datagrams_delivered_;
  }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  std::uint64_t datagrams_unroutable() const { return datagrams_unroutable_; }
  std::uint64_t tcp_connections_opened() const { return tcp_opened_; }
  std::uint64_t tcp_connections_accepted() const { return tcp_accepted_; }
  std::uint64_t oversized_tcp_dropped() const { return oversized_tcp_; }
  std::uint64_t tcp_evicted_idle() const { return tcp_evicted_idle_; }
  std::uint64_t tcp_evicted_cap() const { return tcp_evicted_cap_; }
  std::uint64_t malformed_shed() const { return malformed_shed_; }
  // Currently-open accepted (server-side) TCP connections.
  std::size_t accepted_tcp_conns() const { return accepted_conns_; }

  // Every counter above, by metric name (dnsboot_wire_*). Counters are
  // written only by the transport's own thread; a scrape thread may read
  // concurrently (dnsboot-serve's /metrics does).
  const obs::MetricsRegistry* metrics_registry() const override {
    return &metrics_;
  }

  const WireAddressMap& address_map() const { return map_; }
  // First fatal socket/loop error; empty when healthy. Callers check this
  // after binding serving endpoints (ports may be taken).
  const std::string& error() const {
    return error_.empty() ? loop_.error() : error_;
  }

 private:
  // recvmmsg/sendmmsg move at most this many datagrams per call, and a
  // socket's outbound queue flushes when it reaches it (DESIGN.md §14.3).
  static constexpr std::size_t kUdpBatch = 16;
  static constexpr std::size_t kMaxDatagram = 65535;

  // One outbound datagram waiting for its socket's sendmmsg flush.
  struct OutDatagram {
    RealEndpoint to;
    std::uint32_t from_host = 0;  // source address; 0 on a client socket
    Bytes payload;
  };
  // A UDP socket and its outbound queue: the serving socket every mapped
  // endpoint shares, or one client endpoint's own socket. Queued at most
  // one poll iteration: send() flushes at kUdpBatch, the run loops flush
  // before every poll, and a flush always empties the queue (unsendable
  // tails drop with plain UDP-loss semantics).
  struct UdpSocket {
    int fd = -1;
    std::vector<OutDatagram> outq;
    bool queued = false;  // true while on udp_pending_
  };
  struct Endpoint {
    IpAddress vaddr;
    DatagramHandler handler;
    RealEndpoint real;  // mapped address, or the client socket's own
    bool serving = false;
    UdpSocket client;  // client endpoints only; serving ones use serving_udp_
  };
  struct TcpConn {
    int fd = -1;
    IpAddress local_vaddr;  // endpoint this connection belongs to
    IpAddress peer_vaddr;   // static (client-opened) or session (accepted)
    Bytes outbuf;
    std::size_t out_off = 0;
    TcpFrameReassembler reassembler;
    bool connecting = false;
    // A fatal write error inside a nested send (while feed() is walking this
    // connection's buffer) must not destroy the object mid-iteration; the
    // flag defers teardown to the owning on_conn_event frame.
    bool broken = false;
    // Server-side (accepted) connections are subject to the cap and the
    // idle sweep; client-opened connections are the transport's own.
    bool accepted = false;
    SimTime last_activity = 0;
  };

  void open_serving_pair();
  // One socket of the pair (SOCK_DGRAM or SOCK_STREAM), or -1 after fail().
  int open_serving_socket(int type);
  void close_serving_pair();
  void open_client_socket(Endpoint* endpoint);
  // recvmmsg into the receive arrays; returns the datagram count (0 when
  // the socket is drained or failed). `pktinfo` asks for each datagram's
  // destination address (serving socket only).
  std::size_t recv_batch(int fd, bool pktinfo);
  void on_serving_readable();
  void on_client_readable(const IpAddress& vaddr);
  IpAddress source_for(const RealEndpoint& real);
  void queue_udp(UdpSocket* socket, OutDatagram datagram);
  // sendmmsg flush of one socket's queue / of every queued socket.
  void flush_udp(UdpSocket* socket);
  void flush_udp_sends();
  void on_accept_ready();
  void on_conn_event(TcpConn* conn, std::uint32_t events);
  void queue_frame(TcpConn* conn, BytesView payload);
  void flush_conn(TcpConn* conn);
  void update_conn_interest(TcpConn* conn);
  void close_conn(TcpConn* conn);
  TcpConn* open_client_conn(const IpAddress& local_vaddr,
                            const IpAddress& peer_vaddr,
                            const RealEndpoint& real);
  IpAddress session_address_for(const RealEndpoint& real);
  void deliver(Endpoint& endpoint, const IpAddress& source, BytesView payload,
               bool tcp);
  void fail(const std::string& what);
  std::size_t pending_tcp_writes() const;
  // Slowloris defenses: evict the oldest-idle accepted connection (cap
  // pressure), and the periodic idle sweep behind it.
  void evict_for_cap();
  void sweep_idle_conns();
  // (Re)arm the sweep timer. It exists only while accepted connections do:
  // run() idles on "no live timers", and a standing sweep timer on a client
  // transport would keep run() spinning forever.
  void arm_idle_sweep();

  // Threading contract (enforced under DNSBOOT_VERIFY): everything below is
  // owned by the thread that calls run()/run_forever()/poll_once(). A
  // transport may be *built* on one thread and *run* on another — that
  // handoff is the run_forever() entry, which re-tags the metrics counters
  // (MetricsRegistry::verify_reset_writers) and is where loop ownership is
  // first asserted. stop_ is the one cross-thread flag; the eventfd wakeup
  // inside EventLoop provides the ordering.
  WireAddressMap map_;
  WireTransportOptions options_;
  EventLoop loop_;
  std::atomic<bool> stop_{false};

  std::unordered_map<IpAddress, std::unique_ptr<Endpoint>, IpAddressHash>
      endpoints_;
  // The serving pair, and the bound serving endpoint of each map index
  // (null while unbound). Open exactly while serving_bound_ > 0.
  UdpSocket serving_udp_;
  int serving_tcp_fd_ = -1;
  std::vector<Endpoint*> serving_;
  std::size_t serving_bound_ = 0;
  // Live TCP connections keyed by peer virtual address (static for client
  // connections, session for accepted ones) — exactly the key send() has.
  std::unordered_map<IpAddress, std::unique_ptr<TcpConn>, IpAddressHash>
      tcp_conns_;
  // Transient UDP peers: session vaddr -> real endpoint (reply routing) and
  // real endpoint -> session vaddr (dedupe inbound).
  std::unordered_map<IpAddress, RealEndpoint, IpAddressHash> udp_sessions_;
  std::unordered_map<std::uint64_t, IpAddress> udp_sessions_by_real_;
  std::uint64_t next_session_ = 0;
  std::size_t accepted_conns_ = 0;
  std::uint64_t idle_sweep_timer_ = 0;  // 0 when not armed

  // One uninitialised block of kUdpBatch × kMaxDatagram receive buffers;
  // only pages the kernel writes datagrams into become resident. TCP reads
  // use the first buffer. The headers, iovecs, addresses and control
  // buffers of both directions are reused across calls; receive and send
  // keep separate sets because a delivery handler's send can flush while a
  // received batch is still being delivered.
  struct alignas(cmsghdr) PktinfoControl {
    unsigned char bytes[CMSG_SPACE(sizeof(in_pktinfo))];
  };
  std::unique_ptr<std::uint8_t[]> recv_block_;
  std::array<mmsghdr, kUdpBatch> recv_msgs_{};
  std::array<iovec, kUdpBatch> recv_iovs_{};
  std::array<sockaddr_in, kUdpBatch> recv_peers_{};
  std::array<PktinfoControl, kUdpBatch> recv_control_{};
  std::array<mmsghdr, kUdpBatch> send_msgs_{};
  std::array<iovec, kUdpBatch> send_iovs_{};
  std::array<sockaddr_in, kUdpBatch> send_addrs_{};
  std::array<PktinfoControl, kUdpBatch> send_control_{};
  // Sockets with queued outbound datagrams (ordered only for bookkeeping —
  // flush order does not affect delivery).
  std::vector<UdpSocket*> udp_pending_;
  std::string error_;

  // Registry before its views (members initialize in declaration order).
  obs::MetricsRegistry metrics_;
  obs::CounterRef datagrams_sent_{
      metrics_.counter("dnsboot_wire_datagrams_sent")};
  obs::CounterRef datagrams_delivered_{
      metrics_.counter("dnsboot_wire_datagrams_delivered")};
  obs::CounterRef bytes_sent_{metrics_.counter("dnsboot_wire_bytes_sent")};
  obs::CounterRef datagrams_unroutable_{
      metrics_.counter("dnsboot_wire_datagrams_unroutable")};
  obs::CounterRef tcp_opened_{metrics_.counter("dnsboot_wire_tcp_opened")};
  obs::CounterRef tcp_accepted_{
      metrics_.counter("dnsboot_wire_tcp_accepted")};
  obs::CounterRef oversized_tcp_{
      metrics_.counter("dnsboot_wire_oversized_tcp_dropped")};
  obs::CounterRef tcp_evicted_idle_{
      metrics_.counter("dnsboot_wire_tcp_evicted_idle")};
  obs::CounterRef tcp_evicted_cap_{
      metrics_.counter("dnsboot_wire_tcp_evicted_cap")};
  obs::CounterRef malformed_shed_{
      metrics_.counter("dnsboot_wire_malformed_shed")};
  // mmsg batching effectiveness: one tick per recvmmsg/sendmmsg syscall
  // that moved at least one datagram (smoke scripts assert these are a
  // small fraction of the datagram counters when batching is on).
  obs::CounterRef udp_recv_batches_{
      metrics_.counter("dnsboot_wire_udp_recv_batches")};
  obs::CounterRef udp_send_batches_{
      metrics_.counter("dnsboot_wire_udp_send_batches")};
};

}  // namespace dnsboot::net

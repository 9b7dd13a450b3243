#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <string>
#include <vector>

#include "dns/zonefile.hpp"
#include "net/wire/address_map.hpp"
#include "net/wire/event_loop.hpp"
#include "net/wire/frame.hpp"
#include "net/wire/wire_transport.hpp"
#include "resolver/query_engine.hpp"
#include "server/auth_server.hpp"

namespace dnsboot::net {
namespace {

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

// Each fixture gets its own loopback port range so tests never collide with
// each other or with a concurrent run of the suite on the same machine.
std::uint16_t next_base_port() {
  static std::uint16_t next =
      static_cast<std::uint16_t>(41000 + (getpid() % 4000));
  std::uint16_t base = next;
  next = static_cast<std::uint16_t>(next + 32);
  return base;
}

// Drive the transport until `done` or a real-time budget expires. A short
// guard timer keeps run(1) from declaring idle while we are still waiting
// on the kernel.
bool run_until(WireTransport& transport, const std::function<bool()>& done,
               SimTime budget = 5 * kSecond) {
  SimTime deadline = transport.now() + budget;
  while (!done() && transport.now() < deadline) {
    std::uint64_t guard = transport.schedule(20 * kMillisecond, [] {});
    transport.run(1);
    transport.cancel(guard);
  }
  return done();
}

// --- EventLoop -----------------------------------------------------------

TEST(EventLoop, FiresTimerAfterDelay) {
  EventLoop loop;
  ASSERT_TRUE(loop.error().empty());
  bool fired = false;
  loop.schedule(2 * kMillisecond, [&] { fired = true; });
  SimTime start = loop.now();
  while (!fired && loop.now() < start + kSecond) loop.poll(50 * kMillisecond);
  EXPECT_TRUE(fired);
  EXPECT_GE(loop.now() - start, 1 * kMillisecond);
  EXPECT_EQ(loop.live_timers(), 0u);
}

TEST(EventLoop, FiresTimersInExpiryOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30 * kMillisecond, [&] { order.push_back(2); });
  loop.schedule(5 * kMillisecond, [&] { order.push_back(1); });
  SimTime start = loop.now();
  while (order.size() < 2 && loop.now() < start + kSecond) {
    loop.poll(50 * kMillisecond);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  std::uint64_t id = loop.schedule(5 * kMillisecond, [&] { fired = true; });
  loop.cancel(id);
  EXPECT_EQ(loop.live_timers(), 0u);
  bool other = false;
  loop.schedule(20 * kMillisecond, [&] { other = true; });
  SimTime start = loop.now();
  while (!other && loop.now() < start + kSecond) loop.poll(50 * kMillisecond);
  EXPECT_TRUE(other);
  EXPECT_FALSE(fired);
}

TEST(EventLoop, LongDelayCascadesThroughWheelLevels) {
  // A 400 ms timer waits through several poll() passes capped at 100 ms;
  // each pass re-reads the queue's next due time, and the timer fires only
  // once that time has passed.
  EventLoop loop;
  bool fired = false;
  loop.schedule(400 * kMillisecond, [&] { fired = true; });
  SimTime start = loop.now();
  while (!fired && loop.now() < start + 2 * kSecond) {
    loop.poll(100 * kMillisecond);
  }
  EXPECT_TRUE(fired);
  EXPECT_GE(loop.now() - start, 390 * kMillisecond);
}

TEST(EventLoop, FarHorizonTimerParksInOverflow) {
  // A timer 60 days out must wait without firing while nearer timers fire
  // around it, and cancel cleanly.
  EventLoop loop;
  ASSERT_TRUE(loop.error().empty());
  bool fired = false;
  const SimTime sixty_days = SimTime{60} * 86400 * kSecond;
  std::uint64_t id = loop.schedule(sixty_days, [&] { fired = true; });
  EXPECT_EQ(loop.live_timers(), 1u);

  // Polling fires the near timer; the far one must neither fire nor get
  // lost.
  bool near_fired = false;
  loop.schedule(2 * kMillisecond, [&] { near_fired = true; });
  SimTime start = loop.now();
  while (!near_fired && loop.now() < start + kSecond) {
    loop.poll(50 * kMillisecond);
  }
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.live_timers(), 1u);

  // Cancelled while far out, it never fires.
  loop.cancel(id);
  EXPECT_EQ(loop.live_timers(), 0u);
}

TEST(EventLoop, StaleIdsCancelNothingAfterSlotReuse) {
  EventLoop loop;
  ASSERT_TRUE(loop.error().empty());
  bool first_fired = false;
  const std::uint64_t fired_id = loop.schedule(0, [&] { first_fired = true; });
  SimTime start = loop.now();
  while (!first_fired && loop.now() < start + kSecond) {
    loop.poll(50 * kMillisecond);
  }
  ASSERT_TRUE(first_fired);
  const std::uint64_t cancelled_id = loop.schedule(kSecond, [] {});
  loop.cancel(cancelled_id);

  // The slot both stale ids named now holds a new timer.
  bool fresh_fired = false;
  const std::uint64_t fresh_id =
      loop.schedule(2 * kMillisecond, [&] { fresh_fired = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(fresh_id),
            static_cast<std::uint32_t>(fired_id));
  EXPECT_EQ(static_cast<std::uint32_t>(fresh_id),
            static_cast<std::uint32_t>(cancelled_id));
  EXPECT_NE(fresh_id, fired_id);
  EXPECT_NE(fresh_id, cancelled_id);
  loop.cancel(fired_id);
  loop.cancel(cancelled_id);
  loop.cancel(0);
  EXPECT_EQ(loop.live_timers(), 1u);

  start = loop.now();
  while (!fresh_fired && loop.now() < start + kSecond) {
    loop.poll(50 * kMillisecond);
  }
  EXPECT_TRUE(fresh_fired);
  EXPECT_EQ(loop.live_timers(), 0u);
}

TEST(EventLoop, CancelDestroysHandlerAtOnce) {
  EventLoop loop;
  ASSERT_TRUE(loop.error().empty());
  auto token = std::make_shared<int>(0);
  const std::uint64_t id = loop.schedule(kSecond, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  loop.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(loop.live_timers(), 0u);
}

// --- TcpFrameReassembler -------------------------------------------------

Bytes frame_bytes(const std::string& payload) {
  Bytes out;
  EXPECT_TRUE(append_tcp_frame(
      BytesView(reinterpret_cast<const std::uint8_t*>(payload.data()),
                payload.size()),
      &out));
  return out;
}

TEST(TcpFraming, AppendPrefixesLength) {
  Bytes out = frame_bytes("abc");
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(out[2], 'a');
}

TEST(TcpFraming, RejectsOversizedPayload) {
  Bytes big(65536, 0xaa);
  Bytes out;
  EXPECT_FALSE(append_tcp_frame(BytesView(big.data(), big.size()), &out));
  EXPECT_TRUE(out.empty());
}

TEST(TcpFraming, ReassemblesByteAtATime) {
  TcpFrameReassembler reassembler;
  Bytes stream = frame_bytes("hello");
  std::vector<std::string> frames;
  for (std::uint8_t byte : stream) {
    ASSERT_TRUE(reassembler.feed(BytesView(&byte, 1), [&](BytesView frame) {
      frames.emplace_back(frame.begin(), frame.end());
    }));
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "hello");
  EXPECT_EQ(reassembler.buffered(), 0u);
}

TEST(TcpFraming, ReassemblesPipelinedFrames) {
  TcpFrameReassembler reassembler;
  Bytes stream = frame_bytes("one");
  Bytes second = frame_bytes("twotwo");
  stream.insert(stream.end(), second.begin(), second.end());
  // Split at an awkward boundary inside the second frame's length prefix.
  std::vector<std::string> frames;
  auto on_frame = [&](BytesView frame) {
    frames.emplace_back(frame.begin(), frame.end());
  };
  ASSERT_TRUE(reassembler.feed(BytesView(stream.data(), 6), on_frame));
  ASSERT_TRUE(reassembler.feed(
      BytesView(stream.data() + 6, stream.size() - 6), on_frame));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "one");
  EXPECT_EQ(frames[1], "twotwo");
  EXPECT_EQ(reassembler.frames_emitted(), 2u);
}

TEST(TcpFraming, EmitsZeroLengthFrame) {
  TcpFrameReassembler reassembler;
  const std::uint8_t zero[2] = {0, 0};
  int frames = 0;
  ASSERT_TRUE(reassembler.feed(BytesView(zero, 2), [&](BytesView frame) {
    EXPECT_EQ(frame.size(), 0u);
    ++frames;
  }));
  EXPECT_EQ(frames, 1);
}

TEST(TcpFraming, FailsWhenPartialFrameExceedsCap) {
  TcpFrameReassembler reassembler(/*max_buffered=*/16);
  Bytes chunk(17, 0xff);  // claims a 65535-byte frame, never completes
  EXPECT_FALSE(reassembler.feed(BytesView(chunk.data(), chunk.size()),
                                [](BytesView) { FAIL(); }));
  EXPECT_TRUE(reassembler.failed());
  // A failed reassembler stays failed.
  const std::uint8_t byte = 0;
  EXPECT_FALSE(reassembler.feed(BytesView(&byte, 1), [](BytesView) {}));
}

// --- WireAddressMap ------------------------------------------------------

TEST(WireAddressMapTest, AssignsSequentialAddressesInOrder) {
  WireAddressMap map(RealEndpoint{0x7f000001, 5300});
  IpAddress a = IpAddress::synthetic_v4(10);
  IpAddress b = IpAddress::synthetic_v4(11);
  ASSERT_TRUE(map.add(a));
  ASSERT_TRUE(map.add(b));
  EXPECT_EQ(map.real_for(a), (RealEndpoint{0x7f000001, 5300}));
  EXPECT_EQ(map.real_for(b), (RealEndpoint{0x7f000002, 5300}));
  EXPECT_EQ(map.virtual_for(RealEndpoint{0x7f000002, 5300}), b);
  EXPECT_EQ(map.index_of(0x7f000002), 1u);
  EXPECT_EQ(map.index_of(0x7f000003), map.size());
  EXPECT_EQ(map.index_of(0x7f000000), map.size());
  EXPECT_FALSE(map.virtual_for(RealEndpoint{0x7f000003, 5300}).has_value());
  // Every endpoint shares the base port: another port maps nothing.
  EXPECT_FALSE(map.virtual_for(RealEndpoint{0x7f000001, 5301}).has_value());
}

TEST(WireAddressMapTest, RepeatAddIsIdempotent) {
  WireAddressMap map(RealEndpoint{0x7f000001, 6000});
  IpAddress a = IpAddress::synthetic_v4(1);
  ASSERT_TRUE(map.add(a));
  ASSERT_TRUE(map.add(a));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.real_for(a)->port, 6000);
}

TEST(WireAddressMapTest, RefusesToLeaveLoopback) {
  WireAddressMap map(RealEndpoint{0x7ffffffd, 5300});
  EXPECT_TRUE(map.add(IpAddress::synthetic_v4(1)));   // 127.255.255.253
  EXPECT_TRUE(map.add(IpAddress::synthetic_v4(2)));   // 127.255.255.254
  EXPECT_FALSE(map.add(IpAddress::synthetic_v4(3)));  // the broadcast address
  EXPECT_EQ(map.size(), 2u);
  // A base outside 127.0.0.0/8 maps nothing.
  WireAddressMap public_base(RealEndpoint{0xc0000201, 5300});  // 192.0.2.1
  EXPECT_FALSE(public_base.add(IpAddress::synthetic_v4(1)));
  EXPECT_EQ(public_base.size(), 0u);
  EXPECT_TRUE(is_loopback(0x7f000001));
  EXPECT_FALSE(is_loopback(0x80000001));
}

TEST(WireAddressMapTest, ParsesEndpoints) {
  auto ok = parse_endpoint("127.0.0.1:5300");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->host, 0x7f000001u);
  EXPECT_EQ(ok->port, 5300);
  EXPECT_EQ(ok->to_text(), "127.0.0.1:5300");
  EXPECT_FALSE(parse_endpoint("127.0.0.1").has_value());
  EXPECT_FALSE(parse_endpoint("127.0.0.1:0").has_value());
  EXPECT_FALSE(parse_endpoint("127.0.0.1:70000").has_value());
  EXPECT_FALSE(parse_endpoint("300.0.0.1:53").has_value());
  EXPECT_FALSE(parse_endpoint("127.0.0.1:53x").has_value());
}

// --- WireTransport -------------------------------------------------------

struct WireFixture {
  IpAddress server_vaddr = IpAddress::synthetic_v4(100);
  IpAddress client_vaddr = IpAddress::v4({192, 0, 2, 1});
  std::uint16_t base_port = next_base_port();
  WireAddressMap map{RealEndpoint{0x7f000001, base_port}};

  WireFixture() { map.add(server_vaddr); }
};

TEST(WireTransportTest, UdpRoundTripBetweenEndpoints) {
  WireFixture fx;
  WireTransport transport(fx.map);
  std::vector<Bytes> server_seen;
  transport.bind(fx.server_vaddr, [&](const Datagram& dgram) {
    EXPECT_FALSE(dgram.tcp);
    server_seen.push_back(dgram.payload);
    // Echo back, reversed, to wherever the query came from.
    Bytes reply(dgram.payload.rbegin(), dgram.payload.rend());
    transport.send(fx.server_vaddr, dgram.source, std::move(reply));
  });
  Bytes client_got;
  IpAddress reply_source;
  transport.bind(fx.client_vaddr, [&](const Datagram& dgram) {
    client_got = dgram.payload;
    reply_source = dgram.source;
  });
  ASSERT_TRUE(transport.error().empty()) << transport.error();

  transport.send(fx.client_vaddr, fx.server_vaddr, Bytes{1, 2, 3});
  ASSERT_TRUE(run_until(transport, [&] { return !client_got.empty(); }));
  EXPECT_EQ(server_seen.size(), 1u);
  EXPECT_EQ(client_got, (Bytes{3, 2, 1}));
  // The reply's source is the server's virtual address: the reverse map
  // restores simulator-identical addressing.
  EXPECT_EQ(reply_source, fx.server_vaddr);
  EXPECT_EQ(transport.datagrams_sent(), 2u);
  EXPECT_EQ(transport.datagrams_delivered(), 2u);
  EXPECT_EQ(transport.bytes_sent(), 6u);
}

TEST(WireTransportTest, SessionAddressIsStablePerPeer) {
  WireFixture fx;
  WireTransport transport(fx.map);
  std::vector<IpAddress> sources;
  transport.bind(fx.server_vaddr, [&](const Datagram& dgram) {
    sources.push_back(dgram.source);
  });
  transport.bind(fx.client_vaddr, [](const Datagram&) {});
  transport.send(fx.client_vaddr, fx.server_vaddr, Bytes{1});
  transport.send(fx.client_vaddr, fx.server_vaddr, Bytes{2});
  ASSERT_TRUE(run_until(transport, [&] { return sources.size() >= 2; }));
  ASSERT_EQ(sources.size(), 2u);
  // Same real socket, same session identity — retries and pacing depend on
  // a stable peer address, and it lives in the CGNAT session range.
  EXPECT_EQ(sources[0], sources[1]);
  EXPECT_EQ(sources[0].bytes()[0], 100);
}

TEST(WireTransportTest, TcpQueryAndResponseOverOneConnection) {
  WireFixture fx;
  WireTransport transport(fx.map);
  transport.bind(fx.server_vaddr, [&](const Datagram& dgram) {
    EXPECT_TRUE(dgram.tcp);
    Bytes reply = dgram.payload;
    reply.push_back(0x99);
    transport.send(fx.server_vaddr, dgram.source, std::move(reply),
                   /*tcp=*/true);
  });
  std::vector<Bytes> replies;
  std::vector<IpAddress> reply_sources;
  transport.bind(fx.client_vaddr, [&](const Datagram& dgram) {
    EXPECT_TRUE(dgram.tcp);
    replies.push_back(dgram.payload);
    reply_sources.push_back(dgram.source);
  });

  transport.send(fx.client_vaddr, fx.server_vaddr, Bytes{7, 8}, /*tcp=*/true);
  transport.send(fx.client_vaddr, fx.server_vaddr, Bytes{9}, /*tcp=*/true);
  ASSERT_TRUE(run_until(transport, [&] { return replies.size() >= 2; }));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], (Bytes{7, 8, 0x99}));
  EXPECT_EQ(replies[1], (Bytes{9, 0x99}));
  // Both queries share one client connection.
  EXPECT_EQ(transport.tcp_connections_opened(), 1u);
  EXPECT_EQ(transport.tcp_connections_accepted(), 1u);
  // TCP replies arrive from the server's virtual address, as on UDP.
  EXPECT_EQ(reply_sources[0], fx.server_vaddr);
}

TEST(WireTransportTest, UdpBurstIsBatchedWithMmsg) {
  WireFixture fx;
  WireTransport transport(fx.map);
  std::size_t server_seen = 0;
  transport.bind(fx.server_vaddr, [&](const Datagram& dgram) {
    ++server_seen;
    Bytes reply(dgram.payload.rbegin(), dgram.payload.rend());
    transport.send(fx.server_vaddr, dgram.source, std::move(reply));
  });
  std::size_t client_got = 0;
  transport.bind(fx.client_vaddr,
                 [&](const Datagram&) { ++client_got; });
  ASSERT_TRUE(transport.error().empty()) << transport.error();

  // A burst larger than the batch: the client queue flushes mid-send (at
  // 16 datagrams) and again before the poll; the server drains with
  // recvmmsg and its echoes ride one sendmmsg per poll iteration.
  constexpr std::size_t kBurst = 50;
  for (std::size_t i = 0; i < kBurst; ++i) {
    transport.send(fx.client_vaddr, fx.server_vaddr,
                   Bytes{static_cast<std::uint8_t>(i), 42});
  }
  ASSERT_TRUE(run_until(transport, [&] { return client_got >= kBurst; }));
  EXPECT_EQ(server_seen, kBurst);
  EXPECT_EQ(client_got, kBurst);
  EXPECT_EQ(transport.datagrams_sent(), 2 * kBurst);
  EXPECT_EQ(transport.datagrams_delivered(), 2 * kBurst);

  // Batching engaged: far fewer syscalls than datagrams in each direction.
  const obs::MetricsRegistry* metrics = transport.metrics_registry();
  ASSERT_NE(metrics, nullptr);
  const std::uint64_t send_batches =
      metrics->counter_value("dnsboot_wire_udp_send_batches");
  const std::uint64_t recv_batches =
      metrics->counter_value("dnsboot_wire_udp_recv_batches");
  EXPECT_GT(send_batches, 0u);
  EXPECT_LT(send_batches, 2 * kBurst);
  EXPECT_GT(recv_batches, 0u);
  EXPECT_LT(recv_batches, 2 * kBurst);
}

TEST(WireTransportTest, CountsUnroutableSends) {
  WireFixture fx;
  WireTransport transport(fx.map);
  transport.bind(fx.client_vaddr, [](const Datagram&) {});
  // Unknown source endpoint.
  transport.send(IpAddress::synthetic_v4(77), fx.server_vaddr, Bytes{1});
  // Known source, destination neither mapped nor a session.
  transport.send(fx.client_vaddr, IpAddress::synthetic_v4(78), Bytes{1});
  EXPECT_EQ(transport.datagrams_unroutable(), 2u);
}

TEST(WireTransportTest, BindErrorIsReported) {
  WireFixture fx;
  WireTransport first(fx.map);
  first.bind(fx.server_vaddr, [](const Datagram&) {});
  ASSERT_TRUE(first.error().empty()) << first.error();
  // Same mapped real endpoint, no SO_REUSEPORT: the second bind must fail
  // loudly rather than silently stealing or losing traffic.
  WireTransport second(fx.map);
  second.bind(fx.server_vaddr, [](const Datagram&) {});
  EXPECT_FALSE(second.error().empty());
}

// --- TCP serving-tier defenses -------------------------------------------

sockaddr_in loopback_addr(std::uint32_t host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(host);
  return addr;
}

// Raw blocking TCP client — the attacker side of the slowloris tests. The
// engine would never misbehave like this, so the tests speak socket(2).
int raw_tcp_connect(std::uint16_t port, std::uint32_t host = 0x7f000001) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = loopback_addr(host, port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Peer state probe: 0 = closed by server, 1 = still open, -1 = undecided.
int peer_state(int fd) {
  std::uint8_t byte;
  ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
  if (n == 0) return 0;
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 1;
  return -1;
}

TEST(WireTransportTest, IdleTimeoutEvictsSlowlorisConnection) {
  WireFixture fx;
  WireTransportOptions options;
  options.tcp_idle_timeout = 100 * kMillisecond;
  WireTransport transport(fx.map, options);
  transport.bind(fx.server_vaddr, [](const Datagram&) {});
  ASSERT_TRUE(transport.error().empty()) << transport.error();

  // A slowloris client: connect, send half a frame header, then stall.
  int fd = raw_tcp_connect(fx.map.real_for(fx.server_vaddr)->port);
  const std::uint8_t half_header = 0;
  ASSERT_EQ(::send(fd, &half_header, 1, 0), 1);
  ASSERT_TRUE(run_until(transport,
                        [&] { return transport.tcp_evicted_idle() >= 1; }));
  EXPECT_EQ(transport.tcp_evicted_idle(), 1u);
  EXPECT_EQ(transport.accepted_tcp_conns(), 0u);
  // The victim sees the connection closed from the server side.
  EXPECT_EQ(peer_state(fd), 0);
  // The eviction is visible in the transport's metrics registry.
  EXPECT_EQ(transport.metrics_registry()->counter_value(
                "dnsboot_wire_tcp_evicted_idle"),
            1u);
  ::close(fd);
}

TEST(WireTransportTest, ConnectionCapEvictsOldestIdleFirst) {
  WireFixture fx;
  WireTransportOptions options;
  options.max_tcp_conns = 2;
  WireTransport transport(fx.map, options);
  transport.bind(fx.server_vaddr, [](const Datagram&) {});
  ASSERT_TRUE(transport.error().empty()) << transport.error();
  const std::uint16_t port = fx.map.real_for(fx.server_vaddr)->port;

  int first = raw_tcp_connect(port);
  ASSERT_TRUE(run_until(transport,
                        [&] { return transport.accepted_tcp_conns() >= 1; }));
  int second = raw_tcp_connect(port);
  ASSERT_TRUE(run_until(transport,
                        [&] { return transport.accepted_tcp_conns() >= 2; }));
  // Refresh the second connection's activity clock so the first is
  // unambiguously the oldest-idle when the cap eviction has to choose.
  Bytes frame = frame_bytes("q");
  ASSERT_EQ(::send(second, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  ASSERT_TRUE(run_until(
      transport, [&] { return transport.datagrams_delivered() >= 1; }));

  int third = raw_tcp_connect(port);
  ASSERT_TRUE(run_until(transport,
                        [&] { return transport.tcp_evicted_cap() >= 1; }));
  EXPECT_EQ(transport.tcp_evicted_cap(), 1u);
  EXPECT_EQ(transport.accepted_tcp_conns(), 2u);
  // The oldest-idle connection was the one evicted; the others survive.
  ASSERT_TRUE(run_until(transport, [&] { return peer_state(first) == 0; }));
  EXPECT_EQ(peer_state(second), 1);
  EXPECT_EQ(peer_state(third), 1);
  EXPECT_EQ(
      transport.metrics_registry()->counter_value("dnsboot_wire_tcp_evicted_cap"),
      1u);
  ::close(first);
  ::close(second);
  ::close(third);
}

TEST(WireTransportTest, UnbindReleasesAcceptedConnections) {
  WireFixture fx;
  WireTransportOptions options;
  options.max_tcp_conns = 1;
  WireTransport transport(fx.map, options);
  transport.bind(fx.server_vaddr, [](const Datagram&) {});
  ASSERT_TRUE(transport.error().empty()) << transport.error();
  const std::uint16_t port = fx.map.real_for(fx.server_vaddr)->port;

  int first = raw_tcp_connect(port);
  ASSERT_TRUE(run_until(transport,
                        [&] { return transport.accepted_tcp_conns() >= 1; }));
  transport.unbind(fx.server_vaddr);
  // The endpoint's accepted connection is closed and no longer counted.
  EXPECT_EQ(transport.accepted_tcp_conns(), 0u);
  ::close(first);

  // Rebound, the endpoint accepts a new connection under the cap of one
  // without an eviction.
  transport.bind(fx.server_vaddr, [](const Datagram&) {});
  ASSERT_TRUE(transport.error().empty()) << transport.error();
  int second = raw_tcp_connect(port);
  ASSERT_TRUE(run_until(
      transport, [&] { return transport.tcp_connections_accepted() >= 2; }));
  EXPECT_EQ(transport.accepted_tcp_conns(), 1u);
  EXPECT_EQ(transport.tcp_evicted_cap(), 0u);
  EXPECT_EQ(peer_state(second), 1);
  ::close(second);
}

TEST(WireTransportTest, MalformedTcpFrameIsShedWithoutKillingWorker) {
  WireFixture fx;
  WireTransportOptions options;
  options.tcp_max_buffered = 512;  // serving tier that caps frames low
  WireTransport transport(fx.map, options);
  int frames_delivered = 0;
  transport.bind(fx.server_vaddr,
                 [&](const Datagram&) { ++frames_delivered; });
  ASSERT_TRUE(transport.error().empty()) << transport.error();
  const std::uint16_t port = fx.map.real_for(fx.server_vaddr)->port;

  // A frame that claims 65535 bytes and streams garbage overflows the
  // reassembly cap: the connection must be shed, not the worker.
  int bad = raw_tcp_connect(port);
  Bytes garbage(4096, 0xff);
  (void)::send(bad, garbage.data(), garbage.size(), MSG_NOSIGNAL);
  ASSERT_TRUE(run_until(transport,
                        [&] { return transport.malformed_shed() >= 1; }));
  ASSERT_TRUE(run_until(transport, [&] { return peer_state(bad) == 0; }));
  ::close(bad);

  // The transport still serves a well-formed client afterwards.
  int good = raw_tcp_connect(port);
  Bytes frame = frame_bytes("ok");
  ASSERT_EQ(::send(good, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  ASSERT_TRUE(run_until(transport, [&] { return frames_delivered >= 1; }));
  EXPECT_EQ(transport.malformed_shed(), 1u);
  ::close(good);
}

// --- One serving pair per transport ---------------------------------------

// Three mapped endpoints (127.0.0.1..3 at one port) on one transport, each
// answering with its own index: over UDP to the datagram's source, over TCP
// on the connection it came in on.
struct ThreeEndpointFixture {
  std::uint16_t port = next_base_port();
  WireAddressMap map{RealEndpoint{0x7f000001, port}};
  std::vector<IpAddress> servers;
  std::vector<IpAddress> reached;  // destination of every delivery

  ThreeEndpointFixture() {
    for (int i = 0; i < 3; ++i) {
      servers.push_back(IpAddress::synthetic_v4(200 + i));
      map.add(servers.back());
    }
  }

  void bind_echo(WireTransport& transport, std::size_t index) {
    const IpAddress self = servers[index];
    transport.bind(self, [this, &transport, self, index](const Datagram& dgram) {
      reached.push_back(dgram.destination);
      transport.send(self, dgram.source,
                     Bytes{static_cast<std::uint8_t>(index)}, dgram.tcp);
    });
  }
};

// Drain every reply waiting on a raw UDP socket as (source host, first
// payload byte); every reply must come from the serving port.
void drain_replies(int fd, std::uint16_t port,
                   std::vector<std::pair<std::uint32_t, int>>* replies) {
  std::uint8_t byte = 0;
  sockaddr_in from{};
  socklen_t len = sizeof from;
  while (::recvfrom(fd, &byte, 1, MSG_DONTWAIT,
                    reinterpret_cast<sockaddr*>(&from), &len) == 1) {
    EXPECT_EQ(ntohs(from.sin_port), port);
    replies->emplace_back(ntohl(from.sin_addr.s_addr), byte);
    len = sizeof from;
  }
}

void send_raw(int fd, std::uint32_t host, std::uint16_t port) {
  const std::uint8_t query = 0x42;
  sockaddr_in to = loopback_addr(host, port);
  ASSERT_EQ(::sendto(fd, &query, 1, 0, reinterpret_cast<sockaddr*>(&to),
                     sizeof to),
            1);
}

TEST(WireTransportTest, ThreeEndpointsOnOnePairAnswerFromTheirOwnAddresses) {
  ThreeEndpointFixture fx;
  WireTransport transport(fx.map);
  for (std::size_t i = 0; i < fx.servers.size(); ++i) {
    fx.bind_echo(transport, i);
  }
  ASSERT_TRUE(transport.error().empty()) << transport.error();

  int client = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(client, 0);
  for (std::uint32_t i = 0; i < 3; ++i) {
    send_raw(client, 0x7f000001 + i, fx.port);
  }
  std::vector<std::pair<std::uint32_t, int>> replies;
  ASSERT_TRUE(run_until(transport, [&] {
    drain_replies(client, fx.port, &replies);
    return replies.size() >= 3;
  }));
  // Each endpoint got the datagram sent to its address and answered from
  // that address, through the one shared socket.
  std::sort(replies.begin(), replies.end());
  ASSERT_EQ(replies.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replies[i].first, 0x7f000001 + i);
    EXPECT_EQ(replies[i].second, static_cast<int>(i));
  }
  std::sort(fx.reached.begin(), fx.reached.end());
  EXPECT_EQ(fx.reached, fx.servers);
  ::close(client);
}

TEST(WireTransportTest, TcpQueryReachesTheEndpointItDialled) {
  ThreeEndpointFixture fx;
  WireTransport transport(fx.map);
  for (std::size_t i = 0; i < fx.servers.size(); ++i) {
    fx.bind_echo(transport, i);
  }
  ASSERT_TRUE(transport.error().empty()) << transport.error();

  int fd = raw_tcp_connect(fx.port, 0x7f000002);
  Bytes frame = frame_bytes("q");
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::uint8_t reply[3] = {0, 0, 0xff};
  std::size_t got = 0;
  ASSERT_TRUE(run_until(transport, [&] {
    const ssize_t n = ::recv(fd, reply + got, sizeof reply - got, MSG_DONTWAIT);
    if (n > 0) got += static_cast<std::size_t>(n);
    return got == sizeof reply;
  }));
  ASSERT_EQ(fx.reached.size(), 1u);
  EXPECT_EQ(fx.reached[0], fx.servers[1]);
  EXPECT_EQ(reply[1], 1);  // one-byte frame
  EXPECT_EQ(reply[2], 1);  // answered by endpoint 1 (127.0.0.2)
  ::close(fd);
}

TEST(WireTransportTest, UnboundMappedAddressIsUnroutableWhileNeighboursAnswer) {
  ThreeEndpointFixture fx;
  WireTransport transport(fx.map);
  fx.bind_echo(transport, 0);
  fx.bind_echo(transport, 2);  // 127.0.0.2 is mapped but never bound
  ASSERT_TRUE(transport.error().empty()) << transport.error();

  int client = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(client, 0);
  for (std::uint32_t i = 0; i < 3; ++i) {
    send_raw(client, 0x7f000001 + i, fx.port);
  }
  std::vector<std::pair<std::uint32_t, int>> replies;
  ASSERT_TRUE(run_until(transport, [&] {
    drain_replies(client, fx.port, &replies);
    return replies.size() >= 2 && transport.datagrams_unroutable() >= 1;
  }));
  std::sort(replies.begin(), replies.end());
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], (std::pair<std::uint32_t, int>{0x7f000001, 0}));
  EXPECT_EQ(replies[1], (std::pair<std::uint32_t, int>{0x7f000003, 2}));
  EXPECT_EQ(transport.datagrams_unroutable(), 1u);
  EXPECT_EQ(transport.datagrams_delivered(), 2u);
  ::close(client);
}

TEST(WireTransportTest, ServingPairOpensWithFirstMappedBindClosesWithLast) {
  WireFixture fx;
  // A transport that binds only unmapped addresses is a pure client: it
  // holds no serving socket, so a serving transport without SO_REUSEPORT
  // still gets the port.
  WireTransport client(fx.map);
  client.bind(fx.client_vaddr, [](const Datagram&) {});
  WireTransport server(fx.map);
  server.bind(fx.server_vaddr, [](const Datagram&) {});
  ASSERT_TRUE(client.error().empty()) << client.error();
  ASSERT_TRUE(server.error().empty()) << server.error();
  // Unbinding the last mapped endpoint closes the pair and frees the port.
  server.unbind(fx.server_vaddr);
  WireTransport successor(fx.map);
  successor.bind(fx.server_vaddr, [](const Datagram&) {});
  EXPECT_TRUE(successor.error().empty()) << successor.error();
}

TEST(WireTransportTest, ReusePortTransportsShareThePort) {
  ThreeEndpointFixture fx;
  WireTransportOptions options;
  options.reuse_port = true;
  WireTransport first(fx.map, options);
  WireTransport second(fx.map, options);
  for (std::size_t i = 0; i < fx.servers.size(); ++i) {
    fx.bind_echo(first, i);
    fx.bind_echo(second, i);
  }
  ASSERT_TRUE(first.error().empty()) << first.error();
  ASSERT_TRUE(second.error().empty()) << second.error();

  // Many client sockets are many flows; the kernel spreads them across the
  // two pairs, and every query is answered from the address it was sent to.
  constexpr std::uint32_t kClients = 32;
  std::vector<int> clients;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    clients.push_back(::socket(AF_INET, SOCK_DGRAM, 0));
    ASSERT_GE(clients.back(), 0);
    send_raw(clients.back(), 0x7f000001 + i % 3, fx.port);
  }
  std::vector<std::pair<std::uint32_t, int>> replies;
  for (int pass = 0; pass < 500 && replies.size() < kClients; ++pass) {
    for (WireTransport* transport : {&first, &second}) {
      const std::uint64_t guard = transport->schedule(kMillisecond, [] {});
      transport->run(1);
      transport->cancel(guard);
    }
    for (int fd : clients) drain_replies(fd, fx.port, &replies);
  }
  ASSERT_EQ(replies.size(), kClients);
  for (const auto& [host, index] : replies) {
    EXPECT_EQ(host, 0x7f000001u + static_cast<std::uint32_t>(index));
  }
  EXPECT_EQ(first.datagrams_delivered() + second.datagrams_delivered(),
            kClients);
  EXPECT_GT(first.datagrams_delivered(), 0u);
  EXPECT_GT(second.datagrams_delivered(), 0u);
  for (int fd : clients) ::close(fd);
}

// --- Endpoint stack over the wire ----------------------------------------

struct WireEngineFixture {
  IpAddress server_vaddr = IpAddress::synthetic_v4(2);
  IpAddress client_vaddr = IpAddress::v4({192, 0, 2, 1});
  std::uint16_t base_port = next_base_port();
  WireAddressMap map{RealEndpoint{0x7f000001, base_port}};
  std::unique_ptr<WireTransport> transport;
  std::shared_ptr<server::AuthServer> server;

  explicit WireEngineFixture(int txt_records = 0) {
    map.add(server_vaddr);
    transport = std::make_unique<WireTransport>(map);
    server::ServerConfig config;
    config.id = "t";
    server = std::make_shared<server::AuthServer>(config, 1);
    std::string text =
        "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
        "@ IN NS ns1\n"
        "www IN A 192.0.2.80\n";
    for (int i = 0; i < txt_records; ++i) {
      text += "big IN TXT \"payload-" + std::to_string(i) +
              "-0123456789012345678901234567890123456789\"\n";
    }
    server->add_zone(std::make_shared<dns::Zone>(
        std::move(dns::parse_zone(
                      text, dns::ZoneFileOptions{name_of("example.com."), 60}))
            .take()));
    server->attach(*transport, server_vaddr);
  }
};

TEST(WireTransportTest, QueryEngineResolvesOverRealSockets) {
  WireEngineFixture fx;
  resolver::QueryEngine engine(*fx.transport, fx.client_vaddr,
                               resolver::QueryEngineOptions{});
  bool answered = false;
  engine.query(fx.server_vaddr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 EXPECT_EQ(result->answers.size(), 1u);
                 answered = true;
               });
  // The engine holds a timeout timer per outstanding query, so plain run()
  // drives the exchange to completion — the SimNetwork contract.
  fx.transport->run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(engine.stats().responses, 1u);
  EXPECT_EQ(engine.stats().timeouts, 0u);
}

TEST(WireTransportTest, TruncatedUdpFallsBackToTcpOverWire) {
  // ~170 TXT records push the answer past the engine's 4096-byte EDNS
  // buffer: the server answers TC=1 over UDP and the engine must complete
  // the query over a real TCP connection.
  WireEngineFixture fx(/*txt_records=*/170);
  resolver::QueryEngine engine(*fx.transport, fx.client_vaddr,
                               resolver::QueryEngineOptions{});
  bool answered = false;
  engine.query(fx.server_vaddr, name_of("big.example.com."), dns::RRType::kTXT,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 EXPECT_EQ(result->answers.size(), 170u);
                 EXPECT_FALSE(result->header.tc);
                 answered = true;
               });
  fx.transport->run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(engine.stats().tcp_fallbacks, 1u);
  EXPECT_EQ(fx.transport->tcp_connections_opened(), 1u);
}

}  // namespace
}  // namespace dnsboot::net

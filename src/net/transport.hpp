// Transport — the network contract the DNS endpoints (query engine,
// scanner, authoritative servers) are written against.
//
// Two implementations exist (DESIGN.md §10):
//   * SimNetwork   — the deterministic discrete-event simulator; time is
//                    simulated and free, faults are scripted.
//   * WireTransport — real non-blocking UDP/TCP sockets on an epoll event
//                    loop; time is the monotonic clock.
// Both carry the same RFC 1035 wire bytes, so everything above this line is
// oblivious to whether a datagram crossed a heap or a kernel.
#pragma once

#include <cstdint>
#include <functional>

#include "base/bytes.hpp"
#include "net/address.hpp"

namespace dnsboot::obs {
class MetricsRegistry;
}  // namespace dnsboot::obs

namespace dnsboot::net {

// Time in microseconds. On the simulator this is simulated time since the
// run started; on the wire it is monotonic-clock time since the transport
// was created. Endpoints only ever compute with differences and delays, so
// the epoch never matters.
using SimTime = std::uint64_t;

inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * 1000;
// Sentinel for "never ends" in fault schedules.
inline constexpr SimTime kSimTimeForever = UINT64_MAX;

struct Datagram {
  IpAddress source;
  IpAddress destination;
  Bytes payload;
  // Transport marker: TCP carries arbitrarily large payloads (no server-side
  // truncation); UDP is subject to the receiver's advertised limit. Both
  // transports deliver the two the same way — the flag only informs
  // endpoints (TC-bit fallback, AXFR-over-TCP-only).
  bool tcp = false;
  // UDP ports, modelled only where the transport says models_ports(). 0 means
  // "not modelled": the wire transport leaves these 0 because the kernel
  // already enforces port routing, and endpoints skip port checks for 0.
  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  // Ground-truth marker set by the simulator's attack layer on crafted
  // traffic. Endpoints MUST NOT consult it when deciding whether to accept a
  // datagram (that would be cheating); it exists so accounting can prove a
  // forgery that slipped past every check was in fact accepted.
  bool injected = false;
};

class Transport {
 public:
  using DatagramHandler = std::function<void(const Datagram&)>;
  using TimerHandler = std::function<void()>;

  virtual ~Transport() = default;

  virtual SimTime now() const = 0;

  // Run `fn` at now() + delay. Returns a timer id usable with cancel().
  //
  // Timer-id contract, the same on every transport (SimNetwork and
  // WireTransport both queue their timers in net::EventQueue):
  //   * ids are never 0, so 0 is a safe "no timer" sentinel for callers;
  //   * an id goes stale the moment its timer fires or is cancelled, and
  //     stays stale after the transport reuses the timer's storage for a
  //     new one: cancel() of a stale, unknown or 0 id does nothing;
  //   * cancel() of a live timer takes it out of the queue at once and
  //     destroys its handler before returning.
  // Ids are not sequence numbers: never order them or compare them across
  // runs.
  virtual std::uint64_t schedule(SimTime delay, TimerHandler fn) = 0;
  virtual void cancel(std::uint64_t timer_id) = 0;

  // Attach a handler to an address. Binding an already-bound address
  // replaces the handler (used for fail-over in tests).
  virtual void bind(const IpAddress& address, DatagramHandler handler) = 0;
  virtual void unbind(const IpAddress& address) = 0;
  virtual bool is_bound(const IpAddress& address) const = 0;

  // Queue a datagram for delivery. Lost datagrams are silently dropped (the
  // caller sees a timeout, as on a real network). `tcp` requests stream
  // semantics: the wire transport really does open a TCP connection and
  // frame the payload; the simulator just marks the delivery.
  virtual void send(const IpAddress& source, const IpAddress& destination,
                    Bytes payload, bool tcp = false) = 0;

  // Full-datagram send for endpoints that stamp ports. The default forwards
  // to the legacy overload, discarding port fields — exactly right for
  // transports that don't model ports.
  virtual void send(Datagram dgram) {
    send(dgram.source, dgram.destination, std::move(dgram.payload), dgram.tcp);
  }

  // Whether Datagram port fields survive this transport. When false,
  // endpoints skip source-port randomization and port checks (the kernel
  // does both for the wire transport).
  virtual bool models_ports() const { return false; }

  // Drive the transport until it is idle — no scheduled timer remains and
  // no in-flight work is pending — or `max_events` events fire. Returns the
  // number of events processed. Endpoint completion is timer-based (every
  // outstanding query holds a timeout timer), so "no timers" means the
  // workload above has finished on either implementation.
  virtual std::size_t run(std::size_t max_events = SIZE_MAX) = 0;

  // Traffic counters (the survey reports these).
  virtual std::uint64_t datagrams_sent() const = 0;
  virtual std::uint64_t datagrams_delivered() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;

  // The transport's metrics registry (dnsboot_net_* / dnsboot_wire_*
  // counters), merged into the survey's registry by run_survey. nullptr for
  // transports that don't keep one.
  virtual const obs::MetricsRegistry* metrics_registry() const {
    return nullptr;
  }
};

}  // namespace dnsboot::net

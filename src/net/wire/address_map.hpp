// WireAddressMap — the bridge between the simulation's address space and
// real sockets.
//
// The ecosystem builder hands every nameserver a synthetic address
// (10.x.y.z / fd00::…). Over the wire those endpoints become loopback
// addresses: the map gives the N-th registered virtual address the real
// endpoint base.host + N at base.port, in registration order. Both sides of
// a wire run (dnsboot-serve and dnsboot-survey --wire) build the same
// ecosystem from the same seed and register addresses in the same
// deterministic order, so they derive identical maps with no exchange
// protocol — the seed *is* the shared configuration.
//
// Every mapped address is a loopback unicast address: the base must lie in
// 127.0.0.0/8 and the map stops short of 127.255.255.255, so one socket
// bound to 0.0.0.0:base.port on "lo" answers for all of them
// (wire_transport.hpp).
//
// Unknown real peers (a scanner's ephemeral client socket, an accepted TCP
// connection) get transient "session" virtual addresses from the RFC 6598
// CGNAT range 100.64.0.0/10, so server code keeps addressing replies by
// IpAddress exactly as it does on the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"

namespace dnsboot::net {

// A real IPv4 UDP/TCP endpoint (host byte order).
struct RealEndpoint {
  std::uint32_t host = 0;
  std::uint16_t port = 0;

  bool operator==(const RealEndpoint& other) const {
    return host == other.host && port == other.port;
  }
  std::uint64_t key() const {
    return (static_cast<std::uint64_t>(host) << 16) | port;
  }
  std::string to_text() const;
};

// Parse "127.0.0.1:5300". Returns nullopt on malformed input.
std::optional<RealEndpoint> parse_endpoint(const std::string& text);

// True for a host in 127.0.0.0/8, the only bases a WireAddressMap takes.
constexpr bool is_loopback(std::uint32_t host) { return (host >> 24) == 127; }

class WireAddressMap {
 public:
  WireAddressMap() = default;
  explicit WireAddressMap(RealEndpoint base) : base_(base) {}

  // Register a virtual address; it gets the next sequential loopback
  // address at the base port. Repeat registrations are idempotent. Returns
  // false when the base is not a loopback address or the next address
  // would be 127.255.255.255 (the world is too large for the range above
  // the base).
  bool add(const IpAddress& virtual_address);

  std::optional<RealEndpoint> real_for(const IpAddress& virtual_address) const;
  std::optional<IpAddress> virtual_for(const RealEndpoint& real) const;

  // Registration index of the mapped address `host`, or size() when no
  // mapped endpoint has it. A subtraction and a compare.
  std::size_t index_of(std::uint32_t host) const {
    const std::uint32_t index = host - base_.host;
    return index < entries_.size() ? index : entries_.size();
  }

  std::size_t size() const { return entries_.size(); }
  RealEndpoint base() const { return base_; }
  // Registration-ordered (virtual, real) pairs.
  const std::vector<std::pair<IpAddress, RealEndpoint>>& entries() const {
    return entries_;
  }

 private:
  RealEndpoint base_;
  std::vector<std::pair<IpAddress, RealEndpoint>> entries_;
  std::unordered_map<IpAddress, RealEndpoint, IpAddressHash> by_virtual_;
};

}  // namespace dnsboot::net

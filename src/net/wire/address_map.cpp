#include "net/wire/address_map.hpp"

#include <cstdio>
#include <string>

namespace dnsboot::net {

std::string RealEndpoint::to_text() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u:%u", (host >> 24) & 0xff,
                (host >> 16) & 0xff, (host >> 8) & 0xff, host & 0xff, port);
  return buf;
}

std::optional<RealEndpoint> parse_endpoint(const std::string& text) {
  unsigned a = 0, b = 0, c = 0, d = 0, port = 0;
  char trailing = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u:%u%c", &a, &b, &c, &d, &port,
                  &trailing) != 5) {
    return std::nullopt;
  }
  if (a > 255 || b > 255 || c > 255 || d > 255 || port == 0 || port > 65535) {
    return std::nullopt;
  }
  return RealEndpoint{(a << 24) | (b << 16) | (c << 8) | d,
                      static_cast<std::uint16_t>(port)};
}

bool WireAddressMap::add(const IpAddress& virtual_address) {
  if (by_virtual_.find(virtual_address) != by_virtual_.end()) return true;
  // 127.255.255.255 is the loopback broadcast address; everything below it
  // in 127.0.0.0/8 is a local unicast address on "lo".
  const std::uint64_t host =
      std::uint64_t{base_.host} + static_cast<std::uint64_t>(entries_.size());
  if (!is_loopback(base_.host) || host >= 0x7fffffffu) return false;
  RealEndpoint real{static_cast<std::uint32_t>(host), base_.port};
  entries_.emplace_back(virtual_address, real);
  by_virtual_.emplace(virtual_address, real);
  return true;
}

std::optional<RealEndpoint> WireAddressMap::real_for(
    const IpAddress& virtual_address) const {
  auto it = by_virtual_.find(virtual_address);
  if (it == by_virtual_.end()) return std::nullopt;
  return it->second;
}

std::optional<IpAddress> WireAddressMap::virtual_for(
    const RealEndpoint& real) const {
  const std::size_t index = index_of(real.host);
  if (real.port != base_.port || index == entries_.size()) return std::nullopt;
  return entries_[index].first;
}

}  // namespace dnsboot::net

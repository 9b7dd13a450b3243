#include "net/address.hpp"

#include "dns/rdata.hpp"

namespace dnsboot::net {

IpAddress IpAddress::v4(std::array<std::uint8_t, 4> octets) {
  IpAddress a;
  a.is_v6_ = false;
  std::copy(octets.begin(), octets.end(), a.bytes_.begin());
  return a;
}

IpAddress IpAddress::v6(std::array<std::uint8_t, 16> octets) {
  IpAddress a;
  a.is_v6_ = true;
  a.bytes_ = octets;
  return a;
}

IpAddress IpAddress::synthetic_v4(std::uint32_t index) {
  // 10.0.0.0/8 gives ~16.7M distinct simulated hosts.
  return v4({10, static_cast<std::uint8_t>(index >> 16),
             static_cast<std::uint8_t>(index >> 8),
             static_cast<std::uint8_t>(index)});
}

IpAddress IpAddress::synthetic_v6(std::uint64_t index) {
  std::array<std::uint8_t, 16> b{};
  b[0] = 0xfd;
  for (int i = 0; i < 8; ++i) {
    b[15 - i] = static_cast<std::uint8_t>(index >> (8 * i));
  }
  return v6(b);
}

std::string IpAddress::to_text() const {
  if (is_v6_) return dns::ipv6_to_text(bytes_);
  return dns::ipv4_to_text({bytes_[0], bytes_[1], bytes_[2], bytes_[3]});
}

}  // namespace dnsboot::net
